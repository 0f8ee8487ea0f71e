"""Span tracer for the traced benchmark run.

The tracer patches pfkit from the outside: it replaces module attributes,
class attributes and ``cli.REGISTRY`` entries with timing wrappers, and
never edits ``src/``.  A ``from`` import binds a name once per importing
module, so every copy of a name is wrapped where it is looked up.

Two kinds of wrapper:

- a *span* records ``[id, name, parent, thread, start, end, maxrss_start,
  maxrss_end, info]`` for every call;
- a *counter* (for the lattice battery's hot predicates, called hundreds
  of thousands of times) only adds up calls and seconds, keyed by the name
  of the innermost open span.

Spans stay in memory and are written once, by :meth:`Tracer.write`, when
the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import resource
import threading
import time
from collections import defaultdict

MB = 1024.0  # ru_maxrss is in KiB on Linux

# the registry checks, in registry order; each has a cli.check.<name>.s metric
CHECKS = (
    "paperfold.generation-fidelity",
    "paperfold.self-similarity",
    "paperfold.antipalindrome-census",
    "paperfold.recurrence",
    "paperfold.aperiodicity",
    "dihedral.antireversal-closure",
    "dihedral.freeness",
    "dihedral.parity-separation",
    "subst.structure",
    "subst.recoding",
    "subst.intertwining",
    "dimgroup.matrix-closed-form",
    "dimgroup.lattice-properties",
    "dimgroup.cone-identity",
    "dimgroup.involution",
    "dimgroup.discrepancy-growth",
    "dimgroup.coboundary-bound",
)

_TIMED = {
    "dimgroup": ("lattice", "cone", "involution", "discrepancy", "coboundary"),
    "dihedral": ("closure", "freeness", "parity", "extend"),
    "paperfold": ("census", "recurrence", "aperiodicity", "self_similarity"),
    "subst": ("fixed_prefix", "block_code", "recoding", "intertwining"),
}


def _maxrss() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.root = None  # the newest span opened on the main thread's empty stack
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._thread_counts = []
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counts(self) -> dict:
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = defaultdict(lambda: [0, 0.0])
            with self._lock:
                self._thread_counts.append(counts)
        return counts

    def span(self, name, fn, info=None):
        """Wrap ``fn`` so that each call records a span; ``info(args, out)``
        attaches a work count to it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            thread = threading.get_ident()
            opens_root = not stack and thread == self._main
            # a pool thread's first span hangs under the main thread's open root
            parent = stack[-1][0] if stack else (None if opens_root else self.root)
            rec = [next(self._ids), name, parent, thread, 0.0, 0.0, _maxrss(), 0, None]
            if opens_root:
                self.root = rec[0]
            stack.append(rec)
            rec[4] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[5] = time.perf_counter()
                stack.pop()
                rec[7] = _maxrss()
                self.spans.append(rec)
            if info is not None:
                rec[8] = info(args, out)
            return out

        return wrapper

    def counter(self, name, fn):
        """Wrap ``fn`` so that each call adds to a (calls, seconds) pair
        keyed by ``name`` and the innermost open span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack = self._stack()
                c = self._counts()[(name, stack[-1][1] if stack else None)]
                c[0] += 1
                c[1] += dt

        return wrapper

    # -- results -----------------------------------------------------------

    def counters(self) -> dict:
        merged = defaultdict(lambda: [0, 0.0])
        for counts in self._thread_counts:
            for key, (n, s) in counts.items():
                merged[key][0] += n
                merged[key][1] += s
        return merged

    def self_times(self) -> dict:
        """Per span name: total duration minus the part covered by child
        spans on the same thread."""
        child_time = defaultdict(float)
        by_id = {rec[0]: rec for rec in self.spans}
        for rec in self.spans:
            parent = by_id.get(rec[2])
            if parent is not None and parent[3] == rec[3]:
                child_time[parent[0]] += rec[5] - rec[4]
        out = defaultdict(float)
        for rec in self.spans:
            out[rec[1]] += rec[5] - rec[4] - child_time[rec[0]]
        return dict(sorted(out.items()))

    def write(self, path, extra: dict) -> None:
        keys = ("id", "name", "parent", "thread", "start", "end", "maxrss_start_kb", "maxrss_end_kb", "info")
        doc = {
            "run_id": self.run_id,
            **extra,
            "self_s": self.self_times(),
            "counters": [
                {"name": n, "within": w, "calls": c, "s": s}
                for (n, w), (c, s) in sorted(self.counters().items(), key=str)
            ],
            "spans": [
                {"run_id": self.run_id, **dict(zip(keys, rec))}
                for rec in sorted(self.spans, key=lambda r: r[0])
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def install(tracer: Tracer) -> None:
    """Wrap every call boundary the per-layer metrics read."""
    from pfkit import cli, dihedral, dimgroup, paperfold, report, subst, words

    span, counter = tracer.span, tracer.counter

    cli.run_all = span("cli.run_all", cli.run_all)
    cli.REGISTRY = tuple((name, span("cli.check." + name, fn)) for name, fn in cli.REGISTRY)
    report.emit_report = span("report.emit", report.emit_report, lambda a, out: len(out.encode()))

    # one prefix layer, reached through every binding of its three names
    paperfold._prefix_array = span("paperfold.prefix", paperfold._prefix_array)
    for mod, name in ((paperfold, "pf_word"), (paperfold, "pf_prefix"), (dihedral, "pf_word"),
                      (subst, "pf_prefix"), (dimgroup, "pf_prefix")):
        setattr(mod, name, span("paperfold.prefix", getattr(mod, name)))
    paperfold.antipalindrome_census = span("paperfold.census", paperfold.antipalindrome_census)
    paperfold.verify_recurrence = span("paperfold.recurrence", paperfold.verify_recurrence)
    paperfold.check_aperiodic = span("paperfold.aperiodicity", paperfold.check_aperiodic)
    paperfold.verify_self_similarity = span("paperfold.self_similarity", paperfold.verify_self_similarity)

    windows = lambda a, out: (len(out), a[1])  # noqa: E731 - (window count, length)
    for mod in (words, dihedral, paperfold):
        mod.window_codes = span("words.window_codes", mod.window_codes, windows)
    from_array = words.Word.__dict__["from_array"].__func__
    words.Word.from_array = classmethod(span("words.from_array", from_array))
    words.to_pfw_bytes = span("words.pfw.encode", words.to_pfw_bytes, lambda a, out: len(out))
    words.from_pfw_bytes = span("words.pfw.decode", words.from_pfw_bytes)

    oracle = dihedral.LanguageOracle
    oracle.factor_codes = span("dihedral.factor_codes", oracle.factor_codes, lambda a, out: len(out))
    oracle.is_saturated = span("dihedral.saturation", oracle.is_saturated)
    oracle.contains = span("dihedral.contains", oracle.contains)
    dihedral.check_closure_under_antireversal = span("dihedral.closure", dihedral.check_closure_under_antireversal)
    dihedral.freeness_certificate = span("dihedral.freeness", dihedral.freeness_certificate)
    dihedral.parity_class_separation = span("dihedral.parity", dihedral.parity_class_separation)
    dihedral.left_extend = span("dihedral.extend", dihedral.left_extend, lambda a, out: out.length - a[1].length)

    subst.apply = span("subst.apply", subst.apply, lambda a, out: out.length)
    subst.fixed_prefix = span("subst.fixed_prefix", subst.fixed_prefix)
    subst.block_code = span("subst.block_code", subst.block_code)
    subst.verify_recoding = span("subst.recoding", subst.verify_recoding)
    subst.verify_intertwining = span("subst.intertwining", subst.verify_intertwining)

    for name in ("_membership_triple", "in_G", "in_H", "in_G_plus"):
        setattr(dimgroup, name, counter("dimgroup.membership", getattr(dimgroup, name)))
    dimgroup.alpha = counter("dimgroup.alpha", dimgroup.alpha)
    samples = lambda a, out: out.params["samples"] * (out.params["index_max"] - 1)  # noqa: E731
    dimgroup.verify_lattice_properties = span("dimgroup.lattice", dimgroup.verify_lattice_properties, samples)
    dimgroup.verify_cone_identity = span("dimgroup.cone", dimgroup.verify_cone_identity)
    dimgroup.verify_involution_algebra = span("dimgroup.involution", dimgroup.verify_involution_algebra)
    dimgroup.verify_unbounded_discrepancy = span("dimgroup.discrepancy", dimgroup.verify_unbounded_discrepancy)
    dimgroup.verify_coboundary_bound = span("dimgroup.coboundary", dimgroup.verify_coboundary_bound)


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric except trace.overhead_s, which needs an
    untraced run.  A module that did not run reports zeros."""
    from pfkit import paperfold

    names = {}
    spans = sorted(tracer.spans, key=lambda r: r[0])
    # names of the spans enclosing each span; a parent opens before its child
    above = {}
    for rec in spans:
        parent = rec[2]
        above[rec[0]] = above[parent] | {names[parent]} if parent in above else frozenset()
        names[rec[0]] = rec[1]

    def outermost(name):
        """Spans called ``name`` that are not nested in another such span."""
        return [r for r in spans if r[1] == name and name not in above[r[0]]]

    def seconds(name):
        return sum((r[5] - r[4] for r in outermost(name)), 0.0)

    def rss_growth(module):
        top = [r for r in spans if r[1].startswith(module + ".")
               and not any(a.startswith(module + ".") for a in above[r[0]])]
        return sum(r[7] - r[6] for r in top) / MB

    m = {}
    checks = {r[1]: r for r in spans if r[1].startswith("cli.check.")}
    for check in CHECKS:
        rec = checks.get("cli.check." + check)
        m[f"cli.check.{check}.s"] = rec[5] - rec[4] if rec else 0.0
    run_all = outermost("cli.run_all")
    busy = sum(r[5] - r[4] for r in checks.values())
    m["cli.pool.wait_s"] = sum(r[4] - run_all[0][4] for r in checks.values()) if run_all else 0.0
    m["cli.pool.parallel_ratio"] = busy / (run_all[0][5] - run_all[0][4]) if run_all else 0.0
    m["report.emit.s"] = seconds("report.emit")
    m["report.bytes"] = sum(r[8] or 0 for r in outermost("report.emit"))

    counters = tracer.counters()
    membership = [(c, s) for (n, _), (c, s) in counters.items() if n == "dimgroup.membership"]
    calls = sum(c for c, _ in membership)
    lattice_images = sum(c for (n, w), (c, _) in counters.items()
                         if n == "dimgroup.membership" and w == "dimgroup.lattice")
    lattice_samples = sum(r[8] or 0 for r in outermost("dimgroup.lattice"))
    alpha = [(c, s) for (n, _), (c, s) in counters.items() if n == "dimgroup.alpha"]
    m["dimgroup.images_per_sample"] = lattice_images / lattice_samples if lattice_samples else 0.0
    m["dimgroup.membership.calls"] = calls
    m["dimgroup.membership.us_per_call"] = 1e6 * sum(s for _, s in membership) / calls if calls else 0.0
    m["dimgroup.alpha.calls"] = sum(c for c, _ in alpha)
    m["dimgroup.alpha.s"] = sum(s for _, s in alpha)
    for part in _TIMED["dimgroup"]:
        m[f"dimgroup.{part}.s"] = seconds(f"dimgroup.{part}")
    m["dimgroup.rss_growth_mb"] = rss_growth("dimgroup")

    for part in ("factor_codes", "saturation", "contains"):
        m[f"dihedral.{part}.calls"] = len(outermost(f"dihedral.{part}"))
        m[f"dihedral.{part}.s"] = seconds(f"dihedral.{part}")
    extends = outermost("dihedral.extend")
    probes = sum(1 for r in spans if r[1] == "dihedral.contains" and "dihedral.extend" in above[r[0]])
    m["dihedral.extend.accept_ratio"] = sum(r[8] or 0 for r in extends) / probes if probes else 0.0
    coded_in = {r[2] for r in spans if r[1] == "words.window_codes"}
    distinct = sum(r[8] or 0 for r in spans if r[1] == "dihedral.factor_codes" and r[0] in coded_in)
    oracle_windows = sum(r[8][0] for r in spans if r[1] == "words.window_codes" and r[8]
                         and above[r[0]] & {"dihedral.factor_codes", "dihedral.saturation"})
    m["dihedral.distinct_per_window"] = distinct / oracle_windows if oracle_windows else 0.0
    for part in _TIMED["dihedral"]:
        m[f"dihedral.{part}.s"] = seconds(f"dihedral.{part}")

    coded = outermost("words.window_codes")
    m["words.window_codes.calls"] = len(coded)
    m["words.window_codes.s"] = seconds("words.window_codes")
    m["words.windows_coded"] = sum(n * ell for n, ell in (r[8] for r in coded if r[8]))
    m["words.from_array.calls"] = len(outermost("words.from_array"))
    m["words.from_array.s"] = seconds("words.from_array")
    m["words.pfw.encode_s"] = seconds("words.pfw.encode")
    m["words.pfw.decode_s"] = seconds("words.pfw.decode")
    m["words.pfw.bytes"] = sum(r[8] or 0 for r in outermost("words.pfw.encode"))

    m["paperfold.prefix.calls"] = len(outermost("paperfold.prefix"))
    m["paperfold.prefix.s"] = seconds("paperfold.prefix")
    m["paperfold.cache_mb"] = paperfold._prefix_cache.nbytes / 2**20
    m["paperfold.rss_growth_mb"] = rss_growth("paperfold")
    for part in _TIMED["paperfold"]:
        m[f"paperfold.{part}.s"] = seconds(f"paperfold.{part}")

    applies = outermost("subst.apply")
    m["subst.apply.calls"] = len(applies)
    m["subst.apply.symbols"] = sum(r[8] or 0 for r in applies)
    m["subst.apply.s"] = seconds("subst.apply")
    for part in _TIMED["subst"]:
        m[f"subst.{part}.s"] = seconds(f"subst.{part}")
    return m
