"""One run of one benchmark workload, in a fresh interpreter.

    python3 perfbench/workload.py --workload scan --seed 42 --t0 <monotonic>
        [--setup-only] [--trace TRACE_FILE] [--negative-control]

``run.py`` starts this script once per measured run, so pfkit's lazy
caches (the prefix cache, the matrix powers, the oracles) start cold as
they do for a command-line user.  ``--t0`` is the parent's
``time.monotonic()`` just before the start, so ``setup_s`` covers
interpreter start, imports and input generation.

Only the workload's calls into pfkit are timed.  Every output is checked
against the benchmark's own oracle after its call returns, outside the
timed region; an op is attempted once per checked output.  The closed form
``t[k-1] = 1 iff the odd part of k is 1 mod 4`` is that oracle for
symbols.  ``--negative-control`` flips one symbol of a reference the gate
compares against, so at least one op must fail.

The last line of standard output is one JSON object with the run's
numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time

import numpy as np

import spans
from pfkit import cli, dihedral, dimgroup, paperfold, report, subst, words

CHUNK = 1 << 18
LANGUAGE_GENERATIONS = (18, 20)
EXTENDS_PER_GENERATION = 200
SCAN_GENERATION = 24
SCAN_SEGMENTS = 256
SCAN_POSITIONS = 4096


def closed_form(k: np.ndarray) -> np.ndarray:
    """Symbol t[k-1] for 1-based int64 positions k."""
    return ((k // (k & -k)) & 3 == 1).astype(np.uint8)


def closed_form_prefix(n: int) -> np.ndarray:
    """The first n symbols, computed in chunks to keep set-up memory small."""
    out = np.empty(n, np.uint8)
    for a in range(0, n, CHUNK):
        out[a : a + CHUNK] = closed_form(np.arange(a + 1, min(a + CHUNK, n) + 1, dtype=np.int64))
    return out


class Run:
    """Adds up wall and CPU time over the timed calls and counts the ops
    that pass or fail the correctness gate."""

    def __init__(self):
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.attempted = 0
        self.failed = []

    def call(self, fn, *args):
        c0, t0 = time.process_time(), time.perf_counter()
        out = fn(*args)
        self.wall_s += time.perf_counter() - t0
        self.cpu_s += time.process_time() - c0
        return out

    def gate(self, op: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(op)


# ---------------------------------------------------------------------------
# suite-full: what `pfkit report --profile full` runs


def setup_suite(seed, negative):
    if negative:
        ref = paperfold.T_REFERENCE
        paperfold.T_REFERENCE = ref[:-1] + (ref[-1][:-1] + str(1 - int(ref[-1][-1])),)
    return {"seed": seed}


def run_suite(run, inputs):
    reports = run.call(cli.run_all, "full", inputs["seed"])
    text = run.call(report.emit_report, reports, "json")
    for r in reports:
        run.gate(r.check, r.status == "pass")
    body = json.loads(text)
    for entry in body:
        del entry["elapsed_ms"]
    run.gate("report", [e["check"] for e in body] == [r.check for r in reports])
    return {"digest": hashlib.sha256(json.dumps(body).encode()).hexdigest()}


# ---------------------------------------------------------------------------
# language: the factor-language engine


def setup_language(seed, negative):
    rng = random.Random(seed)
    inputs = {}
    for g in LANGUAGE_GENERATIONS:
        text = closed_form_prefix(2 ** (g + 1) - 1)
        if negative and g == LANGUAGE_GENERATIONS[0]:
            text[text.size // 2] ^= 1
        starts = []
        for _ in range(EXTENDS_PER_GENERATION):
            length = rng.randint(4, 12)
            k = rng.randrange(text.size - length + 1)
            starts.append(words.Word.from_array(text[k : k + length]))
        inputs[g] = ((text + ord("0")).tobytes(), starts)
    return inputs


def as_text(word) -> bytes:
    return (word.to_array() + ord("0")).tobytes()


def run_language(run, inputs):
    for g, (text, starts) in inputs.items():
        oracle = run.call(dihedral.LanguageOracle.from_generation, g, 48)
        run.gate("oracle", as_text(oracle.source) == text)
        rep = run.call(dihedral.check_closure_under_antireversal, oracle, 16)
        run.gate("closure", rep.status == "pass")
        oracle8 = run.call(dihedral.LanguageOracle.from_generation, g, 8)
        run.gate("oracle", as_text(oracle8.source) == text)
        cert = run.call(dihedral.freeness_certificate, oracle8)
        run.gate("freeness", cert.verdict == "pass")
        census = run.call(paperfold.antipalindrome_census, g, 8)
        run.gate("census", census.saturated and census.counts[8] == 0
                 and all(census.counts[ell] >= 1 for ell in (2, 4, 6)))
        rep = run.call(dihedral.parity_class_separation, 100_000, g)
        run.gate("parity", rep.status == "pass")
        for w in starts:
            ext = run.call(dihedral.left_extend, oracle, w, 8, 24)
            s = as_text(ext)
            run.gate("extend", ext.length == w.length + 8 and s.endswith(as_text(w)) and s in text)
    return {}


# ---------------------------------------------------------------------------
# scan: long-prefix generation, the PFW codec and the prefix scans


def setup_scan(seed, negative):
    rng = random.Random(seed)
    n = 2 ** (SCAN_GENERATION + 1) - 1
    segments = []
    for _ in range(SCAN_SEGMENTS):
        length = rng.randint(1, 1 << 16)
        segments.append((rng.randrange(n - length + 1), length))
    positions = np.array(sorted(rng.randrange(n) for _ in range(SCAN_POSITIONS)), dtype=np.int64)
    expected = closed_form(positions + 1)
    if negative:
        expected[0] ^= 1
    ends = np.array([(k, k + length - 1) for k, length in segments], dtype=np.int64)
    return {"n": n, "segments": segments, "positions": positions,
            "expected": expected, "segment_ends": closed_form(ends + 1)}


def run_scan(run, inputs):
    n, positions, expected = inputs["n"], inputs["positions"], inputs["expected"]
    word = run.call(paperfold.pf_word, SCAN_GENERATION)
    run.gate("pf_word", word.length == n and np.array_equal(word.to_array()[positions], expected))
    for (k, length), ends in zip(inputs["segments"], inputs["segment_ends"]):
        seg = run.call(words.segment, word, k, k + length - 1)
        arr = seg.to_array()
        run.gate("segment", seg.length == length and arr[0] == ends[0] and arr[-1] == ends[1])
        data = run.call(words.to_pfw_bytes, seg)
        run.gate("encode", len(data) == 14 + (length + 7) // 8)
        run.gate("decode", run.call(words.from_pfw_bytes, data) == seg)
    data = run.call(words.to_pfw_bytes, word)
    run.gate("encode", len(data) == 14 + (n + 7) // 8)
    back = run.call(words.from_pfw_bytes, data)
    run.gate("decode", back == word and np.array_equal(back.to_array()[positions], expected))
    del back, data

    checks = [(subst.verify_recoding, 2**23), (subst.verify_intertwining, 2**24),
              (paperfold.check_aperiodic, 2**20, 4096, 4096)]
    checks += [(paperfold.verify_recurrence, p, 22) for p in range(9)]
    checks += [(paperfold.verify_self_similarity, p, m) for p in range(12) for m in range(12 - p)]
    checks += [(dimgroup.verify_unbounded_discrepancy, 24), (dimgroup.verify_coboundary_bound, 2**24)]
    for fn, *args in checks:
        rep = run.call(fn, *args)
        run.gate(fn.__name__, rep.status == "pass")
    return {}


WORKLOADS = {
    "suite-full": (setup_suite, run_suite),
    "language": (setup_language, run_language),
    "scan": (setup_scan, run_scan),
}


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "threads": cli._max_threads(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", metavar="TRACE_FILE")
    ap.add_argument("--negative-control", action="store_true")
    args = ap.parse_args(argv)

    setup, body = WORKLOADS[args.workload]
    inputs = setup(args.seed, args.negative_control)
    out = {"setup_s": time.monotonic() - args.t0}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer = None
    if args.trace:
        tracer = spans.Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")
        spans.install(tracer)
    run = Run()
    out.update(body(run, inputs))
    out.update(
        wall_s=run.wall_s,
        cpu_s=run.cpu_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=run.attempted,
        failed=len(run.failed),
        failed_ops=sorted(set(run.failed)),
        env=environment(),
    )
    if tracer is not None:
        out["layers"] = spans.layer_metrics(tracer)
        tracer.write(args.trace, {"workload": args.workload, "seed": args.seed, "env": out["env"]})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
