"""pfkit command line: orchestrates every check with JSON reporting.

Report schema (one object per check, fixed key order):

    {"check": str, "status": "pass"|"fail"|"inconclusive"|"error",
     "params": {...}, "witness": ..., "elapsed_ms": int,
     "seed": int | null, "certifies": str}

Single commands print one report object, ``pfkit dimgroup verify`` its
three batteries' reports as a JSON array; ``pfkit report`` prints the
whole suite as a JSON array (or a markdown table with --format markdown).
Two runs with identical flags and seed produce identical output except
for the elapsed_ms fields.  Exit code: 0 when everything passes, 1 when
some check fails or is inconclusive, 2 when a check errors out or the
input is rejected (a bad argument, a resource cap, running out of
memory, or a file that cannot be read or written).  A rejected input,
argparse's rejections and running out of memory included, prints one
JSON ``error`` line on stderr and nothing on stdout.

The suite runs its checks one after another on the calling thread, in
registry order, and reports them in that order.  A check whose lemma
rests on facts that other checks establish names them in ``PREMISES``;
when such a premise ran earlier in the same run and did not pass, the
check is not run and reports inconclusive, with the premise and its
status as witness.  The single commands run scans, which have no
premises, so pass, fail and inconclusive mean the same there as in the
suite.  No suite check draws a random number: the seed is echoed in
every report, and only ``pfkit dimgroup verify`` draws from it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from . import dihedral, dimgroup, paperfold, subst
from .errors import DomainError, ExtensionError, PfkitError, ResourceError, integer
from .report import Check, CheckReport, emit_report, jsonable
from .words import Word, to_pfw_bytes

DEFAULT_SEED = 42

# the profiles differ only in the self-similarity budget: generation 11
# (2^12 - 1 symbols) against 12 (2^13 - 1)
PROFILES = {
    "quick": dict(selfsim_budget=10),
    "full": dict(selfsim_budget=12),
}


# ---------------------------------------------------------------------------
# suite checks built on the module operations


def _check_self_similarity_battery(budget: int) -> CheckReport:
    """Every (p, n) with p + n + 1 within budget, by one comparison at
    p = 0 and n = budget - 1.  Over its 2^(budget + 1) - 1 symbols that
    identity says t[2j] = t[0] xor (j mod 2) and t[2j+1] = t[j], which
    fixes the word from its first symbol: it is the paper-folding word or
    its complement, and both satisfy every (p, n) identity.  So no pair
    fails unless this one does; on a failure the battery reports the
    first failing pair, p = 0 at the least n whose comparison,
    2^(n+2) - 1 symbols, reaches the first mismatch.

    A source shorter than 2^(budget + 1) - 1 symbols errors in the
    comparison, so its two sides never differ in size and a failure
    always names its first mismatch."""
    chk = Check("paperfold.self-similarity", {"budget": budget},
                "block interleaving identity for all p+n+1 within budget")
    rep = paperfold.verify_self_similarity(0, budget - 1)
    if rep.status == "pass":
        return chk.passed()
    n = (rep.witness["first_mismatch"] + 1).bit_length() - 2
    rep = paperfold.verify_self_similarity(0, max(n, 0))
    return dataclasses.replace(rep, elapsed_ms=chk.ms)


def _check_census(generation: int, max_len: int) -> CheckReport:
    """Anti-palindrome census of a generation, the same rule in the suite
    and the CLI: an unsaturated census is inconclusive; a saturated one
    passes when there are anti-palindromic factors of lengths 2, 4 and 6
    and none of any length from 8 to max_len.  A max_len below 8 cannot
    see where they stop, so it is refused before any symbol is built."""
    max_len = integer(max_len, "max_len", lo=8)
    chk = Check("paperfold.antipalindrome-census", {"generation": generation, "max_len": max_len},
                "anti-palindromic factors exist up to length 6 and stop at 8")
    census = paperfold.antipalindrome_census(generation, max_len)
    if not census.saturated:
        return chk.report("inconclusive", jsonable(census))
    counts = census.counts
    present = all(counts[ell] >= 1 for ell in (2, 4, 6))
    absent = all(counts[ell] == 0 for ell in range(8, max_len + 1, 2))
    return chk.report("pass" if present and absent else "fail", jsonable(census))


def _check_closure(n_max: int) -> CheckReport:
    oracle = dihedral.LanguageOracle.from_generation(paperfold.language_generation(n_max), n_max)
    return dihedral.check_closure_under_antireversal(oracle, n_max)


def _check_freeness(generation: int) -> CheckReport:
    chk = Check("dihedral.freeness", {"generation": generation},
                "closure plus bounded anti-palindromes: the dihedral action has no fixed points")
    cert = dihedral.freeness_certificate(dihedral.LanguageOracle.from_generation(generation, 8))
    return chk.report(cert.verdict, jsonable(cert))


def _check_subst_structure() -> CheckReport:
    chk = Check("subst.structure", {}, "substitution is primitive at 3, left-proper at 2 "
                "with head '3', matrix and fixed prefix match")
    s = subst.PAPERFOLD_SUBSTITUTION
    facts = {
        "primitive_index": subst.is_primitive(s, subst.PRIMITIVITY_BOUND),
        "left_proper_index": subst.is_left_proper(s, subst.LEFT_PROPER_BOUND),
        "first_letters": list(subst.first_letters(s, 2)),
        "matrix": subst.abelianization(s).entries,
        "fixed_prefix_32": str(subst.fixed_prefix(s, 32)),
    }
    ok = (
        facts["primitive_index"] == 3
        and facts["left_proper_index"] == 2
        and set(facts["first_letters"]) == {3}
        and facts["matrix"] == dimgroup.PAPERFOLD_MATRIX
        and facts["fixed_prefix_32"] == "31213021312030213121302031203021"
    )
    return chk.report("pass" if ok else "fail", facts)


# each entry is called as fn(params)
REGISTRY = (
    ("paperfold.generation-fidelity", lambda p: paperfold.verify_generation_fidelity()),
    ("paperfold.self-similarity", lambda p: _check_self_similarity_battery(p["selfsim_budget"])),
    ("paperfold.antipalindrome-census", lambda p: _check_census(paperfold.language_generation(8), 8)),
    ("paperfold.recurrence", lambda p: paperfold.verify_recurrence_blocks()),
    ("paperfold.aperiodicity", lambda p: paperfold.verify_aperiodicity_witness()),
    ("dihedral.antireversal-closure", lambda p: _check_closure(16)),
    ("dihedral.freeness", lambda p: _check_freeness(paperfold.language_generation(8))),
    ("dihedral.parity-separation", lambda p: dihedral.verify_parity_residues()),
    ("subst.structure", lambda p: _check_subst_structure()),
    ("subst.recoding", lambda p: subst.verify_recoding_induction()),
    ("subst.intertwining", lambda p: subst.verify_intertwining_pairs()),
    ("dimgroup.matrix-closed-form", lambda p: dimgroup.verify_closed_form_induction()),
    ("dimgroup.lattice-properties", lambda p: dimgroup.verify_lattice_image()),
    ("dimgroup.cone-identity", lambda p: dimgroup.verify_cone_stage()),
    ("dimgroup.involution", lambda p: dimgroup.verify_twist_identity()),
    ("dimgroup.discrepancy-growth", lambda p: dimgroup.verify_discrepancy_recursion()),
)

# the checks whose lemma rests on facts that earlier entries check: the
# bridge lemma of paperfold.language_generation, and the interleaving
# identity and the closed form that the proofs induct from
_LANGUAGE = ("paperfold.generation-fidelity", "paperfold.self-similarity")
_WORD = ("paperfold.self-similarity",)
PREMISES = {
    "paperfold.antipalindrome-census": _LANGUAGE,
    "paperfold.recurrence": _WORD,
    "paperfold.aperiodicity": _WORD,
    "dihedral.antireversal-closure": _LANGUAGE,
    "dihedral.freeness": _LANGUAGE,
    "dihedral.parity-separation": _WORD,
    "subst.recoding": _WORD,
    "dimgroup.lattice-properties": ("dimgroup.matrix-closed-form",),
    "dimgroup.discrepancy-growth": _WORD,
}


def _max_threads() -> int:
    # the suite runs on one thread; the benchmark records this as env.threads
    return 1


def run_all(profile: str = "quick", seed: int = DEFAULT_SEED):
    """Run the whole registry with profile-scaled parameters, one check
    after another in registry order; any exception becomes a report with
    status error.  A check with a premise (PREMISES) that ran earlier in
    the same run and did not pass is not run: it is inconclusive, with
    the first such premise and its status as witness.  A premise outside
    the run does not gate.  Every report echoes the suite seed, which must
    be non-negative, as for ``pfkit dimgroup verify``."""
    if profile not in PROFILES:
        raise PfkitError(f"unknown profile {profile!r}")
    seed = integer(seed, "seed", lo=0)
    params = PROFILES[profile]
    reports, status = [], {}
    for name, fn in REGISTRY:
        chk = Check(name, {"profile": profile}, "")
        failed = [p for p in PREMISES.get(name, ()) if status.get(p, "pass") != "pass"]
        if failed:
            rep = chk.report("inconclusive", {"premise": failed[0], "status": status[failed[0]]})
        else:
            try:
                rep = fn(params)
            except Exception as exc:  # noqa: BLE001 - reported, not swallowed
                rep = chk.report("error", {"exception": f"{type(exc).__name__}: {exc}"})
        status[name] = rep.status
        reports.append(dataclasses.replace(rep, seed=seed))
    return reports


def exit_code(reports) -> int:
    if any(r.status == "error" for r in reports):
        return 2
    if any(r.status in ("fail", "inconclusive") for r in reports):
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument parsing

_DESCRIPTION = (
    "Certify facts about the paper-folding subshift. Each command prints its check "
    "report as JSON; 'dimgroup verify' and 'report' print a JSON array of reports, "
    "and 'report --format markdown' a table. 'paperfold gen' and 'subst "
    "fixed-prefix' print symbols. --out writes to a file instead of stdout. Exit "
    "code: 0 when every check passes, 1 when some check fails or is inconclusive, "
    "2 when a check errors, the input is rejected or memory runs out; a rejected "
    "input or a lack of memory prints one JSON \"error\" line on stderr and nothing "
    "on stdout."
)


class _Parser(argparse.ArgumentParser):
    """Rejects an argument by raising, so that it leaves through main's one
    error path; subparsers are built by the same class."""

    def error(self, message):
        raise DomainError(message)


def _emit(result, args) -> int:
    """Write a command's result to --out, or else to stdout, and return
    its exit code.  A report or a list of reports is written as JSON (a
    list by --format, when the command has one); raw symbols, text or PFW
    bytes, are written as they are and exit 0."""
    code = 0
    if isinstance(result, CheckReport):
        result, code = json.dumps(result.to_dict(), indent=2), exit_code([result])
    elif isinstance(result, list):
        result, code = emit_report(result, getattr(args, "format", "json")), exit_code(result)
    if isinstance(result, str):
        result += "\n"
    binary = isinstance(result, bytes)
    if getattr(args, "out", None):
        with open(args.out, "wb" if binary else "w") as fh:
            fh.write(result)
    else:
        (sys.stdout.buffer if binary else sys.stdout).write(result)
    return code


def _cmd_gen(args) -> str | bytes:
    word = paperfold.pf_word(args.n)
    return to_pfw_bytes(word) if args.format == "pfw" else str(word)


def _cmd_extend(args) -> CheckReport:
    # refused before the oracle builds its generation, which at
    # --generation 30 fills 2 GiB
    integer(args.steps, "steps", lo=0, cap=dihedral.MAX_EXTEND_STEPS)
    integer(args.horizon, "horizon", lo=1)
    params = {"seed": args.seed, "steps": args.steps, "horizon": args.horizon,
              "generation": args.generation}
    chk = Check("dihedral.left-extend", params, "the seed extends leftwards inside the language")
    seed_word = Word(args.seed)
    max_len = len(seed_word) + args.steps + args.horizon
    oracle = dihedral.LanguageOracle.from_generation(args.generation, max_len)
    try:
        extended = dihedral.left_extend(oracle, seed_word, args.steps, args.horizon)
        return chk.passed({"word": str(extended)})
    except ExtensionError as exc:
        return chk.report("error", {"stuck_prefix": str(exc.stuck_prefix), "horizon": exc.horizon})


def _load_substitution(path):
    if not path:
        return subst.PAPERFOLD_SUBSTITUTION
    with open(path, "rb") as fh:  # from_json rejects bytes that are not UTF-8
        return subst.Substitution.from_json(fh.read())


def _cmd_subst_info(args) -> CheckReport:
    chk = Check("subst.info", {"rules": args.rules or "builtin"},
                "structural facts of the substitution")
    s = _load_substitution(args.rules)
    info = {
        "rules": json.loads(s.to_json())["rules"],
        "primitive_index": subst.is_primitive(s, subst.PRIMITIVITY_BOUND),
        "left_proper_index": subst.is_left_proper(s, subst.LEFT_PROPER_BOUND),
        "matrix": subst.abelianization(s).entries,
    }
    return chk.passed(info)


def _cmd_dim_matpow(args) -> CheckReport:
    chk = Check("dimgroup.matpow", {"n": args.n}, "exact matrix power")
    power = dimgroup.mat_pow(dimgroup.PAPERFOLD_MATRIX, args.n)
    return chk.passed({"matrix": [list(row) for row in power]})


# the command groups: words -> (help, or None for none; the dest its
# subcommand parses into)
_GROUPS = {
    "": (None, "command"),
    "paperfold": ("generation and word-level checks", "subcommand"),
    "paperfold verify": ("word-level verifications", "verification"),
    "dihedral": ("dihedral-action certificates", "subcommand"),
    "subst": ("substitution facts and recoding", "subcommand"),
    "subst verify": (None, "verification"),
    "dimgroup": ("exact dimension-group arithmetic", "subcommand"),
}

_INT = dict(type=int, required=True)

# the commands, in the order --help lists them: words, help (or None for
# none), whether --out is taken, the flags (name -> argparse keywords) and the
# handler, which returns a report, a list of reports, or raw symbols as
# text or bytes; every dest is the one argparse derives from the flag
COMMANDS = (
    ("paperfold gen", "emit a generation", True,
     {"--n": dict(type=int, default=20), "--format": dict(choices=("text", "pfw"), default="text")},
     _cmd_gen),
    ("paperfold census", "anti-palindrome census", True, {"--generation": _INT, "--max-len": _INT},
     lambda a: _check_census(a.generation, a.max_len)),
    ("paperfold verify self-similarity", None, True, {"--p": _INT, "--n": _INT},
     lambda a: paperfold.verify_self_similarity(a.p, a.n)),
    ("paperfold verify recurrence", None, True, {"--p": _INT, "--generation": _INT},
     lambda a: paperfold.verify_recurrence(a.p, a.generation)),
    ("paperfold verify aperiodic", None, True,
     {"--max-period": _INT, "--preperiod": _INT, "--prefix-len": _INT},
     lambda a: paperfold.check_aperiodic(a.prefix_len, a.max_period, a.preperiod)),
    ("dihedral freeness", None, True, {"--generation": _INT}, lambda a: _check_freeness(a.generation)),
    ("dihedral parity", None, True, {"--k": _INT, "--generation": _INT},
     lambda a: dihedral.parity_class_separation(a.k, a.generation)),
    ("dihedral extend", None, True,
     {"--seed": dict(required=True, help="seed word (binary text)"), "--steps": _INT,
      "--horizon": _INT, "--generation": dict(type=int, default=16)},
     _cmd_extend),
    ("subst info", None, True, {"--rules": dict(help="substitution JSON file")}, _cmd_subst_info),
    # no --out: the symbols go to stdout
    ("subst fixed-prefix", None, False, {"--len": _INT, "--rules": {}},
     lambda a: str(subst.fixed_prefix(_load_substitution(a.rules), a.len))),
    ("subst verify recode", None, True, {"--len": _INT}, lambda a: subst.verify_recoding(a.len)),
    ("subst verify intertwine", None, True, {"--len": _INT}, lambda a: subst.verify_intertwining(a.len)),
    ("dimgroup verify", None, True,
     {"--index-max": dict(type=int, default=12), "--samples": dict(type=int, default=10_000),
      "--seed": dict(type=int, default=DEFAULT_SEED)},
     lambda a: [dimgroup.verify_lattice_properties(a.index_max, a.samples, a.seed),
                dimgroup.verify_cone_identity(a.samples, a.seed),
                dimgroup.verify_involution_algebra(min(a.samples, 1000), a.seed)]),
    ("dimgroup matpow", None, True, {"--n": _INT}, _cmd_dim_matpow),
    ("dimgroup discrepancy", None, True, {"--n-max": dict(type=int, default=20)},
     lambda a: dimgroup.verify_unbounded_discrepancy(a.n_max)),
    ("report", "run the whole verification suite", True,
     {"--profile": dict(choices=tuple(PROFILES), default="quick"),
      "--format": dict(choices=("json", "markdown"), default="json"),
      "--seed": dict(type=int, default=DEFAULT_SEED)},
     lambda a: run_all(a.profile, a.seed)),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The pfkit parser, built once per process from COMMANDS and _GROUPS:
    parsing keeps no state in it, a rejected argument vector included.
    Each command's handler is bound at the first build, so patching a
    ``_cmd_*`` function afterwards does not reach it."""
    out = _Parser(add_help=False)
    out.add_argument("--out", help="write the output to this file instead of stdout")
    root, groups = _Parser(prog="pfkit", description=_DESCRIPTION), {}

    def add(words, help_, **kwargs):
        # a group is made at its first member, which is where --help lists it
        group, _, name = words.rpartition(" ")
        if group not in groups:
            parent = add(group, _GROUPS[group][0]) if group else root
            groups[group] = parent.add_subparsers(dest=_GROUPS[group][1], required=True)
        if help_ is not None:  # given help=None, argparse lists the name on a line of its own
            kwargs["help"] = help_
        return groups[group].add_parser(name, **kwargs)

    for words, help_, takes_out, flags, handler in COMMANDS:
        leaf = add(words, help_, parents=[out] if takes_out else [])
        for flag, keywords in flags.items():
            leaf.add_argument(flag, **keywords)
        leaf.set_defaults(func=handler)
    return root


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _emit(args.func(args), args)
    except (PfkitError, OSError, MemoryError) as exc:
        if isinstance(exc, MemoryError):  # a request the host cannot hold
            exc = ResourceError(f"out of memory ({type(exc).__name__}: {exc})")
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
