"""pfkit command line: orchestrates every check with JSON reporting.

Report schema (one object per check, fixed key order):

    {"check": str, "status": "pass"|"fail"|"inconclusive"|"error",
     "params": {...}, "witness": ..., "elapsed_ms": int,
     "seed": int | null, "certifies": str}

Single commands print one report object; ``pfkit report`` prints the whole
suite as a JSON array (or a markdown table with --format markdown).  Two
runs with identical flags and seed produce identical output except for
the elapsed_ms fields.  Exit code: 0 when everything passes, 1 when some
check fails or is inconclusive, 2 when a check errors out or the input is
rejected (a bad argument, a resource cap, or a file that cannot be read or
written).

The suite runs its checks one after another on the calling thread, in
registry order, and reports them in that order.  The census, closure and
freeness checks each read the least generation that holds the infinite
word's factors at their lengths (``paperfold.language_generation``).  The
two lattice checks prove their facts for every index by the lemma in
``pfkit.dimgroup`` and draw no random numbers.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import dihedral, dimgroup, paperfold, subst
from .errors import ExtensionError, PfkitError
from .report import Check, CheckReport, emit_report
from .words import Word, to_pfw_bytes, write_pfw

DEFAULT_SEED = 42

PROFILES = {
    "quick": dict(
        generation=12,
        selfsim_budget=10,
        closure_len=16,
        recurrence_p_max=3,
        max_period=512,
        preperiod=512,
        parity_K=4000,
        recode_exp=14,
        cone_samples=1000,
        involution_samples=1000,
        discrepancy_N=10,
    ),
    "full": dict(
        generation=20,
        selfsim_budget=12,
        closure_len=16,
        recurrence_p_max=5,
        max_period=4096,
        preperiod=4096,
        parity_K=100_000,
        recode_exp=18,
        cone_samples=10_000,
        involution_samples=1000,
        discrepancy_N=20,
    ),
}


# ---------------------------------------------------------------------------
# suite checks built on the module operations


def _check_self_similarity_battery(budget: int) -> CheckReport:
    chk = Check("paperfold.self-similarity", {"budget": budget},
                "block interleaving identity for all p+n+1 within budget")
    for p in range(budget):
        for n in range(budget - p):
            rep = paperfold.verify_self_similarity(p, n)
            if rep.status != "pass":
                return dataclasses.replace(rep, elapsed_ms=chk.ms)
    return chk.passed()


def _check_census(generation: int, max_len: int) -> CheckReport:
    """Anti-palindrome census of a generation, the same rule in the suite
    and the CLI: an unsaturated census is inconclusive; a saturated one
    passes when there are anti-palindromic factors of lengths 2, 4 and 6
    (those <= max_len) and none of any length from 8 to max_len."""
    chk = Check("paperfold.antipalindrome-census", {"generation": generation, "max_len": max_len},
                "anti-palindromic factors exist up to length 6 and stop at 8")
    census = paperfold.antipalindrome_census(generation, max_len)
    if not census.saturated:
        return chk.report("inconclusive", census.to_json())
    counts = census.counts
    present = all(counts[ell] >= 1 for ell in (2, 4, 6) if ell <= max_len)
    absent = all(counts[ell] == 0 for ell in range(8, max_len + 1, 2))
    return chk.report("pass" if present and absent else "fail", census.to_json())


def _check_recurrence_battery(p_max: int) -> CheckReport:
    chk = Check("paperfold.recurrence", {"p_max": p_max},
                "every window of length 3*2^(p+1) contains generation p, p <= p_max")
    for p in range(p_max + 1):
        rep = paperfold.verify_recurrence(p, p + 8)
        if rep.status != "pass":
            return dataclasses.replace(rep, elapsed_ms=chk.ms)
    return chk.passed()


def _check_closure(n_max: int) -> CheckReport:
    oracle = dihedral.LanguageOracle.from_generation(paperfold.language_generation(n_max), n_max)
    return dihedral.check_closure_under_antireversal(oracle, n_max)


def _check_freeness(generation: int) -> CheckReport:
    chk = Check("dihedral.freeness", {"generation": generation},
                "closure plus bounded anti-palindromes: the dihedral action has no fixed points")
    cert = dihedral.freeness_certificate(dihedral.LanguageOracle.from_generation(generation, 8))
    return chk.report(cert.verdict, cert.to_json())


def _check_subst_structure() -> CheckReport:
    chk = Check("subst.structure", {}, "substitution is primitive at 3, left-proper at 2 "
                "with head '3', matrix and fixed prefix match")
    s = subst.PAPERFOLD_SUBSTITUTION
    facts = {
        "primitive_index": subst.is_primitive(s, 6),
        "left_proper_index": subst.is_left_proper(s, 6),
        "first_letters": list(subst.first_letters(s, 2)),
        "matrix": subst.abelianization(s).to_json(),
        "fixed_prefix_32": str(subst.fixed_prefix(s, 32)),
    }
    ok = (
        facts["primitive_index"] == 3
        and facts["left_proper_index"] == 2
        and set(facts["first_letters"]) == {3}
        and tuple(map(tuple, facts["matrix"])) == dimgroup.PAPERFOLD_MATRIX
        and facts["fixed_prefix_32"] == "31213021312030213121302031203021"
    )
    return chk.report("pass" if ok else "fail", facts)


# each entry is called as fn(params, seed)
REGISTRY = (
    ("paperfold.generation-fidelity", lambda p, seed: paperfold.verify_generation_fidelity()),
    ("paperfold.self-similarity", lambda p, seed: _check_self_similarity_battery(p["selfsim_budget"])),
    ("paperfold.antipalindrome-census", lambda p, seed: _check_census(paperfold.language_generation(8), 8)),
    ("paperfold.recurrence", lambda p, seed: _check_recurrence_battery(p["recurrence_p_max"])),
    ("paperfold.aperiodicity", lambda p, seed: paperfold.check_aperiodic(
        p["preperiod"] + 2 * p["max_period"], p["max_period"], p["preperiod"])),
    ("dihedral.antireversal-closure", lambda p, seed: _check_closure(p["closure_len"])),
    ("dihedral.freeness", lambda p, seed: _check_freeness(paperfold.language_generation(8))),
    ("dihedral.parity-separation", lambda p, seed: dihedral.parity_class_separation(p["parity_K"], p["generation"])),
    ("subst.structure", lambda p, seed: _check_subst_structure()),
    ("subst.recoding", lambda p, seed: subst.verify_recoding(2 ** p["recode_exp"])),
    ("subst.intertwining", lambda p, seed: subst.verify_intertwining(2 ** (p["recode_exp"] + 1))),
    ("dimgroup.matrix-closed-form", lambda p, seed: dimgroup.verify_closed_form_induction()),
    ("dimgroup.lattice-properties", lambda p, seed: dimgroup.verify_lattice_image()),
    ("dimgroup.cone-identity", lambda p, seed: dimgroup.verify_cone_identity(p["cone_samples"], seed)),
    ("dimgroup.involution", lambda p, seed: dimgroup.verify_involution_algebra(p["involution_samples"], seed)),
    ("dimgroup.discrepancy-growth", lambda p, seed: dimgroup.verify_unbounded_discrepancy(p["discrepancy_N"])),
    ("dimgroup.coboundary-bound", lambda p, seed: dimgroup.verify_coboundary_bound(2**16)),
)


def _max_threads() -> int:
    # the suite runs on one thread; the benchmark records this as env.threads
    return 1


def run_all(profile: str = "quick", seed: int = DEFAULT_SEED):
    """Run the whole registry with profile-scaled parameters, one check
    after another in registry order; any exception becomes a report with
    status error.  Every report echoes the suite seed."""
    if profile not in PROFILES:
        raise PfkitError(f"unknown profile {profile!r}")
    params = PROFILES[profile]
    reports = []
    for name, fn in REGISTRY:
        chk = Check(name, {"profile": profile}, "")
        try:
            rep = fn(params, seed)
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            rep = chk.report("error", {"exception": f"{type(exc).__name__}: {exc}"})
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


def _emit(reports, args) -> None:
    if isinstance(reports, CheckReport):
        text = json.dumps(reports.to_dict(), indent=2)
    else:
        text = emit_report(reports, getattr(args, "format", "json"))
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_gen(args) -> int:
    word = paperfold.pf_word(args.n)
    if args.format == "pfw":
        if not args.out:
            sys.stdout.buffer.write(to_pfw_bytes(word))
        else:
            write_pfw(word, args.out)
    else:
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(str(word) + "\n")
        else:
            print(word)
    return 0


def _single(report, args) -> int:
    _emit(report, args)
    return exit_code([report])


def _cmd_census(args) -> int:
    return _single(_check_census(args.generation, args.max_len), args)


def _cmd_selfsim(args) -> int:
    return _single(paperfold.verify_self_similarity(args.p, args.n), args)


def _cmd_recurrence(args) -> int:
    return _single(paperfold.verify_recurrence(args.p, args.generation), args)


def _cmd_aperiodic(args) -> int:
    return _single(
        paperfold.check_aperiodic(args.prefix_len, args.max_period, args.preperiod), args
    )


def _cmd_freeness(args) -> int:
    return _single(_check_freeness(args.generation), args)


def _cmd_parity(args) -> int:
    return _single(dihedral.parity_class_separation(args.k, args.generation), args)


def _cmd_extend(args) -> int:
    params = {"seed": args.seed, "steps": args.steps, "horizon": args.horizon,
              "generation": args.generation}
    chk = Check("dihedral.left-extend", params, "the seed extends leftwards inside the language")
    seed_word = Word(args.seed)
    max_len = len(seed_word) + args.steps + args.horizon
    oracle = dihedral.LanguageOracle.from_generation(args.generation, max_len)
    try:
        extended = dihedral.left_extend(oracle, seed_word, args.steps, args.horizon)
        report = chk.passed({"word": str(extended)})
    except ExtensionError as exc:
        report = chk.report("error", {"stuck_prefix": str(exc.stuck_prefix), "horizon": exc.horizon})
    return _single(report, args)


def _load_substitution(path):
    if not path:
        return subst.PAPERFOLD_SUBSTITUTION
    with open(path, "rb") as fh:  # from_json rejects bytes that are not UTF-8
        return subst.Substitution.from_json(fh.read())


def _cmd_subst_info(args) -> int:
    chk = Check("subst.info", {"rules": args.rules or "builtin"},
                "structural facts of the substitution")
    s = _load_substitution(args.rules)
    info = {
        "rules": json.loads(s.to_json())["rules"],
        "primitive_index": subst.is_primitive(s, 8),
        "left_proper_index": subst.is_left_proper(s, 8),
        "matrix": subst.abelianization(s).to_json(),
    }
    return _single(chk.passed(info), args)


def _cmd_subst_fixed_prefix(args) -> int:
    print(subst.fixed_prefix(_load_substitution(args.rules), args.len))
    return 0


def _cmd_subst_recode(args) -> int:
    return _single(subst.verify_recoding(args.len), args)


def _cmd_subst_intertwine(args) -> int:
    return _single(subst.verify_intertwining(args.len), args)


def _cmd_dim_verify(args) -> int:
    reports = [
        dimgroup.verify_lattice_properties(args.index_max, args.samples, args.seed),
        dimgroup.verify_cone_identity(args.samples, args.seed),
        dimgroup.verify_involution_algebra(min(args.samples, 1000), args.seed),
    ]
    _emit(reports, args)
    return exit_code(reports)


def _cmd_dim_matpow(args) -> int:
    chk = Check("dimgroup.matpow", {"n": args.n}, "exact matrix power")
    power = dimgroup.mat_pow(dimgroup.PAPERFOLD_MATRIX, args.n)
    return _single(chk.passed({"matrix": [list(row) for row in power]}), args)


def _cmd_dim_discrepancy(args) -> int:
    return _single(dimgroup.verify_unbounded_discrepancy(args.n_max), args)


def _cmd_report(args) -> int:
    reports = run_all(args.profile, args.seed)
    _emit(reports, args)
    return exit_code(reports)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pfkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    pf = sub.add_parser("paperfold", help="generation and word-level checks")
    pf_sub = pf.add_subparsers(dest="subcommand", required=True)
    gen = pf_sub.add_parser("gen", help="emit a generation")
    gen.add_argument("--n", type=int, default=20)
    gen.add_argument("--format", choices=("text", "pfw"), default="text")
    gen.add_argument("--out")
    gen.set_defaults(func=_cmd_gen)
    census = pf_sub.add_parser("census", help="anti-palindrome census")
    census.add_argument("--generation", type=int, required=True)
    census.add_argument("--max-len", dest="max_len", type=int, required=True)
    census.add_argument("--out")
    census.set_defaults(func=_cmd_census)
    pf_verify = pf_sub.add_parser("verify", help="word-level verifications")
    pfv_sub = pf_verify.add_subparsers(dest="verification", required=True)
    ss = pfv_sub.add_parser("self-similarity")
    ss.add_argument("--p", type=int, required=True)
    ss.add_argument("--n", type=int, required=True)
    ss.add_argument("--out")
    ss.set_defaults(func=_cmd_selfsim)
    rec = pfv_sub.add_parser("recurrence")
    rec.add_argument("--p", type=int, required=True)
    rec.add_argument("--generation", type=int, required=True)
    rec.add_argument("--out")
    rec.set_defaults(func=_cmd_recurrence)
    ape = pfv_sub.add_parser("aperiodic")
    ape.add_argument("--max-period", dest="max_period", type=int, required=True)
    ape.add_argument("--preperiod", type=int, required=True)
    ape.add_argument("--prefix-len", dest="prefix_len", type=int, required=True)
    ape.add_argument("--out")
    ape.set_defaults(func=_cmd_aperiodic)

    di = sub.add_parser("dihedral", help="dihedral-action certificates")
    di_sub = di.add_subparsers(dest="subcommand", required=True)
    fr = di_sub.add_parser("freeness")
    fr.add_argument("--generation", type=int, required=True)
    fr.add_argument("--out")
    fr.set_defaults(func=_cmd_freeness)
    pa = di_sub.add_parser("parity")
    pa.add_argument("--k", type=int, required=True)
    pa.add_argument("--generation", type=int, required=True)
    pa.add_argument("--out")
    pa.set_defaults(func=_cmd_parity)
    ex = di_sub.add_parser("extend")
    ex.add_argument("--seed", required=True, help="seed word (binary text)")
    ex.add_argument("--steps", type=int, required=True)
    ex.add_argument("--horizon", type=int, required=True)
    ex.add_argument("--generation", type=int, default=16)
    ex.add_argument("--out")
    ex.set_defaults(func=_cmd_extend)

    su = sub.add_parser("subst", help="substitution facts and recoding")
    su_sub = su.add_subparsers(dest="subcommand", required=True)
    info = su_sub.add_parser("info")
    info.add_argument("--rules", help="substitution JSON file")
    info.add_argument("--out")
    info.set_defaults(func=_cmd_subst_info)
    fp = su_sub.add_parser("fixed-prefix")
    fp.add_argument("--len", type=int, required=True)
    fp.add_argument("--rules")
    fp.set_defaults(func=_cmd_subst_fixed_prefix)
    su_verify = su_sub.add_parser("verify")
    suv_sub = su_verify.add_subparsers(dest="verification", required=True)
    rc = suv_sub.add_parser("recode")
    rc.add_argument("--len", type=int, required=True)
    rc.add_argument("--out")
    rc.set_defaults(func=_cmd_subst_recode)
    it = suv_sub.add_parser("intertwine")
    it.add_argument("--len", type=int, required=True)
    it.add_argument("--out")
    it.set_defaults(func=_cmd_subst_intertwine)

    dg = sub.add_parser("dimgroup", help="exact dimension-group arithmetic")
    dg_sub = dg.add_subparsers(dest="subcommand", required=True)
    dv = dg_sub.add_parser("verify")
    dv.add_argument("--index-max", dest="index_max", type=int, default=12)
    dv.add_argument("--samples", type=int, default=10_000)
    dv.add_argument("--seed", type=int, default=DEFAULT_SEED)
    dv.add_argument("--out")
    dv.set_defaults(func=_cmd_dim_verify)
    mp = dg_sub.add_parser("matpow")
    mp.add_argument("--n", type=int, required=True)
    mp.add_argument("--out")
    mp.set_defaults(func=_cmd_dim_matpow)
    dd = dg_sub.add_parser("discrepancy")
    dd.add_argument("--n-max", dest="n_max", type=int, default=20)
    dd.add_argument("--out")
    dd.set_defaults(func=_cmd_dim_discrepancy)

    rp = sub.add_parser("report", help="run the whole verification suite")
    rp.add_argument("--profile", choices=tuple(PROFILES), default="quick")
    rp.add_argument("--format", choices=("json", "markdown"), default="json")
    rp.add_argument("--out")
    rp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    rp.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PfkitError, OSError) as exc:
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
