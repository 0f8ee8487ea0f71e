"""Every suite check fails under a negative control.

A control either replaces the paper-folding symbol source (the
``symbols`` fixture) or mutates the code or data the check certifies;
for a proof that reads no symbol, that is the code it evaluates, such as
the positional rule ``paperfold.symbol`` or a pattern family.  The test
runs one registry entry at a time through ``cli.run_all`` at the quick
profile, so each control reaches the check the way the suite does, and
no premise of the check is in the run to gate it."""

from unittest import mock

import numpy as np
import pytest

from pfkit import cli, dihedral, dimgroup, paperfold, subst
from pfkit.dimgroup import DyadicPair, DyadicRational
from pfkit.paperfold import T_REFERENCE, pf_prefix
from pfkit.subst import Substitution

from oracles import pair_codes_by_position


def mutated_prefix(length, start, stop=None, value=None):
    """The paper-folding prefix of ``length`` symbols with symbol ``start``
    flipped, or with symbols start .. stop - 1 set to ``value``."""
    arr = pf_prefix(length).to_array().copy()
    if stop is None:
        arr[start] ^= 1
    else:
        arr[start:stop] = value
    return arr


def image_of_v1_minus_v0(v, n, real=dimgroup._image):
    """The (S, D) image with D = v1 - v0 in place of v0 - v1."""
    r0, r1, r2, r3 = real(v, n)
    return r3, r1, r2, r0


def stage_too_early(p, real=dimgroup.staged_cone_witness):
    n = real(p)
    return n - 1 if n else n


def twist_without_sign_flip(inv, p):
    return DyadicPair(p.s + inv.a * DyadicRational(p.m, 0), p.m)


def symbol_flipped_at(index, real=paperfold.symbol):
    return lambda i: real(i) ^ (i == index)


def period_break_one_past(rho, cut, real=paperfold._period_break):
    return real(rho, cut) + 1


# each control, given the symbols fixture, returns a context manager; the
# prefix lengths are what the full profile reads
CONTROLS = {
    "paperfold.generation-fidelity": lambda symbols: mock.patch.object(
        paperfold, "T_REFERENCE", (*T_REFERENCE[:4], "0" + T_REFERENCE[4][1:], T_REFERENCE[5])),
    "paperfold.self-similarity": lambda symbols: symbols(mutated_prefix(2**13 - 1, 1000)),
    # every even-length factor of (10)^k is an anti-palindrome
    "paperfold.antipalindrome-census": lambda symbols: symbols(np.resize([1, 0], 2**13 - 1)),
    # t[8] starts a block t(0) = 1 and a block t(1) = 110
    "paperfold.recurrence": lambda symbols: mock.patch.object(paperfold, "symbol", symbol_flipped_at(8)),
    "paperfold.aperiodicity": lambda symbols: mock.patch.object(
        paperfold, "_period_break", period_break_one_past),
    "dihedral.antireversal-closure": lambda symbols: symbols(np.ones(2**13 - 1)),
    "dihedral.freeness": lambda symbols: symbols(np.ones(2**13 - 1)),
    # the window 1101100 at a start 0 mod 8 no longer matches its family
    "dihedral.parity-separation": lambda symbols: mock.patch.object(
        dihedral, "EVEN_WINDOW_PATTERNS", ("110x101", *dihedral.EVEN_WINDOW_PATTERNS[1:])),
    # the rules of 3 and 2 swapped: still primitive and left-proper
    "subst.structure": lambda symbols: mock.patch.object(
        subst, "PAPERFOLD_SUBSTITUTION", Substitution({3: "30", 2: "31", 1: "21", 0: "20"})),
    # the proof reads the rules, not the word: 1 -> 20 and 0 -> 21 keep the
    # table primitive and left-proper, with fixed point 31203021...
    "subst.recoding": lambda symbols: mock.patch.object(
        subst, "PAPERFOLD_SUBSTITUTION", Substitution({3: "31", 2: "30", 1: "20", 0: "21"})),
    "subst.intertwining": lambda symbols: mock.patch.object(subst, "_pair_codes", pair_codes_by_position),
    "dimgroup.matrix-closed-form": lambda symbols: mock.patch.object(
        dimgroup, "PAPERFOLD_MATRIX", ((1, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1), (0, 1, 1, 1))),
    "dimgroup.lattice-properties": lambda symbols: mock.patch.object(dimgroup, "_image", image_of_v1_minus_v0),
    "dimgroup.cone-identity": lambda symbols: mock.patch.object(
        dimgroup, "staged_cone_witness", stage_too_early),
    "dimgroup.involution": lambda symbols: mock.patch.object(
        dimgroup, "involution_apply", twist_without_sign_flip),
    # every step 2m + 1: m(2) = 3 where the odd step gives 4
    "dimgroup.discrepancy-growth": lambda symbols: mock.patch.object(
        dimgroup, "m_sequence", lambda n: 2**n - 1),
}


_ENTRIES = dict(cli.REGISTRY)


def _run_one(monkeypatch, name, profile="quick"):
    monkeypatch.setattr(cli, "REGISTRY", ((name, _ENTRIES[name]),))
    (rep,) = cli.run_all(profile)
    return rep


def test_controls_match_the_registry():
    # a check without a control, or a control left for a deleted check
    assert set(CONTROLS) == {name for name, _ in cli.REGISTRY}


@pytest.mark.parametrize("name", [name for name, _ in cli.REGISTRY])
def test_every_check_fails_under_its_control(monkeypatch, symbols, name):
    for profile in cli.PROFILES:
        with CONTROLS[name](symbols):
            rep = _run_one(monkeypatch, name, profile)
        assert rep.status == "fail", (profile, rep.witness)


def test_self_similarity_control_fails_at_the_flip(monkeypatch, symbols):
    # one source serves both budgets, and each names symbol 1000
    for profile in cli.PROFILES:
        with CONTROLS["paperfold.self-similarity"](symbols):
            rep = _run_one(monkeypatch, "paperfold.self-similarity", profile)
        assert (rep.status, rep.witness) == ("fail", {"first_mismatch": 1000}), profile


# the witnesses the language controls give, with or without indexes of the
# real word kept from earlier checks
LANGUAGE_WITNESSES = {
    "paperfold.antipalindrome-census": {
        "max_length_checked": 8, "counts": {"2": 2, "4": 2, "6": 2, "8": 2}, "saturated": True},
    "dihedral.antireversal-closure": {"factor": "1"},
    "dihedral.freeness": {
        "closure_checked_to": 8, "antipalindrome_sup": 0, "verdict": "fail",
        "witnesses": {"closure": "fail", "closure_witness": {"factor": "1"},
                      "antipalindrome_counts": {"2": 0, "4": 0, "6": 0, "8": 0}, "length_8_examples": []}},
}


def test_language_controls_fail_after_the_real_checks(monkeypatch, symbols):
    # the real census, closure and freeness keep the indexes of generations
    # 6 and 7; a control's symbols are another array, so they get indexes
    # of their own, and the kept ones stay over the real word
    monkeypatch.setattr(paperfold, "_generation_indexes", {})
    for name in LANGUAGE_WITNESSES:
        assert _run_one(monkeypatch, name).status == "pass"
    kept = dict(paperfold._generation_indexes)
    assert set(kept) == {6, 7}
    for name, witness in LANGUAGE_WITNESSES.items():
        with CONTROLS[name](symbols):
            rep = _run_one(monkeypatch, name)
        assert (rep.status, rep.witness) == ("fail", witness), name
    assert paperfold._generation_indexes == kept
    for name in LANGUAGE_WITNESSES:
        assert _run_one(monkeypatch, name).status == "pass"


def test_structure_control_fails_the_recoding_proof(monkeypatch, symbols):
    # the swapped rules of 3 and 2 break the step u[2i] = 2 + hi(u[i])
    with CONTROLS["subst.structure"](symbols):
        rep = _run_one(monkeypatch, "subst.recoding")
    assert (rep.status, rep.witness) == ("fail", {"reason": "rule", "letter": 2, "image": "31"})


def test_a_failed_premise_makes_every_dependent_inconclusive(symbols):
    # t[40], an odd slot, breaks the interleaving identity and generation
    # 5; every check resting on either is then not run, closure and
    # freeness included, which read the flipped symbol and would fail
    with symbols(mutated_prefix(2**16, 40)):
        reports = cli.run_all("quick")
    status = {r.check: r.status for r in reports}
    assert status["paperfold.generation-fidelity"] == status["paperfold.self-similarity"] == "fail"
    for r in reports:
        premises = cli.PREMISES.get(r.check, ())
        if any(status[p] != "pass" for p in premises):
            assert r.status == "inconclusive", r.check
            assert r.witness["premise"] in premises
            assert r.witness == {"premise": r.witness["premise"], "status": status[r.witness["premise"]]}
        elif r.check not in ("paperfold.generation-fidelity", "paperfold.self-similarity"):
            assert r.status == "pass", r.check
    assert {name for name, s in status.items() if s == "inconclusive"} == {
        name for name, premises in cli.PREMISES.items() if "paperfold.self-similarity" in premises}
    # without the gate, the flip fails closure and freeness
    for name in ("dihedral.antireversal-closure", "dihedral.freeness"):
        with symbols(mutated_prefix(2**16, 40)):
            rep = dict(cli.REGISTRY)[name](cli.PROFILES["quick"])
        assert rep.status == "fail", name
