import numpy as np
import pytest

from pfkit.errors import DomainError, ResourceError
from pfkit.paperfold import (
    T_REFERENCE,
    CensusResult,
    antipalindrome_census,
    check_aperiodic,
    pf_prefix,
    pf_word,
    verify_generation_fidelity,
    verify_recurrence,
    verify_self_similarity,
)
from pfkit.words import Word, anti_reverse, anti_reverse_code, concat, count, window_codes


def test_listed_generations():
    for n, ref in enumerate(T_REFERENCE):
        assert str(pf_word(n)) == ref
    assert str(pf_word(4)) == "1101100111001001110110001100100"


def test_recursion_and_lengths():
    for n in range(12):
        t_n = pf_word(n)
        assert len(t_n) == 2 ** (n + 1) - 1
        assert pf_word(n + 1) == concat(concat(t_n, Word("1")), anti_reverse(t_n))


def test_ones_exceed_zeros_by_one():
    for n in range(16):
        w = pf_word(n)
        assert count(w, "1") == count(w, "0") + 1


def test_prefix_agrees_with_generations():
    assert pf_prefix(0) == Word("")
    assert str(pf_prefix(15)) == "110110011100100"
    for n in range(10):
        assert pf_prefix(2 ** (n + 1) - 1) == pf_word(n)
    # prefixes nest
    assert str(pf_prefix(500)).startswith(str(pf_prefix(123)))


def closed_form_symbol(k):
    # independent position rule, 1-indexed: strip the 2-adic part, then the
    # odd cofactor mod 4 decides the symbol
    m = k
    while m % 2 == 0:
        m //= 2
    return 1 if m % 4 == 1 else 0


def test_position_oracle_validated_then_used():
    # the closed form must reproduce the recursion before it may serve as
    # an oracle ...
    t16 = pf_word(16).to_array()
    oracle16 = np.array([closed_form_symbol(k) for k in range(1, t16.size + 1)], dtype=np.uint8)
    assert np.array_equal(oracle16, t16)
    # ... and only then is it trusted on the big prefix
    L = 2**20
    arr = pf_prefix(L).to_array()
    ks = np.arange(1, L + 1, dtype=np.int64)
    odd_part = ks // (ks & -ks)
    expected = (odd_part % 4 == 1).astype(np.uint8)
    assert np.array_equal(arr, expected)


def test_resource_guards():
    with pytest.raises(ResourceError):
        pf_word(31)
    with pytest.raises(DomainError):
        pf_word(-1)
    with pytest.raises(ResourceError):
        pf_prefix(2**31 + 1)


def test_generation_fidelity_and_mutation_control(monkeypatch):
    assert verify_generation_fidelity().status == "pass"
    mutated = list(T_REFERENCE)
    flipped = "0" + mutated[4][1:]
    mutated[4] = flipped
    monkeypatch.setattr("pfkit.paperfold.T_REFERENCE", tuple(mutated))
    rep = verify_generation_fidelity()
    assert rep.status == "fail"
    assert rep.witness == {"generation": 4, "first_mismatch": 0}


def test_self_similarity_definition_case():
    for p in range(8):
        assert verify_self_similarity(p, 0).status == "pass"


def test_self_similarity_exhaustive_budget():
    for p in range(12):
        for n in range(12 - p):
            assert verify_self_similarity(p, n).status == "pass"
    assert verify_self_similarity(1, 10).status == "pass"
    assert verify_self_similarity(3, 8).status == "pass"


def test_self_similarity_guards():
    with pytest.raises(ResourceError):
        verify_self_similarity(20, 10)
    with pytest.raises(DomainError):
        verify_self_similarity(-1, 0)


def test_census_counts_pinned():
    census = antipalindrome_census(12, 8)
    assert census.saturated
    assert census.counts == {2: 2, 4: 2, 6: 1, 8: 0}
    assert census.max_length_checked == 8


def test_census_against_naive_scan():
    t = str(pf_word(10))

    def naive(ell):
        def anti(s):
            return "".join("1" if c == "0" else "0" for c in reversed(s))

        return len({t[i : i + ell] for i in range(len(t) - ell + 1) if t[i : i + ell] == anti(t[i : i + ell])})

    census = antipalindrome_census(10, 6)
    assert census.counts == {ell: naive(ell) for ell in (2, 4, 6)}


def test_census_matches_per_length_formulation():
    # the per-length window_codes + np.unique census the factor index replaced
    for g in range(4, 15):
        arr = pf_prefix(2 ** (g + 1) - 1).to_array()
        longest = min(62, arr.size // 3) // 2 * 2
        counts, same = {}, {}
        for ell in range(2, longest + 1, 2):
            full = np.unique(window_codes(arr, ell))
            counts[ell] = sum(1 for c in full.tolist() if c == anti_reverse_code(c, ell))
            same[ell] = np.array_equal(full, np.unique(window_codes(arr[: 2**g - 1], ell)))
        for max_len in sorted({2, 4, 6, 8, 10, 16, 30, longest} & set(counts)):
            census = antipalindrome_census(g, max_len)
            assert census.counts == {ell: counts[ell] for ell in range(2, max_len + 1, 2)}
            assert census.saturated == all(same[ell] for ell in range(2, max_len + 1, 2))


def test_census_preconditions():
    with pytest.raises(DomainError):
        antipalindrome_census(12, 7)
    with pytest.raises(DomainError):
        antipalindrome_census(2, 8)
    with pytest.raises(DomainError):
        antipalindrome_census(12, 64)  # past the 62-symbol coding limit
    with pytest.raises(DomainError):
        CensusResult(max_length_checked=7, counts={}, saturated=True)


def test_factor_census_regressions():
    from pfkit.words import factor_set, is_anti_palindrome

    # no length-8 anti-palindromic factor, already visible at generation 4
    assert all(not is_anti_palindrome(f) for f in factor_set(pf_word(4), 8))
    # pinned by an exhaustive window scan
    assert len(factor_set(pf_word(12), 8)) == 32


def test_census_stable_across_generations():
    for g in range(6, 13):
        census = antipalindrome_census(g, 8)
        assert census.counts[8] == 0
        assert census.counts[2] >= 1 and census.counts[4] >= 1 and census.counts[6] >= 1


def test_recurrence():
    assert verify_recurrence(0, 8).status == "pass"
    assert verify_recurrence(3, 11).status == "pass"
    assert verify_recurrence(5, 13).status == "pass"
    with pytest.raises(DomainError):
        verify_recurrence(3, 5)


def test_aperiodic_on_the_word():
    rep = check_aperiodic(2048, 512, 512)
    assert rep.status == "pass"
    assert check_aperiodic(3 * 4096, 4096, 4096).status == "pass"
    with pytest.raises(DomainError):
        check_aperiodic(100, 512, 512)


def test_aperiodic_negative_control():
    ones = Word("1" * 2048)
    rep = check_aperiodic(2048, 512, 512, word=ones)
    assert rep.status == "fail"
    assert rep.witness["period"] == 1
    # eventually periodic word is caught too, with the cut reported
    tail_periodic = Word("10110" + "01" * 600)
    rep2 = check_aperiodic(1200, 16, 16, word=tail_periodic)
    assert rep2.status == "fail"
    assert rep2.witness["period"] == 2
    assert rep2.witness["cut"] <= 5
