import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfkit import paperfold
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


def test_prefix_cache_is_read_only():
    # a caller that writes into the symbols it was handed would change
    # every later generation
    with pytest.raises(ValueError, match="read-only"):
        paperfold._prefix_array(7)[0] = 0
    assert not paperfold._prefix_cache.flags.writeable
    assert str(pf_word(2)) == "1101100"
    assert verify_generation_fidelity().status == "pass"


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


def test_self_similarity_negative_control(symbols):
    arr = pf_prefix(2**13 - 1).to_array().copy()
    arr[1000] ^= 1
    with symbols(arr):
        rep = verify_self_similarity(1, 10)
    assert (rep.status, rep.witness) == ("fail", {"first_mismatch": 1000})


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


def test_aperiodic_negative_control(symbols):
    with symbols(np.ones(2048)):
        rep = check_aperiodic(2048, 512, 512)
    assert rep.status == "fail"
    assert rep.witness["period"] == 1
    # eventually periodic word is caught too, with the cut reported
    with symbols(Word("10110" + "01" * 600).to_array()):
        rep2 = check_aperiodic(1200, 16, 16)
    assert rep2.status == "fail"
    assert rep2.witness["period"] == 2
    assert rep2.witness["cut"] <= 5


# ---------------------------------------------------------------------------
# the scan checks against the formulations they replaced


def recurrence_oracle(text, pat, W):
    """The list-based occurrence scan verify_recurrence ran before."""
    L, N = pat.size, text.size
    hay, needle = text.tobytes(), pat.tobytes()
    occ, i = [], hay.find(needle)
    while i != -1:
        occ.append(i)
        i = hay.find(needle, i + 1)
    if not occ or occ[0] > W - L:
        return 0
    for a, b in zip(occ, occ[1:]):
        if b - a > W - L + 1 and a + 1 <= N - W:
            return a + 1
    if occ[-1] < N - W:
        return occ[-1] + 1
    return None


def aperiodicity_oracle(arr, max_period, preperiod):
    """The full per-period scan check_aperiodic ran before."""
    for rho in range(1, max_period + 1):
        neq = arr[rho:] != arr[:-rho]
        last_mismatch = neq.size - 1 - int(np.argmax(neq[::-1])) if neq.any() else -1
        if last_mismatch < preperiod:
            return rho, last_mismatch + 1
    return None


def random_bits(seed, n, density=0.5):
    return (np.random.default_rng(seed).random(n) < density).astype(np.uint8)


def t_gen(p):
    """t(p) for p <= 5 from the reference strings, whatever prefix a test
    patches in: verify_recurrence searches for the true t(p)."""
    return Word(T_REFERENCE[p]).to_array()


def recurrence_core(text, p, W):
    return paperfold._first_uncovered(paperfold._generation_hits(text, p), W - 2 ** (p + 1) + 2)


@st.composite
def recurrence_words(draw):
    """(text, p, window): random words, some with copies of t(p) planted,
    and paper-folding prefixes with one symbol flipped or a block
    overwritten, searched for t(p) (up to 63 symbols)."""
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        text = random_bits(seed, draw(st.integers(1, 400)), draw(st.sampled_from([0.5, 0.9])))
        p = draw(st.integers(0, min(4, (text.size + 1).bit_length() - 2)))
        pat = t_gen(p)
        for _ in range(draw(st.integers(0, 6))):
            k = draw(st.integers(0, text.size - pat.size))
            text[k : k + pat.size] = pat
        return text, p, draw(st.integers(pat.size, text.size))
    p = draw(st.integers(0, 5))
    g = draw(st.integers(p + 4, 11))
    text = pf_prefix(2 ** (g + 1) - 1).to_array().copy()
    W = 3 * 2 ** (p + 1)
    i = draw(st.integers(0, text.size - 1))
    if draw(st.booleans()):
        text[i] ^= 1
    else:
        text[i : i + draw(st.integers(1, 2 * W))] = draw(st.integers(0, 1))
    return text, p, W


@settings(max_examples=300, deadline=None)
@given(case=recurrence_words())
def test_recurrence_core_matches_list_scan(case):
    text, p, W = case
    assert recurrence_core(text, p, W) == recurrence_oracle(text, t_gen(p), W)


@pytest.mark.parametrize("L", [1, 3, 7, 15, 31])
def test_recurrence_gap_straddling_the_last_occurrence(L):
    # t(p) of L symbols planted in zeros at the first start, near the last
    # window start and up to the last start of t(p)
    p = L.bit_length() - 1
    W, N, pat = 2 * L + 3, 8 * L + 20, t_gen(p)
    for a in range(N - W - 3, N - W + 3):
        for b in range(a + L + 1, N - L + 1):
            text = np.zeros(N, np.uint8)
            for s in (0, a, b):
                text[s : s + L] = pat
            assert recurrence_core(text, p, W) == recurrence_oracle(text, pat, W), (a, b)


@settings(max_examples=60, deadline=None)
@given(p=st.integers(0, 5), extra=st.integers(4, 6), i=st.integers(0, 2**12), flip=st.booleans(),
       fill=st.integers(0, 1))
def test_recurrence_report_matches_list_scan(symbols, p, extra, i, flip, fill):
    # the mutation may fall inside the first |t(p)| symbols; the check
    # still searches for the true t(p)
    g = p + extra
    arr = pf_prefix(2 ** (g + 1) - 1).to_array().copy()
    i %= arr.size
    if flip:
        arr[i] ^= 1
    else:
        arr[i : i + 3 * 2 ** (p + 1)] = fill
    with symbols(arr):
        rep = verify_recurrence(p, g)
    bad = recurrence_oracle(arr, t_gen(p), 3 * 2 ** (p + 1))
    assert (rep.status, rep.witness) == (
        ("pass", None) if bad is None else ("fail", {"uncovered_window_start": bad}))


def test_recurrence_runs_in_a_few_bytes_per_symbol(traced_peak):
    # the occurrence array and its np.diff took 8.5 bytes per symbol at p = 0
    for p in range(9):
        rep, peak = traced_peak(verify_recurrence, p, 20)
        assert rep.status == "pass"
        assert peak <= 4 * (2**21 - 1), p


def test_recurrence_negative_control(symbols):
    # t(2) = 1101100 cannot occur inside 30 overwritten symbols, so some
    # window of 24 symbols around them misses it
    arr = pf_prefix(2**11 - 1).to_array().copy()
    arr[1000:1030] = 0
    with symbols(arr):
        rep = verify_recurrence(2, 10)
    assert rep.status == "fail"
    assert rep.witness == {"uncovered_window_start": 993}
    assert recurrence_oracle(arr, t_gen(2), 24) == 993


@st.composite
def aperiodicity_words(draw):
    """(array, max_period, preperiod): random and sparse words, flipped
    paper-folding prefixes, and words that turn periodic after a cut, or
    carry one defect in a periodic word, placed before, inside or after the
    256-symbol block that starts at the preperiod."""
    max_period = draw(st.one_of(st.integers(1, 40), st.integers(1000, 1100)))
    preperiod = draw(st.integers(0, 600))
    n = preperiod + 2 * max_period + draw(st.integers(0, 400))
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["random", "sparse", "pf-flip", "head", "defect"]))
    if kind in ("random", "sparse"):
        return random_bits(seed, n, 0.5 if kind == "random" else 0.01), max_period, preperiod
    if kind == "pf-flip":
        arr = pf_prefix(n).to_array().copy()
        arr[draw(st.integers(0, n - 1))] ^= 1
        return arr, max_period, preperiod
    q = draw(st.integers(1, max_period + 3))
    arr = np.resize(random_bits(seed, q), n)
    block = min(256, n - max_period - preperiod)
    cut = draw(st.sampled_from([
        draw(st.integers(0, preperiod)),
        preperiod + draw(st.integers(0, block - 1)),
        draw(st.integers(preperiod + block, n - 1)),
    ]))
    if kind == "head":
        arr[:cut] = random_bits(seed + 1, cut)
    else:
        arr[cut] ^= 1
    return arr, max_period, preperiod


@settings(max_examples=300, deadline=None)
@given(case=aperiodicity_words())
def test_aperiodicity_matches_full_scan(symbols, case):
    arr, max_period, preperiod = case
    found = aperiodicity_oracle(arr, max_period, preperiod)
    assert paperfold._aperiodicity_witness(arr, max_period, preperiod) == found
    with symbols(arr):
        rep = check_aperiodic(arr.size, max_period, preperiod)
    assert (rep.status, rep.witness) == (
        ("pass", None) if found is None else ("fail", {"period": found[0], "cut": found[1]}))


def test_aperiodicity_gather_memory_is_bounded(traced_peak):
    # 65536 periods: one 2-D gather over all of them would hold 16 MiB
    rep, peak = traced_peak(check_aperiodic, 3 * 2**16, 2**16, 2**16)
    assert rep.status == "pass"
    assert peak < 2**20
