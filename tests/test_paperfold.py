import sys
import threading
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfkit import paperfold
from pfkit.errors import DomainError, ResourceError
from pfkit.paperfold import (
    MAX_GENERATION,
    T_REFERENCE,
    CensusResult,
    antipalindrome_census,
    check_aperiodic,
    pf_prefix,
    pf_word,
    verify_aperiodicity_witness,
    verify_generation_fidelity,
    verify_recurrence,
    verify_recurrence_blocks,
    verify_self_similarity,
)
from pfkit.words import Word, anti_reverse, concat, count, window_codes

from oracles import naive_anti, random_bits


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


def test_prefix_cache_grows_in_place_to_the_closed_form(monkeypatch):
    # from a cold cache, each request grows the cache to the least
    # generation that covers it, holding no more than the old cache and
    # the new one; every array handed out is read-only, and later growth
    # leaves the earlier ones as they were
    cold = np.array([1], dtype=np.uint8)
    cold.setflags(write=False)
    monkeypatch.setattr(paperfold, "_prefix_cache", cold)
    handed, covered = [], 1
    for length in (5, 2**10, 2**17 + 3, 2**21 - 1, 2**10):
        before, covered = covered, max(covered, 2 ** length.bit_length() - 1)
        tracemalloc.start()
        try:
            arr = paperfold._prefix_array(length)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (before + covered if covered > before else 0) + 4096
        ks = np.arange(1, length + 1, dtype=np.int64)
        assert np.array_equal(arr, (ks // (ks & -ks) % 4 == 1).astype(np.uint8))
        assert not arr.flags.writeable and not paperfold._prefix_cache.flags.writeable
        assert paperfold._prefix_cache.size == covered
        handed.append((arr, arr.copy()))
    assert all(np.array_equal(arr, copy) for arr, copy in handed)


def _generations_by_recursion(n_max):
    """t(0) .. t(n_max) by the defining recursion t(n+1) = t(n) 1 anti(t(n)),
    which the forward fill of the prefix cache does not read."""
    gens = [np.array([1], dtype=np.uint8)]
    for _ in range(n_max):
        t = gens[-1]
        gens.append(np.concatenate([t, [1], 1 - t[::-1]]).astype(np.uint8))
    return gens


def test_prefix_fill_matches_the_recursion_from_every_cold_generation(monkeypatch):
    gens = _generations_by_recursion(20)
    ks = np.arange(1, gens[-1].size + 1, dtype=np.int64)
    assert np.array_equal(gens[-1], (ks // (ks & -ks) % 4 == 1).astype(np.uint8))
    for cold in range(20):
        cache = gens[cold].copy()
        cache.setflags(write=False)
        monkeypatch.setattr(paperfold, "_prefix_cache", cache)
        # one generation past the cache, then all the way to generation 20
        for n in (cold + 1, 20):
            arr = paperfold._prefix_array(gens[n].size)
            assert arr.size == gens[n].size and np.array_equal(arr, gens[n]), (cold, n)
        assert np.array_equal(paperfold._prefix_cache, gens[20])


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
        return len({t[i : i + ell] for i in range(len(t) - ell + 1) if t[i : i + ell] == naive_anti(t[i : i + ell])})

    census = antipalindrome_census(10, 6)
    assert census.counts == {ell: naive(ell) for ell in (2, 4, 6)}


def distinct(codes):
    """Sorted distinct values by a sort and an adjacent-difference mask,
    independent of the factor index's chunked width doubling and merge."""
    codes = np.sort(codes)
    return np.concatenate((codes[:1], codes[1:][codes[1:] != codes[:-1]]))


def test_census_matches_per_length_formulation():
    # the per-length window_codes + distinct-codes census the factor index replaced
    for g in range(4, 15):
        arr = pf_prefix(2 ** (g + 1) - 1).to_array()
        longest = min(62, arr.size // 3) // 2 * 2
        counts, same = {}, {}
        for ell in range(2, longest + 1, 2):
            codes = window_codes(arr, ell)
            # a window is an anti-palindrome iff symbol j differs from
            # symbol ell - 1 - j for every j, read off the symbols
            m = codes.size
            anti = np.ones(m, dtype=bool)
            for j in range(ell // 2):
                anti &= arr[j : j + m] != arr[ell - 1 - j : ell - 1 - j + m]
            full = distinct(codes)
            counts[ell] = distinct(codes[anti]).size
            same[ell] = np.array_equal(full, distinct(window_codes(arr[: 2**g - 1], ell)))
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


def t_gen(p):
    """t(p) for p <= 5 from the reference strings, whatever prefix a test
    patches in: verify_recurrence searches for the true t(p)."""
    return Word(T_REFERENCE[p]).to_array()


def all_bits(words):
    return np.unpackbits(words.view(np.uint8), bitorder="little")


@pytest.mark.parametrize("n", [1, 130, 200, 1000])
def test_packed_bits_and_their_shifts(n):
    bits = random_bits(n, n)
    x = paperfold._packed(bits)
    assert x.size == -(-n // 64) + 1 and x[-1] == 0
    every = all_bits(x)
    assert np.array_equal(every[:n], bits) and not every[n:].any()
    x[-1] = 2**64 - 1  # a set last word, so reads past the end show
    every = all_bits(x)
    total = every.size
    for s in sorted({0, 1, 63, 64, 65, 130, n - 1, n, n + 1, total - 65, total - 64, total - 1,
                     total, total + 1}):
        out = np.full_like(x, 0x5555)
        assert paperfold._shift_into(x, s, out) is out
        want = np.zeros(total, np.uint8)
        want[: max(total - s, 0)] = every[s:]
        assert np.array_equal(all_bits(out), want), s


def recurrence_core(text, p, W):
    return paperfold._first_uncovered(*paperfold._generation_hits(text, p), W - 2 ** (p + 1) + 2)


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


@settings(max_examples=150, deadline=None)
@given(p=st.integers(0, 5), i=st.integers(0, 2**10), gap=st.integers(1, 400), fill=st.integers(0, 1),
       planted=st.booleans(), seed=st.integers(0, 2**32 - 1), block=st.sampled_from([1, 2, 7, 64]))
def test_recurrence_blocks_give_the_list_scan_witness(symbols, p, i, gap, fill, planted, seed, block):
    # small blocks put block edges inside every window: a paper-folding
    # prefix with a gap overwritten, or random symbols with copies of t(p)
    # planted around a gap of fill symbols
    g, pat, W = p + 4, t_gen(p), 3 * 2 ** (p + 1)
    arr = pf_prefix(2 ** (g + 1) - 1).to_array().copy()
    if planted:
        arr = random_bits(seed, arr.size, 0.9)
        for k in range(0, arr.size - pat.size + 1, W - pat.size):
            arr[k : k + pat.size] = pat
    i %= arr.size
    arr[i : i + gap] = fill
    with symbols(arr), mock.patch.object(paperfold, "_RECURRENCE_BLOCK", block):
        rep = verify_recurrence(p, g)
    bad = recurrence_oracle(arr, pat, W)
    assert (rep.status, rep.witness) == (
        ("pass", None) if bad is None else ("fail", {"uncovered_window_start": bad}))


def test_recurrence_runs_in_a_few_bytes_per_symbol(traced_peak):
    # the occurrence array and its np.diff took 8.5 bytes per symbol at
    # p = 0, two bool masks 2 and the packed masks of the whole prefix 5/8,
    # 5 MiB here; one block's masks take 128 KiB each, whatever the prefix
    for p in range(9):
        rep, peak = traced_peak(verify_recurrence, p, 22)
        assert rep.status == "pass"
        assert peak <= 2**20, p


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


# ---------------------------------------------------------------------------
# the proofs against their scans


def test_symbol_is_the_positional_rule_of_the_prefix():
    arr = pf_prefix(2**16).to_array()
    assert [paperfold.symbol(i) for i in range(arr.size)] == arr.tolist()
    with pytest.raises(DomainError):
        paperfold.symbol(-1)


def test_recurrence_proof_agrees_with_the_scan():
    # the lemma on a prefix: t(p) sits at every multiple of 2^(p+2); the
    # scan, its oracle, passes wherever the proof speaks
    assert verify_recurrence_blocks().status == "pass"
    arr = pf_prefix(2**20).to_array()
    for p in range(8):
        e = 2 ** (p + 1)
        blocks = arr[: arr.size // (2 * e) * 2 * e].reshape(-1, 2 * e)[:, : e - 1]
        assert (blocks == arr[: e - 1]).all(), p
        assert verify_recurrence(p, p + 8).status == "pass"


@pytest.mark.parametrize("index", [0, 4, 8, 9, 10, 12, 16, 17, 24, 26])
def test_recurrence_proof_reads_every_block_position(monkeypatch, index):
    # a flip in the first block, at a later block start, or inside a later
    # block of t(1) = 110 at 8, 16 or 24
    real = paperfold.symbol
    monkeypatch.setattr(paperfold, "symbol", lambda i: real(i) ^ (i == index))
    assert verify_recurrence_blocks().status == "fail"


@settings(max_examples=300, deadline=None)
@given(rho=st.integers(1, 5000), cut=st.integers(0, 5000))
def test_period_break_is_a_mismatch_of_the_word(rho, cut):
    arr = pf_prefix(2**15).to_array()
    i = paperfold._period_break(rho, cut)
    assert cut <= i < cut + 2 * (rho & -rho)
    assert arr[i] != arr[i + 2 * rho]
    assert not all(arr[i + k * rho] == arr[i + (k + 1) * rho] for k in (0, 1))


def test_aperiodicity_proof_agrees_with_the_scan():
    assert verify_aperiodicity_witness().status == check_aperiodic(3 * 4096, 4096, 4096).status == "pass"


def _break_from_leading_bit(rho, cut):
    a = rho.bit_length() - 1
    return cut + (2**a - 1 - cut) % 2 ** (a + 1)


def _break_mod_2a(rho, cut):
    a = (rho & -rho).bit_length() - 1
    return cut + (2**a - 1 - cut) % 2**a


def _break_in_int64(rho, cut):
    # a 64-bit formula wraps past the 64-bit edge of a
    a = (rho & -rho).bit_length() - 1
    return cut + (2 ** (a % 64) - 1 - cut) % 2 ** (a % 64 + 1)


@pytest.mark.parametrize("formula", [_break_from_leading_bit, _break_mod_2a, _break_in_int64,
                                     lambda rho, cut, real=paperfold._period_break: real(rho, cut) + 1])
def test_aperiodicity_proof_catches_a_wrong_formula(monkeypatch, formula):
    monkeypatch.setattr(paperfold, "_period_break", formula)
    assert verify_aperiodicity_witness().status == "fail"


def _kept_over(arr):
    return [g for g, (kept, _) in paperfold._generation_indexes.items() if np.shares_memory(kept, arr)]


def test_generation_index_goes_with_the_cache_it_was_built_over(monkeypatch):
    # a small cache stands in for a cold one; each generation's index is
    # built once over it, and growth drops them all, so nothing keeps the
    # old array alive
    small = paperfold._prefix_array(2**8 - 1).copy()
    small.setflags(write=False)
    monkeypatch.setattr(paperfold, "_prefix_cache", small)
    monkeypatch.setattr(paperfold, "_generation_indexes", {})
    index = paperfold.generation_index(6)
    assert antipalindrome_census(6, 8).counts == {2: 2, 4: 2, 6: 1, 8: 0}
    assert paperfold.generation_index(6) is index and len(_kept_over(small)) == 1
    freed = weakref.ref(small)
    del small, index
    grown = paperfold._prefix_array(2**10 - 1)
    assert freed() is None and paperfold._generation_indexes == {}
    index = paperfold.generation_index(6)
    assert index._arr.base is grown.base and _kept_over(grown) == [6]


def test_generation_index_serves_only_the_current_symbols(monkeypatch, symbols):
    # another symbol source gets an index of its own, which is not kept,
    # and the kept one is served again once the source is back
    monkeypatch.setattr(paperfold, "_generation_indexes", {})
    index = paperfold.generation_index(7)
    with symbols(np.ones(2**8 - 1)):
        other = paperfold.generation_index(7)
        assert other is not index and other.codes(3) == {7}
        assert paperfold.generation_index(7) is not other
    assert paperfold.generation_index(7) is index and index.codes(3) != {7}
    assert list(paperfold._generation_indexes) == [7]


def test_generation_index_under_racing_growth(monkeypatch):
    # threads ask for generations while others grow the cache, from a cold
    # cache each round: an index may be built twice, but each one served
    # is over the word's symbols, and every entry left is over the final
    # cache; growth itself never fills from another thread's array
    ks = np.arange(1, 2**13, dtype=np.int64)
    truth = (ks // (ks & -ks) % 4 == 1).astype(np.uint8)
    errors = []

    def work(first):
        try:
            for g in range(first, 13):
                index = paperfold.generation_index(g)
                if not np.array_equal(index._arr, truth[: 2 ** (g + 1) - 1]):
                    errors.append(g)
                index.codes(g % 8 + 1)
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            cold = np.array([1], dtype=np.uint8)
            cold.setflags(write=False)
            monkeypatch.setattr(paperfold, "_prefix_cache", cold)
            monkeypatch.setattr(paperfold, "_generation_indexes", {})
            threads = [threading.Thread(target=work, args=(first,)) for first in range(1, 7)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads) and errors == []
            kept = paperfold._generation_indexes.values()
            assert all(arr.base is paperfold._prefix_cache for arr, _ in kept)
    finally:
        sys.setswitchinterval(interval)


def test_generation_index_guards():
    with pytest.raises(DomainError):
        paperfold.generation_index(0)
    with pytest.raises(ResourceError):
        paperfold.generation_index(MAX_GENERATION + 1)
