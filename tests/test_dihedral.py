import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pfkit import dihedral, paperfold, words
from pfkit.dihedral import (
    EVEN_WINDOW_PATTERNS,
    MAX_EXTEND_STEPS,
    MAX_PARITY_K,
    ODD_WINDOW_PATTERNS,
    FreenessCertificate,
    LanguageOracle,
    check_closure_under_antireversal,
    freeness_certificate,
    left_extend,
    parity_class_separation,
    verify_parity_residues,
)
from pfkit.errors import DomainError, ExtensionError, ResourceError
from pfkit.paperfold import (
    MAX_GENERATION,
    CensusResult,
    antipalindrome_census,
    language_generation,
    pf_prefix,
    pf_word,
)
from pfkit.subst import block_code
from pfkit.words import (
    MAX_CODE_BITS,
    FactorIndex,
    Word,
    anti_reverse,
    code_to_word,
    segment,
    window_codes,
    word_code,
)

from oracles import naive_anti


def test_oracle_contains_matches_naive_search():
    oracle = LanguageOracle.from_generation(10, 12)
    text = str(pf_word(10))
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randrange(1, 13)
        if rng.random() < 0.5:
            i = rng.randrange(len(text) - n)
            probe = text[i : i + n]
        else:
            probe = "".join(rng.choice("01") for _ in range(n))
        assert oracle.contains(Word(probe)) == (probe in text)
    assert oracle.contains(Word(""))
    with pytest.raises(DomainError):
        oracle.contains(Word("1" * 13))
    with pytest.raises(DomainError):
        oracle.contains(Word("3", 4))


# texts on both sides of the coding limit: 62 binary symbols, 31 quaternary ones
CONTAINS_TEXTS = (
    (str(pf_word(9)), 2),
    ("".join(random.Random(8).choices("01", k=1500)), 2),
    ("".join(random.Random(9).choices("0123", k=400)), 4),
)
CONTAINS_ORACLES = [LanguageOracle(Word(text, size), 70) for text, size in CONTAINS_TEXTS]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, len(CONTAINS_TEXTS) - 1), st.integers(1, 70), st.data())
def test_oracle_contains_matches_substring_search(which, n, data):
    text, size = CONTAINS_TEXTS[which]
    start = data.draw(st.integers(0, len(text) - n), label="start")
    probe = list(text[start : start + n])
    flip = data.draw(st.one_of(st.none(), st.integers(0, n - 1)), label="flip")
    if flip is not None:
        probe[flip] = str((int(probe[flip]) + 1) % size)
    probe = "".join(probe)
    assert CONTAINS_ORACLES[which].contains(Word(probe, size)) == (probe in text)


def test_oracle_contains_searches_only_queries_with_a_factor_head():
    # past the coding limit a query searches the text only when its first
    # MAX_CODE_BITS symbols are a factor
    oracle = LanguageOracle.from_generation(12, 100)
    text = str(oracle.source)
    searches = []

    class Text(bytes):
        def find(self, needle):
            searches.append(needle)
            return super().find(needle)

    oracle.__dict__["_raw"] = Text(oracle.source.to_array().tobytes())
    factor = text[1000:1080]
    head = list(factor[:MAX_CODE_BITS])
    head[30] = str(1 - int(head[30]))  # a 62-symbol word that is not a factor
    assert "".join(head) not in text
    not_a_factor = "".join(head) + factor[MAX_CODE_BITS:]
    assert not oracle.contains(Word(not_a_factor))
    assert searches == []
    tail_flipped = factor[:-1] + str(1 - int(factor[-1]))
    for probe in (factor, tail_flipped):
        assert oracle.contains(Word(probe)) == (probe in text)
    assert len(searches) == 2


def test_oracle_saturation():
    oracle = LanguageOracle.from_generation(12, 16)
    assert oracle.saturated_to(16)
    # a random word of this size cannot have stable length-16 factor sets
    rng = np.random.default_rng(5)
    noise = Word.from_array(rng.integers(0, 2, size=4096).astype(np.uint8))
    noisy = LanguageOracle(noise, 16)
    assert not noisy.is_saturated(16)


@pytest.mark.parametrize("p", range(6))
def test_language_generation_has_the_infinite_words_factors(p):
    # the bridge lemma at p: generation p + 4, against p + 3, has exactly
    # the factors of every length <= 2^(p+1) that a much longer generation
    # has, and p + 3 has all four bridges
    L = min(2 ** (p + 1), 62)
    assert language_generation(L) == p + 4
    oracle = LanguageOracle.from_generation(p + 4, L)
    assert oracle.saturated_to(L)
    deep = FactorIndex(pf_word(p + 8).to_array(), 1)
    assert all(oracle.factor_codes(ell) == deep.codes(ell) for ell in range(1, L + 1))
    text, block, anti = str(pf_word(p + 3)), str(pf_word(p)), str(anti_reverse(pf_word(p)))
    assert all(block + c + anti in text and anti + c + block in text for c in "01")
    # p + 4 is the least offset that works
    if p >= 1:
        assert not LanguageOracle.from_generation(p + 3, L).saturated_to(L)


def test_language_generation_bounds():
    assert [language_generation(n) for n in (1, 2, 3, 4, 5, 8, 9, 16, 17, 64, 65)] == [4, 4, 5, 5, 6, 6, 7, 7, 8, 9, 10]
    with pytest.raises(DomainError):
        language_generation(0)


def test_closure_on_the_word():
    oracle = LanguageOracle.from_generation(12, 16)
    rep = check_closure_under_antireversal(oracle, 16)
    assert rep.status == "pass"
    rep1 = check_closure_under_antireversal(oracle, 1)
    assert rep1.status == "pass"


def test_closure_negative_and_inconclusive():
    ones = LanguageOracle(Word("1" * 4096), 8)
    rep = check_closure_under_antireversal(ones, 8)
    assert rep.status == "fail"
    assert rep.witness == {"factor": "1"}

    rng = np.random.default_rng(5)
    noise = Word.from_array(rng.integers(0, 2, size=2048).astype(np.uint8))
    rep2 = check_closure_under_antireversal(LanguageOracle(noise, 16), 16)
    assert rep2.status == "inconclusive"
    assert "unsaturated_length" in rep2.witness


def test_closure_witness_is_least_failing_factor():
    # a periodic source whose first failing length has several failing
    # factors; the witness is the one of least code (first symbol lowest)
    text = "101101011111101101100100100000010100101" * 100
    rep = check_closure_under_antireversal(LanguageOracle(Word(text), 16), 16)

    for ell in range(1, 17):
        factors = {text[i : i + ell] for i in range(len(text) - ell + 1)}
        failing = [f for f in factors if naive_anti(f) not in factors]
        if failing:
            break
    assert len(failing) >= 2
    assert rep.status == "fail"
    assert rep.witness == {"factor": min(failing, key=lambda f: int(f[::-1], 2))}


def closure_by_codes(oracle, n_max):
    """The closure check a code at a time, each anti-reversal made by
    building the word and coding anti_reverse of it: the oracle of
    check_closure_under_antireversal's array lookup."""
    for ell in range(1, n_max + 1):
        if not oracle.is_saturated(ell):
            return "inconclusive", {"unsaturated_length": ell}
        codes = oracle.factor_codes(ell)
        for c in sorted(codes):
            if word_code(anti_reverse(code_to_word(c, ell))) not in codes:
                return "fail", {"factor": str(code_to_word(c, ell))}
    return "pass", None


def mutated_generation(flips):
    arr = pf_word(12).to_array().copy()
    arr[list(flips)] ^= 1
    return arr


@settings(max_examples=60, deadline=None)
@given(flips=st.lists(st.integers(0, 2**13 - 2), min_size=1, max_size=2))
@example(flips=[5])
@example(flips=[40, 1000])
@example(flips=[3000])
def test_closure_matches_the_per_code_loop(flips):
    # a flip in the reference half makes new factors that closure may
    # miss; one past it leaves a length unsaturated
    for arr in (np.ones(4096, dtype=np.uint8), np.tile(np.array([1, 0], dtype=np.uint8), 2048),
                mutated_generation(flips)):
        oracle = LanguageOracle(Word.from_array(arr), 16, reference_len=2**12 - 1)
        rep = check_closure_under_antireversal(oracle, 16)
        assert (rep.status, rep.witness) == closure_by_codes(oracle, 16)


def test_left_extend_zero_steps():
    oracle = LanguageOracle.from_generation(12, 40)
    seed = pf_word(3)
    assert left_extend(oracle, seed, 0, 20) == seed


def test_left_extend_audit():
    oracle = LanguageOracle.from_generation(16, 64)
    seed = pf_word(3)
    steps, horizon = 8, 32
    out = left_extend(oracle, seed, steps, horizon)
    assert len(out) == len(seed) + steps
    assert str(out).endswith(str(seed))
    # post-construction audit: every window of the capped length (hence
    # every factor up to the horizon) is in the language
    text = str(out)
    probe_len = min(horizon, len(out))
    for i in range(len(out) - probe_len + 1):
        assert oracle.contains(Word(text[i : i + probe_len]))


def test_left_extend_is_deterministic():
    oracle = LanguageOracle.from_generation(14, 60)
    a = left_extend(oracle, pf_word(2), 12, 30)
    b = left_extend(oracle, pf_word(2), 12, 30)
    assert a == b


def test_left_extend_errors():
    oracle = LanguageOracle.from_generation(12, 40)
    with pytest.raises(DomainError):
        left_extend(oracle, Word("11111111"), 2, 10)  # not a factor
    with pytest.raises(DomainError):
        left_extend(oracle, pf_word(3), 20, 30)  # budget over max_len
    with pytest.raises(ResourceError):
        left_extend(oracle, pf_word(3), MAX_EXTEND_STEPS + 1, 30)  # over the cap
    # non-recurrent source gets stuck: nothing can precede the global head
    src = Word("10000000")
    small = LanguageOracle(src, 8, reference_len=8)
    with pytest.raises(ExtensionError) as err:
        left_extend(small, Word("10"), 3, 3)
    assert isinstance(err.value.stuck_prefix, Word)


def _left_extend_by_words(oracle, seed, steps, horizon):
    """left_extend word by word: every probe is a Word built by
    concatenation and looked up with ``contains`` (the guards are the
    caller's)."""
    alphabet = oracle.source.alphabet
    cur = seed.to_array()
    for _ in range(steps):
        probe_len = min(horizon, cur.size + 1)
        chosen = None
        for a in range(alphabet.size):
            head = np.concatenate([np.array([a], dtype=np.uint8), cur[: probe_len - 1]])
            if oracle.contains(Word.from_array(head, alphabet)):
                chosen = a
                break
        if chosen is None:
            raise ExtensionError(Word.from_array(cur, alphabet), horizon)
        cur = np.concatenate([np.array([chosen], dtype=np.uint8), cur])
    return Word.from_array(cur, alphabet)


def _extension_outcome(extend, oracle, seed, steps, horizon):
    try:
        return "word", extend(oracle, seed, steps, horizon)
    except ExtensionError as err:
        return "stuck", err.stuck_prefix, err.horizon


# generation oracles, a quaternary one by two-letter blocks, and random
# texts, where long horizons get stuck
EXTEND_ORACLES = [
    LanguageOracle.from_generation(9, 100),
    LanguageOracle.from_generation(12, 100),
    LanguageOracle(block_code(pf_prefix(2**12)), 60),
    LanguageOracle(Word("".join(random.Random(4).choices("01", k=3000))), 100),
    LanguageOracle(Word("".join(random.Random(5).choices("0123", k=600)), 4), 60),
]


@pytest.mark.parametrize("which", range(len(EXTEND_ORACLES)))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_left_extend_matches_the_word_by_word_loop(which, data):
    oracle = EXTEND_ORACLES[which]
    text = oracle.source.to_array()
    longest = MAX_CODE_BITS // oracle.source.alphabet.bits
    # horizons up to 8 symbols past the coding limit, whose probes search
    # the text only when their first `longest` symbols are a factor
    horizon = data.draw(st.one_of(st.sampled_from([1, longest, longest + 1]),
                                  st.integers(1, longest + 1),
                                  st.integers(longest + 1, longest + 8)), label="horizon")
    n = data.draw(st.integers(0, min(40, oracle.max_len - horizon)), label="seed length")
    # a seed at the text's head gets stuck when its head occurs nowhere else
    start = data.draw(st.one_of(st.just(0), st.integers(0, text.size - n)), label="seed start")
    steps = data.draw(st.integers(0, oracle.max_len - n - horizon), label="steps")
    seed = Word.from_array(text[start : start + n], oracle.source.alphabet)
    assert (_extension_outcome(left_extend, oracle, seed, steps, horizon)
            == _extension_outcome(_left_extend_by_words, oracle, seed, steps, horizon))


@pytest.mark.parametrize("source, max_len, seed, steps, horizon, kind", [
    ("10000000", 8, "10", 3, 3, "stuck"),  # nothing precedes the global head
    ("10000000", 8, "100", 2, 3, "stuck"),
    ("0" * 20 + "1" + "0" * 79, 100, "1" + "0" * 10, 30, 40, "stuck"),  # after 20 steps
    # probes past the coding limit
    ("1" + "0" * 199, 200, "1" + "0" * 62, 3, 64, "stuck"),
    ("0" * 50 + "1" + "0" * 149, 200, "1" + "0" * 70, 60, 64, "stuck"),
    # "0" + "1" * 62 is a factor, "0" + "1" * 62 + "0" is not: the first
    # letter is 1 only if the probe reads all 64 symbols
    ("1" * 63 + "0" + "1" * 80, 144, "1" * 62 + "0", 2, 64, "word"),
])
def test_left_extend_fixed_cases(source, max_len, seed, steps, horizon, kind):
    oracle = LanguageOracle(Word(source), max_len, reference_len=len(source))
    outcome = _extension_outcome(left_extend, oracle, Word(seed), steps, horizon)
    assert outcome == _extension_outcome(_left_extend_by_words, oracle, Word(seed), steps, horizon)
    assert outcome[0] == kind


def test_left_extend_searches_only_probes_with_a_factor_head():
    # past the coding limit a probe searches the text only when its first
    # 62 symbols are a factor; the word's left extensions of that length
    # are almost always unique, so about one search a step is made, where
    # searching both letters would make about one and a half
    oracle, seed, steps = LanguageOracle.from_generation(12, 1200), pf_word(3), 1000
    text = oracle.source.to_array().tobytes()
    searches = []

    class Text(bytes):
        def find(self, needle):
            searches.append(needle)
            return super().find(needle)

    oracle.__dict__["_raw"] = Text(text)
    out = left_extend(oracle, seed, steps, 70)
    assert out == _left_extend_by_words(LanguageOracle.from_generation(12, 1200), seed, steps, 70)
    long_steps = steps - (MAX_CODE_BITS - seed.length)  # steps with a probe past 62 symbols
    assert all(text.find(needle[:MAX_CODE_BITS]) >= 0 for needle in searches)
    assert long_steps <= len(searches) < 1.1 * long_steps


def test_left_extend_builds_a_constant_number_of_words():
    oracle, seed = LanguageOracle.from_generation(14, 1100), pf_word(3)
    # every Word ends in the core constructor Word._of
    core = Word.__dict__["_of"].__func__
    for steps in (1, 1000):
        built = []

        def counting(cls, arr, alphabet):
            built.append(len(arr))
            return core(cls, arr, alphabet)

        with mock.patch.object(Word, "_of", classmethod(counting)):
            out = left_extend(oracle, seed, steps, 40)
        assert built == [out.length]


def test_left_extend_packs_its_seed_once(monkeypatch):
    # one word_code serves the seed's membership and the first probe, for
    # seeds inside the coding limit and past it, and for seeds that fail
    oracle = LanguageOracle.from_generation(12, 200)
    seeds = [pf_word(3), segment(oracle.source, 300, 369)]
    want = [left_extend(oracle, seed, 20, 30) for seed in seeds]
    packs = []
    pack = words._pack

    def counting(arr, bits):
        packs.append(arr.size)
        return pack(arr, bits)

    monkeypatch.setattr(words, "_pack", counting)
    for seed, out in zip(seeds, want):
        packs.clear()
        assert left_extend(oracle, seed, 20, 30) == out
        assert packs == [seed.length]
    for seed in (Word("11111111"), Word("1" * 70)):
        packs.clear()
        with pytest.raises(DomainError, match="not a factor"):
            left_extend(oracle, seed, 2, 10)
        assert packs == [seed.length]


def test_oracle_index_is_as_wide_as_its_queries(monkeypatch):
    # closure to 16 and left extension with horizon 24 read one uint32
    # pass of width 32, though the oracle takes queries of 48 symbols; a
    # 40-symbol query widens the generation's shared index once, to every
    # codable length, min(62, 8191) = 62 symbols in int64
    builds = []
    build = FactorIndex._build

    def record(self, width):
        build(self, width)
        builds.append((self._arr.size, self._width, self._every.dtype))

    monkeypatch.setattr(FactorIndex, "_build", record)
    monkeypatch.setattr(paperfold, "_generation_indexes", {})
    oracle = LanguageOracle.from_generation(12, 48)
    assert check_closure_under_antireversal(oracle, 16).status == "pass"
    text = str(oracle.source)
    rng = random.Random(22)
    for _ in range(20):
        k, n = rng.randrange(4000), rng.randint(4, 12)
        out = left_extend(oracle, Word(text[k : k + n]), 8, 24)
        assert str(out) in text
    assert builds == [(2**13 - 1, 32, np.uint32)]
    assert oracle.contains(Word(text[100:140]))
    assert not oracle.contains(Word("1" * 40))
    assert builds == [(2**13 - 1, 32, np.uint32), (2**13 - 1, 62, np.int64)]
    assert oracle.saturated_to(48) and oracle.contains(Word(text[7:12]))
    assert len(builds) == 2


def test_freeness_certificate_on_the_word():
    oracle = LanguageOracle.from_generation(14, 8)
    cert = freeness_certificate(oracle)
    assert cert.verdict == "pass"
    assert cert.antipalindrome_sup == 6
    assert cert.witnesses["antipalindrome_counts"] == {2: 2, 4: 2, 6: 1, 8: 0}


def test_freeness_consistency_with_census():
    oracle = LanguageOracle.from_generation(12, 8)
    cert = freeness_certificate(oracle)
    census = antipalindrome_census(12, 8)
    assert (cert.verdict == "pass") == (census.counts[8] == 0 and census.saturated)


def test_freeness_negative_controls():
    ones = LanguageOracle(Word("1" * 4096), 8)
    cert = freeness_certificate(ones)
    assert cert.verdict == "fail"
    assert cert.witnesses["closure"] == "fail"

    rng = np.random.default_rng(42)
    noise = Word.from_array(rng.integers(0, 2, size=2**16).astype(np.uint8))
    cert2 = freeness_certificate(LanguageOracle(noise, 8))
    assert cert2.verdict == "fail"
    assert cert2.witnesses["antipalindrome_counts"][8] > 0
    assert cert2.antipalindrome_sup == 8
    assert cert2.witnesses["length_8_examples"]


def test_freeness_inconclusive_when_unsaturated():
    # a tiny slice of the word is exact but unsaturated at length 8
    small = LanguageOracle(pf_prefix(40), 8)
    cert = freeness_certificate(small)
    assert cert.verdict == "inconclusive"
    assert cert.witnesses == check_closure_under_antireversal(small, 8).witness


def test_freeness_verdict_follows_the_closure_check():
    # "111" first occurs past the reference half, so length 3 is
    # unsaturated; closure already fails at length 2 ("00" is missing),
    # and freeness fails with it rather than answering inconclusive
    oracle = LanguageOracle(Word("110" * 100 + "1110" * 75), 8)
    assert not oracle.is_saturated(3)
    cert = freeness_certificate(oracle)
    closure = check_closure_under_antireversal(oracle, 8)
    assert (cert.verdict, closure.status) == ("fail", "fail")
    assert cert.witnesses["closure_witness"] == closure.witness == {"factor": "11"}


def test_closure_rejects_an_empty_length_range():
    with pytest.raises(DomainError):
        check_closure_under_antireversal(LanguageOracle.from_generation(12, 16), 0)


def test_parity_separation():
    assert parity_class_separation(10_000, 16).status == "pass"
    with pytest.raises(DomainError):
        parity_class_separation(10_000, 10)


def test_parity_reads_only_the_windows_it_codes(symbols):
    with symbols(pf_prefix(2 * 10 + 8).to_array()):
        assert parity_class_separation(10, 30).status == "pass"
        with pytest.raises(ResourceError):
            parity_class_separation(10, MAX_GENERATION + 1)
        with pytest.raises(DomainError):
            parity_class_separation(-1, 30)


def test_parity_cap_is_checked_before_any_symbol_is_built():
    class PrefixBuilt(Exception):
        pass

    with mock.patch.object(paperfold, "_prefix_array", side_effect=PrefixBuilt):
        for K in (MAX_PARITY_K + 1, 10**9):
            with pytest.raises(ResourceError):
                parity_class_separation(K, MAX_GENERATION)
        with pytest.raises(PrefixBuilt):  # the cap itself passes validation
            parity_class_separation(MAX_PARITY_K, MAX_GENERATION)


def test_parity_separation_runs_in_a_few_bytes_per_offset(traced_peak):
    # uint8 window codes of 2K + 2 offsets and the pattern test's K-byte
    # arrays; int64 codes alone would take 16 bytes per unit of K
    K = 2**20
    rep, peak = traced_peak(parity_class_separation, K, 21)
    assert rep.status == "pass"
    assert peak <= 8 * K


def test_parity_negative_control(symbols):
    # flipping symbol 1000 makes the even window at offset 994 equal the
    # odd window at offset 23
    arr = pf_prefix(8008).to_array().copy()
    arr[1000] ^= 1
    with symbols(arr):
        rep = parity_class_separation(4000, 12)
    assert (rep.status, rep.witness) == ("fail", {"k": 497, "l": 11, "window": "0110010"})


def _parity_witness_by_sets(arr, K):
    """The parity check's witness from Python sets and text patterns: the
    least window code at both parities and its first offsets, else the
    first window that matches no pattern of its family, else None."""
    codes = window_codes(arr[: 2 * K + 8], 7)
    even, odd = codes[0 : 2 * K + 1 : 2].tolist(), codes[1 : 2 * K + 2 : 2].tolist()
    clash = set(even) & set(odd)
    if clash:
        c = min(clash)
        return {"k": even.index(c), "l": odd.index(c), "window": str(code_to_word(c, 7))}
    text = "".join(map(str, arr[: 2 * K + 8].tolist()))
    for name, first, patterns in (("even", 0, EVEN_WINDOW_PATTERNS), ("odd", 1, ODD_WINDOW_PATTERNS)):
        for i in range(K + 1):
            window = text[2 * i + first : 2 * i + first + 7]
            if not any(all(p in "xy" or p == ch for p, ch in zip(pat, window)) for pat in patterns):
                return {"family": name, "offset_index": i, "window": window}
    return None


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 8007), min_size=1, max_size=3))
def test_parity_witness_matches_the_set_formulation(symbols, flips):
    arr = pf_prefix(8008).to_array().copy()
    for i in flips:
        arr[i] ^= 1
    with symbols(arr):
        rep = parity_class_separation(4000, 12)
    assert rep.witness == _parity_witness_by_sets(arr, 4000)
    assert rep.status == ("pass" if rep.witness is None else "fail")


@pytest.mark.parametrize("flips, witness", [
    # the even and odd windows share the codes 9, 19 and 38; the least names the clash
    ((1000, 1001), {"k": 498, "l": 20, "window": "1001000"}),
    ((8000,), {"family": "even", "offset_index": 3997, "window": "0010010"}),
])
def test_parity_failure_witnesses(symbols, flips, witness):
    arr = pf_prefix(8008).to_array().copy()
    arr[list(flips)] ^= 1
    with symbols(arr):
        rep = parity_class_separation(4000, 12)
    assert (rep.status, rep.witness) == ("fail", witness)
    assert _parity_witness_by_sets(arr, 4000) == witness


def test_parity_first_windows_differ():
    t = str(pf_word(4))
    assert t[0:7] == "1101100"
    assert t[1:8] == "1011001"
    assert t[0:7] != t[1:8]


def test_pattern_families_cover_and_exclude():
    t = str(pf_word(14))

    def matches(w, pat):
        return all(p in "xy" or p == c for p, c in zip(pat, w))

    even = {t[2 * k : 2 * k + 7] for k in range(3000)}
    odd = {t[2 * l + 1 : 2 * l + 8] for l in range(3000)}
    assert all(any(matches(w, p) for p in EVEN_WINDOW_PATTERNS) for w in even)
    assert all(any(matches(w, p) for p in ODD_WINDOW_PATTERNS) for w in odd)
    assert not (even & odd)


# ---------------------------------------------------------------------------
# the parity proof against its scan


def test_residue_windows_are_the_words_windows():
    # every window the residues allow occurs, at its parity
    codes = window_codes(pf_prefix(2**20).to_array(), 7)
    even, odd = dihedral._residue_windows()
    assert (len(even), len(odd)) == (12, 16)
    assert (even, odd) == (set(codes[0::2].tolist()), set(codes[1::2].tolist()))
    assert verify_parity_residues().status == parity_class_separation(100_000, 20).status == "pass"


@pytest.mark.parametrize("family", ["EVEN_WINDOW_PATTERNS", "ODD_WINDOW_PATTERNS"])
@pytest.mark.parametrize("k", range(4))
def test_parity_proof_and_scan_need_every_pattern(monkeypatch, family, k):
    patterns = getattr(dihedral, family)
    monkeypatch.setattr(dihedral, family, patterns[:k] + patterns[k + 1 :])
    assert verify_parity_residues().status == "fail"
    assert parity_class_separation(4000, 12).status == "fail"


def test_parity_proof_reads_the_positional_rule(monkeypatch):
    # the complement word has the same free slots, and its windows match
    # no family
    monkeypatch.setattr(dihedral, "symbol", lambda i, real=dihedral.symbol: 1 - real(i))
    assert verify_parity_residues().status == "fail"


def test_shared_index_answers_as_a_fresh_one(monkeypatch):
    # the census, closure and freeness read the same verdicts and
    # witnesses off the generation's shared index as off an index of
    # their own
    monkeypatch.setattr(paperfold, "_generation_indexes", {})
    paperfold._prefix_array(2**15 - 1)  # no growth drops an index below
    for g in range(6, 15):
        arr = paperfold._prefix_array(2 ** (g + 1) - 1)
        for max_len in (8, 16, 48):
            own = FactorIndex(arr, 1, ref_len=2**g - 1)
            if arr.size >= 3 * max_len:
                expected = CensusResult.of(own.codes, own.saturated, max_len)
                assert antipalindrome_census(g, max_len) == expected, (g, max_len)
            shared = LanguageOracle.from_generation(g, max_len)
            fresh = LanguageOracle(pf_word(g), max_len, reference_len=2**g - 1)
            assert fresh._index is not shared._index is paperfold.generation_index(g)
            for n_max in sorted({8, max_len}):
                got, want = (check_closure_under_antireversal(o, n_max).to_dict()
                             for o in (shared, fresh))
                assert {**got, "elapsed_ms": 0} == {**want, "elapsed_ms": 0}, (g, max_len, n_max)
            assert freeness_certificate(shared) == freeness_certificate(fresh), (g, max_len)
    assert sorted(paperfold._generation_indexes) == list(range(6, 15))
