import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfkit.dihedral import (
    EVEN_WINDOW_PATTERNS,
    ODD_WINDOW_PATTERNS,
    FreenessCertificate,
    LanguageOracle,
    check_closure_under_antireversal,
    freeness_certificate,
    is_phi_sigma_fixed_window,
    left_extend,
    parity_class_separation,
)
from pfkit.errors import DomainError, ExtensionError, ResourceError
from pfkit.paperfold import MAX_GENERATION, antipalindrome_census, pf_prefix, pf_word
from pfkit.words import Window, Word, is_anti_palindrome, segment, window_distance


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
    ("".join(random.Random(8).choice("01") for _ in range(1500)), 2),
    ("".join(random.Random(9).choice("0123") for _ in range(400)), 4),
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


def test_oracle_saturation():
    oracle = LanguageOracle.from_generation(12, 16)
    assert oracle.saturated_to(16)
    # a random word of this size cannot have stable length-16 factor sets
    rng = np.random.default_rng(5)
    noise = Word.from_array(rng.integers(0, 2, size=4096).astype(np.uint8))
    noisy = LanguageOracle(noise, 16)
    assert not noisy.is_saturated(16)


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

    def anti(s):
        return "".join("1" if c == "0" else "0" for c in reversed(s))

    for ell in range(1, 17):
        factors = {text[i : i + ell] for i in range(len(text) - ell + 1)}
        failing = [f for f in factors if anti(f) not in factors]
        if failing:
            break
    assert len(failing) >= 2
    assert rep.status == "fail"
    assert rep.witness == {"factor": min(failing, key=lambda f: int(f[::-1], 2))}


def test_phi_sigma_fixed_windows():
    assert is_phi_sigma_fixed_window(Window(Word("10"), 0))
    assert not is_phi_sigma_fixed_window(Window(Word("11"), 0))
    assert is_phi_sigma_fixed_window(Window(Word("011001"), -2))
    for bad in (Window(Word("10"), 1), Window(Word("101"), -1), Window(Word("1"), 0)):
        with pytest.raises(DomainError):
            is_phi_sigma_fixed_window(bad)


def test_phi_sigma_agrees_with_anti_palindrome():
    rng = random.Random(13)
    for _ in range(200):
        n = 2 * rng.randrange(1, 8)
        w = Word("".join(rng.choice("01") for _ in range(n)))
        assert is_phi_sigma_fixed_window(Window(w, 1 - n // 2)) == is_anti_palindrome(w)


def test_phi_sigma_never_on_long_word_factors():
    # windows of length 8 taken from the word are never fixed-point shaped
    t = pf_word(12)
    for i in range(0, len(t) - 8, 37):
        assert not is_phi_sigma_fixed_window(Window(segment(t, i, i + 7), -3))


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
    # non-recurrent source gets stuck: nothing can precede the global head
    src = Word("10000000")
    small = LanguageOracle(src, 8, reference_len=8)
    with pytest.raises(ExtensionError) as err:
        left_extend(small, Word("10"), 3, 3)
    assert isinstance(err.value.stuck_prefix, Word)


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


def test_parity_negative_control(symbols):
    # flipping symbol 1000 makes the even window at offset 994 equal the
    # odd window at offset 23
    arr = pf_prefix(8008).to_array().copy()
    arr[1000] ^= 1
    with symbols(arr):
        rep = parity_class_separation(4000, 12)
    assert (rep.status, rep.witness) == ("fail", {"k": 497, "l": 11, "window": "0110010"})


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


def test_even_odd_window_distance_bound():
    # any even-shift and odd-shift symmetric 7-windows differ within the
    # center, so their distance is at least 2^-7
    t = pf_word(12)
    rng = random.Random(17)
    for _ in range(300):
        k = rng.randrange(4, 1000)
        l = rng.randrange(4, 1000)
        x = Window(segment(t, 2 * k - 7, 2 * k + 7), -7)
        y = Window(segment(t, 2 * l + 1 - 7, 2 * l + 1 + 7), -7)
        d = window_distance(x, y)
        assert d >= Fraction(1, 2**7)
