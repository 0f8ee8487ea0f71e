import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfkit.errors import DomainError
from pfkit.words import (
    AGREE_ON_RANGE,
    BINARY,
    QUATERNARY,
    Alphabet,
    Window,
    Word,
    anti_reverse,
    concat,
    count,
    factor_set,
    from_pfw_bytes,
    is_anti_palindrome,
    read_pfw,
    segment,
    to_pfw_bytes,
    window_distance,
    write_pfw,
)
from fractions import Fraction


def rand_word(rng, n, size=2):
    return Word("".join(str(rng.randrange(size)) for _ in range(n)), Alphabet(size))


def naive_anti(s):
    return "".join("1" if c == "0" else "0" for c in reversed(s))


def test_alphabet_sizes():
    assert Alphabet(2).bits == 1
    assert Alphabet(4).bits == 2
    with pytest.raises(DomainError):
        Alphabet(3)


def test_word_construction_and_text_roundtrip():
    rng = random.Random(1)
    for size in (2, 4):
        for n in (0, 1, 5, 8, 9, 63, 64, 65, 1000):
            w = rand_word(rng, n, size)
            assert len(w) == n
            assert Word(str(w), size) == w
    with pytest.raises(DomainError):
        Word("012", 2)
    with pytest.raises(DomainError):
        Word("4", 4)


def test_word_is_immutable_and_hashable():
    w = Word("1101100")
    with pytest.raises(AttributeError):
        w.length = 5
    assert len({w, Word("1101100"), Word("110")}) == 2
    arr = w.to_array()
    with pytest.raises(ValueError):
        arr[0] = 0


def test_concat():
    assert str(concat(Word("110"), Word("1100"))) == "1101100"
    assert concat(Word(""), Word("10")) == Word("10")
    assert str(concat(Word("31", 4), Word("21", 4))) == "3121"
    with pytest.raises(DomainError):
        concat(Word("10"), Word("10", 4))


def test_segment():
    t2 = Word("1101100")
    assert str(segment(t2, 0, 2)) == "110"
    assert str(segment(t2, 3, 3)) == "1"
    t3 = Word("110110011100100")
    assert segment(t3, 0, 6) == t2
    for k, l in [(-1, 2), (0, 7), (3, 2), (0, 100)]:
        with pytest.raises(DomainError):
            segment(t2, k, l)


def test_count():
    t2 = Word("1101100")
    assert count(t2, "1") == 4
    assert count(t2, "0") == 3
    assert count(Word(""), "1") == 0
    t5 = Word(
        "110110011100100111011000110010011101100111001000110110001100100"
    )
    assert count(t5, "1") - count(t5, "0") == 1
    with pytest.raises(DomainError):
        count(t2, "2")


def test_anti_reverse():
    assert str(anti_reverse(Word("110"))) == "100"
    assert anti_reverse(Word("")) == Word("")
    assert str(anti_reverse(Word("10"))) == "10"
    with pytest.raises(DomainError):
        anti_reverse(Word("30", 4))


def test_anti_reverse_properties():
    rng = random.Random(7)
    for _ in range(300):
        u, v = rand_word(rng, rng.randrange(30)), rand_word(rng, rng.randrange(30))
        assert anti_reverse(anti_reverse(v)) == v
        assert anti_reverse(concat(u, v)) == concat(anti_reverse(v), anti_reverse(u))
        assert count(anti_reverse(v), "1") == count(v, "0")
        assert count(anti_reverse(v), "0") == count(v, "1")
        assert str(anti_reverse(v)) == naive_anti(str(v))


def test_is_anti_palindrome():
    assert is_anti_palindrome(Word("10"))
    assert not is_anti_palindrome(Word("11"))
    rng = random.Random(9)
    for _ in range(200):
        v = rand_word(rng, 2 * rng.randrange(12) + 1)
        assert not is_anti_palindrome(v)  # odd length is never fixed
    with pytest.raises(DomainError):
        is_anti_palindrome(Word("12", 4))


def test_factor_set_exhaustive_oracle():
    rng = random.Random(11)
    for size in (2, 4):
        for _ in range(40):
            w = rand_word(rng, rng.randrange(1, 40), size)
            for n in (1, 2, 3, 7):
                naive = {str(w)[i : i + n] for i in range(len(w) - n + 1)}
                assert {str(f) for f in factor_set(w, n)} == naive
    assert factor_set(Word("110"), 2) == {Word("11"), Word("10")}
    assert factor_set(Word("110"), 4) == set()
    with pytest.raises(DomainError):
        factor_set(Word("110"), 0)


def test_factor_set_long_windows():
    # beyond the 62-bit coded path
    w = Word("10" * 50)
    fs = factor_set(w, 70)
    assert len(fs) == 2
    assert all(len(f) == 70 for f in fs)


def test_window_distance():
    w = Word("11011")
    a = Window(w, -2)
    assert a.covers(-2) and a.covers(2) and not a.covers(3)
    assert a.slot(0) == 0
    b = Window(Word("11111"), -2)
    assert window_distance(a, b) == Fraction(1, 1)  # differ at slot 0
    c = Window(Word("11010"), -2)
    assert window_distance(a, c) == Fraction(1, 4)  # differ at slot +2
    assert window_distance(a, Window(Word("11011"), -2)) is AGREE_ON_RANGE
    with pytest.raises(DomainError):
        window_distance(a, Window(Word("111"), -1))  # mismatched K
    with pytest.raises(DomainError):
        window_distance(Window(Word("1101"), -2), Window(Word("1101"), -2))


def test_window_distance_far_slot():
    base = "1" * 15
    x = Window(Word(base), -7)
    flipped = base[:14] + "0"  # slot +7
    y = Window(Word(flipped), -7)
    assert window_distance(x, y) == Fraction(1, 2**7)
    flipped0 = "0" + base[1:]  # slot -7
    z = Window(Word(flipped0), -7)
    assert window_distance(x, z) == Fraction(1, 2**7)


def test_pfw_roundtrip(tmp_path):
    rng = random.Random(21)
    for size in (2, 4):
        for n in (0, 1, 7, 8, 9, 100):
            w = rand_word(rng, n, size)
            assert from_pfw_bytes(to_pfw_bytes(w)) == w
    w = rand_word(rng, 333, 4)
    path = tmp_path / "word.pfw"
    write_pfw(w, path)
    assert read_pfw(path) == w


def test_pfw_header_layout():
    w = Word("1101100")
    blob = to_pfw_bytes(w)
    assert blob[:4] == b"PFW1"
    assert blob[4] == 1
    assert blob[5] == 2
    assert int.from_bytes(blob[6:14], "little") == 7
    assert len(blob) == 14 + 1
    # LSB-first packing: symbols 1,1,0,1,1,0,0 -> 0b0011011 = 0x1b
    assert blob[14] == 0x1B


def test_pfw_rejects_corruption():
    blob = bytearray(to_pfw_bytes(Word("1101100")))
    for mutate in (
        lambda b: b.__setitem__(0, 0x58),  # magic
        lambda b: b.__setitem__(4, 9),  # version
        lambda b: b.__setitem__(5, 3),  # alphabet
        lambda b: b.__setitem__(6, 99),  # count vs payload size
    ):
        bad = bytearray(blob)
        mutate(bad)
        with pytest.raises(DomainError):
            from_pfw_bytes(bytes(bad))


def test_pfw_rejects_truncated_header():
    blob = to_pfw_bytes(Word("1101100"))
    for short in (b"PFW1", b"PFW1\x01", b"PFW1\x01\x02", blob[:13]):
        with pytest.raises(DomainError):
            from_pfw_bytes(short)


def _pfw_blob(size, length, payload):
    return b"PFW1\x01" + bytes([size]) + length.to_bytes(8, "little") + payload


# arbitrary bytes, plus streams that get past the magic and header checks
pfw_streams = st.one_of(
    st.binary(max_size=40),
    st.binary(max_size=40).map(lambda tail: b"PFW1" + tail),
    st.builds(_pfw_blob, st.sampled_from([2, 3, 4]), st.integers(0, 80), st.binary(max_size=24)),
)


@settings(max_examples=400, deadline=None)
@given(pfw_streams)
def test_pfw_reader_gives_word_or_domain_error(data):
    try:
        w = from_pfw_bytes(data)
    except DomainError:
        return
    assert isinstance(w, Word)
    assert w.length == int.from_bytes(data[6:14], "little")
    assert from_pfw_bytes(to_pfw_bytes(w)) == w


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 4]).flatmap(
    lambda size: st.tuples(st.just(size), st.lists(st.integers(0, size - 1), max_size=200))
))
def test_pfw_roundtrip_random_words(case):
    size, symbols = case
    w = Word.from_array(np.array(symbols, dtype=np.uint8), Alphabet(size))
    back = from_pfw_bytes(to_pfw_bytes(w))
    assert back == w
    assert back.to_array().tolist() == symbols


def test_quaternary_packing_lsb_first():
    w = Word("0123", 4)
    # 0 | 1<<2 | 2<<4 | 3<<6 = 0b11100100
    assert w.payload == bytes([0b11100100])
    assert np.array_equal(w.to_array(), np.array([0, 1, 2, 3], dtype=np.uint8))
