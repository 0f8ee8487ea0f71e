import hashlib
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfkit import paperfold, subst, words
from pfkit.dihedral import LanguageOracle, left_extend
from pfkit.errors import DomainError
from pfkit.paperfold import pf_prefix, pf_word
from pfkit.subst import (
    PAPERFOLD_SUBSTITUTION,
    apply,
    block_code,
    fixed_prefix,
    verify_intertwining,
    verify_recoding,
)
from pfkit.words import (
    MAX_CODE_BITS,
    QUATERNARY,
    Alphabet,
    FactorIndex,
    Word,
    anti_palindrome_codes,
    anti_reverse,
    anti_reverse_codes,
    concat,
    count,
    factor_set,
    from_pfw_bytes,
    is_anti_palindrome,
    read_pfw,
    segment,
    to_pfw_bytes,
    window_codes,
    word_code,
    write_pfw,
)

from oracles import naive_anti, writable


def rand_word(rng, n, size=2):
    return Word("".join(str(rng.randrange(size)) for _ in range(n)), Alphabet(size))


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
    # text that is not a str is refused by name, not by an AttributeError
    for bad in (b"10", 5, None, ["1", "0"]):
        with pytest.raises(DomainError, match=type(bad).__name__):
            Word(bad)


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


def anti_reverse_code(code, n):
    """Anti-reversal of one length-n binary window code, a bit at a time:
    the oracle of anti_reverse_codes."""
    r = 0
    for j in range(n):
        r |= ((code >> j) & 1) << (n - 1 - j)
    return r ^ ((1 << n) - 1)


@pytest.mark.parametrize("n", range(1, MAX_CODE_BITS + 1))
def test_anti_reverse_codes_match_the_per_bit_loop(n):
    # 0, all ones, and codes with the top bit n - 1 set, where a signed
    # shift of the reversed bits would carry the sign in
    rng = random.Random(n)
    top = 1 << (n - 1)
    codes = [0, (1 << n) - 1, top, top | 1, *(top | rng.getrandbits(n - 1) for _ in range(40)),
             *(rng.getrandbits(n) for _ in range(40))]
    got = anti_reverse_codes(np.array(codes, dtype=np.int64), n)
    assert got.dtype == np.int64
    assert got.tolist() == [anti_reverse_code(c, n) for c in codes]
    assert anti_reverse_codes(got, n).tolist() == codes
    # the narrow codes window_codes makes are read the same way
    arr = np.random.default_rng(n).integers(0, 2, 200).astype(np.uint8)
    narrow = window_codes(arr, n)
    assert anti_reverse_codes(narrow, n).tolist() == [anti_reverse_code(c, n) for c in narrow.tolist()]


def test_anti_reverse_codes_agree_with_anti_reverse():
    rng = random.Random(13)
    for _ in range(200):
        v = rand_word(rng, rng.randrange(1, MAX_CODE_BITS + 1))
        assert anti_reverse_codes([word_code(v)], v.length).tolist() == [word_code(anti_reverse(v))]
    assert anti_reverse_codes(np.empty(0, dtype=np.int64), 5).size == 0
    for bad in (0, MAX_CODE_BITS + 1):
        with pytest.raises(DomainError):
            anti_reverse_codes([0], bad)


def test_anti_palindrome_codes():
    for n in (1, 2, 6, 8, 9, 16):
        codes = set(range(1 << min(n, 12)))
        want = sorted(c for c in codes if c == anti_reverse_code(c, n))
        assert anti_palindrome_codes(codes, n) == want
    assert anti_palindrome_codes({word_code(Word("1100")), word_code(Word("1110"))}, 4) == [
        word_code(Word("1100"))]
    assert anti_palindrome_codes(set(), 4) == []


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 4]).flatmap(lambda size: st.tuples(
    st.just(size), st.lists(st.integers(0, size - 1), max_size=MAX_CODE_BITS // Alphabet(size).bits))))
def test_code_to_word_inverts_word_code(case):
    size, symbols = case
    w = Word.from_array(symbols, Alphabet(size))
    assert words.code_to_word(word_code(w), w.length, w.alphabet) == w


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


# random words, and repeated blocks, whose factor sets saturate early
engine_words = st.sampled_from([2, 4]).flatmap(
    lambda size: st.one_of(
        st.tuples(st.just(size), st.lists(st.integers(0, size - 1), min_size=1, max_size=90)),
        st.tuples(st.just(size), st.lists(st.integers(0, size - 1), min_size=1, max_size=9),
                  st.integers(2, 12)).map(lambda t: (t[0], t[1] * t[2])),
    )
)


@pytest.mark.parametrize("bits", [1, 2])
def test_window_codes_fit_uint8_up_to_eight_bits(bits):
    # codes of at most 8 bits are uint8, wider ones int64; every code is
    # the sum of symbol << (bits * j) over the window
    arr = np.random.default_rng(9).integers(0, 1 << bits, 200).astype(np.uint8)
    for n in range(1, MAX_CODE_BITS // bits + 1):
        codes = window_codes(arr, n, bits)
        assert codes.dtype == (np.uint8 if n * bits <= 8 else np.int64)
        want = [sum(int(a) << (bits * j) for j, a in enumerate(arr[i : i + n])) for i in range(arr.size - n + 1)]
        assert codes.tolist() == want
    assert window_codes(arr[:3], 4, bits).dtype == np.uint8


def _sorted_distinct(codes):
    """The distinct values of ``codes`` in order, from one sort and an
    adjacent-difference mask (np.unique takes a slower hash path)."""
    codes = np.sort(codes)
    keep = np.ones(codes.size, dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return codes[keep]


def _unique_codes(arr, n, bits):
    """The distinct length-n window codes.  The oracle stays independent
    of FactorIndex: it codes every length on its own with window_codes and
    sorts numpy's way, where the index codes the longest windows chunk by
    chunk by width doubling, derives the shorter lengths by masks and
    merges the chunks' distinct codes."""
    return set(_sorted_distinct(window_codes(arr, n, bits)).tolist())


@settings(max_examples=150, deadline=None)
@given(engine_words, st.sampled_from([1, 5, 1 << 16]), st.data())
def test_factor_index_matches_window_codes(case, chunk, data):
    # the engine against the per-length formulation it replaces: every
    # codable length, also past the word's end, on the full array and on
    # the reference prefix; small chunks put chunk edges inside the word.  The word may
    # be cut shorter than the index width, down to the empty array, and
    # the reference may end within a width of either end of the word, so
    # the tail windows of both ends start anywhere from the first symbol
    size, symbols = case
    kept = data.draw(st.one_of(st.just(len(symbols)), st.integers(0, len(symbols))), label="kept")
    arr = np.array(symbols[:kept], dtype=np.uint8)
    bits = Alphabet(size).bits
    longest = MAX_CODE_BITS // bits
    width = min(longest, arr.size)
    ref_len = data.draw(st.one_of(st.integers(0, arr.size), st.integers(0, width),
                                  st.integers(arr.size - width, arr.size)), label="ref_len")
    index = FactorIndex(arr, bits, ref_len)
    with mock.patch.object(words, "_CHUNK", chunk):
        index.codes(longest)
    for n in range(1, longest + 1):
        full = _unique_codes(arr, n, bits)
        assert index.codes(n) == full
        assert index.saturated(n) == (_unique_codes(arr[:ref_len], n, bits) == full)
        if n <= arr.size:
            word = Word.from_array(arr[:n], Alphabet(size))
            assert word_code(word) == int(window_codes(arr, n, bits)[0])
    for bad in (0, longest + 1):
        with pytest.raises(DomainError):
            index.codes(bad)
        with pytest.raises(DomainError):
            index.saturated(bad)


@pytest.mark.parametrize("size, ref_len", [(2, 2**11 - 1), (2, 40), (4, 3000), (4, 10)])
def test_factor_index_reads_lengths_without_window_codes(size, ref_len):
    # once built, the index reads every length off its width-W codes and
    # the tail windows it coded with them, at the array's end and at the
    # reference's: no length codes windows again
    arr = (pf_word(12).to_array() if size == 2 else
           np.random.default_rng(3).integers(0, 4, 4000).astype(np.uint8))
    bits = Alphabet(size).bits
    longest = MAX_CODE_BITS // bits
    want = [(_unique_codes(arr, n, bits), _unique_codes(arr[:ref_len], n, bits)) for n in range(1, longest + 1)]
    index = FactorIndex(arr, bits, ref_len)
    index.codes(longest)
    with mock.patch.object(words, "window_codes", wraps=words.window_codes) as coded:
        for n, (full, ref) in enumerate(want, 1):
            assert index.codes(n) == full
            assert index.saturated(n) == (ref == full)
    assert coded.call_count == 0


@settings(max_examples=150, deadline=None)
@given(engine_words, st.sampled_from([1, 5, 1 << 16]), st.data())
def test_factor_index_widens_once_past_uint32(case, chunk, data):
    # requests on both sides of the widest uint32 width, in drawn order:
    # the index is as wide as the longest request inside the array needs,
    # uint32 up to 32 bits and int64 past them, and every length's codes
    # and saturation match the per-length formulation through the rebuild
    size, symbols = case
    arr = np.array(symbols, dtype=np.uint8)
    bits = Alphabet(size).bits
    narrow, longest = 32 // bits, MAX_CODE_BITS // bits
    ref_len = data.draw(st.integers(1, arr.size), label="ref_len")
    lengths = [data.draw(st.integers(1, narrow), label="short"),
               data.draw(st.integers(narrow + 1, longest), label="long"),
               *data.draw(st.lists(st.integers(1, longest), max_size=6), label="more")]
    order = data.draw(st.permutations(lengths), label="order")
    index = FactorIndex(arr, bits, ref_len)
    with mock.patch.object(words, "_CHUNK", chunk):
        for i, n in enumerate(order):
            full = _unique_codes(arr, n, bits)
            if data.draw(st.booleans(), label="saturated first"):
                assert index.saturated(n) == (_unique_codes(arr[:ref_len], n, bits) == full)
            assert index.codes(n) == full
            assert index.saturated(n) == (_unique_codes(arr[:ref_len], n, bits) == full)
            wide = order[0] > narrow or any(narrow < m <= arr.size for m in order[: i + 1])
            assert index._width == min(longest if wide else narrow, arr.size)
            wide_codes = bits * index._width > 32
            assert index._every.dtype == index._ref.dtype == (np.int64 if wide_codes else np.uint32)
        # a repeated or shorter request reads the codes already built
        every = index._every
        for n in [*order, *range(1, index._width + 1)]:
            assert index.codes(n) == _unique_codes(arr, n, bits)
            assert index.saturated(n) == (_unique_codes(arr[:ref_len], n, bits) == index.codes(n))
        assert index._every is every


@pytest.mark.parametrize("bits, length, dtype", [
    (1, 32, np.uint32), (1, 33, np.int64), (2, 16, np.uint32), (2, 17, np.int64)])
def test_factor_index_codes_fit_uint32_up_to_32_bits(bits, length, dtype):
    # windows of at most 32 bits are coded and sorted as uint32, wider ones
    # as int64; a random word uses the top bit of the widest codes, and
    # chunk edges fall inside it
    arr = np.random.default_rng(12).integers(0, 1 << bits, 3000).astype(np.uint8)
    index = FactorIndex(arr, bits, 1700)
    with mock.patch.object(words, "_CHUNK", 1000):
        index.codes(length)
    assert index._every.dtype == index._ref.dtype == dtype
    assert max(index.codes(length)) >> (bits * length - 1) == 1
    for n in (1, length - 1, length):
        full = _unique_codes(arr, n, bits)
        assert index.codes(n) == full
        assert index.saturated(n) == (_unique_codes(arr[:1700], n, bits) == full)


def test_factor_index_across_full_size_chunks():
    # several chunks of the default size, with the reference end in a later
    # one; the random quaternary word has more than 2^16 distinct windows
    # of its longest codable length, so the merged codes outgrow a chunk
    rng = np.random.default_rng(4)
    cases = [(pf_word(17).to_array(), 1, 2**17 - 1),
             (rng.integers(0, 4, size=2 * words._CHUNK + 12_345).astype(np.uint8), 2,
              words._CHUNK + 7)]
    for arr, bits, ref_len in cases:
        assert arr.size > 2 * words._CHUNK and ref_len > words._CHUNK
        index = FactorIndex(arr, bits, ref_len)
        for n in range(1, MAX_CODE_BITS // bits + 1):
            # the oracle of _unique_codes, coding each length once: the
            # reference's windows are the first ref_len - n + 1, a subset of
            # the whole array's, so it is saturated iff it has as many codes
            codes = window_codes(arr, n, bits)
            full = _sorted_distinct(codes)
            assert index.codes(n) == set(full.tolist())
            assert index.saturated(n) == (_sorted_distinct(codes[: ref_len - n + 1]).size == full.size)


def test_factor_index_edges():
    # the empty array has no factors, so every length is saturated
    empty = FactorIndex(np.empty(0, dtype=np.uint8), 1)
    for n in range(1, MAX_CODE_BITS + 1):
        assert empty.codes(n) == set() and empty.saturated(n)
    # words shorter than MAX_CODE_BITS // bits, with every reference end,
    # so the reference has no longest window
    for size, symbols in ((2, [1, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 1, 0, 0]), (4, [3, 1, 2, 1, 3, 0, 2])):
        arr = np.array(symbols, dtype=np.uint8)
        bits = Alphabet(size).bits
        for ref_len in range(arr.size + 1):
            index = FactorIndex(arr, bits, ref_len)
            for n in range(1, MAX_CODE_BITS // bits + 1):
                full = _unique_codes(arr, n, bits)
                assert index.codes(n) == full
                assert index.saturated(n) == (_unique_codes(arr[:ref_len], n, bits) == full)


def test_factor_index_memory_over_generation_20():
    # the build keeps no array of the generation's size, and its pass
    # stays within a few chunk buffers
    arr = pf_word(20).to_array()
    tracemalloc.start()
    try:
        index = FactorIndex(arr, 1, 2**20 - 1)
        index.saturated(1)
        kept = tracemalloc.get_traced_memory()[0]
        for n in range(2, 25):
            index.saturated(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kept < 64 << 10
    assert peak < 2 << 20


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


def _pack_by_padding(arr):
    """Quaternary packing by the padded formula: pad to whole groups of
    four and OR the shifted columns."""
    if arr.size == 0:
        return b""
    arr = np.concatenate([arr, np.zeros((-arr.size) % 4, np.uint8)])
    q = arr.reshape(-1, 4)
    return (q[:, 0] | (q[:, 1] << 2) | (q[:, 2] << 4) | (q[:, 3] << 6)).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.integers(0, 9), st.integers(2**16 - 3, 2**16 + 3)), st.integers(0, 2**32 - 1))
def test_quaternary_pack_matches_the_padded_formula(n, seed):
    arr = np.random.default_rng(seed).integers(0, 4, size=n).astype(np.uint8)
    assert words._pack(arr, 2) == _pack_by_padding(arr)
    assert np.array_equal(Word.from_array(arr, QUATERNARY).to_array(), arr)


@pytest.mark.parametrize("n", [2**21, 2**21 - 1])
def test_quaternary_pack_peaks_under_a_byte_per_symbol(n):
    arr = np.random.default_rng(n).integers(0, 4, size=n).astype(np.uint8)
    tracemalloc.start()
    try:
        packed = words._pack(arr, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert packed == _pack_by_padding(arr)
    assert peak < n


@pytest.mark.parametrize("size, text", [(2, "1101100"), (2, "1"), (4, "312"), (4, "3")])
def test_set_padding_bits_decode_to_the_canonical_word(size, text):
    w = Word(text, size)
    used = w.length * w.alphabet.bits % 8
    dirty = w.payload[:-1] + bytes([w.payload[-1] | (0xFF << used) & 0xFF])
    assert dirty != w.payload
    for back in (Word.from_packed(dirty, w.length, size),
                 from_pfw_bytes(_pfw_blob(size, w.length, dirty))):
        assert back == w and hash(back) == hash(w)
        assert back.payload == w.payload and str(back) == text


def _all_forms(w):
    """``w`` built every way a word can be: from text, from an array, from
    its payload with every padding bit set, and through a PFW round trip."""
    used = w.length * w.alphabet.bits % 8
    dirty = w.payload
    if used:
        dirty = dirty[:-1] + bytes([dirty[-1] | (0xFF << used) & 0xFF])
    return (Word(str(w), w.alphabet), Word.from_array(w.to_array().copy(), w.alphabet),
            Word.from_packed(dirty, w.length, w.alphabet), from_pfw_bytes(to_pfw_bytes(w)))


@pytest.mark.parametrize("size", [2, 4])
def test_equality_and_hash_agree_across_every_form(size):
    rng = random.Random(size)
    samples = [rand_word(rng, n, size) for n in (0, 1, 3, 7, 9, 31, 33, 101, 2**18 + 5)]
    for w in samples:
        for form in _all_forms(w):
            assert form == w and w == form and hash(form) == hash(w)
            assert form.length == w.length and np.array_equal(form.to_array(), w.to_array())
            assert not form.to_array().flags.writeable
    # one flipped symbol, in the first or the last chunk of the compare,
    # or one symbol dropped, makes a different word
    for w in samples[1:]:
        for i in (0, w.length - 1):
            arr = w.to_array().copy()
            arr[i] = (arr[i] + 1) % size
            assert Word.from_array(arr, size) != w
        assert segment(w, 0, w.length - 1) == w
        if w.length > 1:
            assert segment(w, 0, w.length - 2) != w
    assert Word("") != Word("", 4) and Word("1") != Word("1", 4)


def test_words_compare_without_a_temporary_of_their_size():
    a = pf_word(23)  # 2^24 - 1 symbols
    b = Word.from_array(a.to_array().copy())
    tracemalloc.start()
    try:
        equal = a == b
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert equal and peak < 2 * 2**20


# sha256 of the PFW bytes of _pinned_words(): the format's bytes are fixed,
# however a word holds its symbols
PINNED_PFW_DIGEST = "483e73b8e2298550e89b9ac634f71f4a1dc8ecf09a04b54729e3cfcaf5e308a4"


def _pinned_words():
    rng = np.random.default_rng(2024)
    ws = [Word(""), Word("1"), Word("1101100"), Word("3", 4), Word("312", 4), Word("0123012", 4),
          pf_word(12), block_code(pf_word(12), 1)]
    for n in (1, 7, 9, 63, 1001):
        for size in (2, 4):
            ws.append(Word.from_array(rng.integers(0, size, n).astype(np.uint8), size))
    return ws


def test_pfw_bytes_are_pinned():
    h = hashlib.sha256()
    for w in _pinned_words():
        h.update(to_pfw_bytes(w))
    assert h.hexdigest() == PINNED_PFW_DIGEST


def test_scans_pack_no_word(monkeypatch):
    # only the PFW writer and word_code pack; building, slicing, recoding
    # and comparing words read the symbol array
    def no_pack(arr, bits):
        raise AssertionError(f"packed {arr.size} symbols")

    monkeypatch.setattr(words, "_pack", no_pack)
    w = pf_word(14)
    assert segment(w, 3, 1000).length == 998
    assert block_code(segment(w, 0, 2**14 - 1)) == fixed_prefix(PAPERFOLD_SUBSTITUTION, 2**13)
    assert fixed_prefix(PAPERFOLD_SUBSTITUTION, 0) == Word("", 4)
    assert verify_recoding(2**12).status == "pass"
    assert verify_intertwining(2**12).status == "pass"
    with pytest.raises(AssertionError, match="packed"):
        to_pfw_bytes(w)


def test_from_array_copies_views_of_writable_memory():
    # a view of memory that its base can still write is copied, so the
    # word keeps its symbols, equality and hash
    base = np.zeros(8, np.uint8)
    w = Word.from_array(base[:4])
    base[1] = 1
    assert str(w) == "0000" and w == Word("0000") and hash(w) == hash(Word("0000"))
    view = base[4:]
    view.setflags(write=False)  # a read-only view of a writable base
    w = Word.from_array(view)
    base[5] = 1
    assert str(w) == "0000"
    buf = bytearray(4)
    wrap = np.frombuffer(buf, np.uint8)
    w = Word.from_array(wrap)
    wrap.setflags(write=False)  # a read-only array over a writable buffer
    v = Word.from_array(wrap[1:])
    buf[2] = 1
    assert str(w) == "0000" and str(v) == "000"
    # a writable array is copied and left writable
    own = np.zeros(4, np.uint8)
    assert Word.from_array(own).to_array() is not own and own.flags.writeable


def test_from_array_keeps_its_symbols_when_a_read_only_array_is_written():
    # read-only arrays over memory that its owner can still write, which
    # from_array kept without a copy: a read-only memoryview of a
    # bytearray, and a memoryview of a read-only view of a writable array
    buf, base = bytearray(4), np.zeros(4, np.uint8)
    view = base[:]
    view.setflags(write=False)
    for arr, owner in ((np.frombuffer(memoryview(buf).toreadonly(), np.uint8), buf),
                       (np.frombuffer(memoryview(view), np.uint8), base)):
        w = Word.from_array(arr)
        owner[1] = 1
        assert arr[1] == 1 and str(w) == "0000" and hash(w) == hash(Word("0000"))


def test_from_array_takes_memory_exposed_only_by_the_array_interface():
    # a read-only array whose base has no buffer protocol, only
    # __array_interface__, raised TypeError from memoryview(base)

    class Symbols:
        def __init__(self, arr):
            self.arr = arr  # keeps the memory alive
            self.__array_interface__ = dict(arr.__array_interface__, data=(arr.ctypes.data, True))

    owner = np.zeros(4, np.uint8)
    symbols = Symbols(owner)
    for given in (symbols, np.asarray(symbols)):
        w = Word.from_array(given)
        owner[0] = 1
        assert str(w) == "0000"
        owner[0] = 0


def test_public_constructors_share_no_memory_with_their_input():
    # from_array copies every array, read-only ones included; text,
    # payloads and PFW streams are decoded into fresh arrays
    frozen = np.zeros(8, np.uint8)
    frozen.setflags(write=False)
    made = (pf_word(5), block_code(pf_word(5), 1))
    for arr in (np.zeros(4, np.uint8), frozen, frozen[2:6], np.frombuffer(b"\x00\x01\x01", np.uint8),
                *(w.to_array() for w in made)):
        w = Word.from_array(arr, 4)
        assert not np.shares_memory(w.to_array(), arr) and np.array_equal(w.to_array(), arr)
    text = "3120"
    assert not np.shares_memory(Word(text, 4).to_array(), np.frombuffer(text.encode(), np.uint8))
    for w in made:
        payload, blob = w.payload, to_pfw_bytes(w)
        for back, source in ((Word.from_packed(payload, w.length, w.alphabet), payload),
                             (from_pfw_bytes(blob), blob)):
            assert back == w and not np.shares_memory(back.to_array(), np.frombuffer(source, np.uint8))


def test_from_array_copies_an_array_with_earlier_views():
    # numpy cannot tell whether views of an array exist, so a writable
    # array is copied: a view taken before the call cannot write the word
    a = np.zeros(8, np.uint8)
    v = a[:4]
    w = Word.from_array(a)
    v[1] = 1
    assert str(w) == "00000000" and w == Word("00000000")


def test_from_array_converts_without_a_second_copy():
    # the uint8 array converted from int64 symbols is fresh and shares no
    # memory with the input, so it is the word's one buffer; a second copy
    # of it traced 2 MiB here
    arr = np.zeros(2**20, np.int64)
    arr[::3] = 1
    tracemalloc.start()
    try:
        w = Word.from_array(arr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 2**20
    assert not np.may_share_memory(w.to_array(), arr) and not w.to_array().flags.writeable
    arr[1] = 1
    assert w.to_array()[:4].tolist() == [1, 0, 0, 1] and w.length == 2**20
    # lists and strided uint8 arrays convert to fresh arrays too
    assert Word.from_array([1, 0, 1]) == Word("101")
    strided = np.zeros(8, np.uint8)
    w = Word.from_array(strided[::2])
    strided[0] = 1
    assert str(w) == "0000"
    # an ndarray subclass is copied too

    class Symbols(np.ndarray):
        pass

    sub = np.zeros(4, np.uint8).view(Symbols)
    w = Word.from_array(sub)
    sub[0] = 1
    assert str(w) == "0000"


def test_from_array_checks_symbols_before_narrowing_them():
    # each value is checked as given, so none wraps, truncates or
    # overflows into a symbol on its way to uint8
    for bad in (np.array([257, 0]), np.array([-255, 1]), [256, 1], np.array([2, 0], np.int16),
                np.array([1.9, 0.2]), np.array([1.0, 0.0]), ["1", "0"], [2**70]):
        with pytest.raises(DomainError):
            Word.from_array(bad)
    with pytest.raises(DomainError):
        Word.from_array(np.array([4, 0], np.uint8), 4)
    assert Word.from_array(np.array([3, 1], np.int64), 4) == Word("31", 4)
    assert Word.from_array(np.array([True, False])) == Word("10")
    assert Word.from_array([]) == Word("")


def test_from_array_takes_only_one_dimensional_arrays():
    # a 2-D array made a word that printed, then failed w[1] with a
    # TypeError and factor_set with a ValueError; a 0-d array made a
    # one-symbol word
    for bad in (np.array([[1, 0], [0, 1]], np.uint8), np.array([[1, 0, 1]]), np.array(1, np.uint8),
                np.array(0), [[1, 0]]):
        with pytest.raises(DomainError):
            Word.from_array(bad)
    assert Word.from_array(np.array([[1, 0], [0, 1]], np.uint8)[0]) == Word("10")


def _core_words():
    """A word from every producer that hands its array straight to the
    core constructor, Word._of, and from each public constructor."""
    s = PAPERFOLD_SUBSTITUTION
    wide = subst.Substitution({a: str(a) + "3120" * 3 for a in range(4)})
    ragged = subst.Substitution({3: "312", 2: "30", 1: "21", 0: "20"})
    oracle = LanguageOracle.from_generation(10, 200)
    w = pf_word(12)
    return [
        pf_word(0), w, pf_prefix(0), pf_prefix(1), pf_prefix(5001),
        segment(w, 3, 1000), segment(w, 0, 0), concat(Word("110"), Word("01")),
        concat(Word("3", 4), Word("012", 4)), anti_reverse(pf_word(5)),
        words.code_to_word(0b1101, 4), words.code_to_word(0b11100100, 4, QUATERNARY),
        block_code(pf_prefix(4096)), block_code(pf_prefix(4001), 1),
        fixed_prefix(s, 0), fixed_prefix(s, 1), fixed_prefix(s, 4097), fixed_prefix(ragged, 1),
        fixed_prefix(ragged, 1001), apply(s, Word("31203", 4)), apply(wide, Word("0123", 4)),
        apply(ragged, Word("3120", 4)), left_extend(oracle, pf_word(3), 20, 40),
        Word("1101"), Word.from_array([3, 1], 4), Word.from_packed(b"\x1b", 7),
        from_pfw_bytes(to_pfw_bytes(w)),
    ]


def test_every_producer_hands_over_a_read_only_uint8_array():
    # the core constructor keeps its array as it is, so every array handed
    # to it must already be 1-D, contiguous, uint8, inside the alphabet
    # and read-only down to its base
    for w in _core_words():
        arr = w.to_array()
        assert arr.ndim == 1 and arr.flags.c_contiguous and arr.dtype == np.uint8, repr(w)
        assert arr.size == w.length and (not arr.size or int(arr.max()) < w.alphabet.size), repr(w)
        assert not writable(arr), repr(w)


def _pfw_words():
    rng = np.random.default_rng(17)
    for size in (2, 4):
        for n in range(18):
            yield Word.from_array(rng.integers(0, size, n).astype(np.uint8), size)
    yield pf_word(12)
    yield fixed_prefix(PAPERFOLD_SUBSTITUTION, 2**13 - 1)


def test_pfw_bytes_are_header_then_payload(tmp_path):
    path = tmp_path / "word.pfw"
    for w in _pfw_words():
        blob = to_pfw_bytes(w)
        assert blob == b"PFW1\x01" + bytes([w.alphabet.size]) + w.length.to_bytes(8, "little") + w.payload
        write_pfw(w, path)
        assert path.read_bytes() == blob
        assert read_pfw(path) == from_pfw_bytes(blob) == w


def test_scan_paths_build_words_without_a_copy(monkeypatch):
    # each word a scan path builds shares memory with the array its
    # producer computed: prefixes with the prefix cache; block codes,
    # fixed points, images and decoded PFW words with what _pair_codes,
    # _image and _unpack return; and segments of each with their word
    made = []
    for module, name in ((subst, "_pair_codes"), (subst, "_image"), (words, "_unpack")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real: made.append(real(*args)) or made[-1])

    def with_source(make):
        made.clear()
        return make(), made[-1]

    built = [(pf_word(14), paperfold._prefix_cache)]
    built.append((pf_prefix(5000), paperfold._prefix_cache))
    built += [with_source(make) for make in (
        lambda: block_code(pf_prefix(4096)), lambda: block_code(pf_prefix(4001), 1),
        lambda: fixed_prefix(PAPERFOLD_SUBSTITUTION, 4096),
        lambda: apply(PAPERFOLD_SUBSTITUTION, Word("3120", 4)))]
    built += [with_source(lambda w=w: from_pfw_bytes(to_pfw_bytes(w))) for w, _ in built[:4]]
    for w, source in built:
        assert np.shares_memory(w.to_array(), source), repr(w)
        part = segment(segment(w, 1, w.length - 1), 1, 2)
        assert np.shares_memory(part.to_array(), w.to_array()), repr(w)
        assert part == Word(str(w)[2:4], w.alphabet)
