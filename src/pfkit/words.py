"""Immutable words over binary/quaternary alphabets.

A word holds one read-only numpy uint8 array, one symbol a byte, which
every scan reads directly; :class:`Word` states who owns it.  Words are
packed (1 bit per symbol for alphabet size 2, 2 bits for size 4,
least-significant-bit first within each byte) only for the PFW format
and for ``word_code``; the PFW encoder copies the packed array once,
behind its header, and the decoder unpacks once.  All values are
immutable after construction and every operation is pure, so words are
safe to share between threads.

Factor languages have one engine, :class:`FactorIndex`: one chunked,
sorted pass over a symbol array keeps the distinct codes of its windows of
width W, and the factor codes of every shorter length, and their
saturation against a reference prefix, are masks of those codes.  W is
the widest width whose codes fit in uint32 (32 // bits symbols) until a
request reaches past it; then one int64 pass codes every codable length,
MAX_CODE_BITS // bits symbols.  Each reader bounds its own lengths.
The few windows near the array's end that the width-W windows miss are
coded once per pass, zero-padded to width W, so every length is read off
codes made in the pass.  ``window_codes`` codes one length from scratch;
it stays as the direct formulation for single scans and is the index's
test oracle.  ``anti_reverse_codes`` anti-reverses an array of binary
codes at once, through a table of reversed bytes; the closure check
looks its output up in the factor codes, and ``anti_palindrome_codes``,
the one anti-palindrome filter over factor codes, keeps the codes it
fixes: the census counts through it and the freeness certificate takes
its examples from it.

Indexing convention: all public APIs 0-index, segments are inclusive on
both ends.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, integer

__all__ = [
    "Alphabet",
    "BINARY",
    "QUATERNARY",
    "Word",
    "concat",
    "segment",
    "count",
    "anti_reverse",
    "is_anti_palindrome",
    "factor_set",
    "MAX_CODE_BITS",
    "window_codes",
    "word_code",
    "FactorIndex",
    "anti_reverse_codes",
    "anti_palindrome_codes",
    "to_pfw_bytes",
    "from_pfw_bytes",
    "write_pfw",
    "read_pfw",
]


@dataclass(frozen=True)
class Alphabet:
    """A symbol set {0, .., size-1}, rendered as characters '0'..'3'."""

    size: int

    def __post_init__(self):
        size = integer(self.size, "alphabet size")
        if size not in (2, 4):
            raise DomainError(f"alphabet size must be 2 or 4, got {size}")
        object.__setattr__(self, "size", size)

    @property
    def bits(self) -> int:
        return 1 if self.size == 2 else 2


BINARY = Alphabet(2)
QUATERNARY = Alphabet(4)


def _as_alphabet(a) -> Alphabet:
    return a if isinstance(a, Alphabet) else Alphabet(a)


def _pack(arr: np.ndarray, bits: int) -> memoryview:
    """The packed symbols, a view of a fresh uint8 array that equals their
    bytes: the PFW encoder joins it to its header, so that the payload is
    copied once, and ``Word.payload`` copies it to ``bytes``."""
    if bits == 1:
        return memoryview(np.packbits(arr, bitorder="little"))
    # four symbols a byte, filled in place from the whole groups by
    # Horner's rule; the last partial group is packed on its own
    whole = arr.size // 4 * 4
    out = np.empty((arr.size + 3) // 4, dtype=np.uint8)
    body, q = out[: whole // 4], arr[:whole].reshape(-1, 4)
    body[:] = q[:, 3]
    for k in (2, 1, 0):
        body <<= 2
        body |= q[:, k]
    if whole < arr.size:
        out[-1] = sum(int(s) << (2 * k) for k, s in enumerate(arr[whole:]))
    return memoryview(out)


def _unpack(payload: bytes, length: int, bits: int) -> np.ndarray:
    raw = np.frombuffer(payload, dtype=np.uint8)
    if bits == 1:
        return _frozen(np.unpackbits(raw, count=length, bitorder="little"))
    out = np.empty(raw.size * 4, dtype=np.uint8)
    for k in range(4):
        out[k::4] = (raw >> (2 * k)) & 3
    return _frozen(out)[:length]


_EQ_CHUNK = 1 << 18  # symbols per step of same_symbols; its temporary takes 256 KiB


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr``, an array its producer made, made read-only so that a Word
    can keep it (see Word)."""
    arr.setflags(write=False)
    return arr


def same_symbols(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two symbol arrays are equal, compared a chunk at a time so
    that no temporary of their size is made."""
    return a.size == b.size and all(
        np.array_equal(a[i : i + _EQ_CHUNK], b[i : i + _EQ_CHUNK])
        for i in range(0, a.size, _EQ_CHUNK)
    )


class Word:
    """An immutable finite symbol sequence over one read-only uint8 array.

    Construct from text (``Word("110")``, ``Word("3121", 4)``), from an
    array of symbols via :meth:`from_array`, or from packed payload bytes
    via :meth:`from_packed`.  All three end in the core constructor
    ``_of``.  Who owns the symbols: pfkit's producers hand arrays they
    froze themselves (``_frozen``) to ``_of``, and every other array goes
    through ``from_array``, which validates it and keeps exactly one fresh
    read-only copy, so that no later write can change a word.
    """

    __slots__ = ("alphabet", "length", "_arr")

    def __new__(cls, text: str = "", alphabet=BINARY):
        if not isinstance(text, str):
            raise DomainError(f"word text must be a str, not {type(text).__name__}")
        try:
            arr = np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")
        except UnicodeEncodeError:
            raise DomainError(f"word text must be ASCII digits, got {text!r}")
        alphabet = _as_alphabet(alphabet)
        if arr.size and int(arr.max()) >= alphabet.size:
            raise DomainError(f"symbol out of range for alphabet of size {alphabet.size}")
        return cls._of(_frozen(arr), alphabet)

    @classmethod
    def _of(cls, arr: np.ndarray, alphabet: Alphabet) -> "Word":
        """The word over ``arr`` as it is, unchecked: a 1-D contiguous
        uint8 array, frozen by its producer and read-only down to its
        base, whose symbols lie in ``alphabet``."""
        w = object.__new__(cls)
        object.__setattr__(w, "alphabet", alphabet)
        object.__setattr__(w, "length", arr.size)
        object.__setattr__(w, "_arr", arr)
        return w

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    @classmethod
    def from_array(cls, arr: np.ndarray, alphabet=BINARY) -> "Word":
        """The word of a 1-D array of bool or integer symbols, each checked
        to lie in the alphabet before it becomes uint8; else DomainError."""
        alphabet = _as_alphabet(alphabet)
        given = np.asarray(arr)
        if given.ndim != 1:
            raise DomainError(f"symbols must form a 1-D array, not {given.ndim}-D")
        if given.size:  # an empty list is float64 to numpy
            if given.dtype.kind not in "biu":
                raise DomainError(f"symbols must be bool or integer, not {given.dtype}")
            if int(given.max()) >= alphabet.size or (given.dtype.kind == "i" and int(given.min()) < 0):
                raise DomainError(f"symbol out of range for alphabet of size {alphabet.size}")
        return cls._of(_frozen(np.array(given, dtype=np.uint8)), alphabet)

    @classmethod
    def from_packed(cls, payload: bytes, length: int, alphabet=BINARY) -> "Word":
        """The word of ``length`` symbols packed in ``payload``; padding
        bits past the last symbol are ignored."""
        alphabet = _as_alphabet(alphabet)
        length = integer(length, "length", lo=0)
        need = (length * alphabet.bits + 7) // 8
        if len(payload) != need:
            raise DomainError(
                f"payload has {len(payload)} bytes, expected {need} for length {length}"
            )
        return cls._of(_unpack(payload, length, alphabet.bits), alphabet)

    @property
    def payload(self) -> bytes:
        """The packed symbols, with zero padding bits, packed on each read."""
        return _pack(self._arr, self.alphabet.bits).tobytes()

    def to_array(self) -> np.ndarray:
        """The read-only uint8 symbol array."""
        return self._arr

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(f"index {i} out of range for word of length {self.length}")
        return int(self.to_array()[i])

    def __str__(self) -> str:
        return (self.to_array() + ord("0")).tobytes().decode("ascii")

    def __repr__(self) -> str:
        head = (self.to_array()[:40] + ord("0")).tobytes().decode("ascii")
        if self.length > 40:
            head = head[:37] + "..."
        return f"Word({head!r}, alphabet={self.alphabet.size}, length={self.length})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Word)
            and self.alphabet == other.alphabet
            and same_symbols(self._arr, other._arr)
        )

    def __hash__(self) -> int:
        return hash((self.alphabet.size, self._arr.tobytes()))


def concat(a: Word, b: Word) -> Word:
    """Concatenation; both words must share one alphabet."""
    if a.alphabet != b.alphabet:
        raise DomainError("cannot concatenate words over different alphabets")
    if a.length == 0:
        return b
    if b.length == 0:
        return a
    return Word._of(_frozen(np.concatenate([a.to_array(), b.to_array()])), a.alphabet)


def segment(w: Word, k: int, l: int) -> Word:
    """The inclusive segment w[k..l], 0-indexed; bounds must satisfy
    0 <= k <= l < len(w)."""
    k, l = integer(k, "k"), integer(l, "l")
    if not (0 <= k <= l < w.length):
        raise DomainError(
            f"segment bounds [{k},{l}] out of range for word of length {w.length}"
        )
    return Word._of(w.to_array()[k : l + 1], w.alphabet)


def _as_symbol(a, alphabet: Alphabet) -> int:
    """A symbol of ``alphabet`` given as an integer, or as one digit of
    text, the only str that is a symbol."""
    if isinstance(a, str) and len(a) == 1 and "0" <= a <= "9":
        a = ord(a) - ord("0")
    return integer(a, "symbol", lo=0, hi=alphabet.size - 1)


def count(w: Word, a) -> int:
    """Number of occurrences of symbol ``a`` in ``w``."""
    a = _as_symbol(a, w.alphabet)
    if w.length == 0:
        return 0
    return int(np.count_nonzero(w.to_array() == a))


def anti_reverse(v: Word) -> Word:
    """Reverse the word and swap 0 <-> 1.  Binary words only."""
    if v.alphabet.size != 2:
        raise DomainError("anti-reversal is defined only on the binary alphabet")
    if v.length == 0:
        return v
    return Word._of(_frozen(1 - v.to_array()[::-1]), BINARY)


def is_anti_palindrome(v: Word) -> bool:
    """True iff v equals its anti-reversal.  Always false for odd length."""
    if v.alphabet.size != 2:
        raise DomainError("anti-palindromes are defined only on the binary alphabet")
    if v.length % 2 == 1:
        return False
    return v == anti_reverse(v)


MAX_CODE_BITS = 62  # a window code is a non-negative int64


def window_codes(arr: np.ndarray, n: int, bits: int = 1) -> np.ndarray:
    """Integer codes of all length-n windows of a symbol array.

    Position j of a window contributes ``symbol << (bits*j)``, so the first
    symbol sits in the least significant bits.  Requires bits in {1, 2}
    and 1 <= n <= MAX_CODE_BITS // bits.  The codes are uint8 when
    n*bits <= 8 and int64 otherwise.  They are built in place by Horner's
    rule, last symbol first, so no slice of ``arr`` is copied to the code
    type.
    """
    bits = integer(bits, "bits", lo=1, hi=2)
    n = integer(n, "window length", lo=1, hi=MAX_CODE_BITS // bits)
    dtype = np.uint8 if n * bits <= 8 else np.int64
    m = arr.size - n + 1
    if m <= 0:
        return np.empty(0, dtype=dtype)
    codes = np.zeros(m, dtype=dtype)
    for j in reversed(range(n)):
        codes <<= bits
        codes |= arr[j : j + m]
    return codes


def word_code(v: Word) -> int:
    """The window code of the whole word (see window_codes): the packed
    payload, least significant byte first, is exactly that integer."""
    return int.from_bytes(v.payload, "little")


_CHUNK = 1 << 16  # windows per step of the build; its two buffers take at most 1 MiB


def _distinct(codes: np.ndarray) -> np.ndarray:
    """The distinct values of ``codes``, ascending; sorts ``codes`` in place."""
    codes.sort()
    keep = np.empty(codes.size, dtype=bool)
    keep[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return codes[keep]


class FactorIndex:
    """The factor codes of every codable length of one symbol array, from
    one sorted pass over its windows of width W, as wide as its requests
    have reached.

    ``codes(n)`` and ``saturated(n)`` accept 1 <= n <= MAX_CODE_BITS //
    bits; each reader bounds its own lengths below that.  Every factor of
    length n <= W <= len(arr) is a prefix of a length-W window, or a
    window of the last W - 1 symbols.  Since a window's first symbol sits
    in the low bits (see window_codes), a prefix's code is a mask of the
    window's code.  So the index keeps only the distinct length-W window
    codes, sorted: those of every start, and those of the starts whose
    windows lie inside the first ``ref_len`` symbols (default: all of
    them).  Length n's codes are the first set masked to n symbols plus the
    windows of the last W - 1 symbols; ``saturated(n)`` compares them with
    the same formula over the reference windows and the last W - 1 symbols
    before ``ref_len``.  The windows of those last symbols are coded in the
    pass (see _tail), so a length codes no window again.  A length past the
    array has no factors and is saturated.

    The pass runs on the first request, under a lock, at the widest width
    whose codes fit in uint32, min(32 // bits, len(arr)), where numpy
    sorts them about twice as fast as int64.  A later request past that
    width runs it once more at the full width, min(MAX_CODE_BITS // bits,
    len(arr)), in int64; the lengths already read keep their sets, which
    do not depend on W.  A pass codes the length-W windows ``_CHUNK``
    starts at a time, doubling the width in place, then sorts each chunk
    and drops its duplicates; only the distinct codes outlive a chunk, so
    nothing of the array's size is kept.  Each length's set and saturation
    are cached on first request.
    """

    def __init__(self, arr: np.ndarray, bits: int, ref_len: int | None = None):
        self._arr = arr
        self._bits = bits = integer(bits, "bits", lo=1, hi=2)
        self._ref_len = arr.size if ref_len is None else integer(ref_len, "ref_len", lo=0, hi=arr.size)
        self._longest = MAX_CODE_BITS // bits
        self._width = 0  # W, the width built so far
        self._every = self._ref = None  # distinct length-W window codes
        self._every_tail = self._ref_tail = None  # see _tail
        self._codes: dict[int, frozenset] = {}
        self._saturated: dict[int, bool] = {}
        self._lock = threading.Lock()

    def codes(self, n: int) -> frozenset:
        """The set of codes of the length-n factors, frozen, since every
        reader of the index gets the same set."""
        if not 1 <= n <= self._longest:
            raise DomainError(f"window length {n} outside 1..{self._longest} for this index")
        with self._lock:
            if n not in self._codes:
                if self._every is None or self._width < n <= self._arr.size:
                    full = min(self._longest, self._arr.size)
                    narrow = min(full, 32 // self._bits)
                    self._build(narrow if n <= narrow else full)
                self._codes[n] = self._masked(self._every, self._every_tail, n)
            return self._codes[n]

    def saturated(self, n: int) -> bool:
        """Whether the reference prefix has every length-n factor."""
        full = self.codes(n)
        with self._lock:
            if n not in self._saturated:
                self._saturated[n] = self._masked(self._ref, self._ref_tail, n) == full
            return self._saturated[n]

    def _masked(self, windows: np.ndarray, tail: np.ndarray, n: int) -> frozenset:
        """Codes of the length-n windows of a prefix arr[:end], given the
        distinct codes of its length-W windows and the codes of the
        windows that start in its last W - 1 symbols (see _tail)."""
        if n > self._width:
            return frozenset()
        mask = (1 << (self._bits * n)) - 1
        tail = tail[: max(tail.size - n + 1, 0)]
        return frozenset((windows & mask).tolist() + (tail & mask).tolist())

    def _tail(self, end: int, dtype) -> np.ndarray:
        """The codes of the windows that start in the last W - 1 symbols
        before ``end``, zero-padded to width W: start k of L holds the
        L - k symbols up to ``end``, so the first L - n + 1 of them are
        the length-n windows there."""
        width = self._width
        size = min(max(width - 1, 0), end)
        if not size:
            return np.empty(0, dtype=dtype)
        buf = np.zeros(size + width - 1, dtype=dtype)
        buf[:size] = self._arr[end - size : end]
        _widen(buf, buf.size, width, self._bits, np.empty_like(buf))
        return buf[:size]

    def _build(self, width: int) -> None:
        arr, bits = self._arr, self._bits
        m = arr.size - width + 1 if width else 0  # length-W windows
        m_ref = self._ref_len - width + 1  # those inside the reference prefix
        dtype = np.uint32 if bits * width <= 32 else np.int64
        ref = every = np.empty(0, dtype=dtype)
        buf = np.empty(min(m, _CHUNK) + max(width - 1, 0), dtype=dtype)
        shifted = np.empty_like(buf)
        for a in range(0, m, _CHUNK):
            count = min(_CHUNK, m - a)
            span = count + width - 1
            buf[:span] = arr[a : a + span]
            _widen(buf, span, width, bits, shifted)
            k = min(max(m_ref - a, 0), count)
            inside, rest = _distinct(buf[:k]), _distinct(buf[k:count])
            ref = _distinct(np.concatenate((ref, inside)))
            every = _distinct(np.concatenate((every, inside, rest)))
        self._ref, self._every, self._width = ref, every, width
        self._every_tail = self._tail(arr.size, dtype)
        self._ref_tail = self._tail(self._ref_len, dtype)


def _widen(buf: np.ndarray, span: int, width: int, bits: int, shifted: np.ndarray) -> None:
    """Turn the ``span`` symbols at the head of ``buf`` into the codes of
    their length-``width`` windows in place, by doubling the width: the
    first span - width + 1 entries end up holding the codes."""
    # width w -> w + s: the window at i + s holds the s symbols that follow
    # the window at i, and the w - s it shares with it agree
    w = 1
    while w < width:
        s = min(w, width - w)
        valid = span - w - s + 1
        np.left_shift(buf[s : s + valid], bits * s, out=shifted[:valid])
        np.bitwise_or(buf[:valid], shifted[:valid], out=buf[:valid])
        w += s


# the bit reversal of every byte, for anti_reverse_codes
_REVERSED_BYTES = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint64)


def anti_reverse_codes(codes, n: int) -> np.ndarray:
    """Anti-reversal of length-n binary window codes (see window_codes),
    1 <= n <= MAX_CODE_BITS, as an int64 array: the code's n bits reversed
    a byte at a time through a table, then complemented.  The reversal
    runs in uint64, since an int64 right shift would carry the sign."""
    n = integer(n, "window length", lo=1, hi=MAX_CODE_BITS)
    codes = np.asarray(codes).astype(np.uint64)
    width = -(-n // 8)  # bytes holding the n bits
    # Horner's rule over the bytes, lowest first: its reversal ends highest
    out = _REVERSED_BYTES[codes & 0xFF]
    for k in range(1, width):
        out <<= 8
        out |= _REVERSED_BYTES[(codes >> 8 * k) & 0xFF]
    out >>= 8 * width - n
    out ^= (1 << n) - 1
    return out.view(np.int64)


def anti_palindrome_codes(codes, n: int) -> list:
    """The anti-palindromes among length-n binary window codes, ascending."""
    n = integer(n, "window length", lo=1, hi=MAX_CODE_BITS)
    codes = np.fromiter(codes, dtype=np.int64, count=len(codes))
    return sorted(codes[codes == anti_reverse_codes(codes, n)].tolist())


def code_to_word(code: int, n: int, alphabet: Alphabet = BINARY) -> Word:
    """The length-n word whose word_code is ``code``: its bytes, least
    significant first, are the packed payload."""
    return Word.from_packed(code.to_bytes(-(-n * alphabet.bits // 8), "little"), n, alphabet)


def factor_set(w: Word, n: int) -> set:
    """All distinct length-n contiguous segments of ``w``.

    Empty set when n > len(w); n == 0 is rejected (the empty factor
    carries no information).
    """
    n = integer(n, "factor length", lo=1)
    if n > w.length:
        return set()
    bits = w.alphabet.bits
    if n * bits <= MAX_CODE_BITS:
        codes = FactorIndex(w.to_array(), bits).codes(n)
        return {code_to_word(c, n, w.alphabet) for c in codes}
    # long windows: fall back to hashing raw symbol slices; a view of
    # immutable bytes is read-only down to its base, so a Word keeps it
    raw = w.to_array().tobytes()
    seen = {raw[i : i + n] for i in range(w.length - n + 1)}
    return {Word._of(np.frombuffer(s, dtype=np.uint8), w.alphabet) for s in seen}


# ---------------------------------------------------------------------------
# PFW1 binary format: 4 magic bytes "PFW1", 1 version byte, 1 alphabet-size
# byte, 8-byte little-endian symbol count, then the packed payload.

_PFW_MAGIC = b"PFW1"
_PFW_VERSION = 1
_PFW_HEADER_LEN = 14


def to_pfw_bytes(w: Word) -> bytes:
    """The header, then the payload, copied once from the packed array."""
    header = _PFW_MAGIC + bytes([_PFW_VERSION, w.alphabet.size]) + w.length.to_bytes(8, "little")
    return b"".join((header, _pack(w.to_array(), w.alphabet.bits)))


def from_pfw_bytes(data: bytes) -> Word:
    """The word a PFW1 stream holds.  DomainError for a bad magic, a
    header shorter than 14 bytes, a version other than 1, an
    alphabet-size byte other than 2 or 4, and a payload whose length
    disagrees with the symbol count in the header."""
    if data[:4] != _PFW_MAGIC:
        raise DomainError("not a PFW1 stream (bad magic)")
    if len(data) < _PFW_HEADER_LEN:
        raise DomainError(f"PFW header truncated at {len(data)} of {_PFW_HEADER_LEN} bytes")
    if data[4] != _PFW_VERSION:
        raise DomainError(f"unsupported PFW version {data[4]}")
    size = data[5]
    if size not in (2, 4):
        raise DomainError(f"bad alphabet-size byte {size}")
    alphabet = Alphabet(size)
    length = int.from_bytes(data[6:_PFW_HEADER_LEN], "little")
    return Word.from_packed(memoryview(data)[_PFW_HEADER_LEN:], length, alphabet)


def write_pfw(w: Word, path) -> None:
    """Write ``w`` to the file at ``path`` as a PFW1 stream."""
    with open(path, "wb") as fh:
        fh.write(to_pfw_bytes(w))


def read_pfw(path) -> Word:
    """The word in the PFW1 file at ``path`` (see from_pfw_bytes)."""
    with open(path, "rb") as fh:
        return from_pfw_bytes(fh.read())
