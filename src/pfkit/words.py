"""Immutable bit-packed words over binary/quaternary alphabets.

Words are stored packed (1 bit per symbol for alphabet size 2, 2 bits for
size 4, least-significant-bit first within each byte) with a lazily cached
numpy symbol array for scans.  All values are immutable after construction
and every operation is pure, so words are safe to share between threads.

Indexing convention: all public APIs 0-index, segments are inclusive on
both ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError

__all__ = [
    "Alphabet",
    "BINARY",
    "QUATERNARY",
    "Word",
    "Window",
    "AGREE_ON_RANGE",
    "concat",
    "segment",
    "count",
    "anti_reverse",
    "is_anti_palindrome",
    "factor_set",
    "window_distance",
    "window_codes",
    "anti_reverse_code",
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
        if self.size not in (2, 4):
            raise DomainError(f"alphabet size must be 2 or 4, got {self.size}")

    @property
    def bits(self) -> int:
        return 1 if self.size == 2 else 2


BINARY = Alphabet(2)
QUATERNARY = Alphabet(4)


def _as_alphabet(a) -> Alphabet:
    if isinstance(a, Alphabet):
        return a
    return Alphabet(int(a))


def _pack(arr: np.ndarray, bits: int) -> bytes:
    if arr.size == 0:
        return b""
    if bits == 1:
        return np.packbits(arr, bitorder="little").tobytes()
    pad = (-arr.size) % 4
    if pad:
        arr = np.concatenate([arr, np.zeros(pad, np.uint8)])
    q = arr.reshape(-1, 4).astype(np.uint8)
    return (q[:, 0] | (q[:, 1] << 2) | (q[:, 2] << 4) | (q[:, 3] << 6)).tobytes()


def _unpack(payload: bytes, length: int, bits: int) -> np.ndarray:
    raw = np.frombuffer(payload, dtype=np.uint8)
    if bits == 1:
        out = np.unpackbits(raw, count=length, bitorder="little")
    else:
        out = np.empty(raw.size * 4, dtype=np.uint8)
        for k in range(4):
            out[k::4] = (raw >> (2 * k)) & 3
        out = out[:length]
    out.setflags(write=False)
    return out


class Word:
    """An immutable finite symbol sequence.

    Construct from text (``Word("110")``, ``Word("3121", 4)``), from a
    numpy uint8 array via :meth:`from_array`, or from packed payload bytes
    via :meth:`from_packed`.
    """

    __slots__ = ("alphabet", "length", "payload", "_arr")

    def __init__(self, text: str = "", alphabet=BINARY):
        alphabet = _as_alphabet(alphabet)
        try:
            arr = np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")
        except UnicodeEncodeError:
            raise DomainError(f"word text must be ASCII digits, got {text!r}")
        if arr.size and int(arr.max()) >= alphabet.size:
            raise DomainError(
                f"symbol out of range for alphabet of size {alphabet.size}: {text!r}"
            )
        self._init(alphabet, arr.size, _pack(arr, alphabet.bits), None)

    def _init(self, alphabet, length, payload, arr):
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "_arr", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    @classmethod
    def from_array(cls, arr: np.ndarray, alphabet=BINARY) -> "Word":
        alphabet = _as_alphabet(alphabet)
        arr = np.ascontiguousarray(arr, dtype=np.uint8)
        if arr.size and int(arr.max()) >= alphabet.size:
            raise DomainError("symbol out of range for alphabet")
        w = cls.__new__(cls)
        arr.setflags(write=False)
        w._init(alphabet, arr.size, _pack(arr, alphabet.bits), arr)
        return w

    @classmethod
    def from_packed(cls, payload: bytes, length: int, alphabet=BINARY) -> "Word":
        alphabet = _as_alphabet(alphabet)
        need = (length * alphabet.bits + 7) // 8
        if len(payload) != need:
            raise DomainError(
                f"payload has {len(payload)} bytes, expected {need} for length {length}"
            )
        arr = _unpack(payload, length, alphabet.bits)
        # repack so that padding bits are canonically zero (hash/eq rely on it)
        w = cls.__new__(cls)
        w._init(alphabet, length, _pack(arr, alphabet.bits), arr)
        return w

    def to_array(self) -> np.ndarray:
        """Read-only uint8 symbol array (cached)."""
        if self._arr is None:
            object.__setattr__(self, "_arr", _unpack(self.payload, self.length, self.alphabet.bits))
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
            and self.length == other.length
            and self.payload == other.payload
        )

    def __hash__(self) -> int:
        return hash((self.alphabet.size, self.length, self.payload))


def concat(a: Word, b: Word) -> Word:
    """Concatenation; both words must share one alphabet."""
    if a.alphabet != b.alphabet:
        raise DomainError("cannot concatenate words over different alphabets")
    if a.length == 0:
        return b
    if b.length == 0:
        return a
    return Word.from_array(np.concatenate([a.to_array(), b.to_array()]), a.alphabet)


def segment(w: Word, k: int, l: int) -> Word:
    """The inclusive segment w[k..l], 0-indexed; bounds must satisfy
    0 <= k <= l < len(w)."""
    if not (0 <= k <= l < w.length):
        raise DomainError(
            f"segment bounds [{k},{l}] out of range for word of length {w.length}"
        )
    return Word.from_array(w.to_array()[k : l + 1], w.alphabet)


def _as_symbol(a, alphabet: Alphabet) -> int:
    if isinstance(a, str):
        if len(a) != 1 or not a.isdigit():
            raise DomainError(f"bad symbol {a!r}")
        a = int(a)
    a = int(a)
    if not 0 <= a < alphabet.size:
        raise DomainError(f"symbol {a} invalid for alphabet of size {alphabet.size}")
    return a


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
    return Word.from_array((1 - v.to_array())[::-1], BINARY)


def is_anti_palindrome(v: Word) -> bool:
    """True iff v equals its anti-reversal.  Always false for odd length."""
    if v.alphabet.size != 2:
        raise DomainError("anti-palindromes are defined only on the binary alphabet")
    if v.length % 2 == 1:
        return False
    return v == anti_reverse(v)


def window_codes(arr: np.ndarray, n: int, bits: int = 1) -> np.ndarray:
    """Integer codes of all length-n windows of a symbol array.

    Position j of a window contributes ``symbol << (bits*j)``, so the first
    symbol sits in the least significant bits.  Requires n*bits <= 62.
    """
    if n * bits > 62:
        raise DomainError(f"window length {n} too large for integer coding")
    m = arr.size - n + 1
    if m <= 0:
        return np.empty(0, dtype=np.int64)
    codes = np.zeros(m, dtype=np.int64)
    for j in range(n):
        codes |= arr[j : j + m].astype(np.int64) << (bits * j)
    return codes


def anti_reverse_code(code: int, n: int) -> int:
    """Anti-reversal on a length-n binary window code (see window_codes)."""
    r = 0
    for j in range(n):
        r |= ((code >> j) & 1) << (n - 1 - j)
    return r ^ ((1 << n) - 1)


def code_to_word(code: int, n: int, alphabet: Alphabet = BINARY) -> Word:
    bits, mask = alphabet.bits, alphabet.size - 1
    arr = np.array([(code >> (bits * j)) & mask for j in range(n)], dtype=np.uint8)
    return Word.from_array(arr, alphabet)


def factor_set(w: Word, n: int) -> set:
    """All distinct length-n contiguous segments of ``w``.

    Empty set when n > len(w); n == 0 is rejected (the empty factor
    carries no information).
    """
    if n <= 0:
        raise DomainError("factor length must be positive")
    if n > w.length:
        return set()
    bits = w.alphabet.bits
    if n * bits <= 62:
        codes = np.unique(window_codes(w.to_array(), n, bits))
        return {code_to_word(int(c), n, w.alphabet) for c in codes}
    # long windows: fall back to hashing raw symbol slices
    raw = w.to_array().tobytes()
    seen = {raw[i : i + n] for i in range(w.length - n + 1)}
    return {Word.from_array(np.frombuffer(s, dtype=np.uint8), w.alphabet) for s in seen}


@dataclass(frozen=True)
class Window:
    """A finite view of a bi-infinite sequence: ``word`` placed so that its
    first symbol sits at ambient index ``origin`` (may be negative)."""

    word: Word
    origin: int

    def covers(self, j: int) -> bool:
        return self.origin <= j < self.origin + self.word.length

    def slot(self, j: int) -> int:
        if not self.covers(j):
            raise DomainError(f"slot {j} not covered by window")
        return self.word[j - self.origin]

    @property
    def last(self) -> int:
        return self.origin + self.word.length - 1


class _AgreeOnRange:
    """Sentinel: the two windows agree everywhere on the shared range.
    Distinct from distance 0, which a finite window can never certify."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "agree-on-range"


AGREE_ON_RANGE = _AgreeOnRange()


def window_distance(x: Window, y: Window):
    """Cylinder metric on symmetric windows.

    Both windows must cover exactly the same symmetric range [-K, K].
    Returns Fraction(1, 2**n) with n the least k >= 0 such that the windows
    disagree at slot k or -k, or AGREE_ON_RANGE when there is no
    disagreement on the whole range.
    """
    for w in (x, y):
        if w.origin > 0 or w.last != -w.origin:
            raise DomainError("window does not cover a symmetric range [-K, K]")
    if x.origin != y.origin:
        raise DomainError("windows cover mismatched symmetric ranges")
    k_max = -x.origin
    a, b = x.word.to_array(), y.word.to_array()
    for k in range(k_max + 1):
        if a[k_max + k] != b[k_max + k] or a[k_max - k] != b[k_max - k]:
            return Fraction(1, 2**k)
    return AGREE_ON_RANGE


# ---------------------------------------------------------------------------
# PFW1 binary format: 4 magic bytes "PFW1", 1 version byte, 1 alphabet-size
# byte, 8-byte little-endian symbol count, then the packed payload.

_PFW_MAGIC = b"PFW1"
_PFW_VERSION = 1
_PFW_HEADER_LEN = 14


def to_pfw_bytes(w: Word) -> bytes:
    header = _PFW_MAGIC + bytes([_PFW_VERSION, w.alphabet.size])
    return header + w.length.to_bytes(8, "little") + w.payload


def from_pfw_bytes(data: bytes) -> Word:
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
    payload = data[_PFW_HEADER_LEN:]
    need = (length * alphabet.bits + 7) // 8
    if len(payload) != need:
        raise DomainError(f"payload size {len(payload)} != expected {need}")
    return Word.from_packed(payload, length, alphabet)


def write_pfw(w: Word, path) -> None:
    with open(path, "wb") as fh:
        fh.write(to_pfw_bytes(w))


def read_pfw(path) -> Word:
    with open(path, "rb") as fh:
        return from_pfw_bytes(fh.read())
