"""The paper-folding word: generation and combinatorial verification.

The generations are t(0) = "1", t(n+1) = t(n) + "1" + anti_reverse(t(n)),
so |t(n)| = 2^(n+1) - 1 and each generation is a prefix of the next.  The
module keeps one growing prefix array as a cache, filled forward by the
interleaving identity t[2j] = 1 - (j mod 2), t[2j+1] = t[j]; words handed
out are read-only views into it.  With the cache it keeps the factor index
of each generation read so far (generation_index), over the cache's
symbols, and drops them when the cache grows.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, integer
from .report import Check, CheckReport
from .words import BINARY, MAX_CODE_BITS, FactorIndex, Word, anti_palindrome_codes
from .words import window_codes  # noqa: F401 - perfbench/spans.py times this name here

__all__ = [
    "T_REFERENCE",
    "MAX_GENERATION",
    "MAX_PREFIX_LEN",
    "MAX_SCAN_GENERATION",
    "pf_word",
    "pf_prefix",
    "verify_generation_fidelity",
    "verify_self_similarity",
    "CensusResult",
    "antipalindrome_census",
    "language_generation",
    "generation_index",
    "symbol",
    "verify_recurrence",
    "verify_recurrence_blocks",
    "check_aperiodic",
    "verify_aperiodicity_witness",
]

# the first six generations, used by the generation-fidelity check
T_REFERENCE = (
    "1",
    "110",
    "1101100",
    "110110011100100",
    "1101100111001001110110001100100",
    "110110011100100111011000110010011101100111001000110110001100100",
)

MAX_GENERATION = 30  # 2^31 - 1 symbols; anything larger is not desk-scale
MAX_PREFIX_LEN = 2 ** (MAX_GENERATION + 1) - 1
# the longest generation a scan check reads: 2^25 - 1 symbols
# (self-similarity, recurrence, dimgroup's discrepancy growth)
MAX_SCAN_GENERATION = 24

_prefix_cache = np.array([1], dtype=np.uint8)
_prefix_cache.setflags(write=False)
_prefix_lock = threading.Lock()
# generation -> (its symbols, its FactorIndex), over _prefix_cache only;
# replaced by an empty dict whenever the cache grows (see generation_index)
_generation_indexes: dict = {}


def _prefix_array(length: int) -> np.ndarray:
    """First ``length`` symbols of the infinite word, growing the cache
    to the least generation that covers them.  The cache is read-only, so
    no caller can change the symbols that later callers read; growth
    fills a new array, so views of the old one stay as they were.

    Each new half m .. 2m of t(k+1) = t(k) 1 anti(t(k)), m = |t(k)|, is
    filled forward by the interleaving identity t[2j] = 1 - (j mod 2),
    t[2j+1] = t[j] (Allouche & Shallit, Automatic Sequences, 2003): its
    odd slots are one strided copy of t[(m - 1) / 2 .. m - 1], and its
    even slots alternate between two constants.  Growth runs under a
    lock, so two threads never fill from, or replace, each other's
    array, and it drops the generation indexes over the old array after
    the new one is in place."""
    global _prefix_cache, _generation_indexes
    cache = _prefix_cache
    if cache.size < length:
        with _prefix_lock:
            cache = _prefix_cache  # another thread may have grown it
            m = cache.size
            if m < length:
                size = m
                while size < length:
                    size = 2 * size + 1
                out = np.empty(size, dtype=np.uint8)
                out[:m] = cache
                while m < size:
                    out[m : 2 * m + 1 : 2] = out[(m - 1) // 2 : m]
                    first = 1 - (m + 1) // 2 % 2  # t[m + 1], at j = (m + 1) / 2
                    out[m + 1 : 2 * m + 1 : 4] = first
                    out[m + 3 : 2 * m + 1 : 4] = 1 - first
                    m = 2 * m + 1
                out.setflags(write=False)
                _prefix_cache = cache = out
                _generation_indexes = {}
    return cache[:length]


def symbol(i: int) -> int:
    """Symbol i of the infinite word by the positional rule: t[i] = 1 iff
    the odd part of i + 1 is 1 mod 4.  It is the interleaving identity
    t[2j] = 1 - (j mod 2), t[2j+1] = t[j], by which _prefix_array fills
    the word, unrolled: the odd steps drop the trailing ones of i, and the
    even step reads the bit above them.  The suite's proofs about the
    word evaluate it; it reads no array."""
    k = integer(i, "index", lo=0) + 1
    return int(k // (k & -k) % 4 == 1)


def pf_word(n: int) -> Word:
    """Generation n of the paper-folding word, of length 2^(n+1) - 1."""
    n = integer(n, "generation", lo=0, cap=MAX_GENERATION)
    return Word._of(_prefix_array(2 ** (n + 1) - 1), BINARY)


def pf_prefix(L: int) -> Word:
    """First L symbols of the infinite paper-folding word."""
    L = integer(L, "prefix length", lo=0, cap=MAX_PREFIX_LEN)
    return Word._of(_prefix_array(L), BINARY)


def verify_generation_fidelity() -> CheckReport:
    """Compare the generated generations 0..5 against the stored reference
    strings.  Flipping one symbol of a reference is the standard mutation
    control for the whole suite."""
    chk = Check("paperfold.generation-fidelity", {"n_max": len(T_REFERENCE) - 1},
                "generations 0..5 equal their reference strings")
    for n, ref in enumerate(T_REFERENCE):
        got = str(pf_word(n))
        if got != ref:
            mismatch = next(i for i, (a, b) in enumerate(zip(got, ref)) if a != b)
            return chk.failed({"generation": n, "first_mismatch": mismatch})
    return chk.passed()


def verify_self_similarity(p: int, n: int) -> CheckReport:
    """Check the interleaving identity: generation p+n+1 equals the blocks
    t(p), anti(t(p)) alternating, separated by the successive letters of
    t(n).  Reports the first mismatch position on failure.  Generation
    p+n+1 is capped at MAX_SCAN_GENERATION."""
    p, n = integer(p, "p", lo=0), integer(n, "n", lo=0)
    integer(p + n + 1, "self-similarity generation", cap=MAX_SCAN_GENERATION)
    chk = Check("paperfold.self-similarity", {"p": p, "n": n},
                "block interleaving identity for generation p+n+1")
    block = _prefix_array(2 ** (p + 1) - 1)
    anti_block = (1 - block)[::-1]
    letters = _prefix_array(2 ** (n + 1) - 1)
    B = 2 ** (p + 1)  # block length plus one separator letter
    rows = 2 ** (n + 1)
    buf = np.empty((rows, B), dtype=np.uint8)
    buf[0::2, : B - 1] = block
    buf[1::2, : B - 1] = anti_block
    buf[:-1, B - 1] = letters
    buf[-1, B - 1] = 0  # padding slot, trimmed below
    expected = buf.ravel()[: rows * B - 1]
    actual = _prefix_array(2 ** (p + n + 2) - 1)
    if expected.size == actual.size and np.array_equal(expected, actual):
        return chk.passed()
    diff = np.nonzero(expected != actual)[0]
    return chk.failed({"first_mismatch": int(diff[0]) if diff.size else None})


@dataclass(frozen=True)
class CensusResult:
    """Counts of distinct anti-palindromic factors per even length, in
    ascending order of length, the order a report lists them in.

    ``saturated`` records whether the factor sets at every censused length
    agree between the source generation and the previous one; only a
    saturated census speaks for the whole language.
    """

    max_length_checked: int
    counts: dict
    saturated: bool

    def __post_init__(self):
        if self.max_length_checked % 2 != 0:
            raise DomainError("census max length must be even")
        if any(k % 2 != 0 for k in self.counts):
            raise DomainError("census counts keys must be even")
        object.__setattr__(self, "counts", dict(sorted(self.counts.items())))

    @classmethod
    def of(cls, codes, saturated, max_len: int) -> "CensusResult":
        """The census of a factor language at every even length up to
        ``max_len``, given ``codes(ell)``, the set of its length-ell factor
        codes, and ``saturated(ell)``."""
        lengths = range(2, max_len + 1, 2)
        return cls(max_len, {ell: len(anti_palindrome_codes(codes(ell), ell)) for ell in lengths},
                   all(saturated(ell) for ell in lengths))


def antipalindrome_census(generation: int, max_len: int) -> CensusResult:
    """Census the anti-palindromic factors of generation ``generation`` for
    every even length up to ``max_len``.

    Counts and saturation (against generation - 1) come from the
    generation's factor index (generation_index), which closure and
    freeness over the same generation read too."""
    generation = integer(generation, "generation", lo=1, cap=MAX_GENERATION)
    max_len = integer(max_len, "max_len", lo=2, hi=MAX_CODE_BITS)
    if max_len % 2 != 0:
        raise DomainError("max_len must be even")
    if 2 ** (generation + 1) - 1 < 3 * max_len:
        raise DomainError(
            f"generation {generation} too small to census lengths up to {max_len}"
        )
    index = generation_index(generation)
    return CensusResult.of(index.codes, index.saturated, max_len)


def generation_index(generation: int) -> FactorIndex:
    """The factor index of generation ``generation`` with generation - 1
    as its saturation reference, for every codable length: its first
    pass codes windows of 32 symbols in uint32, so it serves every
    caller's lengths up to 32 at once.  The census, closure and freeness
    over one generation read one index; each caller bounds the lengths
    it asks for itself.

    The index is built at most once per array of symbols: it is kept with
    the array that _prefix_array returns, and served only while
    _prefix_array returns that array.  When the cache grows, the indexes
    over the old array go with it (see _prefix_array); an array from
    another source (a patched _prefix_array) gets an index of its own,
    which is not kept.  Two threads may build one generation's index
    twice; neither is served for another array."""
    generation = integer(generation, "generation", lo=1, cap=MAX_GENERATION)
    memo = _generation_indexes  # read before the cache: growth replaces both, cache first
    arr = _prefix_array(2 ** (generation + 1) - 1)
    kept, index = memo.get(generation, (None, None))
    if kept is None or kept.base is not arr.base:
        index = FactorIndex(arr, 1, ref_len=2**generation - 1)
        if arr.base is _prefix_cache:
            memo[generation] = (arr, index)
    return index


def language_generation(n: int) -> int:
    """A generation whose factors of every length <= n are exactly the
    infinite word's, and saturated against the generation before it:
    p + 4 for the least p >= 0 with 2^(p+1) >= n.

    The bridge lemma.  By the interleaving identity, every later
    generation, and so the infinite word, is blocks t(p) and anti(t(p))
    alternating, each followed by one letter.  A window of length
    <= 2^(p+1) meets at most one of those letters, so it lies in a bridge
    t(p) c anti(t(p)) or anti(t(p)) c t(p), c in {0, 1}.  Generation p+3
    is t(2) = 1101100 interleaved with the blocks, and t(2) has both
    letters at even and at odd positions, so it holds all four bridges.
    Generations p+3 and p+4 therefore both have the infinite word's
    factors at every length <= 2^(p+1).  The lemma's premises are the
    interleaving identity at (p, 2), which paperfold.self-similarity
    certifies through its comparison at p = 0 (that identity fixes the
    word up to complement, and so every (p, n) identity within its
    budget), and t(2), which paperfold.generation-fidelity checks.

    Premises: paperfold.generation-fidelity, paperfold.self-similarity."""
    n = integer(n, "factor length", lo=1)
    return max(1, (n - 1).bit_length()) + 3


def _packed(bits: np.ndarray) -> np.ndarray:
    """A 0/1 array as little-endian 64-bit words, bit i of the array at bit
    i % 64 of word i // 64, with zero bits after it and one zero word more."""
    out = np.zeros(-(-bits.size // 64) + 1, dtype="<u8")
    packed = np.packbits(bits, bitorder="little")
    out.view(np.uint8)[: packed.size] = packed
    return out


def _shift_into(x: np.ndarray, s: int, out: np.ndarray) -> np.ndarray:
    """Bit i of ``out`` becomes bit i + s of ``x``, or 0 past the end of
    ``x``: a shift by s // 64 words, then by s % 64 bits across each pair
    of neighbouring words.  ``x`` and ``out`` are distinct packed arrays
    of one size."""
    q, r = divmod(s, 64)
    n = max(x.size - q, 0)
    out[n:] = 0
    if r == 0:
        out[:n] = x[q:]
    elif n:
        np.right_shift(x[q:], r, out=out[:n])
        out[: n - 1] |= x[q + 1 :] << (64 - r)
    return out


def _generation_hits(text: np.ndarray, p: int):
    """The starts 0 .. text.size - |t(p)| of ``text`` where t(p) occurs, as
    a packed bit mask (see ``_packed``) and the number of starts.  Needs
    ``text.size >= |t(p)|``.

    t(k+1) = t(k) 1 anti(t(k)) and anti(t(k+1)) = t(k) 0 anti(t(k)), so
    the masks of t(k+1) and anti(t(k+1)) are the mask of t(k) AND the
    shifted mask of anti(t(k)), split by the symbol between them.  Each
    level works in place in preallocated buffers, so the search takes p
    passes over text.size / 8 bytes however long t(p) is; verify_recurrence
    hands it one block of the prefix at a time, so those bytes stay in
    cache.  Bits past the last start are never read at a start, so they
    are left as they fall."""
    bits = _packed(text)
    hits, anti = bits.copy(), ~bits
    shifted = np.empty_like(bits)
    m = text.size
    for k in range(p):
        lk = 2 ** (k + 1) - 1  # |t(k)|
        m -= lk + 1  # starts of t(k+1)
        hits &= _shift_into(anti, lk + 1, shifted)
        _shift_into(bits, lk, shifted)  # the symbol after t(k)
        # hit AND NOT symbol = hit XOR (hit AND symbol)
        np.bitwise_and(hits, shifted, out=shifted)
        np.bitwise_xor(hits, shifted, out=anti)
        hits, shifted = shifted, hits
    return hits, m


def _first_uncovered(hits: np.ndarray, n: int, span: int):
    """The first start s with no hit among bits s .. s + span - 1 of the
    packed mask ``hits`` of ``n`` starts, or None; there are
    n - span + 1 >= 1 starts.  Overwrites ``hits``.

    The OR over a sliding window is widened in place, at most doubling
    its width per pass, so it takes about log2(span) passes."""
    shifted = np.empty_like(hits)
    width = 1
    while width < span:
        step = min(width, span - width)
        hits |= _shift_into(hits, step, shifted)
        n, width = n - step, width + step
    full, tail = divmod(n, 64)
    if tail:  # the bits past the last start count as covered
        hits[full] |= np.uint64(2**64 - (1 << tail))
        full += 1
    covered = hits[:full] == np.uint64(2**64 - 1)
    if covered.all():
        return None
    i = int(np.argmin(covered))
    word = int(hits[i])
    return 64 * i + (~word & (word + 1)).bit_length() - 1  # its lowest zero bit


# the recurrence scan takes this many window starts per block: its packed
# masks then take 128 KiB each, whatever the prefix length
_RECURRENCE_BLOCK = 1 << 20


def verify_recurrence(p: int, test_generation: int) -> CheckReport:
    """Check that every window of length 3 * 2^(p+1) of the test generation
    contains generation p as a factor.

    Containment of t(p) itself is sufficient for all its subwords, so only
    t(p) is searched for, as its recursion defines it: its occurrences are
    one bit mask, packed 64 starts to a word and built in p in-place
    passes (``_generation_hits``), and a window with none is read from a
    sliding OR over that mask (``_first_uncovered``).  No list or integer
    array of positions is built.  The scan runs over blocks of 2^20 window
    starts in order: the windows that start in [a, b) lie in
    text[a : b + W - 1], and the first block with an uncovered window
    gives the first such window of the whole prefix.  The test generation
    is capped at MAX_SCAN_GENERATION.
    """
    p = integer(p, "p", lo=0)
    test_generation = integer(test_generation, "test generation", cap=MAX_SCAN_GENERATION)
    if test_generation < p + 4:
        raise DomainError("test generation must be at least p + 4")
    W = 3 * 2 ** (p + 1)
    chk = Check("paperfold.recurrence", {"p": p, "test_generation": test_generation, "window": W},
                "every window of length 3*2^(p+1) contains generation p")
    text = _prefix_array(2 ** (test_generation + 1) - 1)
    starts = text.size - W + 1
    for a in range(0, starts, _RECURRENCE_BLOCK):
        b = min(a + _RECURRENCE_BLOCK, starts)
        bad = _first_uncovered(*_generation_hits(text[a : b + W - 1], p), W - 2 ** (p + 1) + 2)
        if bad is not None:
            return chk.failed({"uncovered_window_start": a + bad})
    return chk.passed()


def verify_recurrence_blocks() -> CheckReport:
    """Every window of 3 * 2^(p+1) symbols of the infinite word contains
    generation p, for every p: the lemma behind verify_recurrence.

    Premise: paperfold.self-similarity.

    Let e = 2^(p+1).  By the interleaving identity the word is the blocks
    t(p) and anti(t(p)) alternating, each followed by one letter, so t(p),
    of e - 1 symbols, starts at every multiple of 2e.  By the positional
    rule (symbol) too: t[2ej + r] = t[r] for r < e - 1, since the largest
    power 2^v dividing r + 1 < e leaves 2ej / 2^v a multiple of 4.  A
    window that starts at s holds the block at the least multiple k >= s
    of 2e: k - s <= 2e - 1, so the block ends before s + 3e - 2, 2 symbols
    short of the window's end at every e.  The check reads the block
    positions off symbol at p = 0 and 1: the blocks at j = 1, 2 and 3 are
    t(p)."""
    chk = Check("paperfold.recurrence", {"p": [0, 1], "blocks": [1, 2, 3]},
                "every window of length 3*2^(p+1) contains generation p, for every p: t(p) starts "
                "at every multiple of 2^(p+2), block positions checked at p = 0 and 1")
    for p in (0, 1):
        e = 2 ** (p + 1)
        block = [symbol(r) for r in range(e - 1)]
        for j in (1, 2, 3):
            if [symbol(2 * e * j + r) for r in range(e - 1)] != block:
                return chk.failed({"p": p, "block_start": 2 * e * j})
    return chk.passed()


# the pass path of the aperiodicity scan compares this many symbols past
# the preperiod for every period at once, this many periods per gather
_APERIODIC_BLOCK = 256
_APERIODIC_BATCH = 1024


def _aperiodicity_witness(arr: np.ndarray, max_period: int, preperiod: int):
    """The smallest period rho <= ``max_period`` whose last mismatch
    arr[i + rho] != arr[i] lies before ``preperiod``, with its cut (one
    past that mismatch, 0 if there is none), or None.  Needs
    ``arr.size >= preperiod + 2 * max_period``.

    Any mismatch at an index >= ``preperiod`` refutes a period, so every
    period is first compared on one block of at most 256 indices starting
    at ``preperiod``; the block ends before ``arr.size - max_period``, so
    its indices are valid for every period.  The gather runs 1024 periods
    at a time, which bounds it at 256 KiB whatever ``max_period`` is.
    Only a period the block leaves open is scanned over the whole array,
    which also gives the cut on the fail path."""
    block = min(_APERIODIC_BLOCK, arr.size - max_period - preperiod)
    base = arr[preperiod : preperiod + block]
    for lo in range(1, max_period + 1, _APERIODIC_BATCH):
        hi = min(lo + _APERIODIC_BATCH, max_period + 1)
        shifted = np.lib.stride_tricks.sliding_window_view(
            arr[preperiod + lo : preperiod + hi - 1 + block], block)
        refuted = (shifted != base).any(axis=1)
        for rho in (lo + np.flatnonzero(~refuted)).tolist():
            neq = arr[rho:] != arr[:-rho]
            last_mismatch = neq.size - 1 - int(np.argmax(neq[::-1])) if neq.any() else -1
            if last_mismatch < preperiod:
                return rho, last_mismatch + 1
    return None


def check_aperiodic(prefix_len: int, max_period: int, preperiod: int) -> CheckReport:
    """Finite aperiodicity certificate: no period up to ``max_period``
    holds from any cut point up to ``preperiod`` on the paper-folding
    prefix of length ``prefix_len``.

    A period exits early on the first mismatch within 256 symbols of
    ``preperiod``; only a period that survives that block is scanned over
    the whole prefix."""
    prefix_len = integer(prefix_len, "prefix length", cap=MAX_PREFIX_LEN)
    max_period = integer(max_period, "max_period", lo=1)
    preperiod = integer(preperiod, "preperiod", lo=0)
    if prefix_len < preperiod + 2 * max_period:
        raise DomainError("prefix too short: need prefix_len >= preperiod + 2*max_period")
    chk = Check("paperfold.aperiodicity",
                {"prefix_len": prefix_len, "max_period": max_period, "preperiod": preperiod},
                f"no period <= {max_period} detected after any cut <= {preperiod}")
    found = _aperiodicity_witness(_prefix_array(prefix_len), max_period, preperiod)
    if found is None:
        return chk.passed()
    rho, cut = found
    return chk.failed({"period": rho, "cut": cut})


# the exponents a of the periods 2^a b at which the suite evaluates the
# witness formula: its edges 0 and 1, and one past the 32- and 64-bit widths
_PERIOD_EXPONENTS = (0, 1, 33, 65)


def _period_break(rho: int, cut: int) -> int:
    """The least i >= cut with i + 1 = 2^a u, u odd, where 2^a is the
    largest power of 2 dividing the period rho."""
    a = (rho & -rho).bit_length() - 1
    return cut + (2**a - 1 - cut) % 2 ** (a + 1)


def verify_aperiodicity_witness() -> CheckReport:
    """No period holds after any cut, for every period rho >= 1 and every
    cut c >= 0: the lemma behind check_aperiodic.

    Premise: paperfold.self-similarity.

    Write rho = 2^a b with b odd.  If i + 1 = 2^a u with u odd, then
    i + 1 + 2 rho = 2^a (u + 2b), whose odd part is u + 2 mod 4, so by the
    positional rule (symbol) t[i] != t[i + 2 rho], and one of the steps
    i -> i + rho -> i + 2 rho breaks period rho.  _period_break gives the
    least such i >= c.  The check evaluates the formula at the edges of a,
    with b = 1 and 3 and cuts at the edges of the residue class of i mod
    2^(a+1): the witness lies in [c, c + 2^(a+1)), 2^a is the largest
    power of 2 dividing i + 1, and symbol differs at i and i + 2 rho."""
    chk = Check("paperfold.aperiodicity", {"a": list(_PERIOD_EXPONENTS), "b": [1, 3]},
                "no period rho >= 1 holds after any cut: for rho = 2^a b, b odd, t[i] != "
                "t[i + 2 rho] at the least i >= cut with i + 1 = 2^a times an odd number, "
                "witness formula checked at the edges of a")
    for a in _PERIOD_EXPONENTS:
        for b in (1, 3):
            rho = 2**a * b
            for cut in sorted({0, 1, 2**a - 1, 2**a, 2 ** (a + 1) - 1, 2 ** (a + 1), 3 * 2**a}):
                i = _period_break(rho, cut)
                if not (cut <= i < cut + 2 ** (a + 1) and (i + 1) & -(i + 1) == 2**a
                        and symbol(i) != symbol(i + 2 * rho)):
                    return chk.failed({"period": rho, "cut": cut, "index": i})
    return chk.passed()
