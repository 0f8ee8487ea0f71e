"""The paper-folding word: generation and combinatorial verification.

The generations are t(0) = "1", t(n+1) = t(n) + "1" + anti_reverse(t(n)),
so |t(n)| = 2^(n+1) - 1 and each generation is a prefix of the next.  The
module keeps one growing prefix array as a cache; words handed out are
read-only views into it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError
from .report import Check, CheckReport
from .words import BINARY, MAX_CODE_BITS, FactorIndex, Word, anti_palindrome_codes
from .words import window_codes  # noqa: F401 - perfbench/spans.py times this name here

__all__ = [
    "T_REFERENCE",
    "MAX_GENERATION",
    "MAX_PREFIX_LEN",
    "pf_word",
    "pf_prefix",
    "verify_generation_fidelity",
    "verify_self_similarity",
    "CensusResult",
    "antipalindrome_census",
    "verify_recurrence",
    "check_aperiodic",
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

_prefix_cache = np.array([1], dtype=np.uint8)
_prefix_cache.setflags(write=False)


def _prefix_array(length: int) -> np.ndarray:
    """First ``length`` symbols of the infinite word, growing the cache
    by the recursion as needed.  The cache is read-only, so no caller can
    change the symbols that later callers read."""
    global _prefix_cache
    while _prefix_cache.size < length:
        cur = _prefix_cache
        _prefix_cache = np.concatenate(
            [cur, np.array([1], dtype=np.uint8), (1 - cur)[::-1]]
        )
        _prefix_cache.setflags(write=False)
    return _prefix_cache[:length]


def pf_word(n: int) -> Word:
    """Generation n of the paper-folding word, of length 2^(n+1) - 1."""
    if n < 0:
        raise DomainError("generation must be non-negative")
    if n > MAX_GENERATION:
        raise ResourceError(f"generation {n} exceeds the cap of {MAX_GENERATION}")
    return Word.from_array(_prefix_array(2 ** (n + 1) - 1), BINARY)


def pf_prefix(L: int) -> Word:
    """First L symbols of the infinite paper-folding word."""
    if L < 0:
        raise DomainError("prefix length must be non-negative")
    if L > MAX_PREFIX_LEN:
        raise ResourceError(f"prefix length {L} exceeds the resource budget")
    return Word.from_array(_prefix_array(L), BINARY)


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
    t(n).  Reports the first mismatch position on failure."""
    if p < 0 or n < 0:
        raise DomainError("p and n must be non-negative")
    if p + n + 1 > 24:
        raise ResourceError("p + n + 1 must stay within the budget of 24")
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
    """Counts of distinct anti-palindromic factors per even length.

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

    @classmethod
    def of(cls, codes, saturated, max_len: int) -> "CensusResult":
        """The census of a factor language at every even length up to
        ``max_len``, given ``codes(ell)``, the set of its length-ell factor
        codes, and ``saturated(ell)``."""
        lengths = range(2, max_len + 1, 2)
        return cls(max_len, {ell: len(anti_palindrome_codes(codes(ell), ell)) for ell in lengths},
                   all(saturated(ell) for ell in lengths))

    def to_json(self) -> dict:
        return {
            "max_length_checked": self.max_length_checked,
            "counts": {str(k): v for k, v in sorted(self.counts.items())},
            "saturated": self.saturated,
        }


def antipalindrome_census(generation: int, max_len: int) -> CensusResult:
    """Census the anti-palindromic factors of generation ``generation`` for
    every even length up to ``max_len``.

    Counts and saturation (against generation - 1) come from one factor
    index over the generation, built a length at a time."""
    if max_len % 2 != 0 or max_len < 2:
        raise DomainError("max_len must be even and at least 2")
    if max_len > MAX_CODE_BITS:
        raise DomainError(f"max_len {max_len} exceeds the coding limit of {MAX_CODE_BITS}")
    if generation > MAX_GENERATION:
        raise ResourceError(f"generation {generation} exceeds the cap of {MAX_GENERATION}")
    if generation < 1 or 2 ** (generation + 1) - 1 < 3 * max_len:
        raise DomainError(
            f"generation {generation} too small to census lengths up to {max_len}"
        )
    index = FactorIndex(_prefix_array(2 ** (generation + 1) - 1), 1, ref_len=2**generation - 1)
    return CensusResult.of(index.codes, index.saturated, max_len)


def _generation_hits(text: np.ndarray, p: int) -> np.ndarray:
    """Bool mask over the starts 0 .. text.size - |t(p)| of ``text``,
    true where t(p) occurs.  Needs ``text.size >= |t(p)|``.

    t(k+1) = t(k) 1 anti(t(k)) and anti(t(k+1)) = t(k) 0 anti(t(k)), so
    the masks of t(k+1) and anti(t(k+1)) are the mask of t(k) AND the
    shifted mask of anti(t(k)), split by the symbol between them.  Each
    level works in place in the two level-0 masks, so the search takes p
    passes however long t(p) is."""
    hits, anti = text == 1, text == 0
    for k in range(p):
        lk = 2 ** (k + 1) - 1  # |t(k)|
        m = hits.size - lk - 1  # starts of t(k+1)
        np.logical_and(hits[:m], anti[lk + 1 :], out=hits[:m])
        # on 0/1 values, hit > symbol is hit AND NOT symbol
        np.greater(hits[:m], text[lk : lk + m], out=anti[:m])
        np.logical_and(hits[:m], text[lk : lk + m], out=hits[:m])
        hits, anti = hits[:m], anti[:m]
    return hits


def _first_uncovered(hits: np.ndarray, span: int):
    """The first start s with no hit in hits[s : s + span], or None;
    there are hits.size - span + 1 >= 1 starts.  Overwrites ``hits``.

    The OR over a sliding window is widened in place, at most doubling
    its width per pass, so it takes about log2(span) passes."""
    width = 1
    while width < span:
        step = min(width, span - width)
        n = hits.size - step
        np.logical_or(hits[:n], hits[step:], out=hits[:n])
        hits, width = hits[:n], width + step
    return None if hits.all() else int(np.argmin(hits))


def verify_recurrence(p: int, test_generation: int) -> CheckReport:
    """Check that every window of length 3 * 2^(p+1) of the test generation
    contains generation p as a factor.

    Containment of t(p) itself is sufficient for all its subwords, so only
    t(p) is searched for, as its recursion defines it: its occurrences are
    one bool mask built in p in-place passes (``_generation_hits``), and a
    window with none is read from a sliding OR over that mask
    (``_first_uncovered``).  No list or integer array of positions is
    built.
    """
    if p < 0:
        raise DomainError("p must be non-negative")
    if test_generation < p + 4:
        raise DomainError("test generation must be at least p + 4")
    if test_generation > 24:
        raise ResourceError("test generation exceeds the budget of 24")
    W = 3 * 2 ** (p + 1)
    chk = Check("paperfold.recurrence", {"p": p, "test_generation": test_generation, "window": W},
                "every window of length 3*2^(p+1) contains generation p")
    text = _prefix_array(2 ** (test_generation + 1) - 1)
    bad = _first_uncovered(_generation_hits(text, p), W - 2 ** (p + 1) + 2)
    if bad is None:
        return chk.passed()
    return chk.failed({"uncovered_window_start": bad})


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
    if max_period < 1 or preperiod < 0:
        raise DomainError("max_period must be >= 1 and preperiod >= 0")
    if prefix_len < preperiod + 2 * max_period:
        raise DomainError("prefix too short: need prefix_len >= preperiod + 2*max_period")
    if prefix_len > MAX_PREFIX_LEN:
        raise ResourceError(f"prefix length {prefix_len} exceeds the resource budget")
    chk = Check("paperfold.aperiodicity",
                {"prefix_len": prefix_len, "max_period": max_period, "preperiod": preperiod},
                f"no period <= {max_period} detected after any cut <= {preperiod}")
    found = _aperiodicity_witness(_prefix_array(prefix_len), max_period, preperiod)
    if found is None:
        return chk.passed()
    rho, cut = found
    return chk.failed({"period": rho, "cut": cut})
