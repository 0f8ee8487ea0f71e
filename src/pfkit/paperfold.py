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
from .words import BINARY, Word, anti_reverse_code, window_codes

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


def _prefix_array(length: int) -> np.ndarray:
    """First ``length`` symbols of the infinite word, growing the cache
    by the recursion as needed."""
    global _prefix_cache
    while _prefix_cache.size < length:
        cur = _prefix_cache
        _prefix_cache = np.concatenate(
            [cur, np.array([1], dtype=np.uint8), (1 - cur)[::-1]]
        )
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

    def to_json(self) -> dict:
        return {
            "max_length_checked": self.max_length_checked,
            "counts": {str(k): v for k, v in sorted(self.counts.items())},
            "saturated": self.saturated,
        }


def _antipalindrome_counts(arr: np.ndarray, max_len: int) -> dict:
    counts = {}
    for ell in range(2, max_len + 1, 2):
        codes = np.unique(window_codes(arr, ell))
        counts[ell] = sum(
            1 for c in codes.tolist() if c == anti_reverse_code(c, ell)
        )
    return counts


def antipalindrome_census(generation: int, max_len: int) -> CensusResult:
    """Census the anti-palindromic factors of generation ``generation`` for
    every even length up to ``max_len``."""
    if max_len % 2 != 0 or max_len < 2:
        raise DomainError("max_len must be even and at least 2")
    if generation < 1 or 2 ** (generation + 1) - 1 < 3 * max_len:
        raise DomainError(
            f"generation {generation} too small to census lengths up to {max_len}"
        )
    arr = _prefix_array(2 ** (generation + 1) - 1)
    prev = _prefix_array(2**generation - 1)
    counts = _antipalindrome_counts(arr, max_len)
    saturated = all(
        np.array_equal(
            np.unique(window_codes(arr, ell)), np.unique(window_codes(prev, ell))
        )
        for ell in range(2, max_len + 1, 2)
    )
    return CensusResult(max_length_checked=max_len, counts=counts, saturated=saturated)


def _occurrences(haystack: bytes, needle: bytes) -> list:
    out = []
    i = haystack.find(needle)
    while i != -1:
        out.append(i)
        i = haystack.find(needle, i + 1)
    return out


def verify_recurrence(p: int, test_generation: int) -> CheckReport:
    """Check that every window of length 3 * 2^(p+1) of the test generation
    contains generation p as a factor.

    Containment of t(p) itself is sufficient for all its subwords, so only
    t(p) is searched for.
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
    pat = _prefix_array(2 ** (p + 1) - 1)
    text = _prefix_array(2 ** (test_generation + 1) - 1)
    L, N = pat.size, text.size
    occ = _occurrences(text.tobytes(), pat.tobytes())

    # occurrence at s serves exactly the window starts s-(W-L) .. s
    bad = None
    if not occ or occ[0] > W - L:
        bad = 0
    else:
        for a, b in zip(occ, occ[1:]):
            if b - a > W - L + 1 and a + 1 <= N - W:
                bad = a + 1
                break
        if bad is None and occ[-1] < N - W:
            bad = occ[-1] + 1
    if bad is None:
        return chk.passed()
    return chk.failed({"uncovered_window_start": bad})


def check_aperiodic(
    prefix_len: int, max_period: int, preperiod: int, word: Word | None = None
) -> CheckReport:
    """Finite aperiodicity certificate: no period up to ``max_period``
    holds from any cut point up to ``preperiod`` on the prefix.

    By default the paper-folding prefix of the given length is scanned;
    pass ``word`` to run the same scan on another word (negative
    controls)."""
    if max_period < 1 or preperiod < 0:
        raise DomainError("max_period must be >= 1 and preperiod >= 0")
    if prefix_len < preperiod + 2 * max_period:
        raise DomainError("prefix too short: need prefix_len >= preperiod + 2*max_period")
    chk = Check("paperfold.aperiodicity",
                {"prefix_len": prefix_len, "max_period": max_period, "preperiod": preperiod},
                f"no period <= {max_period} detected after any cut <= {preperiod}")
    if word is None:
        arr = _prefix_array(prefix_len)
    else:
        if word.length < prefix_len:
            raise DomainError("supplied word shorter than prefix_len")
        arr = word.to_array()[:prefix_len]
    for rho in range(1, max_period + 1):
        neq = arr[rho:] != arr[:-rho]
        if neq.any():
            last_mismatch = neq.size - 1 - int(np.argmax(neq[::-1]))
        else:
            last_mismatch = -1
        if last_mismatch < preperiod:
            return chk.failed({"period": rho, "cut": last_mismatch + 1})
    return chk.passed()
