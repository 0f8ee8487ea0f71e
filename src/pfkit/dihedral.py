"""Language-level certificates for the dihedral action on the subshift.

The shift together with the anti-reversal involution generate an infinite
dihedral action on the closure of the shifted source word.  Everything a
finite machine can certify about it lives here: closure of the factor
language under anti-reversal, the anti-palindrome bound behind freeness,
leftward extension of the one-sided word, and the even/odd window
separation that splits the space into two clopen halves.

Every check that depends on the factor language of an infinite word is
computed on a finite prefix; when the factor sets have not stabilised
between the reference prefix and the full one, checks answer
"inconclusive" rather than "pass".

Closure, freeness and the anti-palindrome census all read a
:class:`LanguageOracle`, so one oracle over a generation serves the three:
``pfkit report`` builds one per run and hands it to each of them.

Minimality of the subshift is not finitely certifiable; its finite
proxies are uniform recurrence (paperfold.verify_recurrence) and the
saturation bookkeeping here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import DomainError, ExtensionError, ResourceError
from .paperfold import MAX_GENERATION, CensusResult, pf_prefix, pf_word
from .report import Check, CheckReport
from .words import (
    BINARY,
    MAX_CODE_BITS,
    FactorIndex,
    Window,
    Word,
    anti_palindrome_codes,
    anti_reverse_code,
    code_to_word,
    is_anti_palindrome,
    window_codes,
    word_code,
)

__all__ = [
    "LanguageOracle",
    "FreenessCertificate",
    "check_closure_under_antireversal",
    "is_phi_sigma_fixed_window",
    "left_extend",
    "freeness_certificate",
    "parity_class_separation",
    "EVEN_WINDOW_PATTERNS",
    "ODD_WINDOW_PATTERNS",
]


class LanguageOracle:
    """Exact factor-language membership against a stored prefix.

    Membership answers are exact for queries of length <= max_len; whether
    they speak for the whole language is a separate question, tracked by
    per-length saturation: length ell is saturated when the prefix and a
    shorter reference prefix (by default the first half, or the previous
    generation) have identical factor sets of length ell.

    Factor sets, saturation and membership all come from one
    :class:`~pfkit.words.FactorIndex` over the prefix, grown a length at a
    time as queries need it: ``contains`` looks the query's code up in its
    length's set and scans the prefix only for queries longer than
    MAX_CODE_BITS // bits symbols, which have no integer code.
    """

    def __init__(self, source: Word, max_len: int, reference_len: Optional[int] = None):
        if max_len < 1:
            raise DomainError("oracle max_len must be positive")
        if source.length < max_len:
            raise DomainError("oracle source shorter than max_len")
        self.source = source
        self.max_len = max_len
        self.reference_len = (
            (source.length + 1) // 2 if reference_len is None else reference_len
        )
        if not 0 < self.reference_len <= source.length:
            raise DomainError("bad reference length")
        self._index = FactorIndex(source.to_array(), source.alphabet.bits, self.reference_len)

    @classmethod
    def from_generation(cls, generation: int, max_len: int) -> "LanguageOracle":
        """Oracle over paper-folding generation ``generation`` with the
        previous generation as saturation reference."""
        if generation < 1:
            raise DomainError("need generation >= 1")
        return cls(pf_word(generation), max_len, reference_len=2**generation - 1)

    @cached_property
    def _raw(self) -> bytes:
        return self.source.to_array().tobytes()

    def contains(self, v: Word) -> bool:
        """Exact membership of ``v`` in the factor set of the stored prefix."""
        if v.alphabet != self.source.alphabet:
            raise DomainError("query word over a different alphabet")
        if v.length > self.max_len:
            raise DomainError(f"query length {v.length} exceeds oracle max_len")
        if v.length == 0:
            return True
        if v.length * v.alphabet.bits <= MAX_CODE_BITS:
            return word_code(v) in self._index.codes(v.length)
        return self._raw.find(v.to_array().tobytes()) >= 0

    def factor_codes(self, length: int) -> set:
        """Set of integer window codes of the given length."""
        if not 1 <= length <= self.max_len:
            raise DomainError("length outside the oracle's range")
        return self._index.codes(length)

    def is_saturated(self, length: int) -> bool:
        if not 1 <= length <= self.max_len:
            raise DomainError("length outside the oracle's range")
        return self._index.saturated(length)

    def saturated_to(self, n: int) -> bool:
        return all(self.is_saturated(ell) for ell in range(1, n + 1))

    def antipalindrome_census(self, max_len: int) -> CensusResult:
        """The anti-palindrome census of the stored prefix up to ``max_len``."""
        return CensusResult.of(self.factor_codes, self.is_saturated, max_len)


def check_closure_under_antireversal(oracle: LanguageOracle, n_max: int) -> CheckReport:
    """Pass iff for every factor v with |v| <= n_max the anti-reversal of v
    is also a factor.  Inconclusive when any length up to n_max is not
    saturated.  A failure's witness is the shortest failing factor of least
    code."""
    if n_max < 1:
        raise DomainError("n_max must be at least 1")
    if n_max > oracle.max_len:
        raise DomainError("n_max exceeds the oracle's max_len")
    if oracle.source.alphabet != BINARY:
        raise DomainError("closure under anti-reversal needs a binary oracle")
    chk = Check("dihedral.antireversal-closure", {"n_max": n_max, "source_len": oracle.source.length},
                "factor language closed under anti-reversal up to n_max")
    for ell in range(1, n_max + 1):
        if not oracle.is_saturated(ell):
            return chk.report("inconclusive", {"unsaturated_length": ell})
        codes = oracle.factor_codes(ell)
        for c in sorted(codes):
            if anti_reverse_code(c, ell) not in codes:
                return chk.failed({"factor": str(code_to_word(c, ell))})
    return chk.passed()


def is_phi_sigma_fixed_window(x: Window) -> bool:
    """Whether the window is consistent with a fixed point of
    shift-then-antireverse, i.e. x[j] = 1 - x[1-j] for every representable j.

    The window must cover exactly the slots -K+1 .. K for some K >= 1,
    which pairs every slot with its mirror; that holds precisely when the
    underlying word is an anti-palindrome.
    """
    n = x.word.length
    if n < 2 or n % 2 != 0 or x.origin != 1 - n // 2:
        raise DomainError("window must cover slots [-K+1, K] for some K >= 1")
    return is_anti_palindrome(x.word)


def left_extend(oracle: LanguageOracle, seed: Word, steps: int, horizon: int) -> Word:
    """Extend ``seed`` to the left by ``steps`` letters, keeping every
    window of length up to ``horizon`` inside the language.

    At each step the smallest admissible letter is chosen; a letter is
    admissible when the longest new window it creates (capped by the
    horizon) is a factor.  Raises ExtensionError with the stuck prefix
    when no letter works, which signals a too-small horizon or a
    non-recurrent source, not a contradiction.
    """
    if steps < 0 or horizon < 1:
        raise DomainError("need steps >= 0 and horizon >= 1")
    if steps + seed.length + horizon > oracle.max_len:
        raise DomainError("steps + |seed| + horizon must stay within oracle.max_len")
    if not oracle.contains(seed):
        raise DomainError("seed is not a factor of the oracle's language")
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


@dataclass(frozen=True)
class FreenessCertificate:
    """Finite evidence that the dihedral action on the subshift is free:
    the factor language is closed under anti-reversal (so the involution
    preserves the subshift) and contains no anti-palindrome of length 8
    (so anti-palindromic factors are bounded, which is the standard
    freeness criterion for minimal subshifts)."""

    closure_checked_to: int
    antipalindrome_sup: int
    verdict: str  # pass | fail | inconclusive
    witnesses: Optional[dict] = None

    def to_json(self) -> dict:
        return {
            "closure_checked_to": self.closure_checked_to,
            "antipalindrome_sup": self.antipalindrome_sup,
            "verdict": self.verdict,
            "witnesses": self.witnesses,
        }


def freeness_certificate(oracle: LanguageOracle) -> FreenessCertificate:
    """Build the freeness certificate off a saturated oracle.

    The verdict is "pass" when closure holds up to length 8 and no
    length-8 anti-palindromic factor exists, "inconclusive" when the
    closure check is (it meets an unsaturated length before any failing
    factor, and its witness names that length), and "fail" otherwise.
    """
    check_to = 8
    if oracle.max_len < check_to:
        raise DomainError("oracle must cover factors up to length 8")
    closure = check_closure_under_antireversal(oracle, check_to)
    if closure.status == "inconclusive":
        return FreenessCertificate(check_to, 0, "inconclusive", closure.witness)
    counts = oracle.antipalindrome_census(check_to).counts
    sup = max((ell for ell, c in counts.items() if c > 0), default=0)
    if closure.status == "pass" and counts[check_to] == 0:
        return FreenessCertificate(check_to, sup, "pass", {"antipalindrome_counts": counts})
    examples = anti_palindrome_codes(oracle.factor_codes(check_to), check_to)[:4]
    return FreenessCertificate(check_to, sup, "fail", {
        "closure": closure.status,
        "closure_witness": closure.witness,
        "antipalindrome_counts": counts,
        "length_8_examples": [str(code_to_word(c, check_to)) for c in examples],
    })


def _compile_pattern(pat: str):
    """A 7-symbol pattern with free slots 'x'/'y' becomes a (mask, value)
    pair over window codes (first symbol in the least significant bit)."""
    mask = value = 0
    for j, ch in enumerate(pat):
        if ch in "xy":
            continue
        mask |= 1 << j
        value |= int(ch) << j
    return mask, value


# the eight 7-window shapes produced by the period-4 block structure
# "110 . 100 ." of the infinite word, split by offset parity
EVEN_WINDOW_PATTERNS = ("110x100", "0x100y1", "100x110", "0x110y1")
ODD_WINDOW_PATTERNS = ("10x100y", "x100y11", "00x110y", "x110y10")


def parity_class_separation(K: int, generation: int) -> CheckReport:
    """Even-offset and odd-offset 7-windows never coincide.

    Checks, for all offsets up to K: (a) the set of 7-windows at even
    positions is disjoint from the set at odd positions, and (b) every
    even window matches one of the four even patterns and every odd
    window one of the four odd patterns.
    """
    if K < 0:
        raise DomainError("K must be non-negative")
    if generation > MAX_GENERATION:
        raise ResourceError(f"generation {generation} exceeds the cap of {MAX_GENERATION}")
    if 2 * K + 8 > 2 ** (generation + 1) - 1:
        raise DomainError("generation too small for the requested K")
    chk = Check("dihedral.parity-separation", {"K": K, "generation": generation},
                "even and odd 7-windows are disjoint and match their pattern families")
    # the windows at offsets 0 .. 2K+1 end before symbol 2K+8, a prefix of
    # the generation
    codes = window_codes(pf_prefix(2 * K + 8).to_array(), 7)
    even = codes[0 : 2 * K + 1 : 2]
    odd = codes[1 : 2 * K + 2 : 2]

    even_set, odd_set = set(even.tolist()), set(odd.tolist())
    clash = even_set & odd_set
    if clash:
        c = min(clash)
        k = int(np.nonzero(even == c)[0][0])
        ell = int(np.nonzero(odd == c)[0][0])
        return chk.failed({"k": k, "l": ell, "window": str(code_to_word(c, 7))})

    for name, vals, patterns in (
        ("even", even, EVEN_WINDOW_PATTERNS),
        ("odd", odd, ODD_WINDOW_PATTERNS),
    ):
        pairs = [_compile_pattern(p) for p in patterns]
        ok = np.zeros(vals.shape, dtype=bool)
        for mask, value in pairs:
            ok |= (vals & mask) == value
        if not ok.all():
            i = int(np.argmin(ok))
            window = str(code_to_word(int(vals[i]), 7))
            return chk.failed({"family": name, "offset_index": i, "window": window})
    return chk.passed()
