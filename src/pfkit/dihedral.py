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

``pfkit report`` reads closure, freeness and the anti-palindrome census
off generation ``paperfold.language_generation(n)`` for factor lengths up
to n: that generation has exactly the infinite word's factors of those
lengths and is saturated there, so its verdicts speak for the subshift.
Oracles of one generation and its census read one factor index
(``paperfold.generation_index``), so each generation's windows are coded
and sorted once per symbol source, whatever lengths its readers ask for.

Minimality of the subshift is not finitely certifiable; its finite
proxies are uniform recurrence (paperfold.verify_recurrence) and the
saturation bookkeeping here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import DomainError, ExtensionError, integer
from .paperfold import MAX_GENERATION, CensusResult, generation_index, pf_prefix, pf_word, symbol
from .report import Check, CheckReport
from .words import (
    BINARY,
    MAX_CODE_BITS,
    FactorIndex,
    Word,
    _frozen,
    anti_palindrome_codes,
    anti_reverse_codes,
    code_to_word,
    segment,
    window_codes,
    word_code,
)

__all__ = [
    "LanguageOracle",
    "FreenessCertificate",
    "check_closure_under_antireversal",
    "left_extend",
    "MAX_EXTEND_STEPS",
    "freeness_certificate",
    "parity_class_separation",
    "verify_parity_residues",
    "MAX_PARITY_K",
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
    :class:`~pfkit.words.FactorIndex` over the prefix, built on the first
    query by one uint32 pass over its windows of 32 // bits symbols, and
    once more in int64 at every codable length, MAX_CODE_BITS // bits,
    only if a query reaches past them, with each length's set read off it
    as queries need it; the oracle refuses queries past its own max_len.
    An oracle from ``from_generation`` reads the generation's shared index
    instead (paperfold.generation_index).
    ``contains`` looks the query's code up in its length's set; a query
    longer than H = MAX_CODE_BITS // bits symbols has no integer code, so
    it scans the prefix, but only when its first H symbols are a factor.
    ``left_extend`` packs its seed once, for its membership and its first
    probe, and probes the sets from ``factor_codes`` with codes it builds
    itself, so its probes make no ``contains`` call and build no Word.
    """

    def __init__(self, source: Word, max_len: int, reference_len: Optional[int] = None):
        max_len = integer(max_len, "oracle max_len", lo=1)
        if source.length < max_len:
            raise DomainError("oracle source shorter than max_len")
        self.source = source
        self.max_len = max_len
        self.reference_len = ((source.length + 1) // 2 if reference_len is None
                              else integer(reference_len, "reference length", lo=1, hi=source.length))
        self._index = FactorIndex(source.to_array(), source.alphabet.bits, self.reference_len)

    @classmethod
    def from_generation(cls, generation: int, max_len: int) -> "LanguageOracle":
        """Oracle over paper-folding generation ``generation`` with the
        previous generation as saturation reference.  It reads the
        generation's shared factor index (paperfold.generation_index), so
        oracles of any max_len over one generation, and its census, make
        one pass over its windows."""
        generation = integer(generation, "generation", lo=1, cap=MAX_GENERATION)
        oracle = cls(pf_word(generation), max_len, reference_len=2**generation - 1)
        oracle._index = generation_index(generation)
        return oracle

    @cached_property
    def _raw(self) -> bytes:
        return self.source.to_array().tobytes()

    def contains(self, v: Word) -> bool:
        """Exact membership of ``v`` in the factor set of the stored prefix."""
        head = MAX_CODE_BITS // v.alphabet.bits
        return self._contains(v, word_code(segment(v, 0, head - 1) if v.length > head else v))

    def _contains(self, v: Word, code: int) -> bool:
        """``contains(v)``, given the code of the first min(|v|, H) symbols
        of ``v``, H = MAX_CODE_BITS // bits."""
        if v.alphabet != self.source.alphabet:
            raise DomainError("query word over a different alphabet")
        if v.length > self.max_len:
            raise DomainError(f"query length {v.length} exceeds oracle max_len")
        if v.length == 0:
            return True
        head = MAX_CODE_BITS // v.alphabet.bits
        # a prefix of a factor is a factor: search only if the head is one
        return code in self._index.codes(min(v.length, head)) and (
            v.length <= head or self._raw.find(v.to_array().tobytes()) >= 0)

    def factor_codes(self, length: int) -> frozenset:
        """Set of integer window codes of the given length."""
        if not 1 <= length <= self.max_len:
            raise DomainError("length outside the oracle's range")
        return self._index.codes(length)

    def is_saturated(self, length: int) -> bool:
        if not 1 <= length <= self.max_len:
            raise DomainError("length outside the oracle's range")
        return self._index.saturated(length)

    def saturated_to(self, n: int) -> bool:
        return all(self.is_saturated(ell) for ell in range(1, integer(n, "n") + 1))


def check_closure_under_antireversal(oracle: LanguageOracle, n_max: int) -> CheckReport:
    """Pass iff for every factor v with |v| <= n_max the anti-reversal of v
    is also a factor.  Inconclusive when any length up to n_max is not
    saturated.  A failure's witness is the shortest failing factor of least
    code."""
    n_max = integer(n_max, "n_max", lo=1, hi=oracle.max_len)
    if oracle.source.alphabet != BINARY:
        raise DomainError("closure under anti-reversal needs a binary oracle")
    chk = Check("dihedral.antireversal-closure", {"n_max": n_max, "source_len": oracle.source.length},
                "factor language closed under anti-reversal up to n_max")
    for ell in range(1, n_max + 1):
        if not oracle.is_saturated(ell):
            return chk.report("inconclusive", {"unsaturated_length": ell})
        codes = oracle.factor_codes(ell)
        found = sorted(codes)
        for c, image in zip(found, anti_reverse_codes(found, ell).tolist()):
            if image not in codes:
                return chk.failed({"factor": str(code_to_word(c, ell))})
    return chk.passed()


# each step probes the oracle with one integer window code per letter; at
# the cap, `pfkit dihedral extend` takes about 0.4 s as a process at
# generation 20.  With a horizon past MAX_CODE_BITS // bits symbols, a
# long probe searches the text once its head is a factor, about once a
# step: at the cap about 1.1 s at generation 18 and 2.5 s at generation 20
MAX_EXTEND_STEPS = 2**16


def left_extend(oracle: LanguageOracle, seed: Word, steps: int, horizon: int) -> Word:
    """Extend ``seed`` to the left by ``steps`` letters, keeping every
    window of length up to ``horizon`` inside the language.

    At each step the smallest admissible letter is chosen; a letter is
    admissible when the longest new window it creates (capped by the
    horizon) is a factor.  Raises ExtensionError with the stuck prefix
    when no letter works, which signals a too-small horizon or a
    non-recurrent source, not a contradiction.  ``steps`` is capped at
    MAX_EXTEND_STEPS = 2^16; more raise ResourceError.

    The probe for letter a is the window code (see window_codes) of a
    followed by the word's first L - 1 symbols, a | (tail << bits), looked
    up in the oracle's length-L factor codes.  A probe longer than
    H = MAX_CODE_BITS // bits symbols has no code of one int64, so it
    searches the oracle's text, but only when its first H symbols are a
    factor: a prefix of a factor is a factor, so the other searches would
    fail.
    """
    steps = integer(steps, "steps", lo=0, cap=MAX_EXTEND_STEPS)
    horizon = integer(horizon, "horizon", lo=1)
    if steps + seed.length + horizon > oracle.max_len:
        raise DomainError("steps + |seed| + horizon must stay within oracle.max_len")
    alphabet = oracle.source.alphabet
    bits = alphabet.bits
    head_len = MAX_CODE_BITS // bits  # H
    head_mask = (1 << (bits * head_len)) - 1
    code = word_code(seed)
    if not oracle._contains(seed, code & head_mask):
        raise DomainError("seed is not a factor of the oracle's language")
    rev = seed.to_array()[::-1].tolist()  # the word, last symbol first
    mask = (1 << (bits * (horizon - 1))) - 1
    tail = code & mask  # code of the word's first horizon - 1 symbols
    codes, codes_len = None, 0
    for _ in range(steps):
        probe_len = min(horizon, len(rev) + 1)
        coded = probe_len <= head_len
        if probe_len != codes_len:
            codes, codes_len = oracle.factor_codes(min(probe_len, head_len)), probe_len
        for a in range(alphabet.size):
            probe = a | (tail << bits)
            # a coded probe is its own head
            if (probe & head_mask) in codes and (
                    coded or oracle._raw.find(bytes([a, *rev[: -probe_len : -1]])) >= 0):
                break
        else:
            raise ExtensionError(_reversed_word(rev, alphabet), horizon)
        rev.append(a)
        tail = probe & mask
    return _reversed_word(rev, alphabet)


def _reversed_word(rev: list, alphabet) -> Word:
    return Word._of(_frozen(np.array(rev[::-1], dtype=np.uint8)), alphabet)


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
    counts = CensusResult.of(oracle.factor_codes, oracle.is_saturated, check_to).counts
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


# the uint8 window codes of 2K + 2 offsets and the pattern test's three
# K-byte arrays peak at 5 bytes per unit of K beyond the prefix they read
# (tracemalloc at K = 2^20), some 42 MB at the cap
MAX_PARITY_K = 2**23


def parity_class_separation(K: int, generation: int) -> CheckReport:
    """Even-offset and odd-offset 7-windows never coincide.

    Checks, for all offsets up to K: (a) the set of 7-windows at even
    positions is disjoint from the set at odd positions, and (b) every
    even window matches one of the four even patterns and every odd
    window one of the four odd patterns.  K is capped at MAX_PARITY_K =
    2^23; a larger K raises ResourceError before any symbol is built.
    """
    K = integer(K, "K", lo=0, cap=MAX_PARITY_K)
    generation = integer(generation, "generation", lo=0, cap=MAX_GENERATION)
    if 2 * K + 8 > 2 ** (generation + 1) - 1:
        raise DomainError("generation too small for the requested K")
    chk = Check("dihedral.parity-separation", {"K": K, "generation": generation},
                "even and odd 7-windows are disjoint and match their pattern families")
    # the windows at offsets 0 .. 2K+1 end before symbol 2K+8, a prefix of
    # the generation
    codes = window_codes(pf_prefix(2 * K + 8).to_array(), 7)
    even = codes[0 : 2 * K + 1 : 2]
    odd = codes[1 : 2 * K + 2 : 2]

    # presence tables over the 128 window codes, set through the strided
    # views without copying them; the least code in both is the clash
    # witness
    seen_even, seen_odd = np.zeros(128, dtype=bool), np.zeros(128, dtype=bool)
    seen_even[even] = True
    seen_odd[odd] = True
    clash = np.flatnonzero(seen_even & seen_odd)
    if clash.size:
        c = int(clash[0])
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


def _residue_windows():
    """The codes of the 7-windows at even and at odd starts that the
    start mod 8 allows: the symbols at i != 3 mod 4 read off symbol at the
    residue, the others filled both ways."""
    windows = (set(), set())
    for r in range(8):
        fixed = sum(symbol(r + o) << o for o in range(7) if (r + o) % 4 != 3)
        free = [o for o in range(7) if (r + o) % 4 == 3]
        for fill in range(2 ** len(free)):
            windows[r % 2].add(fixed | sum((fill >> j & 1) << o for j, o in enumerate(free)))
    return windows


def verify_parity_residues() -> CheckReport:
    """The windows of parity_class_separation separate for every K: even-
    and odd-offset 7-windows never coincide and match their pattern
    families, from the 8 residues of a window's start mod 8.

    Premise: paperfold.self-similarity.

    By the interleaving identity t[2j] = 1 - (j mod 2), t[2j+1] = t[j],
    symbol i is fixed by i mod 8 unless i = 3 mod 4: an even i reads
    1 - (i/2 mod 2), and i = 1 mod 4 reads t[(i - 1)/2], an even index
    fixed by i mod 8.  So a 7-window's start mod 8 fixes the window up to
    its one or two slots at i = 3 mod 4.  The check reads the fixed
    symbols off the positional rule (symbol) at the residue, fills the
    free slots both ways, 12 windows at even starts and 16 at odd starts,
    and checks what the scan checks of them: no window is in both sets,
    and each matches its family in EVEN_WINDOW_PATTERNS or
    ODD_WINDOW_PATTERNS.  Every window of the word is one of them."""
    chk = Check("dihedral.parity-separation", {"residues_mod": 8, "window": 7},
                "even and odd 7-windows are disjoint and match their pattern families at every "
                "offset: the start mod 8 fixes every slot but those at 3 mod 4, both fillings checked")
    windows = _residue_windows()
    clash = windows[0] & windows[1]
    if clash:
        return chk.failed({"window": str(code_to_word(min(clash), 7))})
    for name, found, patterns in (("even", windows[0], EVEN_WINDOW_PATTERNS),
                                  ("odd", windows[1], ODD_WINDOW_PATTERNS)):
        pairs = [_compile_pattern(p) for p in patterns]
        for c in sorted(found):
            if not any(c & mask == value for mask, value in pairs):
                return chk.failed({"family": name, "window": str(code_to_word(c, 7))})
    return chk.passed()
