"""The four-letter substitution behind the two-block recoding.

The canonical instance sends 3 -> 31, 2 -> 30, 1 -> 21, 0 -> 20.  Reading
the binary word in two-letter blocks xy -> 2x + y turns the paper-folding
word into the fixed point of this substitution, and the block code
intertwines the square of the binary shift with the quaternary shift.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError
from .paperfold import MAX_PREFIX_LEN, pf_prefix
from .report import Check, CheckReport
from .words import QUATERNARY, Word

__all__ = [
    "Substitution",
    "PAPERFOLD_SUBSTITUTION",
    "AbelianMatrix",
    "apply",
    "is_primitive",
    "is_left_proper",
    "first_letters",
    "abelianization",
    "fixed_prefix",
    "block_code",
    "verify_recoding",
    "verify_intertwining",
]


class Substitution:
    """A letter -> word rule table over the quaternary alphabet."""

    def __init__(self, rules: dict):
        self.alphabet = QUATERNARY
        table = {}
        for letter, image in rules.items():
            try:
                a = int(letter)
            except (TypeError, ValueError):
                raise DomainError(f"rule letter {letter!r} is not an integer") from None
            if not 0 <= a < self.alphabet.size:
                raise DomainError(f"rule letter {letter!r} outside the alphabet")
            w = image if isinstance(image, Word) else Word(str(image), self.alphabet)
            if w.alphabet != self.alphabet:
                raise DomainError("rule image over the wrong alphabet")
            if w.length == 0:
                raise DomainError(f"rule image for letter {a} is empty")
            table[a] = w
        if set(table) != set(range(self.alphabet.size)):
            raise DomainError("rules must cover every letter of the alphabet")
        self.rules = table
        lengths = {w.length for w in table.values()}
        # uniform-length images allow a fully vectorised apply
        self._uniform = lengths.pop() if len(lengths) == 1 else None
        if self._uniform:
            self._table_arr = np.stack(
                [table[a].to_array() for a in range(self.alphabet.size)]
            )

    @classmethod
    def from_json(cls, text: str | bytes) -> "Substitution":
        try:
            data = json.loads(text)
            alphabet, rules = int(data.get("alphabet", 4)), data["rules"]
        except (ValueError, TypeError, KeyError, AttributeError) as exc:
            raise DomainError(f"malformed substitution JSON: {type(exc).__name__}: {exc}") from None
        if alphabet != 4:
            raise DomainError("only the quaternary alphabet is supported")
        if not isinstance(rules, dict):
            raise DomainError('"rules" must map letters to images')
        return cls(rules)

    def to_json(self) -> str:
        return json.dumps(
            {
                "alphabet": self.alphabet.size,
                "rules": {str(a): str(w) for a, w in sorted(self.rules.items())},
            }
        )

    def __repr__(self):
        rules = ", ".join(f"{a}->{w}" for a, w in sorted(self.rules.items()))
        return f"Substitution({rules})"


PAPERFOLD_SUBSTITUTION = Substitution({3: "31", 2: "30", 1: "21", 0: "20"})


def apply(s: Substitution, w: Word) -> Word:
    """Image of a word: the concatenation of the rule images in order."""
    if w.alphabet != s.alphabet:
        raise DomainError("word is over a different alphabet than the substitution")
    if w.length == 0:
        return w
    arr = w.to_array()
    if s._uniform:
        return Word.from_array(s._table_arr[arr].ravel(), s.alphabet)
    images = [s.rules[a].to_array() for a in arr.tolist()]
    return Word.from_array(np.concatenate(images), s.alphabet)


def _letter_sets(s: Substitution) -> dict:
    return {a: set(w.to_array().tolist()) for a, w in s.rules.items()}


def is_primitive(s: Substitution, n_max: int) -> int | None:
    """Least n <= n_max such that the n-th image of every letter contains
    every letter; None if there is no such n."""
    if n_max < 1:
        raise DomainError("n_max must be at least 1")
    step = _letter_sets(s)
    full = set(range(s.alphabet.size))
    reach = {a: {a} for a in full}
    for n in range(1, n_max + 1):
        reach = {a: set().union(*(step[b] for b in letters)) for a, letters in reach.items()}
        if all(letters == full for letters in reach.values()):
            return n
    return None


def first_letters(s: Substitution, p: int) -> tuple:
    """First letter of the p-th image of each letter, indexed by letter."""
    if p < 1:
        raise DomainError("p must be at least 1")
    head = {a: w[0] for a, w in s.rules.items()}
    out = []
    for a in range(s.alphabet.size):
        c = a
        for _ in range(p):
            c = head[c]
        out.append(c)
    return tuple(out)


def is_left_proper(s: Substitution, p_max: int) -> int | None:
    """Least p <= p_max such that all p-th images share one first letter."""
    if p_max < 1:
        raise DomainError("p_max must be at least 1")
    for p in range(1, p_max + 1):
        if len(set(first_letters(s, p))) == 1:
            return p
    return None


@dataclass(frozen=True)
class AbelianMatrix:
    """Occurrence-count matrix: entry (i, j) counts letter j in the image
    of letter i.  Row sums equal the image lengths."""

    entries: tuple

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    @property
    def row_sums(self) -> tuple:
        return tuple(sum(row) for row in self.entries)

    def to_json(self):
        return [list(row) for row in self.entries]


def abelianization(s: Substitution) -> AbelianMatrix:
    size = s.alphabet.size
    rows = []
    for i in range(size):
        arr = s.rules[i].to_array()
        rows.append(tuple(int(np.count_nonzero(arr == j)) for j in range(size)))
    return AbelianMatrix(tuple(rows))


def fixed_prefix(s: Substitution, L: int) -> Word:
    """First L symbols of the substitution's one-sided fixed point.

    Requires a primitive, left-proper substitution.  Iterates from the
    common first letter and asserts prefix stability between the last two
    iterations.  ``L`` is capped at paperfold.MAX_PREFIX_LEN (2^31 - 1),
    the budget of paperfold.pf_prefix; larger requests raise ResourceError.
    """
    if L < 0:
        raise DomainError("prefix length must be non-negative")
    if L > MAX_PREFIX_LEN:
        raise ResourceError(f"prefix length {L} exceeds the resource budget")
    # head-map tails on 4 letters have length <= 3; primitivity exponent of
    # a 4x4 non-negative matrix is <= 10, so these caps are exhaustive
    p = is_left_proper(s, 4)
    if p is None or is_primitive(s, 10) is None:
        raise DomainError("substitution must be left-proper and primitive")
    if L == 0:
        return Word("", s.alphabet)
    seed = first_letters(s, p)[0]
    # iterate the p-th power if a single application does not refix the seed
    step = 1 if s.rules[seed][0] == seed else p
    cur = Word(str(seed), s.alphabet)
    while cur.length < L:
        nxt = cur
        for _ in range(step):
            nxt = apply(s, nxt)
        if not np.array_equal(nxt.to_array()[: cur.length], cur.to_array()):
            raise DomainError("iteration is not prefix-stable; no fixed point")
        cur = nxt
    return Word.from_array(cur.to_array()[:L], s.alphabet)


def _pair_codes(arr: np.ndarray) -> np.ndarray:
    """2*arr[2i] + arr[2i+1] for every pair of an even-length 0/1 array."""
    return 2 * arr[0::2] + arr[1::2]


def block_code(x: Word, offset: int = 0) -> Word:
    """Recode a binary word by two-letter blocks: the pair (x[2i], x[2i+1])
    becomes the quaternary letter 2*x[2i] + x[2i+1].

    The pairing starts at ``offset`` (0 by default; 1 drops the leading
    symbol first, which lands in the other parity class); the remaining
    length must be even.
    """
    if x.alphabet.size != 2:
        raise DomainError("block code takes a binary word")
    if offset not in (0, 1):
        raise DomainError("offset must be 0 or 1")
    if (x.length - offset) % 2 != 0:
        raise DomainError("block code needs an even number of symbols to pair")
    return Word.from_array(_pair_codes(x.to_array()[offset:]), QUATERNARY)


def verify_recoding(L: int) -> CheckReport:
    """Check that recoding the binary prefix of length 2L by two-letter
    blocks reproduces the first L symbols of the substitution's fixed
    point."""
    if L < 1:
        raise DomainError("L must be positive")
    chk = Check("subst.recoding", {"L": L},
                "two-block recoding of the binary word is the substitution fixed point")
    recoded = block_code(pf_prefix(2 * L))
    fixed = fixed_prefix(PAPERFOLD_SUBSTITUTION, L)
    if recoded == fixed:
        return chk.passed()
    a, b = recoded.to_array(), fixed.to_array()
    return chk.failed({"first_mismatch": int(np.nonzero(a != b)[0][0])})


def verify_intertwining(L: int) -> CheckReport:
    """Check that recoding after a double shift equals shifting the
    recoded word on the paper-folding prefix of length L: the block code
    with 2 symbols dropped equals the block code with 1 letter dropped.
    This holds for any binary word; it fails only when the block map
    depends on where a pair sits."""
    if L % 2 != 0 or L < 4:
        raise DomainError("L must be even and at least 4")
    chk = Check("subst.intertwining", {"L": L},
                "block code intertwines the squared binary shift with the quaternary shift")
    arr = pf_prefix(L).to_array()
    left = _pair_codes(arr[2:])
    right = _pair_codes(arr)[1:]
    if np.array_equal(left, right):
        return chk.passed()
    return chk.failed({"first_mismatch_block": int(np.nonzero(left != right)[0][0])})
