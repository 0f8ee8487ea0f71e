"""The four-letter substitution behind the two-block recoding.

The canonical instance sends 3 -> 31, 2 -> 30, 1 -> 21, 0 -> 20.  Reading
the binary word in two-letter blocks xy -> 2x + y turns the paper-folding
word into the fixed point of this substitution, and the block code
intertwines the square of the binary shift with the quaternary shift.

Both facts hold at every length.  verify_recoding_induction proves the
recoding by induction on the index, from the pair codes, the four rules
and the first letter; verify_intertwining_pairs proves the intertwining
from the 16 binary words of length 4.  Neither reads a symbol of the
word.  The scans verify_recoding and verify_intertwining, which compare a
prefix of given length, are their oracles.

``apply`` and ``fixed_prefix`` image letters by one of two gathers from
a table built on first use.  A uniform table of at most ``_ROW`` letters
an image, the canonical one among them, reads the letters four at a time
as uint32 quads and gathers the joined images of each quad from a
256-row table; any other table gathers padded rows of at most ``_ROW``
symbols and drops the padding.  See ``_image``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, integer
from .paperfold import MAX_PREFIX_LEN, pf_prefix
from .report import Check, CheckReport
from .words import QUATERNARY, Word, _as_symbol, _frozen, same_symbols

__all__ = [
    "Substitution",
    "PAPERFOLD_SUBSTITUTION",
    "AbelianMatrix",
    "apply",
    "is_primitive",
    "is_left_proper",
    "PRIMITIVITY_BOUND",
    "LEFT_PROPER_BOUND",
    "first_letters",
    "abelianization",
    "fixed_prefix",
    "block_code",
    "verify_recoding",
    "verify_recoding_induction",
    "verify_intertwining",
    "verify_intertwining_pairs",
]


# the bounds that make is_primitive and is_left_proper exhaustive on 4
# letters, so neither searches past them.  A primitive 4x4 non-negative
# matrix has a positive power at most (4 - 1)^2 + 1 (Wielandt).  The images
# of the powers of the head map shrink until they stop, so the head map
# becomes constant within 4 - 1 steps if it ever does
PRIMITIVITY_BOUND = (4 - 1) ** 2 + 1
LEFT_PROPER_BOUND = 4 - 1
# within 4 - 1 steps a map of 4 letters takes every letter onto a cycle of
# length 1, 2, 3 or 4, so from there on its powers repeat with period 12,
# their lcm
_HEAD_PERIOD = 12

# pads the rows of a non-uniform rule table; letters are below 4
_PAD = 255
# the widest row of a non-uniform table: a longer image takes several rows,
# so a gather writes at most this many bytes per letter beyond its image
_ROW = 8


class Substitution:
    """A letter -> word rule table over the quaternary alphabet.  Its
    letters are integers; from_json reads them from one-digit keys."""

    def __init__(self, rules: dict):
        self.alphabet = QUATERNARY
        table = {}
        for letter, image in rules.items():
            a = integer(letter, "rule letter", lo=0, hi=self.alphabet.size - 1)
            w = image if isinstance(image, Word) else Word(str(image), self.alphabet)
            if w.alphabet != self.alphabet:
                raise DomainError("rule image over the wrong alphabet")
            if w.length == 0:
                raise DomainError(f"rule image for letter {a} is empty")
            table[a] = w
        if set(table) != set(range(self.alphabet.size)):
            raise DomainError("rules must cover every letter of the alphabet")
        self.rules = table
        self._lengths = np.array([table[a].length for a in range(self.alphabet.size)])
        q = int(self._lengths.max())
        self._uniform = q if int(self._lengths.min()) == q else None
        # uniform images of at most _ROW letters take the quad gather; the
        # row gather splits each other image into _rows[a] rows of
        # _row_len letters from row _first[a], the last padded with _PAD
        self._quad = self._uniform if q <= _ROW else None
        self._row_len = min(q, _ROW)
        self._rows = -(-self._lengths // self._row_len)
        self._first = np.cumsum(self._rows) - self._rows

    @cached_property
    def _table(self) -> np.ndarray:
        """The gather table, built on the first _image call: an array of
        void items, one table row each.  The quad gather's row
        b0 + 4b1 + 16b2 + 64b3 is the join of the images of b0, b1, b2 and
        b3, 4q symbols, so its 256 rows take at most 8 KiB; they are
        joined as bytes, which touches less of numpy in a short run than
        an index array would.  The row gather's rows hold _row_len
        symbols."""
        q = self._quad
        if q:
            image = [self.rules[a].to_array().tobytes() for a in range(self.alphabet.size)]
            rows = b"".join(image[v & 3] + image[v >> 2 & 3] + image[v >> 4 & 3] + image[v >> 6]
                            for v in range(256))
            return np.frombuffer(rows, dtype=np.dtype((np.void, 4 * q)))
        w = self._row_len
        rows = np.full(int(self._rows.sum()) * w, _PAD, dtype=np.uint8)
        for a, image in self.rules.items():
            rows[self._first[a] * w : self._first[a] * w + image.length] = image.to_array()
        return rows.view(np.dtype((np.void, w)))

    @classmethod
    def from_json(cls, text: str | bytes) -> "Substitution":
        try:
            data = json.loads(text)
            alphabet, rules = data.get("alphabet", 4), data["rules"]
        except (ValueError, TypeError, KeyError, AttributeError) as exc:
            raise DomainError(f"malformed substitution JSON: {type(exc).__name__}: {exc}") from None
        if integer(alphabet, "alphabet") != 4:
            raise DomainError("only the quaternary alphabet is supported")
        if not isinstance(rules, dict):
            raise DomainError('"rules" must map letters to images')
        return cls({_as_symbol(key, QUATERNARY): image for key, image in rules.items()})

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
    return Word._of(_image(s, w.to_array()), s.alphabet)


_GATHER_CHUNK = 1 << 16  # table rows per np.take: quads of the quad gather, letters of the row gather
_QUAD = np.uint32(0x01041040)  # see _image


def _image(s: Substitution, arr: np.ndarray) -> np.ndarray:
    """Symbols of the image of a nonempty contiguous letter array, a
    read-only array that a Word keeps as it is.

    A uniform table of at most _ROW letters an image gathers four letters
    per lookup.  The letters, read as little-endian uint32 quads
    v = b0 + 2^8 b1 + 2^16 b2 + 2^24 b3, give their quad table row
    b0 + 4b1 + 16b2 + 64b3 as the top byte of 0x01041040 * v mod 2^32,
    since the multiplier's terms 2^24, 2^18, 2^12 and 2^6 move b0 .. b3 to
    bits 24, 26, 28 and 30 and the other terms carry less than 2^24 for
    letters below 4.  The product is taken in uint32 and written to an
    intp buffer, the index type of np.take, so no index is copied again;
    the buffer holds 2^16 quads, and a chunk keeps it and the images it
    writes in cache, on their way into one preallocated result.  Every
    index is a byte, inside the table, so np.take runs in "clip" mode,
    which writes to its ``out`` directly where "raise" would buffer it.
    The last 0-3 letters are padded with zeros into one more quad, whose
    row is cut back to their images.

    Any other table gathers each chunk's rows, one run of rows per letter,
    and drops the padding by a mask into the result, sized beforehand from
    the letter counts; the rows take less than the chunk's images plus
    _ROW bytes per letter."""
    table = s._table
    if s._quad:
        out = np.empty(-(-arr.size // 4), dtype=table.dtype)
        buf = np.empty(min(out.size, _GATHER_CHUNK), dtype=np.intp)

        def gather(quads, a):  # the rows of quads a, a + 1, ...
            index = buf[: quads.size]
            np.multiply(quads, _QUAD, out=index)
            index >>= 24
            np.take(table, index, out=out[a : a + quads.size], mode="clip")

        whole = arr.size // 4
        quads = arr[: 4 * whole].view("<u4")
        for a in range(0, whole, _GATHER_CHUNK):
            gather(quads[a : a + _GATHER_CHUNK], a)
        if whole < out.size:
            pad = np.zeros(4, dtype=np.uint8)
            pad[: arr.size - 4 * whole] = arr[4 * whole :]
            gather(pad.view("<u4"), whole)
        return _frozen(out).view(np.uint8)[: arr.size * s._quad]
    out = np.empty(int(np.bincount(arr, minlength=s._lengths.size) @ s._lengths), np.uint8)
    end = 0
    for a in range(0, arr.size, _GATHER_CHUNK):
        chunk = arr[a : a + _GATHER_CHUNK]
        rows = s._rows[chunk]
        # row j of the chunk's run for a letter whose run starts at j0
        # is table row _first[letter] + j - j0
        offsets = s._first[chunk]
        offsets += rows
        offsets -= np.cumsum(rows)
        index = np.repeat(offsets, rows)
        index += np.arange(index.size)
        images = np.take(table, index).view(np.uint8)
        kept = images != _PAD
        n = int(np.count_nonzero(kept))
        np.compress(kept, images, out=out[end : end + n])
        end += n
    return _frozen(out)


def _letter_sets(s: Substitution) -> dict:
    return {a: set(w.to_array().tolist()) for a, w in s.rules.items()}


def is_primitive(s: Substitution, n_max: int) -> int | None:
    """Least n <= n_max such that the n-th image of every letter contains
    every letter; None if there is no such n.  No n past
    PRIMITIVITY_BOUND is tried: none is the least."""
    n_max = integer(n_max, "n_max", lo=1)
    step = _letter_sets(s)
    full = set(range(s.alphabet.size))
    reach = {a: {a} for a in full}
    for n in range(1, min(n_max, PRIMITIVITY_BOUND) + 1):
        reach = {a: set().union(*(step[b] for b in letters)) for a, letters in reach.items()}
        if all(letters == full for letters in reach.values()):
            return n
    return None


def first_letters(s: Substitution, p: int) -> tuple:
    """First letter of the p-th image of each letter, indexed by letter.
    p past LEFT_PROPER_BOUND is reduced by the head map's period."""
    p = integer(p, "p", lo=1)
    if p > LEFT_PROPER_BOUND:
        p = LEFT_PROPER_BOUND + (p - LEFT_PROPER_BOUND) % _HEAD_PERIOD
    head = {a: w[0] for a, w in s.rules.items()}
    out = []
    for a in range(s.alphabet.size):
        c = a
        for _ in range(p):
            c = head[c]
        out.append(c)
    return tuple(out)


def is_left_proper(s: Substitution, p_max: int) -> int | None:
    """Least p <= p_max such that all p-th images share one first letter.
    No p past LEFT_PROPER_BOUND is tried: none is the least."""
    p_max = integer(p_max, "p_max", lo=1)
    for p in range(1, min(p_max, LEFT_PROPER_BOUND) + 1):
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


def abelianization(s: Substitution) -> AbelianMatrix:
    """The occurrence-count matrix of ``s``: row i counts each letter in
    the image of letter i."""
    size = s.alphabet.size
    rows = []
    for i in range(size):
        arr = s.rules[i].to_array()
        rows.append(tuple(int(np.count_nonzero(arr == j)) for j in range(size)))
    return AbelianMatrix(tuple(rows))


def _covering_prefix(s: Substitution, arr: np.ndarray, L: int) -> np.ndarray:
    """The shortest prefix of the letters ``arr`` whose image has at least
    L symbols, or ``arr`` itself when its whole image is shorter."""
    if s._uniform:
        k = -(-L // s._uniform)
    else:
        # the image length of whole chunks from the letter counts, then
        # the running lengths of the one chunk where it reaches L
        k, covered = 0, 0
        while k < arr.size:
            chunk = arr[k : k + _GATHER_CHUNK]
            size = int(np.bincount(chunk, minlength=s._lengths.size) @ s._lengths)
            if covered + size >= L:
                return arr[: k + int(np.searchsorted(np.cumsum(s._lengths[chunk]), L - covered)) + 1]
            k, covered = k + chunk.size, covered + size
    return arr[:k]


def fixed_prefix(s: Substitution, L: int) -> Word:
    """First L symbols of the substitution's one-sided fixed point.

    Requires a primitive, left-proper substitution.  Iterates from the
    common first letter and asserts prefix stability between the last two
    iterations.  Each application reads only the letters whose images
    cover the first L symbols, so no iterate is longer than L plus one
    image.  The iterates are plain symbol arrays, imaged by the kernel
    behind ``apply`` (a gather of 2^16 table rows at a time)
    and compared a chunk at a time by ``words.same_symbols``; only the
    result becomes a Word, which keeps the array as it is.  ``L`` is
    capped at paperfold.MAX_PREFIX_LEN (2^31 - 1), the budget of
    paperfold.pf_prefix; larger requests raise ResourceError.
    """
    L = integer(L, "prefix length", lo=0, cap=MAX_PREFIX_LEN)
    p = is_left_proper(s, LEFT_PROPER_BOUND)
    if p is None or is_primitive(s, PRIMITIVITY_BOUND) is None:
        raise DomainError("substitution must be left-proper and primitive")
    if L == 0:
        return Word("", s.alphabet)
    # the seed c is the first letter of every p-th image, so its own image
    # starts with it: head(c) = head(head^p(c)) = head^p(head(c)) = c
    seed = first_letters(s, p)[0]
    cur = _frozen(np.array([seed], dtype=np.uint8))
    while cur.size < L:
        nxt = _image(s, _covering_prefix(s, cur, L))
        # images are never empty, so nxt is at least as long as cur
        if not same_symbols(nxt[: cur.size], cur):
            raise DomainError("iteration is not prefix-stable; no fixed point")
        cur = nxt
    return Word._of(cur[:L], s.alphabet)


_PAIR_CHUNK = 1 << 16  # pairs per step of _pair_codes; its buffer takes 128 KiB


def _pair_codes(arr: np.ndarray) -> np.ndarray:
    """2*arr[2i] + arr[2i+1] for every pair of an even-length contiguous
    0/1 array.  Read as a little-endian uint16, the pair is
    v = arr[2i] + 256*arr[2i+1], and the high byte of 513*v mod 2^16 is
    2*arr[2i] + arr[2i+1]: one contiguous multiply and shift in place of
    two strided passes.  The products go through one small buffer, so the
    only array of the input's size that is made is the result."""
    v = arr.view("<u2")
    out = np.empty(v.size, dtype=np.uint8)
    buf = np.empty(min(v.size, _PAIR_CHUNK), dtype=np.uint16)
    for a in range(0, v.size, _PAIR_CHUNK):
        b = buf[: min(_PAIR_CHUNK, v.size - a)]
        np.multiply(v[a : a + b.size], 513, out=b)
        np.right_shift(b, 8, out=out[a : a + b.size], casting="unsafe")
    return _frozen(out)


def block_code(x: Word, offset: int = 0) -> Word:
    """Recode a binary word by two-letter blocks: the pair (x[2i], x[2i+1])
    becomes the quaternary letter 2*x[2i] + x[2i+1].

    The pairing starts at ``offset`` (0 by default; 1 drops the leading
    symbol first, which lands in the other parity class); the remaining
    length must be even.
    """
    if x.alphabet.size != 2:
        raise DomainError("block code takes a binary word")
    offset = integer(offset, "offset", lo=0, hi=1)
    if (x.length - offset) % 2 != 0:
        raise DomainError("block code needs an even number of symbols to pair")
    return Word._of(_pair_codes(x.to_array()[offset:]), QUATERNARY)


def verify_recoding(L: int) -> CheckReport:
    """Check that recoding the binary prefix of length 2L by two-letter
    blocks reproduces the first L symbols of the substitution's fixed
    point.  It reads 2L binary symbols, so L is capped at
    paperfold.MAX_PREFIX_LEN // 2."""
    L = integer(L, "L", lo=1, cap=MAX_PREFIX_LEN // 2)
    chk = Check("subst.recoding", {"L": L},
                "two-block recoding of the binary word is the substitution fixed point")
    recoded = block_code(pf_prefix(2 * L))
    fixed = fixed_prefix(PAPERFOLD_SUBSTITUTION, L)
    if recoded == fixed:
        return chk.passed()
    a, b = recoded.to_array(), fixed.to_array()
    return chk.failed({"first_mismatch": int(np.nonzero(a != b)[0][0])})


def verify_recoding_induction() -> CheckReport:
    """Two-block recoding of the paper-folding word is the substitution's
    fixed point at every length, by induction on the index.

    Premise: paperfold.self-similarity.

    Let r[j] = 2 t[2j] + t[2j+1] be the block code of the paper-folding
    word t and u the fixed point, and write hi(a) = a >> 1, lo(a) = a & 1.
    If every rule is a -> (2 + hi(a), lo(a)), then u[2i] = 2 + hi(u[i]) and
    u[2i+1] = lo(u[i]).  The interleaving identity at p = 0 says
    t[2j] = 1 - (j mod 2) and t[2j+1] = t[j], so hi(r[j]) = 1 - (j mod 2)
    and lo(r[j]) = t[j]; then r[2i] = 2 + (1 - (i mod 2)) = 2 + hi(r[i]),
    r[2i+1] = t[i] = lo(r[i]), and r[0] = 3.  With u[0] = 3, r and u
    agree at index 0 and take the same step from index i to 2i and 2i + 1,
    so they agree at every index.

    The check reads the three facts the induction uses off the code: the
    pair codes of 00, 01, 10 and 11 are 0, 1, 2 and 3, each rule is
    (2 + hi(a), lo(a)), and the fixed point starts with 3.  The rules are
    checked before the fixed point is built, so a table that is not
    left-proper or primitive fails on its rule.  The premise, the
    interleaving identity at p = 0, is the rule paperfold._prefix_array
    fills the word by, so paperfold.self-similarity at p = 0 re-reads it;
    the fill is pinned against the defining recursion t(n+1) =
    t(n) 1 anti(t(n)) by paperfold.generation-fidelity up to generation 5
    and by the test suite further, as the bridge lemma of
    paperfold.language_generation names its premises.  verify_recoding is
    the oracle."""
    chk = Check("subst.recoding", {"pairs": ["00", "01", "10", "11"], "letters": [0, 1, 2, 3]},
                "two-block recoding of the binary word is the substitution fixed point at every "
                "length: pair codes 2x + y, rules a -> (2 + hi(a), lo(a)) and first letter 3, "
                "by induction from the interleaving identity at p = 0")
    codes = _pair_codes(np.array([0, 0, 0, 1, 1, 0, 1, 1], dtype=np.uint8)).tolist()
    if codes != [0, 1, 2, 3]:
        return chk.failed({"reason": "pair-codes", "codes": codes})
    s = PAPERFOLD_SUBSTITUTION
    for a in range(s.alphabet.size):
        image = s.rules[a].to_array().tolist()
        if image != [2 + (a >> 1), a & 1]:
            return chk.failed({"reason": "rule", "letter": a, "image": str(s.rules[a])})
    first = str(fixed_prefix(s, 1))
    if first != "3":
        return chk.failed({"reason": "first-letter", "fixed_prefix_1": first})
    return chk.passed()


def verify_intertwining(L: int) -> CheckReport:
    """Check that recoding after a double shift equals shifting the
    recoded word on the paper-folding prefix of length L: the block code
    with 2 symbols dropped equals the block code with 1 letter dropped.
    This holds for any binary word; it fails only when the block map
    depends on where a pair sits.

    Blocks i = a .. a + 2^16 - 1 are compared together, from the 2^17 + 2
    symbols that hold pairs a .. a + 2^16, for a = 0, 2^16, 2^17, ...; so
    the pair codes are two arrays of 2^16 letters, not of L / 2, and the
    scan stops at the first block that differs."""
    L = integer(L, "L", lo=4, cap=MAX_PREFIX_LEN)
    if L % 2 != 0:
        raise DomainError("L must be even")
    chk = Check("subst.intertwining", {"L": L},
                "block code intertwines the squared binary shift with the quaternary shift")
    arr = pf_prefix(L).to_array()
    for a in range(0, L // 2 - 1, _PAIR_CHUNK):
        block = arr[2 * a : 2 * a + 2 * _PAIR_CHUNK + 2]
        left = _pair_codes(block[2:])
        right = _pair_codes(block)[1:]
        if not np.array_equal(left, right):
            return chk.failed({"first_mismatch_block": a + int(np.flatnonzero(left != right)[0])})
    return chk.passed()


def verify_intertwining_pairs() -> CheckReport:
    """The block code intertwines the squared binary shift with the
    quaternary shift on every binary word, from the 16 words of length 4.

    The premise, read off the code, is that _pair_codes maps each
    little-endian uint16 pair v = arr[2i] + 256*arr[2i+1] to the high
    byte of 513*v mod 2^16, the same arithmetic at every i, so block i is
    a function of the pair (arr[2i], arr[2i+1]) alone that does not
    depend on i.  Dropping two symbols moves pair i + 1 to block i, so the
    identity of verify_intertwining says that a pair gets the same letter
    at block i as at block i + 1, which the premise gives for every i.
    The 16 words of length 4 check it where the code can show it, every
    pair at block 0 and at block 1; a map that depends on where a pair
    sits fails there.  verify_intertwining is the oracle."""
    chk = Check("subst.intertwining", {"word_length": 4, "words": 16},
                "block code intertwines the squared binary shift with the quaternary shift on "
                "every binary word: identity on all 16 words of length 4, pair codes read off "
                "the code")
    for w in range(16):
        arr = np.array([(w >> k) & 1 for k in (3, 2, 1, 0)], dtype=np.uint8)
        if not np.array_equal(_pair_codes(arr[2:]), _pair_codes(arr)[1:]):
            return chk.failed({"word": "".join(map(str, arr.tolist()))})
    return chk.passed()
