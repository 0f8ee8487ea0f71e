"""Exact dimension-group arithmetic for the substitution subshift.

Everything here is integer or rational arithmetic, exact by construction:
powers of the 4x4 occurrence matrix and their closed form, the nested
lattices G_n / H_n / (G_n)+ of rational 4-vectors, the quotient maps onto
(1/2^n)Z (+) Z, the dyadic scaled-ordered-group normal form with its
positive cone, the order-two twist forced on it, and the running
1s-minus-0s discrepancy that witnesses the twist is not the identity.

The lattice facts hold at every index n >= 2 by one lemma, which
verify_closed_form_induction and verify_lattice_image prove: with
e = 2^(n-2), S = sum(v) and D = v0 - v1, M^n v = (eS + D, eS, eS, eS - D)
for every v.  For q = v / d every lattice fact reads off (eS, D): q is in
G_n iff eS / d and D / d are integers, in H_n iff S = D = 0, and in
(G_n)+ iff also |D| <= eS; the lattices nest, because e doubles from n to
n + 1; the quotient map at stage n sends q in G_{n+2} to (S / d, D / d),
with kernel H_{n+2} and cone |m| <= 2^n s.  The seeded batteries
verify_matrix_closed_form and verify_lattice_properties are its oracles.

Randomised property checks take explicit seeds; since all arithmetic is
exact, sampling is sound (no tolerances) and reports are reproducible.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, ResourceError
from .paperfold import pf_prefix
from .report import Check, CheckReport
from .words import Word

__all__ = [
    "PAPERFOLD_MATRIX",
    "MAX_MATRIX_POWER",
    "MAX_SAMPLES",
    "mat_pow",
    "closed_form_power",
    "verify_matrix_closed_form",
    "verify_closed_form_induction",
    "verify_lattice_image",
    "in_G",
    "in_H",
    "in_G_plus",
    "alpha",
    "alpha_preimage",
    "DyadicRational",
    "DyadicPair",
    "cone_membership",
    "staged_cone_witness",
    "rescale_unit",
    "DyadicInvolution",
    "involution_apply",
    "one_plus_sigma_image",
    "one_plus_sigma_preimage",
    "birkhoff_discrepancy",
    "discrepancy_profile",
    "coboundary_partial_sums",
    "m_sequence",
    "verify_unbounded_discrepancy",
    "verify_coboundary_bound",
    "verify_lattice_properties",
    "verify_cone_identity",
    "verify_involution_algebra",
]

# occurrence matrix of the substitution 3->31, 2->30, 1->21, 0->20:
# entry (i, j) counts letter j in the image of letter i
PAPERFOLD_MATRIX = (
    (1, 0, 1, 0),
    (0, 1, 1, 0),
    (1, 0, 0, 1),
    (0, 1, 0, 1),
)


def _mat_mul(A, B):
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(4)) for j in range(4))
        for i in range(4)
    )


_IDENTITY = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))


MAX_MATRIX_POWER = 4096


def mat_pow(M, n: int):
    """Exact n-th power of a 4x4 integer matrix (arbitrary precision).

    The exponent is capped at MAX_MATRIX_POWER = 4096, which keeps the
    entries of the paper-folding matrix power near 2^4094, well inside
    the decimal-printing limit of Python ints; larger exponents raise
    ResourceError."""
    if n < 0:
        raise DomainError("matrix power exponent must be non-negative")
    if n > MAX_MATRIX_POWER:
        raise ResourceError(f"matrix power {n} exceeds the cap of {MAX_MATRIX_POWER}")
    M = tuple(tuple(int(x) for x in row) for row in M)
    result = _IDENTITY
    base = M
    while n:
        if n & 1:
            result = _mat_mul(result, base)
        base = _mat_mul(base, base)
        n >>= 1
    return result


def closed_form_power(n: int):
    """The closed form C(n) of the n-th power of the occurrence matrix,
    n >= 2: with e = 2^(n-2) the rows are (e + k, e - k, e, e) for
    k = 1, 0, 0, -1."""
    if n < 2:
        raise DomainError("closed form starts at power 2")
    e = 2 ** (n - 2)
    return tuple((e + k, e - k, e, e) for k in (1, 0, 0, -1))


def verify_matrix_closed_form(n_max: int = 20) -> CheckReport:
    """Exact entrywise equality of iterated powers with the closed form."""
    if n_max < 0:
        raise DomainError("n_max must be non-negative")
    chk = Check("dimgroup.matrix-closed-form", {"n_max": n_max},
                "matrix powers match the closed form with entries 2^n, 2^n +/- 1")
    for n in range(0, n_max + 1):
        if mat_pow(PAPERFOLD_MATRIX, n + 2) != closed_form_power(n + 2):
            return chk.failed({"n": n})
    return chk.passed()


def verify_closed_form_induction() -> CheckReport:
    """M^n = closed_form_power(n) for every n >= 2, by induction on n: the
    base M^2 = C(2), and the step M C(n) = C(n+1) at n = 2 and 3.  The
    entries of M C(n) and of C(n+1) are affine in e = 2^(n-2), so the step
    holds at every e once it holds at e = 1 and e = 2."""
    chk = Check("dimgroup.matrix-closed-form", {"base_n": 2, "step_at_n": [2, 3]},
                "M^n equals the closed form C(n) for every n >= 2: M^2 = C(2), and "
                "M C(n) = C(n+1), affine in 2^(n-2), holds at n = 2 and 3")
    if _mat_mul(PAPERFOLD_MATRIX, PAPERFOLD_MATRIX) != closed_form_power(2):
        return chk.failed({"reason": "base", "n": 2})
    for n in (2, 3):
        if _mat_mul(PAPERFOLD_MATRIX, closed_form_power(n)) != closed_form_power(n + 1):
            return chk.failed({"reason": "step", "n": n})
    return chk.passed()


# ---------------------------------------------------------------------------
# lattices of rational 4-vectors
#
# A vector q is scaled to (v, d) with q = v / d and d > 0, not necessarily
# reduced.  Its image r = M^n v is _apply(_power(n), v) by definition, or
# _image(v, n) by the lemma.  Whatever the representation, q lies in G_n iff
# d divides every r_i, in H_n iff r = 0, and in (G_n)+ iff also r >= 0.
# _apply, _image and _membership_triple use &, | and ==, never and, or and
# not, so on Python ints (in_G, in_H, in_G_plus, alpha) they give bools, and
# on equal-length arrays (the lattice battery, one block of samples per
# call) boolean arrays, one entry per sample.


def _scaled(q):
    """(integer vector, common denominator) with q = v / d."""
    q = tuple(Fraction(x) for x in q)
    if len(q) != 4:
        raise DomainError("expected a rational 4-vector")
    d = math.lcm(*(x.denominator for x in q))
    return tuple(x.numerator * (d // x.denominator) for x in q), d


def _power(n: int):
    return mat_pow(PAPERFOLD_MATRIX, n)


def _apply(P, v):
    """The matrix-vector product P v, as a 4-tuple."""
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (e0, e1, e2, e3) = P
    v0, v1, v2, v3 = v
    return (
        a0 * v0 + a1 * v1 + a2 * v2 + a3 * v3,
        b0 * v0 + b1 * v1 + b2 * v2 + b3 * v3,
        c0 * v0 + c1 * v1 + c2 * v2 + c3 * v3,
        e0 * v0 + e1 * v1 + e2 * v2 + e3 * v3,
    )


def _image(v, n: int):
    """M^n v for n >= 2, read off S = sum(v) and D = v0 - v1:
    (eS + D, eS, eS, eS - D) with e = 2^(n-2).  n is capped as in mat_pow."""
    if n > MAX_MATRIX_POWER:
        raise ResourceError(f"matrix power {n} exceeds the cap of {MAX_MATRIX_POWER}")
    v0, v1, v2, v3 = v
    eS, D = (1 << (n - 2)) * (v0 + v1 + v2 + v3), v0 - v1
    return eS + D, eS, eS, eS - D


def _membership_triple(r, d):
    """(in G_n, in H_n, in (G_n)+) of q = v / d, from its image r = M^n v."""
    r0, r1, r2, r3 = r
    integral = (r0 % d == 0) & (r1 % d == 0) & (r2 % d == 0) & (r3 % d == 0)
    positive = integral & (r0 >= 0) & (r1 >= 0) & (r2 >= 0) & (r3 >= 0)
    return integral, (r0 == 0) & (r1 == 0) & (r2 == 0) & (r3 == 0), positive


def _definitional_triple(q, n: int):
    if n < 1:
        raise DomainError("lattice index must be at least 1")
    v, d = _scaled(q)
    return _membership_triple(_apply(_power(n), v), d)


def in_G(q, n: int) -> bool:
    """Whether the n-th matrix power maps q into Z^4 (n >= 1)."""
    return _definitional_triple(q, n)[0]


def in_H(q, n: int) -> bool:
    """Whether the n-th matrix power kills q (n >= 1)."""
    return _definitional_triple(q, n)[1]


def in_G_plus(q, n: int) -> bool:
    """Whether the n-th matrix power maps q into Z^4 with all entries >= 0."""
    return _definitional_triple(q, n)[2]


def alpha(q, n: int) -> "DyadicPair":
    """Quotient map at stage n: q in G_{n+2} goes to (sum(q), q1 - q2)
    inside (1/2^n)Z (+) Z.  Kernel is H_{n+2}."""
    if n < 0:
        raise DomainError("stage must be non-negative")
    v, d = _scaled(q)
    r = _image(v, n + 2)
    if not _membership_triple(r, d)[0]:
        raise DomainError("vector is not in the stage's lattice G_{n+2}")
    # r = (2^n S + D, 2^n S, ...), and d divides every entry
    return DyadicPair(DyadicRational(r[1] // d, n), (r[0] - r[1]) // d)


def alpha_preimage(s, m: int):
    """A canonical preimage (m, 0, s - m, 0) of the target (s, m); it lies
    in G_{n+2} whenever 2^n * s is an integer, and in (G_{n+2})+ exactly
    when the target satisfies the stage's cone inequality."""
    s = Fraction(s) if not isinstance(s, DyadicRational) else s.to_fraction()
    return (Fraction(m), Fraction(0), s - m, Fraction(0))


def verify_lattice_image() -> CheckReport:
    """C(n) v = _image(v, n) for every v and every n >= 2, from the four
    unit vectors at n = 2 and 3: both sides are linear in v and affine in
    e = 2^(n-2).  With verify_closed_form_induction, the module's lemma."""
    chk = Check("dimgroup.lattice-properties", {"units_at_n": [2, 3]},
                "M^n v = (eS + D, eS, eS, eS - D) for every n >= 2 and v: G_n, H_n, (G_n)+, "
                "nesting, quotient kernel and cone read off (eS, D)")
    for n in (2, 3):
        for i, u in enumerate(_IDENTITY):
            if _apply(closed_form_power(n), u) != _image(u, n):
                return chk.failed({"n": n, "unit": i})
    return chk.passed()


# ---------------------------------------------------------------------------
# dyadic normal forms


@dataclass(frozen=True)
class DyadicRational:
    """num / 2^exp in canonical form: exp == 0 or num odd; zero is (0, 0)."""

    num: int
    exp: int

    def __post_init__(self):
        num, exp = int(self.num), int(self.exp)
        if exp < 0:
            raise DomainError("exponent must be non-negative")
        if num == 0:
            exp = 0
        else:
            # num & -num is the lowest set bit of num: this counts its trailing zeros
            k = min((num & -num).bit_length() - 1, exp)
            num >>= k
            exp -= k
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)

    @classmethod
    def from_fraction(cls, f) -> "DyadicRational":
        f = Fraction(f)
        k = f.denominator.bit_length() - 1
        if f.denominator != 2**k:
            raise DomainError(f"{f} is not dyadic (denominator not a power of 2)")
        return cls(f.numerator, k)

    def to_fraction(self) -> Fraction:
        return Fraction(self.num, 2**self.exp)

    def _cmp(self, other) -> int:
        other = _as_dyadic(other)
        lhs = self.num << other.exp
        rhs = other.num << self.exp
        return (lhs > rhs) - (lhs < rhs)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __add__(self, other):
        other = _as_dyadic(other)
        e = max(self.exp, other.exp)
        return DyadicRational(
            (self.num << (e - self.exp)) + (other.num << (e - other.exp)), e
        )

    def __sub__(self, other):
        return self + (-_as_dyadic(other))

    def __neg__(self):
        return DyadicRational(-self.num, self.exp)

    def __mul__(self, other):
        other = _as_dyadic(other)
        return DyadicRational(self.num * other.num, self.exp + other.exp)

    __rmul__ = __mul__

    def halve(self) -> "DyadicRational":
        return DyadicRational(self.num, self.exp + 1)

    def __str__(self):
        return f"{self.num}/2^{self.exp}"

    def to_json(self):
        return str(self)


def _as_dyadic(x) -> DyadicRational:
    if isinstance(x, DyadicRational):
        return x
    if isinstance(x, int):
        return DyadicRational(x, 0)
    return DyadicRational.from_fraction(x)


DYADIC_ZERO = DyadicRational(0, 0)
DYADIC_ONE = DyadicRational(1, 0)


@dataclass(frozen=True)
class DyadicPair:
    """Element (s, m) of Z[1/2] (+) Z; positivity is the cone predicate
    below, not a structural invariant."""

    s: DyadicRational
    m: int

    def __add__(self, other):
        return DyadicPair(self.s + other.s, self.m + other.m)

    def __neg__(self):
        return DyadicPair(-self.s, -self.m)

    def __sub__(self, other):
        return self + (-other)

    def __str__(self):
        return f"({self.s}, {self.m})"

    def to_json(self):
        return {"s": str(self.s), "m": self.m}


def cone_membership(p: DyadicPair) -> bool:
    """The positive cone: s > 0, together with the single boundary
    point (0, 0)."""
    return p.s > DYADIC_ZERO or (p.s == DYADIC_ZERO and p.m == 0)


def staged_cone_witness(p: DyadicPair):
    """Least stage n certifying cone membership: s lies in (1/2^n)Z,
    s >= 0 and |m| <= 2^n * s.  None when p is not in the cone; together
    with cone_membership this is the identity between the stagewise union
    and its closed description."""
    if p.s == DYADIC_ZERO:
        return 0 if p.m == 0 else None
    if p.s < DYADIC_ZERO:
        return None
    n, val = p.s.exp, p.s.num
    while val < abs(p.m):
        val *= 2
        n += 1
    return n


def rescale_unit(p: DyadicPair, old_unit_s: DyadicRational) -> DyadicPair:
    """Divide the dyadic component by a positive power-of-two unit value,
    e.g. map (4, 0) to (1, 0).  Order-preserving on the cone."""
    old_unit_s = _as_dyadic(old_unit_s)
    if old_unit_s <= DYADIC_ZERO:
        raise DomainError("unit value must be positive")
    if old_unit_s.num & (old_unit_s.num - 1):
        raise DomainError("unit value must be a power of 2 to keep values dyadic")
    shift = old_unit_s.num.bit_length() - 1 - old_unit_s.exp
    if shift >= 0:
        return DyadicPair(DyadicRational(p.s.num, p.s.exp + shift), p.m)
    return DyadicPair(DyadicRational(p.s.num << (-shift), p.s.exp), p.m)


@dataclass(frozen=True)
class DyadicInvolution:
    """The order-two twist (s, m) -> (s + m*a, -m) determined by one
    dyadic value a; squaring it is the identity for every a."""

    a: DyadicRational


def involution_apply(inv: DyadicInvolution, p: DyadicPair) -> DyadicPair:
    return DyadicPair(p.s + inv.a * DyadicRational(p.m, 0), -p.m)


def one_plus_sigma_image(inv: DyadicInvolution, p: DyadicPair) -> DyadicPair:
    """p plus its twist; always lands in the integer-component-zero copy
    of the dyadics."""
    return p + involution_apply(inv, p)


def one_plus_sigma_preimage(inv: DyadicInvolution, target: DyadicPair) -> DyadicPair:
    """A preimage of (q, 0) under p -> p + twist(p), namely (q/2, 0)."""
    if target.m != 0:
        raise DomainError("only targets with integer component 0 are attained")
    return DyadicPair(target.s.halve(), 0)


# ---------------------------------------------------------------------------
# Birkhoff discrepancy along the word


def birkhoff_discrepancy(prefix: Word, n: int) -> int:
    """count of 1s minus count of 0s over slots 0..n of the prefix."""
    if not 0 <= n < prefix.length:
        raise DomainError("n out of range for the prefix")
    ones = int(np.count_nonzero(prefix.to_array()[: n + 1]))
    return 2 * ones - (n + 1)


def discrepancy_profile(prefix: Word) -> np.ndarray:
    """Vector of discrepancies at every n, via one cumulative sum."""
    arr = prefix.to_array().astype(np.int64)
    return 2 * np.cumsum(arr) - np.arange(1, arr.size + 1)


def coboundary_partial_sums(prefix: Word, symbol: int = 1) -> np.ndarray:
    """Partial sums of g = f - f(shifted back) for the one-slot cylinder
    indicator f = [slot 0 reads ``symbol``], evaluated along the prefix.
    These telescope, so they stay bounded by 2*max|f| = 2, in contrast to
    the unbounded discrepancy sums."""
    f = (prefix.to_array() == symbol).astype(np.int64)
    if f.size < 2:
        raise DomainError("prefix too short")
    return np.cumsum(f[1:] - f[:-1])


def m_sequence(n: int) -> int:
    """The checkpoint positions: m(0) = 0 and m(n+1) = 2*m(n) + 2 for odd
    n, 2*m(n) + 1 for even n.  m(n) has the parity of n and is at most
    2^(n+1) - 2."""
    if n < 0:
        raise DomainError("index must be non-negative")
    if n > 60:
        raise ResourceError("m-sequence index capped at 60 to stay in machine range")
    m = 0
    for k in range(n):
        m = 2 * m + (2 if k % 2 == 1 else 1)
    return m


def _discrepancies_at(arr: np.ndarray, checkpoints) -> list:
    """Discrepancy 2 * ones - (m + 1) of ``arr`` at each of the increasing
    positions ``checkpoints``, from ``np.count_nonzero`` over the slices
    between consecutive checkpoints; no full-length array is built."""
    out, ones, start = [], 0, 0
    for m in checkpoints:
        ones += int(np.count_nonzero(arr[start : m + 1]))
        start = m + 1
        out.append(2 * ones - (m + 1))
    return out


def verify_unbounded_discrepancy(N: int = 20) -> CheckReport:
    """The discrepancy at checkpoint m(n) equals n + 1 for 0 <= n <= N,
    so the discrepancy sums are unbounded along the word; that is the
    executable obstruction to the twist acting as the identity.

    Only the N + 1 checkpoints are read: the ones are counted slice by
    slice between them, so beyond the prefix the check allocates nothing
    that grows with its length."""
    if N < 0:
        raise DomainError("N must be non-negative")
    if N > 24:
        raise ResourceError("discrepancy checkpoints capped at N = 24")
    checkpoints = [m_sequence(n) for n in range(N + 1)]
    chk = Check("dimgroup.discrepancy-growth", {"N": N, "prefix_len": checkpoints[-1] + 1},
                "discrepancy at checkpoint m(n) equals n+1 (unbounded growth)")
    arr = pf_prefix(checkpoints[-1] + 1).to_array()
    for n, (mn, observed) in enumerate(zip(checkpoints, _discrepancies_at(arr, checkpoints))):
        if observed != n + 1:
            return chk.failed({"n": n, "m_n": mn, "observed": observed})
    return chk.passed()


# the coboundary check runs over chunks of this many symbols
_COBOUNDARY_CHUNK = 1 << 20


def _coboundary_max_abs(arr: np.ndarray, symbol: int):
    """For f = [arr == symbol], the largest |partial sum| of
    f[i+1] - f[i], and whether every partial sum equals its telescoped
    form f[i+1] - f[0].

    The sums run over chunks of 2^20 symbols, the running sum carried from
    chunk to chunk, and the maximum is taken over all chunks even after a
    mismatch.  Each chunk's differences go straight into one reused int32
    buffer that is summed in place (int8 differences would make
    ``np.cumsum`` copy them to int32 first)."""
    if arr.size < 2:
        raise DomainError("prefix too short")
    f0 = int(arr[0] == symbol)
    running, max_abs, telescopes = 0, 0, True
    f_buf = np.empty(min(arr.size, _COBOUNDARY_CHUNK + 1), dtype=bool)
    sums_buf = np.empty(f_buf.size - 1, dtype=np.int32)
    for a in range(1, arr.size, _COBOUNDARY_CHUNK):
        chunk = arr[a - 1 : a + _COBOUNDARY_CHUNK]
        f = np.equal(chunk, symbol, out=f_buf[: chunk.size]).view(np.int8)
        sums = np.subtract(f[1:], f[:-1], out=sums_buf[: chunk.size - 1])
        np.cumsum(sums, out=sums)
        sums += running
        running = int(sums[-1])
        max_abs = max(max_abs, int(sums.max()), -int(sums.min()))
        # sums - f[i+1] is -f[0] everywhere iff the chunk telescopes
        sums -= f[1:]
        telescopes = telescopes and int(sums.min()) == int(sums.max()) == -f0
    return max_abs, telescopes


def verify_coboundary_bound(prefix_len: int = 2**16) -> CheckReport:
    """Coboundary control: for both one-slot cylinder indicators the
    partial sums stay bounded by 2 and agree with their telescoped form.

    The sums are formed over chunks of 2^20 symbols in int32, the running
    sum carried across chunks, so beyond the prefix the check holds a few
    chunk-sized buffers whatever ``prefix_len`` is.  int32 is exact: a
    partial sum has at most prefix_len - 1 terms in {-1, 0, 1}, and
    prefix_len <= MAX_PREFIX_LEN = 2^31 - 1.  A failure reports the largest
    |sum| over the whole prefix."""
    chk = Check("dimgroup.coboundary-bound", {"prefix_len": prefix_len},
                "cylinder coboundary partial sums stay bounded by 2")
    arr = pf_prefix(prefix_len).to_array()
    for symbol in (0, 1):
        max_abs, telescopes = _coboundary_max_abs(arr, symbol)
        if not telescopes or max_abs > 2:
            return chk.failed({"symbol": symbol, "max_abs": max_abs})
    return chk.passed()


# ---------------------------------------------------------------------------
# seeded property batteries (exact, no tolerances)
#
# Every battery draws from the getrandbits of one random.Random(seed).  In
# CPython, randint(lo, hi) is lo + r, where r = getrandbits(k) is redrawn
# while r >= w, with w = hi - lo + 1 and k = w.bit_length().  _below is that
# loop, drawn one value at a time by the cone and involution batteries; the
# lattice battery reads the same stream in bulk (_RandintBlocks below).  So
# the batteries consume the stream exactly as the randint calls they
# replace, and a seed keeps its reports; the tests pin both against randint
# itself.


MAX_SAMPLES = 1_000_000


def _check_samples(samples: int) -> None:
    if samples < 1:
        raise DomainError("samples must be at least 1")
    if samples > MAX_SAMPLES:
        raise ResourceError(f"samples {samples} exceeds the cap of {MAX_SAMPLES}")


def _below(getrandbits, w: int) -> int:
    """A uniform draw from range(w), w >= 1: randint(lo, lo + w - 1) - lo."""
    k = w.bit_length()
    while (r := getrandbits(k)) >= w:
        pass
    return r


def _draw_cone_pair(getrandbits):
    """A random (s, m) of the cone battery: s = DyadicRational(randint(-2^20,
    2^20), randint(0, 20)) and m = randint(-2^20, 2^20)."""
    num = _below(getrandbits, 2**21 + 1) - 2**20
    exp = _below(getrandbits, 21)
    return DyadicPair(DyadicRational(num, exp), _below(getrandbits, 2**21 + 1) - 2**20)


def _draw_twist(getrandbits):
    """A random (twist, p) of the involution battery: the twist value a and
    the dyadic part of p are DyadicRational(randint(-1024, 1024),
    randint(0, 10)), and the integer part of p is randint(-1024, 1024)."""
    a = DyadicRational(_below(getrandbits, 2049) - 1024, _below(getrandbits, 11))
    s = DyadicRational(_below(getrandbits, 2049) - 1024, _below(getrandbits, 11))
    return DyadicInvolution(a), DyadicPair(s, _below(getrandbits, 2049) - 1024)


# The lattice battery's draw stream.  getrandbits(32 * N) returns the
# generator's next N 32-bit words with the first one in the lowest bits, and
# getrandbits(k) for k <= 32 is the next word >> (32 - k).  So one randint
# field, with its (k, w) as above, reads the first word at or after the
# current position whose top k bits are below w, and the next field starts
# one word later.  For each field kind an "after" map sends every position
# of a window of words to one past that word.  Composing the maps of a
# record's fields in order gives the map from a record's start to its end,
# so the record starts are walked with one Python step per record, and every
# field of the records in the window is then gathered at once.

# samples per predicate block, and words per getrandbits call
_BLOCK = 1024
_FETCH_WORDS = 1 << 15


def _after(words, lo, hi):
    """For each position 0..size + 1 of ``words``: one past the first word
    at or after it that randint(lo, hi) accepts, or size + 1 (none left)."""
    w = hi - lo + 1
    accepted = words < (w << (32 - w.bit_length()))  # the top bits are below w
    dead = words.size + 1
    ends = np.append(np.flatnonzero(accepted) + 1, dead)
    # how many accepted words lie before each position
    before = np.zeros(dead + 1, dtype=np.intp)
    np.cumsum(accepted, out=before[1:-1])
    before[-1] = before[-2]
    return ends[before]


class _RandintBlocks:
    """The randint draws of one random.Random, read in bulk.

    ``take(fields, count)`` returns the next ``count`` records as an int64
    array of shape (len(fields), count), where a record is one
    randint(lo, hi) for each (lo, hi) in ``fields``, drawn in that order.
    Words are fetched _FETCH_WORDS at a time, and those after the last
    record taken are kept for the next call."""

    def __init__(self, getrandbits):
        self._getrandbits = getrandbits
        self._words = np.empty(0, dtype="<u4")

    def take(self, fields, count):
        parts, size, left = [], 0, count
        while left:
            # a draw is accepted with probability at least 1/2, so a record
            # reads about two words per field; the records a window misses
            # are read from the next one, and a window that held no whole
            # record is followed by one twice as large
            size = max(2 * len(fields) * left, 2 * size)
            while self._words.size < size:
                fetched = self._getrandbits(32 * _FETCH_WORDS).to_bytes(4 * _FETCH_WORDS, "little")
                self._words = np.concatenate((self._words, np.frombuffer(fetched, dtype="<u4")))
            window = self._words[:size]
            after = {f: _after(window, *f) for f in set(fields)}
            ends = np.arange(size + 2)
            for f in fields:
                ends = after[f][ends]
            ends, dead = memoryview(ends), size + 1
            starts, s = [], 0
            while len(starts) < left and (t := ends[s]) != dead:
                starts.append(s)
                s = t
            pos = np.array(starts, dtype=np.intp)
            part = np.empty((len(fields), len(starts)), dtype=np.int64)
            for row, (lo, hi) in zip(part, fields):
                pos = after[lo, hi][pos]
                row[:] = window[pos - 1] >> (32 - (hi - lo + 1).bit_length())
                row += lo
            parts.append(part)
            self._words = self._words[s:]
            size -= s
            left -= len(starts)
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


# randint(-1024, 1024) and randint(1, 1024): every numerator and denominator
_NUM, _DEN = (-1024, 1024), (1, 1024)
# a random rational 4-vector q_i = a_i / b_i, drawn a_0, b_0, a_1, b_1, ...
_VECTOR_FIELDS = (_NUM, _DEN) * 4


def _member_fields(n):
    """x, k, m, a1, a2, b1, b2 of a random member of G_n; k is
    randint(0, n - 2), not drawn at n = 2."""
    return (_NUM, *([(0, n - 2)] if n > 2 else []), _NUM, _NUM, _DEN, _NUM, _DEN)


def _vectors(fields):
    """Random vectors q_i = a_i / b_i scaled to (v, d), from the rows
    a_0, b_0, ..., a_3, b_3 of their drawn fields."""
    a0, b0, a1, b1, a2, b2, a3, b3 = fields
    d = np.lcm(np.lcm(b0, b1), np.lcm(b2, b3))
    return (a0 * (d // b0), a1 * (d // b1), a2 * (d // b2), a3 * (d // b3)), d


def _members(fields, n):
    """Random members of G_n scaled to (v, d), as (v, d, x, k, m), from the
    rows of their drawn fields: the canonical preimage (m, 0, s - m, 0) of
    the target (s, m) = (x / 2^k, m) plus the kernel element
    (a, a, b, -2a - b) with a = a1 / a2 and b = b1 / b2."""
    x, k, m, a1, a2, b1, b2 = fields if n > 2 else (fields[0], 0 * fields[0], *fields[1:])
    d = (a2 * b2) << k
    md, ad, bd = m * d, (a1 * b2) << k, (b1 * a2) << k
    return (md + ad, ad, x * a2 * b2 - md + bd, -2 * ad - bd), d, x, k, m


# The battery runs in int64 up to this index_max and on object arrays of
# Python ints beyond it.  At index n it multiplies by M^n and M^(n+1),
# whose entries are at most 2^(n-1) + 1 <= 2^n, so an image entry, and
# every partial sum of its four products, is at most 2^(n+2) max |v_i|.
#  - A random vector has |v_i| = |a_i| d / b_i <= 2^10 * 2^30, since d / b_i
#    divides the product of the other three denominators.  Its images stay
#    below 2^(n+42), and so do e * sum(v) and eS + D of the (S, D) image.
#  - A member has k <= n - 2 and d = a2 b2 2^k <= 2^(n+18), so |m d| <=
#    2^(n+28), |a1 b2 2^k| and |b1 a2 2^k| are at most 2^(n+18), and
#    |x a2 b2| <= 2^30 <= 2^(n+28).  Each |v_i| is then below 2^(n+30), its
#    images below 2^(2n+32), and sum(v) << k below 2^(2n+30).
#  - The canonical preimage (m 2^k, 0, x - m 2^k, 0) is below 2^(n+10).
# So every intermediate value stays below 2^(2n+32), which is 2^62 at
# n = 15, inside int64; at n = 16 the bound reaches 2^64.
_INT64_INDEX_MAX = 15


def _fraction_text(v, d, i):
    """The witness q = v / d of sample ``i``."""
    return {"q": [str(Fraction(int(x[i]), int(d[i]))) for x in v]}


def _target_text(x, k, m, i):
    """The witness target (x / 2^k, m) of sample ``i``."""
    return {"target": [str(Fraction(int(x[i]), 1 << int(k[i]))), int(m[i])]}


def verify_lattice_properties(index_max: int = 12, samples: int = 10_000, seed: int = 42) -> CheckReport:
    """Battery over lattice indices 2..index_max with ``samples`` draws per
    index: definitional vs closed-form membership agreement, nesting of
    G/H/G+ across consecutive indices, the quotient-map kernel identity,
    surjectivity witnesses, stage-independence of the quotient map, and
    the cone correspondence for canonical preimages.

    Each sample pair is one random vector q_i = a_i / b_i and one random
    member of G_n: the canonical preimage (m, 0, s - m, 0) of a random
    target (s, m) = (x / 2^k, m) plus a random element (a, a, b, -2a - b)
    of the stage's kernel, with a = a1 / a2 and b = b1 / b2.  Every
    numerator is randint(-1024, 1024), every denominator randint(1, 1024),
    and k is randint(0, n - 2), not drawn at n = 2.  Both are scaled to
    integers (v, d) with q = v / d.

    The draws are those randint calls of random.Random(seed), in their
    order, read in bulk by _RandintBlocks, and the predicates run over
    blocks of at most 1024 samples as numpy arrays.  Every decision reads a
    definitional image M^k v, with M^k from mat_pow, at k = n or n + 1,
    through _membership_triple; the (S, D) image of the lemma is checked
    against the image at n, never used in its place, so the battery is the
    lemma's sampled oracle.  The arrays are int64 up to index_max = 15
    (_INT64_INDEX_MAX, whose bound keeps every value below 2^62), and
    object arrays of Python ints above it.  A failure names the lowest
    failing sample of the first block that fails and the first check it
    fails, in the order listed above, as a loop over the samples would.

    The total work (index_max - 1) * samples is capped at MAX_SAMPLES, and
    every cap is checked before any matrix power is built."""
    if index_max < 2:
        raise DomainError("index_max must be at least 2")
    if index_max > MAX_MATRIX_POWER - 1:
        raise ResourceError(f"index_max {index_max} exceeds the cap of {MAX_MATRIX_POWER - 1}")
    _check_samples(samples)
    if (index_max - 1) * samples > MAX_SAMPLES:
        raise ResourceError(
            f"{index_max - 1} indices x {samples} samples exceeds the cap of {MAX_SAMPLES}")
    chk = Check("dimgroup.lattice-properties", {"index_max": index_max, "samples": samples},
                "lattice membership, nesting, quotient kernel and cone all agree exactly", seed=seed)
    draws = _RandintBlocks(random.Random(seed).getrandbits)
    dtype = np.int64 if index_max <= _INT64_INDEX_MAX else object

    for n in range(2, index_max + 1):
        P, P_next, e = _power(n), _power(n + 1), 1 << (n - 2)
        fields = _VECTOR_FIELDS + _member_fields(n)
        for done in range(0, samples, _BLOCK):
            F = draws.take(fields, min(_BLOCK, samples - done)).astype(dtype, copy=False)
            v, d = _vectors(F[:8])
            got = _membership_triple(_apply(P, v), d)
            cf = _membership_triple(_image(v, n), d)
            nxt = _membership_triple(_apply(P_next, v), d)

            u, dm, x, k, m = _members(F[8:], n)
            in_g, in_h, _ = _membership_triple(_apply(P, u), dm)
            base = (m << k, 0, x - (m << k), 0)
            staged_ok = (x >= 0) & ((abs(m) << k) <= e * x)
            # (reason, failing samples, witness, its arrays), in check order
            checks = (
                ("closed-form-disagrees",
                 (got[0] != cf[0]) | (got[1] != cf[1]) | (got[2] != cf[2]), _fraction_text, (v, d)),
                # nesting into the next stage: on booleans, a > b is a and not b
                ("nesting-violated",
                 (got[0] > nxt[0]) | (got[1] > nxt[1]) | (got[2] > nxt[2]), _fraction_text, (v, d)),
                ("constructed-member-outside", ~in_g, _fraction_text, (u, dm)),
                # the quotient map at stage n - 2 sends u / dm to (sum(u), u1 - u2) / dm
                ("quotient-map-wrong-target",
                 ((sum(u) << k) != x * dm) | (u[0] - u[1] != m * dm), _target_text, (x, k, m)),
                # the map does not depend on the stage it is computed at: stage
                # n - 1 gives the same value, provided the member is in G_{n+1}
                ("stage-dependence",
                 ~_membership_triple(_apply(P_next, u), dm)[0], _target_text, (x, k, m)),
                ("kernel-identity", in_h != ((x == 0) & (m == 0)), _fraction_text, (u, dm)),
                # canonical preimage lies in the positive set iff the target
                # satisfies the stage's cone inequality
                ("cone-correspondence",
                 _membership_triple(_apply(P, base), 1 << k)[2] != staged_ok, _target_text, (x, k, m)),
            )
            failing = np.logical_or.reduce([bad for _, bad, _, _ in checks])
            if failing.any():
                i = int(failing.argmax())
                reason, _, text, arrays = next(c for c in checks if c[1][i])
                return chk.failed({"reason": reason, "index": n, **text(*arrays, i)})
    return chk.passed()


def verify_cone_identity(samples: int = 10_000, seed: int = 42) -> CheckReport:
    """Staged-vs-direct cone membership agreement on the dyadic grid
    |num| <= 2^20, exp <= 20, |m| <= 2^20, with explicit stage witnesses,
    plus the unit normalisation facts: the all-ones vector maps to (4, 0)
    and rescaling by 4 makes it (1, 0)."""
    _check_samples(samples)
    chk = Check("dimgroup.cone-identity", {"samples": samples},
                "staged cone union equals {s > 0} plus the origin; unit maps to (1,0)", seed=seed)
    getrandbits = random.Random(seed).getrandbits

    def fail(reason, payload):
        return chk.failed({"reason": reason, **payload})

    unit_pair = alpha((1, 1, 1, 1), 0)
    if unit_pair != DyadicPair(DyadicRational(4, 0), 0):
        return fail("unit-image", {"got": str(unit_pair)})
    if rescale_unit(unit_pair, DyadicRational(4, 0)) != DyadicPair(DYADIC_ONE, 0):
        return fail("unit-rescale", {"got": str(rescale_unit(unit_pair, DyadicRational(4, 0)))})

    specials = [
        DyadicPair(DYADIC_ZERO, 0),
        DyadicPair(DYADIC_ZERO, 5),
        DyadicPair(DyadicRational(1, 3), 1000),
        DyadicPair(DyadicRational(-1, 2), 0),
    ]
    draws = (_draw_cone_pair(getrandbits) for _ in range(samples))
    for p in itertools.chain(specials, draws):
        direct = cone_membership(p)
        witness_n = staged_cone_witness(p)
        if (witness_n is not None) != direct:
            return fail("staged-vs-direct", {"p": str(p)})
        if witness_n is not None:
            ok = (
                p.s.exp <= witness_n
                and p.s >= DYADIC_ZERO
                and abs(p.m) <= p.s.num * 2 ** (witness_n - p.s.exp)
            )
            if not ok:
                return fail("witness-invalid", {"p": str(p), "witness": witness_n})
        # rescaling by a positive power of 2 preserves the cone
        if cone_membership(rescale_unit(p, DyadicRational(4, 0))) != direct:
            return fail("rescale-not-order-preserving", {"p": str(p)})
    return chk.passed()


def verify_involution_algebra(samples: int = 1000, seed: int = 42) -> CheckReport:
    """For random dyadic twist values a: the twist squares to the
    identity and fixes every (q, 0); adding the twisted copy always lands
    in {(., 0)} and attains every sampled (q, 0) via the halved preimage."""
    _check_samples(samples)
    chk = Check("dimgroup.involution", {"samples": samples},
                "twist is an exact involution fixing (q, 0); 1+twist maps onto {(., 0)}", seed=seed)
    getrandbits = random.Random(seed).getrandbits

    def fail(reason, payload):
        return chk.failed({"reason": reason, **payload})

    for _ in range(samples):
        inv, p = _draw_twist(getrandbits)
        if involution_apply(inv, involution_apply(inv, p)) != p:
            return fail("not-an-involution", {"a": str(inv.a), "p": str(p)})
        fixed = DyadicPair(p.s, 0)
        if involution_apply(inv, fixed) != fixed:
            return fail("does-not-fix-dyadics", {"a": str(inv.a), "p": str(fixed)})
        image = one_plus_sigma_image(inv, p)
        if image.m != 0:
            return fail("image-not-integer-free", {"a": str(inv.a), "p": str(p)})
        target = DyadicPair(p.s, 0)
        pre = one_plus_sigma_preimage(inv, target)
        if one_plus_sigma_image(inv, pre) != target:
            return fail("preimage-wrong", {"a": str(inv.a), "target": str(target)})
    return chk.passed()
