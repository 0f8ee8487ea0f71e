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

The twist sigma_a(s, m) = (s + a m, -m) is multilinear in s, m and a, and
so is each side of its five identities (it squares to the identity, fixes
every (q, 0), 1 + sigma_a maps onto {(q, 0)} with preimage (q/2, 0), and
sigma_a(0, 1) = (a, -1) pins the twist value).  verify_twist_identity
checks them on a 2x2x2 grid, which proves them for every dyadic a and s
and every integer m; the seeded battery verify_involution_algebra is its
oracle.

The least stage of a point (s, m) of the cone, s = num / 2^exp > 0, is
exp + (c - 1).bit_length() with c = max(1, ceil(|m| / num)).  It is valid
and least by the bracket 2^(b-1) <= x < 2^b of b = x.bit_length(), and
cone membership on both sides is a case split on the sign of num, which
rescaling by a power of 2 keeps.  verify_cone_stage checks the bracket at
its edges and one point of each sign class; the seeded battery
verify_cone_identity is its oracle.

The discrepancy at checkpoint m(n) is n + 1 for every n by two
recursion steps of the word, which verify_discrepancy_recursion evaluates;
verify_unbounded_discrepancy is its oracle.

So every one of the suite's dimension-group checks is a proof, and none
draws a random number.
The batteries take explicit non-negative seeds; since all arithmetic is
exact, sampling is sound (no tolerances) and reports are reproducible.
A battery draws each field (lo, hi) of a sample from one 32-bit word of
random.Random(seed) as lo + ((word * w) >> 32), with w = hi - lo + 1.
The draw is biased by less than w / 2^32; a battery searches for
counterexamples and estimates nothing, so it needs no uniformity.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, integer, rational
from .paperfold import MAX_PREFIX_LEN, MAX_SCAN_GENERATION, pf_prefix, symbol
from .report import Check, CheckReport
from .words import Word

__all__ = [
    "PAPERFOLD_MATRIX",
    "MAX_MATRIX_POWER",
    "MAX_DYADIC_EXP",
    "MAX_SAMPLES",
    "MAX_M_INDEX",
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
    "verify_discrepancy_recursion",
    "verify_coboundary_bound",
    "verify_lattice_properties",
    "verify_cone_identity",
    "verify_cone_stage",
    "verify_involution_algebra",
    "verify_twist_identity",
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
    n = integer(n, "matrix power", lo=0, cap=MAX_MATRIX_POWER)
    M = tuple(tuple(integer(x, "matrix entry") for x in row) for row in M)
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
    k = 1, 0, 0, -1.  n is capped as in mat_pow."""
    n = integer(n, "matrix power", lo=2, cap=MAX_MATRIX_POWER)
    e = 2 ** (n - 2)
    return tuple((e + k, e - k, e, e) for k in (1, 0, 0, -1))


def verify_matrix_closed_form(n_max: int = 20) -> CheckReport:
    """Exact entrywise equality of iterated powers with the closed form,
    for the powers 2 .. n_max + 2, which mat_pow caps."""
    n_max = integer(n_max, "n_max", lo=0, cap=MAX_MATRIX_POWER - 2)
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
    """(integer vector, common denominator) with q = v / d; each entry is
    an integer or a Fraction (errors.rational)."""
    try:
        q = tuple(rational(x, "vector entry") for x in q)
    except TypeError:  # q is not iterable
        raise DomainError(f"expected a rational 4-vector, not {type(q).__name__}") from None
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
    (eS + D, eS, eS, eS - D) with e = 2^(n-2).  Its callers cap n as
    mat_pow does."""
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
    n = integer(n, "lattice index", lo=1, cap=MAX_MATRIX_POWER)
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
    n = integer(n, "stage", lo=0, cap=MAX_MATRIX_POWER - 2)
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
    m = integer(m, "m")
    s = s.to_fraction() if isinstance(s, DyadicRational) else Fraction(rational(s, "s"))
    return (Fraction(m), Fraction(0), s - m, Fraction(0))


def verify_lattice_image() -> CheckReport:
    """C(n) v = _image(v, n) for every v and every n >= 2, from the four
    unit vectors at n = 2 and 3: both sides are linear in v and affine in
    e = 2^(n-2).  With verify_closed_form_induction, the module's lemma.

    Premise: dimgroup.matrix-closed-form."""
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


# the given exponent of every DyadicRational made: each comparison and sum
# shifts a numerator by one, which the cap keeps under 8 KiB, and a sum,
# product or halving past it is a ResourceError; it is above
# MAX_MATRIX_POWER, so every alpha value fits
MAX_DYADIC_EXP = 2**16


@dataclass(frozen=True)
class DyadicRational:
    """num / 2^exp in canonical form: exp == 0 or num odd; zero is (0, 0)."""

    num: int
    exp: int

    def __post_init__(self):
        num, exp = integer(self.num, "numerator"), integer(self.exp, "exponent", lo=0, cap=MAX_DYADIC_EXP)
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
        """f, an integer or a dyadic Fraction (errors.rational)."""
        f = rational(f, "dyadic value")
        k = f.denominator.bit_length() - 1
        if f.denominator != 2**k:
            raise DomainError(f"{f} is not dyadic (denominator not a power of 2)")
        return cls(f.numerator, k)

    def to_fraction(self) -> Fraction:
        return Fraction(self.num, 2**self.exp)

    def __eq__(self, other):
        # equal by value to an int or a Fraction; any other type is
        # NotImplemented, so == never raises where < refuses the operand
        if isinstance(other, DyadicRational):
            return self.num == other.num and self.exp == other.exp
        try:
            f = rational(other, "dyadic value")
        except DomainError:
            return NotImplemented
        return self.num * f.denominator == f.numerator << self.exp

    def __hash__(self):
        # the hash of the value, as for ints and Fractions equal to it
        return hash(self.to_fraction())

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

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_as_dyadic(other))

    def __rsub__(self, other):
        return _as_dyadic(other) - self

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
    return DyadicRational.from_fraction(x)


DYADIC_ZERO = DyadicRational(0, 0)
DYADIC_ONE = DyadicRational(1, 0)


@dataclass(frozen=True)
class DyadicPair:
    """Element (s, m) of Z[1/2] (+) Z; positivity is the cone predicate
    below, not a structural invariant."""

    s: DyadicRational
    m: int

    def __post_init__(self):
        if not isinstance(self.s, DyadicRational):
            raise DomainError(f"s must be a DyadicRational, not {type(self.s).__name__}")
        object.__setattr__(self, "m", integer(self.m, "m"))

    def __add__(self, other):
        return DyadicPair(self.s + other.s, self.m + other.m)

    def __neg__(self):
        return DyadicPair(-self.s, -self.m)

    def __sub__(self, other):
        return self + (-other)

    def __str__(self):
        return f"({self.s}, {self.m})"


def cone_membership(p: DyadicPair) -> bool:
    """The positive cone: s > 0, together with the single boundary
    point (0, 0)."""
    return p.s > DYADIC_ZERO or (p.s == DYADIC_ZERO and p.m == 0)


def staged_cone_witness(p: DyadicPair):
    """Least stage n certifying cone membership: s lies in (1/2^n)Z,
    s >= 0 and |m| <= 2^n * s.  None when p is not in the cone; together
    with cone_membership this is the identity between the stagewise union
    and its closed description.

    For s = num / 2^exp > 0 the stage is exp + (c - 1).bit_length(), with
    c = max(1, ceil(|m| / num)) the least c with c * num >= |m|."""
    num, exp = p.s.num, p.s.exp
    if num <= 0:
        return 0 if num == 0 and p.m == 0 else None
    c = max(1, -(-abs(p.m) // num))
    return exp + (c - 1).bit_length()


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
    """The twist of p = (s, m) by inv: (s + a m, -m) with a = inv.a.
    Applying it twice gives p back."""
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
    n = integer(n, "n", lo=0, hi=prefix.length - 1)
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
    symbol = integer(symbol, "symbol", lo=0, hi=prefix.alphabet.size - 1)
    f = (prefix.to_array() == symbol).astype(np.int64)
    if f.size < 2:
        raise DomainError("prefix too short")
    return np.cumsum(f[1:] - f[:-1])


# m(n) < 2^(n+1) stays a 62-bit int64 up to this index
MAX_M_INDEX = 60


def m_sequence(n: int) -> int:
    """The checkpoint positions: m(0) = 0 and m(n+1) = 2*m(n) + 2 for odd
    n, 2*m(n) + 1 for even n.  m(n) has the parity of n and is at most
    2^(n+1) - 2."""
    n = integer(n, "m-sequence index", lo=0, cap=MAX_M_INDEX)
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
    that grows with its length.  The prefix, m(N) + 1 <= 2^(N+1) - 1
    symbols, is at most paperfold.MAX_SCAN_GENERATION's."""
    N = integer(N, "N", lo=0, cap=MAX_SCAN_GENERATION)
    checkpoints = [m_sequence(n) for n in range(N + 1)]
    chk = Check("dimgroup.discrepancy-growth", {"N": N, "prefix_len": checkpoints[-1] + 1},
                "discrepancy at checkpoint m(n) equals n+1 (unbounded growth)")
    arr = pf_prefix(checkpoints[-1] + 1).to_array()
    for n, (mn, observed) in enumerate(zip(checkpoints, _discrepancies_at(arr, checkpoints))):
        if observed != n + 1:
            return chk.failed({"n": n, "m_n": mn, "observed": observed})
    return chk.passed()


def verify_discrepancy_recursion() -> CheckReport:
    """The discrepancy at checkpoint m(n) equals n + 1 for every n: the
    lemma behind verify_unbounded_discrepancy.

    Premise: paperfold.self-similarity.

    Let D(k) be the count of 1s minus the count of 0s over slots 0 .. k.
    By t[2j] = 1 - (j mod 2) and t[2j+1] = t[j], the even slots 0 .. 2m
    add 1 - 1 + 1 - ... = [m even] and the odd slots 1 .. 2m+1 add D(m),
    so D(2m+1) = D(m) + [m even], and D(2m+2) = D(2m+1) + 2 t[2m+2] - 1 =
    D(2m+1) + (1 if m is odd, else -1).  m(n) has the parity of n, and
    m(n+1) = 2 m(n) + 1 for even n, 2 m(n) + 2 for odd n, so each step adds
    [m even] = 1 or 0 + 1 = 1, and D(m(0)) = D(0) = 1 gives D(m(n)) = n + 1.
    The gains depend on m only through its parity, so the check evaluates
    the base and one step of each parity, at n = 0 and 1: m_sequence's
    steps, and the gains from the positional rule (paperfold.symbol)."""
    chk = Check("dimgroup.discrepancy-growth", {"n": [0, 1]},
                "discrepancy at checkpoint m(n) equals n+1 for every n (unbounded growth): "
                "D(2m+1) = D(m) + [m even] and D(2m+2) = D(2m+1) + (1 if m odd else -1), "
                "one step of each parity")
    if m_sequence(0) != 0 or 2 * symbol(0) - 1 != 1:
        return chk.failed({"reason": "base"})
    for n in (0, 1):
        m, nxt = m_sequence(n), m_sequence(n + 1)
        if nxt != 2 * m + 1 + n % 2:
            return chk.failed({"reason": "checkpoint", "n": n, "m_n": m, "m_next": nxt})
        gain = sum(2 * symbol(2 * j) - 1 for j in range(m + 1))  # D(2m+1) - D(m)
        if nxt == 2 * m + 2:
            gain += 2 * symbol(2 * m + 2) - 1
        if gain != 1:
            return chk.failed({"reason": "step", "n": n, "m_n": m, "gain": gain})
    return chk.passed()


# the coboundary check runs over chunks of this many symbols
_COBOUNDARY_CHUNK = 1 << 18


def _coboundary_max_abs(arr: np.ndarray, symbol: int):
    """For f = [arr == symbol], the largest |partial sum| of
    f[i+1] - f[i], and whether every partial sum equals its telescoped
    form f[i+1] - f[0].

    The sums run over chunks of 2^18 symbols, the running sum carried from
    chunk to chunk, and the maximum is taken over all chunks even after a
    mismatch.  Each chunk's differences go straight into one reused int32
    buffer that is summed in place (int8 differences would make
    ``np.cumsum`` copy them to int32 first).  Needs arr.size >= 2."""
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

    This cannot fail: for a 0/1 indicator f the partial sums of
    f[i+1] - f[i] telescope to f[i] - f[0] on every word, so the suite does
    not run it.  Only the benchmark's ``scan`` workload and its own tests
    keep it.

    The sums are formed over chunks of 2^18 symbols in int32, the running
    sum carried across chunks, so beyond the prefix the check holds a few
    chunk-sized buffers whatever ``prefix_len`` is.  int32 is exact: a
    partial sum has at most prefix_len - 1 terms in {-1, 0, 1}, and
    prefix_len <= MAX_PREFIX_LEN = 2^31 - 1.  A failure reports the largest
    |sum| over the whole prefix."""
    prefix_len = integer(prefix_len, "prefix length", lo=2, cap=MAX_PREFIX_LEN)
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
# Every battery draws through _draws from one random.Random(seed), whose
# stream does not depend on the numpy version.


MAX_SAMPLES = 1_000_000

# records per block of draws
_BLOCK = 1024


def _battery(samples: int, seed: int) -> tuple:
    """The samples and seed of a seeded battery, as plain ints."""
    # random.Random seeds from |seed|, so -1 would draw the values of 1
    return integer(samples, "samples", lo=1, cap=MAX_SAMPLES), integer(seed, "seed", lo=0)


def _draws(getrandbits, fields, count):
    """The next ``count`` records as an int64 array of shape
    (len(fields), count).  Record j is words j F .. j F + F - 1 of one
    getrandbits(32 F count) call, F = len(fields), word 0 in its lowest
    bits, and its field (lo, hi) is lo + ((word * w) >> 32) of its word,
    with w = hi - lo + 1.

    A field is biased by less than w / 2^32, which a property battery, a
    search for counterexamples, does not mind.  Every w is at most
    2^21 + 1, so the product stays below 2^54."""
    size = len(fields) * count
    words = np.frombuffer(getrandbits(32 * size).to_bytes(4 * size, "little"), dtype="<u4")
    lo, hi = np.array(fields, dtype=np.int64).T[:, :, None]
    return lo + ((words.reshape(count, len(fields)).T * (hi - lo + 1)) >> 32)


def _records(getrandbits, fields, samples):
    """``samples`` records of _draws, read _BLOCK at a time, one tuple of
    Python ints per record."""
    for done in range(0, samples, _BLOCK):
        yield from zip(*_draws(getrandbits, fields, min(_BLOCK, samples - done)).tolist())


# the fields of every numerator and denominator
_NUM, _DEN = (-1024, 1024), (1, 1024)
# a random rational 4-vector q_i = a_i / b_i, drawn a_0, b_0, a_1, b_1, ...
_VECTOR_FIELDS = (_NUM, _DEN) * 4


def _member_fields(n):
    """x, k, m, a1, a2, b1, b2 of a random member of G_n; k is in
    [0, n - 2], not drawn at n = 2."""
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
    numerator is drawn from [-1024, 1024], every denominator from
    [1, 1024], and k from [0, n - 2], not drawn at n = 2.  Both are scaled
    to integers (v, d) with q = v / d.

    The fields of a sample pair are consecutive 32-bit words of
    random.Random(seed), the field (lo, hi) lo + ((word * w) >> 32) with
    w = hi - lo + 1 (_draws): biased by less than w / 2^32, which a
    property battery does not mind.  The samples come in blocks of at most
    1024, one getrandbits call each, and the predicates run over a block
    at a time as numpy arrays.  Every decision reads a
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
    index_max = integer(index_max, "index_max", lo=2, cap=MAX_MATRIX_POWER - 1)
    samples, seed = _battery(samples, seed)
    integer((index_max - 1) * samples, "lattice sample pairs", cap=MAX_SAMPLES)
    chk = Check("dimgroup.lattice-properties", {"index_max": index_max, "samples": samples},
                "lattice membership, nesting, quotient kernel and cone all agree exactly", seed=seed)
    getrandbits = random.Random(seed).getrandbits
    dtype = np.int64 if index_max <= _INT64_INDEX_MAX else object

    for n in range(2, index_max + 1):
        P, P_next, e = _power(n), _power(n + 1), 1 << (n - 2)
        fields = _VECTOR_FIELDS + _member_fields(n)
        for done in range(0, samples, _BLOCK):
            F = _draws(getrandbits, fields, min(_BLOCK, samples - done)).astype(dtype, copy=False)
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


def _unit_failure():
    """The failure witness of the unit normalisation facts, or None: the
    all-ones vector maps to (4, 0), and rescaling by 4 makes it (1, 0)."""
    unit_pair = alpha((1, 1, 1, 1), 0)
    if unit_pair != DyadicPair(DyadicRational(4, 0), 0):
        return {"reason": "unit-image", "got": str(unit_pair)}
    rescaled = rescale_unit(unit_pair, DyadicRational(4, 0))
    if rescaled != DyadicPair(DYADIC_ONE, 0):
        return {"reason": "unit-rescale", "got": str(rescaled)}
    return None


def _cone_failure(p: DyadicPair):
    """The failure witness of the first cone fact that fails at p, or
    None: staged_cone_witness gives a stage exactly when p is in the cone,
    that stage n is valid (exp <= n, s >= 0 and |m| <= 2^n s) and least
    (n = exp, or |m| > 2^(n-1) s), and rescaling by 4 keeps the cone."""
    direct = cone_membership(p)
    n = staged_cone_witness(p)
    if (n is not None) != direct:
        return {"reason": "staged-vs-direct", "p": str(p)}
    if n is not None:
        num, exp = p.s.num, p.s.exp
        if not (exp <= n and p.s >= DYADIC_ZERO and abs(p.m) <= num * 2 ** (n - exp)):
            return {"reason": "witness-invalid", "p": str(p), "witness": n}
        if n > exp and num * 2 ** (n - exp - 1) >= abs(p.m):
            return {"reason": "witness-not-least", "p": str(p), "witness": n}
    if cone_membership(rescale_unit(p, DyadicRational(4, 0))) != direct:
        return {"reason": "rescale-not-order-preserving", "p": str(p)}
    return None


def _cone_pairs(getrandbits, samples):
    """``samples`` random (num / 2^exp, m) of the cone battery, with num
    and m in [-2^20, 2^20] and exp in [0, 20]."""
    for num, exp, m in _records(getrandbits, ((-(2**20), 2**20), (0, 20), (-(2**20), 2**20)), samples):
        yield DyadicPair(DyadicRational(num, exp), m)


def verify_cone_identity(samples: int = 10_000, seed: int = 42) -> CheckReport:
    """Staged-vs-direct cone membership agreement on the dyadic grid
    |num| <= 2^20, exp <= 20, |m| <= 2^20, with explicit stage witnesses
    checked valid and least, plus the unit normalisation facts: the
    all-ones vector maps to (4, 0) and rescaling by 4 makes it (1, 0).

    The pairs are drawn by the rule of _draws, a block of 1024 at a time,
    and checked one at a time."""
    samples, seed = _battery(samples, seed)
    chk = Check("dimgroup.cone-identity", {"samples": samples},
                "staged cone union equals {s > 0} plus the origin; unit maps to (1,0)", seed=seed)
    specials = [
        DyadicPair(DYADIC_ZERO, 0),
        DyadicPair(DYADIC_ZERO, 5),
        DyadicPair(DyadicRational(1, 3), 1000),
        DyadicPair(DyadicRational(-1, 2), 0),
    ]
    pairs = itertools.chain(specials, _cone_pairs(random.Random(seed).getrandbits, samples))
    for witness in itertools.chain([_unit_failure()], map(_cone_failure, pairs)):
        if witness is not None:
            return chk.failed(witness)
    return chk.passed()


# s = num / 2^5 for each sign of num, and the ceilings c at which the
# bracket of (c - 1).bit_length() is evaluated: 1, 2, and 2^j, 2^j + 1 for
# a j past the 32-bit and one past the 64-bit width
_CONE_NUMS = (-3, 0, 3)
_CONE_J = (33, 65)


def _cone_points():
    """One pair per sign class of num with m = 0, 1 and -1, then for
    s = 3/2^5 and each ceiling c the |m| = 3c, a multiple of num, and
    |m| = 3(c - 1) + 1, not one, with both signs of m."""
    for num in _CONE_NUMS:
        for m in (0, 1, -1):
            yield DyadicPair(DyadicRational(num, 5), m)
    s = DyadicRational(3, 5)
    for c in (1, 2, *(c for j in _CONE_J for c in (2**j, 2**j + 1))):
        for abs_m in (3 * c, 3 * (c - 1) + 1):
            yield DyadicPair(s, abs_m)
            yield DyadicPair(s, -abs_m)


def verify_cone_stage() -> CheckReport:
    """The cone identity of verify_cone_identity, with least stages, for
    every dyadic s and every integer m, from the unit facts and 33 pairs.

    Let s = num / 2^exp.  cone_membership holds iff num > 0, or num = 0
    and m = 0.  staged_cone_witness returns None for num < 0, 0 or None for
    num = 0 as m is 0 or not, and exp + b for num > 0, with
    b = (c - 1).bit_length() and c = max(1, ceil(|m| / num)).  Rescaling by
    a positive power of 2 changes exp, never num's sign or m.  So whether
    each side holds, before and after rescaling, is constant on each sign
    class of num with m = 0 and m != 0, and one pair per class, m = 0, 1
    and -1, decides it.  For num > 0, b is read off the bracket
    2^(b-1) <= c - 1 < 2^b (c - 1 = 0 when b = 0).  Its right half gives
    c <= 2^b, so num 2^b >= num c >= |m| and stage exp + b is valid; its
    left half with c - 1 < |m| / num gives num 2^(b-1) < |m|, so no
    earlier stage is.  The bracket holds for every integer by the
    definition of bit_length, and the check evaluates the code at its
    edges c = 1, 2, 2^j and 2^j + 1, past the 32- and 64-bit widths, with
    |m| a multiple of num and not, of both signs, where a floor for the
    ceiling or c for c - 1 would move the stage, as verify_twist_identity
    reads its identities' degree off the code."""
    chk = Check("dimgroup.cone-identity",
                {"num": list(_CONE_NUMS), "exp": 5, "m": [0, 1, -1], "j": list(_CONE_J)},
                "for every dyadic s and integer m the least stage n with |m| <= 2^n s exists "
                "exactly when s > 0 or (s, m) = (0, 0), and rescaling keeps the cone; unit maps "
                "to (1,0): one pair per sign class, and the bit-length bracket at "
                "c = 1, 2, 2^j, 2^j + 1")
    for witness in itertools.chain([_unit_failure()], map(_cone_failure, _cone_points())):
        if witness is not None:
            return chk.failed(witness)
    return chk.passed()


def _twist_failure(inv: DyadicInvolution, p: DyadicPair):
    """The failure witness of the first twist identity that fails at
    (a, p), or None: the twist squares to the identity, fixes (q, 0) for
    q the dyadic part of p, 1 + twist sends p to integer part 0, sends
    the halved preimage of (q, 0) back to (q, 0), and sends (0, 1) to
    (a, -1).  The first four hold for every twist value; the fifth tells
    sigma_a from sigma_0 and sigma_2a."""
    if involution_apply(inv, involution_apply(inv, p)) != p:
        return {"reason": "not-an-involution", "a": str(inv.a), "p": str(p)}
    fixed = DyadicPair(p.s, 0)
    if involution_apply(inv, fixed) != fixed:
        return {"reason": "does-not-fix-dyadics", "a": str(inv.a), "p": str(fixed)}
    if one_plus_sigma_image(inv, p).m != 0:
        return {"reason": "image-not-integer-free", "a": str(inv.a), "p": str(p)}
    if one_plus_sigma_image(inv, one_plus_sigma_preimage(inv, fixed)) != fixed:
        return {"reason": "preimage-wrong", "a": str(inv.a), "target": str(fixed)}
    unit = DyadicPair(DYADIC_ZERO, 1)
    if involution_apply(inv, unit) != DyadicPair(inv.a, -1):
        return {"reason": "twist-value-wrong", "a": str(inv.a), "p": str(unit)}
    return None


def _twists(getrandbits, samples):
    """``samples`` random (twist, p) of the involution battery: the twist
    value a and the dyadic part of p are num / 2^exp with num in
    [-1024, 1024] and exp in [0, 10], and the integer part of p is in
    [-1024, 1024]."""
    fields = ((-1024, 1024), (0, 10), (-1024, 1024), (0, 10), (-1024, 1024))
    for a_num, a_exp, num, exp, m in _records(getrandbits, fields, samples):
        yield DyadicInvolution(DyadicRational(a_num, a_exp)), DyadicPair(DyadicRational(num, exp), m)


def verify_involution_algebra(samples: int = 1000, seed: int = 42) -> CheckReport:
    """For random dyadic twist values a: the twist squares to the
    identity and fixes every (q, 0); adding the twisted copy always lands
    in {(., 0)} and attains every sampled (q, 0) via the halved preimage;
    and the twist sends (0, 1) to (a, -1).

    The samples are drawn by the rule of _draws, a block of 1024 at a
    time, and checked one at a time."""
    samples, seed = _battery(samples, seed)
    chk = Check("dimgroup.involution", {"samples": samples},
                "twist is an exact involution fixing (q, 0); 1+twist maps onto {(., 0)}", seed=seed)
    for inv, p in _twists(random.Random(seed).getrandbits, samples):
        witness = _twist_failure(inv, p)
        if witness is not None:
            return chk.failed(witness)
    return chk.passed()


# two values of each of s, m and a; the non-zero dyadics have positive
# exponents, so the checks run through the dyadic shifts
_TWIST_GRID = {
    "s": (DYADIC_ZERO, DyadicRational(3, 5)),
    "m": (0, 7),
    "a": (DYADIC_ZERO, DyadicRational(-5, 3)),
}


def verify_twist_identity() -> CheckReport:
    """The twist identities of verify_involution_algebra for every dyadic
    a and s and every integer m, from the 8 points of a 2x2x2 grid.

    involution_apply is (s + a m, -m), so each side of each identity, the
    twist applied twice, the twist of (q, 0), the integer part of
    p + twist(p), the image (q/2 + q/2 + a 0, 0) of the halved preimage
    and the twist (0 + a 1, -1) of (0, 1) against (a, -1), has degree at
    most 1 in each of s, m and a.  Such a polynomial is fixed by its
    values on any grid of two values per variable, so the identities hold
    everywhere once they hold on the grid, as the affine step of
    verify_closed_form_induction does for its lemma."""
    chk = Check("dimgroup.involution",
                {name: [v if isinstance(v, int) else str(v) for v in values]
                 for name, values in _TWIST_GRID.items()},
                "for every dyadic a, s and integer m the twist (s + a m, -m) is an involution "
                "fixing (q, 0), 1 + twist maps onto {(q, 0)} via (q/2, 0), and (0, 1) maps to "
                "(a, -1): multilinear identities checked on a 2x2x2 grid")
    for s, m, a in itertools.product(*_TWIST_GRID.values()):
        witness = _twist_failure(DyadicInvolution(a), DyadicPair(s, m))
        if witness is not None:
            return chk.failed(witness)
    return chk.passed()
