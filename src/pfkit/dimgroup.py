"""Exact dimension-group arithmetic for the substitution subshift.

Everything here is integer or rational arithmetic, exact by construction:
powers of the 4x4 occurrence matrix and their closed form, the nested
lattices G_n / H_n / (G_n)+ of rational 4-vectors, the quotient maps onto
(1/2^n)Z (+) Z, the dyadic scaled-ordered-group normal form with its
positive cone, the order-two twist forced on it, and the running
1s-minus-0s discrepancy that witnesses the twist is not the identity.

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
    "in_G",
    "in_H",
    "in_G_plus",
    "closed_form_membership",
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
    "TorsionDyadicPair",
    "TORSION_UNIT_BRANCHES",
    "torsion_add",
    "torsion_is_positive",
    "torsion_state_value",
    "torsion_rescale_unit",
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
    """The closed form of the n-th power of the occurrence matrix, n >= 2:
    with e = 2^(n-2) the rows are (e+1, e-1, e, e), (e, e, e, e),
    (e, e, e, e), (e-1, e+1, e, e)."""
    if n < 2:
        raise DomainError("closed form starts at power 2")
    e = 2 ** (n - 2)
    return (
        (e + 1, e - 1, e, e),
        (e, e, e, e),
        (e, e, e, e),
        (e - 1, e + 1, e, e),
    )


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


# ---------------------------------------------------------------------------
# lattices of rational 4-vectors
#
# One integer core serves every predicate.  A vector q is scaled to (v, d)
# with q = v / d and d > 0; the representation need not be reduced.  Its
# definitional image at index n is r = M^n v, with M^n from mat_pow.  Then
# q lies in G_n iff d divides every r_i, in H_n iff r = 0, and in (G_n)+
# iff it lies in G_n and r >= 0.  All three hold for any representation,
# since they only ask whether M^n q is integral, zero or non-negative.
# _apply spells M^n v out as four dot products, and _membership_triple
# reads all three predicates off r; the lattice battery calls both once per
# image, on vectors it draws already scaled (see _draw_vector below).


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


def _membership_triple(r, d: int):
    """(in G_n, in H_n, in (G_n)+) of q = v / d, from its image r = M^n v."""
    r0, r1, r2, r3 = r
    integral = not (r0 % d or r1 % d or r2 % d or r3 % d)
    positive = integral and r0 >= 0 and r1 >= 0 and r2 >= 0 and r3 >= 0
    return integral, not (r0 or r1 or r2 or r3), positive


def _closed_form_triple(v, d: int, n: int):
    """The closed-form conditions of closed_form_membership on (v, d)."""
    e = 1 << (n - 2)
    S = sum(v)
    D = v[0] - v[1]
    in_g = (e * S) % d == 0 and D % d == 0
    return in_g, S == 0 and D == 0, in_g and abs(D) <= e * S


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


def closed_form_membership(q, n: int):
    """(in G_n, in H_n, in (G_n)+) computed from the closed-form conditions
    only, for lattice index n >= 2: with e = 2^(n-2), membership in G_n is
    "e * sum(q) and q1 - q2 are integers", in H_n is "sum(q) = 0 and
    q1 = q2", and in (G_n)+ additionally needs |q1 - q2| <= e * sum(q).

    Note the cone condition inherits the integrality constraints of G_n;
    the inequality alone does not imply them.
    """
    if n < 2:
        raise DomainError("closed-form membership starts at index 2")
    return _closed_form_triple(*_scaled(q), n)


def alpha(q, n: int) -> "DyadicPair":
    """Quotient map at stage n: q in G_{n+2} goes to (sum(q), q1 - q2)
    inside (1/2^n)Z (+) Z.  Kernel is H_{n+2}."""
    if n < 0:
        raise DomainError("stage must be non-negative")
    v, d = _scaled(q)
    if not _membership_triple(_apply(_power(n + 2), v), d)[0]:
        raise DomainError("vector is not in the stage's lattice G_{n+2}")
    sd = DyadicRational.from_fraction(Fraction(sum(v), d))
    if sd.exp > n:
        raise DomainError("sum lands outside (1/2^n)Z")  # unreachable given G-membership
    m, rest = divmod(v[0] - v[1], d)
    if rest:
        raise DomainError("q1 - q2 is not an integer")  # unreachable likewise
    return DyadicPair(sd, m)


def alpha_preimage(s, m: int):
    """A canonical preimage (m, 0, s - m, 0) of the target (s, m); it lies
    in G_{n+2} whenever 2^n * s is an integer, and in (G_{n+2})+ exactly
    when the target satisfies the stage's cone inequality."""
    s = Fraction(s) if not isinstance(s, DyadicRational) else s.to_fraction()
    return (Fraction(m), Fraction(0), s - m, Fraction(0))


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

    @classmethod
    def parse(cls, text: str) -> "DyadicRational":
        num, _, rest = text.partition("/2^")
        try:
            num, exp = int(num), int(rest)
        except ValueError:
            raise DomainError(f"bad dyadic literal {text!r}") from None
        return cls(num, exp)

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
# torsion normal form


@dataclass(frozen=True)
class TorsionDyadicPair:
    """Element (x, q) of Z_2 (+) Z[1/2] with the cone {q > 0} plus (0, 0)."""

    x: int
    q: DyadicRational

    def __post_init__(self):
        if self.x not in (0, 1):
            raise DomainError("torsion component must be a bit")

    def __str__(self):
        return f"({self.x}, {self.q})"

    def to_json(self):
        return {"x": self.x, "q": str(self.q)}


# the order unit is one of these two; which one is genuinely ambiguous, so
# it stays a two-valued parameter and every consumer reports both branches
TORSION_UNIT_BRANCHES = (
    TorsionDyadicPair(0, DYADIC_ONE),
    TorsionDyadicPair(1, DYADIC_ONE),
)


def torsion_add(p1: TorsionDyadicPair, p2: TorsionDyadicPair) -> TorsionDyadicPair:
    return TorsionDyadicPair(p1.x ^ p2.x, p1.q + p2.q)


def torsion_is_positive(p: TorsionDyadicPair) -> bool:
    return p.q > DYADIC_ZERO or (p.x == 0 and p.q == DYADIC_ZERO)


def torsion_state_value(p: TorsionDyadicPair) -> DyadicRational:
    """The unique state: evaluation of the dyadic component.  Any
    real-valued homomorphism must vanish on the torsion bit."""
    return p.q


def torsion_rescale_unit(p: TorsionDyadicPair, old_unit_q: DyadicRational) -> TorsionDyadicPair:
    """Unit normalisation on the torsion form, e.g. (x, y) -> (x, y/4)."""
    scaled = rescale_unit(DyadicPair(p.q, 0), old_unit_q)
    return TorsionDyadicPair(p.x, scaled.s)


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
# loop, and the lattice draws repeat it inline with their constant (k, w):
# randint(-1024, 1024) is k = 12, w = 2049, and randint(1, 1024) is k = 11,
# w = 1024.  So the batteries consume the stream exactly as the randint
# calls they replace, and a seed keeps its reports; the tests pin both
# against randint itself.


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


def _draw_vector(getrandbits):
    """A random rational 4-vector q_i = a_i / b_i, scaled once to (v, d),
    with a_i = randint(-1024, 1024) and b_i = randint(1, 1024)."""
    while (a0 := getrandbits(12)) >= 2049: pass  # noqa: E701
    while (b0 := getrandbits(11)) >= 1024: pass  # noqa: E701
    while (a1 := getrandbits(12)) >= 2049: pass  # noqa: E701
    while (b1 := getrandbits(11)) >= 1024: pass  # noqa: E701
    while (a2 := getrandbits(12)) >= 2049: pass  # noqa: E701
    while (b2 := getrandbits(11)) >= 1024: pass  # noqa: E701
    while (a3 := getrandbits(12)) >= 2049: pass  # noqa: E701
    while (b3 := getrandbits(11)) >= 1024: pass  # noqa: E701
    b0, b1, b2, b3 = b0 + 1, b1 + 1, b2 + 1, b3 + 1
    d = math.lcm(b0, b1, b2, b3)
    return ((a0 - 1024) * (d // b0), (a1 - 1024) * (d // b1),
            (a2 - 1024) * (d // b2), (a3 - 1024) * (d // b3)), d


def _draw_member(getrandbits, n: int):
    """A random element of G_n, scaled to (v, d): the canonical preimage
    (m, 0, s - m, 0) of a random target (s, m) = (x / 2^k, m) plus a random
    element (a, a, b, -2a - b) of the stage's kernel, with a = a1 / a2 and
    b = b1 / b2.  Every numerator is randint(-1024, 1024), every denominator
    randint(1, 1024), and k is randint(0, n - 2), not drawn at n = 2.
    Returns (v, d, x, k, m)."""
    while (x := getrandbits(12)) >= 2049: pass  # noqa: E701
    k = _below(getrandbits, n - 1) if n > 2 else 0
    while (m := getrandbits(12)) >= 2049: pass  # noqa: E701
    while (a1 := getrandbits(12)) >= 2049: pass  # noqa: E701
    while (a2 := getrandbits(11)) >= 1024: pass  # noqa: E701
    while (b1 := getrandbits(12)) >= 2049: pass  # noqa: E701
    while (b2 := getrandbits(11)) >= 1024: pass  # noqa: E701
    x, m, a1, a2, b1, b2 = x - 1024, m - 1024, a1 - 1024, a2 + 1, b1 - 1024, b2 + 1
    d = (a2 * b2) << k
    md, ad, bd = m * d, (a1 * b2) << k, (b1 * a2) << k
    return (md + ad, ad, x * a2 * b2 - md + bd, -2 * ad - bd), d, x, k, m


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


def _fraction_text(v, d):
    return [str(Fraction(x, d)) for x in v]


def _target_text(x, k, m):
    return [str(Fraction(x, 1 << k)), m]


def verify_lattice_properties(index_max: int = 12, samples: int = 10_000, seed: int = 42) -> CheckReport:
    """Battery over lattice indices 2..index_max with ``samples`` draws per
    index: definitional vs closed-form membership agreement, nesting of
    G/H/G+ across consecutive indices, the quotient-map kernel identity,
    surjectivity witnesses, stage-independence of the quotient map, and
    the cone correspondence for canonical preimages.

    Each sample pair is one random vector (_draw_vector) and one random
    member of G_n (_draw_member), both drawn already scaled to integers
    (v, d) from the getrandbits of random.Random(seed), in the stream that
    randint would give.  Every decision reads a definitional image M^k v,
    with M^k from mat_pow, at k = n or n + 1, through _membership_triple;
    the closed form is checked against the image at n, never used in its
    place.  Fractions are built only for a failure witness.

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
    getrandbits = random.Random(seed).getrandbits

    def fail(reason, n, payload):
        return chk.failed({"reason": reason, "index": n, **payload})

    for n in range(2, index_max + 1):
        P, P_next, e = _power(n), _power(n + 1), 1 << (n - 2)
        for _ in range(samples):
            v, d = _draw_vector(getrandbits)
            got = _membership_triple(_apply(P, v), d)
            if got != _closed_form_triple(v, d, n):
                return fail("closed-form-disagrees", n, {"q": _fraction_text(v, d)})
            # nesting into the next stage: on booleans, a > b is a and not b
            nxt = _membership_triple(_apply(P_next, v), d)
            if got[0] > nxt[0] or got[1] > nxt[1] or got[2] > nxt[2]:
                return fail("nesting-violated", n, {"q": _fraction_text(v, d)})

            v, d, x, k, m = _draw_member(getrandbits, n)
            in_g, in_h, _ = _membership_triple(_apply(P, v), d)
            if not in_g:
                return fail("constructed-member-outside", n, {"q": _fraction_text(v, d)})
            # the quotient map at stage n - 2 sends v / d to (sum(v), v1 - v2) / d
            if sum(v) << k != x * d or v[0] - v[1] != m * d:
                return fail("quotient-map-wrong-target", n, {"target": _target_text(x, k, m)})
            # the map does not depend on the stage it is computed at: stage
            # n - 1 gives the same value, provided the member is in G_{n+1}
            if not _membership_triple(_apply(P_next, v), d)[0]:
                return fail("stage-dependence", n, {"target": _target_text(x, k, m)})
            # kernel identity
            if in_h != (x == 0 and m == 0):
                return fail("kernel-identity", n, {"q": _fraction_text(v, d)})
            # canonical preimage lies in the positive set iff the target
            # satisfies the stage's cone inequality
            base = (m << k, 0, x - (m << k), 0)
            staged_ok = x >= 0 and abs(m) << k <= e * x
            if _membership_triple(_apply(P, base), 1 << k)[2] != staged_ok:
                return fail("cone-correspondence", n, {"target": _target_text(x, k, m)})
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
