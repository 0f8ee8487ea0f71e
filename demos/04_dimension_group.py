# The ordered K-theoretic invariant of the recoded system, computed with
# exact arithmetic end to end: matrix powers, the rational lattices they
# define, the dyadic normal form with its positive cone, the forced
# order-two twist, and the discrepancy counts that show the twist is not
# the identity.
#
#     python demos/04_dimension_group.py

from fractions import Fraction

from pfkit.dimgroup import (
    PAPERFOLD_MATRIX,
    DyadicInvolution,
    DyadicPair,
    DyadicRational,
    alpha,
    alpha_preimage,
    birkhoff_discrepancy,
    cone_membership,
    in_G,
    in_G_plus,
    in_H,
    involution_apply,
    m_sequence,
    mat_pow,
    one_plus_sigma_image,
    rescale_unit,
    staged_cone_witness,
)
from pfkit.paperfold import pf_prefix

print("occurrence matrix:", PAPERFOLD_MATRIX)
print("5th power:", mat_pow(PAPERFOLD_MATRIX, 5))
# from the square on, M^n has rows (e + k, e - k, e, e) with e = 2^(n-2)
# and k = 1, 0, 0, -1, so M^n v = (eS + D, eS, eS, eS - D) with S = sum(v)
# and D = v0 - v1: the lemma behind every lattice fact below

# Lattices: G_n collects rational 4-vectors whose n-th image is integral,
# H_n those that get killed, and (G_n)+ the ones landing in the positive
# orthant.  They nest, and everything is decided exactly.
q = (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))
print("\nq = (1/4, 1/4, 1/4, 1/4):")
for n in (2, 3, 4, 5):
    print(f"  index {n}: in G {in_G(q, n)}, in H {in_H(q, n)}, in G+ {in_G_plus(q, n)}")

# The stage map sends q to (sum, first difference); its kernel is H, and
# the images assemble into the dyadics paired with the integers.
pair = alpha((1, 1, 1, 1), 0)
print("\nimage of the all-ones vector:", pair)
print("after unit rescaling by 4:", rescale_unit(pair, DyadicRational(4, 0)))

pre = alpha_preimage(Fraction(5, 8), -2)
print("preimage of (5/2^3, -2):", pre, "->", alpha(pre, 3))

# The cone is {s > 0} plus the origin; the staged witness says at which
# stage a point becomes visibly positive.
p = DyadicPair(DyadicRational(1, 3), 1000)
print("\n(1/2^3, 1000) in the cone:", cone_membership(p), "| witness stage:", staged_cone_witness(p))

# Any order-two twist fixing the dyadic copy has the shape
# (s, m) -> (s + m*a, -m); adding the twisted copy flattens everything
# onto the dyadic axis.
inv = DyadicInvolution(DyadicRational(3, 1))
x = DyadicPair(DyadicRational(7, 2), 5)
print("\ntwist of", x, "is", involution_apply(inv, x))
print("1 + twist sends it to", one_plus_sigma_image(inv, x))

# The twist is not the identity: along the word, the surplus of 1s over 0s
# at the checkpoints m(n) grows without bound.
prefix = pf_prefix(m_sequence(12) + 1)
print("\ndiscrepancy at the checkpoints:")
for n in range(0, 13, 3):
    mn = m_sequence(n)
    print(f"  n = {n:2d}, m(n) = {mn:5d}, surplus = {birkhoff_discrepancy(prefix, mn)}")
