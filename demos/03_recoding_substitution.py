# Reading the binary word two letters at a time turns it into the fixed
# point of a four-letter substitution; this demo shows the substitution's
# structure and the recoding identities.
#
#     python demos/03_recoding_substitution.py

from pfkit.paperfold import pf_prefix
from pfkit.subst import (
    LEFT_PROPER_BOUND,
    PAPERFOLD_SUBSTITUTION as rho,
    PRIMITIVITY_BOUND,
    abelianization,
    apply,
    block_code,
    first_letters,
    fixed_prefix,
    is_left_proper,
    is_primitive,
    verify_intertwining,
    verify_intertwining_pairs,
    verify_recoding,
    verify_recoding_induction,
)
from pfkit.words import Word

print("rules:", rho)
print("image of 3121:", apply(rho, Word("3121", 4)))

# The second iterates all start with 3 (left-proper), and by the third
# iterate every letter shows up no matter the seed (primitive).
print("left-proper at:", is_left_proper(rho, LEFT_PROPER_BOUND), "| first letters of squares:", first_letters(rho, 2))
print("primitive at:", is_primitive(rho, PRIMITIVITY_BOUND))

m = abelianization(rho)
print("occurrence matrix rows:", m.entries, "| row sums:", m.row_sums)

# Iterating from the common first letter pins down an infinite fixed word.
print("fixed point prefix:", fixed_prefix(rho, 32))

# Recoding: pair up the binary word from slot 0 and map each pair xy to
# the letter 2x + y.  The result is exactly the fixed point.
L = 2**10
assert block_code(pf_prefix(2 * L)) == fixed_prefix(rho, L)
print("block recoding of the binary word reproduces the fixed point (L =", L, ")")
print("recoding check:", verify_recoding(2**12).status)
# Each rule is a -> (2 + hi(a), lo(a)), the step the recoded word takes
# from index i to 2i and 2i + 1, so the two agree at every length.
print("recoding proof:", verify_recoding_induction().status)

# The block code trades two binary shifts for one quaternary shift.
print("intertwining check:", verify_intertwining(2**12).status)
print("intertwining proof:", verify_intertwining_pairs().status)
