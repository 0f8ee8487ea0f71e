# Walk through the word layer: immutable words, anti-reversal, and the
# recursively folded generations.
#
# Run from the repository root after `pip install -e .`:
#     python demos/01_words_and_generations.py

from pfkit import (
    Word,
    anti_reverse,
    concat,
    count,
    factor_set,
    is_anti_palindrome,
    pf_word,
    segment,
)
from pfkit.paperfold import verify_self_similarity

# Words are immutable and hold one byte per symbol.  The text form is
# the natural constructor and display.
w = Word("1101100")
print("word:", w, "| length", len(w), "| ones", count(w, "1"), "| zeros", count(w, "0"))

# Anti-reversal reverses and swaps 0 <-> 1.  It is an involution, and the
# whole construction below is built from it.
print("anti-reversal of 110:", anti_reverse(Word("110")))
print("10 is anti-palindromic:", is_anti_palindrome(Word("10")))
print("11 is anti-palindromic:", is_anti_palindrome(Word("11")))

# Each generation folds the previous one around a fresh central 1.
print("\nfirst generations:")
for n in range(6):
    print(f"  t({n}) =", pf_word(n))

t3, t4 = pf_word(3), pf_word(4)
assert t4 == concat(concat(t3, Word("1")), anti_reverse(t3))
print("\nfold law t(4) = t(3) + 1 + anti(t(3)) holds")
assert segment(t4, 0, len(t3) - 1) == t3
print("each generation is a prefix of the next")

# The deeper structure: generation p+n+1 decomposes into alternating
# t(p) / anti(t(p)) blocks separated by the letters of t(n).
report = verify_self_similarity(2, 3)
print("\nblock interleaving at (p, n) = (2, 3):", report.status)

# Factor sets are tiny for a word this structured: the number of distinct
# length-8 factors settles at 32, far below the 256 possible.
print("distinct length-8 factors of t(12):", len(factor_set(pf_word(12), 8)))
