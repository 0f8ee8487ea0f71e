"""Test oracles that several test modules share."""

import numpy as np

from pfkit import subst


def random_bits(seed, n, density=0.5):
    return (np.random.default_rng(seed).random(n) < density).astype(np.uint8)


def naive_anti(s):
    """The anti-reversal of a 0/1 string: reversed, every symbol flipped."""
    return "".join("1" if c == "0" else "0" for c in reversed(s))


def pair_codes_by_position(arr, real=subst._pair_codes):
    """The pair codes with the parity of each pair's position flipped in:
    no longer a function of the pair alone."""
    codes = real(arr)
    return codes ^ (np.arange(codes.size) & 1).astype(codes.dtype)
