"""Test oracles that several test modules share."""

import dataclasses

import numpy as np

from pfkit import paperfold, subst
from pfkit.report import Check


def random_bits(seed, n, density=0.5):
    return (np.random.default_rng(seed).random(n) < density).astype(np.uint8)


def naive_anti(s):
    """The anti-reversal of a 0/1 string: reversed, every symbol flipped."""
    return "".join("1" if c == "0" else "0" for c in reversed(s))


def writable(arr):
    """Whether the memory of ``arr`` can still be written, through ``arr``
    or through its base.  numpy points a view's base at the array that
    owns the memory, or at the array that wraps a foreign buffer."""
    if arr.flags.writeable:
        return True
    base = arr.base
    if isinstance(base, np.ndarray):
        if base.flags.writeable:
            return True
        base = base.base
    return base is not None and not memoryview(base).readonly


def pair_codes_by_position(arr, real=subst._pair_codes):
    """The pair codes with the parity of each pair's position flipped in:
    no longer a function of the pair alone."""
    codes = real(arr)
    return codes ^ (np.arange(codes.size) & 1).astype(codes.dtype)


def battery_by_block_size(budget):
    """The self-similarity battery as one comparison per block size p, at
    the largest n, and on a failure once more at the least n that reaches
    the first mismatch: the oracle of the one comparison at p = 0 that the
    suite makes."""
    chk = Check("paperfold.self-similarity", {"budget": budget},
                "block interleaving identity for all p+n+1 within budget")
    for p in range(budget):
        rep = paperfold.verify_self_similarity(p, budget - 1 - p)
        if rep.status != "pass":
            n = (rep.witness["first_mismatch"] + 1).bit_length() - p - 2
            rep = paperfold.verify_self_similarity(p, max(n, 0))
            return dataclasses.replace(rep, elapsed_ms=chk.ms)
    return chk.passed()


def primitive_index(s, n_max):
    """is_primitive's search as a plain loop to n_max: the least n whose
    n-th image of every letter holds every letter, or None."""
    step = {a: set(w.to_array().tolist()) for a, w in s.rules.items()}
    reach = {a: {a} for a in step}
    for n in range(1, n_max + 1):
        reach = {a: set().union(*(step[b] for b in letters)) for a, letters in reach.items()}
        if all(letters == set(step) for letters in reach.values()):
            return n
    return None


def head_power(s, p):
    """The first letters of the p-th images, by applying the head map p
    times."""
    head = {a: w[0] for a, w in s.rules.items()}
    out = []
    for a in sorted(head):
        for _ in range(p):
            a = head[a]
        out.append(a)
    return tuple(out)


def left_proper_index(s, p_max):
    """is_left_proper's search as a plain loop to p_max."""
    return next((p for p in range(1, p_max + 1) if len(set(head_power(s, p))) == 1), None)
