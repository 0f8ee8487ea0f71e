"""Every suite check fails under a negative control.

A control either replaces the paper-folding symbol source (the
``symbols`` fixture) or mutates the code or data the check certifies.
The test runs one registry entry at a time through ``cli.run_all`` at the
quick profile, so each control reaches the check the way the suite does."""

from unittest import mock

import numpy as np
import pytest

from pfkit import cli, dimgroup, paperfold, subst
from pfkit.dimgroup import DyadicPair, DyadicRational
from pfkit.paperfold import T_REFERENCE, pf_prefix
from pfkit.subst import Substitution

# For a 0/1 indicator f the partial sums of f[i+1] - f[i] telescope to
# f[i] - f[0], so no word and no mutation of the data makes this check
# fail; it is kept until a change that may alter the report deletes it.
WITHOUT_CONTROL = {"dimgroup.coboundary-bound"}


def mutated_prefix(length, start, stop=None, value=None):
    """The paper-folding prefix of ``length`` symbols with symbol ``start``
    flipped, or with symbols start .. stop - 1 set to ``value``."""
    arr = pf_prefix(length).to_array().copy()
    if stop is None:
        arr[start] ^= 1
    else:
        arr[start:stop] = value
    return arr


def image_of_v1_minus_v0(v, n, real=dimgroup._image):
    """The (S, D) image with D = v1 - v0 in place of v0 - v1."""
    r0, r1, r2, r3 = real(v, n)
    return r3, r1, r2, r0


def stage_too_early(p, real=dimgroup.staged_cone_witness):
    n = real(p)
    return n - 1 if n else n


def twist_without_sign_flip(inv, p):
    return DyadicPair(p.s + inv.a * DyadicRational(p.m, 0), p.m)


def pair_codes_by_position(arr, real=subst._pair_codes):
    codes = real(arr)
    return codes ^ (np.arange(codes.size) & 1).astype(codes.dtype)


# each control, given the symbols fixture, returns a context manager; the
# prefix lengths are what the quick profile reads
CONTROLS = {
    "paperfold.generation-fidelity": lambda symbols: mock.patch.object(
        paperfold, "T_REFERENCE", (*T_REFERENCE[:4], "0" + T_REFERENCE[4][1:], T_REFERENCE[5])),
    "paperfold.self-similarity": lambda symbols: symbols(mutated_prefix(2**11 - 1, 1000)),
    # every even-length factor of (10)^k is an anti-palindrome
    "paperfold.antipalindrome-census": lambda symbols: symbols(np.resize([1, 0], 2**13 - 1)),
    "paperfold.recurrence": lambda symbols: symbols(mutated_prefix(2**12 - 1, 1000, 1030, 0)),
    "paperfold.aperiodicity": lambda symbols: symbols(np.ones(1536)),
    "dihedral.antireversal-closure": lambda symbols: symbols(np.ones(2**13 - 1)),
    "dihedral.freeness": lambda symbols: symbols(np.ones(2**13 - 1)),
    "dihedral.parity-separation": lambda symbols: symbols(mutated_prefix(8008, 1000)),
    # the rules of 3 and 2 swapped: still primitive and left-proper
    "subst.structure": lambda symbols: mock.patch.object(
        subst, "PAPERFOLD_SUBSTITUTION", Substitution({3: "30", 2: "31", 1: "21", 0: "20"})),
    "subst.recoding": lambda symbols: symbols(mutated_prefix(2**15, 1000)),
    "subst.intertwining": lambda symbols: mock.patch.object(subst, "_pair_codes", pair_codes_by_position),
    "dimgroup.matrix-closed-form": lambda symbols: mock.patch.object(
        dimgroup, "PAPERFOLD_MATRIX", ((1, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1), (0, 1, 1, 1))),
    "dimgroup.lattice-properties": lambda symbols: mock.patch.object(dimgroup, "_image", image_of_v1_minus_v0),
    "dimgroup.cone-identity": lambda symbols: mock.patch.object(
        dimgroup, "staged_cone_witness", stage_too_early),
    "dimgroup.involution": lambda symbols: mock.patch.object(
        dimgroup, "involution_apply", twist_without_sign_flip),
    "dimgroup.discrepancy-growth": lambda symbols: symbols(mutated_prefix(2**12, 5)),
}


@pytest.mark.parametrize("name", [name for name, _ in cli.REGISTRY if name not in WITHOUT_CONTROL])
def test_every_check_fails_under_its_control(monkeypatch, symbols, name):
    assert name in CONTROLS, f"{name} has no negative control"
    monkeypatch.setattr(cli, "REGISTRY", tuple(entry for entry in cli.REGISTRY if entry[0] == name))
    with CONTROLS[name](symbols):
        (rep,) = cli.run_all("quick")
    assert rep.status == "fail", rep.witness
