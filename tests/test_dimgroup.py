import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfkit import dimgroup
from pfkit.dimgroup import (
    DYADIC_ONE,
    DYADIC_ZERO,
    MAX_MATRIX_POWER,
    MAX_SAMPLES,
    PAPERFOLD_MATRIX,
    DyadicInvolution,
    DyadicPair,
    DyadicRational,
    alpha,
    alpha_preimage,
    birkhoff_discrepancy,
    closed_form_power,
    cone_membership,
    coboundary_partial_sums,
    discrepancy_profile,
    in_G,
    in_G_plus,
    in_H,
    involution_apply,
    m_sequence,
    mat_pow,
    one_plus_sigma_image,
    one_plus_sigma_preimage,
    rescale_unit,
    staged_cone_witness,
    verify_cone_identity,
    verify_coboundary_bound,
    verify_involution_algebra,
    verify_lattice_properties,
    verify_matrix_closed_form,
    verify_unbounded_discrepancy,
)
from pfkit.errors import DomainError, ResourceError
from pfkit.paperfold import pf_prefix
from pfkit.report import Check
from pfkit.words import Word


def test_mat_pow_basics():
    ident = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    assert mat_pow(PAPERFOLD_MATRIX, 0) == ident
    assert mat_pow(PAPERFOLD_MATRIX, 1) == PAPERFOLD_MATRIX
    with pytest.raises(DomainError):
        mat_pow(PAPERFOLD_MATRIX, -1)


def test_matrix_closed_form():
    for n in range(0, 21):
        e = 2**n
        assert mat_pow(PAPERFOLD_MATRIX, n + 2) == (
            (e + 1, e - 1, e, e),
            (e, e, e, e),
            (e, e, e, e),
            (e - 1, e + 1, e, e),
        )
    assert closed_form_power(42) == mat_pow(PAPERFOLD_MATRIX, 42)  # exact big ints
    assert verify_matrix_closed_form(20).status == "pass"
    with pytest.raises(DomainError):
        closed_form_power(1)


def test_matrix_closed_form_rejects_an_empty_range():
    with pytest.raises(DomainError):
        verify_matrix_closed_form(-1)


@settings(max_examples=200, deadline=None)
@given(n=st.one_of(st.integers(2, 64), st.just(MAX_MATRIX_POWER)),
       vs=st.lists(st.tuples(*[st.integers(-(2**40), 2**40)] * 4), min_size=1, max_size=8))
def test_sd_image_is_the_matrix_power_image(n, vs):
    # the lemma against mat_pow, on Python ints and then elementwise on
    # arrays: int64 up to n = 60, with entries shrunk to 2^(60 - n) past
    # n = 20 so that every value stays below 2^(n+1) max |v_i| <= 2^61, and
    # object arrays of Python ints beyond
    P = mat_pow(PAPERFOLD_MATRIX, n)
    for v in vs:
        assert dimgroup._image(v, n) == dimgroup._apply(P, v)
    if n <= 60:
        vs = [tuple(x >> max(0, n - 20) for x in v) for v in vs]
    columns = [np.array(c, dtype=np.int64 if n <= 60 else object) for c in zip(*vs)]
    expected = zip(*(dimgroup._apply(P, v) for v in vs))
    for got, want, scalar in zip(dimgroup._image(columns, n), dimgroup._apply(P, columns), expected):
        assert got.tolist() == want.tolist() == list(scalar)


def closed_form_triple(q, n):
    """(in G_n, in H_n, in (G_n)+) of q from its (S, D) image, n >= 2."""
    v, d = dimgroup._scaled(q)
    return dimgroup._membership_triple(dimgroup._image(v, n), d)


def test_membership_examples():
    ones = (1, 1, 1, 1)
    assert in_G(ones, 1) and in_G_plus(ones, 1)
    h = (Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2))
    assert in_H(h, 3)
    zero = (0, 0, 0, 0)
    assert closed_form_triple(zero, 5) == (True, True, True)
    v = (1, -1, 0, 0)
    got = closed_form_triple(v, 4)
    assert got == (True, False, False)
    assert in_G(v, 4) and not in_H(v, 4)
    with pytest.raises(DomainError):
        in_G(ones, 0)


def test_sum_power_condition_gives_membership():
    rng = random.Random(2)
    for n in range(0, 8):
        for _ in range(25):
            m = rng.randint(-50, 50)
            q = alpha_preimage(Fraction(rng.randint(-50, 50), 2**n), m)
            assert in_G(q, n + 2)


def test_closed_form_tracks_integrality_of_difference():
    # inequality alone without integral difference must not count as positive
    q = (Fraction(1, 2), 0, 0, Fraction(1, 2))
    n = 4
    definitional = (in_G(q, n), in_H(q, n), in_G_plus(q, n))
    assert definitional == (False, False, False)
    assert closed_form_triple(q, n) == definitional


def test_alpha_examples():
    for n in range(0, 6):
        pair = alpha((1, 1, 1, 1), n)
        assert pair == DyadicPair(DyadicRational(4, 0), 0)
    # kernel goes to the origin
    h = (Fraction(3, 7), Fraction(3, 7), Fraction(1, 5), Fraction(-6, 7) - Fraction(1, 5))
    assert alpha(h, 2) == DyadicPair(DYADIC_ZERO, 0)
    with pytest.raises(DomainError):
        alpha((Fraction(1, 3), 0, 0, 0), 2)


def test_alpha_surjectivity_witnesses():
    rng = random.Random(5)
    for n in range(0, 8):
        for _ in range(40):
            s = Fraction(rng.randint(-200, 200), 2 ** rng.randint(0, n))
            m = rng.randint(-200, 200)
            pair = alpha(alpha_preimage(s, m), n)
            assert pair.s.to_fraction() == s and pair.m == m


def test_cone_membership():
    assert cone_membership(DyadicPair(DYADIC_ZERO, 0))
    assert not cone_membership(DyadicPair(DYADIC_ZERO, 5))
    p = DyadicPair(DyadicRational(1, 3), 1000)
    assert cone_membership(p)
    assert staged_cone_witness(p) == 13  # least n with 2^n / 8 >= 1000
    assert staged_cone_witness(DyadicPair(DYADIC_ZERO, 0)) == 0
    assert staged_cone_witness(DyadicPair(DYADIC_ZERO, 5)) is None
    assert staged_cone_witness(DyadicPair(DyadicRational(-1, 0), 0)) is None


def test_staged_witness_is_valid_and_minimal():
    rng = random.Random(23)
    for _ in range(500):
        p = DyadicPair(
            DyadicRational(rng.randint(-4096, 4096), rng.randint(0, 12)),
            rng.randint(-4096, 4096),
        )
        n = staged_cone_witness(p)
        assert (n is not None) == cone_membership(p)
        if n is None or p.s == DYADIC_ZERO:
            continue
        s = p.s.to_fraction()
        assert (2**n * s).denominator == 1 and s > 0 and abs(p.m) <= 2**n * s
        if n > p.s.exp:
            assert abs(p.m) > 2 ** (n - 1) * s  # one stage earlier fails


def test_rescale_unit():
    four = DyadicPair(DyadicRational(4, 0), 0)
    assert rescale_unit(four, DyadicRational(4, 0)) == DyadicPair(DYADIC_ONE, 0)
    zero = DyadicPair(DYADIC_ZERO, 0)
    assert rescale_unit(zero, DyadicRational(4, 0)) == zero
    # dividing by 1/2 doubles
    assert rescale_unit(DyadicPair(DYADIC_ONE, 3), DyadicRational(1, 1)) == DyadicPair(
        DyadicRational(2, 0), 3
    )
    with pytest.raises(DomainError):
        rescale_unit(four, DyadicRational(-4, 0))
    with pytest.raises(DomainError):
        rescale_unit(four, DyadicRational(3, 0))


def test_rescale_preserves_cone():
    rng = random.Random(29)
    for _ in range(1000):
        p = DyadicPair(
            DyadicRational(rng.randint(-1024, 1024), rng.randint(0, 10)),
            rng.randint(-1024, 1024),
        )
        assert cone_membership(rescale_unit(p, DyadicRational(4, 0))) == cone_membership(p)


def test_dyadic_rational_canonical_form():
    assert DyadicRational(4, 2) == DyadicRational(1, 0)
    assert DyadicRational(6, 1) == DyadicRational(3, 0)
    assert DyadicRational(0, 9) == DYADIC_ZERO
    assert DyadicRational(4, 0).num == 4  # integers keep their value
    assert str(DyadicRational(-3, 4)) == "-3/2^4"
    with pytest.raises(DomainError):
        DyadicRational.from_fraction(Fraction(1, 3))
    with pytest.raises(DomainError):
        DyadicRational(1, -1)


def test_dyadic_arithmetic_against_fractions():
    rng = random.Random(31)
    for _ in range(500):
        a = DyadicRational(rng.randint(-300, 300), rng.randint(0, 8))
        b = DyadicRational(rng.randint(-300, 300), rng.randint(0, 8))
        fa, fb = a.to_fraction(), b.to_fraction()
        assert (a + b).to_fraction() == fa + fb
        assert (a - b).to_fraction() == fa - fb
        assert (a * b).to_fraction() == fa * fb
        assert (a < b) == (fa < fb)
        assert (a >= b) == (fa >= fb)
        assert a.halve().to_fraction() == fa / 2


def test_involution():
    p = DyadicPair(DyadicRational(5, 2), 7)
    flip = DyadicInvolution(DYADIC_ZERO)
    assert involution_apply(flip, p) == DyadicPair(DyadicRational(5, 2), -7)
    rng = random.Random(37)
    for _ in range(1000):
        inv = DyadicInvolution(DyadicRational(rng.randint(-512, 512), rng.randint(0, 9)))
        q = DyadicPair(
            DyadicRational(rng.randint(-512, 512), rng.randint(0, 9)),
            rng.randint(-512, 512),
        )
        assert involution_apply(inv, involution_apply(inv, q)) == q
        fixed = DyadicPair(q.s, 0)
        assert involution_apply(inv, fixed) == fixed
        image = one_plus_sigma_image(inv, q)
        assert image.m == 0
    # the order unit is fixed by every twist
    unit = DyadicPair(DYADIC_ONE, 0)
    assert involution_apply(DyadicInvolution(DyadicRational(7, 3)), unit) == unit


def test_one_plus_sigma():
    inv = DyadicInvolution(DyadicRational(3, 1))
    q = DyadicPair(DyadicRational(5, 2), 0)
    assert one_plus_sigma_image(inv, q) == DyadicPair(DyadicRational(5, 1), 0)
    pre = one_plus_sigma_preimage(inv, q)
    assert pre == DyadicPair(DyadicRational(5, 3), 0)
    assert one_plus_sigma_image(inv, pre) == q
    with pytest.raises(DomainError):
        one_plus_sigma_preimage(inv, DyadicPair(DYADIC_ONE, 1))


def test_birkhoff_discrepancy():
    t = pf_prefix(64)
    assert birkhoff_discrepancy(t, 0) == 1
    assert birkhoff_discrepancy(t, 4) == 3
    with pytest.raises(DomainError):
        birkhoff_discrepancy(t, 64)
    profile = discrepancy_profile(t)
    text = str(t)
    rng = random.Random(41)
    for _ in range(50):
        n = rng.randrange(64)
        naive = text[: n + 1].count("1") - text[: n + 1].count("0")
        assert birkhoff_discrepancy(t, n) == naive == int(profile[n])


def test_m_sequence():
    assert [m_sequence(n) for n in range(4)] == [0, 1, 4, 9]
    for n in range(61):
        m = m_sequence(n)
        assert m % 2 == n % 2
        assert m <= 2 ** (n + 1) - 2
    with pytest.raises(ResourceError):
        m_sequence(61)
    with pytest.raises(DomainError):
        m_sequence(-1)


def test_discrepancy_growth():
    t = pf_prefix(32)
    for n in range(4):
        assert birkhoff_discrepancy(t, m_sequence(n)) == n + 1
    assert verify_unbounded_discrepancy(10).status == "pass"


def test_coboundary_sums_bounded():
    t = pf_prefix(4096)
    for symbol in (0, 1):
        sums = coboundary_partial_sums(t, symbol)
        assert int(np.abs(sums).max()) <= 2
        f = (t.to_array() == symbol).astype(np.int64)
        assert np.array_equal(sums, f[1:] - f[0])
    assert verify_coboundary_bound(2**12).status == "pass"


def test_batteries_pass_quickly():
    assert verify_lattice_properties(4, 50, seed=7).status == "pass"
    assert verify_cone_identity(100, seed=7).status == "pass"
    assert verify_involution_algebra(100, seed=7).status == "pass"


def test_battery_reports_are_reproducible():
    a = verify_lattice_properties(3, 25, seed=11)
    b = verify_lattice_properties(3, 25, seed=11)
    assert a.to_dict() | {"elapsed_ms": 0} == b.to_dict() | {"elapsed_ms": 0}


def _fraction_oracle(q, n):
    """(in G_n, in H_n, in (G_n)+) from a plain Fraction evaluation of
    mat_pow(M, n) q, independent of the integer core."""
    M = mat_pow(PAPERFOLD_MATRIX, n)
    r = [sum(Fraction(M[i][j]) * q[j] for j in range(4)) for i in range(4)]
    in_g = all(x.denominator == 1 for x in r)
    return in_g, all(x == 0 for x in r), in_g and all(x >= 0 for x in r)


_entries = st.one_of(
    st.integers(-64, 64),
    st.builds(Fraction, st.integers(-256, 256), st.sampled_from([1, 2, 4, 8, 16, 64, 3, 12])),
    st.fractions(max_denominator=1024),
)


def _member(s_num, k, m, a, b):
    kernel = (a, a, b, -2 * a - b)
    return tuple(x + y for x, y in zip(alpha_preimage(Fraction(s_num, 2**k), m), kernel))


_vectors = st.one_of(
    st.tuples(_entries, _entries, _entries, _entries),
    st.just((0, 0, 0, 0)),
    st.builds(_member, st.integers(-1024, 1024), st.integers(0, 14), st.integers(-1024, 1024),
              st.fractions(max_denominator=64), st.fractions(max_denominator=64)),
)


@settings(max_examples=300, deadline=None)
@given(q=_vectors, n=st.integers(1, 14), c=st.integers(1, 2**40))
def test_integer_core_agrees_with_fraction_oracle(q, n, c):
    expected = _fraction_oracle([Fraction(x) for x in q], n)
    assert (in_G(q, n), in_H(q, n), in_G_plus(q, n)) == expected
    # the same value in unreduced form (c v) / (c d), as the battery builds it
    v, d = dimgroup._scaled(q)
    v, d = [c * x for x in v], c * d
    assert dimgroup._membership_triple(dimgroup._apply(mat_pow(PAPERFOLD_MATRIX, n), v), d) == expected
    if n < 2:
        return
    assert closed_form_triple(q, n) == expected
    assert dimgroup._membership_triple(dimgroup._image(v, n), d) == expected
    if expected[0]:
        pair = alpha(q, n - 2)
        assert pair.s.to_fraction() == sum(Fraction(x) for x in q)
        assert pair.m == Fraction(q[0]) - Fraction(q[1])
    else:
        with pytest.raises(DomainError):
            alpha(q, n - 2)


def _halving_normal_form(num, exp):
    """The earlier DyadicRational normalisation: halve while even."""
    if num == 0:
        return 0, 0
    while num % 2 == 0 and exp > 0:
        num //= 2
        exp -= 1
    return num, exp


@settings(max_examples=300, deadline=None)
@given(
    num=st.one_of(
        st.just(0),
        st.integers(-2048, 2048),
        st.integers(-(2**300), 2**300),
        st.builds(lambda odd, shift: odd << shift, st.integers(-99, 99), st.integers(0, 400)),
    ),
    exp=st.integers(0, 400),
)
def test_dyadic_normal_form_matches_halving_loop(num, exp):
    d = DyadicRational(num, exp)
    assert (d.num, d.exp) == _halving_normal_form(num, exp)


def _power_with_entry_off_by_one(entry, real=dimgroup._power):
    """_power with entry (row, column) of M^power one too large, for
    entry = (power, row, column); _power itself for None."""
    if entry is None:
        return real
    power, row, column = entry

    def perturbed(n):
        P = [list(r) for r in real(n)]
        if n == power:
            P[row][column] += 1
        return tuple(map(tuple, P))

    return perturbed


def _off_by_one(monkeypatch, power):
    """Make the cached power M^power wrong in its top-left entry."""
    monkeypatch.setattr(dimgroup, "_power", _power_with_entry_off_by_one((power, 0, 0)))


# the full witness pins the draw stream: a drift in it moves these bytes
@pytest.mark.parametrize(
    "power, witness",
    [
        (2, {"reason": "constructed-member-outside", "index": 2,
             "q": ["-86275/96", "-451/96", "254039/159", "8197/848"]}),
        (3, {"reason": "stage-dependence", "index": 2, "target": ["704", -894]}),
    ],
    ids=["wrong-M2", "wrong-M3"],
)
def test_lattice_properties_negative_controls(monkeypatch, power, witness):
    _off_by_one(monkeypatch, power)
    rep = verify_lattice_properties(4, 200, 42)
    assert rep.status == "fail"
    assert rep.witness == witness


def test_lattice_battery_reads_every_image_through_membership_triple(monkeypatch):
    # perfbench counts images per sample by wrapping this global name
    calls = []
    real = dimgroup._membership_triple

    def counted(r, d):
        calls.append(np.size(d))
        return real(r, d)

    monkeypatch.setattr(dimgroup, "_membership_triple", counted)
    assert verify_lattice_properties(4, 50, 42).status == "pass"
    # one call per image kind and block; every sample's images are entries
    assert sum(calls) == 3 * 50 * 6


def test_lattice_battery_memory_budget(traced_peak):
    # a block of 1024 samples and a window of about 32,000 words at a time
    rep, peak = traced_peak(verify_lattice_properties, 12, 10_000, 42)
    assert rep.status == "pass"
    assert peak <= 3 * 2**20


# ---------------------------------------------------------------------------
# the batteries' draws against the randint calls they replace


def _randint_vector(randint):
    a0, b0 = randint(-1024, 1024), randint(1, 1024)
    a1, b1 = randint(-1024, 1024), randint(1, 1024)
    a2, b2 = randint(-1024, 1024), randint(1, 1024)
    a3, b3 = randint(-1024, 1024), randint(1, 1024)
    d = math.lcm(b0, b1, b2, b3)
    return (a0 * (d // b0), a1 * (d // b1), a2 * (d // b2), a3 * (d // b3)), d


def _randint_member(randint, n):
    x = randint(-1024, 1024)
    k = randint(0, n - 2) if n > 2 else 0
    m = randint(-1024, 1024)
    a1, a2 = randint(-1024, 1024), randint(1, 1024)
    b1, b2 = randint(-1024, 1024), randint(1, 1024)
    d = (a2 * b2) << k
    md, ad, bd = m * d, (a1 * b2) << k, (b1 * a2) << k
    return (md + ad, ad, x * a2 * b2 - md + bd, -2 * ad - bd), d, x, k, m


def _randint_cone_pair(randint):
    return DyadicPair(
        DyadicRational(randint(-(2**20), 2**20), randint(0, 20)),
        randint(-(2**20), 2**20),
    )


def _randint_twist(randint):
    inv = DyadicInvolution(DyadicRational(randint(-1024, 1024), randint(0, 10)))
    p = DyadicPair(DyadicRational(randint(-1024, 1024), randint(0, 10)), randint(-1024, 1024))
    return inv, p


@settings(max_examples=100, deadline=None)
@given(field=st.sampled_from([(-1024, 1024), (1, 1024), (0, 1), (0, 2), (0, 12)]), data=st.data())
def test_after_map_finds_the_next_accepted_word(field, data):
    lo, hi = field
    w = hi - lo + 1
    edge = w << (32 - w.bit_length())  # the least word randint(lo, hi) rejects
    words = np.array(data.draw(st.lists(st.one_of(
        st.sampled_from([0, edge - 1, edge, 2**32 - 1]), st.integers(0, 2**32 - 1)), max_size=40)),
        dtype="<u4")
    dead = words.size + 1
    expected = [next((j + 1 for j in range(i, words.size) if words[j] >> (32 - w.bit_length()) < w), dead)
                for i in range(words.size)] + [dead, dead]
    assert dimgroup._after(words, lo, hi).tolist() == expected


def _columns(arrays, j):
    return tuple(int(a[j]) for a in arrays)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64), n=st.integers(2, 14),
       counts=st.lists(st.integers(1, 1100), min_size=2, max_size=3),
       fetch=st.sampled_from([61, 1 << 15]))
def test_battery_draws_follow_the_randint_stream(seed, n, counts, fetch):
    # small fetches put records across fetches; about half the windows end
    # inside a record, and a window too small for any record grows
    new, ref = random.Random(seed), random.Random(seed)
    draws = dimgroup._RandintBlocks(new.getrandbits)
    fields = dimgroup._VECTOR_FIELDS + dimgroup._member_fields(n)
    with mock.patch.object(dimgroup, "_FETCH_WORDS", fetch):
        for count in counts:
            F = draws.take(fields, count)
            assert F.shape == (len(fields), count)
            (v, d), (u, du, x, k, m) = dimgroup._vectors(F[:8]), dimgroup._members(F[8:], n)
            for j in range(count):
                assert (_columns(v, j), int(d[j])) == _randint_vector(ref.randint)
                assert (_columns(u, j), *_columns((du, x, k, m), j)) == _randint_member(ref.randint, n)
    new, ref = random.Random(seed), random.Random(seed)
    for _ in range(10):
        assert dimgroup._draw_cone_pair(new.getrandbits) == _randint_cone_pair(ref.randint)
        assert dimgroup._draw_twist(new.getrandbits) == _randint_twist(ref.randint)
        assert new.getstate() == ref.getstate()


def reference_lattice_battery(index_max, samples, seed):
    """The lattice battery as a loop over the samples, each drawn by the
    randint calls themselves and decided on Python ints through the scalar
    predicates; the array battery must give the same report."""
    chk = Check("dimgroup.lattice-properties", {"index_max": index_max, "samples": samples},
                "lattice membership, nesting, quotient kernel and cone all agree exactly", seed=seed)
    randint = random.Random(seed).randint
    _power, _apply, _membership_triple = dimgroup._power, dimgroup._apply, dimgroup._membership_triple

    def fail(reason, n, payload):
        return chk.failed({"reason": reason, "index": n, **payload})

    def fraction_text(v, d):
        return [str(Fraction(x, d)) for x in v]

    def target_text(x, k, m):
        return [str(Fraction(x, 1 << k)), m]

    for n in range(2, index_max + 1):
        P, P_next, e = _power(n), _power(n + 1), 1 << (n - 2)
        for _ in range(samples):
            v, d = _randint_vector(randint)
            got = _membership_triple(_apply(P, v), d)
            if got != _membership_triple(dimgroup._image(v, n), d):
                return fail("closed-form-disagrees", n, {"q": fraction_text(v, d)})
            # nesting into the next stage: on booleans, a > b is a and not b
            nxt = _membership_triple(_apply(P_next, v), d)
            if got[0] > nxt[0] or got[1] > nxt[1] or got[2] > nxt[2]:
                return fail("nesting-violated", n, {"q": fraction_text(v, d)})

            v, d, x, k, m = _randint_member(randint, n)
            in_g, in_h, _ = _membership_triple(_apply(P, v), d)
            if not in_g:
                return fail("constructed-member-outside", n, {"q": fraction_text(v, d)})
            # the quotient map at stage n - 2 sends v / d to (sum(v), v1 - v2) / d
            if sum(v) << k != x * d or v[0] - v[1] != m * d:
                return fail("quotient-map-wrong-target", n, {"target": target_text(x, k, m)})
            # the map does not depend on the stage it is computed at: stage
            # n - 1 gives the same value, provided the member is in G_{n+1}
            if not _membership_triple(_apply(P_next, v), d)[0]:
                return fail("stage-dependence", n, {"target": target_text(x, k, m)})
            # kernel identity
            if in_h != (x == 0 and m == 0):
                return fail("kernel-identity", n, {"q": fraction_text(v, d)})
            # canonical preimage lies in the positive set iff the target
            # satisfies the stage's cone inequality
            base = (m << k, 0, x - (m << k), 0)
            staged_ok = x >= 0 and abs(m) << k <= e * x
            if _membership_triple(_apply(P, base), 1 << k)[2] != staged_ok:
                return fail("cone-correspondence", n, {"target": target_text(x, k, m)})
    return chk.passed()


def _report_body(rep):
    return {key: value for key, value in rep.to_dict().items() if key != "elapsed_ms"}


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**64), index_max=st.integers(2, 14), samples=st.integers(1, 2500),
       entry=st.one_of(st.none(), st.tuples(st.integers(2, 15), st.integers(0, 3), st.integers(0, 3))))
def test_lattice_battery_matches_the_sample_loop(seed, index_max, samples, entry):
    # blocks of 1024 samples: up to 2500 samples cross two block edges
    with mock.patch.object(dimgroup, "_power", _power_with_entry_off_by_one(entry)):
        assert _report_body(verify_lattice_properties(index_max, samples, seed)) == _report_body(
            reference_lattice_battery(index_max, samples, seed))


@pytest.mark.parametrize("index_max, samples, seed", [(16, 1000, 7), (40, 200, 42)])
def test_lattice_battery_on_python_ints_past_the_int64_bound(index_max, samples, seed):
    assert index_max > dimgroup._INT64_INDEX_MAX
    rep = verify_lattice_properties(index_max, samples, seed)
    assert rep.status == "pass"
    assert _report_body(rep) == _report_body(reference_lattice_battery(index_max, samples, seed))


@pytest.mark.parametrize("w", [1, 2, 1024, 2049])
@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**64), lo=st.integers(-(2**20), 2**20))
def test_below_draw_matches_randint(w, seed, lo):
    new, ref = random.Random(seed), random.Random(seed)
    got = [dimgroup._below(new.getrandbits, w) for _ in range(64)]
    assert got == [ref.randint(lo, lo + w - 1) - lo for _ in range(64)]
    assert new.getstate() == ref.getstate()


@pytest.mark.parametrize(
    "battery",
    [lambda s: verify_lattice_properties(3, s), verify_cone_identity, verify_involution_algebra],
    ids=["lattice", "cone", "involution"],
)
def test_batteries_reject_vacuous_and_oversized_samples(battery):
    for samples in (0, -5):
        with pytest.raises(DomainError):
            battery(samples)
    with pytest.raises(ResourceError):
        battery(MAX_SAMPLES + 1)


def test_lattice_index_cap_is_checked_before_any_work(monkeypatch):
    def no_work(n):
        raise AssertionError("the battery started")

    monkeypatch.setattr(dimgroup, "_power", no_work)
    with pytest.raises(ResourceError):
        verify_lattice_properties(MAX_MATRIX_POWER, 10)
    with pytest.raises(ResourceError):
        verify_lattice_properties(3, MAX_SAMPLES + 1)
    # the total work (index_max - 1) * samples is capped too
    with pytest.raises(ResourceError):
        verify_lattice_properties(MAX_MATRIX_POWER - 1, MAX_SAMPLES)
    with pytest.raises(ResourceError):
        verify_lattice_properties(12, MAX_SAMPLES // 11 + 1)
    # and the cap is inclusive: this battery gets as far as its first power
    with pytest.raises(AssertionError, match="the battery started"):
        verify_lattice_properties(11, MAX_SAMPLES // 10)


# ---------------------------------------------------------------------------
# discrepancy and coboundary against the full-length formulations they replaced


def discrepancy_oracle(arr, checkpoints):
    profile = discrepancy_profile(Word.from_array(arr))
    return [int(profile[m]) for m in checkpoints]


def coboundary_oracle(arr, symbol):
    """(max |sum|, telescopes) from the int64 partial sums the check built."""
    f = (arr == symbol).astype(np.int64)
    sums = np.cumsum(f[1:] - f[:-1])
    return int(np.abs(sums).max()), bool(np.array_equal(sums, f[1:] - f[0]))


def random_bits(seed, n, density=0.5):
    return (np.random.default_rng(seed).random(n) < density).astype(np.uint8)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5000), density=st.sampled_from([0.5, 0.05]),
       data=st.data())
def test_discrepancy_core_matches_profile(seed, n, density, data):
    arr = random_bits(seed, n, density)
    checkpoints = sorted(set(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=30))))
    assert dimgroup._discrepancies_at(arr, checkpoints) == discrepancy_oracle(arr, checkpoints)


def _pf_with_flip(length, i, block=1):
    arr = pf_prefix(length).to_array().copy()
    arr[i : i + block] ^= 1
    return arr


@settings(max_examples=100, deadline=None)
@given(N=st.integers(0, 14), i=st.integers(0, 2**15), block=st.sampled_from([1, 1, 40]))
def test_discrepancy_report_matches_profile(symbols, N, i, block):
    checkpoints = [m_sequence(n) for n in range(N + 1)]
    arr = _pf_with_flip(checkpoints[-1] + 1, i % (checkpoints[-1] + 1), block)
    with symbols(arr):
        rep = verify_unbounded_discrepancy(N)
    observed = discrepancy_oracle(arr, checkpoints)
    bad = next((n for n in range(N + 1) if observed[n] != n + 1), None)
    assert (rep.status, rep.witness) == (
        ("pass", None) if bad is None
        else ("fail", {"n": bad, "m_n": checkpoints[bad], "observed": observed[bad]}))


def test_discrepancy_negative_control(symbols):
    # t[5] = 0 becomes 1: the discrepancy at m(3) = 9 reads 6, not 4
    with symbols(_pf_with_flip(2**12, 5)):
        rep = verify_unbounded_discrepancy(10)
    assert rep.status == "fail"
    assert rep.witness == {"n": 3, "m_n": 9, "observed": 6}


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 3000), density=st.sampled_from([0.5, 0.02]),
       chunk=st.sampled_from([1, 2, 7, 64, 1 << 20]), symbol=st.integers(0, 1))
def test_coboundary_core_matches_int64_sums(seed, n, density, chunk, symbol):
    # small chunks put many chunk edges inside short words
    arr = random_bits(seed, n, density)
    with mock.patch.object(dimgroup, "_COBOUNDARY_CHUNK", chunk):
        assert dimgroup._coboundary_max_abs(arr, symbol) == coboundary_oracle(arr, symbol)


@pytest.mark.parametrize("n", [2**20 - 1, 2**20, 2**20 + 1, 2**20 + 2, 2**21 + 1])
def test_coboundary_at_the_chunk_edges(symbols, n):
    for arr in (pf_prefix(n).to_array(), random_bits(n, n)):
        for symbol in (0, 1):
            assert dimgroup._coboundary_max_abs(arr, symbol) == coboundary_oracle(arr, symbol)
    # the check cannot fail on any word: the sums telescope, so only the
    # pass verdict is reachable
    with symbols(random_bits(n + 1, n)):
        rep = verify_coboundary_bound(n)
    assert (rep.status, rep.witness) == ("pass", None)


def test_scan_checks_run_in_chunk_sized_memory(traced_peak):
    # one chunk is 2^20 symbols; the int64 partial sums or profile of the
    # whole prefix alone would be 32 MiB and 11 MiB here
    rep, peak = traced_peak(verify_coboundary_bound, 2**22)
    assert rep.status == "pass"
    assert peak < 6 * 2**20
    rep, peak = traced_peak(verify_unbounded_discrepancy, 20)
    assert rep.status == "pass"
    assert peak < 2**20


def test_cone_battery_holds_one_sample_at_a_time(traced_peak):
    # 10,000 drawn pairs held at once take about 2.5 MiB
    rep, peak = traced_peak(verify_cone_identity, 10_000, 42)
    assert rep.status == "pass"
    assert peak < 0.25 * 2**20
