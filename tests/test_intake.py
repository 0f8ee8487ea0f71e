"""Every public callable of the library takes its integer arguments by one
rule, errors.integer: a value that is not an integer is a DomainError,
never a TypeError, an AttributeError or a truncated value, and a value
past its cap is a ResourceError raised before anything is allocated."""

import inspect
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import pfkit
from pfkit.dimgroup import (
    MAX_DYADIC_EXP,
    DyadicPair,
    DyadicRational,
    alpha,
    alpha_preimage,
    in_G,
    in_G_plus,
    in_H,
    rescale_unit,
)
from pfkit.errors import DomainError, ResourceError, integer, rational
from pfkit.words import Alphabet, FactorIndex, Word, count, window_codes

from intake_cases import EXCLUDED, MODULES, cases

CASES = cases()
NOT_INTEGERS = (2.5, "3", Fraction(3, 2), None)


def _integer_parameters():
    """``"module.name" -> {parameter: its default}`` of the parameters
    annotated int, for every callable in the five modules' __all__ that
    has one."""
    found = {}
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            if callable(obj):
                params = {p.name: p.default for p in inspect.signature(obj).parameters.values()
                          if re.search(r"\bint\b", str(p.annotation))}
                if params:
                    found[f"{module.__name__.rsplit('.', 1)[1]}.{name}"] = params
    return found


def test_the_table_names_every_integer_parameter():
    found = _integer_parameters()
    assert set(EXCLUDED) <= set(found)
    assert {name: set(params) for name, params in found.items() if name not in EXCLUDED} == {
        name: set(caps) for name, (_, _, caps) in CASES.items()}


@pytest.mark.parametrize("name", list(CASES))
def test_integer_parameters_refuse_what_is_not_an_integer(name):
    fn, kwargs, caps = CASES[name]
    fn(**kwargs)  # the valid call runs, so each refusal below is the bad value's
    defaults = _integer_parameters()[name]
    for param in caps:
        for bad in NOT_INTEGERS:
            if bad is None and defaults[param] is None:
                continue  # None is its default
            with pytest.raises(DomainError, match=r"must be an integer, not \w+"):
                fn(**{**kwargs, param: bad})


def test_capped_parameters_refuse_cap_plus_one_before_allocating():
    # one child process, under its own address-space limit, makes every
    # over-cap call; a cap checked after allocating reads MemoryError
    src = str(Path(pfkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = Path(__file__).resolve().parent / "intake_cases.py"
    done = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    capped = {f"{name} {param}" for name, (_, _, caps) in CASES.items()
              for param, cap in caps.items() if cap is not None}
    assert json.loads(done.stdout) == dict.fromkeys(sorted(capped), "ResourceError")


def test_integer_takes_bool_and_numpy_integers_as_plain_ints():
    for value, expected in ((True, 1), (np.int64(3), 3), (np.uint8(3), 3), (7, 7)):
        got = integer(value, "x")
        assert got == expected and type(got) is int
    assert type(Alphabet(np.int64(4)).size) is int
    assert window_codes(np.array([1, 0, 1], dtype=np.uint8), np.int8(2)).tolist() == [1, 2]


def test_integer_messages():
    expected = (((2.5, "seed"), {}, DomainError, "seed must be an integer, not float"),
             ((-1, "seed"), {"lo": 0}, DomainError, "seed must be non-negative"),
             ((0, "n_max"), {"lo": 1}, DomainError, "n_max must be at least 1"),
             ((5, "offset"), {"hi": 1}, DomainError, "offset must be at most 1, not 5"),
             ((31, "generation"), {"cap": 30}, ResourceError, "generation 31 exceeds the cap of 30"))
    for args, bounds, error, message in expected:
        with pytest.raises(error) as exc:
            integer(*args, **bounds)
        assert str(exc.value) == message


def test_symbols_and_alphabets_are_integers_or_one_digit_of_text():
    w = Word("101")
    assert count(w, 1) == count(w, "1") == count(w, np.uint8(1)) == count(w, True) == 2
    for bad in (1.7, Fraction(1), None, "x", "10", "", 2):
        with pytest.raises(DomainError):
            count(w, bad)
    for bad in (2.9, 2.0, "2", None):
        with pytest.raises(DomainError):
            Word("11", bad)
        with pytest.raises(DomainError):
            Alphabet(bad)
    with pytest.raises(DomainError):
        Word.from_packed(b"\x01", 1.5)


def test_window_lengths_and_widths_start_at_one():
    arr = np.array([1, 0, 1, 1], dtype=np.uint8)
    for n in (0, -2):
        with pytest.raises(DomainError):
            window_codes(arr, n)
    for bits in (0, 3):
        with pytest.raises(DomainError):
            window_codes(arr, 1, bits)
        with pytest.raises(DomainError):
            FactorIndex(arr, bits)


def test_rational_takes_integers_and_fractions_only():
    assert rational(Fraction(1, 3), "x") == Fraction(1, 3)
    for value in (True, np.int64(3), 7):
        got = rational(value, "x")
        assert got == int(value) and type(got) is int
    for bad in (0.5, "1/2", None, DyadicRational(1, 1)):
        with pytest.raises(DomainError) as exc:
            rational(bad, "x")
        assert str(exc.value) == f"x must be an integer or a Fraction, not {type(bad).__name__}"


def test_dimgroup_takes_exact_values_only():
    # a float was taken as its binary value (0.1 as 3602879701896397/2^55),
    # a str was parsed, and a non-vector or a DyadicRational entry raised
    # TypeError, a str operand ValueError
    one = DyadicRational(1, 0)
    refused = (
        lambda: in_G((0.1, 0, 0, 0), 2),
        lambda: in_G(("1/2", 0, 0, 0), 2),
        lambda: in_H((0.5, 0, 0, 0), 2),
        lambda: in_G_plus((0, 0, 0, 0.25), 2),
        lambda: alpha((1.0, 1, 1, 1), 0),
        lambda: DyadicRational.from_fraction("1/4"),
        lambda: DyadicRational.from_fraction(0.25),
        lambda: alpha_preimage("1/3", 1),
        lambda: alpha_preimage(0.5, 1),
        lambda: one + 0.5,
        lambda: one - 0.5,
        lambda: one * 0.5,
        lambda: one < 1.5,
        lambda: one >= "x",
        lambda: rescale_unit(DyadicPair(one, 0), 4.0),
        lambda: in_G(5, 2),
        lambda: in_G(None, 2),
        lambda: in_G((DyadicRational(1, 1), 0, 0, 0), 2),
    )
    for call in refused:
        with pytest.raises(DomainError):
            call()
    # int, numpy integer and Fraction values give what they gave before
    half = Fraction(1, 2)
    assert [in_G((half, half, 0, 0), n) for n in (1, 2, 3)] == [False, True, True]
    assert not in_G((half, 0, 0, 0), 3)
    assert in_G((np.int64(1), True, 0, 0), 2) and not in_H((1, 1, 1, 1), 2)
    assert in_H((1, 1, -2, 0), 2) and in_G_plus((1, 1, 1, 1), 2) and not in_G_plus((half, 0, -1, 0), 3)
    assert alpha((1, 1, 1, 1), 0) == DyadicPair(DyadicRational(4, 0), 0)
    assert alpha((half, half, 0, 0), 1) == DyadicPair(DyadicRational(1, 0), 0)
    got = alpha_preimage(Fraction(1, 3), 1)
    assert got == (1, 0, Fraction(-2, 3), 0) and all(type(x) is Fraction for x in got)
    assert alpha_preimage(3, 1) == (1, 0, 2, 0) and type(alpha_preimage(3, 1)[2]) is Fraction
    assert alpha_preimage(DyadicRational(1, 2), 0) == (0, 0, Fraction(1, 4), 0)
    assert DyadicRational.from_fraction(Fraction(1, 4)) == DyadicRational(1, 2)
    assert DyadicRational.from_fraction(6) == DyadicRational(6, 0)
    assert one + half == DyadicRational(3, 1) and one - 2 == DyadicRational(-1, 0)
    assert one * Fraction(3, 4) == DyadicRational(3, 2) and 2 * one == DyadicRational(2, 0)
    assert one < Fraction(3, 2) and not one < 1 and one >= np.int8(1)
    assert rescale_unit(DyadicPair(one, 0), 4) == DyadicPair(DyadicRational(1, 2), 0)
    assert rescale_unit(DyadicPair(one, 0), half) == DyadicPair(DyadicRational(2, 0), 0)


def test_dyadic_exponents_stop_at_the_cap():
    # a shift by an exponent of 10**12 ended in MemoryError
    top = DyadicRational(1, MAX_DYADIC_EXP)
    assert top < DyadicRational(1, 0) and (top + 1).exp == MAX_DYADIC_EXP
    for call in (lambda: DyadicRational(1, 10**12), lambda: top.halve(),
                 lambda: top * DyadicRational(1, 1),
                 lambda: DyadicRational.from_fraction(Fraction(1, 2 ** (MAX_DYADIC_EXP + 1)))):
        with pytest.raises(ResourceError, match="exponent"):
            call()
