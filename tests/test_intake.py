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
from pfkit.errors import DomainError, ResourceError, integer
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
