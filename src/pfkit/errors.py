"""Exception types shared across the toolkit, and the intake rules for
integer and exact rational arguments (:func:`integer`, :func:`rational`)."""

import operator
from fractions import Fraction


class PfkitError(Exception):
    """Base class for all toolkit errors."""


class DomainError(PfkitError, ValueError):
    """An argument violates an operation's precondition (bad alphabet,
    out-of-range index, odd length where even is required, ...)."""


class ResourceError(PfkitError):
    """A request exceeds the configured desk-scale resource budget."""


class ExtensionError(PfkitError):
    """Leftward extension got stuck: no letter keeps all windows up to the
    horizon inside the language.  Carries the prefix that could not be
    extended; usually a sign the horizon is too small or the source word
    is not recurrent."""

    def __init__(self, stuck_prefix, horizon):
        self.stuck_prefix = stuck_prefix
        self.horizon = horizon
        super().__init__(
            f"no admissible letter within horizon {horizon}; "
            f"stuck at prefix {stuck_prefix!s}"
        )


def integer(value, name: str, *, lo=None, hi=None, cap=None) -> int:
    """``value`` as a plain int: how every public callable takes its
    integer arguments, before it allocates or loops.

    ``operator.index`` accepts int, bool and numpy integers, and returns a
    plain int (True is 1, numpy.int64(3) is 3).  It truncates nothing: a
    float, a Fraction, a str or None is a DomainError that names ``name``
    and the type.  A value below ``lo`` or above ``hi`` is a DomainError;
    a value above ``cap``, a resource budget, is a ResourceError."""
    try:
        n = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, not {type(value).__name__}") from None
    if lo is not None and n < lo:
        raise DomainError(f"{name} must be non-negative" if lo == 0 else f"{name} must be at least {lo}")
    if hi is not None and n > hi:
        raise DomainError(f"{name} must be at most {hi}, not {n}")
    if cap is not None and n > cap:
        raise ResourceError(f"{name} {n} exceeds the cap of {cap}")
    return n


def rational(value, name: str):
    """``value`` as an exact rational: a Fraction, or an integer taken by
    :func:`integer`.  Anything else is a DomainError that names the type."""
    if isinstance(value, Fraction):
        return value
    try:
        return integer(value, name)
    except DomainError:
        raise DomainError(f"{name} must be an integer or a Fraction, not {type(value).__name__}") from None
