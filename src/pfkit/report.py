"""Named verification outcomes and their JSON/markdown rendering.

Reports are deterministic: identical parameters and seed must produce an
identical report except for the elapsed_ms field.  Producers therefore
never put timestamps, paths, or unordered collections into params or
witness.

:class:`Check` is the one way to make a report: it fixes the check name,
params, certifies line and seed up front, starts the clock, and finishes
the report with :meth:`Check.passed`, :meth:`Check.failed` or
:meth:`Check.report`.

:func:`jsonable` is the one way a value reaches a report.  Its cases, in
order: None, bool, int and str as they are; a float refused; a Fraction
as "a/b"; a ``to_json`` hook as what it returns; a dict, list, tuple or
set by its items; a dataclass as a dict of its fields; anything else as
its str.  So a record needs no code to be reported, and a type defines
``to_json`` only when its JSON is not its fields.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields, is_dataclass
from fractions import Fraction
from typing import Any, Optional

from .errors import DomainError

__all__ = ["Check", "CheckReport", "emit_report", "jsonable"]

_STATUSES = ("pass", "fail", "inconclusive", "error")


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named check.

    ``status`` is one of pass | fail | inconclusive | error.  A fail or
    inconclusive report always carries a witness (counterexample data or a
    reason string).  ``certifies`` is a one-line statement of the
    mathematical fact the check certifies when it passes.
    """

    check: str
    status: str
    params: dict = field(default_factory=dict)
    witness: Any = None
    elapsed_ms: int = 0
    seed: Optional[int] = None
    certifies: str = ""

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"bad status {self.status!r}")
        if self.status in ("fail", "inconclusive") and self.witness is None:
            raise ValueError(f"{self.status} report for {self.check} needs a witness")

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        # fixed key order; json.dumps preserves insertion order
        return {
            "check": self.check,
            "status": self.status,
            "params": jsonable(self.params, "params"),
            "witness": jsonable(self.witness, "witness"),
            "elapsed_ms": self.elapsed_ms,
            "seed": self.seed,
            "certifies": self.certifies,
        }


class Check:
    """Builder for the report of one run of a named check.

    Construction starts the clock; each finishing call stamps elapsed_ms
    and returns the validated CheckReport.
    """

    def __init__(self, name: str, params: dict, certifies: str, seed: Optional[int] = None):
        self.name = name
        self.params = params
        self.certifies = certifies
        self.seed = seed
        self.t0 = time.perf_counter()

    @property
    def ms(self) -> int:
        """Milliseconds since the check started."""
        return int((time.perf_counter() - self.t0) * 1000)

    def report(self, status: str, witness: Any = None) -> CheckReport:
        return CheckReport(
            check=self.name,
            status=status,
            params=self.params,
            witness=witness,
            elapsed_ms=self.ms,
            seed=self.seed,
            certifies=self.certifies,
        )

    def passed(self, witness: Any = None) -> CheckReport:
        return self.report("pass", witness)

    def failed(self, witness: Any) -> CheckReport:
        return self.report("fail", witness)


def jsonable(value, where: str = "value"):
    """Recursively convert witness/params values to JSON-safe data, by the
    first case that applies: None, bools, ints and strs stay as they are;
    a Fraction renders as "a/b"; an object with a to_json hook as what
    that hook returns; a dict with its keys as strs; a list, tuple or set
    as a list (a set sorted by str); a dataclass instance as a dict of its
    fields in declaration order; anything else, a Word for one, as its
    str.  Every value inside renders by the same cases.  Every
    certificate is exact, so a float is refused: DomainError names where
    it sits, starting from ``where`` (``witness.counts['2']``).
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        raise DomainError(f"{where} is the float {value!r}; a report holds exact values only")
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if hasattr(value, "to_json"):
        return jsonable(value.to_json(), where)
    if isinstance(value, dict):
        return {str(k): jsonable(v, f"{where}[{str(k)!r}]") for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=str)
        return [jsonable(v, f"{where}[{i}]") for i, v in enumerate(items)]
    # after the containers, so that they pay no is_dataclass call
    if is_dataclass(value):
        return {f.name: jsonable(getattr(value, f.name), f"{where}.{f.name}") for f in fields(value)}
    return str(value)


def emit_report(reports, format: str = "json") -> str:
    """Render a list of CheckReports as a JSON array or a markdown table."""
    if format == "json":
        return json.dumps([r.to_dict() for r in reports], indent=2)
    if format == "markdown":
        if not reports:
            return ""
        lines = [
            "| check | status | certifies | elapsed_ms |",
            "| --- | --- | --- | --- |",
        ]
        for r in reports:
            lines.append(
                f"| {r.check} | {r.status} | {r.certifies} | {r.elapsed_ms} |"
            )
        return "\n".join(lines)
    raise ValueError(f"unknown report format {format!r}")
