"""Named verification outcomes and their JSON/markdown rendering.

Reports are deterministic: identical parameters and seed must produce an
identical report except for the elapsed_ms field.  Producers therefore
never put timestamps, paths, or unordered collections into params or
witness.

:class:`Check` is the one way to make a report: it fixes the check name,
params, certifies line and seed up front, starts the clock, and finishes
the report with :meth:`Check.passed`, :meth:`Check.failed` or
:meth:`Check.report`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Optional

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
            "params": jsonable(self.params),
            "witness": jsonable(self.witness),
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


def jsonable(value):
    """Recursively convert witness/params values to JSON-safe data.

    Words render as their text form, Fractions as "a/b", objects with a
    to_json hook via that hook, tuples as lists.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=str)
        return [jsonable(v) for v in items]
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
