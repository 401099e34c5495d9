"""Machine-readable check reports shared by the CLI commands.

Reports serialize to JSON with sorted keys and name-sorted check rows, so
a fixed seed and config produce byte-identical output apart from the
wall-time field.  Every row names the mathematical relation under test so
failures map straight back to the law being checked.  One rule decides a
row's status, in Check alone: a row passes when its precondition holds
(default True) and residual <= tolerance.
"""

from __future__ import annotations

import json
import time
from dataclasses import InitVar, dataclass, field

from ._version import __version__


@dataclass(frozen=True)
class Check:
    """One report row: it passes when its precondition holds and residual <= tolerance.

    The comparison reads the residual and tolerance as given, so an exact
    Fraction residual is compared exactly; both are then stored as floats.
    A boolean row has residual 0 or 1 and tolerance 0.
    """

    name: str
    residual: float
    tolerance: float
    relation: str
    details: str = ""
    holds: InitVar[bool] = True
    passed: bool = field(init=False)

    def __post_init__(self, holds):
        object.__setattr__(self, "passed", bool(holds and self.residual <= self.tolerance))
        object.__setattr__(self, "residual", float(self.residual))
        object.__setattr__(self, "tolerance", float(self.tolerance))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": "pass" if self.passed else "fail",
            "residual": self.residual,
            "tolerance": self.tolerance,
            "relation": self.relation,
            "details": self.details,
        }


@dataclass
class Report:
    command: str
    config: dict
    checks: list = field(default_factory=list)
    started: float = field(default_factory=time.perf_counter)

    def add(self, *args, **kwargs) -> Check:
        """Append and return Check(*args, **kwargs)."""
        check = Check(*args, **kwargs)
        self.checks.append(check)
        return check

    @property
    def exit_code(self) -> int:
        return 0 if all(c.passed for c in self.checks) else 1

    def to_dict(self) -> dict:
        return {
            "tool": "clifbundle",
            "version": __version__,
            "command": self.command,
            "config": self.config,
            "checks": [c.to_dict() for c in sorted(self.checks, key=lambda c: c.name)],
            "wall_time_s": round(time.perf_counter() - self.started, 6),
        }

    def to_json(self, extra: dict | None = None) -> str:
        """Sorted-key JSON of the report, with any extra top-level payload merged in."""
        data = {**self.to_dict(), **(extra or {})}
        return json.dumps(data, sort_keys=True, indent=2, default=_json_default)

    def summary_lines(self) -> list[str]:
        lines = [
            f"{'PASS' if c.passed else 'FAIL'}  {c.name}  "
            f"residual={c.residual:.3e}  tol={c.tolerance:.3e}"
            for c in sorted(self.checks, key=lambda c: c.name)
        ]
        passed = sum(c.passed for c in self.checks)
        return lines + [f"{passed}/{len(self.checks)} checks passed"]


def _json_default(obj):
    try:
        return float(obj)
    except (TypeError, ValueError):
        return str(obj)
