"""Machine-readable check reports shared by the CLI commands.

Reports serialize to JSON with sorted keys and name-sorted check rows, so
a fixed seed and config produce byte-identical output apart from the
wall-time field.  Every row names the mathematical relation under test so
failures map straight back to the law being checked.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from ._version import __version__


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    residual: float
    tolerance: float
    relation: str
    details: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": "pass" if self.passed else "fail",
            "residual": self.residual,
            "tolerance": self.tolerance,
            "relation": self.relation,
            "details": self.details,
        }

    @classmethod
    def boolean(cls, name: str, passed: bool, relation: str, details: str = "") -> "Check":
        """Pass/fail row: residual 0 on pass, 1 on fail, zero tolerance."""
        return cls(
            name=name, passed=bool(passed), residual=0.0 if passed else 1.0,
            tolerance=0.0, relation=relation, details=details,
        )


@dataclass
class Report:
    command: str
    config: dict
    checks: list = field(default_factory=list)
    started: float = field(default_factory=time.perf_counter)

    def add(
        self,
        name: str,
        residual: float,
        tolerance: float,
        relation: str,
        details: str = "",
        passed: bool | None = None,
    ) -> Check:
        if passed is None:
            passed = residual <= tolerance
        check = Check(
            name=name,
            passed=bool(passed),
            residual=float(residual),
            tolerance=float(tolerance),
            relation=relation,
            details=details,
        )
        self.checks.append(check)
        return check

    def add_bool(self, name: str, passed: bool, relation: str, details: str = "") -> Check:
        check = Check.boolean(name, passed, relation, details)
        self.checks.append(check)
        return check

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def exit_code(self) -> int:
        return 0 if self.all_passed else 1

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
        lines = []
        for c in sorted(self.checks, key=lambda c: c.name):
            status = "PASS" if c.passed else "FAIL"
            lines.append(
                f"{status}  {c.name}  residual={c.residual:.3e}  tol={c.tolerance:.3e}"
            )
        n_fail = sum(not c.passed for c in self.checks)
        lines.append(
            f"{len(self.checks) - n_fail}/{len(self.checks)} checks passed"
        )
        return lines


def _json_default(obj):
    try:
        return float(obj)
    except (TypeError, ValueError):
        return str(obj)
