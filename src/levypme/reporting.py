"""Study reports: structured key-value documents plus flat plotting tables.

Serialization is fully deterministic: floats use repr (shortest round-trip),
JSON keys are sorted, and nothing time-dependent enters the report or the
tables.  JSON has no NaN or Infinity (RFC 8259), so a non-finite float, such
as the slope of a fit with too few pairs, is written as ``null``.
Timestamps, when wanted, belong to the run metadata file written by the CLI.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

SCHEMA_VERSION = 1

__all__ = [
    "ConstantRecord",
    "PairEstimate",
    "PropertyCheck",
    "SlopeFit",
    "StudyReport",
    "Table",
    "SCHEMA_VERSION",
]


@dataclass(frozen=True)
class ConstantRecord:
    value: float
    formula: str


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class PairEstimate:
    """Monte Carlo estimate for one ladder pair (mean with standard error)."""

    param_hi: float
    param_lo: float
    gap: float
    mean: float
    stderr: float
    paths: int


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    ci_low: float
    ci_high: float
    significant: bool
    pairs_used: int


@dataclass(frozen=True)
class Table:
    name: str
    columns: tuple
    rows: tuple

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_cell(v) for v in row))
        return "\n".join(lines) + "\n"


def _cell(v) -> str:
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _jsonable(v):
    if isinstance(v, ConstantRecord):
        return {"value": _jsonable(v.value), "formula": v.formula}
    if isinstance(v, (PropertyCheck, PairEstimate, SlopeFit)):
        return {k: _jsonable(getattr(v, k)) for k in v.__dataclass_fields__}
    if isinstance(v, Table):
        return {"columns": list(v.columns), "rows": [_jsonable(r) for r in v.rows]}
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


@dataclass
class StudyReport:
    """One study's results: checks, estimates, fits, constants and tables."""

    kind: str
    parameters: dict = field(default_factory=dict)
    pairs: list = field(default_factory=list)
    slope: Optional[SlopeFit] = None
    constants_used: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    tables: list = field(default_factory=list)
    schema_version: int = SCHEMA_VERSION
    # How a Monte Carlo study got its samples, "marched" or "reused" (see
    # cascade._run_cells).  Run metadata: kept out of report.json, which is
    # the same either way.
    ensemble: Optional[str] = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]

    def to_json_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "parameters": _jsonable(self.parameters),
            "pairs": _jsonable(self.pairs),
            "slope": _jsonable(self.slope) if self.slope is not None else None,
            "constants_used": _jsonable(self.constants_used),
            "checks": _jsonable(self.checks),
            "extra": _jsonable(self.extra),
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(
            self.to_json_dict(), sort_keys=True, indent=2, allow_nan=False
        ) + "\n"

    def write(self, out_dir) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(self.to_json())
        for table in self.tables:
            (out / f"{table.name}.csv").write_text(table.to_csv())
        path = out / "failures.json"
        if self.passed:  # no failures.json of an earlier run outlives a pass
            path.unlink(missing_ok=True)
        else:
            failures = {"failures": _jsonable(self.failures())}
            path.write_text(json.dumps(failures, sort_keys=True, indent=2, allow_nan=False) + "\n")
