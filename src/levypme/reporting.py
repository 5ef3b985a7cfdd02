"""Study reports: structured key-value documents plus flat plotting tables,
and the one rule that judges every sampled inequality of the audits
(:func:`verdict`).

Serialization is fully deterministic: floats use repr (shortest round-trip),
JSON keys are sorted, and nothing time-dependent enters the report or the
tables.  JSON has no NaN or Infinity (RFC 8259), so a non-finite float, such
as the slope of a fit with too few pairs, is written as ``null``.
Timestamps, when wanted, belong to the run metadata file written by the CLI.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, is_dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

SCHEMA_VERSION = 1

__all__ = [
    "ConditionResult",
    "ConstantRecord",
    "PairEstimate",
    "PropertyCheck",
    "SlopeFit",
    "StudyReport",
    "Table",
    "SCHEMA_VERSION",
    "verdict",
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
class ConditionResult:
    """The verdict on one sampled inequality (see :func:`verdict`)."""

    name: str
    checked: int
    min_slack: float
    violation_count: int
    witness: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.violation_count == 0


def verdict(name: str, lhs, rhs, row: Callable[[int], str] = "sample {}".format) -> ConditionResult:
    """Judge lhs <= rhs row by row, with zero tolerance.

    The slack is ``rhs - lhs`` (either side may be a scalar, broadcast over
    the rows; a 2-D pair is judged in row-major order).  A row violates
    unless its slack is >= 0, so a NaN slack fails and +inf passes.  The
    result holds the worst slack (NaN when any slack is NaN), the number of
    violating rows and, when there is one, a witness: the worst row i, named
    ``row(i)``, with both of its sides.
    """
    lhs, rhs = (side.ravel() for side in np.broadcast_arrays(lhs, rhs))
    slack = rhs - lhs
    i = int(np.argmin(slack))
    bad = slack.size - int(np.count_nonzero(slack >= 0.0))
    witness = f"{row(i)}: lhs={float(lhs[i])!r} rhs={float(rhs[i])!r}" if bad else None
    return ConditionResult(name, slack.size, float(slack[i]), bad, witness)


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
    if is_dataclass(v):
        return {k: _jsonable(getattr(v, k)) for k in v.__dataclass_fields__}
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
    # How a Monte Carlo study got its samples ("marched" or "reused"), by how
    # many processes (parallel.deal) and in how many chunks
    # (cascade._run_cells), and by how many processes the audits drew and
    # evaluated their sample blocks (operators.by_sample_blocks, through
    # parallel.drawn_in_turn).  Run metadata: kept out of report.json, which
    # is the same either way.
    ensemble: Optional[str] = None
    march_workers: Optional[int] = None
    march_chunks: Optional[int] = None
    audit_workers: Optional[int] = None

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
            "slope": _jsonable(self.slope),
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
