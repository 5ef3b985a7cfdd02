"""Study reports: structured key-value documents plus flat plotting tables,
and the one rule that judges every sampled inequality of the audits
(:func:`verdict`).

Every audit returns its verdicts as :class:`ConditionResult` records.  Their
``max_lhs`` is the largest sampled left side (NaN when any is NaN): the
empirical constant where that side is a sampled ratio, as in
:func:`levypme.noise.audit_h2_h3`.

:meth:`StudyReport.write` writes every file a study makes: ``report.json``,
one CSV per :class:`Table`, each of its ``exports`` (simulate's trajectory and
noise path) and ``failures.json``; the CLI adds ``scenario.txt`` and
``metadata.json``.  Every CSV cell has one rule (:meth:`Table.to_csv`: floats
as repr, the shortest round-trip) and every JSON file another
(:func:`json_text`: sorted keys and no NaN or Infinity, per RFC 8259, so a
report writes a non-finite float, such as the slope of a fit with too few
pairs, as ``null``).  Nothing time-dependent enters a report or a table.
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
    "json_text",
    "merged",
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
    witness: Optional[str]
    max_lhs: float

    @property
    def passed(self) -> bool:
        return self.violation_count == 0


def verdict(name: str, lhs, rhs, row: Callable[[int], str] = "sample {}".format) -> ConditionResult:
    """Judge lhs <= rhs row by row, with zero tolerance.

    The slack is ``rhs - lhs`` (either side may be a scalar, broadcast over
    the rows; a 2-D pair is judged in row-major order).  A row violates
    unless its slack is >= 0, so a NaN slack fails and +inf passes.  The
    result holds the worst slack (NaN when any slack is NaN), the number of
    violating rows, when there is one a witness: the worst row i, named
    ``row(i)``, with both of its sides, and the largest lhs (NaN when any is).
    """
    lhs, rhs = (side.ravel() for side in np.broadcast_arrays(lhs, rhs))
    slack = rhs - lhs
    i = int(np.argmin(slack))
    bad = slack.size - int(np.count_nonzero(slack >= 0.0))
    witness = f"{row(i)}: lhs={float(lhs[i])!r} rhs={float(rhs[i])!r}" if bad else None
    return ConditionResult(name, slack.size, float(slack[i]), bad, witness, float(lhs.max()))


def merged(results) -> ConditionResult:
    """The one :func:`verdict` on consecutive blocks of rows, from the verdicts
    on each block in row order, each naming its rows by their place in the
    whole.

    Checked rows and violations add up.  The worst row is the first NaN slack
    if there is one, else the first least slack, as ``argmin`` picks it over
    all rows at once.  A violation makes that row's slack negative or NaN, so
    its block has one and holds the witness.  The largest lhs is NaN when any
    block's is (``np.max``, not Python's ``max``), as over all rows at once.
    """
    worst, *rest = results
    for result in rest:
        if not math.isnan(worst.min_slack) and (
                math.isnan(result.min_slack) or result.min_slack < worst.min_slack):
            worst = result
    return ConditionResult(worst.name, sum(result.checked for result in results),
                           worst.min_slack,
                           sum(result.violation_count for result in results), worst.witness,
                           float(np.max([result.max_lhs for result in results])))


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


def json_text(value) -> str:
    """The text of every JSON file a run writes; a NaN or an infinity raises."""
    return json.dumps(value, sort_keys=True, indent=2, allow_nan=False) + "\n"


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
    # How the study ran (cascade._run_cells, cli._run_inequalities, cli.main).
    # The CLI writes it to metadata.json, never to report.json, which is the
    # same however the study ran.
    run: dict = field(default_factory=dict)
    # File name -> a function that writes that file to a path (simulate's
    # trajectory and noise path).  write() calls each; report.json never sees it.
    exports: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "parameters": _jsonable(self.parameters),
            "pairs": _jsonable(self.pairs),
            "slope": _jsonable(self.slope),
            "constants_used": _jsonable(self.constants_used),
            "checks": _jsonable(self.checks),
            "extra": _jsonable(self.extra),
            "passed": self.passed,
        }

    def write(self, out_dir) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(json_text(self.to_json_dict()))
        for table in self.tables:
            (out / f"{table.name}.csv").write_text(table.to_csv())
        for name, export in self.exports.items():
            export(out / name)
        path = out / "failures.json"
        if self.passed:  # no failures.json of an earlier run outlives a pass
            path.unlink(missing_ok=True)
        else:
            path.write_text(json_text({"failures": _jsonable(self.failures())}))
