"""Regularization-cascade studies.

The solver carries two small parameters: ``lam`` smooths the monotone
nonlinearity (adds ``lam * u`` inside the drift) and ``epsilon`` shifts the
operator.  The studies below quantify how trajectories depend on those
parameters:

* :func:`lambda_cauchy_study` couples paths across a decreasing ``lam`` ladder
  (shared noise, shared grid) and checks that adjacent trajectories contract,
  ``E[sup_t ||X_lam - X_lam'||^2] <= C * (lam + lam')``, with a log-log slope
  of at least ``0.7`` in the gap.
* :func:`eps_cauchy_study` repeats the construction across an ``epsilon``
  ladder.
* :func:`apriori_study` checks the moment bound
  ``E[sup ||X||_2^2] + 4 lam eps E[int ||X||_F12^2] <= exp(C1 T)(2||x||_2^2 + C2)``
  with derived constants, and verifies uniformity of the left-hand side along
  the ``lam`` ladder.
* :func:`uniqueness_check` reruns one path under a different inner-solver
  configuration (splitting constant + initializer) and asserts the limit is
  configuration-independent up to the inner residual budget; a perturbed
  initial condition must never have grown by more than the jump budget
  accrued up to each time.

Every study takes only the plan and runs at :attr:`StudyPlan.finest_cell`;
a ladder study varies its own parameter and holds the other one there.
:func:`constants_used` builds every report's record of that cell's derived
constants; theta and the monotonicity shift come from :mod:`levypme.variational`.

In every study :func:`levypme.stepper.march` advances the rows in lockstep,
squared norms are taken at each step, and
:func:`levypme.stepper.cadlag_totals` turns them into sups and
trapezoids.  The Monte Carlo studies run their paths in fixed chunks of
``CHUNK_ROWS // len(cells)`` paths, all (path, cell) rows of a chunk at
once, on one process per usable CPU; from 128 modes on, paths that fit one
chunk are split into two, so that such a ladder still marches on two CPUs
(see :data:`CHUNK_ROWS`).  The layout depends on the plan alone.
``uniqueness_check`` marches its three rows together.  All studies are
deterministic for a fixed master seed.

The Monte Carlo studies are reductions of an ensemble: the per-path sups and
integrals of every path under a list of cells.  An ensemble is marched once
per interpreter for each (plan fingerprint, cells) pair (:func:`_run_cells`);
``apriori_study`` asks for the cells ``lambda_cauchy_study`` marched, so
after it, apriori marches nothing.  Only studies in one interpreter share
ensembles (``scripts/run_studies.py``, a Python session); a lone CLI process
marches everything it reports on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .nonlinearity import NonlinearityPsi
from .noise import NoiseModel, path_seed, sample_noise_path
from .operators import OperatorSpectrum
from .parallel import deal
from .reporting import (
    ConstantRecord,
    PairEstimate,
    PropertyCheck,
    SlopeFit,
    StudyReport,
    Table,
)
from .spaces import F12, F12_star, L2, norm, squared_norm_rows
from .stepper import (
    INNER_TOLERANCE,
    MAX_INNER_ITERATIONS,
    SolverCounters,
    StepConfig,
    cadlag_totals,
    march,
    splitting,
    time_grid,
)
from .variational import monotonicity_shift, theta

__all__ = [
    "StudyPlan",
    "constants_used",
    "lambda_cauchy_study",
    "eps_cauchy_study",
    "apriori_study",
    "uniqueness_check",
    "CAUCHY_SLOPE_FLOOR",
    "UNIQUENESS_TOLERANCE_FACTOR",
    "DAVIS_CONSTANT",
]

# Pass thresholds for the study checks.  The Cauchy-rate floor is deliberately
# below the rate the coupled construction actually achieves (~1 in the gap
# lam + lam'), so it separates "contracts like the estimate" from "does not
# contract" without being brittle at small sample counts.
CAUCHY_SLOPE_FLOOR = 0.7
UNIQUENESS_TOLERANCE_FACTOR = 10.0
# Float headroom on the perturbation's log-scale growth rate.
PERTURBATION_RATE_HEADROOM = 1e-6
# Davis' constant in the p=1 maximal inequality for martingales; feeds the
# derived sup-moment constant.
DAVIS_CONSTANT = 3.0


# --------------------------------------------------------------------------
# plan


@dataclass(frozen=True, eq=False)
class StudyPlan:
    """Shared configuration for all cascade studies.

    ``lambda_ladder`` and ``epsilon_ladder`` must be strictly decreasing; the
    studies couple adjacent ladder entries through shared noise paths.

    ``fingerprint`` is the canonical scenario hash, which names the
    configuration for ensemble reuse (see :func:`_run_cells`).  Only
    :func:`levypme.scenario.build_plan` sets it; a plan built by hand or
    copied with :func:`dataclasses.replace` has none and never reuses an
    ensemble.
    """

    op: OperatorSpectrum
    psi: NonlinearityPsi
    noise: NoiseModel
    initial: np.ndarray
    lambda_ladder: tuple[float, ...]
    epsilon_ladder: tuple[float, ...]
    paths: int
    step_size: float
    horizon: float
    master_seed: int
    inner_tolerance: float = INNER_TOLERANCE
    max_inner_iterations: int = MAX_INNER_ITERATIONS
    fingerprint: str | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        try:
            initial = self.op.field_from_coefficients(self.initial)
        except ValueError as exc:
            raise ValueError(f"initial state must live on the plan's spectrum: {exc}") from None
        object.__setattr__(self, "initial", initial)
        for name, ladder in (
            ("lambda_ladder", self.lambda_ladder),
            ("epsilon_ladder", self.epsilon_ladder),
        ):
            if len(ladder) < 1:
                raise ValueError(f"{name} must be non-empty")
            for value in ladder:
                if not 0.0 < value < 1.0:
                    raise ValueError(f"{name} entries must lie in (0, 1)")
            if any(a <= b for a, b in zip(ladder, ladder[1:])):
                raise ValueError(f"{name} must be strictly decreasing")
        if self.paths < 2:
            raise ValueError("paths must be at least 2 (need a sample variance)")
        if not (self.step_size > 0 and self.horizon > 0):
            raise ValueError("step_size and horizon must be positive")
        if self.step_size > self.horizon:
            raise ValueError("step_size must not exceed the horizon")

    @property
    def finest_cell(self) -> tuple[float, float]:
        """(epsilon, lam) at the end of both ladders: every study runs here,
        and every report's ``constants_used`` is this cell's record."""
        return self.epsilon_ladder[-1], self.lambda_ladder[-1]

    def step_config(self, epsilon: float, lam: float) -> StepConfig:
        return StepConfig(
            h=self.step_size,
            epsilon=epsilon,
            lam=lam,
            inner_tolerance=self.inner_tolerance,
            max_inner_iterations=self.max_inner_iterations,
        )


# --------------------------------------------------------------------------
# chunked simulation

# Rows (path x ladder cell) one chunk advances in lockstep.  A chunk is the
# unit of work parallel.deal hands to a process.  A chunk holds
# CHUNK_ROWS // cells paths, the last one the rest.  The layout depends on the
# plan alone, never on the CPU count, and is part of the reports: a gemm's
# last bits depend on its row count.
CHUNK_ROWS = 64
# Modes from which paths that fit one chunk are split into two halves, one per
# CPU on two: 16 paths x 3 cells on 2 CPUs as 2 chunks of 24 rows against one
# of 48 took about 28% less wall at 257 modes, broke even at 129 and were
# slower at 65, for 45-80% more CPU (BENCH_27.json).  Ladders of several
# chunks already use every CPU and keep their layout.
_HALVED_MODES = 128


def _chunk_bounds(modes: int, paths: int, cells: int) -> list:
    """(first, stop) path ranges of the chunks a march of ``paths`` paths
    under ``cells`` cells at ``modes`` modes splits into (see CHUNK_ROWS)."""
    size = max(1, CHUNK_ROWS // cells)
    if modes >= _HALVED_MODES and paths <= size:
        size = -(-paths // 2)
    return [(first, min(first + size, paths)) for first in range(0, paths, size)]


# Ensembles marched in this interpreter, keyed by (plan fingerprint, cells);
# every entry belongs to one fingerprint.  Several entries, not one: the
# studies run as lambda-study, eps-study, apriori, and apriori reuses
# lambda-study's ensemble across eps-study's.
_ENSEMBLES: dict[tuple, dict] = {}


def _run_cells(plan: StudyPlan, cells):
    """The per-path reductions of every path under every (epsilon, lam) cell.

    Returns ``(results, run)``.  ``results`` holds arrays indexed [path, cell]
    (pairs: [path, pair]) and the solver counter summary.  ``run`` says how
    the study got them, for its report's ``run``: ``{"ensemble": "marched"}``
    with :func:`_march_cells`' ``march_workers`` and ``march_chunks`` when
    this call simulated the paths, ``{"ensemble": "reused"}`` when an earlier
    call in this interpreter had marched the same cells under the same plan
    fingerprint, the canonical hash of the scenario the plan was built from.
    The ensemble is a pure function of the scenario and the cells, so a
    reused result is the marched one, bit for bit.  Results of a plan without
    a fingerprint are never kept; a new fingerprint drops every kept result.
    The arrays are read-only, so a study cannot alter another's samples.
    """
    key = (plan.fingerprint, tuple(cells))
    if key in _ENSEMBLES:
        return dict(_ENSEMBLES[key]), {"ensemble": "reused"}
    results, marched = _march_cells(plan, cells)
    for value in results.values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    if plan.fingerprint is not None:
        if any(fingerprint != plan.fingerprint for fingerprint, _ in _ENSEMBLES):
            _ENSEMBLES.clear()
        _ENSEMBLES[key] = results
    return dict(results), {"ensemble": "marched", **marched}


def _march_cells(plan: StudyPlan, cells):
    """Simulate every path under every (epsilon, lam) cell, chunk by chunk.

    A chunk's rows (paths x cells) advance in lockstep; norms are reduced
    on the fly by :func:`cadlag_totals` and no trajectory is stored.  Chunks
    hold ``CHUNK_ROWS // len(cells)`` paths; from 128 modes on, paths that
    fit one chunk are split into two (:func:`_chunk_bounds`).  Returns the
    results and ``{"march_workers": processes that marched them
    (:func:`levypme.parallel.deal`), "march_chunks": chunks}``.
    """
    op = plan.op
    n_cells = len(cells)
    configs = [plan.step_config(epsilon, lam) for epsilon, lam in cells]
    # Differences are measured in the dual-type norm of the *larger* epsilon.
    # For the lambda ladder the two epsilons agree, so every pair has the same
    # norm.  For the epsilon ladder it is the weaker of the pair's two norms,
    # and it changes from pair to pair along the ladder: the pairs are not
    # measured in one fixed norm.
    pair_kinds = [F12_star(max(a[0], b[0])) for a, b in zip(cells, cells[1:])]
    # Squared-norm columns per row: L2 of each cell, F12 of each cell, then
    # the adjacent pairs.
    l2, f12, pair = slice(0, n_cells), slice(n_cells, 2 * n_cells), slice(2 * n_cells, None)
    columns = 3 * n_cells - 1

    def squared_norms(rows):
        by_path = rows.reshape(-1, n_cells, op.mode_count)
        return np.concatenate(
            [squared_norm_rows(op, rows, L2).reshape(-1, n_cells),
             squared_norm_rows(op, rows, F12).reshape(-1, n_cells)]
            + [squared_norm_rows(op, by_path[:, c] - by_path[:, c + 1], kind)[:, None]
               for c, kind in enumerate(pair_kinds)],
            axis=1,
        )

    def march_chunk(bounds):
        """Per-path (sup, trapezoid) and counters of the paths ``range(*bounds)``."""
        counters = SolverCounters()
        paths = [
            sample_noise_path(plan.noise, plan.horizon, path_seed(plan.master_seed, i))
            for i in range(*bounds)
        ]
        grids = [time_grid(plan.step_size, plan.horizon, path) for path in paths]
        # [right value / left limit, path, column, grid row]
        sq = np.zeros((2, len(paths), columns, max(grid.size for grid, _ in grids)))
        for i, active, left, right in march(
            op, plan.psi, plan.noise, paths, [grid for grid, _ in grids], configs,
            plan.horizon, plan.initial, counters,
        ):
            at_right = squared_norms(right)
            sq[0, active, :, i] = at_right
            sq[1, active, :, i] = at_right if left is right else squared_norms(left)
        reduced = [
            cadlag_totals(times, sq[0, k, :, : times.size], sq[1, k, :, : times.size])
            for k, (times, _) in enumerate(grids)
        ]
        return reduced, counters

    bounds = _chunk_bounds(op.mode_count, plan.paths, n_cells)
    chunks, workers = deal(march_chunk, bounds)
    reduced = [path for chunk, _ in chunks for path in chunk]
    sup, integral = (np.stack(r) for r in zip(*reduced))
    return {
        "sup_l2_sq": sup[:, l2],
        "integral_f12": integral[:, f12],
        "pair_sup_fstar_sq": sup[:, pair],
        "solver": SolverCounters.merged([counters for _, counters in chunks]).summary(),
    }, {"march_workers": workers, "march_chunks": len(bounds)}


# --------------------------------------------------------------------------
# statistics helpers


def _mean_se(values) -> tuple[float, float]:
    values = np.asarray(values, dtype=float)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(values.size))
    return mean, se


def _fit_log_slope(gaps, means, stderrs) -> SlopeFit:
    """Weighted least squares of log(mean) against log(gap).

    Weights come from the delta method (relative standard errors); the slope
    variance is inflated by the reduced chi-square when residuals exceed the
    measurement error.  The pair means are taken as independent, but they are
    measured on the same paths, so the interval measures how far they sit off
    a power law, not the slope's sampling uncertainty.
    """
    gaps = np.asarray(gaps, dtype=float)
    means = np.asarray(means, dtype=float)
    stderrs = np.asarray(stderrs, dtype=float)
    nan = float("nan")
    if gaps.size < 2 or np.any(means <= 0):
        return SlopeFit(nan, nan, nan, nan, False, int(gaps.size))
    x = np.log(gaps)
    y = np.log(means)
    var = np.maximum((stderrs / means) ** 2, 1e-30)
    w = 1.0 / var
    xbar = float((w * x).sum() / w.sum())
    ybar = float((w * y).sum() / w.sum())
    sxx = float((w * (x - xbar) ** 2).sum())
    slope = float((w * (x - xbar) * (y - ybar)).sum() / sxx)
    intercept = ybar - slope * xbar
    var_slope = 1.0 / sxx
    dof = gaps.size - 2
    if dof > 0:
        resid = y - (intercept + slope * x)
        chi2 = float((w * resid**2).sum())
        var_slope *= max(1.0, chi2 / dof)
    half = 1.96 * math.sqrt(var_slope)
    # With fewer than 3 points the residual check above is vacuous; flag the
    # fit as insignificant, so no check gates on it and only ``slope`` reports it.
    significant = gaps.size >= 3 and math.isfinite(half)
    return SlopeFit(
        slope=slope,
        intercept=float(intercept),
        ci_low=slope - half,
        ci_high=slope + half,
        significant=bool(significant),
        pairs_used=int(gaps.size),
    )


def constants_used(plan: StudyPlan) -> dict:
    """Every derived constant of the plan's finest cell, one record per name:
    the ``constants_used`` of every report.  ``coercivity_c`` is there only
    when psi certifies one."""
    epsilon, lam = plan.finest_cell
    psi, noise, op = plan.psi, plan.noise, plan.op
    h3 = noise.h3_closed_form(op)
    rate, offset, _ = _moment_constants(plan)
    records = {
        "lipschitz_k": (psi.lipschitz_k, "slope supremum of psi"),
        "alpha_tilde": (psi.alpha_tilde, "1 / (lipschitz_k + 1)"),
        "h2_constant": (noise.h2_closed_form(op), "closed-form growth constant of the noise"),
        "h3_constant": (h3, "closed-form gap constant of the noise"),
        "theta": (theta(psi, epsilon), "theta^2 = c / (2 k^2 (1-eps) + c); 1 when c absent"),
        "monotonicity_shift": (
            monotonicity_shift(psi, epsilon, h3), "2 (1-eps)^2 / alpha_tilde + h3_constant"
        ),
        "moment_gronwall_rate": (rate, "(4 davis^2 + 6) * h2 constant in the L2 norm"),
        "moment_gronwall_offset": (offset, "moment_gronwall_rate * horizon"),
        "davis_constant": (DAVIS_CONSTANT, "p=1 martingale maximal-inequality constant"),
        "lam": (lam, "nonlinearity smoothing level"),
        "epsilon": (epsilon, "operator shift level"),
    }
    if psi.coercivity_c is not None:
        records["coercivity_c"] = (psi.coercivity_c, "psi(r) r >= c r^2")
    return {name: ConstantRecord(*record) for name, record in records.items()}


def _base_parameters(plan: StudyPlan) -> dict:
    return {
        "psi_kind": plan.psi.kind,
        "noise_kind": plan.noise.label,
        "paths": plan.paths,
        "step_size": plan.step_size,
        "horizon": plan.horizon,
        "master_seed": plan.master_seed,
        "modes": int(plan.op.mode_count),
        "inner_tolerance": plan.inner_tolerance,
    }


# --------------------------------------------------------------------------
# Cauchy studies


def _ladder_cells(plan: StudyPlan, param: str):
    """The ladder of ``param`` ("lam" or "epsilon"), its (epsilon, lam) cells,
    and the other parameter by name, held at the finest cell."""
    epsilon, lam = plan.finest_cell
    if param == "lam":
        return plan.lambda_ladder, [(epsilon, v) for v in plan.lambda_ladder], {"epsilon": epsilon}
    return plan.epsilon_ladder, [(v, lam) for v in plan.epsilon_ladder], {"lam": lam}


def _cauchy_study(plan: StudyPlan, param: str) -> StudyReport:
    """Coupled contraction of adjacent cells along the ladder of ``param``."""
    kind_label = {"lam": "lambda_cauchy", "epsilon": "eps_cauchy"}[param]
    ladder, cells, held = _ladder_cells(plan, param)
    if len(ladder) < 2:
        raise ValueError(f"{kind_label}_study needs at least two ladder entries")
    results, run = _run_cells(plan, cells)
    pair_matrix = results["pair_sup_fstar_sq"]  # paths x pairs
    sup_matrix = results["sup_l2_sq"]  # paths x cells

    # One estimate per adjacent pair (hi, lo), at the gap hi + lo.
    pairs = [
        PairEstimate(hi, lo, hi + lo, *_mean_se(pair_matrix[:, j]), plan.paths)
        for j, (hi, lo) in enumerate(zip(ladder, ladder[1:]))
    ]
    fit = _fit_log_slope([p.gap for p in pairs], [p.mean for p in pairs],
                         [p.stderr for p in pairs])
    # The contraction constant implied by the worst pair; reported, not gated.
    envelope_c = max(p.mean / p.gap for p in pairs)

    checks = [
        PropertyCheck(
            name="pair_moments_finite",
            passed=bool(np.all(np.isfinite(pair_matrix))),
            detail="every path produced a finite coupled sup-difference",
        )
    ]
    # A fit from fewer than 3 pairs gates nothing; ``slope`` still reports it.
    if fit.significant:
        checks.append(
            PropertyCheck(
                name="cauchy_rate",
                passed=bool(fit.slope >= CAUCHY_SLOPE_FLOOR),
                detail=(
                    f"log-log slope {fit.slope:.3f} "
                    f"[{fit.ci_low:.3f}, {fit.ci_high:.3f}] "
                    f"vs floor {CAUCHY_SLOPE_FLOOR}"
                ),
            )
        )

    tables = [
        Table(
            name=f"{kind_label}_pairs",
            columns=(param + "_hi", param + "_lo", "gap", "mean_sup_sq", "stderr"),
            rows=tuple((p.param_hi, p.param_lo, p.gap, p.mean, p.stderr) for p in pairs),
        ),
        Table(
            name=f"{kind_label}_moments",
            columns=(param, "mean_sup_l2_sq", "stderr"),
            rows=tuple(
                (value, *_mean_se(sup_matrix[:, j])) for j, value in enumerate(ladder)
            ),
        ),
    ]

    parameters = _base_parameters(plan)
    parameters.update(held)
    parameters[param + "_ladder"] = list(ladder)
    parameters["ladder_param"] = param

    return StudyReport(
        kind=kind_label,
        parameters=parameters,
        pairs=pairs,
        slope=fit,
        constants_used=constants_used(plan),
        checks=checks,
        extra={"envelope_constant": envelope_c, "solver": dict(results["solver"])},
        tables=tables,
        run=run,
    )


def lambda_cauchy_study(plan: StudyPlan) -> StudyReport:
    """Coupled contraction study along the nonlinearity-smoothing ladder, at
    the finest epsilon."""
    return _cauchy_study(plan, "lam")


def eps_cauchy_study(plan: StudyPlan) -> StudyReport:
    """Coupled contraction study along the operator-shift ladder.

    Runs at the smallest lambda of the plan, mirroring the order in which the
    two regularizations are removed (lambda first inside each epsilon level).
    """
    return _cauchy_study(plan, "epsilon")


# --------------------------------------------------------------------------
# a priori moment bound


def _moment_constants(plan: StudyPlan) -> tuple[float, float, float]:
    """(rate, offset, floor) of the moment bound exp(rate T) (floor + offset):
    the Gronwall rate, the offset rate * T and the floor 2 |x0|_2^2.

    Chain: Ito in L2; Davis (constant 3) on the linear jump martingale with
    Young at eta = 1/2; crude doubling on the quadratic jump martingale;
    absorb 1/2 E sup and double.  Rate = 2 (2 davis^2 + 3) h2_L2.
    """
    rate = (4.0 * DAVIS_CONSTANT**2 + 6.0) * plan.noise.h2_closed_form(plan.op, L2)
    return rate, rate * plan.horizon, 2.0 * norm(plan.op, plan.initial, L2) ** 2


def _integral_weight(epsilon: float, lam: float) -> float:
    # Weight of the energy integral in the a priori functional.
    return 4.0 * lam * epsilon


def apriori_study(plan: StudyPlan) -> StudyReport:
    """Moment bound along the lambda ladder at the finest epsilon: per-cell
    bound and uniformity.  Its cells are lambda-study's.  A bound past the
    largest float (an offset above about 709) gates no cell; ``extra`` says why."""
    _, cells, held = _ladder_cells(plan, "lam")
    results, run = _run_cells(plan, cells)

    _, offset, floor = _moment_constants(plan)
    try:
        bound = math.exp(offset) * (floor + offset)
    except OverflowError:
        bound = math.inf
    gated = math.isfinite(bound)
    extra = {"solver": dict(results["solver"])}
    if not gated:  # exp(offset) * (floor + offset) is past the largest float
        extra["derived_bound_not_finite"] = f"moment bound overflows at offset {offset!r}"
    checks: list[PropertyCheck] = []
    cell_rows = []
    cell_records = []
    lhs_samples_per_cell = []
    for j, (eps_j, lam_j) in enumerate(cells):
        sup_sq = results["sup_l2_sq"][:, j]
        integrals = results["integral_f12"][:, j]
        lhs_samples = sup_sq + _integral_weight(eps_j, lam_j) * integrals
        lhs_samples_per_cell.append(lhs_samples)
        lhs, lhs_se = _mean_se(lhs_samples)
        if gated:
            checks.append(PropertyCheck(f"derived_bound[lam={lam_j!r}]", bool(lhs <= bound),
                                        f"lhs {lhs:.6g} (se {lhs_se:.2g}) vs bound {bound:.6g}"))
        cell_rows.append((lam_j, *_mean_se(sup_sq), *_mean_se(integrals), lhs, lhs_se, bound))
        cell_records.append({"lam": lam_j, "lhs": lhs, "bound": bound, "slack": bound - lhs})

    # Uniformity along the ladder, from a second cell on: paired differences
    # (same noise) between the largest-lambda cell and every other cell must
    # stay within two standard errors, i.e. no systematic growth as lambda
    # decreases.  A NaN difference fails.
    reference = lhs_samples_per_cell[0]
    paired = [(lam_j, *_mean_se(lhs_j - reference))
              for (_, lam_j), lhs_j in zip(cells[1:], lhs_samples_per_cell[1:])]
    if paired:
        checks.append(
            PropertyCheck(
                name="uniform_in_lambda",
                passed=all(mean_d <= 2.0 * se_d for _, mean_d, se_d in paired),
                detail="; ".join(
                    f"lam={lam_j!r}: paired diff {mean_d:.3g} (2se {2.0 * se_d:.3g})"
                    for lam_j, mean_d, se_d in paired
                ),
            )
        )

    tables = [
        Table(
            name="apriori_cells",
            columns=(
                "lam",
                "mean_sup_l2_sq",
                "stderr_sup",
                "mean_integral_f12",
                "stderr_integral",
                "lhs",
                "lhs_stderr",
                "bound",
            ),
            rows=tuple(cell_rows),
        ),
    ]

    parameters = _base_parameters(plan)
    parameters.update(held)
    parameters["lam_ladder"] = list(plan.lambda_ladder)

    return StudyReport(
        kind="apriori",
        parameters=parameters,
        pairs=[],
        slope=None,
        constants_used=constants_used(plan),
        checks=checks,
        extra={**extra, "cells": cell_records},
        tables=tables,
        run=run,
    )


# --------------------------------------------------------------------------
# uniqueness / stability of the implicit limit


def _excess_growth_rate(times, gap, gap0, budget) -> float:
    """max over t > 0 of (log(gap(t) / gap0) - budget(t)) / t; -inf if no gap."""
    positive = (gap > 0) & (times > 0)
    if not np.any(positive):
        return float("-inf")
    excess = np.log(gap[positive]) - math.log(gap0) - budget[positive]
    return float((excess / times[positive]).max())


def uniqueness_check(plan: StudyPlan) -> StudyReport:
    """Two solver configurations, one path, at the finest cell: the scheme's
    limit is unique.

    Also perturbs the initial condition and checks that the coupled distance
    decays, or at worst never grows by more than the jump budget accrued up to
    each time (:meth:`levypme.noise.NoiseModel.gap_log_budget`).  The three
    rows (config a, config b, config a from the perturbed start) march in
    lockstep on the path's grid.
    """
    epsilon, lam = plan.finest_cell
    seed = path_seed(plan.master_seed, 0)
    noise_path = sample_noise_path(plan.noise, plan.horizon, seed)
    times, _ = time_grid(plan.step_size, plan.horizon, noise_path)

    config_a = plan.step_config(epsilon, lam)
    auto_mu = splitting(plan.op, plan.psi, config_a).mu
    config_b = replace(
        config_a,
        splitting_mu=2.0 * auto_mu + 0.1,
        inner_initializer="zero",
    )

    # Perturbation response: bump one low mode and track the coupled distance.
    delta_scale = 1e-3
    starts = np.tile(plan.initial, (3, 1))
    bump_index = min(1, plan.op.mode_count - 1)
    starts[2, bump_index] += delta_scale

    kind = F12_star(epsilon)
    config_sq = np.empty(times.size)
    gap_sq = np.empty(times.size)
    counters = SolverCounters()
    for i, _, left, right in march(
        plan.op, plan.psi, plan.noise, [noise_path], [times],
        [config_a, config_b, config_a], plan.horizon, starts, counters,
    ):
        right_ab, left_ab, right_ap = squared_norm_rows(
            plan.op, np.stack([right[0] - right[1], left[0] - left[1], right[0] - right[2]]),
            kind,
        )
        config_sq[i] = max(right_ab, left_ab)
        gap_sq[i] = right_ap
    sup_diff = math.sqrt(float(config_sq.max()))
    tolerance = UNIQUENESS_TOLERANCE_FACTOR * plan.inner_tolerance
    checks = [
        PropertyCheck(
            name="solver_config_independent",
            passed=bool(sup_diff <= tolerance),
            detail=(
                f"sup gap {sup_diff:.3e} <= {tolerance:.1e} "
                f"({UNIQUENESS_TOLERANCE_FACTOR:g}x inner tolerance)"
            ),
        )
    ]

    d0 = math.sqrt(gap_sq[0])
    budget = plan.noise.gap_log_budget(noise_path, times)
    envelope_rate = _excess_growth_rate(times, np.sqrt(gap_sq), d0, budget)
    cap = PERTURBATION_RATE_HEADROOM
    checks.append(
        PropertyCheck(
            name="perturbation_contracts",
            passed=bool(envelope_rate <= cap),
            detail=(
                f"growth rate net of the accrued jump budget {envelope_rate:.4g} "
                f"<= headroom {cap:.0e}; whole-path jump cap "
                f"{budget[-1] / plan.horizon:.4g} per unit time (initial gap {d0:.3e})"
            ),
        )
    )

    tables = [
        Table(
            name="perturbation_decay",
            columns=("t", "gap_norm"),
            rows=tuple(zip(times.tolist(), np.sqrt(gap_sq).tolist())),
        )
    ]

    parameters = _base_parameters(plan)
    parameters.update(
        {
            "epsilon": epsilon,
            "lam": lam,
            "splitting_mu_a": auto_mu,
            "splitting_mu_b": config_b.splitting_mu,
            "perturbation_scale": delta_scale,
        }
    )

    return StudyReport(
        kind="uniqueness",
        parameters=parameters,
        pairs=[],
        slope=None,
        constants_used=constants_used(plan),
        checks=checks,
        extra={
            "sup_config_gap": sup_diff,
            "envelope_rate": envelope_rate,
            "rate_cap": cap,
            "jump_budget": float(budget[-1]),
            "solver": counters.summary(),
        },
        tables=tables,
    )
