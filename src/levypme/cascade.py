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
  with derived constants, verifies uniformity of the left-hand side along the
  ``lam`` ladder, and fits the exponential shape to the running curve.
* :func:`uniqueness_check` reruns one path under a different inner-solver
  configuration (splitting constant + initializer) and asserts the limit is
  configuration-independent up to the inner residual budget; a perturbed
  initial condition must never have grown by more than the jump budget
  accrued up to each time.

Every study takes only the plan and runs at :attr:`StudyPlan.finest_cell`;
a ladder study varies its own parameter and holds the other one there.

Every study is one serial pipeline: :func:`levypme.stepper.march` advances
the rows in lockstep, squared norms are taken at each step, and
:func:`levypme.stepper.cadlag_reductions` turns them into sups, trapezoids
and running curves.  The Monte Carlo studies run their paths in fixed chunks
of ``CHUNK_ROWS // len(cells)`` paths, all (path, cell) rows of a chunk at
once; ``uniqueness_check`` marches its three rows together.  All studies are
deterministic for a fixed master seed.

The Monte Carlo studies are reductions of an ensemble: the per-path sups,
integrals and running curves of every path under a list of cells.  An
ensemble is marched once per interpreter for each (plan fingerprint, cells)
pair (:func:`_run_cells`); ``apriori_study`` asks for the cells
``lambda_cauchy_study`` marched, so after it, apriori marches nothing.  Only
studies in one interpreter share ensembles (``scripts/run_studies.py``, a
Python session); a lone CLI process marches everything it reports on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .nonlinearity import NonlinearityPsi
from .noise import MultiplicativeCoefficient, NoiseModel, path_seed, sample_noise_path
from .operators import OperatorSpectrum
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
    cadlag_reductions,
    effective_splitting_mu,
    march,
    time_grid,
)
from .variational import EstimateConstants

__all__ = [
    "StudyPlan",
    "lambda_cauchy_study",
    "eps_cauchy_study",
    "apriori_study",
    "uniqueness_check",
    "CAUCHY_SLOPE_FLOOR",
    "SHAPE_ENVELOPE_MARGIN",
    "UNIQUENESS_TOLERANCE_FACTOR",
    "DAVIS_CONSTANT",
]

# Pass thresholds for the study checks.  The Cauchy-rate floor is deliberately
# below the rate the coupled construction actually achieves (~1 in the gap
# lam + lam'), so it separates "contracts like the estimate" from "does not
# contract" without being brittle at small sample counts.
CAUCHY_SLOPE_FLOOR = 0.7
SHAPE_ENVELOPE_MARGIN = 1.25
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

    ``fingerprint`` names the configuration for ensemble reuse (see
    :func:`_run_cells`).  Only :func:`levypme.scenario.build_plan` sets it;
    a plan built by hand or copied with :func:`dataclasses.replace` has none
    and never reuses an ensemble.
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
    fingerprint: tuple | None = field(default=None, init=False, repr=False)

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

# Rows (path x ladder cell) one chunk advances in lockstep.  Batched gemms on
# a 65-mode basis stay fast up to about 64 rows with default BLAS threading;
# past that, multithreaded gemm dominates the step.
CHUNK_ROWS = 64


# Ensembles marched in this interpreter, keyed by (plan fingerprint, cells);
# every entry belongs to one fingerprint.  Several entries, not one: the
# studies run as lambda-study, eps-study, apriori, and apriori reuses
# lambda-study's ensemble across eps-study's.
_ENSEMBLES: dict[tuple, dict] = {}


def _run_cells(plan: StudyPlan, cells):
    """The per-path reductions of every path under every (epsilon, lam) cell.

    Returns arrays indexed [path, cell] (pairs: [path, pair]), the running
    curves at the base grid times, the solver counter summary, and
    ``"ensemble"``: ``"marched"`` when this call simulated the paths
    (:func:`_march_cells`), ``"reused"`` when an earlier call in this
    interpreter had marched the same cells under the same plan fingerprint.
    The ensemble is a pure function of the plan and the cells, so a reused
    result is the marched one, bit for bit.  Results of a plan without a
    fingerprint are never kept; a new fingerprint drops every kept result.
    The arrays are read-only, so a study cannot alter another's samples.
    """
    key = (plan.fingerprint, tuple(cells))
    if key in _ENSEMBLES:
        return {**_ENSEMBLES[key], "ensemble": "reused"}
    results = _march_cells(plan, cells)
    for value in results.values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    if plan.fingerprint is not None:
        if any(fingerprint != plan.fingerprint for fingerprint, _ in _ENSEMBLES):
            _ENSEMBLES.clear()
        _ENSEMBLES[key] = results
    return {**results, "ensemble": "marched"}


def _march_cells(plan: StudyPlan, cells):
    """Simulate every path under every (epsilon, lam) cell, chunk by chunk.

    Chunks hold ``CHUNK_ROWS // len(cells)`` paths, whose rows (paths x
    cells) advance in lockstep; norms are reduced on the fly by
    :func:`cadlag_reductions` and no trajectory is stored.
    """
    op = plan.op
    n_cells = len(cells)
    configs = [plan.step_config(epsilon, lam) for epsilon, lam in cells]
    # Differences are measured in the dual-type norm of the *larger* epsilon:
    # for the lambda ladder the two epsilons agree, for the epsilon ladder the
    # larger-epsilon norm is the weaker one, which is the one the continuity
    # estimate controls.
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

    reduced = []  # per path: sup, trapezoid, running sup, running trapezoid
    counters = SolverCounters()
    per_chunk = max(1, CHUNK_ROWS // n_cells)
    for first in range(0, plan.paths, per_chunk):
        paths = [
            sample_noise_path(plan.noise, plan.horizon, path_seed(plan.master_seed, i))
            for i in range(first, min(first + per_chunk, plan.paths))
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
        for k, (times, base_mask) in enumerate(grids):
            reduced.append(cadlag_reductions(
                times, base_mask, sq[0, k, :, : times.size], sq[1, k, :, : times.size]
            ))
    sup, integral, running_sup, running_integral = (np.stack(r) for r in zip(*reduced))
    return {
        "sup_l2_sq": sup[:, l2],
        "integral_f12": integral[:, f12],
        "pair_sup_fstar_sq": sup[:, pair],
        "base_times": times[base_mask],  # every path shares the base grid
        # Copies: a kept ensemble holds only the running curves studies read.
        "running_sup_l2": running_sup[:, l2].copy(),
        "running_integral_f12": running_integral[:, f12].copy(),
        "solver": counters.summary(),
    }


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
    measurement error, so the confidence interval stays honest for both noisy
    and nearly-deterministic data.
    """
    gaps = np.asarray(gaps, dtype=float)
    means = np.asarray(means, dtype=float)
    stderrs = np.asarray(stderrs, dtype=float)
    nan = float("nan")
    if gaps.size < 2 or np.any(means <= 0):
        return SlopeFit(nan, nan, nan, nan, False, int(gaps.size))
    x = np.log(gaps)
    y = np.log(means)
    rel = np.where(means > 0, stderrs / means, np.inf)
    var = np.maximum(rel**2, 1e-30)
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
    # fit as insignificant so downstream checks report rather than gate.
    significant = gaps.size >= 3 and math.isfinite(half)
    return SlopeFit(
        slope=slope,
        intercept=float(intercept),
        ci_low=slope - half,
        ci_high=slope + half,
        significant=bool(significant),
        pairs_used=int(gaps.size),
    )


def _constants_used(plan: StudyPlan) -> dict:
    """The estimate constants of the plan's finest cell, one record per name."""
    epsilon, lam = plan.finest_cell
    h2 = plan.noise.h2_closed_form(plan.op)
    h3 = plan.noise.h3_closed_form(plan.op)
    constants = EstimateConstants.from_components(plan.psi, epsilon, h2, h3)
    used = {
        name: ConstantRecord(value, formula)
        for name, (value, formula) in constants.as_records().items()
    }
    rate = _gronwall_rate(plan)
    used["moment_gronwall_rate"] = ConstantRecord(
        rate, "(4 davis^2 + 6) * h2 constant in the L2 norm"
    )
    used["moment_gronwall_offset"] = ConstantRecord(
        rate * plan.horizon, "moment_gronwall_rate * horizon"
    )
    used["davis_constant"] = ConstantRecord(
        DAVIS_CONSTANT, "p=1 martingale maximal-inequality constant"
    )
    used["lam"] = ConstantRecord(lam, "nonlinearity smoothing level")
    used["epsilon"] = ConstantRecord(epsilon, "operator shift level")
    return used


def _base_parameters(plan: StudyPlan) -> dict:
    return {
        "psi_kind": plan.psi.kind,
        "noise_kind": plan.noise.coefficient.__class__.__name__,
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
    results = _run_cells(plan, cells)
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
    envelope_c = max((p.mean / p.gap for p in pairs if p.gap > 0), default=float("nan"))

    checks = [
        PropertyCheck(
            name="pair_moments_finite",
            passed=bool(np.all(np.isfinite(pair_matrix))),
            detail="every path produced a finite coupled sup-difference",
        )
    ]
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
    else:
        checks.append(
            PropertyCheck(
                name="cauchy_rate",
                passed=True,
                detail=(
                    f"fit not significant ({fit.pairs_used} pair(s)); "
                    f"slope {fit.slope!r} reported only"
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
        constants_used=_constants_used(plan),
        checks=checks,
        extra={"envelope_constant": envelope_c, "solver": dict(results["solver"])},
        tables=tables,
        ensemble=results["ensemble"],
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


def _gronwall_rate(plan: StudyPlan) -> float:
    # Chain: Ito in L2; Davis (constant 3) on the linear jump martingale with
    # Young at eta = 1/2; crude doubling on the quadratic jump martingale;
    # absorb 1/2 E sup and double.  Rate = 2 (2 davis^2 + 3) h2_L2.
    h2_l2 = plan.noise.h2_closed_form(plan.op, L2)
    return (4.0 * DAVIS_CONSTANT**2 + 6.0) * h2_l2


def _derived_bound(plan: StudyPlan) -> float:
    rate = _gronwall_rate(plan)
    x0_sq = norm(plan.op, plan.initial, L2) ** 2
    return math.exp(rate * plan.horizon) * (2.0 * x0_sq + rate * plan.horizon)


def _integral_weight(epsilon: float, lam: float) -> float:
    # Weight of the energy integral in the a priori functional.
    return 4.0 * lam * epsilon


def _fit_exponential_shape(plan, times, curve):
    """Fit exp(c1 t) (2 |x|^2 + c2) to a running moment curve.

    Least squares in log space with the offset constrained to c2 >= 0 and the
    rate to c1 >= 0; returns (c1, c2, envelope_ratio) where the ratio is
    max_t curve / fit.
    """
    x0_sq = norm(plan.op, plan.initial, L2) ** 2
    mask = curve > 0
    t = times[mask]
    y = np.log(curve[mask])
    if t.size < 3:
        return float("nan"), float("nan"), float("nan")
    slope, intercept = np.polyfit(t, y, 1)
    c2 = math.exp(intercept) - 2.0 * x0_sq
    if c2 < 0 or slope < 0:
        # Constrained refit: pin the offset at zero (the curve already sits
        # below the 2|x|^2 floor) and keep the growth rate nonnegative.
        c2 = max(0.0, c2)
        base = 2.0 * x0_sq + c2
        denom = float(np.sum(t * t))
        slope = max(0.0, float(np.sum(t * (y - math.log(base))) / denom))
    c1 = float(slope)
    fit_curve = np.exp(c1 * times) * (2.0 * x0_sq + c2)
    ratio = float(np.max(curve / fit_curve)) if np.all(fit_curve > 0) else float("inf")
    return c1, float(c2), ratio


def apriori_study(plan: StudyPlan) -> StudyReport:
    """Moment bound along the lambda ladder at the finest epsilon: per-cell
    bound, uniformity, shape.  Its cells are lambda-study's."""
    _, cells, held = _ladder_cells(plan, "lam")
    results = _run_cells(plan, cells)

    bound = _derived_bound(plan)
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
        checks.append(
            PropertyCheck(
                name=f"derived_bound[lam={lam_j!r}]",
                passed=bool(lhs <= bound),
                detail=f"lhs {lhs:.6g} (se {lhs_se:.2g}) vs bound {bound:.6g}",
            )
        )
        cell_rows.append((lam_j, *_mean_se(sup_sq), *_mean_se(integrals), lhs, lhs_se, bound))
        cell_records.append({"lam": lam_j, "lhs": lhs, "bound": bound, "slack": bound - lhs})

    # Uniformity along the ladder: paired differences (same noise) between the
    # largest-lambda cell and every other cell must stay within two standard
    # errors, i.e. no systematic growth as lambda decreases.
    uniform = True
    uniform_details = []
    reference = lhs_samples_per_cell[0]
    for j in range(1, len(cells)):
        diff = lhs_samples_per_cell[j] - reference
        mean_d, se_d = _mean_se(diff)
        margin = 2.0 * se_d
        grew = mean_d > margin
        uniform = uniform and not grew
        uniform_details.append(
            f"lam={cells[j][1]!r}: paired diff {mean_d:.3g} (2se {margin:.3g})"
        )
    checks.append(
        PropertyCheck(
            name="uniform_in_lambda",
            passed=bool(uniform),
            detail="; ".join(uniform_details) if uniform_details else "single cell",
        )
    )

    # Shape fit on the running functional m(t) = E[sup_{s<=t}] + w E[int_0^t].
    base_times = results["base_times"]
    shape_rows = []
    shape_fits = []
    for j, (eps_j, lam_j) in enumerate(cells):
        weight = _integral_weight(eps_j, lam_j)
        sup_curves = np.ascontiguousarray(results["running_sup_l2"][:, j])
        int_curves = np.ascontiguousarray(results["running_integral_f12"][:, j])
        mean_curve = sup_curves.mean(axis=0) + weight * int_curves.mean(axis=0)
        c1, c2, ratio = _fit_exponential_shape(plan, base_times, mean_curve)
        shape_rows.append((lam_j, c1, c2, ratio))
        shape_fits.append(
            {"lam": lam_j, "fit_rate": c1, "fit_offset": c2, "envelope_ratio": ratio}
        )
        checks.append(
            PropertyCheck(
                name=f"shape_fit[lam={lam_j!r}]",
                passed=bool(np.isfinite(ratio) and ratio <= SHAPE_ENVELOPE_MARGIN),
                detail=(
                    f"fit c1={c1:.4g}, c2={c2:.4g}; envelope ratio {ratio:.4f} "
                    f"<= {SHAPE_ENVELOPE_MARGIN}"
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
        Table(
            name="apriori_shape",
            columns=("lam", "fit_rate", "fit_offset", "envelope_ratio"),
            rows=tuple(shape_rows),
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
        constants_used=_constants_used(plan),
        checks=checks,
        extra={
            "solver": dict(results["solver"]),
            "shape_fits": shape_fits,
            "cells": cell_records,
        },
        tables=tables,
        ensemble=results["ensemble"],
    )


# --------------------------------------------------------------------------
# uniqueness / stability of the implicit limit


def _jump_budget(noise: NoiseModel, path, times: np.ndarray) -> np.ndarray:
    """Log growth of a coupled perturbation gap the noise allows up to each t.

    A multiplicative jump scales the gap by |1 + sigma_j| <= 1 + |sigma_j|,
    and the compensator by 1 - dt sum_j nu_j sigma_j per step, which grows
    it only when that sum is negative; the drift itself contracts.  So by
    time t the budget is sum_{tau_j <= t} log1p(|sigma_j|) plus
    t max(0, -sum_j nu_j sigma_j).  Additive and zero noise cancel exactly in
    the coupled difference: budget 0.
    """
    coefficient = noise.coefficient
    if not isinstance(coefficient, MultiplicativeCoefficient):
        return np.zeros_like(times)
    sigmas = np.asarray(coefficient.sigmas, dtype=float)
    accrued = np.concatenate(
        [[0.0], np.cumsum(np.log1p(np.abs(sigmas[path.mark_indices])))]
    )
    drift = max(0.0, -float(np.sum(noise.intensities * sigmas)))
    return accrued[np.searchsorted(path.times, times, side="right")] + drift * times


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
    each time (:func:`_jump_budget`).  The three rows (config a, config b,
    config a from the perturbed start) march in lockstep on the path's grid.
    """
    epsilon, lam = plan.finest_cell
    seed = path_seed(plan.master_seed, 0)
    noise_path = sample_noise_path(plan.noise, plan.horizon, seed)
    times, _ = time_grid(plan.step_size, plan.horizon, noise_path)

    config_a = plan.step_config(epsilon, lam)
    auto_mu = effective_splitting_mu(config_a, plan.psi)
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
            detail=f"sup gap {sup_diff:.3e} <= {tolerance:.1e} (10x inner tolerance)",
        )
    ]

    d0 = delta_scale / math.sqrt(epsilon + plan.op.eigenvalues[bump_index])
    budget = _jump_budget(plan.noise, noise_path, times)
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
        constants_used=_constants_used(plan),
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
