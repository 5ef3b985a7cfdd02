"""Cascade studies: coupled-pair oracles, slope fits, moment bounds.

The one-mode oracle: with zero noise and psi = identity each cell's grid
recursion is X_i = x * prod 1/(1 + h (eps + mu)(1 + lam)), so the coupled
pair moment E[sup ||X_lam - X_lam'||^2] is computable in closed form and the
study must reproduce it exactly.
"""
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from levypme import cascade
from levypme.cascade import (
    CHUNK_ROWS,
    DAVIS_CONSTANT,
    PERTURBATION_RATE_HEADROOM,
    SHAPE_ENVELOPE_MARGIN,
    StudyPlan,
    _excess_growth_rate,
    _fit_exponential_shape,
    _fit_log_slope,
    _gronwall_rate,
    _jump_budget,
    _run_cells,
    apriori_study,
    eps_cauchy_study,
    lambda_cauchy_study,
    uniqueness_check,
)
from levypme.noise import path_seed, sample_noise_path
from levypme.nonlinearity import make_psi
from levypme.operators import smooth_field, spectrum_from_eigenvalues
from levypme.scenario import build_plan, load_scenario
from levypme.spaces import F12, F12_star, L2, norm, squared_norm_rows
from levypme.stepper import march, solve_regularized_path

from conftest import additive_model, multiplicative_model, zero_model


def _plan(op, psi=None, noise=None, **overrides):
    defaults = dict(
        op=op,
        psi=psi or make_psi("soft_monotone"),
        noise=noise or multiplicative_model(),
        initial=smooth_field(op, 1.0),
        lambda_ladder=(0.2, 0.1, 0.05),
        epsilon_ladder=(0.2, 0.1, 0.05),
        paths=4,
        step_size=0.0625,
        horizon=0.5,
        master_seed=99,
    )
    defaults.update(overrides)
    return StudyPlan(**defaults)


def test_duplicate_cells_difference_is_zero(torus_small):
    # identical cells -> identical trajectories -> coupled diff exactly 0
    plan = _plan(torus_small, paths=3)
    out = _run_cells(plan, ((0.2, 0.1), (0.2, 0.1)))
    assert out["pair_sup_fstar_sq"].shape == (3, 1)
    assert np.all(out["pair_sup_fstar_sq"] == 0.0)
    assert out["sup_l2_sq"].shape == (3, 2)
    assert np.array_equal(out["sup_l2_sq"][:, 0], out["sup_l2_sq"][:, 1])


def test_lambda_pair_matches_scalar_recursion():
    # one mode, zero noise: everything is a closed-form product
    mu, eps, h, horizon, x0 = 2.0, 0.2, 0.125, 1.0, 1.0
    op = spectrum_from_eigenvalues([mu])
    plan = _plan(
        op,
        psi=make_psi("identity"),
        noise=zero_model(),
        initial=op.field_from_coefficients(np.array([x0])),
        lambda_ladder=(0.2, 0.1),
        epsilon_ladder=(eps,),
        paths=2,
        step_size=h,
        horizon=horizon,
    )
    report = lambda_cauchy_study(plan)

    steps = int(round(horizon / h))
    states = {}
    for lam in plan.lambda_ladder:
        factor = 1.0 / (1.0 + h * (eps + mu) * (1.0 + lam))
        states[lam] = x0 * factor ** np.arange(steps + 1)
    diff = np.abs(states[0.2] - states[0.1])
    expected_sup_sq = float(np.max(diff**2 / (eps + mu)))

    assert len(report.pairs) == 1
    pair = report.pairs[0]
    assert pair.mean == pytest.approx(expected_sup_sq, rel=1e-12)
    assert pair.stderr == 0.0  # both paths identical under zero noise
    assert pair.gap == pytest.approx(0.3)
    assert report.passed


def test_lambda_study_report_layout(torus_small):
    plan = _plan(torus_small)
    report = lambda_cauchy_study(plan)
    assert report.kind == "lambda_cauchy"
    assert [p.param_hi for p in report.pairs] == [0.2, 0.1]
    assert {t.name for t in report.tables} == {"lambda_cauchy_pairs", "lambda_cauchy_moments"}
    assert report.slope is not None and report.slope.pairs_used == 2
    # two pairs cannot certify a slope; the rate check must pass by reporting
    rate_check = next(c for c in report.checks if c.name == "cauchy_rate")
    assert rate_check.passed and "not significant" in rate_check.detail
    assert "moment_gronwall_rate" in report.constants_used
    assert report.parameters["ladder_param"] == "lam"


def test_eps_study_runs_at_smallest_lambda(torus_small):
    plan = _plan(torus_small)
    report = eps_cauchy_study(plan)
    assert report.kind == "eps_cauchy"
    assert report.parameters["lam"] == plan.lambda_ladder[-1]
    assert [p.param_hi for p in report.pairs] == [0.2, 0.1]
    assert report.passed


def test_single_entry_ladders_rejected(torus_small):
    plan = _plan(torus_small, lambda_ladder=(0.1,), epsilon_ladder=(0.2,))
    with pytest.raises(ValueError, match="at least two"):
        lambda_cauchy_study(plan)
    with pytest.raises(ValueError, match="at least two"):
        eps_cauchy_study(plan)


def test_plan_validation(torus_small, torus_medium):
    with pytest.raises(ValueError, match="plan's spectrum"):
        _plan(torus_small, initial=smooth_field(torus_medium, 1.0))
    with pytest.raises(ValueError, match="strictly decreasing"):
        _plan(torus_small, lambda_ladder=(0.1, 0.2))
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        _plan(torus_small, epsilon_ladder=(1.5, 0.1))
    with pytest.raises(ValueError, match="non-empty"):
        _plan(torus_small, lambda_ladder=())
    with pytest.raises(ValueError, match="paths"):
        _plan(torus_small, paths=1)
    with pytest.raises(ValueError, match="exceed the horizon"):
        _plan(torus_small, step_size=1.0, horizon=0.5)


def test_fit_log_slope_exact_power_law():
    gaps = np.array([0.4, 0.2, 0.1, 0.05])
    means = 3.0 * gaps**2
    fit = _fit_log_slope(gaps, means, 1e-6 * means)
    assert fit.significant
    assert fit.slope == pytest.approx(2.0, rel=1e-9)
    assert fit.intercept == pytest.approx(math.log(3.0), rel=1e-9)
    assert fit.ci_low <= 2.0 <= fit.ci_high
    assert fit.pairs_used == 4


def test_fit_log_slope_two_points_insignificant():
    fit = _fit_log_slope([0.4, 0.2], [0.08, 0.04], [1e-3, 1e-3])
    assert not fit.significant
    assert fit.slope == pytest.approx(1.0, rel=1e-9)


def test_fit_log_slope_degenerate_inputs():
    fit = _fit_log_slope([0.4], [0.1], [0.01])
    assert not fit.significant and math.isnan(fit.slope)
    fit2 = _fit_log_slope([0.4, 0.2], [0.1, 0.0], [0.01, 0.01])
    assert not fit2.significant and math.isnan(fit2.slope)


def test_gronwall_rate_frozen(torus_small):
    # (4 * 3^2 + 6) * h2_L2 = 42 * 0.0225 for sigmas (0.1, -0.05), nu (2, 1)
    plan = _plan(torus_small, noise=multiplicative_model(sigmas=(0.1, -0.05)))
    assert DAVIS_CONSTANT == 3.0
    assert _gronwall_rate(plan) == pytest.approx(42.0 * 0.0225, rel=1e-15)
    assert _gronwall_rate(_plan(torus_small, noise=zero_model())) == 0.0


def _single_cell(plan):
    report = apriori_study(plan)
    table = next(t for t in report.tables if t.name == "apriori_cells")
    assert len(table.rows) == 1
    return report, dict(zip(table.columns, table.rows[0])), report.extra["cells"][0]


def test_apriori_cell_zero_noise(torus_small):
    # no noise: bound collapses to 2|x|^2 and the lhs sits below it
    plan = _plan(
        torus_small, psi=make_psi("identity"), noise=zero_model(), lambda_ladder=(0.1,)
    )
    report, row, cell = _single_cell(plan)
    x0_sq = norm(torus_small, plan.initial, L2) ** 2
    assert cell["bound"] == pytest.approx(2.0 * x0_sq, rel=1e-14)
    assert report.passed, report.failures()
    assert cell["lhs"] <= cell["bound"]
    assert cell["slack"] > 0
    assert row["mean_sup_l2_sq"] == pytest.approx(x0_sq, rel=1e-12)  # decay from t=0


def test_apriori_cell_multiplicative(torus_small):
    plan = _plan(torus_small, lambda_ladder=(0.1,))
    report, row, cell = _single_cell(plan)
    assert next(c for c in report.checks if c.name.startswith("derived_bound")).passed
    assert cell["lhs"] <= cell["bound"], (cell["lhs"], cell["bound"])
    assert row["lhs_stderr"] >= 0
    assert row["mean_integral_f12"] > 0


def test_apriori_study_full(torus_small):
    plan = _plan(torus_small, paths=6)
    report = apriori_study(plan)
    assert report.passed, report.failures()
    assert {t.name for t in report.tables} == {"apriori_cells", "apriori_shape"}
    assert len(report.extra["cells"]) == len(plan.lambda_ladder)
    for fit in report.extra["shape_fits"]:
        assert np.isfinite(fit["envelope_ratio"])
        assert fit["envelope_ratio"] <= SHAPE_ENVELOPE_MARGIN
        assert fit["fit_rate"] >= 0.0
        assert fit["fit_offset"] >= 0.0
    names = [c.name for c in report.checks]
    assert "uniform_in_lambda" in names
    assert sum(n.startswith("derived_bound") for n in names) == len(plan.lambda_ladder)


def test_fit_exponential_shape_recovers_synthetic(torus_small):
    plan = _plan(torus_small, noise=zero_model())
    x0_sq = norm(torus_small, plan.initial, L2) ** 2
    times = np.linspace(0.0, 1.0, 33)
    curve = np.exp(0.5 * times) * (2.0 * x0_sq + 0.3)
    c1, c2, ratio = _fit_exponential_shape(plan, times, curve)
    assert c1 == pytest.approx(0.5, rel=1e-9)
    assert c2 == pytest.approx(0.3, rel=1e-8)
    assert ratio == pytest.approx(1.0, rel=1e-9)


def test_fit_exponential_shape_short_curve(torus_small):
    plan = _plan(torus_small, noise=zero_model())
    c1, c2, ratio = _fit_exponential_shape(plan, np.array([0.0, 0.5]), np.array([1.0, 1.0]))
    assert math.isnan(c1) and math.isnan(c2) and math.isnan(ratio)


def test_uniqueness_check_passes(torus_small):
    plan = _plan(torus_small)
    report = uniqueness_check(plan)
    assert report.passed, report.failures()
    assert report.extra["sup_config_gap"] <= 10.0 * plan.inner_tolerance
    assert report.extra["envelope_rate"] <= report.extra["rate_cap"]
    assert report.parameters["splitting_mu_b"] > report.parameters["splitting_mu_a"]
    table = report.tables[0]
    assert table.name == "perturbation_decay"
    assert table.columns == ("t", "gap_norm")


def test_uniqueness_additive_noise_cancels(torus_small):
    # additive jumps are state-independent, so the perturbation gap sees no
    # jumps at all and must relax monotonically (cap = 0 + headroom)
    plan = _plan(torus_small, noise=additive_model(torus_small))
    report = uniqueness_check(plan)
    assert report.passed
    assert report.extra["rate_cap"] == pytest.approx(1e-6, abs=1e-12)
    assert report.extra["envelope_rate"] < 0.0


def test_chunk_reductions_match_trajectory_formulas(torus_small):
    # the chunked run reduces norms on the fly; the stored-trajectory
    # formulas of Trajectory are the reference.  3 cells -> 21 paths per
    # chunk; 45 paths span 3 chunks, the last partial.  Paths 0, 19-22 and
    # 44 are the first path, both sides of the first chunk boundary and the
    # last path, in the partial chunk.
    plan = _plan(torus_small, paths=45,
                 noise=multiplicative_model(sigmas=(0.3, -0.2), intensities=(4.0, 2.0)))
    cells = ((0.2, 0.1), (0.1, 0.1), (0.05, 0.05))
    assert plan.paths > 2 * (CHUNK_ROWS // len(cells))
    out = _run_cells(plan, cells)
    assert out["sup_l2_sq"].shape == (45, 3) and out["pair_sup_fstar_sq"].shape == (45, 2)
    for index in (0, 19, 20, 21, 22, 44):
        path = sample_noise_path(plan.noise, plan.horizon, path_seed(plan.master_seed, index))
        trajs = [
            solve_regularized_path(plan.op, plan.psi, plan.noise, path,
                                   plan.step_config(eps, lam), plan.horizon, plan.initial)
            for eps, lam in cells
        ]
        for c, traj in enumerate(trajs):
            assert out["sup_l2_sq"][index, c] == pytest.approx(traj.sup_norm(L2) ** 2, rel=1e-12)
            assert out["integral_f12"][index, c] == pytest.approx(
                traj.integral_squared_norm(F12), rel=1e-12)
            assert np.allclose(out["running_sup_l2"][index, c], traj.running_sup_squared(L2),
                               rtol=1e-12, atol=0)
            assert np.allclose(out["running_integral_f12"][index, c],
                               traj.running_integral_squared(F12), rtol=1e-12, atol=0)
        for c, (a, b) in enumerate(zip(trajs, trajs[1:])):
            kind = F12_star(max(cells[c][0], cells[c + 1][0]))
            pair = max(squared_norm_rows(plan.op, a.states - b.states, kind).max(),
                       squared_norm_rows(plan.op, a.left_states - b.left_states, kind).max())
            assert out["pair_sup_fstar_sq"][index, c] == pytest.approx(pair, rel=1e-12)
        assert np.array_equal(out["base_times"], trajs[0].times[trajs[0].base_mask])
    assert out["solver"]["implicit_steps"] > 0


def test_uniqueness_is_one_march(torus_small, monkeypatch):
    # config a, config b (other splitting constant and initializer) and
    # config a from the perturbed start march together as one call
    calls = []

    def recording(op, psi, model, paths, grids, configs, horizon, initial, counters):
        calls.append((configs, np.array(initial)))
        return march(op, psi, model, paths, grids, configs, horizon, initial, counters)

    monkeypatch.setattr(cascade, "march", recording)
    plan = _plan(torus_small)
    report = uniqueness_check(plan)
    assert report.passed, report.failures()
    assert len(calls) == 1
    (a, b, p), starts = calls[0]
    assert p == a
    assert b.splitting_mu != a.splitting_mu and b.inner_initializer != a.inner_initializer
    assert np.array_equal(starts[0], starts[1])
    assert np.count_nonzero(starts[2] != starts[0]) == 1


ACCEPTANCE = Path(__file__).resolve().parent.parent / "scenarios" / "acceptance.scn"


def _uniqueness_at(seed):
    plan = build_plan(load_scenario(ACCEPTANCE), master_seed=seed)
    return uniqueness_check(plan)


def test_uniqueness_early_jump_passes():
    # an early jump used to fail the rate check (0.3687 against the whole
    # path's budget spread over the horizon, 0.1539) though the gap grew by
    # log 0.0147, well inside the budget that jump had accrued
    report = _uniqueness_at(649757350)
    check = next(c for c in report.checks if c.name == "perturbation_contracts")
    assert check.passed, check.detail
    assert report.passed, report.failures()
    assert report.extra["jump_budget"] == pytest.approx(0.1539, abs=1e-4)
    assert report.extra["envelope_rate"] <= report.extra["rate_cap"]


def test_uniqueness_inflated_gap_fails():
    report = _uniqueness_at(649757350)
    table = next(t for t in report.tables if t.name == "perturbation_decay")
    times, gaps = (np.array(col) for col in zip(*table.rows))
    plan = build_plan(load_scenario(ACCEPTANCE), master_seed=649757350)
    path = sample_noise_path(plan.noise, plan.horizon, path_seed(plan.master_seed, 0))
    budget = _jump_budget(plan.noise, path, times)
    assert budget[-1] == pytest.approx(report.extra["jump_budget"], rel=1e-15)
    honest = _excess_growth_rate(times, gaps, gaps[0], budget)
    assert honest <= PERTURBATION_RATE_HEADROOM
    inflated = np.where(times > 0, 1e3 * gaps, gaps)
    assert _excess_growth_rate(times, inflated, gaps[0], budget) > PERTURBATION_RATE_HEADROOM


SMALL = Path(__file__).resolve().parent.parent / "scenarios" / "multiplicative_small.scn"


def test_only_fingerprinted_plans_reuse_ensembles(march_steps):
    plan = build_plan(load_scenario(SMALL))

    def marched(study, study_plan):
        march_steps.clear()
        report = study(study_plan)
        assert report.ensemble == ("marched" if march_steps else "reused")
        return len(march_steps)

    assert plan.fingerprint is not None
    assert marched(lambda_cauchy_study, plan) > 0
    assert marched(apriori_study, plan) == 0

    # the same configuration without a fingerprint, built by hand or copied
    hand = StudyPlan(**{f.name: getattr(plan, f.name) for f in fields(StudyPlan) if f.init})
    copy = replace(plan, paths=plan.paths)
    for other in (hand, copy):
        assert other.fingerprint is None
        assert marched(apriori_study, other) > 0
        assert marched(apriori_study, other) > 0  # and nothing was kept
    assert marched(apriori_study, replace(plan, paths=plan.paths + 2)) > 0
    assert marched(apriori_study, plan) == 0

    # a plan with another fingerprint drops every ensemble of the last one
    reseeded = build_plan(load_scenario(SMALL), master_seed=plan.master_seed + 1)
    assert reseeded.fingerprint != plan.fingerprint
    assert marched(lambda_cauchy_study, reseeded) > 0
    assert marched(apriori_study, reseeded) == 0
    assert marched(apriori_study, plan) > 0


def test_kept_ensemble_is_read_only():
    # a study that writes into its samples raises instead of corrupting the
    # next study's
    plan = build_plan(load_scenario(SMALL))
    cells = [(plan.epsilon_ladder[-1], lam) for lam in plan.lambda_ladder]
    first = _run_cells(plan, cells)
    arrays = {k: v for k, v in first.items() if isinstance(v, np.ndarray)}
    assert set(arrays) == {"sup_l2_sq", "integral_f12", "pair_sup_fstar_sq", "base_times",
                           "running_sup_l2", "running_integral_f12"}
    kept = {k: v.copy() for k, v in arrays.items()}
    for value in arrays.values():
        with pytest.raises(ValueError, match="read-only"):
            value[...] = 0.0
    again = _run_cells(plan, cells)
    assert (first["ensemble"], again["ensemble"]) == ("marched", "reused")
    for name, value in kept.items():
        assert np.array_equal(again[name], value)
