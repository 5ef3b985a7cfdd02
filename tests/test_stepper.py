"""Implicit stepping: frozen one-step values, residual contract, exact oracles.

The one-step frozen value: for psi = identity, lam = 0 the step is diagonal,
u_k = b_k / (1 + h (eps + mu_k)); at mu = 1, eps = 0.1, h = 0.1 that factor,
taken exactly on the float inputs and rounded once, is 0.9009009009009009
(the float quotient 1 / 1.11 rounds to 0.9009009009009008).
"""
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from levypme import cascade, operators, stepper
from levypme.nonlinearity import make_psi
from levypme.noise import NoisePath, sample_noise_path
from levypme.operators import (
    build_fractional_laplacian_torus,
    random_field,
    smooth_field,
)
from levypme.scenario import build_plan, load_scenario
from levypme.spaces import F12_star, F_STAR, L2, norm, squared_norm_rows
from levypme.stepper import (
    ANDERSON_DEPTH,
    TOP_SPLIT_DEPTH,
    SolverCounters,
    StepConfig,
    StepperConvergenceError,
    cadlag_reductions,
    cadlag_totals,
    _RowParams,
    _mixing,
    _solve_rows,
    drift_rows,
    implicit_step,
    march,
    solve_regularized_path,
    splitting,
    time_grid,
)

from conftest import additive_model, multiplicative_model, spectrum_from_eigenvalues, zero_model

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def test_single_linear_step_frozen():
    op = spectrum_from_eigenvalues([1.0])
    cfg = StepConfig(h=0.1, epsilon=0.1)
    b = op.field_from_coefficients(np.array([1.0]))
    u = implicit_step(op, make_psi("identity"), cfg, b)
    assert u[0] == 0.9009009009009009


@pytest.mark.parametrize("dt", [0.0, -0.1], ids=["zero", "negative"])
def test_non_positive_dt_rejected(torus_small, initial_small, dt):
    cfg = StepConfig(h=0.1, epsilon=0.2)
    with pytest.raises(ValueError, match="dt must be positive"):
        implicit_step(torus_small, make_psi("soft_monotone"), cfg, initial_small, dt)


def _step_residual(op, psi, cfg, u, b, dt):
    # || u + dt (eps - L)(psi(u) + lam u) - b || in F12_star(eps)
    phys = op.to_physical(u)
    w = op.to_spectral(psi.evaluate(phys) + cfg.lam * phys)
    r = u + dt * (cfg.epsilon + op.eigenvalues) * w - b
    return math.sqrt(float(squared_norm_rows(op, r[None, :], F12_star(cfg.epsilon))[0]))


@pytest.mark.parametrize("kind,kwargs", [
    ("soft_monotone", {}),
    ("saturating", {"cap": 0.8}),
    ("scaled_linear", {"scale": 2.0}),
])
def test_residual_contract(torus_small, kind, kwargs):
    # the solver's coefficient-space lam u against the physical-space residual,
    # on both spectrum families
    psi = make_psi(kind, **kwargs)
    cfg = StepConfig(h=0.25, epsilon=0.2, lam=0.1, inner_tolerance=1e-11)
    for op in (torus_small, spectrum_from_eigenvalues(torus_small.eigenvalues)):
        b = smooth_field(op, amplitude=1.5)
        u = implicit_step(op, psi, cfg, b)
        assert _step_residual(op, psi, cfg, u, b, cfg.h) <= 1e-11


def test_step_nonexpansive_in_dual(torus_small):
    # the resolvent of a monotone drift contracts the eps-scaled dual norm
    psi = make_psi("soft_monotone")
    cfg = StepConfig(h=0.25, epsilon=0.2, lam=0.05, inner_tolerance=1e-12)
    rng = np.random.default_rng(21)
    kind = F12_star(cfg.epsilon)
    for _ in range(10):
        b1 = torus_small.field_from_coefficients(rng.normal(size=torus_small.mode_count))
        b2 = torus_small.field_from_coefficients(rng.normal(size=torus_small.mode_count))
        u1 = implicit_step(torus_small, psi, cfg, b1)
        u2 = implicit_step(torus_small, psi, cfg, b2)
        gap_out = norm(torus_small, u1 - u2, kind)
        gap_in = norm(torus_small, b1 - b2, kind)
        assert gap_out <= gap_in + 1e-9


def test_zero_noise_norm_decay(torus_small, initial_small):
    cfg = StepConfig(h=0.0625, epsilon=0.2, lam=0.1)
    path = sample_noise_path(zero_model(), 1.0, 3)
    kind = F12_star(cfg.epsilon)

    traj = solve_regularized_path(
        torus_small, make_psi("soft_monotone"), zero_model(), path, cfg, 1.0, initial_small
    )
    dual_sq = traj.row_squared_norms(kind)
    assert np.all(np.diff(dual_sq) <= 1e-12)

    # linear drift also decays mode-by-mode, hence in L2
    traj_lin = solve_regularized_path(
        torus_small, make_psi("identity"), zero_model(), path, cfg, 1.0, initial_small
    )
    l2_sq = traj_lin.row_squared_norms(L2)
    assert np.all(np.diff(l2_sq) <= 1e-12)


def test_linear_recursion_oracle(torus_small, initial_small):
    # zero noise + identity: X(t_i) = x * prod 1/(1 + dt_j (eps+mu)(1+lam))
    cfg = StepConfig(h=0.125, epsilon=0.2, lam=0.1)
    path = sample_noise_path(zero_model(), 1.0, 0)
    traj = solve_regularized_path(
        torus_small, make_psi("identity"), zero_model(), path, cfg, 1.0, initial_small
    )
    kappa = (cfg.epsilon + torus_small.eigenvalues) * (1.0 + cfg.lam)
    dts = np.diff(traj.times)
    factors = 1.0 / (1.0 + dts[:, None] * kappa[None, :])
    expected = initial_small[None, :] * np.cumprod(factors, axis=0)
    gap = np.abs(traj.states[1:] - expected).max()
    assert gap <= 1e-10, f"recursion gap {gap:.3e}"


def test_temporal_order_linear_decay(torus_small, initial_small):
    # first-order convergence to X_k(T) = x_k exp(-(eps+mu_k)(1+lam) T)
    epsilon, lam, horizon = 0.2, 0.1, 1.0
    kappa = (epsilon + torus_small.eigenvalues) * (1.0 + lam)
    exact = initial_small * np.exp(-kappa * horizon)
    errors = []
    steps = [2.0**-p for p in range(4, 10)]
    for h in steps:
        cfg = StepConfig(h=h, epsilon=epsilon, lam=lam)
        path = sample_noise_path(zero_model(), horizon, 0)
        traj = solve_regularized_path(
            torus_small, make_psi("identity"), zero_model(), path, cfg, horizon, initial_small
        )
        errors.append(norm(torus_small, traj.states[-1] - exact, L2))
    slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
    assert 0.85 <= slope <= 1.15, f"observed order {slope:.4f}"


def test_pure_jump_exact(torus_small, initial_small):
    # psi = 0, lam = 0: the path is x + sum of jump fields - t * compensator
    model = additive_model(torus_small)
    cfg = StepConfig(h=0.125, epsilon=0.2, lam=0.0)
    path = sample_noise_path(model, 1.0, 17)
    assert path.jump_count > 0
    traj = solve_regularized_path(
        torus_small, make_psi("zero"), model, path, cfg, 1.0, initial_small
    )
    comp = model.compensator_rate(torus_small, initial_small)
    fields = model.fields
    worst = 0.0
    for i, t in enumerate(traj.times):
        before = path.times < t - 1e-15
        upto = path.times <= t + 1e-15
        exact_left = initial_small + fields[path.mark_indices[before]].sum(axis=0) - t * comp
        exact_right = initial_small + fields[path.mark_indices[upto]].sum(axis=0) - t * comp
        worst = max(worst, np.abs(traj.left_states[i] - exact_left).max())
        worst = max(worst, np.abs(traj.states[i] - exact_right).max())
    assert worst <= 1e-10, f"pure-jump gap {worst:.3e}"


def test_pure_multiplicative_jump_exact(torus_small, initial_small):
    # psi = 0, lam = 0, sigmas (0.08, -0.05) at intensities (2, 1): each
    # substep scales the state by 1 - dt (2 * 0.08 - 0.05), from its own left
    # end, and a jump of mark j by 1 + sigma_j
    model = multiplicative_model()
    cfg = StepConfig(h=0.125, epsilon=0.2, lam=0.0)
    path = sample_noise_path(model, 1.0, 17)
    assert path.jump_count > 0
    traj = solve_regularized_path(
        torus_small, make_psi("zero"), model, path, cfg, 1.0, initial_small
    )
    scale, worst = 1.0, 0.0
    for i, t in enumerate(traj.times):
        if i:
            scale *= 1.0 - (t - traj.times[i - 1]) * 0.11
        worst = max(worst, np.abs(traj.left_states[i] - scale * initial_small).max())
        for j in path.mark_indices[path.times == t]:
            scale *= 1.0 + (0.08, -0.05)[j]
        worst = max(worst, np.abs(traj.states[i] - scale * initial_small).max())
    assert worst <= 1e-10, f"pure-jump gap {worst:.3e}"


def test_grid_refinement_and_flags(torus_small, initial_small):
    model = additive_model(torus_small)
    # one jump off the uniform grid, one on it
    path = NoisePath(np.array([0.123, 0.5]), np.array([0, 1]), 9, 1.0)
    cfg = StepConfig(h=0.25, epsilon=0.2)
    traj = solve_regularized_path(
        torus_small, make_psi("soft_monotone"), model, path, cfg, 1.0, initial_small
    )
    assert 0.123 in traj.times
    base = traj.times[traj.base_mask]
    assert np.allclose(base, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert 0.123 not in base

    jump_rows = np.isin(traj.times, [0.123, 0.5])
    assert np.array_equal(traj.jump_flags, jump_rows)
    row_gap = np.abs(traj.states - traj.left_states).max(axis=1)
    assert np.all(row_gap[traj.jump_flags] > 0)
    assert np.all(row_gap[~traj.jump_flags] == 0)


def test_grid_is_uniques_when_jumps_meet_base_points():
    # jumps at the base point 0.5 and at the horizon appear once each, as
    # np.unique would keep them
    path = NoisePath(np.array([0.123, 0.5, 1.0]), np.array([0, 1, 0]), 9, 1.0)
    grid, base_mask = time_grid(0.25, 1.0, path)
    base = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.array_equal(grid, np.unique(np.concatenate([base, path.times])))
    assert grid.size == 6
    assert np.array_equal(grid[base_mask], base)


def test_convergence_error_when_starved(torus_small):
    psi = make_psi("soft_monotone")
    cfg = StepConfig(h=0.9, epsilon=0.2, inner_tolerance=1e-14, max_inner_iterations=1)
    b = smooth_field(torus_small, amplitude=50.0)
    with pytest.raises(StepperConvergenceError, match="residual"):
        implicit_step(torus_small, psi, cfg, b)


def test_splitting_policy(torus_small):
    # 17 modes at h = 0.1: every centre split's factor is below 1/2
    cfg = StepConfig(h=0.1, epsilon=0.2, lam=0.1)
    assert splitting(torus_small, make_psi("identity"), cfg).mu == 1.1
    assert splitting(torus_small, make_psi("zero"), cfg).mu == 0.1
    # (m + k + lam)/2 + 0.05 (1 + k - m) at m = 1, k = 3/2
    soft, saturating = make_psi("soft_monotone"), make_psi("saturating", cap=1.0)
    assert splitting(torus_small, soft, cfg).mu == pytest.approx(1.375)
    # m = 0 keeps (k + lam)/2 + 0.05 (1 + k)
    assert splitting(torus_small, saturating, cfg).mu == pytest.approx(0.65)
    cfg_override = StepConfig(h=0.1, epsilon=0.2, splitting_mu=2.5)
    assert splitting(torus_small, soft, cfg_override).mu == 2.5


def _plan_cells(name, mode_cutoff=None):
    """A shipped scenario's plan and the step configs of all its ladder cells."""
    sc = load_scenario(SCENARIO_DIR / name)
    plan = build_plan(sc if mode_cutoff is None else replace(sc, mode_cutoff=mode_cutoff))
    cells = {cell for param in ("lam", "epsilon")
             for cell in cascade._ladder_cells(plan, param)[1]}
    return plan, [plan.step_config(eps, lam) for eps, lam in sorted(cells)]


def _centre_factor(plan, cfg):
    # the a-priori factor of the centre split (m + k + lam)/2 + 0.05 (1 + k - m)
    k, m = plan.psi.lipschitz_k, plan.psi.slope_min
    centre = replace(cfg, splitting_mu=0.5 * (m + k + cfg.lam) + 0.05 * (1.0 + k - m))
    return splitting(plan.op, plan.psi, centre).factor, centre.splitting_mu


def test_stiff_cells_split_at_the_top():
    # 257-mode additive_saturating: every cell's centre split has a factor of
    # at least 1/2 (0.69-0.89), so the split moves to k + lam, the batch
    # mixes with the deeper history and the reported factor is the top
    # split's, still below 1
    plan, configs = _plan_cells("additive_saturating.scn", mode_cutoff=128)
    for cfg in configs:
        factor, _ = _centre_factor(plan, cfg)
        assert 0.69 <= factor <= 0.89
        split = splitting(plan.op, plan.psi, cfg)
        assert split.mu == plan.psi.lipschitz_k + cfg.lam
        assert factor < split.factor < 1.0
    assert _RowParams.from_configs(plan.op, plan.psi, configs).depth == TOP_SPLIT_DEPTH


def test_acceptance_cells_keep_the_centre_split():
    # acceptance.scn: factors 0.08-0.09, far below 1/2; nothing changes
    plan, configs = _plan_cells("acceptance.scn")
    for cfg in configs:
        factor, centre = _centre_factor(plan, cfg)
        assert 0.08 <= factor <= 0.095
        split = splitting(plan.op, plan.psi, cfg)
        assert split.mu == centre
        assert split.factor == factor
    assert _RowParams.from_configs(plan.op, plan.psi, configs).depth == ANDERSON_DEPTH


def test_linear_psi_and_explicit_split_untouched():
    # on the stiff cells, a linear psi keeps slope + lam and an explicit
    # splitting_mu is used as given, each with the 3-deep history
    plan, configs = _plan_cells("additive_saturating.scn", mode_cutoff=128)
    identity = make_psi("identity")
    explicit = [replace(cfg, splitting_mu=2.2) for cfg in configs]
    for cfg, given in zip(configs, explicit):
        assert splitting(plan.op, identity, cfg).mu == 1.0 + cfg.lam
        assert splitting(plan.op, plan.psi, given).mu == 2.2
    for psi, batch in [(identity, configs), (plan.psi, explicit)]:
        assert _RowParams.from_configs(plan.op, psi, batch).depth == ANDERSON_DEPTH


def test_linear_split_reports_factor_zero(torus_small):
    # an exactly linear psi shifts by slope + lam, so the frozen remainder is
    # zero and so is the a-priori factor, although identity and scaled_linear
    # keep slope_min = 0
    cfg = StepConfig(h=0.1, epsilon=0.2, lam=0.1)
    for psi in (make_psi("identity"), make_psi("scaled_linear", scale=2.7)):
        split = splitting(torus_small, psi, cfg)
        assert split.mu == psi.linear_slope + cfg.lam
        assert split.factor == 0.0
        assert split.depth == ANDERSON_DEPTH


def test_uniqueness_mixes_top_and_explicit_splits():
    # uniqueness's stiff batch at 257 modes: config a takes the top split,
    # config b an explicit splitting_mu; the batch mixes with the deeper
    # history, each row shifts by its own cell's mu, and march records the
    # larger factor of the two cells
    plan, _ = _plan_cells("additive_saturating.scn", mode_cutoff=128)
    report = cascade.uniqueness_check(plan)
    config_a = plan.step_config(*plan.finest_cell)
    config_b = replace(config_a, splitting_mu=report.parameters["splitting_mu_b"],
                       inner_initializer="zero")
    configs = [config_a, config_b, config_a]
    split_a, split_b = (splitting(plan.op, plan.psi, cfg) for cfg in (config_a, config_b))
    assert split_a.depth == TOP_SPLIT_DEPTH and split_b.depth == ANDERSON_DEPTH
    assert config_b.splitting_mu == 2.0 * split_a.mu + 0.1 == split_b.mu
    params = _RowParams.from_configs(plan.op, plan.psi, configs)
    assert params.depth == TOP_SPLIT_DEPTH
    assert params.mu_s[:, 0].tolist() == [split_a.mu, split_b.mu, split_a.mu]

    path = sample_noise_path(plan.noise, plan.horizon, 0)
    grid, _ = time_grid(plan.step_size, plan.horizon, path)
    counters = SolverCounters()
    for _ in march(plan.op, plan.psi, plan.noise, [path], [grid], configs, plan.horizon,
                   plan.initial, counters):
        pass
    largest = max(split_a.factor, split_b.factor)
    assert split_a.factor != split_b.factor
    assert counters.apriori_contraction == largest
    assert report.extra["solver"]["apriori_contraction_factor"] == largest


def test_top_split_with_deep_history_cuts_stiff_iterations():
    # one implicit step of 48 rows on the 257-mode torus, as in a stiff
    # chunk: 16 random states, each under the three lambda cells of the stiff
    # workload, saturating psi mostly on its slope-1 part.  The rule takes
    # 683 row-iterations here; the top split at depth 3 took 825, the centre
    # split at depth 6 took 962 and both halves removed 1211
    op = build_fractional_laplacian_torus(128, 0.75)
    psi = make_psi("saturating", cap=1.0)
    configs = [StepConfig(h=1 / 32, epsilon=0.05, lam=lam) for lam in (0.2, 0.1, 0.05)]
    b = np.repeat(
        np.stack([random_field(op, np.random.default_rng(s), scale=0.6) for s in range(16)]),
        len(configs), axis=0,
    )
    params = _RowParams.from_configs(op, psi, configs, repeat=16)
    assert params.depth == TOP_SPLIT_DEPTH
    _, iterations = _solve_rows(op, psi, params, b, np.full(48, 1 / 32), params.tolerance,
                                SolverCounters())
    assert iterations.sum() <= 750


@pytest.mark.parametrize("mode_cutoff", [8, 32, 128], ids=["17", "65", "257"])
def test_zero_target_runs_rows_to_the_floor(mode_cutoff):
    # with a zero target no row meets its target, so each stops only on the
    # floating-point floor, once an iteration no longer improves its best
    # residual; stopping as soon as the residual is within inner_tolerance
    # leaves rows near 1e-10
    op = build_fractional_laplacian_torus(mode_cutoff, 0.75)
    psi = make_psi("saturating", cap=1.0)
    configs = [StepConfig(h=1 / 32, epsilon=0.05, lam=lam) for lam in (0.2, 0.1, 0.05)]
    b = np.repeat(
        np.stack([random_field(op, np.random.default_rng(s), scale=0.6) for s in range(4)]),
        len(configs), axis=0,
    )
    params = _RowParams.from_configs(op, psi, configs, repeat=4)
    dt = np.full(b.shape[0], 1 / 32)
    u, _ = _solve_rows(op, psi, params, b, dt, np.zeros(b.shape[0]), SolverCounters())
    d = dt[:, None] * params.eps_plus_mu
    sr = params.dual_scale * (u + d * (drift_rows(op, psi, u) + params.lam * u) - b)
    final = np.sqrt(np.einsum("ij,ij->i", sr, sr))
    assert final.max() <= 1e-3 * configs[0].inner_tolerance


def test_contraction_factor_below_one(torus_small):
    cfg = StepConfig(h=0.125, epsilon=0.2, lam=0.1)
    for kind, kwargs in [("soft_monotone", {}), ("saturating", {"cap": 1.0})]:
        q = splitting(torus_small, make_psi(kind, **kwargs), cfg).factor
        assert 0.0 < q < 1.0


def test_contraction_factor_uses_slope_infimum():
    # one mode, d = h (eps + mu) = 0.5 (0.2 + 1.8) = 1; soft_monotone at
    # lam = 0.1: mu_s = 1.375, remainder max(mu_s - lam - 1, 3/2 + lam - mu_s)
    op = spectrum_from_eigenvalues([1.8])
    cfg = StepConfig(h=0.5, epsilon=0.2, lam=0.1)
    q = splitting(op, make_psi("soft_monotone"), cfg).factor
    assert q == pytest.approx(0.275 / 2.375, rel=1e-14)


def test_accelerated_saturating_iterations():
    # one stiff-saturating path (additive noise, saturating psi with its
    # plateaus, lam = 0.05) on the 129-mode torus: the damped fixed-point
    # loop this kernel replaced took 65.0 inner iterations per step on
    # average here; the accelerated one must take at most half of that
    op = build_fractional_laplacian_torus(64, 0.75)
    model = additive_model(op)
    traj = solve_regularized_path(
        op, make_psi("saturating", cap=1.0), model, sample_noise_path(model, 0.5, 1),
        StepConfig(h=1 / 32, epsilon=0.05, lam=0.05), 0.5,
        random_field(op, np.random.default_rng(12), scale=1.2),
    )
    assert traj.counters.summary()["inner_iterations_mean"] <= 65.0 / 2


def test_step_config_validation():
    with pytest.raises(ValueError):
        StepConfig(h=0.0, epsilon=0.2)
    with pytest.raises(ValueError):
        StepConfig(h=0.1, epsilon=1.0)
    with pytest.raises(ValueError):
        StepConfig(h=0.1, epsilon=0.2, lam=1.0)
    with pytest.raises(ValueError):
        StepConfig(h=0.1, epsilon=0.2, inner_tolerance=0.0)
    with pytest.raises(ValueError):
        StepConfig(h=0.1, epsilon=0.2, max_inner_iterations=0)
    with pytest.raises(ValueError):
        StepConfig(h=0.1, epsilon=0.2, splitting_mu=0.0)
    with pytest.raises(ValueError):
        StepConfig(h=0.1, epsilon=0.2, inner_initializer="ones")


def test_path_must_fit_horizon(torus_small, initial_small):
    model = additive_model(torus_small)
    path = NoisePath(np.array([1.5]), np.array([0]), 0, 2.0)
    cfg = StepConfig(h=0.25, epsilon=0.2)
    with pytest.raises(ValueError, match="past the horizon"):
        solve_regularized_path(
            torus_small, make_psi("identity"), model, path, cfg, 1.0, initial_small
        )


def _small_trajectory(op, initial):
    model = multiplicative_model()
    cfg = StepConfig(h=0.25, epsilon=0.2, lam=0.1)
    path = sample_noise_path(model, 1.0, 7)
    return solve_regularized_path(op, make_psi("soft_monotone"), model, path, cfg, 1.0, initial)


def test_trajectory_metadata_and_summaries(torus_small, initial_small):
    traj = _small_trajectory(torus_small, initial_small)
    for key in (
        "epsilon", "lambda", "h", "seed", "mode_count", "mode_cutoff", "psi",
        "inner_tolerance", "splitting_mu", "contraction_factor",
        "max_inner_iterations_used",
    ):
        assert key in traj.metadata
    assert traj.metadata["psi"] == "soft_monotone"
    assert traj.metadata["contraction_factor"] < 1.0

    kind = F12_star(0.2)
    sup_sq = traj.running_sup_squared(kind)
    assert np.sqrt(sup_sq[-1]) == traj.sup_norm(kind)
    run_int = traj.running_integral_squared(kind)
    assert run_int[0] == 0.0
    assert run_int[-1] == pytest.approx(traj.integral_squared_norm(kind), rel=1e-14)
    assert np.all(np.diff(sup_sq) >= 0)
    assert np.all(np.diff(run_int) >= 0)


def test_trajectory_export_readable(torus_small, initial_small, tmp_path):
    """The export is one ``# key=value`` line per metadata key, a column line
    and one row per grid time: ``repr`` of t, the jump flag as 0 or 1, ``repr``
    of the L2 and F* norms and of each coefficient."""
    traj = _small_trajectory(torus_small, initial_small)
    traj.export(tmp_path / "trajectory.csv")
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    meta_lines = [ln for ln in lines if ln.startswith("# ")]
    assert len(meta_lines) == len(traj.metadata)
    header = lines[len(meta_lines)]
    assert header.startswith("t,is_jump,norm_L2,norm_F12star,")
    data = lines[len(meta_lines) + 1 :]
    assert len(data) == traj.times.size
    first = data[0].split(",")
    assert float(first[0]) == 0.0
    assert int(first[1]) == 0
    assert float(first[2]) == pytest.approx(norm(torus_small, initial_small, L2))
    l2 = np.sqrt(traj.row_squared_norms(L2))
    fstar = np.sqrt(traj.row_squared_norms(F_STAR))
    assert traj.jump_flags.any() and not traj.jump_flags.all()
    assert data == [
        ",".join([repr(float(t)), str(int(jump)), repr(float(a)), repr(float(b)),
                  *(repr(float(c)) for c in row)])
        for t, jump, a, b, row in zip(traj.times, traj.jump_flags, l2, fstar, traj.states)
    ]


def _solve(op, psi, configs, b, dts, counters=None):
    # one batch of the inner solver, each row certified to its inner_tolerance
    params = _RowParams.from_configs(op, psi, configs)
    return _solve_rows(
        op, psi, params, np.asarray(b, dtype=float), np.asarray(dts, dtype=float),
        params.tolerance, SolverCounters() if counters is None else counters,
    )


def _equivalence_batch(op):
    # rows differ in cell (eps, lam), dt and amplitude of b, so they stop
    # after different numbers of inner iterations
    rng = np.random.default_rng(31)
    configs = [
        StepConfig(h=0.25, epsilon=eps, lam=lam, inner_tolerance=1e-11)
        for eps, lam in [(0.2, 0.1), (0.05, 0.0), (0.5, 0.3), (0.2, 0.1), (0.1, 0.05), (0.3, 0.2)]
    ]
    dts = np.array([0.25, 0.05, 0.7, 0.01, 0.15, 0.3])
    b = rng.normal(size=(len(configs), op.mode_count)) * np.array([[3.0], [1.0], [0.2], [5.0], [2.0], [0.01]])
    return configs, b, dts


def test_batched_kernel_matches_one_row_calls(torus_small):
    psi = make_psi("soft_monotone")
    configs, b, dts = _equivalence_batch(torus_small)
    counters = SolverCounters()
    batch, iterations = _solve(torus_small, psi, configs, b, dts, counters)
    assert len(set(iterations.tolist())) > 1
    assert np.array_equal(counters.iterations[0], iterations)
    for r, (cfg, dt) in enumerate(zip(configs, dts)):
        single, count = implicit_step(
            torus_small, psi, cfg, torus_small.field_from_coefficients(b[r]), dt,
            return_iterations=True,
        )
        assert np.abs(batch[r] - single).max() <= 1e-12
        assert iterations[r] == count


def test_one_failing_row_raises(torus_small):
    # a loose row converges within the two allowed iterations, a starved one
    # cannot; the batch as a whole must fail, naming the starved row's dt
    psi = make_psi("soft_monotone")
    loose = StepConfig(h=0.1, epsilon=0.2, inner_tolerance=1.0, max_inner_iterations=2)
    starved = StepConfig(h=0.1, epsilon=0.2, inner_tolerance=1e-14, max_inner_iterations=2)
    b = np.stack([smooth_field(torus_small, 1.0)] * 2)
    _solve(torus_small, psi, [loose], b[:1], [0.9])
    with pytest.raises(StepperConvergenceError, match=r"residual .* dt 0\.7"):
        _solve(torus_small, psi, [loose, starved], b, [0.9, 0.7])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_row_raises(torus_small, bad):
    # a NaN residual compares False with every target: it must still fail
    psi = make_psi("soft_monotone")
    b = smooth_field(torus_small, 1.0).copy()
    b[3] = bad
    with np.errstate(invalid="ignore"), pytest.raises(StepperConvergenceError):
        _solve(torus_small, psi, [StepConfig(h=0.1, epsilon=0.2)], b[None, :], [0.1])


@pytest.mark.parametrize("loading", [stepper._MIXING_LOADING, 0.0], ids=["loaded", "unloaded"])
def test_mixing_loading_decides_equal_columns(monkeypatch, loading):
    # the ring fills as in the kernel, one column per update, and the third
    # difference repeats the first: the unloaded normal equations are then
    # exactly singular and their solve fails, the loaded ones give finite
    # weights
    monkeypatch.setattr(stepper, "_MIXING_LOADING", loading)
    columns = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0], [1.0, 2.0, 0.0]])
    dS = np.zeros((1, 3, 3))
    dG = np.zeros_like(dS)
    gram = np.eye(3)[None]
    sr = np.array([[1.0, 1.0, 1.0]])
    g = np.array([[2.0, -1.0, 0.5]])
    for slot, column in enumerate(columns):
        dS[0, slot], dG[0, slot] = column, 0.5 * column
        if slot == 2 and loading == 0.0:
            with pytest.raises(np.linalg.LinAlgError):
                _mixing(g, sr, dG, dS, gram, slot)
            return
        u = _mixing(g, sr, dG, dS, gram, slot)
        assert np.isfinite(u).all()
        assert np.abs(u - g).max() < 1.0


class _RecordingCounters(SolverCounters):
    """Counters that also keep the final residuals and targets of each call."""

    def record(self, iterations, first_res, final_res, misses):
        self.final_res = final_res.copy()
        super().record(iterations, first_res, final_res, misses)


def test_returned_rows_carry_their_recorded_residual():
    # each returned row is the best-certified iterate: its recomputed
    # certificate residual equals the recorded final residual bit for bit.
    # A zero target makes every row stop on the floor, after an iteration
    # that did not improve.  The model's transforms are exact (identity
    # basis), so the recomputation is the kernel's arithmetic
    op = spectrum_from_eigenvalues(build_fractional_laplacian_torus(64, 0.75).eigenvalues)
    psi = make_psi("saturating", cap=1.0)
    configs = [StepConfig(h=1 / 32, epsilon=eps, lam=lam)
               for eps, lam in [(0.05, 0.05), (0.2, 0.1)]]
    rng = np.random.default_rng(7)
    b = rng.normal(size=(6, op.mode_count)) * np.array([[0.5], [1.5], [3.0], [0.5], [1.5], [3.0]])
    dt = np.array([1 / 32, 1 / 64, 1 / 32, 1 / 32, 1 / 100, 1 / 32])
    params = _RowParams.from_configs(op, psi, configs, repeat=3)
    counters = _RecordingCounters()
    out, _ = _solve_rows(op, psi, params, b, dt, np.zeros(6), counters)
    scale, d = params.dual_scale, dt[:, None] * params.eps_plus_mu
    sr = scale * d * drift_rows(op, psi, out) - scale * b + scale * (1.0 + params.lam * d) * out
    res = np.sqrt(np.einsum("ij,ij->i", sr, sr))
    assert np.all(counters.final_res > 0.0)
    assert np.array_equal(res, counters.final_res)


def test_budget_misses_count_final_residuals_above_target(torus_small):
    # two rows: one meets its target; the other's target is 3/4 of the floor
    # it stalls at, so it ends above the target but below twice the target
    psi = make_psi("soft_monotone")
    cfg = StepConfig(h=0.25, epsilon=0.2, lam=0.1)
    b = np.stack([smooth_field(torus_small, 1.0), smooth_field(torus_small, 2.0)])
    dt = np.array([0.25, 0.2])
    params = _RowParams.from_configs(torus_small, psi, [cfg], repeat=2)
    probe = _RecordingCounters()
    _solve_rows(torus_small, psi, params, b, dt, np.array([1e-10, 0.0]), probe)
    floor = probe.final_res[1]
    target = np.array([1e-10, 0.75 * floor])
    counters = _RecordingCounters()
    _solve_rows(torus_small, psi, params, b, dt, target, counters)
    assert counters.final_res[0] <= target[0]
    assert target[1] < counters.final_res[1] == floor <= 2.0 * target[1]
    misses = int(np.count_nonzero(counters.final_res > target))
    assert misses == 1
    assert counters.summary()["residual_budget_misses"] == misses


def test_cadlag_reductions_hand_computed():
    # a jump at t = 0.75 lifts the value from its left limit 3 to 5; the base
    # rows are t = 0, 0.5 and 1
    times = np.array([0.0, 0.5, 0.75, 1.0])
    base_mask = np.array([True, True, False, True])
    right = np.array([1.0, 2.0, 5.0, 4.0])
    left = np.array([1.0, 2.0, 3.0, 4.0])
    expected = (5.0, 2.5, np.array([1.0, 2.0, 5.0]), np.array([0.0, 0.75, 2.5]))
    # trapezoid 0.25 (1 + 2) + 0.125 (2 + 3) + 0.125 (5 + 4): the segment
    # into the jump ends at the left limit, so the jump adds no area
    for got, want in zip(cadlag_reductions(times, base_mask, right, left), expected):
        assert np.array_equal(got, want)
    # leading axes are independent sequences on the same grid
    stacked = cadlag_reductions(
        times, base_mask, np.stack([right, 2.0 * right]), np.stack([left, 2.0 * left])
    )
    for got, want in zip(stacked, expected):
        assert np.array_equal(got, np.stack([want, 2.0 * np.asarray(want)]))
    # cadlag_totals is the first two reductions alone, bit for bit
    right, left = np.random.default_rng(3).random((2, 5, times.size))
    totals = cadlag_totals(times, right, left)
    for got, want in zip(totals, cadlag_reductions(times, base_mask, right, left)[:2]):
        assert np.array_equal(got, want)


def test_lockstep_march_matches_one_path_solves(torus_small, initial_small):
    # rows of several paths (different jump-refined grids) and cells, each
    # cell from its own start, advance together; each must reproduce its own
    # one-path solve
    model = multiplicative_model(sigmas=(0.3, -0.2), intensities=(4.0, 2.0))
    psi = make_psi("saturating", cap=0.5)
    configs = [StepConfig(h=0.125, epsilon=eps, lam=lam) for eps, lam in [(0.2, 0.1), (0.1, 0.05)]]
    starts = [initial_small, torus_small.field_from_coefficients(0.5 * initial_small)]
    paths = [sample_noise_path(model, 1.0, seed) for seed in (1, 2, 3, 4)]
    grids = [time_grid(0.125, 1.0, path)[0] for path in paths]
    assert len({grid.size for grid in grids}) > 1
    seen = {}
    for i, active, left, right in march(
        torus_small, psi, model, paths, grids, configs, 1.0,
        np.stack(starts), SolverCounters(),
    ):
        assert np.all([grids[p].size > i for p in active])
        for k, p in enumerate(active):
            for c in range(len(configs)):
                row = k * len(configs) + c
                seen.setdefault((p, c), []).append((left[row].copy(), right[row].copy()))
    for (p, c), rows in seen.items():
        traj = solve_regularized_path(
            torus_small, psi, model, paths[p], configs[c], 1.0, starts[c]
        )
        assert len(rows) == traj.times.size
        assert np.abs(np.array([r[0] for r in rows]) - traj.left_states).max() <= 1e-12
        assert np.abs(np.array([r[1] for r in rows]) - traj.states).max() <= 1e-12


def test_fft_solve_matches_dense_solve(monkeypatch):
    # on 513 modes the transforms are real FFTs; a path solved with them
    # keeps within the inner tolerance of the path solved with the dense
    # basis, jumps and all
    model = multiplicative_model(sigmas=(0.3, -0.2), intensities=(4.0, 2.0))
    psi = make_psi("saturating", cap=0.5)
    cfg = StepConfig(h=0.125, epsilon=0.1, lam=0.05)
    path = sample_noise_path(model, 0.5, 1)
    assert path.times.size == 3
    fft = build_fractional_laplacian_torus(256, 0.5)
    monkeypatch.setattr(operators, "_fft_sized", lambda n: False)
    dense = build_fractional_laplacian_torus(256, 0.5)
    assert (fft.transform, dense.transform) == ("fft", "dense")
    u0 = random_field(fft, np.random.default_rng(1))
    a, b = (solve_regularized_path(op, psi, model, path, cfg, 0.5, u0) for op in (fft, dense))
    assert np.abs(a.states - b.states).max() <= cfg.inner_tolerance
    assert np.abs(a.left_states - b.left_states).max() <= cfg.inner_tolerance


def test_march_targets_the_per_substep_budget(torus_small, initial_small, monkeypatch):
    # a jump at 0.3 splits the base step [0.25, 0.375] of h = T / 8, so the
    # substeps have three different dt; each solve must target exactly
    # inner_tolerance * min(1, dt / (2 T))
    horizon = 1.0
    cfg = StepConfig(h=horizon / 8, epsilon=0.1, lam=0.05)
    path = NoisePath(np.array([0.3]), np.array([0]), 0, horizon)
    grid, _ = time_grid(cfg.h, horizon, path)
    calls = []
    solve_rows = stepper._solve_rows

    def recording(op, psi, params, b, dt, target, counters):
        calls.append((dt.copy(), target.copy()))
        return solve_rows(op, psi, params, b, dt, target, counters)

    monkeypatch.setattr(stepper, "_solve_rows", recording)
    for _ in march(torus_small, make_psi("soft_monotone"), multiplicative_model(), [path],
                   [grid], [cfg], horizon, initial_small, SolverCounters()):
        pass
    assert len(calls) == grid.size - 1
    assert np.unique(np.round([dt[0] for dt, _ in calls], 12)).size == 3
    for dt, target in calls:
        assert np.array_equal(target, cfg.inner_tolerance * np.minimum(1.0, dt / (2.0 * horizon)))


def test_solver_counters(torus_small, initial_small):
    traj = _small_trajectory(torus_small, initial_small)
    summary = traj.counters.summary()
    assert summary["implicit_steps"] == traj.times.size - 1
    assert summary["inner_iterations_max"] == traj.metadata["max_inner_iterations_used"]
    assert 1 <= summary["inner_iterations_mean"] <= summary["inner_iterations_p99"]
    assert summary["inner_iterations_p99"] <= summary["inner_iterations_max"]
    assert summary["residual_budget_misses"] >= 0
    assert 0.0 < summary["observed_contraction_p50"] <= summary["observed_contraction_max"] < 1.0
    assert summary["apriori_contraction_factor"] == traj.metadata["contraction_factor"]
    # the summary lands in report.json: plain Python numbers only
    counts = SolverCounters(
        [np.array([3, 9]), np.array([4])], [np.array([0.5, 0.25]), np.array([0.125])],
        np.int64(1), np.float64(0.75),
    )
    assert json.loads(json.dumps(counts.summary())) == {
        "implicit_steps": 3, "inner_iterations_mean": 16 / 3, "inner_iterations_p99": 8.9,
        "inner_iterations_max": 9, "residual_budget_misses": 1,
        "observed_contraction_p50": 0.25, "observed_contraction_max": 0.5,
        "apriori_contraction_factor": 0.75,
    }


@pytest.mark.parametrize("size", [1, 2, 3, 50, 101, 867, 4000])
def test_summary_quantiles_are_numpys(size):
    # the p99 and the median are numpy's bit for bit (numpy's own calls would
    # import numpy.ma), on odd and even counts and on both sides of the
    # interpolation's t = 1/2
    rng = np.random.default_rng(size)
    for _ in range(20):
        counts, rates = rng.integers(1, 90, size), rng.random(size) ** 3
        summary = SolverCounters([counts], [rates]).summary()
        assert summary["inner_iterations_p99"] == np.percentile(counts, 99)
        assert summary["observed_contraction_p50"] == np.median(rates)
