"""Cascade studies: coupled-pair oracles, slope fits, moment bounds.

The one-mode oracle: with zero noise and psi = identity each cell's grid
recursion is X_i = x * prod 1/(1 + h (eps + mu)(1 + lam)), so the coupled
pair moment E[sup ||X_lam - X_lam'||^2] is computable in closed form and the
study must reproduce it exactly.
"""
import math
import os
import signal
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from levypme import cascade, cli, parallel
from levypme.cascade import (
    CHUNK_ROWS,
    DAVIS_CONSTANT,
    PERTURBATION_RATE_HEADROOM,
    StudyPlan,
    _excess_growth_rate,
    _fit_log_slope,
    _moment_constants,
    _run_cells,
    apriori_study,
    constants_used,
    eps_cauchy_study,
    lambda_cauchy_study,
    uniqueness_check,
)
from levypme.noise import path_seed, sample_noise_path
from levypme.nonlinearity import make_psi
from levypme.operators import build_fractional_laplacian_torus, smooth_field
from levypme.scenario import build_plan, load_scenario, scenario_hash, serialize_scenario
from levypme.spaces import F12, F12_star, L2, norm, squared_norm_rows
from levypme.stepper import StepperConvergenceError, march, solve_regularized_path
from levypme.variational import monotonicity_shift, theta

from conftest import additive_model, multiplicative_model, spectrum_from_eigenvalues, zero_model

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SMALL = SCENARIO_DIR / "multiplicative_small.scn"
ACCEPTANCE = SCENARIO_DIR / "acceptance.scn"


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
    out, _ = _run_cells(plan, ((0.2, 0.1), (0.2, 0.1)))
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
    # two pairs cannot certify a slope: the fit is reported, and no rate check
    # is written, so none passes without having gated
    assert not report.slope.significant
    assert "cauchy_rate" not in {c.name for c in report.checks}
    assert "moment_gronwall_rate" in report.constants_used
    assert report.parameters["ladder_param"] == "lam"


def test_eps_study_runs_at_smallest_lambda(torus_small):
    plan = _plan(torus_small)
    report = eps_cauchy_study(plan)
    assert report.kind == "eps_cauchy"
    assert report.parameters["lam"] == plan.lambda_ladder[-1]
    assert [p.param_hi for p in report.pairs] == [0.2, 0.1]
    assert report.passed


def test_slopes_move_little_when_step_halves():
    """Halving ``step_size`` moves the lambda and eps slopes by less than 0.05.

    The bound is a third of the smallest margin of a shipped slope above the
    0.7 floor (eps on multiplicative_small.scn, 0.85 - 0.7 = 0.15), fixed
    before any shift was measured: a grid-made rate of that size could move
    a verdict.  The slopes' CIs do not measure this part, nor yet the
    sampling spread (ROADMAP item 2); this test bounds the part of the slope
    that belongs to the grid.
    """
    for name in ("multiplicative_small.scn", "additive_saturating.scn"):
        plan = build_plan(load_scenario(SCENARIO_DIR / name))
        halved = replace(plan, step_size=plan.step_size / 2)
        for study in (lambda_cauchy_study, eps_cauchy_study):
            coarse, fine = study(plan).slope.slope, study(halved).slope.slope
            assert abs(coarse - fine) < 0.05, (name, study.__name__, coarse, fine)


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
    rate, offset, floor = _moment_constants(plan)
    assert rate == pytest.approx(42.0 * 0.0225, rel=1e-15)
    assert offset == rate * plan.horizon
    assert floor == 2.0 * norm(torus_small, plan.initial, L2) ** 2
    assert _moment_constants(_plan(torus_small, noise=zero_model()))[0] == 0.0


def test_constants_used_layout(torus_small):
    # every report's record of the finest cell's constants, built in one place
    plan = _plan(torus_small, psi=make_psi("soft_monotone"))
    epsilon, lam = plan.finest_cell
    rec = constants_used(plan)
    assert set(rec) == {
        "lipschitz_k", "alpha_tilde", "h2_constant", "h3_constant",
        "theta", "monotonicity_shift", "coercivity_c",
        "moment_gronwall_rate", "moment_gronwall_offset", "davis_constant",
        "lam", "epsilon",
    }
    shift = rec["monotonicity_shift"]
    assert shift.value == monotonicity_shift(
        plan.psi, epsilon, plan.noise.h3_closed_form(torus_small)
    )
    assert "alpha_tilde" in shift.formula
    assert rec["theta"].value == theta(plan.psi, epsilon)
    assert (rec["epsilon"].value, rec["lam"].value) == (epsilon, lam)
    rate, offset, _ = _moment_constants(plan)
    assert (rec["moment_gronwall_rate"].value, rec["moment_gronwall_offset"].value) == (
        rate, offset,
    )
    # coercivity row disappears when psi does not certify one
    rec_zero = constants_used(_plan(torus_small, psi=make_psi("zero")))
    assert set(rec) - set(rec_zero) == {"coercivity_c"}


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


def test_apriori_lhs_matches_linear_recursion():
    # linear_decay.scn: zero noise and psi = identity, so every path follows
    # x_k(t_n) = x_k(0) prod 1/(1 + dt (eps + mu_k)(1 + lam)), the sup sits at
    # t = 0, and each cell's lhs is |x0|_2^2 + 4 lam eps times the trapezoid
    # of sum_k (1 + mu_k) x_k(t)^2.
    plan = build_plan(load_scenario(SCENARIO_DIR / "linear_decay.scn"))
    report = apriori_study(plan)
    epsilon = plan.finest_cell[0]
    mu, x0, h = plan.op.eigenvalues, plan.initial, plan.step_size
    steps = int(round(plan.horizon / h))
    table = next(t for t in report.tables if t.name == "apriori_cells")
    lhs = {row[0]: row[table.columns.index("lhs")] for row in table.rows}
    assert set(lhs) == set(plan.lambda_ladder)
    for lam in plan.lambda_ladder:
        factor = 1.0 / (1.0 + h * (epsilon + mu) * (1.0 + lam))
        states = x0 * factor ** np.arange(steps + 1)[:, None]
        f12 = ((1.0 + mu) * states**2).sum(axis=1)
        energy = 0.5 * h * (f12[:-1] + f12[1:]).sum()
        expected = (x0**2).sum() + 4.0 * lam * epsilon * energy
        assert lhs[lam] == pytest.approx(expected, rel=1e-8, abs=0)


def test_apriori_study_full(torus_small):
    plan = _plan(torus_small, paths=6)
    report = apriori_study(plan)
    assert report.passed, report.failures()
    assert {t.name for t in report.tables} == {"apriori_cells"}
    assert len(report.extra["cells"]) == len(plan.lambda_ladder)
    names = [c.name for c in report.checks]
    assert "uniform_in_lambda" in names
    assert sum(n.startswith("derived_bound") for n in names) == len(plan.lambda_ladder)


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


def test_uniqueness_config_gap_includes_left_limits(torus_small, monkeypatch):
    # a gap planted only in config b's left limit at one time, where no jump
    # moves the right value, must reach the config gap and fail its check
    delta, planted_at = 1e-6, 3

    def left_gap(*args):
        for i, active, left, right in march(*args):
            if i == planted_at:
                left = left.copy()
                left[1, 1] += delta
            yield i, active, left, right

    monkeypatch.setattr(cascade, "march", left_gap)
    plan = _plan(torus_small)
    report = uniqueness_check(plan)
    epsilon, _ = plan.finest_cell
    expected = delta / math.sqrt(epsilon + torus_small.eigenvalues[1])
    assert report.extra["sup_config_gap"] == pytest.approx(expected, rel=1e-4)
    check = next(c for c in report.checks if c.name == "solver_config_independent")
    assert not check.passed


def _three_chunks(op):
    """A plan and 3 cells: 21 paths per chunk, so 45 paths span 3 chunks,
    the last partial."""
    plan = _plan(op, paths=45,
                 noise=multiplicative_model(sigmas=(0.3, -0.2), intensities=(4.0, 2.0)))
    cells = ((0.2, 0.1), (0.1, 0.1), (0.05, 0.05))
    assert plan.paths > 2 * (CHUNK_ROWS // len(cells))
    return plan, cells


def test_chunk_reductions_match_trajectory_formulas(torus_small):
    # the chunked run reduces norms on the fly; the stored-trajectory
    # formulas of Trajectory are the reference.  Paths 0, 19-22 and 44 are
    # the first path, both sides of the first chunk boundary and the last
    # path, in the partial chunk.
    plan, cells = _three_chunks(torus_small)
    out, _ = _run_cells(plan, cells)
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
        for c, (a, b) in enumerate(zip(trajs, trajs[1:])):
            kind = F12_star(max(cells[c][0], cells[c + 1][0]))
            pair = max(squared_norm_rows(plan.op, a.states - b.states, kind).max(),
                       squared_norm_rows(plan.op, a.left_states - b.left_states, kind).max())
            assert out["pair_sup_fstar_sq"][index, c] == pytest.approx(pair, rel=1e-12)
    assert out["solver"]["implicit_steps"] > 0


def _diagonal_reference(plan, cells, index):
    """Path ``index``'s sup of the squared L2 norm and trapezoid of the
    squared F12 norm under each cell, the sup of each adjacent pair's squared
    F12_star gap, and its jump count, from the scheme's diagonal recursion.

    psi(u) = s u makes every step one division per mode: with kappa =
    (eps + mu)(s + lam), x <- (x - dt sum_j nu_j (a_j + s_j x)) / (1 + dt
    kappa), and a jump of mark j then adds a_j + s_j x.  The grid is the
    uniform one joined with the path's jump times.  No inner solve, transform
    or BLAS call is involved, and no code is shared with the march.
    """
    mu, slope, noise = plan.op.eigenvalues, plan.psi.linear_slope, plan.noise
    path = sample_noise_path(noise, plan.horizon, path_seed(plan.master_seed, index))
    steps = int(np.ceil(plan.horizon / plan.step_size - 1e-12))
    base = np.minimum(np.arange(steps + 1) * plan.step_size, plan.horizon)
    base[-1] = plan.horizon
    grid = np.union1d(base, path.times)
    marks_at = dict(zip(np.searchsorted(grid, path.times).tolist(), path.mark_indices.tolist()))
    fields = np.broadcast_to(noise.fields, (noise.intensities.size, mu.size))
    epsilon, lam = (np.array(values)[:, None] for values in zip(*cells))
    kappa = (epsilon + mu) * (slope + lam)
    x = np.tile(plan.initial, (len(cells), 1))
    right, left = [x], [x]
    for i in range(1, grid.size):
        dt = grid[i] - grid[i - 1]
        rate = sum(nu * (a + s * x) for nu, a, s in zip(noise.intensities, fields, noise.sigmas))
        x = (x - dt * rate) / (1.0 + dt * kappa)
        left.append(x)
        if i in marks_at:
            x = x + fields[marks_at[i]] + noise.sigmas[marks_at[i]] * x
        right.append(x)
    right, left = np.array(right), np.array(left)  # [grid row, cell, mode]

    def sup_and_trapezoid(weight, states_of):
        r, l = ((states_of(s) ** 2 * weight).sum(-1) for s in (right, left))
        return np.maximum(r, l).max(0), (0.5 * np.diff(grid)[:, None] * (r[:-1] + l[1:])).sum(0)

    pair_weight = 1.0 / (np.maximum(epsilon[:-1], epsilon[1:]) + mu)
    return (sup_and_trapezoid(1.0, lambda s: s)[0],
            sup_and_trapezoid(1.0 + mu, lambda s: s)[1],
            sup_and_trapezoid(pair_weight, lambda s: s[:, :-1] - s[:, 1:])[0],
            len(marks_at))


@pytest.mark.parametrize("noise", ["multiplicative", "additive"])
@pytest.mark.parametrize("psi", [make_psi("identity"), make_psi("scaled_linear", scale=2.7)],
                         ids=["identity", "scaled_linear"])
@pytest.mark.parametrize("half_modes, paths", [(16, 24), (128, 8)], ids=["33modes", "257modes"])
def test_march_is_the_diagonal_recursion_for_a_linear_psi(half_modes, paths, psi, noise):
    """The march of a linear psi with jumps, on both 4-rung ladders, against
    :func:`_diagonal_reference` on each path's own grid and jumps.  At 33
    modes 24 paths are 2 chunks of 16 and 8 paths; at 257 modes 8 paths are
    2 halves of 4.  Either way the chunks are dealt to the usable CPUs.

    The tolerances are 1e-12 relative on the norms and 1e-9 on the pair
    gaps.  A norm sums positive terms of two states that
    each side computes to a few ulps: the worst error seen is 6.4e-15.  A pair
    gap is the squared norm of the difference of two nearly equal states, a
    rung apart, so each state's last-bit error is amplified by
    |X| / |X - X'|: the worst error seen is 9.6e-12, on the lambda ladder of
    scaled_linear 2.7, where a rung moves kappa by only 1-4%.
    """
    op = build_fractional_laplacian_torus(half_modes, 0.5)
    model = multiplicative_model() if noise == "multiplicative" else additive_model(op)
    ladder = (0.2, 0.1, 0.05, 0.025)
    plan = _plan(op, psi=psi, noise=model, paths=paths, lambda_ladder=ladder,
                 epsilon_ladder=ladder)
    epsilon, lam = plan.finest_cell
    for cells in ([(epsilon, v) for v in ladder], [(v, lam) for v in ladder]):
        out, run = cascade._march_cells(plan, cells)
        assert run["march_chunks"] == 2
        jumps = 0
        for index in range(paths):
            sup_l2, integral_f12, pair_sup, path_jumps = _diagonal_reference(plan, cells, index)
            jumps += path_jumps
            assert out["sup_l2_sq"][index] == pytest.approx(sup_l2, rel=1e-12, abs=0)
            assert out["integral_f12"][index] == pytest.approx(integral_f12, rel=1e-12, abs=0)
            assert out["pair_sup_fstar_sq"][index] == pytest.approx(pair_sup, rel=1e-9, abs=0)
        assert jumps > paths


def _usable_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _assert_same_ensemble(a, b):
    assert a.keys() == b.keys()
    for key, value in a.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, b[key]), key
    assert a["solver"] == b["solver"]


def test_split_changes_no_bit(torus_small, monkeypatch):
    # three usable CPUs give each of the three chunks its own process; on
    # one, this process marches them all.  The chunks are the same either
    # way, and so are the bits.
    plan, cells = _three_chunks(torus_small)
    _usable_cpus(monkeypatch, 3)
    split, split_run = _run_cells(plan, cells)
    _usable_cpus(monkeypatch, 1)
    alone, alone_run = _run_cells(plan, cells)
    assert split_run == {"ensemble": "marched", "march_workers": 3, "march_chunks": 3}
    assert alone_run == {**split_run, "march_workers": 1}
    _assert_same_ensemble(split, alone)


def test_wide_transforms_march_on_every_cpu(monkeypatch):
    # 63 rows of 93 modes, a gemm OpenBLAS would thread (M N K >= 2**19);
    # pinned to one thread it leaves the cores to the processes, so the two
    # chunks march on two of them, bit for bit as on one
    op = build_fractional_laplacian_torus(46, 0.5)
    plan, cells = _three_chunks(op)
    plan = replace(plan, paths=22)  # two chunks
    assert 21 * len(cells) * op.basis.size >= 2**19
    _usable_cpus(monkeypatch, 3)
    split, split_run = _run_cells(plan, cells)
    _usable_cpus(monkeypatch, 1)
    alone, alone_run = _run_cells(plan, cells)
    assert (split_run["march_workers"], alone_run["march_workers"]) == (2, 1)
    _assert_same_ensemble(split, alone)


def test_unpinned_blas_marches_in_one_process(torus_small, monkeypatch):
    # with no OpenBLAS found, BLAS keeps its own threads, so the chunks stay
    # in this process whatever the CPU count; the bits are the split run's
    plan, cells = _three_chunks(torus_small)
    _usable_cpus(monkeypatch, 3)
    split, split_run = _run_cells(plan, cells)
    monkeypatch.setattr(parallel, "_loaded_openblas", lambda: [])
    alone, alone_run = _run_cells(plan, cells)
    assert (split_run["march_workers"], alone_run["march_workers"]) == (3, 1)
    _assert_same_ensemble(split, alone)


def test_worker_failure_reaches_the_caller(torus_small, monkeypatch, tmp_path, capsys):
    # chunks 1 and 2 fail.  On 3 CPUs both belong to children; on 2 chunk 2
    # is this process's own and chunk 1 a child's.  Either way the caller
    # gets chunk 1's error, as from the plain loop, and no child is left.
    def plant(plan, failing):
        seeds = {path_seed(plan.master_seed, first): first for first in failing}

        def planted(op, psi, model, paths, *rest):
            if paths[0].seed in seeds:
                raise StepperConvergenceError(f"planted failure at path {seeds[paths[0].seed]}")
            return march(op, psi, model, paths, *rest)

        monkeypatch.setattr(cascade, "march", planted)

    plan, cells = _three_chunks(torus_small)
    per_chunk = CHUNK_ROWS // len(cells)
    plant(plan, (per_chunk, 2 * per_chunk))
    for cpus in (3, 2, 1):
        _usable_cpus(monkeypatch, cpus)
        with pytest.raises(StepperConvergenceError, match=f"^planted failure at path {per_chunk}$"):
            _run_cells(plan, cells)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    # through the CLI: acceptance.scn marches 4 chunks of 16 paths; on 2
    # CPUs chunk 1 is a child's and chunk 2 this process's own
    plant(build_plan(load_scenario(ACCEPTANCE)), (16, 32))
    _usable_cpus(monkeypatch, 2)
    assert cli.main(["lambda-study", "--scenario", str(ACCEPTANCE), "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == "numerical failure: planted failure at path 16\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _dealt_items(monkeypatch):
    """The items of every cascade.deal call from here on, one list a call."""
    seen = []

    def recording(work, items):
        seen.append(list(items))
        return parallel.deal(work, items)

    monkeypatch.setattr(cascade, "deal", recording)
    return seen


def test_chunk_bounds_gate_at_128_modes():
    # CHUNK_ROWS // cells paths a chunk, the rest in the last; from 128 modes
    # on, paths that fit one chunk are split into two halves
    assert cascade._chunk_bounds(127, 16, 3) == [(0, 16)]
    assert cascade._chunk_bounds(127, 45, 3) == [(0, 21), (21, 42), (42, 45)]
    assert cascade._chunk_bounds(129, 16, 3) == [(0, 8), (8, 16)]
    assert cascade._chunk_bounds(129, 21, 3) == [(0, 11), (11, 21)]
    assert cascade._chunk_bounds(129, 45, 3) == [(0, 21), (21, 42), (42, 45)]
    assert cascade._chunk_bounds(513, 64, 4) == [(k, k + 16) for k in range(0, 64, 16)]
    assert cascade._chunk_bounds(257, 3, 40) == [(0, 1), (1, 2), (2, 3)]
    assert cascade._chunk_bounds(257, 1, 3) == [(0, 1)]


@pytest.mark.parametrize("scenario, chunks", [
    (ACCEPTANCE, [(0, 16), (16, 32), (32, 48), (48, 64)]),
    (SCENARIO_DIR / "additive_saturating.scn", [(0, 16)]),
    (SMALL, [(0, 16)]),
])
def test_chunks_below_128_modes_are_unchanged(scenario, chunks, monkeypatch):
    # acceptance.scn (65 modes, 64 paths x 4 cells) marches 4 chunks of 16
    # paths and each 17-mode ladder (16 paths) one chunk; a short horizon
    # keeps the march cheap and leaves the layout alone
    plan = build_plan(replace(load_scenario(scenario), horizon=0.0625, step_size=0.0625))
    assert plan.op.mode_count < cascade._HALVED_MODES
    seen = _dealt_items(monkeypatch)
    cells = [(plan.epsilon_ladder[-1], lam) for lam in plan.lambda_ladder]
    assert _run_cells(plan, cells)[1]["march_chunks"] == len(chunks)
    assert seen == [chunks]


def test_wide_ladder_marches_two_chunks_on_two_cpus(monkeypatch):
    # from 128 modes a 16-path ladder under 3 cells (48 rows) is 2 chunks of
    # 8 paths whatever the CPU count: on 2 CPUs they march in 2 processes, on
    # 1 in this one, bit for bit alike
    op = build_fractional_laplacian_torus(64, 0.5)
    assert op.mode_count >= cascade._HALVED_MODES
    plan = _plan(op, paths=16, horizon=0.125)
    cells = ((0.2, 0.1), (0.1, 0.1), (0.05, 0.05))
    seen = _dealt_items(monkeypatch)
    _usable_cpus(monkeypatch, 2)
    split, split_run = _run_cells(plan, cells)
    _usable_cpus(monkeypatch, 1)
    alone, alone_run = _run_cells(plan, cells)
    assert seen == [[(0, 8), (8, 16)]] * 2
    assert split_run == {"ensemble": "marched", "march_workers": 2, "march_chunks": 2}
    assert alone_run["march_workers"] == 1
    _assert_same_ensemble(split, alone)


def test_dead_worker_is_named(tmp_path, monkeypatch, capsys):
    # the child marching acceptance.scn's chunk 1 on 2 CPUs is killed: the
    # CLI exits 3 naming the signal and the chunk, and no child is left
    scenario = replace(load_scenario(ACCEPTANCE), horizon=0.0625, step_size=0.0625)
    scn = tmp_path / "short.scn"
    scn.write_text(serialize_scenario(scenario))
    doomed, parent = path_seed(scenario.master_seed, 16), os.getpid()

    def killed(op, psi, model, paths, *rest):
        if paths[0].seed == doomed and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return march(op, psi, model, paths, *rest)

    monkeypatch.setattr(cascade, "march", killed)
    _usable_cpus(monkeypatch, 2)
    assert cli.main(["lambda-study", "--scenario", str(scn), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == (
        "internal error: WorkerError: a worker process was killed by SIGKILL at item (16, 32)\n"
    )
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


def _uniqueness_at(seed):
    plan = build_plan(replace(load_scenario(ACCEPTANCE), master_seed=seed))
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
    plan = build_plan(replace(load_scenario(ACCEPTANCE), master_seed=649757350))
    path = sample_noise_path(plan.noise, plan.horizon, path_seed(plan.master_seed, 0))
    budget = plan.noise.gap_log_budget(path, times)
    assert budget[-1] == pytest.approx(report.extra["jump_budget"], rel=1e-15)
    honest = _excess_growth_rate(times, gaps, gaps[0], budget)
    assert honest <= PERTURBATION_RATE_HEADROOM
    inflated = np.where(times > 0, 1e3 * gaps, gaps)
    assert _excess_growth_rate(times, inflated, gaps[0], budget) > PERTURBATION_RATE_HEADROOM


def test_only_fingerprinted_plans_reuse_ensembles(march_steps):
    plan = build_plan(load_scenario(SMALL))

    def marched(study, study_plan):
        march_steps.clear()
        report = study(study_plan)
        assert report.run["ensemble"] == ("marched" if march_steps else "reused")
        return len(march_steps)

    assert plan.fingerprint == scenario_hash(load_scenario(SMALL))
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
    reseeded = build_plan(replace(load_scenario(SMALL), master_seed=plan.master_seed + 1))
    assert reseeded.fingerprint != plan.fingerprint
    assert marched(lambda_cauchy_study, reseeded) > 0
    assert marched(apriori_study, reseeded) == 0
    assert marched(apriori_study, plan) > 0


def test_kept_ensemble_is_read_only():
    # a study that writes into its samples raises instead of corrupting the
    # next study's
    plan = build_plan(load_scenario(SMALL))
    cells = [(plan.epsilon_ladder[-1], lam) for lam in plan.lambda_ladder]
    first, first_run = _run_cells(plan, cells)
    arrays = {k: v for k, v in first.items() if isinstance(v, np.ndarray)}
    assert set(arrays) == {"sup_l2_sq", "integral_f12", "pair_sup_fstar_sq"}
    assert set(first) == {*arrays, "solver"}  # how it ran is the second result
    kept = {k: v.copy() for k, v in arrays.items()}
    for value in arrays.values():
        with pytest.raises(ValueError, match="read-only"):
            value[...] = 0.0
    again, again_run = _run_cells(plan, cells)
    assert (first_run["ensemble"], again_run) == ("marched", {"ensemble": "reused"})
    assert again.keys() == first.keys()
    for name, value in kept.items():
        assert np.array_equal(again[name], value)
