"""End-to-end acceptance runs at the contract tolerances and budgets.

Each test covers one shipped guarantee, prints a single visible PASS/FAIL
line with the measured quantities, and asserts at exactly the advertised
tolerance.  Budgets are wall-clock seconds, enforced with perf_counter.
"""
import time
from pathlib import Path

import numpy as np
import pytest

from levypme import cascade
from levypme.cascade import (
    apriori_study,
    eps_cauchy_study,
    lambda_cauchy_study,
    uniqueness_check,
)
from levypme.cli import main
from levypme.noise import audit_h2_h3, sample_noise_path
from levypme.nonlinearity import make_psi, verify_psi_inequalities
from levypme.operators import build_fractional_laplacian_torus, smooth_field
from levypme.scenario import build_plan, load_scenario
from levypme.spaces import F12_star, F_STAR, L2, norm, squared_norm_rows
from levypme.stepper import StepConfig, solve_regularized_path
from levypme.variational import check_variational_conditions

from conftest import additive_model, multiplicative_model, zero_model

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture(scope="session")
def acceptance_plan():
    return build_plan(load_scenario(SCENARIO_DIR / "acceptance.scn"))


def _announce(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_operator_calculus(capsys):
    start = time.perf_counter()
    op = build_fractional_laplacian_torus(64, 0.5)
    assert op.mode_count == 129
    rng = np.random.default_rng(202601)
    rows = rng.standard_normal((1000, op.mode_count))

    base = squared_norm_rows(op, rows, F_STAR)
    worst_sandwich = 0.0
    for epsilon in (0.01, 0.1, 0.5):
        scaled = squared_norm_rows(op, rows, F12_star(epsilon))
        worst_sandwich = max(
            worst_sandwich,
            float((base - scaled).max()),
            float((scaled - base / epsilon).max()),
        )
    elapsed = time.perf_counter() - start

    ok = worst_sandwich <= 1e-10 and elapsed < 10.0
    _announce(
        capsys, 1, ok,
        f"F12_star(eps) sandwich slack {worst_sandwich:.2e} <= 1e-10 (eps in 0.01/0.1/0.5, "
        f"1000 fields, 129 modes); {elapsed:.1f}s < 10s",
    )
    assert worst_sandwich <= 1e-10
    assert elapsed < 10.0


def test_criterion_2_hypothesis_audits(capsys, torus_small):
    start = time.perf_counter()
    psis = [
        make_psi("identity"),
        make_psi("scaled_linear", scale=2.0),
        make_psi("saturating", cap=1.0),
        make_psi("soft_monotone"),
        make_psi("zero"),
    ]
    models = {
        "zero": zero_model(),
        "additive": additive_model(torus_small),
        "multiplicative": multiplicative_model(),
    }
    violations = 0
    checked = 0
    for psi in psis:
        conditions = verify_psi_inequalities(psi, sample_count=20_000)
        violations += sum(c.violation_count for c in conditions)
        checked += conditions[0].checked
    for model in models.values():
        conditions, _ = audit_h2_h3(torus_small, model, sample_count=2_000)
        violations += sum(c.violation_count for c in conditions)
        checked += conditions[0].checked
    for psi in psis:
        for model in models.values():
            for epsilon in (0.01, 0.1, 0.5):
                conditions, _ = check_variational_conditions(
                    torus_small, psi, model, epsilon, sample_count=10_000
                )
                for cond in conditions:
                    violations += cond.violation_count
                    checked += cond.checked
    elapsed = time.perf_counter() - start

    ok = violations == 0 and elapsed < 60.0
    _announce(
        capsys, 2, ok,
        f"0 violations required, saw {violations}; {checked} sampled inequalities over "
        f"5 psi kinds x 3 noise kinds x eps in 0.01/0.1/0.5; {elapsed:.1f}s < 60s",
    )
    assert violations == 0
    assert elapsed < 60.0


def test_criterion_3_deterministic_oracles(capsys):
    op = build_fractional_laplacian_torus(32, 0.5)
    initial = smooth_field(op, 1.0)
    epsilon, lam, horizon = 0.2, 0.1, 1.0

    kappa = (epsilon + op.eigenvalues) * (1.0 + lam)
    exact = initial * np.exp(-kappa * horizon)
    errors = []
    steps = [2.0**-p for p in range(4, 10)]
    for h in steps:
        cfg = StepConfig(h=h, epsilon=epsilon, lam=lam)
        path = sample_noise_path(zero_model(), horizon, 0)
        traj = solve_regularized_path(
            op, make_psi("identity"), zero_model(), path, cfg, horizon, initial
        )
        errors.append(norm(op, traj.states[-1] - exact, L2))
    order = float(np.polyfit(np.log(steps), np.log(errors), 1)[0])

    model = additive_model(op)
    cfg = StepConfig(h=2.0**-5, epsilon=epsilon, lam=0.0)
    path = sample_noise_path(model, horizon, 314)
    traj = solve_regularized_path(op, make_psi("zero"), model, path, cfg, horizon, initial)
    comp = model.compensator_rate(op, initial)
    fields = model.fields
    jump_gap = 0.0
    for i, t in enumerate(traj.times):
        upto = path.times <= t + 1e-15
        exact_right = initial + fields[path.mark_indices[upto]].sum(axis=0) - t * comp
        jump_gap = max(jump_gap, float(np.abs(traj.states[i] - exact_right).max()))

    ok = abs(order - 1.0) <= 0.15 and jump_gap <= 1e-10
    _announce(
        capsys, 3, ok,
        f"semigroup decay observed order {order:.4f} within 1.0 +- 0.15 "
        f"(h = 2^-4..2^-9); pure-jump worst gap {jump_gap:.2e} <= 1e-10",
    )
    assert abs(order - 1.0) <= 0.15
    assert jump_gap <= 1e-10


def test_criterion_4_lambda_cauchy(capsys, acceptance_plan):
    plan = acceptance_plan
    assert plan.op.mode_count == 65
    assert plan.paths == 64
    assert plan.horizon == 1.0
    assert plan.lambda_ladder == (0.2, 0.1, 0.05, 0.025)

    start = time.perf_counter()
    report = lambda_cauchy_study(plan)
    elapsed = time.perf_counter() - start
    fit = report.slope

    ok = report.passed and fit.significant and fit.slope >= 0.7 and elapsed < 300.0
    _announce(
        capsys, 4, ok,
        f"E[sup||X_lam - X_lam'||^2] ~ (lam+lam')^{fit.slope:.3f}, "
        f"95% CI [{fit.ci_low:.3f}, {fit.ci_high:.3f}] >= 0.7 floor; 64 coupled paths, "
        f"65 modes; {elapsed:.1f}s < 300s",
    )
    assert fit.significant
    assert fit.slope >= 0.7
    assert report.passed, report.failures()
    assert elapsed < 300.0


def test_criterion_5_eps_cauchy(capsys, acceptance_plan):
    plan = acceptance_plan
    assert plan.epsilon_ladder == (0.2, 0.1, 0.05, 0.025)

    start = time.perf_counter()
    report = eps_cauchy_study(plan)
    elapsed = time.perf_counter() - start
    fit = report.slope

    ok = report.passed and fit.significant and fit.slope >= 0.7 and elapsed < 300.0
    _announce(
        capsys, 5, ok,
        f"E[sup||X_eps - X_eps'||^2] ~ (eps+eps')^{fit.slope:.3f}, "
        f"95% CI [{fit.ci_low:.3f}, {fit.ci_high:.3f}] >= 0.7 floor at lam = "
        f"{plan.lambda_ladder[-1]}; {elapsed:.1f}s < 300s",
    )
    assert fit.significant
    assert fit.slope >= 0.7
    assert report.passed, report.failures()
    assert elapsed < 300.0


def test_criterion_6_apriori_bound(capsys, acceptance_plan):
    plan = acceptance_plan
    report = apriori_study(plan)

    cells = report.extra["cells"]
    lhs_max = max(c["lhs"] for c in cells)
    bound = cells[0]["bound"]
    uniform = next(c for c in report.checks if c.name == "uniform_in_lambda")
    cell_table = next(t for t in report.tables if t.name == "apriori_cells")

    ok = report.passed and "mean_integral_f12" in cell_table.columns
    _announce(
        capsys, 6, ok,
        f"E[sup|X|_2^2] + 4 lam eps E[int ||X||_F12^2] <= {bound:.4f} along the lam "
        f"ladder (max lhs {lhs_max:.4f}); uniform in lam: {uniform.passed}",
    )
    assert report.passed, report.failures()
    assert "mean_integral_f12" in cell_table.columns
    assert all(c["slack"] > 0 for c in cells)


def test_criterion_7_uniqueness(capsys, acceptance_plan):
    plan = acceptance_plan
    report = uniqueness_check(plan)
    gap = report.extra["sup_config_gap"]
    rate = report.extra["envelope_rate"]
    cap = report.extra["rate_cap"]
    tolerance = 10.0 * plan.inner_tolerance

    ok = report.passed and gap <= tolerance and rate <= cap
    _announce(
        capsys, 7, ok,
        f"solver-config sup gap {gap:.2e} <= {tolerance:.0e} (10x inner tolerance); "
        f"perturbation growth rate net of the accrued jump budget {rate:.3f} "
        f"<= headroom {cap:.0e}",
    )
    assert gap <= tolerance
    assert rate <= cap
    assert report.passed, report.failures()


def test_criterion_8_determinism(capsys, tmp_path):
    scenario = str(SCENARIO_DIR / "multiplicative_small.scn")
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    code1 = main(["lambda-study", "--scenario", scenario, "--out", str(out1)])
    # drop the kept ensemble, so the second run marches too
    cascade._ENSEMBLES.clear()
    code2 = main(["lambda-study", "--scenario", scenario, "--out", str(out2)])

    names = ("report.json", "lambda_cauchy_pairs.csv", "lambda_cauchy_moments.csv",
             "scenario.txt")
    identical = all((out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names)

    ok = code1 == 0 and code2 == 0 and identical
    _announce(
        capsys, 8, ok,
        f"two runs with the same master seed: report + tables byte-identical = "
        f"{identical} (exit codes {code1}/{code2})",
    )
    assert code1 == 0 and code2 == 0
    assert identical
