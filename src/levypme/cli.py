"""Command-line entry point.

Subcommands map one-to-one onto the studies of the :data:`STUDIES` table:

- ``simulate``       one path; exports the trajectory and the jump skeleton;
                     for zero noise and a linear nonlinearity the run is gated
                     against the exact diagonal recursion and the continuum
                     flow.
- ``inequalities``   pointwise, variational and noise-hypothesis audits.
- ``lambda-study``   coupled Cauchy contraction along the lambda ladder.
- ``eps-study``      coupled Cauchy contraction along the epsilon ladder.
- ``apriori``        moment bound and its uniformity in lambda.
- ``uniqueness``     solver-configuration independence + perturbation decay.

Every subcommand takes only ``--scenario`` and ``--out``: the scenario file
is the run's whole configuration, so the ``scenario.txt`` a run writes
reproduces it.  Every study takes only the plan and runs at
``plan.finest_cell``, the cell every report's ``constants_used`` belongs to.

Exit codes: 0 all checks passed or none applies, 1 a check failed (reports
are still written), 2 usage, path or scenario errors (an unreadable scenario
file or an ``--out`` that cannot be a directory, both found before the study
runs, or a :class:`levypme.cascade.StudyPlanError`), 3 numerical or internal
failure (inner iteration did not converge, or any other error).

Every run writes ``report.json``, one CSV per table, ``scenario.txt`` (the
canonical scenario) and ``metadata.json``; ``simulate`` adds
``trajectory.csv`` and ``noise_path.csv``.  A study returns only its report,
and :meth:`levypme.reporting.StudyReport.write` writes every file but
``scenario.txt`` and ``metadata.json``, which :func:`main` adds; every JSON
file is :func:`levypme.reporting.json_text`'s.  Only the metadata carries a
timestamp and the environment (Python and numpy versions,
``OPENBLAS_NUM_THREADS``, ``"blas_pin"``: the OpenBLAS pinned to one thread,
CPU count), so reports and tables are byte-identical across reruns.  Since
:mod:`levypme.parallel` runs numpy's OpenBLAS on one thread whatever
``OPENBLAS_NUM_THREADS`` says, they are also identical across its values
(``"blas_pin": null`` records a BLAS that is not OpenBLAS and was left as
configured).  The rest is the report's ``run`` record, how the study ran.
``lambda-study``, ``eps-study`` and ``apriori`` say whether they marched their
ensemble or reused one an earlier study of the same plan marched in this
interpreter (``"ensemble": "marched"`` or ``"reused"``; ``"march_workers"``
processes marched its ``"march_chunks"`` chunks); ``inequalities`` records
``"audit_workers"``, the processes that drew and evaluated the audits' sample
blocks.  :func:`main` adds ``"child_cpu_s"``, the CPU time of the children
the study reaped, and ``"transform"``, how the plan's operator changes
representation: ``"dense"`` gemms against its basis or real ``"fft"``s
(:attr:`levypme.operators.OperatorSpectrum.transform`).
"""

from __future__ import annotations

import argparse
import functools
import os
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .cascade import (
    StudyPlanError,
    apriori_study,
    constants_used,
    eps_cauchy_study,
    lambda_cauchy_study,
    uniqueness_check,
)
from .noise import audit_h2_h3, export_noise_path, path_seed, sample_noise_path
from .nonlinearity import verify_psi_inequalities
from .parallel import pin_blas_threads
from .reporting import PropertyCheck, StudyReport, Table, json_text
from .scenario import (
    ScenarioError,
    build_plan,
    load_scenario,
    scenario_hash,
    serialize_scenario,
)
from .spaces import F_STAR, L2, norm
from .stepper import StepperConvergenceError, solve_regularized_path
from .variational import check_variational_conditions


# -- simulate ---------------------------------------------------------------------


def _linear_oracle_checks(plan, traj) -> list:
    """Exact gates available when the drift is diagonal: linear psi, and a
    zero H2 constant, so every jump the path takes is zero.

    The scheme then reduces mode-by-mode to x -> x / (1 + dt kappa_k); the
    trajectory must match that recursion to 1e-10 and stay within the provable
    one-sided distance of the continuum flow exp(-kappa_k t) x.  Per mode that
    distance, P - e^(-kappa T) with P = prod(1 + dt kappa)^-1, lies in [0, P],
    and log(1 + x) >= x - x^2/2 bounds it by e^(-kappa T) expm1(T h kappa^2 / 2)
    too; the bound takes the smaller.
    """
    epsilon, lam = plan.finest_cell
    slope = plan.psi.linear_slope
    kappa = (epsilon + plan.op.eigenvalues) * (slope + lam)
    dts = np.diff(traj.times)
    factors = 1.0 / (1.0 + dts[:, None] * kappa[None, :])
    decay = np.cumprod(factors, axis=0)
    oracle = plan.initial[None, :] * np.concatenate([np.ones((1, kappa.size)), decay])
    discrete_gap = float(np.sqrt(((traj.states - oracle) ** 2).sum(axis=1)).max())

    horizon = float(traj.times[-1])
    continuum = plan.initial * np.exp(-kappa * horizon)
    actual = float(np.sqrt(((traj.states[-1] - continuum) ** 2).sum()))
    # In log space, so a mode whose expm1 overflows reads inf, never 0 * inf.
    with np.errstate(over="ignore", divide="ignore"):
        expm1_bound = np.exp(
            np.log(np.expm1(0.5 * horizon * float(dts.max()) * kappa**2)) - kappa * horizon)
    per_mode = np.abs(plan.initial) * np.minimum(expm1_bound, decay[-1])
    bound = float(np.sqrt((per_mode**2).sum())) + 1e-12
    return [
        PropertyCheck(
            name="linear_recursion_oracle",
            passed=bool(discrete_gap <= 1e-10),
            detail=f"sup l2 gap to diagonal recursion {discrete_gap:.3e} <= 1e-10",
        ),
        PropertyCheck(
            name="continuum_flow_bound",
            passed=bool(actual <= bound),
            detail=(
                f"terminal gap to exp flow {actual:.3e} <= derived bound {bound:.3e}"
            ),
        ),
    ]


def _run_simulate(plan) -> StudyReport:
    epsilon, lam = plan.finest_cell
    noise_path = sample_noise_path(plan.noise, plan.horizon, path_seed(plan.master_seed, 0))
    config = plan.step_config(epsilon, lam)
    traj = solve_regularized_path(
        plan.op, plan.psi, plan.noise, noise_path, config, plan.horizon, plan.initial
    )

    checks = []
    if plan.psi.linear_slope is not None and plan.noise.h2_closed_form(plan.op) == 0.0:
        checks.extend(_linear_oracle_checks(plan, traj))

    final = traj.states[-1]
    summary_rows = tuple(
        zip(
            traj.times[traj.base_mask].tolist(),
            np.sqrt(traj.running_sup_squared(L2)).tolist(),
            traj.running_integral_squared(L2).tolist(),
        )
    )
    return StudyReport(
        kind="simulate",
        parameters={
            "epsilon": epsilon,
            "lam": lam,
            "horizon": plan.horizon,
            "step_size": plan.step_size,
            "master_seed": plan.master_seed,
            "psi_kind": plan.psi.kind,
            "modes": int(plan.op.mode_count),
            "jumps": int(noise_path.jump_count),
        },
        constants_used=constants_used(plan),
        checks=checks,
        extra={
            "grid_rows": int(traj.times.size),
            "final_norm_l2": norm(plan.op, final, L2),
            "final_norm_fstar": norm(plan.op, final, F_STAR),
            "sup_norm_l2": traj.sup_norm(L2),
            "solver": traj.counters.summary(),
        },
        tables=[
            Table(
                name="norm_summary",
                columns=("t", "running_sup_l2", "running_integral_l2_sq"),
                rows=summary_rows,
            )
        ],
        exports={
            "trajectory.csv": traj.export,
            "noise_path.csv": functools.partial(export_noise_path, noise_path, plan.noise),
        },
    )


# -- inequalities ----------------------------------------------------------------


def _first_witness(conditions) -> str:
    """``"; witness <name> <witness>"`` of the first failed condition, or ""."""
    failed = next((c for c in conditions if not c.passed), None)
    return "" if failed is None else f"; witness {failed.name} {failed.witness}"


def _run_inequalities(plan) -> StudyReport:
    epsilon, _ = plan.finest_cell
    psi_conditions = verify_psi_inequalities(plan.psi)
    min_pair, min_self, min_slope = (c.min_slack for c in psi_conditions)
    conditions, workers = check_variational_conditions(plan.op, plan.psi, plan.noise, epsilon)
    noise_conditions, noise_workers = audit_h2_h3(plan.op, plan.noise)
    h3, h2, h2_l2 = noise_conditions

    checks = [
        PropertyCheck(
            name="psi_pointwise",
            passed=all(c.passed for c in psi_conditions),
            detail=(
                f"min pair slack {min_pair:.3e}, min self slack {min_self:.3e}, "
                f"min slope slack {min_slope:.3e} over {psi_conditions[0].checked} samples"
                + _first_witness(psi_conditions)
            ),
        )
    ]
    for cond in conditions:
        detail = (
            f"min slack {cond.min_slack:.3e} over {cond.checked} samples"
            + (f"; witness {cond.witness}" if cond.witness else "")
        )
        checks.append(PropertyCheck(name=cond.name, passed=cond.passed, detail=detail))
    checks.append(
        PropertyCheck(
            name="noise_h2_h3",
            passed=all(c.passed for c in noise_conditions),
            detail=(
                f"h2 empirical {h2.max_lhs:.6g} <= "
                f"closed form {plan.noise.h2_closed_form(plan.op):.6g}; "
                f"h2 (L2) empirical {h2_l2.max_lhs:.6g} <= "
                f"closed form {plan.noise.h2_closed_form(plan.op, L2):.6g}; "
                f"h3 empirical {h3.max_lhs:.6g} <= "
                f"closed form {plan.noise.h3_closed_form(plan.op):.6g}"
                + _first_witness(noise_conditions)
            ),
        )
    )

    return StudyReport(
        kind="inequalities",
        parameters={
            "epsilon": epsilon,
            "psi_kind": plan.psi.kind,
            "noise_kind": plan.noise.label,
            "modes": int(plan.op.mode_count),
        },
        constants_used=constants_used(plan),
        checks=checks,
        extra={
            "h2_empirical": h2.max_lhs,
            "h2_l2_empirical": h2_l2.max_lhs,
            "h3_empirical": h3.max_lhs,
            "min_pair_slack": min_pair,
            "min_self_slack": min_self,
            "min_slope_slack": min_slope,
            # the variational_conditions.csv rows, keyed by condition
            "variational": {c.name: {"checked": c.checked, "min_slack": c.min_slack,
                                     "violations": c.violation_count} for c in conditions},
        },
        tables=[
            Table(
                name="variational_conditions",
                columns=("condition", "checked", "min_slack", "violations"),
                rows=tuple(
                    (c.name, c.checked, c.min_slack, c.violation_count) for c in conditions
                ),
            )
        ],
        run={"audit_workers": max(workers, noise_workers)},
    )


# -- driver -----------------------------------------------------------------------


# Subcommand -> (help text, study).  A study maps a plan to its report, which
# writes every file of the run but scenario.txt and metadata.json.  The
# cascade studies are looked up in this module when they run, so a
# replacement of ``cli.lambda_cauchy_study`` and the like (a test's
# monkeypatch, the benchmark's tracer) is what gets called.  Run in this
# order, apriori reuses lambda-study's ensemble.
STUDIES = {
    "simulate": ("simulate one path at the finest regularization cell", _run_simulate),
    "inequalities": ("audit the pointwise/variational/noise hypotheses", _run_inequalities),
    "lambda-study": ("coupled Cauchy study along the lambda ladder",
                     lambda plan: lambda_cauchy_study(plan)),
    "eps-study": ("coupled Cauchy study along the epsilon ladder",
                  lambda plan: eps_cauchy_study(plan)),
    "apriori": ("moment bound along the lambda ladder", lambda plan: apriori_study(plan)),
    "uniqueness": ("solver-configuration independence check",
                   lambda plan: uniqueness_check(plan)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levypme",
        description="Simulation and verification harness for jump-driven "
        "monotone SPDE regularization cascades.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _) in STUDIES.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--scenario", required=True, help="scenario file (key = value)")
        p.add_argument("--out", required=True, help="output directory")
    return parser


def _environment() -> dict:
    """Interpreter and numpy versions and the thread settings a timing depends
    on: ``OPENBLAS_NUM_THREADS`` as set, and ``blas_pin``, each OpenBLAS
    pinned with the thread count it reports, or None when none is loaded."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_pin": pin_blas_threads(),
        "cpu_count": os.cpu_count(),
    }


def _write_outputs(out_dir: Path, report, scenario, args) -> None:
    report.write(out_dir)
    (out_dir / "scenario.txt").write_text(serialize_scenario(scenario))
    metadata = {
        "command": args.command,
        "created": datetime.now(timezone.utc).isoformat(),
        "scenario_file": str(args.scenario),
        "scenario_hash": scenario_hash(scenario),
        "version": __version__,
        "environment": _environment(),
        **report.run,
    }
    (out_dir / "metadata.json").write_text(json_text(metadata))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        scenario = load_scenario(args.scenario)
    except FileNotFoundError:
        print(f"error: scenario file not found: {args.scenario}", file=sys.stderr)
        return 2
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create --out directory {args.out}: {exc.strerror}",
              file=sys.stderr)
        return 2

    try:
        plan = build_plan(scenario)
        children = sum(os.times()[2:4])
        report = STUDIES[args.command][1](plan)
        report.run["transform"] = plan.op.transform
        report.run["child_cpu_s"] = round(sum(os.times()[2:4]) - children, 6)  # RUSAGE_CHILDREN
        _write_outputs(out_dir, report, scenario, args)
    except StepperConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except StudyPlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: {check.detail}")
    verdict = ("no check applies" if not report.checks
               else "all checks passed" if report.passed else "CHECKS FAILED")
    print(f"{args.command}: {verdict}; outputs in {args.out}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
