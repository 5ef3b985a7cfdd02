"""Span recorder for the traced benchmark pass.

The benchmark times levypme's layers from outside: it replaces public
functions at the name each caller resolves (``cascade`` and ``cli`` import
``solve_regularized_path`` and ``sample_noise_path`` by name, so those module
attributes are patched, not only the defining module's) and records one span
per call.  A span is (name, start, end, parent span, study-run id); spans stay
in flat ``array`` buffers in memory and are written once, after the pass.
Self time is a span's duration minus the durations of its direct children.
"""
from __future__ import annotations

import array
import time
from dataclasses import replace
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.run = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.run_id = [0]
        # One entry per implicit_step call, in call order; -1 marks a call
        # that raised.
        self.iterations = array.array("i")
        self.counters = {
            "noise.jumps": 0,
            "stepper.convergence_errors": 0,
            "reporting.write.bytes": 0,
            "cli.export.bytes": 0,
        }

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, observe=None, on_error=None):
        """Return fn recording a span per call.

        ``observe(args, kwargs, result)`` and ``on_error(exc)`` run after the
        span has closed, so their cost lands in the caller's self time.
        """
        nid = self.name_id(name)
        stack, run_id, clock = self.stack, self.run_id, time.perf_counter
        names, parents, runs = self.name.append, self.parent.append, self.run.append
        starts, ends = self.start, self.end

        def traced(*args, **kwargs):
            idx = len(starts)
            names(nid)
            parents(stack[-1])
            runs(run_id[0])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                ends[idx] = clock()
                stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            ends[idx] = clock()
            stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def patch(self, modules, attr, name, **hooks):
        """Replace ``attr`` by one traced function in every module that binds it."""
        original = getattr(modules[0], attr)
        traced = self.wrap(name, original, **hooks)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, traced)

    def count(self, key: str, amount: int) -> None:
        self.counters[key] += amount

    # -- analysis ------------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.intc).astype(np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.intc).astype(np.int64),
            "run": np.frombuffer(self.run, dtype=np.intc).astype(np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), iterations=np.frombuffer(
            self.iterations, dtype=np.intc), **self.arrays())


def _file_bytes(path) -> int:
    p = Path(path)
    return p.stat().st_size if p.is_file() else 0


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every levypme layer the studies reach."""
    from levypme import (
        cascade,
        cli,
        noise,
        operators,
        reporting,
        scenario,
        spaces,
        stepper,
        variational,
        nonlinearity,
    )

    spectrum = operators.OperatorSpectrum
    for method in ("to_physical", "to_spectral", "field_from_coefficients"):
        tracer.patch([spectrum], method, f"operators.{method}")

    build_psi = scenario.build_psi

    def traced_build_psi(sc):
        psi = build_psi(sc)
        return replace(psi, evaluate=tracer.wrap("nonlinearity.psi_evaluate", psi.evaluate))

    scenario.build_psi = traced_build_psi
    tracer.patch([nonlinearity, cli], "verify_psi_inequalities",
                 "nonlinearity.verify_psi_inequalities")

    tracer.patch(
        [noise, cascade, cli], "sample_noise_path", "noise.sample_noise_path",
        observe=lambda a, k, path: tracer.count("noise.jumps", int(path.jump_count)),
    )
    for method in ("compensator_rate", "jump_field"):
        tracer.patch([noise.NoiseModel], method, f"noise.{method}")
    tracer.patch([noise, cli], "audit_h2_h3", "noise.audit_h2_h3")

    def record_iterations(args, kwargs, result):
        if kwargs.get("return_iterations"):
            tracer.iterations.append(int(result[1]))

    def record_error(exc):
        tracer.iterations.append(-1)
        if isinstance(exc, stepper.StepperConvergenceError):
            tracer.count("stepper.convergence_errors", 1)

    tracer.patch([stepper], "implicit_step", "stepper.implicit_step",
                 observe=record_iterations, on_error=record_error)
    tracer.patch([stepper, cascade, cli], "solve_regularized_path",
                 "stepper.solve_regularized_path")
    for method in ("sup_norm", "integral_squared_norm", "running_sup_squared",
                   "running_integral_squared"):
        tracer.patch([stepper.Trajectory], method, "stepper.trajectory_norms")

    tracer.patch([spaces, stepper, cascade, noise, variational], "squared_norm_rows",
                 "spaces.squared_norm_rows")
    tracer.patch([variational, cli], "check_variational_conditions",
                 "variational.check_variational_conditions")
    for study in ("lambda_cauchy_study", "eps_cauchy_study", "apriori_study",
                  "uniqueness_check"):
        tracer.patch([cascade, cli], study, "cascade.study")
    for fn in ("load_scenario", "build_plan"):
        tracer.patch([scenario, cli], fn, f"scenario.{fn}")

    def report_bytes(args, kwargs, result):
        report, out = args[0], Path(args[1])
        files = ["report.json", "failures.json"] + [f"{t.name}.csv" for t in report.tables]
        tracer.count("reporting.write.bytes", sum(_file_bytes(out / f) for f in files))

    tracer.patch([reporting.StudyReport], "write", "reporting.write", observe=report_bytes)
    tracer.patch([stepper.Trajectory], "export", "cli.export",
                 observe=lambda a, k, r: tracer.count("cli.export.bytes", _file_bytes(a[1])))
    tracer.patch([noise, cli], "export_noise_path", "cli.export",
                 observe=lambda a, k, r: tracer.count("cli.export.bytes", _file_bytes(a[2])))


def _percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else 0.0


def summarize(tracer: Tracer, run_labels: dict, mode_shape: tuple) -> dict:
    """Per-layer counts and self times of one traced pass.

    ``run_labels`` maps study-run id to study name; ``mode_shape`` is
    (physical nodes, modes) of the workload's operator.
    """
    a = tracer.arrays()
    n = a["name"].size
    duration = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child_time = np.bincount(a["parent"][has_parent], weights=duration[has_parent],
                             minlength=n)
    self_time = duration - child_time
    n_names = len(tracer.names)
    calls = np.bincount(a["name"], minlength=n_names)
    self_by_name = np.bincount(a["name"], weights=self_time, minlength=n_names)
    ids = {name: i for i, name in enumerate(tracer.names)}

    def layer_calls(name):
        return int(calls[ids[name]]) if name in ids else 0

    def layer_self(name, mask=None):
        if name not in ids:
            return 0.0
        if mask is None:
            return float(self_by_name[ids[name]])
        return float(self_time[(a["name"] == ids[name]) & mask].sum())

    def is_name(name):
        return a["name"] == ids.get(name, -1)

    step_mask = is_name("stepper.implicit_step")
    steps = int(step_mask.sum())
    iterations = np.frombuffer(tracer.iterations, dtype=np.intc)
    if iterations.size != steps:
        raise RuntimeError("implicit_step iteration record out of step with its spans")
    step_runs = a["run"][step_mask]
    ok = iterations >= 0
    step_us = duration[step_mask] * 1e6
    to_spectral = is_name("operators.to_spectral")
    stepper_drift = to_spectral & np.isin(a["parent"], np.flatnonzero(step_mask))
    phys, modes = mode_shape

    layer = dict(tracer.counters)
    for name in ("operators.to_physical", "operators.to_spectral",
                 "operators.field_from_coefficients", "nonlinearity.psi_evaluate",
                 "noise.sample_noise_path", "noise.compensator_rate", "noise.jump_field",
                 "stepper.solve_regularized_path", "stepper.implicit_step",
                 "spaces.squared_norm_rows"):
        layer[f"{name}.calls"] = layer_calls(name)
        layer[f"{name}.self_s"] = layer_self(name)
    for name in ("nonlinearity.verify_psi_inequalities", "noise.audit_h2_h3",
                 "stepper.trajectory_norms", "variational.check_variational_conditions",
                 "cascade.study", "reporting.write", "cli.export"):
        layer[f"{name}.self_s"] = layer_self(name)
    transforms = layer["operators.to_physical.calls"] + layer["operators.to_spectral.calls"]
    layer["operators.transform_bytes_computed"] = transforms * phys * modes * 8
    layer["stepper.implicit_step.p50_us"] = _percentile(step_us, 50)
    layer["stepper.implicit_step.p99_us"] = _percentile(step_us, 99)
    layer["stepper.inner_iterations.mean"] = float(iterations[ok].mean()) if ok.any() else 0.0
    layer["stepper.inner_iterations.p99"] = _percentile(iterations[ok], 99)
    layer["stepper.inner_iterations.max"] = int(iterations[ok].max()) if ok.any() else 0
    layer["stepper.drift_evals_per_step"] = int(stepper_drift.sum()) / steps if steps else 0.0
    setup = a["run"] == 0
    layer["scenario.load_scenario.self_s"] = layer_self("scenario.load_scenario", setup)
    layer["scenario.build_plan.self_s"] = layer_self("scenario.build_plan", setup)
    layer["trace.spans"] = n

    per_run = {}
    for run_id, study in run_labels.items():
        in_run = a["run"] == run_id
        its = iterations[(step_runs == run_id) & ok]
        per_run[study] = {
            "path_solves": int((is_name("stepper.solve_regularized_path") & in_run).sum()),
            "implicit_steps": int((step_mask & in_run).sum()),
            "drift_evaluations": int((to_spectral & in_run).sum()),
            "inner_iterations_p50": _percentile(its, 50),
            "inner_iterations_p99": _percentile(its, 99),
        }
    return {"layer": layer, "per_run": per_run}
