#!/usr/bin/env python3
"""levypme benchmark: CLI studies timed end to end, layers timed from outside.

    python3 perfbench/run.py --workload cascade-acceptance --seed 2026 \
        --seconds 25 --trace 0

Run from the repository root (any directory works; paths are resolved from
this file).  The workloads are defined in ``perfbench/workloads.json``: each
is a shipped scenario with a few keys overridden and ``master_seed`` set from
``--seed``, and a sequence of CLI studies.  The generated scenario is written
under ``perfbench/.work``, where all outputs of a run go as well.

``--trace 0`` measures.  The study sequence runs again and again, each time
in a fresh interpreter, until ``--seconds`` have passed.  Before each
sequence, and twice after the last, one more interpreter only sets up
(import, load the scenario, build the plan) to time set-up.  Each figure is
the median over those repetitions.

``--trace 1`` gives the per-layer split.  It makes three passes of the study
sequence, each in its own interpreter: one untraced, one with every public
layer function wrapped by ``perfbench/tracer.py``, and one untraced with
``OPENBLAS_NUM_THREADS=1``.  ``--seconds`` does not apply.

Every study run is checked.  It fails when its exit code is not 0, when its
check names or verdicts differ from the first run of that seed, when its
``report.json`` or CSV tables are not byte-identical to that first run, or,
at the default seed, when a headline number leaves its reference in
``workloads.json`` by more than ``inner_tolerance * (10 + 1e4 |reference|)``.
One check of the program, ``perturbation_contracts`` of ``uniqueness``, is
known to fail on some seeds where the property it states holds (see
``perturbation_within_jump_budget``).  A uniqueness run whose only failed
check is that one passes if the benchmark's own test of the property passes,
and is printed and recorded as a known defect.
The first run of a seed is kept under ``perfbench/.work/ref``, keyed by the
scenario, the source tree and ``OPENBLAS_NUM_THREADS``.  The single-thread
pass is not compared byte for byte, since the BLAS thread count may change
the last bits.

``LEVYPME_WORKERS`` and ``OPENBLAS_NUM_THREADS`` are passed through as
inherited and recorded.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 2, with no result printed, when the levypme sources are missing.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
CHILD = HERE / "child.py"

# Set-up-only children after the last sequence; one more runs before each.
SETUP_TAIL = 2
# Wall-clock budget for one invocation; a child that would overrun it is killed.
RUN_BUDGET_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
# Per-layer metrics in output order, with units.  Counts repeat exactly run to
# run; self times are span durations minus their child spans.
PER_LAYER = {
    "lambda_study_s": "s",
    "eps_study_s": "s",
    "apriori_s": "s",
    "inequalities_s": "s",
    "steps_per_s": "steps/s",
    "operators.to_physical.calls": "count",
    "operators.to_physical.self_s": "s",
    "operators.to_spectral.calls": "count",
    "operators.to_spectral.self_s": "s",
    "operators.field_from_coefficients.calls": "count",
    "operators.field_from_coefficients.self_s": "s",
    "operators.transform_bytes_computed": "B",
    "nonlinearity.psi_evaluate.calls": "count",
    "nonlinearity.psi_evaluate.self_s": "s",
    "nonlinearity.verify_psi_inequalities.self_s": "s",
    "noise.sample_noise_path.calls": "count",
    "noise.sample_noise_path.self_s": "s",
    "noise.compensator_rate.calls": "count",
    "noise.compensator_rate.self_s": "s",
    "noise.jump_field.calls": "count",
    "noise.jump_field.self_s": "s",
    "noise.audit_h2_h3.self_s": "s",
    "noise.jumps": "count",
    "stepper.solve_regularized_path.calls": "count",
    "stepper.solve_regularized_path.self_s": "s",
    "stepper.implicit_step.calls": "count",
    "stepper.implicit_step.self_s": "s",
    "stepper.implicit_step.p50_us": "us",
    "stepper.implicit_step.p99_us": "us",
    "stepper.inner_iterations.mean": "count",
    "stepper.inner_iterations.p99": "count",
    "stepper.inner_iterations.max": "count",
    "stepper.drift_evals_per_step": "count",
    "stepper.convergence_errors": "count",
    "stepper.trajectory_norms.self_s": "s",
    "spaces.squared_norm_rows.calls": "count",
    "spaces.squared_norm_rows.self_s": "s",
    "variational.check_variational_conditions.self_s": "s",
    "cascade.study.self_s": "s",
    "scenario.import_s": "s",
    "scenario.load_scenario.self_s": "s",
    "scenario.build_plan.self_s": "s",
    "reporting.write.self_s": "s",
    "reporting.write.bytes": "B",
    "cli.export.self_s": "s",
    "cli.export.bytes": "B",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "blas.single_thread_wall_s": "s",
}
# Study-time metrics; a study the workload does not run reports 0.
STUDY_METRICS = {
    "lambda-study": "lambda_study_s",
    "eps-study": "eps_study_s",
    "apriori": "apriori_s",
    "inequalities": "inequalities_s",
}


class SetupError(RuntimeError):
    """The benchmark cannot run here: sources or scenarios missing, or set-up failed."""


# -- workload generation ---------------------------------------------------------


def generate_scenario(workload: dict, seed: int) -> Path:
    """Write the workload's scenario: the shipped file with its overrides and
    master_seed replaced.  Same seed, same file."""
    source = ROOT / workload["source"]
    if not source.is_file():
        raise SetupError(f"missing source scenario {source}")
    overrides = dict(workload["overrides"], master_seed=seed % 2**32)
    lines, seen = [], set()
    for line in source.read_text().splitlines():
        key = line.partition("=")[0].strip()
        if "=" in line and not line.lstrip().startswith("#") and key in overrides:
            line = f"{key} = {overrides[key]}"
            seen.add(key)
        lines.append(line)
    if seen != set(overrides):
        raise SetupError(f"{source} lacks keys {sorted(set(overrides) - seen)}")
    out = WORK / "scenarios" / f"{workload['name']}-{seed}.scn"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n")
    return out


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


# -- children --------------------------------------------------------------------


class Runner:
    """Starts one child interpreter at a time and waits for it to end."""

    def __init__(self, scenario: Path, studies: list, env: dict):
        self.scenario = scenario
        self.studies = studies
        self.env = env
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.count = 0
        self.log = WORK / "child.log"
        self.log.write_text("")

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def run(self, out_dir=None, trace=None, env=None):
        """Run one child; returns its result dict with ``setup_s`` added, or
        None when it did not finish within the run's budget."""
        self.count += 1
        result_file = WORK / f"child-{self.count}.json"
        cmd = [sys.executable, str(CHILD), "--src", str(SRC),
               "--scenario", str(self.scenario), "--result", str(result_file)]
        if out_dir is not None:
            cmd += ["--out", str(out_dir), "--studies", ",".join(self.studies)]
        if trace is not None:
            cmd += ["--trace", str(trace)]
        with open(self.log, "a") as log:
            log.write(f"== {' '.join(cmd)}\n")
            log.flush()
            spawned = time.perf_counter()
            try:
                proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      env=env or self.env, timeout=max(self.remaining(), 1.0))
            except subprocess.TimeoutExpired:
                return None
        if proc.returncode != 0 or not result_file.is_file():
            raise SetupError(f"benchmark child exited with {proc.returncode}; see {self.log}")
        result = json.loads(result_file.read_text())
        result_file.unlink()
        result["setup_s"] = result["plan_built_at"] - spawned
        return result

    def setup(self) -> float:
        """Seconds from starting an interpreter to a built plan."""
        result = self.run()
        if result is None:
            raise SetupError("set-up did not finish within the run budget")
        return result["setup_s"]


# -- output checks ---------------------------------------------------------------


def compared_files(study_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(study_dir.iterdir())
            if p.name == "report.json" or p.suffix == ".csv"}


def verdicts(report: dict) -> list:
    return [(c["name"], c["passed"]) for c in report["checks"]]


def headlines(study: str, report: dict) -> dict:
    extra = report.get("extra", {})
    if study in ("lambda-study", "eps-study") and report.get("slope"):
        return {f"{study}.slope": report["slope"]["slope"]}
    if study == "apriori":
        return {"apriori.min_slack": min(c["slack"] for c in extra["cells"])}
    if study == "uniqueness":
        return {"uniqueness.sup_config_gap": extra["sup_config_gap"]}
    if study == "inequalities":
        return {"inequalities.h2_empirical": extra["h2_empirical"],
                "inequalities.h3_empirical": extra["h3_empirical"]}
    return {}


def perturbation_within_jump_budget(report: dict, study_dir: Path):
    """The benchmark's test of what ``perturbation_contracts`` states: between
    jumps the drift contracts the perturbation gap, and a jump grows it by at
    most its factor, so the gap never grows by more than the path's whole jump
    budget, ``log(gap(t) / gap(0)) <= horizon * cap``.  Returns None when that
    holds, else why not.

    The program's check compares the largest growth *rate*,
    ``log(gap(t) / gap(0)) / t``, with that budget spread over the horizon, so
    a jump early in the path fails it although the gap grew by less than that
    one jump allows (about one seed in sixteen on cascade-acceptance).
    """
    check = next(c for c in report["checks"] if c["name"] == "perturbation_contracts")
    cap = float(re.search(r"jump cap (\S+)", check["detail"]).group(1))
    budget = cap * report["parameters"]["horizon"]
    with open(study_dir / "perturbation_decay.csv", newline="") as table:
        gaps = [float(row["gap_norm"]) for row in csv.DictReader(table)]
    growth = max(math.log(g / gaps[0]) for g in gaps if g > 0)
    # The report prints the cap to four significant digits.
    if growth <= budget * (1.0 + 1e-3):
        return None
    return f"perturbation gap grew by log {growth:.4g}, past the path's jump budget {budget:.4g}"


class Checker:
    """Judges every study run against the first run of the same seed."""

    def __init__(self, ref_root: Path, references: dict, check_headlines: bool):
        self.ref_root = ref_root
        self.references = references
        self.check_headlines = check_headlines
        self.attempted = 0
        self.failures: list[str] = []
        self.known_defects: list[str] = []
        self.headline_values: dict = {}

    def check_pass(self, label: str, result, out_dir: Path, studies: list,
                   compare_bytes: bool = True) -> None:
        runs = {r["study"]: r for r in result["runs"]} if result else {}
        for study in studies:
            self.attempted += 1
            problem = self._check_study(label, study, runs.get(study), out_dir / study,
                                        compare_bytes, result)
            if problem:
                self.failures.append(f"{label} {study}: {problem}")
        shutil.rmtree(out_dir, ignore_errors=True)

    def _check_study(self, label, study, run, study_dir, compare_bytes, result):
        if run is None:
            return "did not run within the time budget"
        if run["exit"] not in (0, 1):
            return f"exit code {run['exit']}"
        report = json.loads((study_dir / "report.json").read_text())
        if run["exit"] == 1:
            failed = [c["name"] for c in report["checks"] if not c["passed"]]
            if study != "uniqueness" or failed != ["perturbation_contracts"]:
                return f"exit code 1, failed checks {failed}"
            problem = perturbation_within_jump_budget(report, study_dir)
            if problem:
                return f"exit code 1, perturbation_contracts: {problem}"
            self.known_defects.append(f"{label} {study}: perturbation_contracts failed "
                                      "although the gap stayed within the path's jump budget")
        ref_dir = self.ref_root / study
        if not ref_dir.is_dir():
            ref_dir.parent.mkdir(parents=True, exist_ok=True)
            shutil.copytree(study_dir, ref_dir)
        ref_report = json.loads((ref_dir / "report.json").read_text())
        if verdicts(report) != verdicts(ref_report):
            return "check names or verdicts differ from the first run of this seed"
        if compare_bytes:
            mine, first = compared_files(study_dir), compared_files(ref_dir)
            if mine != first:
                differ = sorted(n for n in set(mine) | set(first) if mine.get(n) != first.get(n))
                return f"not byte-identical to the first run of this seed: {differ}"
        if self.check_headlines:
            tol_unit = result["inner_tolerance"]
            for name, value in headlines(study, report).items():
                self.headline_values[name] = value
                ref = self.references.get(name)
                if ref is None:
                    continue
                tolerance = tol_unit * (10.0 + 1e4 * abs(ref))
                if not abs(value - ref) <= tolerance:
                    return f"{name} = {value!r} is off its reference {ref!r} by more than {tolerance:.3g}"
        return None


# -- measurement -----------------------------------------------------------------


def measure(runner: Runner, checker: Checker, seconds: float) -> tuple[dict, dict]:
    """Untraced: study sequences until `seconds` pass.  Set-up is sampled by
    set-up-only children between the sequences, so that its samples span the
    same stretch of time as the sequences do."""
    runner.setup()  # warms byte-compiled files and the page cache
    setups = []
    samples = {name: [] for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    started = time.perf_counter()
    last = 0.0
    while not samples["wall_s"] or (
        time.perf_counter() - started < seconds and runner.remaining() > 2.0 * last
    ):
        t0 = time.perf_counter()
        setups.append(runner.setup())
        out_dir = WORK / "out" / f"seq{len(samples['wall_s'])}"
        result = runner.run(out_dir)
        checker.check_pass(f"sequence {len(samples['wall_s'])}", result, out_dir, runner.studies)
        if result is None:
            break
        last = time.perf_counter() - t0
        setups.append(result["setup_s"])
        samples["wall_s"].append(result["wall_s"])
        samples["cpu_s"].append(result["cpu_s"])
        samples["peak_rss_mb"].append(result["peak_rss_mb"])
        samples.setdefault("studies", []).append({r["study"]: r["seconds"] for r in result["runs"]})
    if not samples["wall_s"]:
        raise SetupError("no study sequence finished within the run budget")
    samples["setup_s"] = setups + [runner.setup() for _ in range(SETUP_TAIL)]
    metrics = {name: statistics.median(samples[name]) for name in END_TO_END}
    return metrics, samples


def trace(runner: Runner, checker: Checker, spans_file: Path) -> tuple[dict, dict]:
    """Three passes: untraced, traced, and untraced on one BLAS thread."""
    plain = runner.run(WORK / "out" / "plain")
    checker.check_pass("untraced pass", plain, WORK / "out" / "plain", runner.studies)
    traced = runner.run(WORK / "out" / "traced", trace=spans_file)
    checker.check_pass("traced pass", traced, WORK / "out" / "traced", runner.studies)
    single = runner.run(WORK / "out" / "single",
                        env=dict(runner.env, OPENBLAS_NUM_THREADS="1"))
    checker.check_pass("single-thread pass", single, WORK / "out" / "single", runner.studies,
                       compare_bytes=False)
    if plain is None or traced is None or single is None:
        raise SetupError("a traced-mode pass did not finish within the run budget")

    metrics = dict(traced["trace"]["layer"])
    seconds = {r["study"]: r["seconds"] for r in plain["runs"]}
    for study, name in STUDY_METRICS.items():
        metrics[name] = seconds.get(study, 0.0)
    stepping = sum(s for study, s in seconds.items() if study != "inequalities")
    steps = metrics["stepper.implicit_step.calls"]
    metrics["steps_per_s"] = steps / stepping if steps else 0.0
    metrics["scenario.import_s"] = traced["import_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics["blas.single_thread_wall_s"] = single["wall_s"]
    detail = {"per_run": traced["trace"]["per_run"], "steps": steps,
              "untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"]}
    return {name: metrics[name] for name in PER_LAYER}, detail


def environment(seed: int, env: dict, runner: Runner) -> dict:
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    probe = subprocess.run(
        [sys.executable, "-c",
         "import json, numpy, scipy; b = numpy.show_config(mode='dicts')"
         "['Build Dependencies']['blas']; print(json.dumps({'numpy': numpy.__version__, "
         "'scipy': scipy.__version__, 'blas': b.get('name'), 'blas_version': "
         "b.get('version'), 'blas_config': b.get('openblas configuration')}))"],
        capture_output=True, text=True, env=env, timeout=max(runner.remaining(), 1.0),
    )
    versions = json.loads(probe.stdout) if probe.returncode == 0 else {}
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        **versions,
        "OPENBLAS_NUM_THREADS": env.get("OPENBLAS_NUM_THREADS"),
        "LEVYPME_WORKERS": env.get("LEVYPME_WORKERS"),
    }


def main(argv=None) -> int:
    spec = json.loads((HERE / "workloads.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, default=spec["default_seed"])
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "levypme" / "__init__.py").is_file():
        print(f"error: levypme sources not found under {SRC}", file=sys.stderr)
        return 2
    workload = dict(spec["workloads"][args.workload], name=args.workload)
    try:
        shutil.rmtree(WORK / "out", ignore_errors=True)
        scenario = generate_scenario(workload, args.seed)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        key = hashlib.sha256("\n".join([
            scenario.read_text(), source_digest(), ",".join(workload["studies"]),
            str(env.get("OPENBLAS_NUM_THREADS")),
        ]).encode()).hexdigest()[:16]
        checker = Checker(WORK / "ref" / f"{args.workload}-{args.seed}-{key}",
                          workload["reference"], args.seed == spec["default_seed"])
        runner = Runner(scenario, workload["studies"], env)
        if args.trace:
            metrics, detail = trace(runner, checker, WORK / f"spans-{args.workload}.npz")
            units = PER_LAYER
        else:
            metrics, detail = measure(runner, checker, args.seconds)
            units = END_TO_END
        env_record = environment(args.seed, env, runner)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failed = len(checker.failures)
    record = {
        "workload": args.workload, "trace": args.trace, "environment": env_record,
        "metrics": metrics, "detail": detail, "failures": checker.failures,
        "known_defects": checker.known_defects,
        "headlines": checker.headline_values, "attempted": checker.attempted,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    for failure in checker.failures:
        print(f"FAILED {failure}")
    for defect in checker.known_defects:
        print(f"KNOWN DEFECT {defect}")
    for name, value in metrics.items():
        print(f"{name:50s} {value!r} {units[name]}")
    for study, counts in detail.get("per_run", {}).items():
        print(f"traced counts {study}: " + ", ".join(f"{k} {v!r}" for k, v in counts.items()))
    print(f"{'failed_ratio':50s} {failed / checker.attempted!r} share "
          f"({failed} of {checker.attempted} study runs)")
    print("environment " + json.dumps(env_record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
