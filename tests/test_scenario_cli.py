"""Scenario grammar, canonical serialization, CLI exit codes and artifacts."""
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

import pytest
from hypothesis import given, settings, strategies as st

from levypme.cli import main
from levypme import cascade, cli, nonlinearity, parallel
from levypme import scenario as scenario_module
from levypme.reporting import SCHEMA_VERSION, PropertyCheck, StudyReport, Table
from levypme.scenario import (
    Scenario,
    ScenarioError,
    build_noise,
    build_operator,
    build_plan,
    build_psi,
    load_scenario,
    parse_scenario,
    scenario_hash,
    serialize_scenario,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

_BASE = {
    "mode_cutoff": "4",
    "alpha": "0.5",
    "psi": "soft_monotone",
    "noise": "multiplicative",
    "noise_intensity": "2.0 1.0",
    "noise_scale": "0.08 -0.05",
    "initial": "smooth",
    "lambda_ladder": "0.2 0.1",
    "epsilon_ladder": "0.2 0.1",
    "paths": "2",
    "step_size": "0.125",
    "horizon": "0.5",
    "master_seed": "7",
}


def _text(overrides=None, drop=(), extra_lines=()):
    entries = dict(_BASE)
    if overrides:
        entries.update(overrides)
    for key in drop:
        entries.pop(key)
    lines = [f"{k} = {v}" for k, v in entries.items()]
    lines.extend(extra_lines)
    return "\n".join(lines) + "\n"


def test_parse_minimal_and_defaults():
    sc = parse_scenario(_text())
    assert sc.mode_cutoff == 4
    assert sc.lambda_ladder == (0.2, 0.1)
    assert sc.noise_scale == (0.08, -0.05)
    # defaults
    assert sc.length == 2.0 * math.pi
    assert sc.psi_param is None
    assert sc.initial_amplitude == 1.0
    assert sc.initial_seed == 7
    assert sc.inner_tolerance == 1e-10
    assert sc.max_inner_iterations == 600
    assert sc.report_version == SCHEMA_VERSION


def test_comments_and_blank_lines_ignored():
    sc = parse_scenario("# header\n\n" + _text() + "\n# trailing\n")
    assert sc.paths == 2


@pytest.mark.parametrize("mutation,pattern", [
    ({"alpha": "1.5"}, r"outside \(0, 1\]"),
    ({"alpha": "zero"}, "expected a number"),
    ({"mode_cutoff": "0"}, r"\[1, inf\)"),
    ({"paths": "1"}, r"\[2, inf\)"),
    ({"lambda_ladder": "0.1 0.2"}, "strictly decreasing"),
    ({"lambda_ladder": "1.0 0.5"}, r"outside \(0, 1\)"),
    ({"psi": "cubic"}, "expected one of"),
    ({"step_size": "2.0"}, "must not exceed horizon"),
    ({"report_version": "2"}, "unsupported report version"),
])
def test_value_errors(mutation, pattern):
    with pytest.raises(ScenarioError, match=pattern):
        parse_scenario(_text(mutation))


@pytest.mark.parametrize("key,value,line,message", [
    ("length", "0", 14, "value 0.0 outside (0, inf)"),
    ("psi_param", "-1", 14, "value -1.0 outside (0, inf)"),
    ("noise_intensity", "2.0 -1", 5, "value -1.0 outside [0, inf)"),
    ("noise_scale", "0.08 nan", 6, "value must be finite, got 'nan'"),
    ("initial_amplitude", "abc", 14, "expected a number, got 'abc'"),
    ("initial_seed", "1.5", 14, "expected an integer, got '1.5'"),
    ("epsilon_ladder", "0.2 0", 9, "value 0.0 outside (0, 1)"),
    # every entry is read before the upper end is checked
    ("lambda_ladder", "1.5 zero", 8, "expected a number, got 'zero'"),
    ("step_size", "-0.1", 11, "value -0.1 outside (0, inf)"),
    ("horizon", "inf", 12, "value must be finite, got 'inf'"),
    ("master_seed", "-3", 13, "value -3 outside [0, inf)"),
    ("inner_tolerance", "0", 14, "value 0.0 outside (0, inf)"),
    ("max_inner_iterations", "0", 14, "value 0 outside [1, inf)"),
])
def test_each_key_error_names_line_and_key(key, value, line, message):
    if key in _BASE:
        text = _text({key: value})
    else:
        text = _text(extra_lines=[f"{key} = {value}"])
    with pytest.raises(ScenarioError) as caught:
        parse_scenario(text)
    assert str(caught.value) == f"[line {line}, key '{key}'] {message}"
    assert (caught.value.line, caught.value.key) == (line, key)


def test_unknown_key_names_line():
    with pytest.raises(ScenarioError, match=r"\[line 14\] unknown key 'bogus'"):
        parse_scenario(_text(extra_lines=["bogus = 3"]))


def test_transform_lipschitz_key_removed():
    # the multiplicative coefficient is sigma * u; a declared contraction
    # constant the coefficient did not honour is no longer accepted
    with pytest.raises(ScenarioError, match=r"\[line 14\] unknown key 'transform_lipschitz'"):
        parse_scenario(_text(extra_lines=["transform_lipschitz = 0.5"]))


def test_duplicate_key_names_both_lines():
    with pytest.raises(
        ScenarioError, match=r"\[line 14, key 'alpha'\] duplicate key \(first set on line 2\)"
    ):
        parse_scenario(_text(extra_lines=["alpha = 0.4"]))


def test_missing_value_and_missing_required():
    with pytest.raises(ScenarioError, match=r"key 'alpha'\] missing value"):
        parse_scenario(_text({"alpha": ""}))
    with pytest.raises(ScenarioError, match=r"\[key 'master_seed'\] required key missing"):
        parse_scenario(_text(drop=("master_seed",)))
    with pytest.raises(ScenarioError, match="expected 'key = value'"):
        parse_scenario("mode_cutoff 4\n")


def test_error_carries_location_attributes():
    try:
        parse_scenario(_text({"alpha": "1.5"}))
    except ScenarioError as exc:
        assert exc.line == 2 and exc.key == "alpha"
    else:
        pytest.fail("expected ScenarioError")


def test_psi_param_pairing():
    with pytest.raises(ScenarioError, match="requires psi_param"):
        parse_scenario(_text({"psi": "saturating"}))
    with pytest.raises(ScenarioError, match="takes no psi_param"):
        parse_scenario(_text({"psi": "identity"}, extra_lines=["psi_param = 1.0"]))
    sc = parse_scenario(_text({"psi": "saturating"}, extra_lines=["psi_param = 1.0"]))
    assert build_psi(sc).kind == "saturating"


def test_noise_key_pairing():
    with pytest.raises(ScenarioError, match="not used when noise = zero"):
        parse_scenario(_text({"noise": "zero"}))
    with pytest.raises(ScenarioError, match="requires noise_intensity"):
        parse_scenario(_text(drop=("noise_intensity",)))
    with pytest.raises(ScenarioError, match="one entry per mark"):
        parse_scenario(_text({"noise_scale": "0.08"}))
    with pytest.raises(ScenarioError, match="only used when initial = random"):
        parse_scenario(_text(extra_lines=["initial_seed = 3"]))


def test_builders_respect_kinds():
    zero_sc = parse_scenario(_text({"noise": "zero"}, drop=("noise_intensity", "noise_scale")))
    op = build_operator(zero_sc)
    assert op.mode_count == 9
    model = build_noise(zero_sc, op)
    assert model.h2_closed_form(op) == 0.0
    assert model.label == "ZeroCoefficient"

    additive_sc = parse_scenario(_text({"noise": "additive"}))
    add_model = build_noise(additive_sc, build_operator(additive_sc))
    assert add_model.state_dependent is False
    assert add_model.label == "AdditiveCoefficient"
    assert len(add_model.marks) == 2

    random_sc = parse_scenario(
        _text({"initial": "random"}, extra_lines=["initial_seed = 12"])
    )
    plan = build_plan(random_sc)
    assert plan.paths == 2
    assert plan.noise.label == "MultiplicativeCoefficient"
    plan_bigger = build_plan(replace(random_sc, paths=5, master_seed=1))
    assert plan_bigger.paths == 5 and plan_bigger.master_seed == 1


def test_shipped_scenarios_round_trip():
    files = sorted(SCENARIO_DIR.glob("*.scn"))
    assert len(files) == 4
    for path in files:
        sc = load_scenario(path)
        again = parse_scenario(serialize_scenario(sc))
        assert again == sc, path.name
        assert scenario_hash(again) == scenario_hash(sc)


def test_hash_sensitivity():
    a = parse_scenario(_text())
    b = parse_scenario(_text({"master_seed": "8"}))
    assert scenario_hash(a) == scenario_hash(parse_scenario(_text()))
    assert scenario_hash(a) != scenario_hash(b)


def test_serialize_skips_inapplicable_keys():
    sc = parse_scenario(_text({"noise": "zero"}, drop=("noise_intensity", "noise_scale")))
    text = serialize_scenario(sc)
    assert "noise_intensity" not in text
    assert "transform_lipschitz" not in text
    assert "initial_seed" not in text


def _key_values(key):
    """Values the key table accepts for ``key``."""
    kind, interval = scenario_module._GRAMMAR[key]
    if isinstance(kind, tuple):
        return st.sampled_from(kind)
    interval = interval or "(-inf, inf)"
    low, high = (float(end) for end in interval[1:-1].split(", "))
    if kind is int:  # every int range is [low, inf)
        return st.integers(min_value=None if low == -math.inf else int(low), max_value=2**70)
    number = st.floats(
        min_value=low, max_value=high,
        exclude_min=interval[0] == "(", exclude_max=interval[-1] == ")",
        allow_nan=False, allow_infinity=False,
    )
    if kind is float:
        return number
    if kind == scenario_module._LADDER:
        return st.lists(number, min_size=1, max_size=4, unique=True).map(
            lambda values: tuple(sorted(values, reverse=True)))
    return st.lists(number, min_size=1, max_size=4).map(tuple)


@st.composite
def _valid_scenarios(draw):
    values = {key: draw(_key_values(key)) for key in scenario_module._GRAMMAR}
    defaults = {f.name: f.default for f in fields(Scenario)}
    values["report_version"] = SCHEMA_VERSION
    values["horizon"] = max(values["horizon"], values["step_size"])
    if values["noise"] == "zero":
        values["noise_intensity"] = values["noise_scale"] = ()
    else:
        marks = min(len(values["noise_intensity"]), len(values["noise_scale"]))
        values["noise_intensity"] = values["noise_intensity"][:marks]
        values["noise_scale"] = values["noise_scale"][:marks]
    # a key that does not apply keeps its default, which the text omits
    if values["psi"] not in ("scaled_linear", "saturating"):
        values["psi_param"] = defaults["psi_param"]
    if values["initial"] == "smooth":
        values["initial_seed"] = defaults["initial_seed"]
    return Scenario(**values)


@settings(max_examples=200, deadline=None)
@given(_valid_scenarios())
def test_canonical_text_round_trips(sc):
    text = serialize_scenario(sc)
    again = parse_scenario(text)
    assert again == sc
    assert scenario_hash(again) == scenario_hash(sc) == hashlib.sha256(text.encode()).hexdigest()
    unused = set()
    if sc.psi not in ("scaled_linear", "saturating"):
        unused.add("psi_param")
    if sc.noise == "zero":
        unused |= {"noise_intensity", "noise_scale"}
    if sc.initial == "smooth":
        unused.add("initial_seed")
    keys = [line.partition(" = ")[0] for line in text.splitlines()]
    assert keys == [f.name for f in fields(Scenario) if f.name not in unused]


# -- CLI ----------------------------------------------------------------------


def _write_scenario(tmp_path, text, name="run.scn"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_simulate_success(tmp_path, capsys):
    scn = _write_scenario(tmp_path, _text())
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", scn, "--out", str(out)]) == 0
    # no oracle applies to this noisy path: the run claims no check
    assert capsys.readouterr().out == f"simulate: no check applies; outputs in {out}\n"
    assert json.loads((out / "report.json").read_text())["checks"] == []
    for artifact in (
        "report.json", "scenario.txt", "metadata.json",
        "trajectory.csv", "noise_path.csv", "norm_summary.csv",
    ):
        assert (out / artifact).exists(), artifact
    report = json.loads((out / "report.json").read_text())
    assert report["kind"] == "simulate" and report["passed"] is True
    lines = (out / "trajectory.csv").read_text().splitlines()
    data = [line for line in lines if not line.startswith("#")][1:]  # less the column line
    assert report["extra"]["grid_rows"] == len(data) > 1
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["scenario_hash"] == scenario_hash(parse_scenario(_text()))
    assert meta["transform"] == "dense"
    env = meta["environment"]
    assert set(env) == {"python", "numpy", "openblas_num_threads", "blas_pin", "cpu_count"}
    assert env["numpy"] == np.__version__ and env["cpu_count"] >= 1
    assert env["blas_pin"] is None or set(env["blas_pin"].values()) == {1}
    solver = report["extra"]["solver"]
    assert 0.0 < solver["observed_contraction_p50"] <= solver["observed_contraction_max"]
    assert 0.0 < solver["apriori_contraction_factor"] < 1.0


def test_cli_linear_oracle_gates(tmp_path, capsys):
    text = _text(
        {"psi": "identity", "noise": "zero"},
        drop=("noise_intensity", "noise_scale"),
    )
    scn = _write_scenario(tmp_path, text)
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", scn, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "[PASS] linear_recursion_oracle" in printed
    assert "[PASS] continuum_flow_bound" in printed


def test_cli_rerun_byte_identical(tmp_path):
    scn = _write_scenario(tmp_path, _text())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--scenario", scn, "--out", str(out1)]) == 0
    assert main(["simulate", "--scenario", scn, "--out", str(out2)]) == 0
    for name in ("report.json", "norm_summary.csv", "trajectory.csv",
                 "noise_path.csv", "scenario.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    meta1 = json.loads((out1 / "metadata.json").read_text())
    meta2 = json.loads((out2 / "metadata.json").read_text())
    meta1.pop("created"), meta2.pop("created")
    assert meta1 == meta2


def _ensemble(out):
    return json.loads((out / "metadata.json").read_text()).get("ensemble")


def test_apriori_reuses_lambda_study_ensemble(tmp_path, march_steps):
    # the benchmark's order: apriori's cells are lambda-study's, and the
    # eps-study in between must not evict them
    scn = str(SCENARIO_DIR / "multiplicative_small.scn")
    marched = {}
    for command in ("simulate", "lambda-study", "eps-study", "apriori", "uniqueness"):
        march_steps.clear()
        assert main([command, "--scenario", scn, "--out", str(tmp_path / command)]) == 0
        marched[command] = len(march_steps)
    assert marched["lambda-study"] > 0 and marched["eps-study"] > 0
    assert marched["apriori"] == 0
    assert marched["uniqueness"] > 0
    assert {c: _ensemble(tmp_path / c) for c in marched} == {
        "simulate": None, "lambda-study": "marched", "eps-study": "marched",
        "apriori": "reused", "uniqueness": None,
    }

    cascade._ENSEMBLES.clear()
    march_steps.clear()
    cold = tmp_path / "cold"
    assert main(["apriori", "--scenario", scn, "--out", str(cold)]) == 0
    assert len(march_steps) == marched["lambda-study"]
    assert _ensemble(cold) == "marched"
    names = sorted(p.name for p in cold.iterdir() if p.name != "metadata.json")
    assert names == sorted(p.name for p in (tmp_path / "apriori").iterdir()
                           if p.name != "metadata.json")
    assert {"report.json", "apriori_cells.csv"} <= set(names)
    for name in names:
        assert (cold / name).read_bytes() == (tmp_path / "apriori" / name).read_bytes(), name


def test_metadata_counts_march_workers(tmp_path, monkeypatch):
    # 40 paths under 4 cells are 3 chunks of at most 16 paths: on 2 CPUs a
    # child marches one of them.  A reused ensemble was marched by no one.
    text = (SCENARIO_DIR / "multiplicative_small.scn").read_text()
    assert "paths = 16" in text.splitlines()
    scn = _write_scenario(tmp_path, text.replace("paths = 16", "paths = 40"))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    meta = {}
    for command in ("lambda-study", "apriori"):
        assert main([command, "--scenario", scn, "--out", str(tmp_path / command)]) == 0
        meta[command] = json.loads((tmp_path / command / "metadata.json").read_text())
    assert meta["lambda-study"]["march_workers"] == 2
    assert meta["apriori"]["ensemble"] == "reused" and "march_workers" not in meta["apriori"]
    assert all(m["child_cpu_s"] >= 0.0 for m in meta.values())
    # with no OpenBLAS to pin, the metadata says so and one process marches
    monkeypatch.setattr(parallel, "_loaded_openblas", lambda: [])
    cascade._ENSEMBLES.clear()
    out = tmp_path / "unpinned"
    assert main(["lambda-study", "--scenario", scn, "--out", str(out)]) == 0
    unpinned = json.loads((out / "metadata.json").read_text())
    assert unpinned["environment"]["blas_pin"] is None and unpinned["march_workers"] == 1
    for name in ("report.json", "lambda_cauchy_pairs.csv"):
        assert (out / name).read_bytes() == (tmp_path / "lambda-study" / name).read_bytes()


@pytest.mark.parametrize("edit", [
    ("master_seed = 2026", "master_seed = 5"),
    ("paths = 16", "paths = 8"),
    ("step_size = 0.03125", "step_size = 0.0625"),
    ("initial_amplitude = 1.0", "initial_amplitude = 0.5"),
], ids=["seed", "paths", "step", "scenario"])
def test_other_plan_marches_again(tmp_path, march_steps, edit):
    # same cells, another scenario: apriori must not take lambda-study's ensemble
    source = str(SCENARIO_DIR / "multiplicative_small.scn")
    text = Path(source).read_text()
    assert edit[0] in text.splitlines()
    scn = _write_scenario(tmp_path, text.replace(*edit))
    assert main(["lambda-study", "--scenario", source, "--out", str(tmp_path / "warm")]) == 0
    march_steps.clear()
    out = tmp_path / "apriori"
    assert main(["apriori", "--scenario", scn, "--out", str(out)]) == 0
    assert march_steps
    assert _ensemble(out) == "marched"


def test_apriori_passes_a_small_start(tmp_path):
    # a small start the noise drives up to a plateau is within the paper's
    # bound by eight orders of magnitude; apriori gates nothing else
    text = (SCENARIO_DIR / "additive_saturating.scn").read_text()
    for line in ("initial_amplitude = 1.2", "horizon = 0.5"):
        assert line in text.splitlines()
    text = text.replace("initial_amplitude = 1.2", "initial_amplitude = 0.1")
    scn = _write_scenario(tmp_path, text.replace("horizon = 0.5", "horizon = 2.0"))
    out = tmp_path / "out"
    assert main(["apriori", "--scenario", scn, "--out", str(out)]) == 0
    assert not (out / "failures.json").exists()


def test_cli_inequalities_success(tmp_path, capsys):
    scn = _write_scenario(tmp_path, _text())
    out = tmp_path / "out"
    assert main(["inequalities", "--scenario", scn, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    for name in ("psi_pointwise", "local_monotonicity", "noise_h2_h3"):
        assert f"[PASS] {name}" in printed
    assert (out / "variational_conditions.csv").exists()


def test_inequalities_writes_no_coercivity_without_constant(tmp_path, capsys):
    # saturating psi certifies no coercivity constant: the audit does not run,
    # so neither a check nor a table row stands for it
    out = tmp_path / "out"
    scn = str(SCENARIO_DIR / "additive_saturating.scn")
    assert main(["inequalities", "--scenario", scn, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert "coercivity" not in {c["name"] for c in report["checks"]}
    assert "coercivity_c" not in report["constants_used"]
    rows = (out / "variational_conditions.csv").read_text().splitlines()
    assert rows[0] == "condition,checked,min_slack,violations"
    assert [row.split(",")[0] for row in rows[1:]] == [
        "hemicontinuity", "local_monotonicity", "growth",
    ]
    assert capsys.readouterr().out.splitlines()[-1].startswith("inequalities: all checks passed")


def test_apriori_single_cell_gates_only_its_bound(tmp_path):
    # one lam cell leaves nothing to compare along the ladder: no uniformity check
    text = (SCENARIO_DIR / "multiplicative_small.scn").read_text()
    line = "lambda_ladder = 0.2 0.1 0.05 0.025"
    assert line in text.splitlines()
    scn = _write_scenario(tmp_path, text.replace(line, "lambda_ladder = 0.1"))
    out = tmp_path / "out"
    assert main(["apriori", "--scenario", scn, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert [c["name"] for c in report["checks"]] == ["derived_bound[lam=0.1]"]


def test_cli_usage_errors(tmp_path, capsys):
    missing = str(tmp_path / "nope.scn")
    assert main(["simulate", "--scenario", missing, "--out", str(tmp_path / "o")]) == 2
    assert "not found" in capsys.readouterr().err

    bad = _write_scenario(tmp_path, _text({"alpha": "1.5"}), name="bad.scn")
    assert main(["simulate", "--scenario", bad, "--out", str(tmp_path / "o")]) == 2
    assert "outside (0, 1]" in capsys.readouterr().err

    short = _write_scenario(tmp_path, _text({"lambda_ladder": "0.1"}), name="short.scn")
    assert main(["lambda-study", "--scenario", short, "--out", str(tmp_path / "o")]) == 2
    assert "at least two" in capsys.readouterr().err

    # the scenario file is a run's only configuration
    good = _write_scenario(tmp_path, _text(), name="good.scn")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", good, "--out", str(tmp_path / "o"), "--seed", "5"])
    assert exc.value.code == 2


def test_cli_numerical_failure(tmp_path, capsys):
    text = _text(
        {"psi": "saturating", "step_size": "0.5"},
        extra_lines=[
            "psi_param = 1.0",
            "inner_tolerance = 1e-14",
            "max_inner_iterations = 1",
        ],
    )
    scn = _write_scenario(tmp_path, text)
    # one path (simulate) and lockstep chunks of paths x cells (lambda-study)
    for command in ("simulate", "lambda-study"):
        assert main([command, "--scenario", scn, "--out", str(tmp_path / "o")]) == 3
        assert "numerical failure" in capsys.readouterr().err


def test_cli_non_finite_psi_fails_fast(tmp_path, capsys, monkeypatch):
    # a NaN from psi must end the run at once: no row may spend more than two
    # drift evaluations before the kernel gives up
    calls = []

    def nan_psi(r):
        calls.append(np.shape(r)[0])
        return np.full_like(np.asarray(r, dtype=float), np.nan)

    monkeypatch.setattr(nonlinearity, "_eval_soft_monotone", nan_psi)
    scn = _write_scenario(tmp_path, _text())
    for command in ("simulate", "lambda-study"):
        calls.clear()
        with np.errstate(invalid="ignore"):
            code = main([command, "--scenario", scn, "--out", str(tmp_path / command)])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err
        assert 1 <= len(calls) <= 2 and all(rows == calls[0] for rows in calls)


def test_zero_intensities_run_every_study(tmp_path, capsys):
    # zero intensities are a valid scenario: no jumps, zero noise constants
    scn = _write_scenario(tmp_path, _text({"noise_intensity": "0 0"}))
    constants = {}
    for command in cli.STUDIES:
        out = tmp_path / command
        assert main([command, "--scenario", scn, "--out", str(out)]) == 0, command
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        constants[command] = report["constants_used"]
    assert "all checks passed" in capsys.readouterr().out
    # one plan, one cell: every study reports the finest cell's constants
    assert list(constants) == ["simulate", "inequalities", "lambda-study", "eps-study",
                               "apriori", "uniqueness"]
    cell = constants["simulate"]
    assert (cell["epsilon"]["value"], cell["lam"]["value"]) == (0.1, 0.1)
    assert all(used == cell for used in constants.values())
    simulate = json.loads((tmp_path / "simulate" / "report.json").read_text())
    assert simulate["parameters"]["jumps"] == 0
    extra = json.loads((tmp_path / "inequalities" / "report.json").read_text())["extra"]
    assert extra["h2_empirical"] == 0.0 and extra["h3_empirical"] == 0.0


def test_cli_internal_error_exits_3(tmp_path, capsys, monkeypatch):
    # an unexpected exception is a failure of the run, not a failed check
    def broken(plan):
        raise TypeError("unexpected")

    monkeypatch.setattr(cli, "lambda_cauchy_study", broken)
    scn = _write_scenario(tmp_path, _text())
    assert main(["lambda-study", "--scenario", scn, "--out", str(tmp_path / "o")]) == 3
    assert "internal error: TypeError: unexpected" in capsys.readouterr().err


def test_numpy_scalars_serialize(tmp_path):
    report = StudyReport(
        kind="demo",
        checks=[PropertyCheck("ok", True)],
        extra={"count": np.int64(3), "flag": np.bool_(True), "value": np.float64(0.1)},
        tables=[Table("demo", ("n", "x"), ((np.int64(2), np.float64(0.1)),))],
    )
    report.write(tmp_path)
    extra = json.loads((tmp_path / "report.json").read_text())["extra"]
    assert extra == {"count": 3, "flag": True, "value": 0.1}
    assert (tmp_path / "demo.csv").read_text() == "n,x\n2,0.1\n"


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_non_finite_floats_serialize_as_null(tmp_path):
    report = StudyReport(
        kind="demo",
        checks=[PropertyCheck("broken", False)],
        extra={"nan": math.nan, "neg_inf": np.float64(-np.inf), "finite": 0.5},
    )
    report.write(tmp_path)
    extra = _strict_json((tmp_path / "report.json").read_text())["extra"]
    assert extra == {"nan": None, "neg_inf": None, "finite": 0.5}
    _strict_json((tmp_path / "failures.json").read_text())


def test_degenerate_fit_report_is_strict_json(tmp_path):
    # linear_decay's two-entry ladder gives one pair, so the fit is undefined
    out = tmp_path / "out"
    scn = str(SCENARIO_DIR / "linear_decay.scn")
    assert main(["lambda-study", "--scenario", scn, "--out", str(out)]) == 0
    slope = _strict_json((out / "report.json").read_text())["slope"]
    assert slope["significant"] is False and slope["slope"] is None


def test_run_studies_summarizes_null_slope(tmp_path):
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_studies.py"),
         str(SCENARIO_DIR / "linear_decay.scn"), "--only", "lambda-study",
         "--out", str(tmp_path)],
        capture_output=True, text=True, cwd=root,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert done.returncode == 0, done.stderr
    assert "lambda-study  exit 0" in done.stdout
    assert "ok, 1 check; slope n/a [n/a, n/a]" in done.stdout


def test_tracer_patches_resolve(tmp_path):
    # the benchmark's traced pass wraps levypme functions by name and then
    # summarizes its spans; each name it patches must exist, and a traced pass
    # of the six studies must still summarize.  A subprocess keeps the patches
    # out of this session.
    root = Path(__file__).resolve().parent.parent
    result = tmp_path / "result.json"
    studies = list(cli.STUDIES)
    done = subprocess.run(
        [sys.executable, "-B", str(root / "perfbench" / "child.py"),
         "--src", str(root / "src"), "--scenario", str(SCENARIO_DIR / "multiplicative_small.scn"),
         "--result", str(result), "--out", str(tmp_path / "runs"),
         "--studies", ",".join(studies), "--trace", str(tmp_path / "spans.npz")],
        capture_output=True, text=True, cwd=root,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert done.returncode == 0, done.stderr
    passed = json.loads(result.read_text())
    assert [run["exit"] for run in passed["runs"]] == [0] * 6, passed["runs"]
    assert passed["trace"]["layer"]["stepper.solve_regularized_path.calls"] == 1
    # the CLI reaches each cascade study through the patched module name: a
    # study bound at import would run untraced and leave its run no
    # cascade.study span (the tracer numbers runs from 1 in study order)
    spans = np.load(tmp_path / "spans.npz")
    names = list(spans["names"])
    assert "cascade.study" in names
    traced = set(spans["run"][spans["name"] == names.index("cascade.study")].tolist())
    assert traced == {studies.index(s) + 1 for s in
                      ("lambda-study", "eps-study", "apriori", "uniqueness")}


def test_cli_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency: with scipy made unimportable, the
    # studies still run and write their metadata
    root = Path(__file__).resolve().parent.parent
    scn = str(SCENARIO_DIR / "acceptance.scn")
    commands = ("simulate", "inequalities")
    code = (
        f"import sys; sys.modules['scipy'] = None; sys.path.insert(0, {str(root / 'src')!r}); "
        "from levypme.cli import main; "
        f"print([main([c, '--scenario', {scn!r}, '--out', {str(tmp_path)!r} + '/' + c]) "
        f"for c in {commands!r}])"
    )
    done = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0]", done.stdout + done.stderr
    for command in commands:
        assert (tmp_path / command / "metadata.json").exists(), command


def test_marching_imports_no_numpy_ma(tmp_path):
    # numpy 2.x's unique, percentile and median import numpy.ma on their
    # first call; simulate and lambda-study call none of them.  numpy 1.x
    # imports numpy.ma with numpy itself.
    root = Path(__file__).resolve().parent.parent
    scn = str(SCENARIO_DIR / "multiplicative_small.scn")
    code = (
        "import sys\nimport numpy\nloaded = 'numpy.ma' in sys.modules\n"
        "from levypme.cli import main\n"
        f"codes = [main([c, '--scenario', {scn!r}, '--out', {str(tmp_path)!r} + '/' + c])"
        " for c in ('simulate', 'lambda-study')]\n"
        "print(codes, loaded, 'numpy.ma' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert done.returncode == 0, done.stderr
    last = done.stdout.splitlines()[-1]
    if last.endswith("True True"):
        pytest.skip("this numpy imports numpy.ma with numpy")
    assert last == "[0, 0] False False", done.stdout


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "levypme" in capsys.readouterr().out


def test_failures_file_written(tmp_path):
    report = StudyReport(kind="demo", checks=[PropertyCheck("broken", False, "nope")])
    report.write(tmp_path)
    failures = json.loads((tmp_path / "failures.json").read_text())
    assert failures["failures"][0]["name"] == "broken"


def test_passing_rewrite_removes_failures_file(tmp_path):
    # a passing report written over a failing one leaves no failures.json
    # behind to contradict its report.json
    StudyReport(kind="demo", checks=[PropertyCheck("broken", False, "nope")]).write(tmp_path)
    assert (tmp_path / "failures.json").exists()
    StudyReport(kind="demo", checks=[PropertyCheck("broken", True)]).write(tmp_path)
    assert not (tmp_path / "failures.json").exists()
    assert json.loads((tmp_path / "report.json").read_text())["passed"] is True
