"""Every gate can fail: a defect planted in the test process makes the CLI
exit 1 with that check named in ``failures.json``.

The defects stand in for faults of the program: a psi whose declared
constants it does not honour (patched into ``scenario.build_psi``), an
understated closed-form noise constant, or a ``march`` whose states drift
from the scheme's (patched into ``cascade.march``).  ``solver_converged`` is
the one check no defect can fail: a solve that does not converge raises, and
the run exits 3 instead.
"""
import json
from pathlib import Path

import numpy as np
import pytest

from levypme import cascade, scenario
from levypme.cli import main
from levypme.noise import NoiseModel
from levypme.nonlinearity import NonlinearityPsi
from levypme.stepper import march

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _psi(evaluate, lipschitz_k, coercivity_c=None, linear_slope=None, slope_min=0.0):
    psi = NonlinearityPsi("planted", evaluate, lipschitz_k, coercivity_c, linear_slope, slope_min)
    return lambda monkeypatch: monkeypatch.setattr(scenario, "build_psi", lambda sc: psi)


# psi = 30r declared with Lipschitz constant 1
steep_psi = _psi(lambda r: 30.0 * np.asarray(r, dtype=float), 1.0, 1.0, slope_min=1.0)
# psi = -r: decreasing
anti_monotone_psi = _psi(lambda r: -np.asarray(r, dtype=float), 1.0)
# psi = r declared with coercivity constant 5
overstated_coercivity = _psi(lambda r: np.asarray(r, dtype=float), 1.0, 5.0, slope_min=1.0)
# psi = r / 2 declared exactly linear with slope 1
misdeclared_slope = _psi(lambda r: 0.5 * np.asarray(r, dtype=float), 1.0, linear_slope=1.0)


def understated_h3(monkeypatch):
    true_h3 = NoiseModel.h3_closed_form
    monkeypatch.setattr(NoiseModel, "h3_closed_form", lambda self, op: 0.5 * true_h3(self, op))


def _warped_march(transform):
    """Plant ``cascade.march`` yielding ``transform(i, rows, cells)`` of each
    state it yields: rows are (path, cell) rows in row order, a copy."""
    def plant(monkeypatch):
        def warped(*args):
            cells = len(args[5])
            for i, active, left, right in march(*args):
                left_out = transform(i, left.copy(), cells)
                right_out = left_out if right is left else transform(i, right.copy(), cells)
                yield i, active, left_out, right_out

        monkeypatch.setattr(cascade, "march", warped)
    return plant


def _by_cell(rows, cells):
    return rows.reshape(-1, cells, rows.shape[1])


def _offset_last_cell(i, rows, cells):
    _by_cell(rows, cells)[:, -1] += 0.1
    return rows


def _infinite_row(i, rows, cells):
    if i == 2:
        rows[-1] = np.inf
    return rows


def _grow_along_ladder(i, rows, cells):
    _by_cell(rows, cells)[:] *= (1.0 + 0.5 * np.arange(cells))[:, None]
    return rows


def _late_burst(i, rows, cells):
    return 4.0 * rows if i >= 12 else rows


def _offset_config_b(i, rows, cells):
    rows[1] += 1e-6
    return rows


def _grow_perturbation(i, rows, cells):
    rows[2] = rows[0] + (rows[2] - rows[0]) * 2.0**i
    return rows


SMALL = "multiplicative_small.scn"
DECAY = "linear_decay.scn"

GATES = [
    ("psi_pointwise", "inequalities", SMALL, steep_psi),
    ("hemicontinuity", "inequalities", SMALL, steep_psi),
    ("local_monotonicity", "inequalities", SMALL, anti_monotone_psi),
    ("coercivity", "inequalities", SMALL, overstated_coercivity),
    ("growth", "inequalities", SMALL, steep_psi),
    ("noise_h2_h3", "inequalities", SMALL, understated_h3),
    ("linear_recursion_oracle", "simulate", DECAY, misdeclared_slope),
    ("continuum_flow_bound", "simulate", DECAY, misdeclared_slope),
    ("pair_moments_finite", "lambda-study", SMALL, _warped_march(_infinite_row)),
    ("cauchy_rate", "lambda-study", SMALL, _warped_march(_offset_last_cell)),
    ("derived_bound", "apriori", SMALL, _warped_march(lambda i, rows, cells: 3.0 * rows)),
    ("uniform_in_lambda", "apriori", SMALL, _warped_march(_grow_along_ladder)),
    ("shape_fit", "apriori", SMALL, _warped_march(_late_burst)),
    ("solver_config_independent", "uniqueness", SMALL, _warped_march(_offset_config_b)),
    ("perturbation_contracts", "uniqueness", SMALL, _warped_march(_grow_perturbation)),
]


@pytest.mark.parametrize("check,command,scn,plant", GATES, ids=[g[0] for g in GATES])
def test_planted_defect_fails_gate(tmp_path, monkeypatch, check, command, scn, plant):
    plant(monkeypatch)
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        code = main([command, "--scenario", str(SCENARIO_DIR / scn), "--out", str(out)])
    assert code == 1
    failures = json.loads((out / "failures.json").read_text())["failures"]
    failed = {f["name"].partition("[")[0] for f in failures}
    assert check in failed, failed
    if command == "inequalities":
        # an audit's failure names the sample that violates it
        detail = next(f["detail"] for f in failures if f["name"] == check)
        assert "witness" in detail, detail


@pytest.mark.parametrize("command,scn", sorted({(g[1], g[2]) for g in GATES}))
def test_gates_pass_without_defect(tmp_path, command, scn):
    # the same runs with nothing planted pass, so each failure above is the defect's
    out = tmp_path / "out"
    assert main([command, "--scenario", str(SCENARIO_DIR / scn), "--out", str(out)]) == 0
    assert not (out / "failures.json").exists()
