"""Variational-condition audits and the constants derived for them.

theta is frozen from theta^2 = c / (2 k^2 (1-eps) + c): identity psi at
eps = 1/2 gives theta^2 = 1/(2*1*0.5 + 1) = 1/2.  The monotonicity shift is
2 (1-eps)^2 / alpha_tilde + h3.  The reports' record of these constants is
tested with the cascade (``test_constants_used_layout``).
"""
import math
import tracemalloc

import numpy as np
import pytest

from levypme import operators, variational
from levypme.nonlinearity import make_psi
from levypme.operators import build_fractional_laplacian_torus
from levypme.stepper import drift_rows
from levypme.variational import check_variational_conditions, monotonicity_shift, theta

from conftest import additive_model, multiplicative_model, spectrum_from_eigenvalues, zero_model

EPSILONS = (0.01, 0.1, 0.5)
PSIS = [
    ("identity", {}),
    ("scaled_linear", {"scale": 2.0}),
    ("saturating", {"cap": 1.0}),
    ("soft_monotone", {}),
    ("zero", {}),
]


@pytest.mark.parametrize("noise", ["zero", "additive", "multiplicative"])
@pytest.mark.parametrize("kind,kwargs", PSIS, ids=[p[0] for p in PSIS])
@pytest.mark.parametrize("epsilon", EPSILONS)
def test_all_conditions_pass(torus_small, noise, kind, kwargs, epsilon):
    model = {
        "zero": lambda: zero_model(),
        "additive": lambda: additive_model(torus_small),
        "multiplicative": lambda: multiplicative_model(),
    }[noise]()
    psi = make_psi(kind, **kwargs)
    conditions, _ = check_variational_conditions(
        torus_small, psi, model, epsilon, sample_count=300, seed=11
    )
    assert all(c.passed for c in conditions), [
        (c.name, c.violation_count, c.witness) for c in conditions if not c.passed
    ]
    # coercivity is audited exactly when psi certifies a constant for it
    assert {c.name for c in conditions} == {
        "hemicontinuity", "local_monotonicity", "growth",
    } | ({"coercivity"} if psi.coercivity_c is not None else set())


def test_theta_frozen():
    assert theta(make_psi("identity"), 0.5) == math.sqrt(0.5)
    # no coercivity constant -> theta defaults to 1
    psi_zero = make_psi("zero")
    assert theta(psi_zero, 0.5) == 1.0
    assert psi_zero.coercivity_c is None


def test_monotonicity_shift_frozen():
    assert monotonicity_shift(make_psi("identity"), 0.5, 0.0) == pytest.approx(1.0, rel=1e-15)
    shift = monotonicity_shift(make_psi("soft_monotone"), 0.1, 0.0225)
    assert shift == pytest.approx(4.0725, rel=1e-14)


def test_coercivity_skip_policy(torus_small):
    # a psi without a coercivity constant gets no coercivity result at all,
    # rather than a passing placeholder
    for kind, kwargs, skipped in [
        ("identity", {}, False),
        ("scaled_linear", {"scale": 0.5}, False),
        ("soft_monotone", {}, False),
        ("saturating", {"cap": 1.0}, True),
        ("zero", {}, True),
    ]:
        conditions, _ = check_variational_conditions(
            torus_small, make_psi(kind, **kwargs), zero_model(), 0.2,
            sample_count=50, seed=2,
        )
        by_name = {c.name: c for c in conditions}
        if skipped:
            assert "coercivity" not in by_name
        else:
            assert by_name["coercivity"].checked > 0


def test_condition_accessor(torus_small):
    # the conditions come in one fixed order, the rows of the CLI's table
    conditions, _ = check_variational_conditions(
        torus_small, make_psi("identity"), zero_model(), 0.2, sample_count=50, seed=3
    )
    assert [c.name for c in conditions] == [
        "hemicontinuity", "local_monotonicity", "coercivity", "growth",
    ]


def test_noise_kind_labels(torus_small):
    # multiplicative noise has a gap constant, which the monotonicity shift carries
    model = multiplicative_model()
    conditions, _ = check_variational_conditions(
        torus_small, make_psi("identity"), model, 0.2, sample_count=50, seed=3,
    )
    assert all(c.passed for c in conditions)
    assert model.h3_closed_form(torus_small) > 0.0


def test_epsilon_validation(torus_small):
    psi = make_psi("identity")
    with pytest.raises(ValueError):
        check_variational_conditions(torus_small, psi, zero_model(), 0.0)
    with pytest.raises(ValueError):
        check_variational_conditions(torus_small, psi, zero_model(), 1.0)


def test_sample_count_floor(torus_small):
    with pytest.raises(ValueError):
        check_variational_conditions(
            torus_small, make_psi("identity"), zero_model(), 0.2, sample_count=5
        )


def test_min_slack_reported_nonnegative(torus_small):
    conditions, _ = check_variational_conditions(
        torus_small, make_psi("soft_monotone"), multiplicative_model(), 0.1,
        sample_count=200, seed=8,
    )
    for cond in conditions:
        assert cond.min_slack >= 0.0
        assert np.isfinite(cond.min_slack)


def test_block_evaluation_matches_one_block(torus_small, monkeypatch):
    # 1,024 rows per block on the 17 modes: 2,500 samples span three blocks,
    # the last one partial; one block holding every row must give the same
    # results to the last bit.  So must 16-row blocks of 300 samples on 513
    # modes, whose transforms are real FFTs, against one block of 512 rows
    torus_wide = build_fractional_laplacian_torus(256, 0.5)
    assert torus_wide.transform == "fft"
    for op, count, rows, whole_rows in [(torus_small, 2_500, 1_024, 4_096),
                                        (torus_wide, 300, 16, 512)]:
        args = (op, make_psi("soft_monotone"), multiplicative_model(), 0.1)
        monkeypatch.setattr(operators, "_BLOCK_VALUES", rows * op.mode_count)
        blocked, _ = check_variational_conditions(*args, sample_count=count, seed=5)
        monkeypatch.setattr(operators, "_BLOCK_VALUES", whole_rows * op.mode_count)
        whole, _ = check_variational_conditions(*args, sample_count=count, seed=5)
        assert {c.name: c for c in blocked}["coercivity"].checked == count
        assert blocked == whole


def test_audit_evaluates_each_state_once(torus_small, monkeypatch):
    # hemicontinuity transforms each of u, v and dual_factor * w once per
    # triple and pairs its 7 iotas on the nodal values, with no transform
    # back; the pairs (u1, u2) go through the drift kernel once each (one
    # transform each way) and feed monotonicity, coercivity and growth alike
    forward, backward = [], []
    cls = operators.OperatorSpectrum
    to_physical, to_spectral = cls.to_physical, cls.to_spectral

    def counting_physical(self, coefficients):
        forward.append(np.shape(coefficients)[0])
        return to_physical(self, coefficients)

    def counting_spectral(self, values):
        backward.append(np.shape(values)[0])
        return to_spectral(self, values)

    monkeypatch.setattr(cls, "to_physical", counting_physical)
    monkeypatch.setattr(cls, "to_spectral", counting_spectral)
    for sample_count in (50, 2_500):
        forward.clear()
        backward.clear()
        conditions, _ = check_variational_conditions(
            torus_small, make_psi("soft_monotone"), multiplicative_model(), 0.1,
            sample_count=sample_count, seed=4,
        )
        n_h = max(sample_count // 10, 10)
        assert sum(forward) == 3 * n_h + 2 * sample_count
        assert sum(backward) == 2 * sample_count
        checked = {c.name: c.checked for c in conditions}
        for name in ("local_monotonicity", "coercivity", "growth"):
            assert checked[name] == sample_count


@pytest.mark.parametrize("spectrum", ["torus", "torus-fft", "diagonal"])
def test_nodal_pairing_matches_drift_kernel(spectrum):
    # the hemicontinuity pairing, taken on nodal values, is the pairing of the
    # drift kernel's coefficient rows with dual_factor * w, for any basis and
    # weights, and on 513 modes, whose transforms are real FFTs
    op = {
        "torus": lambda: build_fractional_laplacian_torus(12, 0.6, length=3.0),
        "torus-fft": lambda: build_fractional_laplacian_torus(256, 0.6, length=3.0),
        "diagonal": lambda: spectrum_from_eigenvalues([0.0, 0.5, 2.0, 3.5, 7.0]),
    }[spectrum]()
    assert op.transform == ("fft" if spectrum == "torus-fft" else "dense")
    psi = make_psi("soft_monotone")
    dual_factor = -(op.eigenvalues + 0.1) / (1.0 + op.eigenvalues)
    u, v, w = operators.random_rows(op, np.random.default_rng(6), (3, 40), scale=3.0)
    nodal = variational._hemicontinuity_pairings(op, psi, u, v, w, dual_factor)
    assert nodal.shape == (variational._IOTAS.size, 40)
    for iota, pairing in zip(variational._IOTAS, nodal):
        kernel = (drift_rows(op, psi, u + iota * v) * dual_factor * w).sum(1)
        assert np.abs(pairing - kernel).max() <= 1e-12 * np.abs(kernel).max()


def test_audit_peak_memory_bounded():
    # every draw and every per-row evaluation runs a block of samples at a
    # time, so the default 10,000-sample audit never holds a (samples x modes)
    # array: its peak stays below half of one
    op = build_fractional_laplacian_torus(128, 0.5)
    full = 10_000 * op.mode_count * 8
    tracemalloc.start()
    try:
        check_variational_conditions(op, make_psi("soft_monotone"), multiplicative_model(), 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * full, f"peak {peak / full:.2f} full arrays"
