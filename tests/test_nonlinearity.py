"""Monotone nonlinearities: frozen constants, pointwise inequality audits.

alpha_tilde is frozen from 1/(k+1) with the slope suprema k = 1 (identity,
saturating), k = scale (scaled_linear), k = 3/2 (soft_monotone, slope
1 + (1/2)/(1+r^2) maximal at r = 0) and k = 0 (zero).  soft_monotone's slope
tends to 1 at infinity, its declared slope infimum.
"""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levypme.nonlinearity import (
    PSI_KINDS,
    NonlinearityPsi,
    make_psi,
    verify_psi_inequalities,
)


def _all_kinds():
    return [
        make_psi("identity"),
        make_psi("scaled_linear", scale=2.0),
        make_psi("saturating", cap=1.0),
        make_psi("soft_monotone"),
        make_psi("zero"),
    ]


def test_alpha_tilde_frozen():
    expected = {
        "identity": 0.5,
        "scaled_linear": 1.0 / 3.0,
        "saturating": 0.5,
        "soft_monotone": 0.4,
        "zero": 1.0,
    }
    for psi in _all_kinds():
        assert psi.alpha_tilde == pytest.approx(expected[psi.kind], rel=1e-15)
        assert psi.alpha_tilde == pytest.approx(1.0 / (psi.lipschitz_k + 1.0))


def test_evaluate_frozen_points():
    assert make_psi("identity").evaluate(np.array([-2.0, 3.0])).tolist() == [-2.0, 3.0]
    assert make_psi("scaled_linear", scale=2.0).evaluate(np.array([1.5])).tolist() == [3.0]
    sat = make_psi("saturating", cap=1.0)
    assert sat.evaluate(np.array([3.0, -2.0, 0.25])).tolist() == [1.0, -1.0, 0.25]
    soft = make_psi("soft_monotone")
    assert soft.evaluate(np.array([1.0]))[0] == pytest.approx(1.0 + np.pi / 8, rel=1e-15)
    assert make_psi("zero").evaluate(np.array([7.0])).tolist() == [0.0]


def test_saturating_pair_slack_by_hand():
    # r = 3, r' = -2, cap 1: (psi diff) = 2, (r diff) = 5,
    # pair slack = 2*5 - 0.5*4 = 8; self slack at r = 3 is 3 - 0.5 = 2.5
    psi = make_psi("saturating", cap=1.0)
    d = psi.evaluate(np.array([3.0]))[0] - psi.evaluate(np.array([-2.0]))[0]
    assert d == 2.0
    assert d * 5.0 - psi.alpha_tilde * d * d == 8.0
    p3 = psi.evaluate(np.array([3.0]))[0]
    assert p3 * 3.0 - psi.alpha_tilde * p3 * p3 == 2.5


@pytest.mark.parametrize("psi", _all_kinds(), ids=lambda p: p.kind)
def test_inequality_audit_zero_violations(psi):
    report = verify_psi_inequalities(psi, sample_count=20_000, seed=5)
    assert report.passed
    assert report.violation_count == 0
    assert report.violation_witness is None
    assert not (report.min_pair_slack < 0.0)
    assert not (report.min_self_slack < 0.0)
    assert not (report.min_slope_slack < 0.0)


def test_zero_kind_saturates_self_inequality():
    # psi = 0 makes both slacks identically zero
    report = verify_psi_inequalities(make_psi("zero"), sample_count=100, seed=1)
    assert report.min_pair_slack == 0.0
    assert report.min_self_slack == 0.0


def test_make_psi_validation():
    with pytest.raises(ValueError):
        make_psi("scaled_linear")
    with pytest.raises(ValueError):
        make_psi("scaled_linear", scale=0.0)
    with pytest.raises(ValueError):
        make_psi("saturating")
    with pytest.raises(ValueError):
        make_psi("saturating", cap=-1.0)
    with pytest.raises(ValueError, match="unknown nonlinearity"):
        make_psi("cubic")


def test_dataclass_invariants_enforced():
    with pytest.raises(ValueError):
        NonlinearityPsi("bad", lambda r: r, -1.0)
    with pytest.raises(ValueError):
        NonlinearityPsi("bad", lambda r: r, 1.0, coercivity_c=0.0)
    for slope_min in (-0.1, 1.5):  # outside [0, lipschitz_k]
        with pytest.raises(ValueError):
            NonlinearityPsi("bad", lambda r: r, 1.0, slope_min=slope_min)


def test_linear_slope_tags():
    assert make_psi("identity").linear_slope == 1.0
    assert make_psi("scaled_linear", scale=0.7).linear_slope == 0.7
    assert make_psi("zero").linear_slope == 0.0
    assert make_psi("saturating", cap=2.0).linear_slope is None
    assert make_psi("soft_monotone").linear_slope is None
    # slope infima: only soft_monotone declares one above 0
    assert [psi.slope_min for psi in _all_kinds()] == [0.0, 0.0, 0.0, 1.0, 0.0]


@pytest.mark.parametrize("kind,kwargs,declared", [
    ("saturating", {"cap": 1.0}, 0.5),  # flat beyond the cap: the infimum is 0
    ("soft_monotone", {}, 1.1),  # slope 1 + 1/(2 (1 + r^2)) -> 1 at infinity
])
def test_overstated_slope_min_fails_audit(kind, kwargs, declared):
    overstated = dataclasses.replace(make_psi(kind, **kwargs), slope_min=declared)
    report = verify_psi_inequalities(overstated, sample_count=2_000, seed=3)
    assert not report.passed
    assert report.min_slope_slack < 0.0
    # the witness is a sampled pair whose difference quotient is below the claim
    r, r_prime, slack = report.violation_witness
    psi = overstated.evaluate(np.array([r, r_prime]))
    assert (psi[0] - psi[1]) / (r - r_prime) < declared and slack < 0.0


def test_evaluate_preserves_shape():
    psi = make_psi("soft_monotone")
    grid = np.linspace(-2, 2, 12).reshape(3, 4)
    out = psi.evaluate(grid)
    assert out.shape == (3, 4)
    # monotone along each row
    assert np.all(np.diff(out, axis=1) > 0)


def test_verify_rejects_empty_sample():
    with pytest.raises(ValueError):
        verify_psi_inequalities(make_psi("identity"), sample_count=0)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(PSI_KINDS),
    r=st.floats(-1e6, 1e6),
    r_prime=st.floats(-1e6, 1e6),
)
def test_pointwise_inequalities_property(kind, r, r_prime):
    psi = {
        "identity": make_psi("identity"),
        "scaled_linear": make_psi("scaled_linear", scale=2.0),
        "saturating": make_psi("saturating", cap=1.0),
        "soft_monotone": make_psi("soft_monotone"),
        "zero": make_psi("zero"),
    }[kind]
    pr, prp = psi.evaluate(np.array([r]))[0], psi.evaluate(np.array([r_prime]))[0]
    d = pr - prp
    assert not (d * (r - r_prime) - psi.alpha_tilde * d * d < 0.0)
    assert not (pr * r - psi.alpha_tilde * pr * pr < 0.0)
