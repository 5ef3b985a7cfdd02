"""Monotone nonlinearities: frozen constants, pointwise inequality audits.

alpha_tilde is frozen from 1/(k+1) with the slope suprema k = 1 (identity,
saturating), k = scale (scaled_linear), k = 3/2 (soft_monotone, slope
1 + (1/2)/(1+r^2) maximal at r = 0) and k = 0 (zero).  soft_monotone's slope
tends to 1 at infinity, its declared slope infimum.
"""
import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levypme import nonlinearity
from levypme.nonlinearity import (
    PSI_KINDS,
    NonlinearityPsi,
    make_psi,
    verify_psi_inequalities,
)
from levypme.reporting import verdict


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
    conditions = verify_psi_inequalities(psi, sample_count=20_000, seed=5)
    assert [c.name for c in conditions] == ["pair", "self", "slope"]
    for cond in conditions:
        assert cond.passed
        assert cond.violation_count == 0
        assert cond.witness is None
        assert not (cond.min_slack < 0.0)


def test_zero_kind_saturates_self_inequality():
    # psi = 0 makes both slacks identically zero
    pair, self_, _ = verify_psi_inequalities(make_psi("zero"), sample_count=100, seed=1)
    assert pair.min_slack == 0.0
    assert self_.min_slack == 0.0


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
    conditions = verify_psi_inequalities(overstated, sample_count=2_000, seed=3)
    slope = conditions[2]
    assert not all(c.passed for c in conditions) and not slope.passed
    assert slope.min_slack < 0.0
    # the witness names a sampled pair whose difference quotient is below the claim
    named = re.fullmatch(r"\(r, r'\) \((\S+), (\S+)\): lhs=(\S+) rhs=(\S+)", slope.witness)
    r, r_prime, lhs, rhs = map(float, named.groups())
    psi = overstated.evaluate(np.array([r, r_prime]))
    assert (psi[0] - psi[1]) / (r - r_prime) < declared and rhs - lhs < 0.0
    assert rhs - lhs == slope.min_slack


def test_evaluate_preserves_shape():
    psi = make_psi("soft_monotone")
    grid = np.linspace(-2, 2, 12).reshape(3, 4)
    out = psi.evaluate(grid)
    assert out.shape == (3, 4)
    # monotone along each row
    assert np.all(np.diff(out, axis=1) > 0)


def _one_shot(psi, sample_count, seed):
    """The audit's draws and its three verdicts over all pairs at once, with
    the pair slacks: r, then r', from one uniform draw each on [-1e3, 1e3],
    then the five pinned pairs."""
    rng = np.random.default_rng(seed)
    r = np.r_[rng.uniform(-1e3, 1e3, sample_count), 0.0, 1e3, -1e3, 1e3, 0.5]
    r_prime = np.r_[rng.uniform(-1e3, 1e3, sample_count), 0.0, -1e3, 1e3, 1e3, 0.5]
    psi_r = psi.evaluate(r)
    diff_psi = psi_r - psi.evaluate(r_prime)

    def pair(i):
        return f"(r, r') ({float(r[i])!r}, {float(r_prime[i])!r})"

    lhs, rhs = psi.alpha_tilde * diff_psi * diff_psi, diff_psi * (r - r_prime)
    return (
        verdict("pair", lhs, rhs, pair),
        verdict("self", psi.alpha_tilde * psi_r * psi_r, psi_r * r,
                lambda i: f"r {float(r[i])!r}"),
        verdict("slope", 0.0, (diff_psi - psi.slope_min * (r - r_prime)) * (r - r_prime), pair),
    ), rhs - lhs


def _steep_above(r):
    # slope 3 above r = 500, declared with k = 1: the pair inequality fails there
    r = np.asarray(r, dtype=float)
    return np.where(r > 500.0, 3.0 * r, r)


def _nan_above(r):
    # also NaN above r = 999.95: some drawn pairs and three of the pinned ones
    r = np.asarray(r, dtype=float)
    return np.where(r > 999.95, np.nan, _steep_above(r))


@pytest.mark.parametrize("evaluate", [_steep_above, _nan_above])
@pytest.mark.parametrize("sample_count, block", [
    (30_000, None),  # 30,005 pairs: 3 full blocks of 8,192 and a partial one
    (8_187, None),  # exactly one full block
    (1_000, 64),  # 15 full blocks of 64 and one of 45
    (1, 64),  # the one drawn pair and the five pinned ones
])
def test_blocked_audit_is_the_one_shot_audit(monkeypatch, evaluate, sample_count, block):
    # the blocked audit's verdicts are the one-shot verdicts, counts, worst
    # slack and witness included, for a planted defect and for a psi whose
    # NaN slacks must still fail; where there are several blocks, the worst
    # pair (the first NaN one, if any) lies past the first
    if block is not None:
        monkeypatch.setattr(nonlinearity, "_AUDIT_BLOCK", block)
    block = nonlinearity._AUDIT_BLOCK
    psi = NonlinearityPsi("planted", evaluate, 1.0)
    expected, pair_slack = _one_shot(psi, sample_count, seed=1)
    got = verify_psi_inequalities(psi, sample_count=sample_count, seed=1)
    assert repr(got) == repr(expected)
    assert not got[0].passed
    assert math.isnan(got[0].min_slack) == (evaluate is _nan_above)
    if pair_slack.size > block:
        assert pair_slack.size % block != 0
        assert int(np.argmin(pair_slack)) >= block


@pytest.mark.parametrize("evaluate", [_steep_above, _nan_above])
@pytest.mark.parametrize("sample_count, blocks", [
    (61, [61, 5]),  # one partial block of drawn pairs, then the five pinned ones
    (63, [63, 5]),
    (64, [64, 5]),  # a full block of drawn pairs, then the five pinned ones
    (127, [64, 63, 5]),
])
def test_pinned_pairs_are_one_last_block(
        monkeypatch, evaluate, sample_count, blocks):
    # each block is drawn as it is judged, and the pinned pairs that follow
    # the draws are one last block of their own: the blocks psi sees are at
    # most 64 pairs, and joined they are the one-shot r and r', bit for bit
    # and in order; the verdicts are the one-shot ones
    monkeypatch.setattr(nonlinearity, "_AUDIT_BLOCK", 64)
    expected, _ = _one_shot(NonlinearityPsi("planted", evaluate, 1.0), sample_count, seed=2)
    seen = []  # psi's inputs: r, then r', of each block

    def recording(r):
        seen.append(np.array(r))
        return evaluate(r)

    got = verify_psi_inequalities(NonlinearityPsi("planted", recording, 1.0),
                                  sample_count=sample_count, seed=2)
    assert repr(got) == repr(expected)
    assert [r.size for r in seen[::2]] == [r.size for r in seen[1::2]] == blocks
    rng = np.random.default_rng(2)
    r = np.r_[rng.uniform(-1e3, 1e3, sample_count), 0.0, 1e3, -1e3, 1e3, 0.5]
    r_prime = np.r_[rng.uniform(-1e3, 1e3, sample_count), 0.0, -1e3, 1e3, 1e3, 0.5]
    assert np.array_equal(np.concatenate(seen[::2]), r)
    assert np.array_equal(np.concatenate(seen[1::2]), r_prime)


@pytest.mark.parametrize("psi", _all_kinds(), ids=lambda p: p.kind)
def test_audit_draws_are_the_one_shot_draws(psi):
    # the shipped kinds, at the default sample count: the same verdicts as
    # one uniform draw of r, one of r' and the pinned pairs, judged at once
    assert repr(verify_psi_inequalities(psi)) == repr(_one_shot(psi, 100_000, 41_038)[0])


@pytest.mark.parametrize("sample_count", [100_000, 1_000_000])
def test_psi_audit_peak_memory_bounded(sample_count):
    # each block of pairs is drawn as it is judged: the peak is a few
    # 64 KiB block-sized arrays whatever the sample count, where the whole
    # draw of r and r' at 10^5 samples is 1.6 MB
    block_bytes = nonlinearity._AUDIT_BLOCK * 8
    tracemalloc.start()
    try:
        verify_psi_inequalities(make_psi("soft_monotone"), sample_count=sample_count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * block_bytes, f"peak {peak / block_bytes:.2f} blocks"


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
