"""Compensated-Poisson driver: path law, martingale property, closed forms.

Frozen constants: for multiplicative sigmas (0.1, -0.05) with intensities
(2, 1) the growth constant is sum sigma^2 nu = 0.01*2 + 0.0025*1 = 0.0225, in
any of the norms.
"""
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from levypme.noise import (
    AdditiveCoefficient,
    MultiplicativeCoefficient,
    NoiseModel,
    NoisePath,
    ZeroCoefficient,
    audit_h2_h3,
    export_noise_path,
    noise_mass_rows,
    parse_noise_path,
    path_seed,
    sample_noise_path,
)
from levypme.operators import random_field, smooth_field
from levypme.spaces import F_STAR, L2, norm, squared_norm_rows

from conftest import additive_model, multiplicative_model, zero_model


def test_path_sampling_deterministic(torus_small):
    model = multiplicative_model()
    a = sample_noise_path(model, 2.0, 123)
    b = sample_noise_path(model, 2.0, 123)
    buf_a, buf_b = io.StringIO(), io.StringIO()
    export_noise_path(a, model, buf_a)
    export_noise_path(b, model, buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()


def test_path_seed_spreads_streams():
    seeds = {path_seed(2026, i) for i in range(64)}
    assert len(seeds) == 64
    assert path_seed(2026, 3) == path_seed(2026, 3)
    assert path_seed(2026, 3) != path_seed(2027, 3)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), horizon=st.floats(0.1, 5.0))
def test_path_times_sorted_in_window(seed, horizon):
    model = multiplicative_model(sigmas=(0.3, -0.2), intensities=(2.0, 1.0))
    path = sample_noise_path(model, horizon, seed)
    if path.jump_count:
        assert path.times[0] > 0.0
        assert path.times[-1] <= horizon
        assert np.all(np.diff(path.times) > 0.0)
    assert np.all((path.mark_indices >= 0) & (path.mark_indices < model.mark_count))


def test_jump_count_distribution_poisson():
    # total jumps per unit horizon ~ Poisson(3) for intensities (2, 1)
    model = multiplicative_model(sigmas=(0.1, -0.05), intensities=(2.0, 1.0))
    counts = np.array([
        sample_noise_path(model, 1.0, path_seed(314, i)).jump_count
        for i in range(10_000)
    ])
    edges = np.arange(12)
    observed = np.array([np.sum(counts == k) for k in edges])
    observed = np.append(observed, np.sum(counts >= 12))
    pmf = stats.poisson.pmf(edges, 3.0)
    expected = counts.size * np.append(pmf, 1.0 - pmf.sum())
    result = stats.chisquare(observed, expected)
    assert result.pvalue > 0.01, f"Poisson GOF rejected: p={result.pvalue:.4f}"


def test_compensator_rate_closed_form(torus_small):
    model = additive_model(torus_small, intensities=(3.0, 1.5))
    f0, f1 = model.coefficient.fields
    rate = model.compensator_rate(torus_small, np.zeros(torus_small.mode_count))
    assert np.allclose(
        rate, 3.0 * f0 + 1.5 * f1, atol=1e-14
    )


def _compensated_increment(model, path, u, horizon):
    # Integral of f dN-tilde over (0, horizon] with every jump taken at u.
    total = -horizon * model.compensator_rows(u)
    for j in path.mark_indices:
        total = total + model.jump_rows(u, int(j))
    return total


def test_rows_api_matches_fields(torus_small):
    rng = np.random.default_rng(8)
    u = rng.standard_normal((5, torus_small.mode_count))
    for model in (zero_model(), additive_model(torus_small), multiplicative_model()):
        for j in range(model.mark_count):
            jumps = model.jump_rows(u, j)
            assert jumps.shape == u.shape
            for row, jump in zip(u, jumps):
                field = model.jump_field(torus_small, 0.0, torus_small.field_from_coefficients(row), j)
                assert np.array_equal(field, jump)
        rates = model.compensator_rows(u)
        for row, rate in zip(u, rates):
            field = model.compensator_rate(torus_small, torus_small.field_from_coefficients(row))
            assert np.array_equal(field, rate)


def test_noise_mass_rows_closed_forms(torus_small):
    # multiplicative: int ||sigma u||^2 nu = h2 ||u||^2 and the gap mass is
    # h3 ||u - v||^2; additive: the gap mass vanishes
    rng = np.random.default_rng(9)
    u, v = rng.standard_normal((2, 6, torus_small.mode_count))
    model = multiplicative_model()
    h2 = model.h2_closed_form(torus_small)
    assert np.allclose(noise_mass_rows(torus_small, model, u),
                       h2 * squared_norm_rows(torus_small, u, F_STAR), rtol=1e-14)
    assert np.allclose(noise_mass_rows(torus_small, model, u, v),
                       h2 * squared_norm_rows(torus_small, u - v, F_STAR), rtol=1e-14)
    assert np.all(noise_mass_rows(torus_small, additive_model(torus_small), u, v) == 0.0)


def _increment_sample(op, model, horizon, master, count):
    u0 = smooth_field(op, amplitude=1.0)
    rows = np.empty((count, op.mode_count))
    for i in range(count):
        path = sample_noise_path(model, horizon, path_seed(master, i))
        rows[i] = _compensated_increment(model, path, u0, horizon)
    return rows


def test_increment_mean_is_zero(torus_small):
    # compensation kills the drift: per-mode z-scores stay small at M = 4096
    model = multiplicative_model(sigmas=(0.3, -0.2), intensities=(2.0, 1.0))
    rows = _increment_sample(torus_small, model, 1.0, 99, 4096)
    mean = rows.mean(axis=0)
    stderr = rows.std(axis=0, ddof=1) / math.sqrt(rows.shape[0])
    live = stderr > 0
    z = np.abs(mean[live]) / stderr[live]
    assert z.max() < 4.0, f"max |z| = {z.max():.3f}"


def test_increment_rms_decays_like_root_n(torus_small):
    model = multiplicative_model(sigmas=(0.3, -0.2), intensities=(2.0, 1.0))
    rows = _increment_sample(torus_small, model, 1.0, 99, 4096)
    sizes = np.array([64, 256, 1024, 4096])
    rms = []
    for s in sizes:
        batches = rows[: (rows.shape[0] // s) * s].reshape(-1, s, rows.shape[1])
        means = batches.mean(axis=1)
        rms.append(np.sqrt(np.mean(np.sum(means * means, axis=1))))
    slope = np.polyfit(np.log(sizes), np.log(rms), 1)[0]
    assert -0.65 < slope < -0.35, f"batch-mean RMS slope {slope:.4f}"


@pytest.mark.parametrize(
    "model_factory", ["zero", "additive", "multiplicative"]
)
def test_hypothesis_audit_passes(torus_small, model_factory):
    model = {
        "zero": lambda: zero_model(),
        "additive": lambda: additive_model(torus_small),
        "multiplicative": lambda: multiplicative_model(),
    }[model_factory]()
    report = audit_h2_h3(torus_small, model, sample_count=500, seed=7)
    assert report.passed, report.witness
    assert report.h2_empirical <= report.h2_closed_form * (1 + 1e-9) + 1e-15
    assert report.h3_empirical <= report.h3_closed_form * (1 + 1e-9) + 1e-15


def test_h2_closed_form_frozen(torus_small):
    model = multiplicative_model(sigmas=(0.1, -0.05), intensities=(2.0, 1.0))
    assert model.h2_closed_form(torus_small) == pytest.approx(0.0225, rel=1e-15)
    assert model.h2_closed_form(torus_small, kind=L2) == pytest.approx(0.0225, rel=1e-15)
    assert model.h3_closed_form(torus_small) == pytest.approx(0.0225, rel=1e-15)


def test_h2_norm_dependence_additive(torus_small):
    # scalar sigmas are norm-blind; additive fields are not
    model = additive_model(torus_small)
    in_dual = model.h2_closed_form(torus_small, kind=F_STAR)
    in_l2 = model.h2_closed_form(torus_small, kind=L2)
    assert in_l2 > in_dual  # the dual norm shrinks every nonconstant mode
    f0, f1 = model.coefficient.fields
    assert in_l2 == pytest.approx(
        3.0 * norm(torus_small, f0, L2) ** 2 + 1.5 * norm(torus_small, f1, L2) ** 2
    )


def test_additive_h3_vanishes(torus_small):
    assert additive_model(torus_small).h3_closed_form(torus_small) == 0.0
    assert zero_model().h3_closed_form(torus_small) == 0.0


def test_export_parse_round_trip(torus_small):
    model = multiplicative_model()
    path = sample_noise_path(model, 1.5, 321)
    buf = io.StringIO()
    export_noise_path(path, model, buf)
    back = parse_noise_path(buf.getvalue(), model)
    assert np.array_equal(back.times, path.times)
    assert np.array_equal(back.mark_indices, path.mark_indices)
    assert back.seed == path.seed
    assert back.horizon == path.horizon


def test_parse_rejects_malformed():
    model = multiplicative_model()
    with pytest.raises(ValueError):
        parse_noise_path("time,mark\n0.5,up\n", model)


def test_noise_path_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        NoisePath(np.array([0.5, 0.5]), np.array([0, 1]), 0, 1.0)
    with pytest.raises(ValueError, match=r"\(0, horizon\]"):
        NoisePath(np.array([0.5, 1.2]), np.array([0, 1]), 0, 1.0)
    with pytest.raises(ValueError, match="equal length"):
        NoisePath(np.array([0.5]), np.array([0, 1]), 0, 1.0)
    with pytest.raises(ValueError, match="horizon"):
        NoisePath(np.empty(0), np.empty(0, dtype=int), 0, 0.0)


def test_model_validation(torus_small):
    with pytest.raises(ValueError, match="equal length"):
        NoiseModel(("a", "b"), np.array([1.0]), ZeroCoefficient())
    with pytest.raises(ValueError, match="nonnegative"):
        NoiseModel(("a",), np.array([-1.0]), ZeroCoefficient())
    with pytest.raises(ValueError, match="one field per mark"):
        NoiseModel(
            ("a", "b"),
            np.array([1.0, 1.0]),
            AdditiveCoefficient((smooth_field(torus_small),)),
        )
    with pytest.raises(ValueError, match="one sigma per mark"):
        NoiseModel(("a", "b"), np.array([1.0, 1.0]), MultiplicativeCoefficient((0.1,)))


def test_zero_model_has_no_jumps(torus_small):
    model = zero_model()
    path = sample_noise_path(model, 1.0, 44)
    assert path.jump_count == 0
    u = random_field(torus_small, np.random.default_rng(0))
    inc = _compensated_increment(model, path, u, 1.0)
    assert norm(torus_small, inc, L2) == 0.0
