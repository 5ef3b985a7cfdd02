"""Compensated-Poisson driver: path law, martingale property, closed forms.

Frozen constants: for multiplicative sigmas (0.1, -0.05) with intensities
(2, 1) the growth constant is sum sigma^2 nu = 0.01*2 + 0.0025*1 = 0.0225, in
any of the norms.
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levypme import operators
from levypme.noise import (
    NoiseModel,
    NoisePath,
    audit_h2_h3,
    export_noise_path,
    noise_mass_rows,
    path_seed,
    sample_noise_path,
)
from levypme.operators import (
    build_fractional_laplacian_torus,
    random_field,
    random_rows,
    smooth_field,
)
from levypme.spaces import F_STAR, L2, norm, squared_norm_rows

from conftest import _within, additive_model, multiplicative_model, zero_model


def test_path_sampling_deterministic(torus_small, tmp_path):
    model = multiplicative_model()
    a = sample_noise_path(model, 2.0, 123)
    b = sample_noise_path(model, 2.0, 123)
    export_noise_path(a, model, tmp_path / "a.csv")
    export_noise_path(b, model, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_path_sampling_frozen():
    # a fixed seed gives byte-identical reports only while it draws the same
    # path: seed 0 on intensities (2, 1) over (0, 1]
    path = sample_noise_path(multiplicative_model(), 1.0, 0)
    assert path.times.tolist() == [
        0.06492757621223177, 0.18414644587846785, 0.18672976079972758,
        0.9834723644714709, 0.9972614998298519,
    ]
    assert path.mark_indices.tolist() == [1, 1, 0, 0, 1]


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
    assert np.all((path.mark_indices >= 0) & (path.mark_indices < len(model.marks)))


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
    pmf = np.array([math.exp(-3.0) * 3.0**k / math.factorial(k) for k in edges])
    expected = counts.size * np.append(pmf, 1.0 - pmf.sum())
    statistic = float(np.sum((observed - expected) ** 2 / expected))
    # chi-square survival function for 2m = 12 degrees of freedom (13 bins):
    # exactly e^(-x/2) sum_{i<m} (x/2)^i / i!
    half = statistic / 2.0
    pvalue = math.exp(-half) * sum(half**i / math.factorial(i) for i in range(6))
    assert pvalue > 0.01, f"Poisson GOF rejected: p={pvalue:.4f}"


def test_compensator_rate_closed_form(torus_small):
    model = additive_model(torus_small, intensities=(3.0, 1.5))
    f0, f1 = model.fields
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
        for j in range(len(model.marks)):
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
    conditions, _ = audit_h2_h3(torus_small, model, sample_count=500)
    h3, h2, h2_l2 = conditions
    assert all(c.passed for c in conditions), [c.witness for c in conditions]
    assert [c.name for c in conditions] == ["H3", "H2", "H2 (L2)"]
    assert h2.max_lhs <= model.h2_closed_form(torus_small) * (1 + 1e-9) + 1e-15
    assert h2_l2.max_lhs <= model.h2_closed_form(torus_small, L2) * (1 + 1e-9) + 1e-15
    assert h3.max_lhs <= model.h3_closed_form(torus_small) * (1 + 1e-9) + 1e-15


class HalvedL2(NoiseModel):
    """A model whose advertised L2 growth constant is half the true one."""

    def h2_closed_form(self, op, kind=F_STAR):
        closed = super().h2_closed_form(op, kind)
        return closed / 2.0 if kind == L2 else closed


def halved_l2(model):
    return HalvedL2(model.marks, model.intensities, model.fields, model.sigmas)


@pytest.mark.parametrize("model_factory", ["additive", "multiplicative"])
def test_hypothesis_audit_is_one_draw_at_any_block_size(torus_small, monkeypatch, model_factory):
    # 500 samples in blocks of 7 or of 64 (the last one partial) must give,
    # bit for bit, the ratios of one (500, 2, modes) draw taken whole; with
    # the L2 constant halved every sample past it counts as a violation
    model = {
        "additive": lambda: additive_model(torus_small),
        "multiplicative": lambda: multiplicative_model(),
    }[model_factory]()
    op = torus_small
    pairs = random_rows(op, np.random.default_rng(7), (500, 2), scale=2.0)
    u1, u2 = pairs[:, 0], pairs[:, 1]
    h2 = noise_mass_rows(op, model, u1) / (1.0 + squared_norm_rows(op, u1, F_STAR))
    h2_l2 = noise_mass_rows(op, model, u1, kind=L2) / (1.0 + squared_norm_rows(op, u1))
    gap_sq = squared_norm_rows(op, u1 - u2, F_STAR)
    h3 = np.divide(noise_mass_rows(op, model, u1, u2), gap_sq,
                   out=np.zeros(500), where=gap_sq > 0.0)
    halved = model.h2_closed_form(op, L2) / 2.0
    over_halved = int(np.count_nonzero(h2_l2 > halved * (1.0 + 1e-9) + 1e-15))
    for samples_per_block in (7, 64):
        monkeypatch.setattr(operators, "_BLOCK_VALUES", samples_per_block * op.mode_count)
        conditions, _ = audit_h2_h3(op, model, sample_count=500)
        audit_h3, audit_h2, audit_h2_l2 = conditions
        assert audit_h2.max_lhs == h2.max()
        assert audit_h2_l2.max_lhs == h2_l2.max()
        assert audit_h3.max_lhs == h3.max()
        assert [c.violation_count for c in conditions] == [0, 0, 0]
        conditions, _ = audit_h2_h3(op, halved_l2(model), sample_count=500)
        assert [c.violation_count for c in conditions] == [0, 0, over_halved]


@pytest.mark.parametrize("sample_count", [2_000, 20_000])
def test_hypothesis_audit_peak_memory_bounded(sample_count):
    # the pairs are drawn and reduced a block at a time: the peak is a few
    # block-sized temporaries whatever the sample count, where one whole draw
    # of 2,000 pairs on 257 modes is 8 MB
    op = build_fractional_laplacian_torus(128, 0.5)
    block_bytes = operators._BLOCK_VALUES * 8

    def traced():
        tracemalloc.start()
        try:
            audit_h2_h3(op, multiplicative_model(), sample_count=sample_count)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak = _within(10.0, traced)
    assert peak <= 8 * block_bytes, f"peak {peak / block_bytes:.2f} blocks"


class SlightlyUnderstatedH3(NoiseModel):
    """A model whose advertised gap constant is 1e-7 relative below the true one."""

    def h3_closed_form(self, op):
        return super().h3_closed_form(op) * (1.0 - 1e-7)


def test_hypothesis_audit_allowance_is_roundoff_only(torus_small):
    # multiplicative noise attains h3 on every pair: the audit's relative
    # allowance of 1e-9 covers roundoff, not an understatement of 1e-7
    model = multiplicative_model()
    understated = SlightlyUnderstatedH3(model.marks, model.intensities, sigmas=model.sigmas)
    conditions, _ = audit_h2_h3(torus_small, understated, sample_count=500)
    assert [c.name for c in conditions if not c.passed] == ["H3"]


def test_hypothesis_audit_flags_understated_l2_growth(torus_small):
    # the moment bound's L2 growth constant is audited on the same draws: an
    # understated one fails with an H2 (L2) witness while F* H2 and H3 hold
    model = halved_l2(multiplicative_model())
    conditions, _ = audit_h2_h3(torus_small, model, sample_count=500)
    h3, h2, h2_l2 = conditions
    assert not all(c.passed for c in conditions)
    failed = [c for c in conditions if not c.passed]
    assert [c.name for c in failed] == ["H2 (L2)"]
    assert failed[0].witness.startswith("sample ")
    assert h2_l2.max_lhs > model.h2_closed_form(torus_small, L2)
    assert h2.max_lhs <= model.h2_closed_form(torus_small)
    assert h3.max_lhs <= model.h3_closed_form(torus_small) * (1 + 1e-9) + 1e-15


@pytest.mark.parametrize("sample_count", [0, -3])
def test_hypothesis_audit_rejects_empty_sample(torus_small, sample_count):
    with pytest.raises(ValueError, match="sample_count"):
        audit_h2_h3(torus_small, multiplicative_model(), sample_count=sample_count)


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
    f0, f1 = model.fields
    assert in_l2 == pytest.approx(
        3.0 * norm(torus_small, f0, L2) ** 2 + 1.5 * norm(torus_small, f1, L2) ** 2
    )


def test_h2_closed_form_bounds_a_mixed_coefficient(torus_small):
    # f = a_j + s_j u with both parts non-zero: by Cauchy-Schwarz
    # sum nu_j (||a_j||^2 + s_j^2) bounds the growth, in F* and in L2, and the
    # gap constant is the sigmas' part alone, 3 * 0.08^2 + 1.5 * 0.05^2
    additive = additive_model(torus_small)
    model = NoiseModel(additive.marks, additive.intensities, additive.fields, (0.08, -0.05))
    assert model.state_dependent
    conditions, _ = audit_h2_h3(torus_small, model, sample_count=500)
    assert all(c.passed for c in conditions), [c.witness for c in conditions]
    assert model.h3_closed_form(torus_small) == pytest.approx(0.02295, rel=1e-14)
    for kind in (F_STAR, L2):
        assert model.h2_closed_form(torus_small, kind) == pytest.approx(
            additive.h2_closed_form(torus_small, kind) + 0.02295, rel=1e-14)


def test_additive_h3_vanishes(torus_small):
    assert additive_model(torus_small).h3_closed_form(torus_small) == 0.0
    assert zero_model().h3_closed_form(torus_small) == 0.0


def test_gap_log_budget_closed_form(torus_small):
    # log1p |sigma| per jump up to t, plus t max(0, -sum nu sigma)
    path = NoisePath(np.array([0.25, 0.5]), np.array([1, 0]), 0, 1.0)
    times = np.array([0.0, 0.25, 0.4, 0.5, 1.0])
    growing = multiplicative_model(sigmas=(0.1, -0.3), intensities=(2.0, 1.0))
    first, both = math.log1p(0.3), math.log1p(0.3) + math.log1p(0.1)
    jumps = np.array([0.0, first, first, both, both])
    assert growing.gap_log_budget(path, times) == pytest.approx(jumps + 0.1 * times, rel=1e-14)
    damped = multiplicative_model()  # sum nu sigma = 0.11 > 0: no compensator growth
    first, both = math.log1p(0.05), math.log1p(0.05) + math.log1p(0.08)
    assert damped.gap_log_budget(path, times) == pytest.approx(
        [0.0, first, first, both, both], rel=1e-14)
    assert not additive_model(torus_small).gap_log_budget(path, times).any()
    one_mark = NoisePath(path.times, np.array([0, 0]), 0, 1.0)  # the zero model's only mark
    assert not zero_model().gap_log_budget(one_mark, times).any()


def test_export_parse_round_trip(torus_small, tmp_path):
    """The export is a seed/horizon header, a column line and one
    ``repr(t),label`` row per jump, in time order."""
    model = multiplicative_model()
    path = sample_noise_path(model, 1.5, 321)
    assert path.jump_count > 0
    export_noise_path(path, model, tmp_path / "noise_path.csv")
    lines = (tmp_path / "noise_path.csv").read_text().split("\n")
    assert lines[0] == f"# seed=321 horizon={1.5!r}"
    assert lines[1] == "time,mark"
    assert lines[2:] == [
        f"{float(t)!r},{model.marks[int(j)]}"
        for t, j in zip(path.times, path.mark_indices)
    ] + [""]


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
        NoiseModel(("a", "b"), np.array([1.0]))
    with pytest.raises(ValueError, match="nonnegative"):
        NoiseModel(("a",), np.array([-1.0]))
    with pytest.raises(ValueError, match="one field per mark"):
        NoiseModel(("a", "b"), np.array([1.0, 1.0]), fields=[smooth_field(torus_small)])
    with pytest.raises(ValueError, match="one sigma per mark"):
        NoiseModel(("a", "b"), np.array([1.0, 1.0]), sigmas=(0.1,))


def test_zero_model_has_no_jumps(torus_small):
    model = zero_model()
    path = sample_noise_path(model, 1.0, 44)
    assert path.jump_count == 0
    u = random_field(torus_small, np.random.default_rng(0))
    inc = _compensated_increment(model, path, u, 1.0)
    assert norm(torus_small, inc, L2) == 0.0
