"""Norm family on the diagonal model: frozen values, stacked rows, sandwich.

Single-mode values are computed by hand at mu = 3: the F12 multiplier is
1 + mu = 4 (norm 2), the F12_star(1) multiplier is 1/4 (norm 0.5), and
F12_star(0.1) carries 1/3.1.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levypme.operators import random_field
from levypme.spaces import (
    F12,
    F12_star,
    F_STAR,
    L2,
    NormKind,
    norm,
    squared_norm_rows,
)

from conftest import spectrum_from_eigenvalues


@pytest.fixture(scope="session")
def single_mode():
    return spectrum_from_eigenvalues([3.0])


def test_single_mode_frozen_values(single_mode):
    u = np.array([1.0])
    assert norm(single_mode, u, L2) == 1.0
    assert norm(single_mode, u, F12) == 2.0
    assert norm(single_mode, u, F_STAR) == 0.5
    assert np.isclose(
        norm(single_mode, u, F12_star(0.1)) ** 2, 1.0 / 3.1, rtol=0, atol=1e-15
    )


def test_squared_norm_rows_matches_scalar(torus_small):
    # the stacked rows match the scalar norm, and a row's squared norm does
    # not depend on the rest of the batch: every slice, 1-d rows included,
    # gives the batch's values to the last bit
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(300, torus_small.mode_count))
    for kind in (L2, F12, F12_star(0.05)):
        stacked = squared_norm_rows(torus_small, rows, kind=kind)
        singles = [norm(torus_small, row, kind) ** 2 for row in rows[:5]]
        assert np.allclose(stacked[:5], singles, rtol=1e-14, atol=0)
        for part in (slice(0, 1), slice(0, 127), slice(5, 6), slice(17, 290),
                     slice(128, 300), slice(None, None, 7)):
            assert np.array_equal(squared_norm_rows(torus_small, rows[part], kind), stacked[part])
        for i in (0, 41, 299):
            single = squared_norm_rows(torus_small, rows[i], kind)
            assert single.shape == () and single == stacked[i]


def test_epsilon_sandwich(torus_small):
    # 1/(1+mu) <= 1/(eps+mu) <= (1/eps)/(1+mu) for eps in (0, 1]
    rng = np.random.default_rng(11)
    for epsilon in (0.01, 0.1, 0.5, 1.0):
        for _ in range(25):
            u = random_field(torus_small, rng)
            base = norm(torus_small, u, F_STAR) ** 2
            scaled = norm(torus_small, u, F12_star(epsilon)) ** 2
            assert base <= scaled + 1e-10
            assert scaled <= base / epsilon + 1e-10


def test_norm_kind_validation():
    with pytest.raises(ValueError):
        NormKind("H1")
    with pytest.raises(ValueError):
        F12_star(0.0)
    with pytest.raises(ValueError):
        F12_star(-0.2)


def test_mode_count_mismatch_rejected(torus_small):
    bad = np.ones(torus_small.mode_count + 1)
    with pytest.raises(ValueError, match="modes"):
        norm(torus_small, bad, L2)
    with pytest.raises(ValueError, match="modes"):
        squared_norm_rows(torus_small, bad[None, :], kind=L2)


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8),
    epsilon=st.floats(1e-3, 1.0),
)
def test_sandwich_property(coeffs, epsilon):
    op = spectrum_from_eigenvalues(np.arange(len(coeffs), dtype=float))
    u = np.asarray(coeffs)
    base = norm(op, u, F_STAR) ** 2
    scaled = norm(op, u, F12_star(epsilon)) ** 2
    assert base <= scaled * (1 + 1e-12) + 1e-12
    assert scaled <= base / epsilon * (1 + 1e-12) + 1e-12
