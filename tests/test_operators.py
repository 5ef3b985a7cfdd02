"""Operator model: eigenvalues, basis calculus, diagonal transforms, quadrature.

Frozen values below are computed by hand from the closed forms:
mu_k = |2 pi k / length|^(2 alpha), semigroup e^(-t mu), resolvent powers
(shift + mu)^p and the smoothing multiplier (1 + mu)^(-r/2).
"""
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levypme.operators import (
    QuadratureToleranceError,
    SpectrumFormatError,
    apply_operator_function,
    build_fractional_laplacian_torus,
    gamma_transform_quadrature,
    generator,
    parse_spectrum,
    random_field,
    resolvent_power,
    semigroup,
    smooth_field,
    spectrum_from_eigenvalues,
)


def test_torus_eigenvalues_frozen():
    op = build_fractional_laplacian_torus(2, 0.5)
    assert op.labels == (0, 1, -1, 2, -2)
    assert op.eigenvalues.tolist() == [0.0, 1.0, 1.0, 2.0, 2.0]

    op2 = build_fractional_laplacian_torus(2, 1.0)
    assert op2.eigenvalues.tolist() == [0.0, 1.0, 1.0, 4.0, 4.0]

    # alpha = 0.5 turns the squared frequency into |k|; label 4 carries 4
    op3 = build_fractional_laplacian_torus(4, 0.5)
    assert op3.eigenvalues[op3.labels.index(4)] == pytest.approx(4.0, abs=1e-14)


def test_torus_length_scaling():
    # doubling the circle halves the frequency: mu_1 = (2 pi / L)^(2 alpha)
    op = build_fractional_laplacian_torus(1, 1.0, length=4.0 * math.pi)
    assert op.eigenvalues[1] == pytest.approx(0.25, abs=1e-15)


def test_basis_orthonormality_and_roundtrip(torus_small):
    op = torus_small
    gram = op.basis.T @ (op.weights[:, None] * op.basis)
    assert np.abs(gram - np.eye(op.mode_count)).max() < 1e-12

    rng = np.random.default_rng(5)
    c = rng.standard_normal(op.mode_count)
    back = op.to_spectral(op.to_physical(c))
    assert np.abs(back - c).max() < 1e-12


def test_parseval(torus_small):
    op = torus_small
    c = np.random.default_rng(11).standard_normal(op.mode_count)
    v = op.to_physical(c)
    assert float(np.sum(op.weights * v * v)) == pytest.approx(float(c @ c), rel=1e-13)


def test_semigroup_frozen(torus_small):
    op = torus_small
    u = op.field_from_coefficients(np.ones(op.mode_count))
    half = apply_operator_function(op, semigroup(math.log(2.0)), u)
    k1 = op.labels.index(1)
    assert half[k1] == pytest.approx(0.5, abs=1e-15)
    assert half[0] == 1.0  # constant mode, mu = 0


def test_generator_and_resolvent_frozen(torus_small):
    op = torus_small
    u = op.field_from_coefficients(np.ones(op.mode_count))
    gen = apply_operator_function(op, generator(), u)
    assert np.allclose(gen, -op.eigenvalues)

    # mu = 2 at label 2: (2 + 2)^(-1/2) = 0.5
    res = apply_operator_function(op, resolvent_power(2.0, -0.5), u)
    k2 = op.labels.index(2)
    assert res[k2] == pytest.approx(0.5, abs=1e-15)


def test_resolvent_power_whitelist():
    with pytest.raises(ValueError):
        resolvent_power(1.0, 0.3)


def test_gamma_transform_frozen_values():
    op = spectrum_from_eigenvalues([3.0])
    u = op.field_from_coefficients(np.array([1.0]))
    # (1 + 3)^(-1/2) = 0.5 and (1 + 3)^(-1) = 0.25
    v1 = gamma_transform_quadrature(op, 1.0, u)
    assert v1[0] == pytest.approx(0.5, rel=1e-10)
    v2 = gamma_transform_quadrature(op, 2.0, u)
    assert v2[0] == pytest.approx(0.25, rel=1e-10)


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_gamma_transform_matches_closed_form(torus_medium, r):
    op = torus_medium
    u = random_field(op, np.random.default_rng(23), scale=1.0)
    got = gamma_transform_quadrature(op, r, u)
    expect = u * (1.0 + op.eigenvalues) ** (-r / 2.0)
    denom = np.sqrt((expect**2).sum())
    assert np.sqrt(((got - expect) ** 2).sum()) / denom < 1e-10


def test_import_leaves_scipy_special_out():
    # only the Bochner quadrature needs scipy.special; it is imported there
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import levypme; "
        "sys.exit('scipy.special' in sys.modules)"
    )
    assert subprocess.run([sys.executable, "-B", "-c", code]).returncode == 0


def test_gamma_transform_rejects_bad_order(torus_small):
    u = smooth_field(torus_small)
    with pytest.raises(ValueError):
        gamma_transform_quadrature(torus_small, 0.0, u)


def test_gamma_transform_node_cap_raises(torus_small):
    u = smooth_field(torus_small)
    with pytest.raises(QuadratureToleranceError):
        gamma_transform_quadrature(
            torus_small, 1.0, u, relative_tolerance=1e-15, start_nodes=8, max_nodes=8
        )


def test_spectrum_parse_and_errors():
    op = parse_spectrum("# comment\n0, 0.0\n1, 2.5\n\n2, 7.0 # inline\n")
    assert op.labels == ("0", "1", "2")
    assert op.eigenvalues.tolist() == [0.0, 2.5, 7.0]

    with pytest.raises(SpectrumFormatError, match="line 2"):
        parse_spectrum("0, 1.0\n1, -3.0\n")
    with pytest.raises(SpectrumFormatError, match="line 1"):
        parse_spectrum("not a pair\n")


def test_spectrum_from_eigenvalues_identity_model():
    op = spectrum_from_eigenvalues([0.0, 1.0, 4.0])
    # identity basis: physical values equal coefficients
    u = op.field_from_coefficients(np.array([1.0, -2.0, 0.5]))
    assert np.array_equal(op.to_physical(u), u)
    with pytest.raises(ValueError):
        spectrum_from_eigenvalues([-1.0])


def test_field_arrays_read_only(torus_small):
    u = smooth_field(torus_small)
    with pytest.raises(ValueError):
        u[0] = 7.0


def test_smooth_and_random_field_profiles(torus_small):
    op = torus_small
    u = smooth_field(op, amplitude=2.0)
    assert np.allclose(u, 2.0 / (1.0 + op.eigenvalues))
    a = random_field(op, np.random.default_rng(3), scale=1.0)
    b = random_field(op, np.random.default_rng(3), scale=1.0)
    assert np.array_equal(a, b)


@settings(max_examples=25, deadline=None)
@given(
    cutoff=st.integers(min_value=1, max_value=6),
    alpha=st.floats(min_value=0.1, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_roundtrip_property(cutoff, alpha, seed):
    op = build_fractional_laplacian_torus(cutoff, alpha)
    c = np.random.default_rng(seed).standard_normal(op.mode_count)
    assert np.abs(op.to_spectral(op.to_physical(c)) - c).max() < 1e-10


@settings(max_examples=25, deadline=None)
@given(t=st.floats(min_value=0.0, max_value=50.0))
def test_semigroup_contracts_property(torus_small, t):
    op = torus_small
    c = np.random.default_rng(1).standard_normal(op.mode_count)
    u = op.field_from_coefficients(c)
    moved = apply_operator_function(op, semigroup(t), u)
    assert np.sqrt((moved**2).sum()) <= np.sqrt((c**2).sum()) + 1e-12


def test_operator_function_validation():
    with pytest.raises(ValueError):
        semigroup(-1.0)
