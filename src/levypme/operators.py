"""Diagonal spectral calculus for a nonpositive operator L and its transforms.

Everything downstream works with a finite family of eigenpairs of -L, held in an
:class:`OperatorSpectrum`.  Its basis, orthonormal under the quadrature weights
standing in for the reference measure, maps spectral coefficients to physical
nodal values and back, for one vector or a ``(rows, modes)`` stack at once.
A state is its coefficient vector, and a batch of states a stack of such
rows; physical values are computed only where a pointwise map needs them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "OperatorSpectrum",
    "OperatorFunction",
    "QuadratureToleranceError",
    "SpectrumFormatError",
    "apply_operator_function",
    "build_fractional_laplacian_torus",
    "gamma_transform_quadrature",
    "generator",
    "parse_spectrum",
    "random_field",
    "resolvent_power",
    "semigroup",
    "smooth_field",
    "spectrum_from_eigenvalues",
]

RESOLVENT_POWERS = (-1.0, -0.5, 0.5, 1.0)


class QuadratureToleranceError(RuntimeError):
    """Adaptive node doubling hit the node cap before reaching tolerance."""


class SpectrumFormatError(ValueError):
    """A spectrum table could not be parsed."""


def _frozen(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class OperatorSpectrum:
    """Finite eigenmodel of -L: eigenvalues, labels and a discrete L2 model.

    Attributes
    ----------
    eigenvalues : ndarray
        Nonnegative eigenvalues mu_k of -L, one per mode.
    labels : tuple
        Mode labels (Fourier indices for the torus, arbitrary otherwise).
    basis : ndarray, shape (n_phys, n_modes)
        Columns are the eigenfunctions sampled at the physical nodes,
        orthonormal under `weights`.
    weights : ndarray, shape (n_phys,)
        Positive quadrature weights of the physical nodes.
    """

    eigenvalues: np.ndarray
    labels: tuple
    basis: np.ndarray
    weights: np.ndarray
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _frozen(self.eigenvalues))
        object.__setattr__(self, "basis", _frozen(self.basis))
        object.__setattr__(self, "weights", _frozen(self.weights))
        object.__setattr__(self, "labels", tuple(self.labels))
        mu = self.eigenvalues
        if mu.ndim != 1 or mu.size == 0:
            raise ValueError("eigenvalues must be a nonempty 1-d array")
        if not np.all(np.isfinite(mu)) or np.any(mu < 0):
            raise ValueError("eigenvalues must be finite and nonnegative")
        if len(self.labels) != mu.size:
            raise ValueError("labels and eigenvalues must have equal length")
        if self.basis.shape != (self.weights.size, mu.size):
            raise ValueError("basis must be (n_phys, n_modes)")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")
        gram = self.basis.T @ (self.weights[:, None] * self.basis)
        if np.abs(gram - np.eye(mu.size)).max() > 1e-10:
            raise ValueError("basis columns are not orthonormal under weights")

    @property
    def mode_count(self) -> int:
        return self.eigenvalues.size

    # -- representation changes ------------------------------------------------

    def to_physical(self, coefficients: np.ndarray) -> np.ndarray:
        """Nodal values of one coefficient vector or of each row of a stack."""
        return np.asarray(coefficients, dtype=float) @ self.basis.T

    def to_spectral(self, physical_values: np.ndarray) -> np.ndarray:
        """Coefficients of one nodal vector or of each row of a stack."""
        return (self.weights * np.asarray(physical_values, dtype=float)) @ self.basis

    def field_from_coefficients(self, coefficients) -> np.ndarray:
        """Read-only copy of one coefficient vector, checked against the modes.

        This is the one validation point for a single state; it computes no
        physical values.
        """
        c = _frozen(coefficients)
        if c.shape != (self.mode_count,):
            raise ValueError(
                f"expected {self.mode_count} coefficients, got shape {c.shape}"
            )
        return c


# -- constructors ---------------------------------------------------------------


def build_fractional_laplacian_torus(
    mode_cutoff: int, alpha: float, length: float = 2.0 * math.pi
) -> OperatorSpectrum:
    """Fractional Laplacian -(-Delta)^alpha on a 1-d torus of given length.

    Modes are labelled 0, 1, -1, 2, -2, ..., +-mode_cutoff; label k carries the
    eigenvalue |2 pi k / length|^(2 alpha).  Positive labels are cosine modes,
    negative labels sine modes, label 0 the constant mode.  The physical grid
    has 2*mode_cutoff + 1 uniform nodes, on which the trigonometric basis is
    exactly orthonormal under the uniform weights.
    """
    if not isinstance(mode_cutoff, (int, np.integer)) or mode_cutoff < 1:
        raise ValueError("mode_cutoff must be an integer >= 1")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be within (0, 1]")
    if not length > 0.0:
        raise ValueError("length must be positive")

    n_phys = 2 * mode_cutoff + 1
    x = np.arange(n_phys) * (length / n_phys)
    weights = np.full(n_phys, length / n_phys)

    labels = [0]
    columns = [np.full(n_phys, 1.0 / math.sqrt(length))]
    eigenvalues = [0.0]
    amp = math.sqrt(2.0 / length)
    for k in range(1, mode_cutoff + 1):
        phase = 2.0 * math.pi * k * x / length
        columns.append(amp * np.cos(phase))
        labels.append(k)
        columns.append(amp * np.sin(phase))
        labels.append(-k)
        eigenvalues.extend([(2.0 * math.pi * k / length) ** (2.0 * alpha)] * 2)
    return OperatorSpectrum(
        np.array(eigenvalues),
        tuple(labels),
        np.column_stack(columns),
        weights,
        info={
            "family": "fractional_laplacian_torus",
            "mode_cutoff": int(mode_cutoff),
            "alpha": float(alpha),
            "length": float(length),
        },
    )


def spectrum_from_eigenvalues(eigenvalues, labels=None) -> OperatorSpectrum:
    """Diagonal model for user-supplied eigenpairs.

    The physical nodes coincide with the modes (identity basis, unit weights),
    so pointwise operations act directly on the coordinates.
    """
    mu = np.asarray(eigenvalues, dtype=float)
    if labels is None:
        labels = tuple(range(mu.size))
    n = mu.size
    return OperatorSpectrum(
        mu, tuple(labels), np.eye(n), np.ones(n), info={"family": "custom"}
    )


def parse_spectrum(text: str) -> OperatorSpectrum:
    """Parse a plain-text spectrum table: one `label, eigenvalue` pair per line.

    Blank lines and `#` comments are ignored.  Negative eigenvalues are
    rejected with the offending line number.
    """
    labels, eigenvalues = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2 or not parts[0]:
            raise SpectrumFormatError(
                f"line {lineno}: expected 'label, eigenvalue', got {raw!r}"
            )
        try:
            value = float(parts[1])
        except ValueError:
            raise SpectrumFormatError(
                f"line {lineno}: eigenvalue {parts[1]!r} is not a number"
            ) from None
        if not math.isfinite(value) or value < 0.0:
            raise SpectrumFormatError(
                f"line {lineno}: eigenvalue must be finite and nonnegative, got {parts[1]}"
            )
        labels.append(parts[0])
        eigenvalues.append(value)
    if not labels:
        raise SpectrumFormatError("spectrum table contains no eigenpairs")
    return spectrum_from_eigenvalues(np.array(eigenvalues), tuple(labels))


# -- operator functional calculus -------------------------------------------------


@dataclass(frozen=True)
class OperatorFunction:
    """Descriptor for a diagonal function of L."""

    kind: str
    time: float = 0.0
    shift: float = 0.0
    power: float = 0.0


def generator() -> OperatorFunction:
    """L itself (multiplies mode k by -mu_k)."""
    return OperatorFunction("generator")


def semigroup(time: float) -> OperatorFunction:
    """exp(t L) (multiplies mode k by exp(-t mu_k)); requires t >= 0."""
    if not time >= 0.0:
        raise ValueError("semigroup time must be >= 0")
    return OperatorFunction("semigroup", time=float(time))


def resolvent_power(shift: float, power: float) -> OperatorFunction:
    """(shift - L)^power with shift > 0 and power in {-1, -1/2, 1/2, 1}."""
    if not shift > 0.0:
        raise ValueError("resolvent shift must be positive")
    if float(power) not in RESOLVENT_POWERS:
        raise ValueError(f"power must be one of {RESOLVENT_POWERS}")
    return OperatorFunction("resolvent_power", shift=float(shift), power=float(power))


def _multiplier(op: OperatorSpectrum, func: OperatorFunction) -> np.ndarray:
    mu = op.eigenvalues
    if func.kind == "generator":
        return -mu
    if func.kind == "semigroup":
        return np.exp(-func.time * mu)
    if func.kind == "resolvent_power":
        return (func.shift + mu) ** func.power
    raise ValueError(f"unknown operator function kind {func.kind!r}")


def apply_operator_function(op: OperatorSpectrum, func: OperatorFunction, u) -> np.ndarray:
    """Apply a diagonal function of L to a coefficient vector, mode by mode."""
    return op.field_from_coefficients(_multiplier(op, func) * op.field_from_coefficients(u))


# -- smoothing transform via Bochner quadrature -----------------------------------


@lru_cache(maxsize=256)
def _laguerre_rule(n: int, weight_exponent: float):
    # Imported here: scipy.special is slow to import and no study needs it.
    from scipy.special import roots_genlaguerre

    nodes, weights = roots_genlaguerre(n, weight_exponent)
    return _frozen(nodes), _frozen(weights)


def _gamma_multiplier(mu: float, r: float, relative_tolerance: float,
                      start_nodes: int, max_nodes: int) -> float:
    # Bochner integral of the semigroup against the Gamma(r/2) density,
    # evaluated per mode:  Gamma(r/2)^-1 int t^(r/2-1) e^-t e^(-mu t) dt.
    # The dyadic substitution t -> beta s keeps the Laguerre weight form while
    # taming the decay rate: beta(1+mu) stays within [2^-1/2, 2^1/2].
    scale_pow = round(math.log2(1.0 + mu))
    beta = 2.0 ** (-scale_pow)
    c = beta * (1.0 + mu) - 1.0
    jacobian = beta ** (r / 2.0) / math.gamma(r / 2.0)

    previous = None
    n = start_nodes
    while n <= max_nodes:
        nodes, weights = _laguerre_rule(n, r / 2.0 - 1.0)
        value = jacobian * float(weights @ np.exp(-c * nodes))
        if previous is not None and abs(value - previous) <= relative_tolerance * abs(value):
            return value
        previous = value
        n *= 2
    raise QuadratureToleranceError(
        f"quadrature did not reach relative tolerance {relative_tolerance:g} "
        f"within {max_nodes} nodes (mu={mu:g}, r={r:g})"
    )


def gamma_transform_quadrature(
    op: OperatorSpectrum,
    r: float,
    u,
    *,
    relative_tolerance: float = 1e-9,
    start_nodes: int = 8,
    max_nodes: int = 512,
) -> np.ndarray:
    """Smoothing transform of order r computed by adaptive Laguerre quadrature.

    Evaluates Gamma(r/2)^-1 int_0^inf t^(r/2-1) e^-t P_t u dt, doubling the
    node count until two successive results agree to `relative_tolerance`.
    The t^(r/2-1) endpoint singularity for r < 2 sits inside the generalized
    Laguerre weight.  Acts per mode, so the result is the quadrature portrait
    of the closed-form multiplier (1+mu_k)^(-r/2).

    Raises
    ------
    QuadratureToleranceError
        If the doubling ladder exhausts `max_nodes` before converging.
    """
    if not r > 0.0:
        raise ValueError("transform order r must be positive")
    u = op.field_from_coefficients(u)
    unique_mu, inverse = np.unique(op.eigenvalues, return_inverse=True)
    multipliers = np.array([
        _gamma_multiplier(float(m), float(r), relative_tolerance, start_nodes, max_nodes)
        for m in unique_mu
    ])
    return op.field_from_coefficients(multipliers[inverse] * u)


# -- sampling helpers ------------------------------------------------------------


def random_field(op: OperatorSpectrum, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Random coefficient vector with mode-k coefficient ~ N(0, scale^2 / (1+mu_k))."""
    c = rng.standard_normal(op.mode_count) * (scale / np.sqrt(1.0 + op.eigenvalues))
    return op.field_from_coefficients(c)


def smooth_field(op: OperatorSpectrum, amplitude: float = 1.0) -> np.ndarray:
    """Deterministic smooth profile with coefficients amplitude / (1+mu_k)."""
    return op.field_from_coefficients(amplitude / (1.0 + op.eigenvalues))
