"""Monotone scalar nonlinearities and their pointwise inequality audit."""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "NonlinearityPsi",
    "PsiInequalityReport",
    "make_psi",
    "PSI_KINDS",
    "PSI_PARAMETERS",
    "verify_psi_inequalities",
]


@dataclass(frozen=True)
class NonlinearityPsi:
    """A monotone nondecreasing Lipschitz function with psi(0) = 0.

    Attributes
    ----------
    kind : str
        Constructor tag.
    evaluate : callable
        Vectorized psi.
    lipschitz_k : float
        A Lipschitz constant (the slope supremum for the shipped kinds).
    coercivity_c : float or None
        c with psi(r) r >= c r^2 when the kind provides one.
    linear_slope : float or None
        Set when psi is exactly r -> slope * r; lets the implicit solver
        finish in one iteration.
    slope_min : float
        A slope infimum m, (psi(r) - psi(r'))(r - r') >= m (r - r')^2; it
        centres the implicit solver's splitting constant.
    """

    kind: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    lipschitz_k: float
    coercivity_c: Optional[float] = None
    linear_slope: Optional[float] = None
    slope_min: float = 0.0

    def __post_init__(self):
        if self.lipschitz_k < 0.0:
            raise ValueError("lipschitz_k must be nonnegative")
        if not 0.0 <= self.slope_min <= self.lipschitz_k:
            raise ValueError("slope_min must lie within [0, lipschitz_k]")
        if self.coercivity_c is not None and not self.coercivity_c > 0.0:
            raise ValueError("coercivity_c must be positive when present")

    @property
    def alpha_tilde(self) -> float:
        """1 / (lipschitz_k + 1), the constant of the pointwise inequalities."""
        return 1.0 / (self.lipschitz_k + 1.0)


def _eval_identity(r):
    return np.asarray(r, dtype=float)


def _eval_zero(r):
    return np.zeros_like(np.asarray(r, dtype=float))


def _eval_scaled(r, scale):
    return scale * np.asarray(r, dtype=float)


def _eval_saturating(r, cap):
    return np.clip(np.asarray(r, dtype=float), -cap, cap)


def _eval_soft_monotone(r):
    r = np.asarray(r, dtype=float)
    return r + 0.5 * np.arctan(r)


PSI_KINDS = ("identity", "scaled_linear", "saturating", "soft_monotone", "zero")
# The kinds that take a parameter, each with the make_psi keyword it is passed as.
PSI_PARAMETERS = {"scaled_linear": "scale", "saturating": "cap"}


def make_psi(kind: str, *, scale: float | None = None, cap: float | None = None) -> NonlinearityPsi:
    """Construct one of the shipped nonlinearity kinds.

    identity        r -> r                  (k = 1, c = 1)
    scaled_linear   r -> scale * r          (k = c = scale, scale > 0)
    saturating      r -> clamp(r, +-cap)    (k = 1, no coercivity, cap > 0)
    soft_monotone   r -> r + arctan(r)/2    (k = 3/2, c = 1, slope infimum 1)
    zero            r -> 0                  (k = 0, no coercivity)
    """
    if kind in PSI_PARAMETERS:
        keyword = PSI_PARAMETERS[kind]
        param = {"scale": scale, "cap": cap}[keyword]
        if param is None or not param > 0.0:
            raise ValueError(f"{kind} requires {keyword} > 0")
        param = float(param)
    if kind == "identity":
        return NonlinearityPsi("identity", _eval_identity, 1.0, 1.0, 1.0)
    if kind == "scaled_linear":
        return NonlinearityPsi(
            "scaled_linear", functools.partial(_eval_scaled, scale=param), param, param, param
        )
    if kind == "saturating":
        return NonlinearityPsi("saturating", functools.partial(_eval_saturating, cap=param), 1.0)
    if kind == "soft_monotone":
        return NonlinearityPsi("soft_monotone", _eval_soft_monotone, 1.5, 1.0, slope_min=1.0)
    if kind == "zero":
        return NonlinearityPsi("zero", _eval_zero, 0.0, None, 0.0)
    raise ValueError(f"unknown nonlinearity kind {kind!r}; choose from {PSI_KINDS}")


@dataclass(frozen=True)
class PsiInequalityReport:
    """Worst-case slack audit of the two pointwise inequalities.

    pair_slack:  (psi(r)-psi(r'))(r-r') - alpha_tilde (psi(r)-psi(r'))^2
    self_slack:  psi(r) r - alpha_tilde psi(r)^2
    slope_slack: (psi(r)-psi(r'))(r-r') - slope_min (r-r')^2
    """

    kind: str
    sample_count: int
    min_pair_slack: float
    min_self_slack: float
    min_slope_slack: float
    violation_count: int
    violation_witness: Optional[tuple]

    @property
    def passed(self) -> bool:
        return self.violation_count == 0


def verify_psi_inequalities(
    psi: NonlinearityPsi,
    sample_count: int = 100_000,
    bound: float = 1e3,
    seed: int = 41_038,
) -> PsiInequalityReport:
    """Sample pairs on [-bound, bound]^2 and audit the inequalities exactly.

    The pair and self inequalities are algebraic consequences of monotonicity
    plus the Lipschitz bound, and the slope inequality is the declared
    ``slope_min``, so the audit uses zero tolerance: any negative slack
    counts as a violation and is reported with its witness pair.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    r = rng.uniform(-bound, bound, size=sample_count)
    r_prime = rng.uniform(-bound, bound, size=sample_count)
    # Pin the corners and the diagonal, where equality is most delicate.
    r = np.concatenate([r, [0.0, bound, -bound, bound, 0.5]])
    r_prime = np.concatenate([r_prime, [0.0, -bound, bound, bound, 0.5]])

    psi_r = psi.evaluate(r)
    psi_rp = psi.evaluate(r_prime)
    diff_psi = psi_r - psi_rp
    pair_slack = diff_psi * (r - r_prime) - psi.alpha_tilde * diff_psi * diff_psi
    self_slack = psi_r * r - psi.alpha_tilde * psi_r * psi_r
    slope_slack = (diff_psi - psi.slope_min * (r - r_prime)) * (r - r_prime)

    i_pair = int(np.argmin(pair_slack))
    i_self = int(np.argmin(self_slack))
    i_slope = int(np.argmin(slope_slack))
    violations = sum(
        int(np.count_nonzero(slack < 0.0)) for slack in (pair_slack, self_slack, slope_slack)
    )
    witness = None
    if violations:
        if pair_slack[i_pair] < 0.0:
            witness = (float(r[i_pair]), float(r_prime[i_pair]), float(pair_slack[i_pair]))
        elif self_slack[i_self] < 0.0:
            witness = (float(r[i_self]), float(r[i_self]), float(self_slack[i_self]))
        else:
            witness = (float(r[i_slope]), float(r_prime[i_slope]), float(slope_slack[i_slope]))
    return PsiInequalityReport(
        kind=psi.kind,
        sample_count=r.size,
        min_pair_slack=float(pair_slack[i_pair]),
        min_self_slack=float(self_slack[i_self]),
        min_slope_slack=float(slope_slack[i_slope]),
        violation_count=violations,
        violation_witness=witness,
    )
