"""Sampled verification of the variational-framework conditions.

The drift operator under test is A(u) = (L - eps) psi(u).  Four conditions
are audited over randomly sampled states: hemicontinuity of the dualization
pairing, local monotonicity against the jump-coefficient gap, coercivity
(when psi carries a coercivity constant) and linear growth into the dual of
L2.  The inequalities hold with slack in the diagonal model, so the audits
use zero tolerance and report worst-case slack with witnesses.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .noise import NoiseModel, noise_mass_rows
from .nonlinearity import NonlinearityPsi
from .operators import OperatorSpectrum
from .spaces import F_STAR, squared_norm_rows

__all__ = [
    "ConditionResult",
    "EstimateConstants",
    "VariationalReport",
    "check_variational_conditions",
]


@dataclass(frozen=True)
class EstimateConstants:
    """Constants feeding the monotonicity/coercivity checks.

    lipschitz_k, alpha_tilde and coercivity_c come from the nonlinearity;
    h2_constant and h3_constant from the noise audit (closed form);
    monotonicity_shift is 2 (1-eps)^2 / alpha_tilde + h3_constant;
    theta solves -2c + 2 theta^2 k^2 (1-eps) < 0 via
    theta^2 = c / (2 k^2 (1-eps) + c) and defaults to 1 when c is absent.
    """

    lipschitz_k: float
    alpha_tilde: float
    coercivity_c: Optional[float]
    epsilon: float
    h2_constant: float
    h3_constant: float
    theta: float
    monotonicity_shift: float

    @classmethod
    def from_components(
        cls,
        psi: NonlinearityPsi,
        epsilon: float,
        h2_constant: float,
        h3_constant: float,
    ) -> "EstimateConstants":
        if not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must be within (0, 1)")
        k, c = psi.lipschitz_k, psi.coercivity_c
        if c is not None:
            theta = math.sqrt(c / (2.0 * k * k * (1.0 - epsilon) + c))
        else:
            theta = 1.0
        shift = 2.0 * (1.0 - epsilon) ** 2 / psi.alpha_tilde + h3_constant
        return cls(k, psi.alpha_tilde, c, epsilon, h2_constant, h3_constant, theta, shift)

    def as_records(self) -> dict:
        rec = {
            "lipschitz_k": (self.lipschitz_k, "slope supremum of psi"),
            "alpha_tilde": (self.alpha_tilde, "1 / (lipschitz_k + 1)"),
            "h2_constant": (self.h2_constant, "closed-form growth constant of the noise"),
            "h3_constant": (self.h3_constant, "closed-form gap constant of the noise"),
            "theta": (self.theta, "theta^2 = c / (2 k^2 (1-eps) + c); 1 when c absent"),
            "monotonicity_shift": (
                self.monotonicity_shift,
                "2 (1-eps)^2 / alpha_tilde + h3_constant",
            ),
        }
        if self.coercivity_c is not None:
            rec["coercivity_c"] = (self.coercivity_c, "psi(r) r >= c r^2")
        return rec


@dataclass(frozen=True)
class ConditionResult:
    name: str
    checked: int
    min_slack: float
    violation_count: int
    witness: Optional[str] = None
    skipped_reason: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.violation_count == 0


@dataclass(frozen=True)
class VariationalReport:
    epsilon: float
    psi_kind: str
    noise_kind: str
    constants: EstimateConstants
    conditions: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def condition(self, name: str) -> ConditionResult:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)


def _sample_coefficient_rows(op, rng, count, scale=1.0):
    # i.i.d. standard normal per mode, scaled by (1 + mu_k)^(-1/2).
    return rng.standard_normal((count, op.mode_count)) * (
        scale / np.sqrt(1.0 + op.eigenvalues)
    )


def _drift_rows(op, psi, rows):
    # Coefficients of A(u) = (L - eps) psi(u) without the -(mu+eps) factor:
    # returns spectral rows of psi(u); callers attach the diagonal factor.
    return op.to_spectral(psi.evaluate(op.to_physical(rows)))


def _noise_gap_mass(op, model, rows1, rows2):
    """Rows of int ||f(u1,z) - f(u2,z)||_F*^2 nu(dz)."""
    if model is None:
        return np.zeros(rows1.shape[0])
    return noise_mass_rows(op, model, rows1, rows2)


def check_variational_conditions(
    op: OperatorSpectrum,
    psi: NonlinearityPsi,
    model: Optional[NoiseModel],
    epsilon: float,
    sample_count: int = 10_000,
    seed: int = 90_125,
) -> VariationalReport:
    """Audit hemicontinuity, local monotonicity, coercivity and growth.

    Samples `sample_count` states (and pairs) with coefficients scaled by
    (1+mu_k)^(-1/2).  Inequality slacks use zero tolerance; the
    hemicontinuity curve check carries a roundoff allowance tied to the
    pairing magnitude because it subtracts near-equal pairings.
    """
    if sample_count < 10:
        raise ValueError("sample_count must be >= 10")
    rng = np.random.default_rng(seed)
    mu = op.eigenvalues
    dual_factor = -(mu + epsilon) / (1.0 + mu)  # pairing weight of A against (1+mu)^-1

    h2 = model.h2_closed_form(op) if model is not None else 0.0
    h3 = model.h3_closed_form(op) if model is not None else 0.0
    constants = EstimateConstants.from_components(psi, epsilon, h2, h3)
    k = constants.lipschitz_k
    conditions = []

    # (a) hemicontinuity: iota -> <A(u + iota v), w> along a mesh of iotas.
    tri_count = max(sample_count // 10, 10)
    u = _sample_coefficient_rows(op, rng, tri_count)
    v = _sample_coefficient_rows(op, rng, tri_count)
    w = _sample_coefficient_rows(op, rng, tri_count)
    iotas = np.array([0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1])
    pairings = np.empty((iotas.size, tri_count))
    for idx, iota in enumerate(iotas):
        drift = _drift_rows(op, psi, u + iota * v) * dual_factor
        pairings[idx] = (drift * w).sum(axis=1)
    v_l2 = np.sqrt(squared_norm_rows(op, v))
    w_l2 = np.sqrt(squared_norm_rows(op, w))
    scale = np.abs(pairings).max(axis=0) + v_l2 * w_l2
    allowance = 1e-12 * scale
    violations = 0
    min_slack = np.inf
    witness = None
    for a in range(iotas.size):
        for b_idx in range(a + 1, iotas.size):
            gap = np.abs(pairings[b_idx] - pairings[a])
            bound = 2.0 * k * (iotas[b_idx] - iotas[a]) * v_l2 * w_l2 + allowance
            slack = bound - gap
            i_min = int(np.argmin(slack))
            if slack[i_min] < min_slack:
                min_slack = float(slack[i_min])
            bad = int(np.count_nonzero(slack < 0.0))
            if bad and witness is None:
                witness = (
                    f"sample {i_min}: |pairing({iotas[b_idx]:g}) - pairing({iotas[a]:g})|"
                    f" = {gap[i_min]!r} exceeds Lipschitz bound {bound[i_min]!r}"
                )
            violations += bad
    conditions.append(
        ConditionResult("hemicontinuity", tri_count * 21, min_slack, violations, witness)
    )

    # (b) local monotonicity:
    # 2 <A u1 - A u2, u1 - u2> + noise gap mass <= shift ||u1 - u2||_F*^2.
    pair_count = sample_count
    u1 = _sample_coefficient_rows(op, rng, pair_count)
    u2 = _sample_coefficient_rows(op, rng, pair_count)
    d_rows = u1 - u2
    drift_gap = (_drift_rows(op, psi, u1) - _drift_rows(op, psi, u2)) * dual_factor
    lhs = 2.0 * (drift_gap * d_rows).sum(axis=1) + _noise_gap_mass(op, model, u1, u2)
    rhs = constants.monotonicity_shift * squared_norm_rows(op, d_rows, F_STAR)
    slack = rhs - lhs
    i_min = int(np.argmin(slack))
    bad = int(np.count_nonzero(slack < 0.0))
    conditions.append(
        ConditionResult(
            "local_monotonicity",
            pair_count,
            float(slack[i_min]),
            bad,
            f"pair {i_min}: lhs={lhs[i_min]!r} rhs={rhs[i_min]!r}" if bad else None,
        )
    )

    # (c) coercivity, only when psi certifies a coercivity constant:
    # 2 <A u, u> <= (-2c + 2 theta^2 k^2 (1-eps)) |u|_2^2
    #               + (2 (1-eps)/theta^2 + h2) ||u||_F*^2.
    if constants.coercivity_c is not None:
        theta2 = constants.theta**2
        c_val = constants.coercivity_c
        coef_l2 = -2.0 * c_val + 2.0 * theta2 * k * k * (1.0 - epsilon)
        coef_fstar = 2.0 * (1.0 - epsilon) / theta2 + constants.h2_constant
        u_rows = _sample_coefficient_rows(op, rng, pair_count)
        lhs_c = 2.0 * ((_drift_rows(op, psi, u_rows) * dual_factor) * u_rows).sum(axis=1)
        rhs_c = coef_l2 * squared_norm_rows(op, u_rows) + coef_fstar * squared_norm_rows(
            op, u_rows, F_STAR
        )
        slack_c = rhs_c - lhs_c
        i_min = int(np.argmin(slack_c))
        bad = int(np.count_nonzero(slack_c < 0.0))
        conditions.append(
            ConditionResult(
                "coercivity",
                pair_count,
                float(slack_c[i_min]),
                bad,
                f"sample {i_min}: lhs={lhs_c[i_min]!r} rhs={rhs_c[i_min]!r}" if bad else None,
            )
        )
    else:
        conditions.append(
            ConditionResult(
                "coercivity", 0, math.inf, 0, skipped_reason="psi has no coercivity constant"
            )
        )

    # (d) growth: ||A u||_(L2)* <= 2 k |u|_2.
    u_rows = _sample_coefficient_rows(op, rng, pair_count)
    drift = _drift_rows(op, psi, u_rows) * dual_factor  # = coefficients of A u over 1+mu
    growth_lhs = np.sqrt((drift * drift).sum(axis=1))
    growth_rhs = 2.0 * k * np.sqrt(squared_norm_rows(op, u_rows))
    slack_d = growth_rhs - growth_lhs
    i_min = int(np.argmin(slack_d))
    bad = int(np.count_nonzero(slack_d < 0.0))
    conditions.append(
        ConditionResult(
            "growth",
            pair_count,
            float(slack_d[i_min]),
            bad,
            f"sample {i_min}: lhs={growth_lhs[i_min]!r} rhs={growth_rhs[i_min]!r}"
            if bad
            else None,
        )
    )

    return VariationalReport(
        epsilon=epsilon,
        psi_kind=psi.kind,
        noise_kind=type(model.coefficient).__name__ if model is not None else "none",
        constants=constants,
        conditions=tuple(conditions),
    )
