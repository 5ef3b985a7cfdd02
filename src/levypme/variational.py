"""Sampled verification of the variational-framework conditions.

The drift operator under test is A(u) = (L - eps) psi(u), evaluated by the
stepper's own drift kernel (:func:`levypme.stepper.drift_rows`, no lam shift).
Four conditions are audited over randomly sampled states: hemicontinuity of
the dualization pairing, local monotonicity against the jump-coefficient gap,
coercivity (when psi carries a coercivity constant) and linear growth into the
dual of L2.  The inequalities hold with slack in the diagonal model, so the
audits use zero tolerance and report worst-case slack with witnesses.

Each condition draws its sample states whole, in a fixed order, and evaluates
its per-row sides in blocks of ``_BLOCK_ROWS`` rows, so memory stays bounded by
the draws plus one block whatever the sample count, and the arrays of one
condition are released before the next one draws.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .noise import NoiseModel, noise_mass_rows
from .nonlinearity import NonlinearityPsi
from .operators import OperatorSpectrum, random_rows
from .spaces import F_STAR, squared_norm_rows
from .stepper import drift_rows

__all__ = [
    "ConditionResult",
    "EstimateConstants",
    "VariationalReport",
    "check_variational_conditions",
]

# Rows per block of the per-row evaluations; bounds each condition's
# temporaries at a few (block x nodes) arrays.
_BLOCK_ROWS = 1024


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


def _by_blocks(count, rows_of):
    """Evaluate ``rows_of(block)`` on consecutive row slices of at most
    _BLOCK_ROWS rows, joining each of its outputs along the last (row) axis."""
    parts = [rows_of(slice(start, start + _BLOCK_ROWS)) for start in range(0, count, _BLOCK_ROWS)]
    return tuple(np.concatenate(outputs, axis=-1) for outputs in zip(*parts))


def _inequality(name, lhs, rhs, label) -> ConditionResult:
    """lhs <= rhs row by row: the worst slack, the violation count and, when
    any row fails, the worst row as witness."""
    slack = rhs - lhs
    i_min = int(np.argmin(slack))
    bad = int(np.count_nonzero(slack < 0.0))
    witness = f"{label} {i_min}: lhs={lhs[i_min]!r} rhs={rhs[i_min]!r}" if bad else None
    return ConditionResult(name, lhs.size, float(slack[i_min]), bad, witness)


def _hemicontinuity(op, psi, rng, count, dual_factor, k) -> ConditionResult:
    """iota -> <A(u + iota v), w> along a mesh of iotas, Lipschitz in iota
    with constant 2 k |v|_2 |w|_2."""
    u, v, w = (random_rows(op, rng, (count,)) for _ in range(3))
    iotas = np.array([0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1])

    def pairing_rows(s):
        return (np.stack([
            (drift_rows(op, psi, u[s] + iota * v[s]) * dual_factor * w[s]).sum(axis=1)
            for iota in iotas
        ]),)

    (pairings,) = _by_blocks(count, pairing_rows)
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
    return ConditionResult("hemicontinuity", count * 21, min_slack, violations, witness)


def _local_monotonicity(op, psi, model, rng, count, dual_factor, shift) -> ConditionResult:
    """2 <A u1 - A u2, u1 - u2> + noise gap mass <= shift ||u1 - u2||_F*^2."""
    u1 = random_rows(op, rng, (count,))
    u2 = random_rows(op, rng, (count,))

    def sides(s):
        d_rows = u1[s] - u2[s]
        drift_gap = (drift_rows(op, psi, u1[s]) - drift_rows(op, psi, u2[s])) * dual_factor
        lhs = 2.0 * (drift_gap * d_rows).sum(axis=1) + noise_mass_rows(op, model, u1[s], u2[s])
        return lhs, shift * squared_norm_rows(op, d_rows, F_STAR)

    return _inequality("local_monotonicity", *_by_blocks(count, sides), "pair")


def _coercivity(op, psi, rng, count, dual_factor, constants) -> ConditionResult:
    """2 <A u, u> <= (-2c + 2 theta^2 k^2 (1-eps)) |u|_2^2
                     + (2 (1-eps)/theta^2 + h2) ||u||_F*^2,
    skipped without a draw when psi certifies no coercivity constant c."""
    if constants.coercivity_c is None:
        return ConditionResult(
            "coercivity", 0, math.inf, 0, skipped_reason="psi has no coercivity constant"
        )
    k, eps, theta2 = constants.lipschitz_k, constants.epsilon, constants.theta**2
    coef_l2 = -2.0 * constants.coercivity_c + 2.0 * theta2 * k * k * (1.0 - eps)
    coef_fstar = 2.0 * (1.0 - eps) / theta2 + constants.h2_constant
    u = random_rows(op, rng, (count,))

    def sides(s):
        lhs = 2.0 * ((drift_rows(op, psi, u[s]) * dual_factor) * u[s]).sum(axis=1)
        rhs = coef_l2 * squared_norm_rows(op, u[s]) + coef_fstar * squared_norm_rows(
            op, u[s], F_STAR
        )
        return lhs, rhs

    return _inequality("coercivity", *_by_blocks(count, sides), "sample")


def _growth(op, psi, rng, count, dual_factor, k) -> ConditionResult:
    """||A u||_(L2)* <= 2 k |u|_2."""
    u = random_rows(op, rng, (count,))

    def sides(s):
        drift = drift_rows(op, psi, u[s]) * dual_factor  # = coefficients of A u over 1+mu
        lhs = np.sqrt((drift * drift).sum(axis=1))
        return lhs, 2.0 * k * np.sqrt(squared_norm_rows(op, u[s]))

    return _inequality("growth", *_by_blocks(count, sides), "sample")


def check_variational_conditions(
    op: OperatorSpectrum,
    psi: NonlinearityPsi,
    model: NoiseModel,
    epsilon: float,
    sample_count: int = 10_000,
    seed: int = 90_125,
) -> VariationalReport:
    """Audit hemicontinuity, local monotonicity, coercivity and growth.

    Samples `sample_count` states (and pairs) with coefficients scaled by
    (1+mu_k)^(-1/2); hemicontinuity uses a tenth as many triples.  Inequality
    slacks use zero tolerance; the hemicontinuity curve check carries a
    roundoff allowance tied to the pairing magnitude because it subtracts
    near-equal pairings.
    """
    if sample_count < 10:
        raise ValueError("sample_count must be >= 10")
    rng = np.random.default_rng(seed)
    mu = op.eigenvalues
    dual_factor = -(mu + epsilon) / (1.0 + mu)  # pairing weight of A against (1+mu)^-1
    constants = EstimateConstants.from_components(
        psi, epsilon, model.h2_closed_form(op), model.h3_closed_form(op)
    )
    k = constants.lipschitz_k
    conditions = [
        _hemicontinuity(op, psi, rng, max(sample_count // 10, 10), dual_factor, k),
        _local_monotonicity(
            op, psi, model, rng, sample_count, dual_factor, constants.monotonicity_shift
        ),
        _coercivity(op, psi, rng, sample_count, dual_factor, constants),
        _growth(op, psi, rng, sample_count, dual_factor, k),
    ]
    return VariationalReport(
        epsilon=epsilon,
        psi_kind=psi.kind,
        noise_kind=type(model.coefficient).__name__,
        constants=constants,
        conditions=tuple(conditions),
    )
