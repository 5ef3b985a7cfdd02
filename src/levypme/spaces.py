"""Norm family and dual pairings on the diagonal eigenmodel.

Three norms are in play: the plain L2 norm, the order-one smoothing norm F12
(squared multiplier 1 + mu_k) and the dual-type family F12_star(eps) (squared
multiplier 1/(eps + mu_k)); the unsubscripted dual norm is F12_star(1).  The
dual of L2 under the triple L2 in F12_star(1) in (L2)* is represented on the
same coefficient vectors: apply (1-L)^-1 coefficient-wise, then take l2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import OperatorSpectrum

__all__ = [
    "F12",
    "F_STAR",
    "L2",
    "NormKind",
    "F12_star",
    "dual_norm",
    "duality_pairing",
    "inner_product",
    "norm",
    "squared_norm_rows",
]


@dataclass(frozen=True)
class NormKind:
    family: str
    epsilon: float = 1.0

    def __post_init__(self):
        if self.family not in ("L2", "F12", "F12_star"):
            raise ValueError(f"unknown norm family {self.family!r}")
        if self.family == "F12_star" and not self.epsilon > 0.0:
            raise ValueError("F12_star epsilon must be positive")


L2 = NormKind("L2")
F12 = NormKind("F12")


def F12_star(epsilon: float = 1.0) -> NormKind:
    return NormKind("F12_star", float(epsilon))


F_STAR = F12_star(1.0)


def _coeffs(op: OperatorSpectrum, u) -> np.ndarray:
    c = np.asarray(u, dtype=float)
    if c.shape[-1] != op.mode_count:
        raise ValueError(
            f"state has {c.shape[-1]} modes, operator has {op.mode_count}"
        )
    return c

def _squared_multiplier(op: OperatorSpectrum, kind: NormKind) -> np.ndarray:
    mu = op.eigenvalues
    if kind.family == "L2":
        return np.ones_like(mu)
    if kind.family == "F12":
        return 1.0 + mu
    return 1.0 / (kind.epsilon + mu)


def inner_product(op: OperatorSpectrum, u, v, kind: NormKind = L2) -> float:
    cu, cv = _coeffs(op, u), _coeffs(op, v)
    return float(np.sum(_squared_multiplier(op, kind) * cu * cv))


def norm(op: OperatorSpectrum, u, kind: NormKind = L2) -> float:
    return float(np.sqrt(squared_norm_rows(op, u, kind)))


def squared_norm_rows(op: OperatorSpectrum, rows: np.ndarray, kind: NormKind = L2) -> np.ndarray:
    """Squared norms of a stack of coefficient rows (vectorized helper)."""
    rows = _coeffs(op, rows)
    return (_squared_multiplier(op, kind) * rows * rows).sum(axis=-1)


def dual_norm(op: OperatorSpectrum, w) -> float:
    """(L2)* norm: l2 norm after the coefficient-wise multiplier (1+mu_k)^-1."""
    c = _coeffs(op, w)
    scaled = c / (1.0 + op.eigenvalues)
    return float(np.sqrt(np.sum(scaled * scaled)))


def duality_pairing(op: OperatorSpectrum, w, v) -> float:
    """Dualization pairing sum_k w_k v_k / (1+mu_k).

    Extends the F12_star(1) inner product; for w = (1-L)u it reproduces the
    integral of u v against the reference measure.
    """
    cw, cv = _coeffs(op, w), _coeffs(op, v)
    return float(np.sum(cw * cv / (1.0 + op.eigenvalues)))
