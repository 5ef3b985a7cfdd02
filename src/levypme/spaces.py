"""Norm family on the diagonal eigenmodel.

Three norms are in play: the plain L2 norm, the order-one smoothing norm F12
(squared multiplier 1 + mu_k) and the dual-type family F12_star(eps) (squared
multiplier 1/(eps + mu_k)); the unsubscripted dual norm is F12_star(1).  Each
norm is a weighted l2 sum over the coefficients of a state.
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


def norm(op: OperatorSpectrum, u, kind: NormKind = L2) -> float:
    return float(np.sqrt(squared_norm_rows(op, u, kind)))


def squared_norm_rows(op: OperatorSpectrum, rows: np.ndarray, kind: NormKind = L2) -> np.ndarray:
    """Squared norms of one coefficient vector or of each row of a stack.

    One einsum pass per call, row-local: a row's value does not depend on the
    other rows of the stack, so any slice of a batch gives the batch's values
    to the last bit.
    """
    rows = _coeffs(op, rows)
    return np.einsum("...k,...k,k->...", rows, rows, _squared_multiplier(op, kind))

