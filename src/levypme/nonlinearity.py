"""Monotone scalar nonlinearities and their pointwise inequality audit."""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .reporting import merged, verdict

__all__ = [
    "NonlinearityPsi",
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


# Pairs per block of the inequality audit: each block's draws and temporaries
# are 64 KiB arrays.
_AUDIT_BLOCK = 1 << 13
_AUDIT_BOUND = 1e3


def verify_psi_inequalities(
    psi: NonlinearityPsi,
    sample_count: int = 100_000,
    seed: int = 41_038,
) -> tuple:
    """Sample pairs on [-_AUDIT_BOUND, _AUDIT_BOUND]^2 and audit three inequalities exactly:

    pair   alpha_tilde (psi(r)-psi(r'))^2 <= (psi(r)-psi(r'))(r-r')
    self   alpha_tilde psi(r)^2 <= psi(r) r
    slope  0 <= (psi(r)-psi(r') - slope_min (r-r'))(r-r')

    The pair and self inequalities are algebraic consequences of monotonicity
    plus the Lipschitz bound, and the slope inequality is the declared
    ``slope_min``, so each is judged by :func:`levypme.reporting.verdict` with
    zero tolerance; a witness names its sampled r (and r').  The samples are
    ``sample_count`` uniform draws of r, then as many of r', then five pinned
    pairs; the drawn pairs are judged ``_AUDIT_BLOCK`` pairs at a time, the
    pinned ones as one last block, and the blocks' verdicts merged
    (:func:`levypme.reporting.merged`) are those of all pairs at once.
    Returns the pair, self and slope verdicts, in that order.

    Each block is drawn as it is judged, so no array of every sample exists.
    r comes from one PCG64 stream of ``seed``, r' from a second one advanced
    by ``sample_count`` (``bit_generator.advance``): ``random()`` takes one
    64-bit word per double, so r' starts where one generator would start it
    after every r, and the pairs are bit for bit those of the whole draw.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    bound = _AUDIT_BOUND
    streams = [np.random.default_rng(seed), np.random.default_rng(seed)]
    streams[1].bit_generator.advance(sample_count)  # r' starts past every r
    # each block of r and of r' is rng.uniform(-bound, bound)'s draws, bit for bit
    drawn = ([2.0 * bound * rng.random(min(_AUDIT_BLOCK, sample_count - start)) - bound
              for rng in streams] for start in range(0, sample_count, _AUDIT_BLOCK))
    # Pin the corners and the diagonal, where equality is most delicate.
    pinned = np.array(((0.0, bound, -bound, bound, 0.5), (0.0, -bound, bound, bound, 0.5)))

    blocks = []
    for r, r_prime in itertools.chain(drawn, [pinned]):
        psi_r = psi.evaluate(r)
        diff_psi = psi_r - psi.evaluate(r_prime)
        gap = r - r_prime

        def pair(i):
            return f"(r, r') ({float(r[i])!r}, {float(r_prime[i])!r})"

        blocks.append((
            verdict("pair", psi.alpha_tilde * diff_psi * diff_psi, diff_psi * gap, pair),
            verdict("self", psi.alpha_tilde * psi_r * psi_r, psi_r * r,
                    lambda i: f"r {float(r[i])!r}"),
            verdict("slope", 0.0, (diff_psi - psi.slope_min * gap) * gap, pair),
        ))
    return tuple(merged(verdicts) for verdicts in zip(*blocks))
