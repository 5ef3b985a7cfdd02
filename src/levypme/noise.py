"""Finite-activity compensated Poisson forcing.

A :class:`NoiseModel` couples a finite mark set with per-mark intensities and
one affine jump coefficient f(u, z_j) = a_j + s_j u, held as data: per-mark
coefficient rows a_j (``fields``) and scalars s_j (``sigmas``).  The shipped
kinds are its special cases: zero (a = s = 0), additive (s = 0) and
multiplicative (a = 0).  The coefficient acts on a ``(rows, modes)`` array of
coefficient rows at once; the stepper and the hypothesis audits share that
rows API.  Paths are sorted (time, mark) tables; sampling is deterministic in
(model, horizon, seed).

:func:`audit_h2_h3` samples the growth (H2) and gap (H3) ratios against the
model's closed forms, defined only on :class:`NoiseModel`, and returns plain
:class:`levypme.reporting.ConditionResult` verdicts, like every audit.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .operators import OperatorSpectrum, by_sample_blocks
from .reporting import Table, verdict
from .spaces import F_STAR, L2, NormKind, norm, squared_norm_rows

__all__ = [
    "NoiseModel",
    "NoisePath",
    "audit_h2_h3",
    "export_noise_path",
    "noise_mass_rows",
    "path_seed",
    "sample_noise_path",
]

# Report names of the coefficient, indexed by which parts are given:
# fields (1) and sigmas (2).
_LABELS = ("ZeroCoefficient", "AdditiveCoefficient", "MultiplicativeCoefficient", "AffineCoefficient")


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Mark set, intensities and affine jump coefficient f(u, z_j) = a_j + s_j u
    of the driving measure.

    ``fields`` is (marks, modes), the a_j; ``sigmas`` is (marks,), the s_j.  A
    part that is not given is zero.  ``label`` names the parts given, the
    ``noise_kind`` of every report.
    """

    marks: tuple
    intensities: np.ndarray
    fields: Optional[np.ndarray] = None
    sigmas: Optional[np.ndarray] = None
    label: str = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "marks", tuple(self.marks))
        nu = np.array(self.intensities, dtype=float)
        if len(self.marks) != nu.size or nu.size == 0:
            raise ValueError("marks and intensities must be nonempty and equal length")
        if np.any(~np.isfinite(nu)) or np.any(nu < 0.0):
            raise ValueError("intensities must be finite and nonnegative")
        given = (self.fields is not None) + 2 * (self.sigmas is not None)
        # an absent fields part is one zero column, broadcast over the modes
        fields = np.array(np.zeros((nu.size, 1)) if self.fields is None else self.fields, dtype=float)
        sigmas = np.array(np.zeros(nu.size) if self.sigmas is None else self.sigmas, dtype=float)
        if fields.ndim != 2 or len(fields) != nu.size:
            raise ValueError("coefficient needs one field per mark")
        if sigmas.shape != nu.shape:
            raise ValueError("coefficient needs one sigma per mark")
        for name, value in (("intensities", nu), ("fields", fields), ("sigmas", sigmas)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "label", _LABELS[given])

    @property
    def state_dependent(self) -> bool:
        """True when some jump depends on the state (a non-zero sigma)."""
        return bool(np.any(self.sigmas))

    def jump_rows(self, u: np.ndarray, mark_index: int) -> np.ndarray:
        """f(., u, z) for every coefficient row of ``u`` (shape (..., modes)).

        The field is added in place: a second temporary the size of ``u``
        costs more than the sum.
        """
        rows = self.sigmas[mark_index] * u
        rows += self.fields[mark_index]
        return rows

    def compensator_rows(self, u: np.ndarray) -> np.ndarray:
        """sum_z f(., u, z) nu(z) per row, the drift removed by compensation."""
        total = np.zeros(np.shape(u))
        for j, nu_j in enumerate(self.intensities):
            if nu_j > 0.0:
                total = total + nu_j * self.jump_rows(u, j)
        return total

    def jump_field(self, op, t, state, mark_index) -> np.ndarray:
        """:meth:`jump_rows` of one state."""
        return self.jump_rows(op.field_from_coefficients(state), mark_index)

    def compensator_rate(self, op, state) -> np.ndarray:
        """:meth:`compensator_rows` of one state."""
        return self.compensator_rows(op.field_from_coefficients(state))

    # -- closed-form hypothesis constants -------------------------------------

    def h2_closed_form(self, op, kind=F_STAR) -> float:
        """Advertised C with int ||f(u,z)||^2 nu(dz) <= C (1+||u||^2):
        sum_j nu_j (||a_j||^2 + s_j^2).

        By Cauchy-Schwarz, ||a + s u||^2 <= (||a||^2 + s^2)(1 + ||u||^2), so C
        bounds any affine coefficient; it is the smallest such C for each
        shipped kind, where a_j or s_j is zero.  The norm defaults to the dual
        norm the hypothesis is stated in; the moment-bound chain asks for the
        same constant in the L2 norm, which changes only the fields' part.
        """
        fields = np.broadcast_to(self.fields, (self.intensities.size, op.mode_count))
        return float(sum(
            nu_j * (norm(op, a, kind) ** 2 + s * s)
            for nu_j, a, s in zip(self.intensities, fields, self.sigmas)
        ))

    def h3_closed_form(self, op) -> float:
        """Smallest advertised C with int ||f(u1,z)-f(u2,z)||_F*^2 nu(dz) <= C ||u1-u2||_F*^2:
        sum_j nu_j s_j^2, since the fields cancel in the difference."""
        return float(np.sum(self.sigmas * self.sigmas * self.intensities))

    def gap_log_budget(self, path: NoisePath, times: np.ndarray) -> np.ndarray:
        """Log growth of a coupled perturbation gap the noise allows by each t.

        The fields cancel in the coupled difference; a jump scales the gap by
        |1 + sigma_j| <= 1 + |sigma_j| and the compensator by
        1 - dt sum_j nu_j sigma_j per step, a growth only when that sum is
        negative; the drift contracts.  So the budget is
        sum_{tau_j <= t} log1p(|sigma_j|) + t max(0, -sum_j nu_j sigma_j),
        zero when every sigma is.
        """
        accrued = np.concatenate([[0.0], np.cumsum(np.log1p(np.abs(self.sigmas[path.mark_indices])))])
        drift = max(0.0, -float(np.sum(self.intensities * self.sigmas)))
        return accrued[np.searchsorted(path.times, times, side="right")] + drift * times


@dataclass(frozen=True, eq=False)
class NoisePath:
    """Sorted jump skeleton of one path: strictly increasing times in (0, T]."""

    times: np.ndarray
    mark_indices: np.ndarray
    seed: int
    horizon: float

    def __post_init__(self):
        t = np.array(self.times, dtype=float)
        m = np.array(self.mark_indices, dtype=int)
        t.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "mark_indices", m)
        if t.shape != m.shape:
            raise ValueError("times and mark_indices must have equal length")
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")
        if t.size:
            if t[0] <= 0.0 or t[-1] > self.horizon:
                raise ValueError("jump times must lie in (0, horizon]")
            if np.any(np.diff(t) <= 0.0):
                raise ValueError("jump times must be strictly increasing")

    @property
    def jump_count(self) -> int:
        return self.times.size


def path_seed(master_seed: int, path_index: int) -> int:
    """Derive the per-path stream seed from (master_seed, path_index)."""
    ss = np.random.SeedSequence([int(master_seed), int(path_index)])
    return int(ss.generate_state(1, np.uint64)[0])


def sample_noise_path(model: NoiseModel, horizon: float, seed: int) -> NoisePath:
    """Draw one path: per mark, Poisson(nu_z * T) many uniform times on (0, T]."""
    if not horizon > 0.0:
        raise ValueError("horizon must be positive")
    rng = np.random.default_rng(int(seed))
    times, marks = [], []
    for j, nu_j in enumerate(model.intensities):
        count = int(rng.poisson(nu_j * horizon)) if nu_j > 0.0 else 0
        if count:
            # 1 - U keeps the samples inside (0, T].
            times.append(horizon * (1.0 - rng.random(count)))
            marks.append(np.full(count, j, dtype=int))
    if not times:
        return NoisePath(np.empty(0), np.empty(0, dtype=int), int(seed), float(horizon))
    t = np.concatenate(times)
    m = np.concatenate(marks)
    order = np.lexsort((m, t))
    return NoisePath(t[order], m[order], int(seed), float(horizon))


# -- hypothesis audit --------------------------------------------------------------


# The seed of the audit's one draw.
_AUDIT_SEED = 7


def noise_mass_rows(op: OperatorSpectrum, model: NoiseModel, u: np.ndarray,
                    v: Optional[np.ndarray] = None, kind: NormKind = F_STAR) -> np.ndarray:
    """Per row, int ||f(u,z)||^2 nu(dz), or int ||f(u,z) - f(v,z)||^2 nu(dz)
    when ``v`` is given, in the norm ``kind`` (F* by default)."""
    total = np.zeros(u.shape[0])
    for j, nu_j in enumerate(model.intensities):
        if nu_j > 0.0:
            f = model.jump_rows(u, j)
            if v is not None:
                f -= model.jump_rows(v, j)
            total = total + nu_j * squared_norm_rows(op, f, kind)
    return total


def audit_h2_h3(op: OperatorSpectrum, model: NoiseModel, sample_count: int = 2_000) -> tuple:
    """Sample states and state pairs, compare the tightest empirical constants
    with the closed-form ones implied by the coefficient.

    Sample i is the pair (u1, u2) of rows i of one sample-major draw of shape
    (sample_count, 2, modes), coefficients scaled by 2 (1+mu_k)^(-1/2), made
    and evaluated block by block (:func:`levypme.operators.by_sample_blocks`),
    so no (sample_count x modes) array is allocated; from 128 modes on the
    blocks are dealt to one process per usable CPU (:mod:`levypme.parallel`),
    each of which draws and evaluates only its own.  H3 is audited on the
    pair in F*; H2 on u1 in F*, the norm the hypothesis is stated in, and in
    L2, the norm of the moment bound that apriori gates on.  Each ratio is
    judged against its closed form C by :func:`levypme.reporting.verdict`
    with rhs C (1 + 1e-9) + 1e-15: the relative 1e-9 covers accumulation
    roundoff in the empirical ratios.  A pair with u1 = u2 has H3 ratio 0.

    Returns the H3, H2 and H2 (L2) verdicts, in that order, and the number of
    processes that drew and evaluated the samples.  Every ratio is >= 0 or
    NaN, so each verdict's ``max_lhs`` is the empirical constant: the largest
    sampled ratio, NaN when any is NaN.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = np.random.default_rng(_AUDIT_SEED)

    def ratios(pairs):
        u1, u2 = pairs[:, 0], pairs[:, 1]
        gap_sq = squared_norm_rows(op, u1 - u2, F_STAR)
        return (
            noise_mass_rows(op, model, u1) / (1.0 + squared_norm_rows(op, u1, F_STAR)),
            noise_mass_rows(op, model, u1, kind=L2) / (1.0 + squared_norm_rows(op, u1)),
            np.divide(noise_mass_rows(op, model, u1, u2), gap_sq,
                      out=np.zeros(gap_sq.size), where=gap_sq > 0.0),
        )

    (ratio_h2, ratio_h2_l2, ratio_h3), workers = by_sample_blocks(
        op, rng, sample_count, 2, ratios, scale=2.0)

    def within(label, ratio, closed):
        return verdict(label, ratio, closed * (1.0 + 1e-9) + 1e-15)

    return (
        within("H3", ratio_h3, model.h3_closed_form(op)),
        within("H2", ratio_h2, model.h2_closed_form(op)),
        within("H2 (L2)", ratio_h2_l2, model.h2_closed_form(op, L2)),
    ), workers


# -- path export -------------------------------------------------------------------


def export_noise_path(path: NoisePath, model: NoiseModel, file) -> None:
    """Write one record per jump as `time,mark` under a seed/horizon header."""
    table = Table("noise_path", ("time", "mark"), tuple(zip(
        path.times.tolist(), [model.marks[j] for j in path.mark_indices.tolist()])))
    Path(file).write_text(f"# seed={path.seed} horizon={path.horizon!r}\n" + table.to_csv())
