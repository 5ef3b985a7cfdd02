"""Finite-activity compensated Poisson forcing.

A :class:`NoiseModel` couples a finite mark set with per-mark intensities and a
jump-coefficient descriptor.  Three descriptors ship: zero, additive (per-mark
fields, state independent) and multiplicative (per-mark scalars times the
state).  Every descriptor acts on a ``(rows, modes)`` array of coefficient
rows at once; the stepper and the hypothesis audits share that rows API.
Paths are sorted (time, mark) tables; sampling is deterministic in
(model, horizon, seed).
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .operators import OperatorSpectrum, by_sample_blocks
from .spaces import F_STAR, L2, NormKind, norm, squared_norm_rows

__all__ = [
    "AdditiveCoefficient",
    "MultiplicativeCoefficient",
    "NoiseAuditReport",
    "NoiseModel",
    "NoisePath",
    "ZeroCoefficient",
    "audit_h2_h3",
    "export_noise_path",
    "noise_mass_rows",
    "parse_noise_path",
    "path_seed",
    "sample_noise_path",
]


@dataclass(frozen=True)
class ZeroCoefficient:
    """f(t, u, z) = 0."""

    state_dependent = False

    def rows(self, u: np.ndarray, mark_index: int) -> np.ndarray:
        return np.zeros_like(u)


@dataclass(frozen=True, eq=False)
class AdditiveCoefficient:
    """f(t, u, z) = sigma_z, a fixed coefficient vector per mark."""

    fields: tuple

    state_dependent = False

    def rows(self, u: np.ndarray, mark_index: int) -> np.ndarray:
        return np.broadcast_to(self.fields[mark_index], u.shape)


@dataclass(frozen=True, eq=False)
class MultiplicativeCoefficient:
    """f(t, u, z) = sigma_z * u."""

    sigmas: tuple

    state_dependent = True

    def rows(self, u: np.ndarray, mark_index: int) -> np.ndarray:
        return self.sigmas[mark_index] * u


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Mark set, intensities and jump coefficient of the driving measure."""

    marks: tuple
    intensities: np.ndarray
    coefficient: object

    def __post_init__(self):
        object.__setattr__(self, "marks", tuple(self.marks))
        nu = np.array(self.intensities, dtype=float)
        nu.setflags(write=False)
        object.__setattr__(self, "intensities", nu)
        if len(self.marks) != nu.size or nu.size == 0:
            raise ValueError("marks and intensities must be nonempty and equal length")
        if np.any(~np.isfinite(nu)) or np.any(nu < 0.0):
            raise ValueError("intensities must be finite and nonnegative")
        if isinstance(self.coefficient, AdditiveCoefficient):
            if len(self.coefficient.fields) != nu.size:
                raise ValueError("additive coefficient needs one field per mark")
        if isinstance(self.coefficient, MultiplicativeCoefficient):
            if len(self.coefficient.sigmas) != nu.size:
                raise ValueError("multiplicative coefficient needs one sigma per mark")

    def jump_rows(self, u: np.ndarray, mark_index: int) -> np.ndarray:
        """f(., u, z) for every coefficient row of ``u`` (shape (..., modes))."""
        return self.coefficient.rows(u, mark_index)

    def compensator_rows(self, u: np.ndarray) -> np.ndarray:
        """sum_z f(., u, z) nu(z) per row, the drift removed by compensation."""
        total = np.zeros(np.shape(u))
        for j, nu_j in enumerate(self.intensities):
            if nu_j > 0.0:
                total = total + nu_j * self.coefficient.rows(u, j)
        return total

    def jump_field(self, op, t, state, mark_index) -> np.ndarray:
        """:meth:`jump_rows` of one state."""
        return self.jump_rows(op.field_from_coefficients(state), mark_index)

    def compensator_rate(self, op, state) -> np.ndarray:
        """:meth:`compensator_rows` of one state."""
        return self.compensator_rows(op.field_from_coefficients(state))

    # -- closed-form hypothesis constants -------------------------------------

    def h2_closed_form(self, op, kind=F_STAR) -> float:
        """Smallest advertised C with int ||f(u,z)||^2 nu(dz) <= C (1+||u||^2).

        The norm defaults to the dual norm the hypothesis is stated in; the
        moment-bound chain asks for the same constant in the L2 norm, which
        only changes the additive case (scalar sigmas are norm-independent).
        """
        if isinstance(self.coefficient, ZeroCoefficient):
            return 0.0
        if isinstance(self.coefficient, AdditiveCoefficient):
            return float(sum(
                nu_j * norm(op, f, kind) ** 2
                for nu_j, f in zip(self.intensities, self.coefficient.fields)
            ))
        sig = np.asarray(self.coefficient.sigmas, dtype=float)
        return float(np.sum(sig * sig * self.intensities))

    def h3_closed_form(self, op) -> float:
        """Smallest advertised C with int ||f(u1,z)-f(u2,z)||_F*^2 nu(dz) <= C ||u1-u2||_F*^2."""
        if isinstance(self.coefficient, MultiplicativeCoefficient):
            sig = np.asarray(self.coefficient.sigmas, dtype=float)
            return float(np.sum(sig * sig * self.intensities))
        return 0.0


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


@dataclass(frozen=True)
class NoiseAuditReport:
    """Empirical-vs-closed-form audit of the two noise hypotheses, with H2
    both in F* and in L2."""

    sample_count: int
    h2_empirical: float
    h2_closed_form: float
    h2_l2_empirical: float
    h2_l2_closed_form: float
    h3_empirical: float
    h3_closed_form: float
    violation_count: int
    witness: Optional[str]

    @property
    def passed(self) -> bool:
        return self.violation_count == 0


def noise_mass_rows(op: OperatorSpectrum, model: NoiseModel, u: np.ndarray,
                    v: Optional[np.ndarray] = None, kind: NormKind = F_STAR) -> np.ndarray:
    """Per row, int ||f(u,z)||^2 nu(dz), or int ||f(u,z) - f(v,z)||^2 nu(dz)
    when ``v`` is given (zero for state-independent coefficients), in the
    norm ``kind`` (F* by default)."""
    total = np.zeros(u.shape[0])
    if v is not None and not model.coefficient.state_dependent:
        return total
    for j, nu_j in enumerate(model.intensities):
        if nu_j > 0.0:
            f = model.jump_rows(u, j)
            if v is not None:
                f = f - model.jump_rows(v, j)
            total = total + nu_j * squared_norm_rows(op, f, kind)
    return total


def audit_h2_h3(
    op: OperatorSpectrum,
    model: NoiseModel,
    sample_count: int = 2_000,
    seed: int = 7,
) -> NoiseAuditReport:
    """Sample states and state pairs, compare the tightest empirical constants
    with the closed-form ones implied by the coefficient descriptor.

    Sample i is the pair (u1, u2) of rows i of one sample-major draw of shape
    (sample_count, 2, modes), coefficients scaled by 2 (1+mu_k)^(-1/2), made
    and evaluated block by block (:func:`levypme.operators.by_sample_blocks`),
    so no (sample_count x modes) array is allocated.  H3 is audited on the
    pair in F*; H2 on u1 in F*, the norm the hypothesis is stated in, and in
    L2, the norm of the moment bound that apriori gates on.  Relative slack of
    1e-9 covers accumulation roundoff in the empirical ratios; anything past
    it is a violation, and the first violating sample is the witness (H3,
    then H2 in F*, then H2 in L2).
    """
    rng = np.random.default_rng(seed)
    h2_closed = model.h2_closed_form(op)
    h2_l2_closed = model.h2_closed_form(op, L2)
    h3_closed = model.h3_closed_form(op)
    allowance = 1e-9

    def ratios(pairs):
        u1, u2 = pairs[:, 0], pairs[:, 1]
        gap_sq = squared_norm_rows(op, u1 - u2, F_STAR)
        separated = gap_sq > 0.0
        return (
            noise_mass_rows(op, model, u1) / (1.0 + squared_norm_rows(op, u1, F_STAR)),
            noise_mass_rows(op, model, u1, kind=L2) / (1.0 + squared_norm_rows(op, u1)),
            np.divide(noise_mass_rows(op, model, u1, u2), gap_sq,
                      out=np.zeros(gap_sq.size), where=separated),
            separated,
        )

    ratio_h2, ratio_h2_l2, ratio_h3, separated = by_sample_blocks(
        op, rng, sample_count, 2, ratios, scale=2.0
    )

    def exceeds(ratio, closed):
        return ratio > closed * (1.0 + allowance) + 1e-15

    checks = (
        ("H3", ratio_h3, h3_closed, separated & exceeds(ratio_h3, h3_closed)),
        ("H2", ratio_h2, h2_closed, exceeds(ratio_h2, h2_closed)),
        ("H2 (L2)", ratio_h2_l2, h2_l2_closed, exceeds(ratio_h2_l2, h2_l2_closed)),
    )
    bad = np.logical_or.reduce([b for *_, b in checks])
    witness = None
    if bad.any():
        i = int(np.argmax(bad))
        label, ratio, closed = next(
            (label, ratio, closed) for label, ratio, closed, bad_rows in checks if bad_rows[i]
        )
        witness = f"{label} ratio {float(ratio[i])!r} exceeds closed form {closed!r}"
    return NoiseAuditReport(
        sample_count=sample_count,
        h2_empirical=float(ratio_h2.max(initial=0.0)),
        h2_closed_form=h2_closed,
        h2_l2_empirical=float(ratio_h2_l2.max(initial=0.0)),
        h2_l2_closed_form=h2_l2_closed,
        h3_empirical=float(ratio_h3.max(initial=0.0)),
        h3_closed_form=h3_closed,
        violation_count=sum(int(np.count_nonzero(b)) for *_, b in checks),
        witness=witness,
    )


# -- path export -------------------------------------------------------------------


def export_noise_path(path: NoisePath, model: NoiseModel, file) -> None:
    """Write one record per jump as `time,mark` under a seed/horizon header."""
    lines = [f"# seed={path.seed} horizon={path.horizon!r}", "time,mark"]
    for t, j in zip(path.times, path.mark_indices):
        lines.append(f"{float(t)!r},{model.marks[int(j)]}")
    text = "\n".join(lines) + "\n"
    if hasattr(file, "write"):
        file.write(text)
    else:
        Path(file).write_text(text)


def parse_noise_path(text: str, model: NoiseModel) -> NoisePath:
    """Inverse of :func:`export_noise_path` (used by the round-trip tests)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0]
    if not header.startswith("# seed="):
        raise ValueError("missing noise-path header")
    seed_part, horizon_part = header[2:].split()
    seed = int(seed_part.split("=", 1)[1])
    horizon = float(horizon_part.split("=", 1)[1])
    if lines[1] != "time,mark":
        raise ValueError("missing column header")
    times, marks = [], []
    label_to_index = {str(m): i for i, m in enumerate(model.marks)}
    for ln in lines[2:]:
        t_str, mark = ln.split(",", 1)
        times.append(float(t_str))
        marks.append(label_to_index[mark])
    return NoisePath(np.array(times), np.array(marks, dtype=int), seed, horizon)
