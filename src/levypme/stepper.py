"""Implicit backward-Euler stepping for the doubly regularized drift.

One step solves  u + h (eps - L)(psi(u) + lambda u) = b  by a resolvent
splitting: the linear shift mu_s u is kept implicit (diagonal resolvent), the
remainder psi(u) + lambda u - mu_s u is frozen at the previous iterate.  The
splitting map is Anderson-accelerated, and the residual that certifies a step
is always taken in the eps-scaled dual norm.  Each cell's split is decided
once, by :func:`splitting`, whose :class:`Splitting` record holds the shift,
the a-priori factor and the mixing depth.  A nonlinear psi has two regimes:
near the centre of the drift's slope range with a 3-deep mixing history
while the centre split's a-priori factor is below 1/2, and at the top of the
range with a 6-deep history from 1/2 on, where psi's flat parts make the
centre split's two-signed remainder slow to mix away.

States are plain coefficient arrays.  One kernel solves a whole
``(rows, modes)`` batch of steps at once, each row with its own dt > 0, cell
parameters, mixing history and certificate; :func:`march` advances many
(path, config) rows in lockstep with it, and :func:`solve_regularized_path`
is its one-path call.  :func:`implicit_step` is the kernel's one-row call,
kept because the benchmark's tracer counts steps through it.  The drift
itself is evaluated only by :func:`drift_rows`, in the one call shape
``(op, psi, u)`` that the variational audits share; the inner solver adds the
lam u term on coefficients, where it is diagonal.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .nonlinearity import NonlinearityPsi
from .noise import NoiseModel, NoisePath
from .operators import OperatorSpectrum
from .reporting import Table
from .spaces import F_STAR, L2, squared_norm_rows

__all__ = [
    "INNER_TOLERANCE",
    "MAX_INNER_ITERATIONS",
    "SolverCounters",
    "Splitting",
    "StepConfig",
    "StepperConvergenceError",
    "Trajectory",
    "cadlag_reductions",
    "cadlag_totals",
    "drift_rows",
    "implicit_step",
    "march",
    "solve_regularized_path",
    "splitting",
    "time_grid",
]

_INNER_INITIALIZERS = ("rhs", "zero")
# Defaults of the residual every step is certified to and of the inner
# iteration budget; plans and scenarios take theirs from here.
INNER_TOLERANCE = 1e-10
MAX_INNER_ITERATIONS = 600
# History depth of the Anderson mixing: how many past differences of map
# values each update combines, under the centre split and under the top split.
ANDERSON_DEPTH = 3
TOP_SPLIT_DEPTH = 6
# The centre split's a-priori factor from which the automatic split moves to
# the top of psi's slope range (splitting).
TOP_SPLIT_FACTOR = 0.5
# Relative diagonal loading of the mixing's normal equations.  It bounds the
# weights when the history columns are nearly dependent, and it decides the
# update when two columns are equal: their Gram is then exactly singular, and
# the unloaded solve fails.
_MIXING_LOADING = 1e-4


class StepperConvergenceError(RuntimeError):
    """The inner iteration could not reach the residual target."""


@dataclass(frozen=True)
class StepConfig:
    """Solver knobs for one regularization cell.

    h > 0 nominal step, epsilon in (0,1), lam in [0,1).  `inner_tolerance`
    bounds the recomputed step residual in the eps-scaled dual norm;
    `splitting_mu` overrides the automatic resolvent-splitting constant;
    `inner_initializer` picks the first inner iterate ("rhs" or "zero").
    """

    h: float
    epsilon: float
    lam: float = 0.0
    inner_tolerance: float = INNER_TOLERANCE
    max_inner_iterations: int = MAX_INNER_ITERATIONS
    splitting_mu: Optional[float] = None
    inner_initializer: str = "rhs"

    def __post_init__(self):
        if not self.h > 0.0:
            raise ValueError("h must be positive")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must be within (0, 1)")
        if not 0.0 <= self.lam < 1.0:
            raise ValueError("lam must be within [0, 1)")
        if not self.inner_tolerance > 0.0:
            raise ValueError("inner_tolerance must be positive")
        if self.max_inner_iterations < 1:
            raise ValueError("max_inner_iterations must be >= 1")
        if self.splitting_mu is not None and not self.splitting_mu > 0.0:
            raise ValueError("splitting_mu must be positive when given")
        if self.inner_initializer not in _INNER_INITIALIZERS:
            raise ValueError(f"inner_initializer must be one of {_INNER_INITIALIZERS}")


@dataclass(frozen=True)
class Splitting:
    """One cell's resolvent split: the implicit shift ``mu``, the a-priori
    ``factor`` of its plain splitting map at the nominal step, and the
    Anderson history ``depth`` it mixes with."""

    mu: float
    factor: float
    depth: int


def splitting(op: OperatorSpectrum, psi: NonlinearityPsi, cfg: StepConfig) -> Splitting:
    """The split the inner iteration uses for one cell.

    With slope infimum m and supremum k of psi, d_max = h (eps + mu_max) and
    the shift mu_s, the a-priori factor of the plain splitting map is
    q = [d_max / (1 + mu_s d_max)] * max(mu_s - lam - m, k + lam - mu_s).
    No step of :func:`time_grid` is longer than h, and q grows with the
    step, so it bounds every substep.  The inner solver accelerates this
    map; q is recorded next to the observed contraction in the solver
    counters.  The branches:

    - an explicit ``cfg.splitting_mu`` is used as given;
    - exactly linear kinds use slope + lam, which makes the split remainder
      vanish and the step a single diagonal solve, so q = 0;
    - the centre split (m + k + lam)/2 + 0.05 (1 + k - m), lam/2 below the
      centre of the drift's slope range [m + lam, k + lam] and nudged up so
      the frozen remainder stays a pointwise contraction relative to the
      implicit shift; q < 1 on a finite spectrum.  Its remainder is
      two-signed, and Anderson mixing resolves it quickly while q is small;
    - the top split k + lam, taken when the centre split's q is at least
      TOP_SPLIT_FACTOR = 1/2 (stiff steps: many modes, a long step, a flat
      psi), with q = d_max (k - m) / (1 + (k + lam) d_max) < 1.  Its frozen
      remainder (k - psi') u is one-signed and vanishes wherever psi sits at
      slope k, so only the nodes on psi's flat parts are left to the mixing,
      which gets a TOP_SPLIT_DEPTH-deep history.

    1/2 separates the shipped cases with room on both sides: the shipped
    scenarios' centre factors are at most 0.29 and the 257-mode saturating
    cells' at least 0.69 (their top q is at most 0.933), so any threshold in
    (0.29, 0.69) selects the same cells.  Below it the top split's longer
    one-signed steps and the deeper history cost more than they save.
    """
    k, m, lam = psi.lipschitz_k, psi.slope_min, cfg.lam
    d_max = cfg.h * (cfg.epsilon + float(op.eigenvalues.max()))

    def factor(mu_s):
        return d_max / (1.0 + mu_s * d_max) * max(mu_s - lam - m, k + lam - mu_s)

    if cfg.splitting_mu is not None:
        return Splitting(cfg.splitting_mu, factor(cfg.splitting_mu), ANDERSON_DEPTH)
    if psi.linear_slope is not None:
        return Splitting(psi.linear_slope + lam, 0.0, ANDERSON_DEPTH)
    centre = 0.5 * (m + k + lam) + 0.05 * (1.0 + k - m)
    q = factor(centre)
    if q >= TOP_SPLIT_FACTOR:
        return Splitting(k + lam, factor(k + lam), TOP_SPLIT_DEPTH)
    return Splitting(centre, q, ANDERSON_DEPTH)


@dataclass(frozen=True)
class _RowParams:
    """Per-row constants of the inner iteration, one row per (path, cell)."""

    eps_plus_mu: np.ndarray  # (rows, modes): eps + mu_k
    dual_scale: np.ndarray  # (rows, modes): 1 / sqrt(eps + mu_k)
    lam: np.ndarray  # (rows, 1)
    mu_s: np.ndarray  # (rows, 1)
    tolerance: np.ndarray  # (rows,)
    zero_start: np.ndarray  # (rows,) bool: "zero" initializer
    max_iterations: int
    depth: int  # Anderson history depth of the batch

    @classmethod
    def from_configs(cls, op, psi, configs, repeat: int = 1) -> "_RowParams":
        """Rows cycle through ``configs``, ``repeat`` times (path-major).  Each
        row shifts by its cell's :func:`splitting` mu, and the batch mixes with
        the deepest history of its cells."""
        if len({cfg.max_inner_iterations for cfg in configs}) != 1:
            raise ValueError("batched rows must share max_inner_iterations")
        epm = np.stack([cfg.epsilon + op.eigenvalues for cfg in configs])
        splits = [splitting(op, psi, cfg) for cfg in configs]

        def rows(values):
            return np.tile(np.asarray(values), (repeat,) + (1,) * (np.ndim(values) - 1))

        return cls(
            eps_plus_mu=rows(epm),
            dual_scale=rows(1.0 / np.sqrt(epm)),
            lam=rows([[cfg.lam] for cfg in configs]),
            mu_s=rows([[split.mu] for split in splits]),
            tolerance=rows([cfg.inner_tolerance for cfg in configs]),
            zero_start=rows([cfg.inner_initializer == "zero" for cfg in configs]),
            max_iterations=configs[0].max_inner_iterations,
            depth=max(split.depth for split in splits),
        )

    def take(self, index: np.ndarray) -> "_RowParams":
        return _RowParams(
            self.eps_plus_mu[index], self.dual_scale[index], self.lam[index],
            self.mu_s[index], self.tolerance[index], self.zero_start[index],
            self.max_iterations, self.depth,
        )


@dataclass
class SolverCounters:
    """Deterministic counters of the inner iteration over many implicit steps.

    ``iterations`` holds one array of per-step inner-iteration counts per
    batch and ``contractions`` the observed contraction of each step that
    applied the map at least once, (res_final / res_0)^(1 / applications);
    a budget miss is a step accepted above its per-substep residual budget
    but within ``inner_tolerance``.  ``apriori_contraction`` is the largest
    a-priori factor (:attr:`Splitting.factor`) of the plain splitting map
    over the marched configurations, at their step size.
    """

    iterations: list = field(default_factory=list)
    contractions: list = field(default_factory=list)
    budget_misses: int = 0
    apriori_contraction: float = 0.0

    def record(self, iterations, first_res, final_res, misses) -> None:
        applied = iterations > 1
        self.iterations.append(iterations)
        self.contractions.append(
            (final_res[applied] / first_res[applied]) ** (1.0 / (iterations[applied] - 1))
        )
        self.budget_misses += misses

    @classmethod
    def merged(cls, parts) -> SolverCounters:
        """The counters of ``parts`` recorded one after another."""
        return cls(sum((c.iterations for c in parts), []), sum((c.contractions for c in parts), []),
                   sum(c.budget_misses for c in parts), max(c.apriori_contraction for c in parts))

    def summary(self) -> dict:
        counts = np.concatenate(self.iterations) if self.iterations else np.zeros(0, int)
        rates = np.concatenate(self.contractions) if self.contractions else np.zeros(0)
        steps = int(counts.size)
        return {
            "implicit_steps": steps,
            "inner_iterations_mean": float(counts.mean()) if steps else 0.0,
            "inner_iterations_p99": _percentile_99(counts) if steps else 0.0,
            "inner_iterations_max": int(counts.max()) if steps else 0,
            "residual_budget_misses": int(self.budget_misses),
            "observed_contraction_p50": _median(rates) if rates.size else 0.0,
            "observed_contraction_max": float(rates.max()) if rates.size else 0.0,
            "apriori_contraction_factor": float(self.apriori_contraction),
        }


# numpy 2.x's percentile and median import numpy.ma on their first call
# (through np.unique and a masked-array check); without it a marching
# interpreter's peak RSS is about 1 MB lower.  These two give their
# results, bit for bit, on finite values.


def _median(values) -> float:
    """``np.median(values)``: the middle order statistic, or the mean of the
    middle two."""
    half = values.size // 2
    if values.size % 2:
        return float(np.partition(values, half)[half])
    a, b = np.partition(values, (half - 1, half))[[half - 1, half]]
    return float((a + b) / 2.0)


def _percentile_99(values) -> float:
    """``np.percentile(values, 99)``: numpy's linear interpolation between the
    two order statistics around 0.99 (size - 1)."""
    virtual = (values.size - 1) * 0.99
    lo = int(virtual)
    hi = min(lo + 1, values.size - 1)
    a, b = (float(v) for v in np.partition(values, (lo, hi))[[lo, hi]])
    t = virtual - lo
    return b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t


def _mixing(g, sr, dG, dS, gram, slot):
    """Anderson update g - sum_j gamma_j dG[:, j] of each row, where gamma
    minimises the Euclidean norm of sr - sum_j gamma_j dS[:, j] per row.

    ``dG`` and ``dS`` are (rows, depth, modes) history rings whose
    column ``slot`` was just written; ``gram`` holds their loaded normal
    equations and is brought up to date here.  An all-zero column gets a
    unit diagonal and so weight 0.
    """
    column = np.einsum("rjn,rn->rj", dS, dS[:, slot])
    gram[:, slot, :] = gram[:, :, slot] = column
    diagonal = column[:, slot]
    gram[:, slot, slot] = np.where(diagonal > 0.0, diagonal * (1.0 + _MIXING_LOADING), 1.0)
    gamma = np.linalg.solve(gram, np.einsum("rjn,rn->rj", dS, sr)[..., None])
    return g - np.einsum("rj,rjn->rn", gamma[..., 0], dG)


def drift_rows(op, psi, u):
    """Coefficient rows of psi(u), one per row of ``u``.

    The one evaluation of the drift (L - eps) psi(u), less its diagonal
    factor -(eps + mu_k), which each caller attaches.  The inner solver and
    the variational audits call it alike; the solver adds the lam u term on
    coefficients, where it is diagonal.  This is the only place that composes
    to_physical, psi and to_spectral; the hemicontinuity audit pairs psi's
    nodal values directly, and a test pins that pairing to this kernel.
    """
    return op.to_spectral(psi.evaluate(op.to_physical(u)))


def _solve_rows(op, psi, params: _RowParams, b, dt, target, counters: SolverCounters):
    """The inner solver: every row r solves u + dt_r (eps_r - L)(psi(u) + lam_r u) = b_r,
    with dt_r > 0.

    Anderson acceleration (Walker & Ni 2011) of the resolvent-splitting map
    G(u) = (b - d (w(u) - mu_s u)) / (1 + mu_s d), where d = dt (eps - L), w
    is the drift psi(u) + lam u and the shift mu_s u is implicit.  Its
    fixed-point residual G(u) - u = -r / (1 + mu_s d) is a scaling of the
    certificate residual r = u + d w(u) - b, so each update combines the map
    values of the last ``params.depth`` + 1 iterates with the weights that
    minimise the combined r in the row's F12_star(eps_r) norm, at no extra
    drift evaluation.  The depth is ANDERSON_DEPTH under the centre split and
    TOP_SPLIT_DEPTH when a row of the batch takes the top split, from a
    centre factor of 1/2 on (:func:`splitting` says why): its
    one-signed remainder leaves only psi's flat nodes to the mixing, which a
    longer history resolves in fewer drift evaluations.  The basis is
    orthonormal, so lam u is diagonal: the scaled residual s r,
    s = (eps + mu)^(-1/2), is cw psi(u) - sb + cu u on coefficients, with
    cw = s d, sb = s b and cu = s (1 + lam d).  Each row keeps its own
    history and certificate and returns its best-certified iterate.  A row
    stops when its residual meets its target, or on the floating-point floor
    (an iteration that does not improve on a residual already within
    inner_tolerance), and then leaves the active set, so the remaining rows
    run on a compacted array.  Iterations count drift
    evaluations, the first one included; every row's count, contraction and
    budget miss is recorded in ``counters``.

    Returns the solutions and the per-row iteration counts; raises
    StepperConvergenceError at the first non-finite residual, and for the
    first row whose residual ends above both its target and its tolerance.
    """
    n = b.shape[0]
    out = np.empty_like(b)
    iterations = np.zeros(n, dtype=int)
    final_res = np.zeros(n)
    rows = np.arange(n)
    tgt, tol, scale = target, params.tolerance, params.dual_scale
    d = dt[:, None] * params.eps_plus_mu
    cu, cw, sb = scale * (1.0 + params.lam * d), scale * d, scale * b
    # G(u) = u - sr * step, with sr = scale * r the scaled certificate residual
    step = 1.0 / (scale * (1.0 + params.mu_s * d))

    def certify(u):
        """Scaled residual rows and their norms, the F12_star(eps_r) norms of r."""
        sr = cw * drift_rows(op, psi, u) - sb + cu * u
        res = np.sqrt(np.einsum("ij,ij->i", sr, sr))
        if not np.isfinite(res).all():
            r = rows[int(np.argmin(np.isfinite(res)))]
            raise StepperConvergenceError(
                f"non-finite inner residual (splitting_mu {float(params.mu_s[r, 0]):g}, "
                f"dt {float(dt[r]):g})"
            )
        return sr, res

    u = np.where(params.zero_start[:, None], 0.0, b)
    sr, first_res = certify(u)
    best_u, best = u, first_res
    # History ring: differences of consecutive map values and scaled
    # residuals, and the normal equations of the latter.
    dG = np.zeros((n, params.depth, u.shape[1]))
    dS = np.zeros_like(dG)
    gram = np.tile(np.eye(params.depth), (n, 1, 1))
    g_prev, sr_prev = u, sr  # placeholders until the first map value

    def retire(done, count):
        """Record the finished rows; compact the others, if any are left."""
        nonlocal rows, sb, cu, cw, step, tgt, tol, u, sr, best_u, best, dG, dS, gram
        nonlocal g_prev, sr_prev
        ids = rows[done]
        out[ids], final_res[ids], iterations[ids] = best_u[done], best[done], count
        if done.all():
            return False
        keep = np.flatnonzero(~done)
        (rows, sb, cu, cw, step, tgt, tol, u, sr, best_u, best, dG, dS, gram, g_prev,
         sr_prev) = (a[keep] for a in (rows, sb, cu, cw, step, tgt, tol, u, sr, best_u,
                                       best, dG, dS, gram, g_prev, sr_prev))
        return True

    done = best <= tgt
    for k in range(1, params.max_iterations + 1):
        if done.any() and not retire(done, k):
            break
        g = u - sr * step
        if k == 1:
            u = g
        else:
            slot = (k - 2) % params.depth
            np.subtract(g, g_prev, out=dG[:, slot])
            np.subtract(sr, sr_prev, out=dS[:, slot])
            u = _mixing(g, sr, dG, dS, gram, slot)
        g_prev, sr_prev = g, sr
        sr, res = certify(u)
        improved = res < best
        best_u = u if improved.all() else np.where(improved[:, None], u, best_u)
        best = np.minimum(res, best)
        # Floating-point floor: the contractual tolerance holds but the
        # iteration no longer improves on it.
        done = (best <= tgt) | (~improved & (best <= tol))
    else:
        retire(np.ones(rows.size, dtype=bool), params.max_iterations)

    failed = final_res > np.maximum(target, params.tolerance)
    if failed.any():
        r = int(np.argmax(failed))
        raise StepperConvergenceError(
            f"inner iteration stalled at residual {final_res[r]:.3e} "
            f"(target {target[r]:.3e}, splitting_mu {float(params.mu_s[r, 0]):g}, "
            f"dt {float(dt[r]):g})"
        )
    counters.record(iterations, first_res, final_res, int(np.count_nonzero(final_res > target)))
    return out, iterations


def implicit_step(
    op: OperatorSpectrum,
    psi: NonlinearityPsi,
    cfg: StepConfig,
    b: np.ndarray,
    dt: Optional[float] = None,
    *,
    return_iterations: bool = False,
):
    """Solve u + dt (eps - L)(psi(u) + lam u) = b to cfg.inner_tolerance.

    One-row call of the inner solver on the coefficient vector ``b``, with
    dt > 0 (default cfg.h).  Returns the converged coefficient vector (and
    the iteration count when asked).  Convergence is certified by the
    recomputed residual in the F12_star(eps) norm, never by the update size.
    """
    dt = cfg.h if dt is None else float(dt)
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    params = _RowParams.from_configs(op, psi, [cfg])
    u, iterations = _solve_rows(
        op, psi, params, op.field_from_coefficients(b)[None, :], np.array([dt]),
        params.tolerance, SolverCounters(),
    )
    return (u[0], int(iterations[0])) if return_iterations else u[0]


def _cadlag_terms(times, right_sq, left_sq):
    """The larger of value and left limit at each time, and each segment's
    trapezoid area, from the right value at its start to the left limit at
    its end, so jumps add no area."""
    both = np.maximum(right_sq, left_sq)
    seg = 0.5 * np.diff(times) * (right_sq[..., :-1] + left_sq[..., 1:])
    return both, seg


def cadlag_totals(times, right_sq, left_sq):
    """Sup and trapezoid of a cadlag quantity over the whole grid: the first
    two results of :func:`cadlag_reductions`, bit for bit."""
    both, seg = _cadlag_terms(times, right_sq, left_sq)
    return both.max(axis=-1), seg.sum(axis=-1)


def cadlag_reductions(times, base_mask, right_sq, left_sq):
    """Sup and trapezoid of a cadlag quantity, in total and running.

    ``right_sq[..., i]`` is the value at ``times[i]`` and ``left_sq[..., i]``
    its left limit; leading axes are independent sequences on the one grid.
    Returns (sup, trapezoid, running sup, running trapezoid), the running
    values at the ``base_mask`` rows.
    """
    both, seg = _cadlag_terms(times, right_sq, left_sq)
    running = np.concatenate(
        [np.zeros(seg.shape[:-1] + (1,)), np.cumsum(seg, axis=-1)], axis=-1
    )
    return (
        both.max(axis=-1),
        seg.sum(axis=-1),
        np.maximum.accumulate(both, axis=-1)[..., base_mask],
        running[..., base_mask],
    )


@dataclass(eq=False)
class Trajectory:
    """Cadlag record of one path: right-continuous states plus left limits.

    `states[i]` holds the coefficients of X(times[i]) and `left_states[i]`
    those of X(times[i]-); the two differ exactly on rows with jump_flags set.
    """

    op: OperatorSpectrum
    times: np.ndarray
    states: np.ndarray
    left_states: np.ndarray
    jump_flags: np.ndarray
    base_mask: np.ndarray
    metadata: dict
    counters: SolverCounters

    def row_squared_norms(self, kind, which: str = "right") -> np.ndarray:
        rows = self.states if which == "right" else self.left_states
        return squared_norm_rows(self.op, rows, kind)

    def _reductions(self, kind):
        return cadlag_reductions(
            self.times, self.base_mask,
            self.row_squared_norms(kind, "right"), self.row_squared_norms(kind, "left"),
        )

    def sup_norm(self, kind) -> float:
        return float(np.sqrt(self._reductions(kind)[0]))

    def integral_squared_norm(self, kind) -> float:
        """Trapezoid of ||X||^2 over [0, T] along the cadlag skeleton."""
        return float(self._reductions(kind)[1])

    def running_sup_squared(self, kind) -> np.ndarray:
        """Running sup of ||X||^2 evaluated at the base (uniform) grid times."""
        return self._reductions(kind)[2]

    def running_integral_squared(self, kind) -> np.ndarray:
        """Running trapezoid of ||X||^2 evaluated at the base grid times."""
        return self._reductions(kind)[3]

    def export(self, file) -> None:
        """Write the path as the table `t,is_jump,norm_L2,norm_F12star,c<label>...`
        under the run metadata in `# key=value` header lines."""
        header = "".join(f"# {k}={self.metadata[k]!r}\n" for k in sorted(self.metadata))
        table = Table(
            "trajectory",
            ("t", "is_jump", "norm_L2", "norm_F12star", *(f"c[{lbl}]" for lbl in self.op.labels)),
            tuple(zip(self.times.tolist(), self.jump_flags.tolist(),
                      np.sqrt(self.row_squared_norms(L2)).tolist(),
                      np.sqrt(self.row_squared_norms(F_STAR)).tolist(), *self.states.T.tolist())),
        )
        Path(file).write_text(header + table.to_csv())


def time_grid(h: float, horizon: float, path: NoisePath):
    """Uniform grid of step h on [0, horizon] refined by the path's jump times.

    Returns the grid and the mask of its base (uniform) points.  The grid is
    ``np.unique``'s, built by a sort and the removal of exact duplicates:
    numpy 2.x's ``np.unique`` imports ``numpy.ma`` on its first call.
    """
    n = int(np.ceil(horizon / h - 1e-12))
    base = np.minimum(np.arange(n + 1) * h, horizon)
    base[-1] = horizon
    grid = np.sort(np.concatenate([base, path.times]))
    grid = grid[np.concatenate(([True], grid[1:] != grid[:-1]))]
    base_mask = np.zeros(grid.size, dtype=bool)
    base_mask[np.searchsorted(grid, base)] = True  # each base point is a grid entry
    return grid, base_mask


def march(op, psi, model, paths, grids, configs, horizon, initial, counters):
    """Advance every (path, config) row of the implicit scheme in lockstep.

    Row p * len(configs) + c follows ``paths[p]`` under ``configs[c]``; all
    configs share the step size, so a path's rows share its grid
    ``grids[p]`` (from :func:`time_grid`).  ``initial`` is one coefficient
    vector shared by every row, or one row per config.  At lockstep index i
    every path with a grid point i takes that step, with its own dt; paths
    whose grid is exhausted drop out.  Between grid points the compensator
    drift -dt sum_z f(., u, z) nu(z) is folded into the right-hand side at the
    left-endpoint state; at a jump time the increment f(tau, X(tau-), z) is
    applied after the drift solve.  Each substep targets the residual budget
    inner_tolerance * min(1, dt / (2 T)); the inner iteration certifies every
    step to inner_tolerance and ``counters`` counts the steps that miss the
    budget.

    Yields (i, active, left, right) for i = 0, 1, ...: ``active`` indexes the
    paths still marching, and ``left``/``right`` hold X(t_i-) and X(t_i) of
    their rows, in row order.  The arrays are not modified afterwards.
    """
    if len({cfg.h for cfg in configs}) != 1:
        raise ValueError("lockstep rows must share the step size")
    n_cells = len(configs)
    lengths = np.array([grid.size for grid in grids])
    times = np.zeros((len(paths), lengths.max()))
    jumps = []
    for p, (path, grid) in enumerate(zip(paths, grids)):
        times[p, : grid.size] = grid
        at = {}
        for index, mark in zip(np.searchsorted(grid, path.times), path.mark_indices):
            at.setdefault(int(index), []).append(int(mark))
        jumps.append(at)

    params = _RowParams.from_configs(op, psi, configs, repeat=len(paths))
    counters.apriori_contraction = max(
        [counters.apriori_contraction] + [splitting(op, psi, cfg).factor for cfg in configs]
    )
    starts = np.broadcast_to(np.asarray(initial, dtype=float), (n_cells, op.mode_count))
    state = np.tile(starts, (len(paths), 1))
    active = np.arange(len(paths))
    yield 0, active, state, state

    state_dependent = model.state_dependent
    rate = None if state_dependent else model.compensator_rows(state[:1])
    for i in range(1, lengths.max()):
        alive = lengths[active] > i
        if not alive.all():
            keep = np.flatnonzero(np.repeat(alive, n_cells))
            active, params, state = active[alive], params.take(keep), state[keep]
        dt = np.repeat(times[active, i] - times[active, i - 1], n_cells)
        if state_dependent:
            rate = model.compensator_rows(state)
        b = state - dt[:, None] * rate
        budget = params.tolerance * np.minimum(1.0, dt / (2.0 * horizon))
        left, _ = _solve_rows(op, psi, params, b, dt, budget, counters)
        right = left
        for k, p in enumerate(active):
            for mark in jumps[p].get(i, ()):
                if right is left:
                    right = left.copy()
                seg = right[k * n_cells : (k + 1) * n_cells]
                seg += model.jump_rows(seg, mark)
        yield i, active, left, right
        state = right


def solve_regularized_path(
    op: OperatorSpectrum,
    psi: NonlinearityPsi,
    model: NoiseModel,
    path: NoisePath,
    cfg: StepConfig,
    horizon: float,
    initial_state: np.ndarray,
) -> Trajectory:
    """March the implicit scheme over the uniform grid refined by jump times.

    One-path, one-config call of :func:`march`, recorded in full.  Each
    substep is certified to residual inner_tolerance; its budget
    inner_tolerance * min(1, dt / (2 T)) is a target, and steps that end above
    it are counted in ``Trajectory.counters``.
    """
    if not horizon > 0.0:
        raise ValueError("horizon must be positive")
    if path.times.size and path.times[-1] > horizon + 1e-12:
        raise ValueError("noise path extends past the horizon")

    grid, base_mask = time_grid(cfg.h, horizon, path)
    states = np.empty((grid.size, op.mode_count))
    left_states = np.empty_like(states)
    counters = SolverCounters()
    for i, _, left, right in march(
        op, psi, model, [path], [grid], [cfg], horizon, initial_state, counters
    ):
        left_states[i], states[i] = left[0], right[0]
    jump_flags = np.isin(grid, path.times)
    summary = counters.summary()

    metadata = {
        "epsilon": cfg.epsilon,
        "lambda": cfg.lam,
        "h": cfg.h,
        "seed": path.seed,
        "mode_count": op.mode_count,
        "mode_cutoff": op.info.get("mode_cutoff", op.mode_count),
        "psi": psi.kind,
        "inner_tolerance": cfg.inner_tolerance,
        "splitting_mu": splitting(op, psi, cfg).mu,
        "contraction_factor": summary["apriori_contraction_factor"],
        "max_inner_iterations_used": summary["inner_iterations_max"],
    }
    return Trajectory(
        op, grid, states, left_states, jump_flags, base_mask, metadata, counters
    )
