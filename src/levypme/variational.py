"""Sampled verification of the variational-framework conditions.

The drift operator under test is A(u) = (L - eps) psi(u), evaluated by the
stepper's own drift kernel :func:`levypme.stepper.drift_rows`, called in the
one shape ``(op, psi, u)`` the inner solver uses too.
Four conditions are audited over randomly sampled states: hemicontinuity of
the dualization pairing, local monotonicity against the jump-coefficient gap,
coercivity (when psi carries a coercivity constant) and linear growth into the
dual of L2.  The inequalities hold with slack in the diagonal model, so each
is judged by :func:`levypme.reporting.verdict` with zero tolerance: worst-case
slack, violation count and a witness.

The two derived constants the conditions are stated with are plain functions
of psi's constants, epsilon and the noise's gap constant h3: :func:`theta`
and :func:`monotonicity_shift`.  The audit and the reports'
``constants_used`` record (:func:`levypme.cascade.constants_used`) both call
them.

Every audited state is transformed once.  Hemicontinuity draws its own
triples (u, v, w) and takes each of its pairings on nodal values, which needs
one transform of u, of v and of w each and none back.  The monotonicity pairs
(u1, u2), drawn next, also serve coercivity (on u1) and growth (on u2): the
drift is evaluated once per state of a pair and feeds all three.  Every
weighted pairing and norm is one row-local einsum pass, so no reduction ties
a row's value to the block it sits in.  Every draw is made block by block
(:func:`levypme.operators.by_sample_blocks`): a block of
``max(1, 2**15 // modes)`` samples is drawn, evaluated and reduced to
per-sample sides before the next one is drawn, so each (block x modes)
temporary holds about 2^15 values and no (samples x modes) array exists,
whatever the sample or mode count.  From 128 modes on the blocks are dealt
to one process per usable CPU (:mod:`levypme.parallel`), and each process
draws and evaluates only its own blocks, taking the generator's state from
the process that drew the block before; every block is drawn and evaluated
the same way wherever it runs.
"""
from __future__ import annotations

import math

import numpy as np

from .noise import NoiseModel, noise_mass_rows
from .nonlinearity import NonlinearityPsi
from .operators import OperatorSpectrum, by_sample_blocks
from .reporting import ConditionResult, verdict
from .spaces import F_STAR, squared_norm_rows
from .stepper import drift_rows

__all__ = [
    "check_variational_conditions",
    "monotonicity_shift",
    "theta",
]


def theta(psi: NonlinearityPsi, epsilon: float) -> float:
    """theta of the coercivity estimate, from theta^2 = c / (2 k^2 (1-eps) + c),
    so that -2c + 2 theta^2 k^2 (1-eps) < 0; 1 when psi certifies no
    coercivity constant c.  k and c are psi's."""
    k, c = psi.lipschitz_k, psi.coercivity_c
    if c is None:
        return 1.0
    return math.sqrt(c / (2.0 * k * k * (1.0 - epsilon) + c))


def monotonicity_shift(psi: NonlinearityPsi, epsilon: float, h3: float) -> float:
    """Shift of the local monotonicity condition: 2 (1-eps)^2 / alpha_tilde + h3,
    with alpha_tilde psi's and h3 the noise's gap constant."""
    return 2.0 * (1.0 - epsilon) ** 2 / psi.alpha_tilde + h3


_IOTAS = np.array([0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1])


def _hemicontinuity_pairings(op, psi, u, v, w, dual_factor) -> np.ndarray:
    """<A(u + iota v), w> for each iota of the mesh (rows) and each sample
    (columns), from one transform of each of u, v and w and none back.

    to_physical is linear and to_spectral is its weighted transpose, so the
    pairing of ``drift_rows(u + iota v)`` with ``dual_factor * w`` equals the
    weighted nodal sum of psi(U + iota V) against Z, where U, V and Z are the
    nodal values of u, v and ``dual_factor * w``.  Each pairing is one
    row-local einsum.
    """
    nodal_u, nodal_v = op.to_physical(u), op.to_physical(v)
    weighted_z = op.to_physical(dual_factor * w) * op.weights
    return np.stack([
        np.einsum("ij,ij->i", psi.evaluate(nodal_u + iota * nodal_v), weighted_z)
        for iota in _IOTAS
    ])


def _hemicontinuity(op, psi, rng, count, dual_factor, k) -> tuple[ConditionResult, int]:
    """iota -> <A(u + iota v), w> along a mesh of iotas, Lipschitz in iota
    with constant 2 k |v|_2 |w|_2; sample i is the triple (u, v, w) of rows i.
    One row per (iota pair, sample), pair-major over the 21 pairs a < b.
    Returns the result and the processes that evaluated the samples."""

    def sides(block):
        u, v, w = block[:, 0], block[:, 1], block[:, 2]
        return (_hemicontinuity_pairings(op, psi, u, v, w, dual_factor),
                np.sqrt(squared_norm_rows(op, v)), np.sqrt(squared_norm_rows(op, w)))

    (pairings, v_l2, w_l2), workers = by_sample_blocks(op, rng, count, 3, sides)
    allowance = 1e-12 * (np.abs(pairings).max(axis=0) + v_l2 * w_l2)
    a, b = np.triu_indices(_IOTAS.size, 1)
    gap = np.abs(pairings[b] - pairings[a])
    bound = 2.0 * k * (_IOTAS[b] - _IOTAS[a])[:, None] * v_l2 * w_l2 + allowance

    def row(i):
        pair, sample = divmod(i, count)
        return f"sample {sample}, |pairing({_IOTAS[b[pair]]:g}) - pairing({_IOTAS[a[pair]]:g})|"

    return verdict("hemicontinuity", gap, bound, row), workers


def _paired_conditions(op, psi, model, rng, count, dual_factor, eps) -> tuple[list, int]:
    """From one drift evaluation per state of the pairs (u1, u2):
    local monotonicity  2 <A u1 - A u2, u1 - u2> + noise gap mass <= shift ||u1 - u2||_F*^2;
    coercivity on u1    2 <A u, u> <= (-2c + 2 theta^2 k^2 (1-eps)) |u|_2^2
                          + (2 (1-eps)/theta^2 + h2) ||u||_F*^2,
                        only when psi certifies a coercivity constant c;
    growth on u2        ||A u||_(L2)* <= 2 k |u|_2.
    k and c are psi's, h2 and h3 (in the shift) the noise's closed forms.
    Sample i is the pair (u1, u2) of rows i.  Returns the results and the
    processes that evaluated the samples."""
    k, c = psi.lipschitz_k, psi.coercivity_c
    shift = monotonicity_shift(psi, eps, model.h3_closed_form(op))
    if c is not None:
        theta2 = theta(psi, eps) ** 2
        coef_l2 = -2.0 * c + 2.0 * theta2 * k * k * (1.0 - eps)
        coef_fstar = 2.0 * (1.0 - eps) / theta2 + model.h2_closed_form(op)

    def sides(block):
        a, b = block[:, 0], block[:, 1]
        d1, d2 = drift_rows(op, psi, a), drift_rows(op, psi, b)
        d_rows = a - b
        out = [
            2.0 * np.einsum("ij,ij,j->i", d1 - d2, d_rows, dual_factor)
            + noise_mass_rows(op, model, a, b),
            shift * squared_norm_rows(op, d_rows, F_STAR),
            # the l2 norm of d2 * dual_factor, the coefficients of A u2 over 1+mu
            np.sqrt(np.einsum("ij,ij,j->i", d2, d2, np.square(dual_factor))),
            2.0 * k * np.sqrt(squared_norm_rows(op, b)),
        ]
        if c is None:
            return out
        return out + [
            2.0 * np.einsum("ij,ij,j->i", d1, a, dual_factor),
            coef_l2 * squared_norm_rows(op, a) + coef_fstar * squared_norm_rows(op, a, F_STAR),
        ]

    (mono_lhs, mono_rhs, growth_lhs, growth_rhs, *coer), workers = by_sample_blocks(
        op, rng, count, 2, sides)
    return [
        verdict("local_monotonicity", mono_lhs, mono_rhs, "pair {}".format),
        *([verdict("coercivity", *coer)] if coer else []),
        verdict("growth", growth_lhs, growth_rhs),
    ], workers


def check_variational_conditions(
    op: OperatorSpectrum,
    psi: NonlinearityPsi,
    model: NoiseModel,
    epsilon: float,
    sample_count: int = 10_000,
    seed: int = 90_125,
) -> tuple[list, int]:
    """Audit hemicontinuity, local monotonicity, coercivity (when psi
    certifies a coercivity constant) and growth.

    Draws states with coefficients scaled by (1+mu_k)^(-1/2): first a tenth
    of `sample_count` (at least 10) triples (u, v, w) for hemicontinuity, then
    `sample_count` pairs (u1, u2), each as the rows of one sample-major
    (samples, 3 or 2, modes) draw made block by block, so the results do not
    depend on the block size and no (samples x modes) array is allocated.
    Local monotonicity reads the pairs, coercivity reads u1 and growth reads
    u2, so each condition checks `sample_count` rows from `2 * sample_count`
    drift evaluations.  Inequality slacks use zero tolerance; the
    hemicontinuity curve check carries a roundoff allowance tied to the
    pairing magnitude because it subtracts near-equal pairings.  Returns the
    hemicontinuity, local monotonicity, coercivity and growth results, in
    that order; the coercivity result only when psi certifies a coercivity
    constant, so every returned result is an audit that ran.  Returns them
    with the number of processes that drew and evaluated the samples, the
    larger of the two draws' (:func:`levypme.operators.by_sample_blocks`).
    ``epsilon`` must lie in (0, 1).
    """
    if sample_count < 10:
        raise ValueError("sample_count must be >= 10")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be within (0, 1)")
    rng = np.random.default_rng(seed)
    mu = op.eigenvalues
    dual_factor = -(mu + epsilon) / (1.0 + mu)  # pairing weight of A against (1+mu)^-1
    hemicontinuity, hemi_workers = _hemicontinuity(
        op, psi, rng, max(sample_count // 10, 10), dual_factor, psi.lipschitz_k)
    paired, paired_workers = _paired_conditions(
        op, psi, model, rng, sample_count, dual_factor, epsilon)
    return [hemicontinuity, *paired], max(hemi_workers, paired_workers)
