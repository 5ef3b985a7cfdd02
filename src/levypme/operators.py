"""Diagonal eigenmodel of a nonpositive operator L.

Everything downstream works with a finite family of eigenpairs of -L, held in an
:class:`OperatorSpectrum`.  Its basis, orthonormal under the quadrature weights
standing in for the reference measure, maps spectral coefficients to physical
nodal values and back, for one vector or a ``(rows, modes)`` stack at once.
A state is its coefficient vector, and a batch of states a stack of such
rows; physical values are computed only where a pointwise map needs them.
One model is built here: the fractional Laplacian on a 1-d torus, its basis
filled in place in one (n, n) array that the spectrum keeps without a copy.
A spectrum checks that its basis is orthonormal by comparing every entry of
the Gram matrix with the identity, a block of columns at a time, so building
one allocates about 1.5 times the basis's own bytes.

The transforms are dense gemms against the basis, except on a torus whose
node count :func:`_fft_sized` admits (385 nodes or more, no prime factor
above 41: 513 nodes, not 17, 65 or 257), where the same maps are real FFTs;
a spectrum decides which once, when it is built (``transform``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import parallel  # importing it pins OpenBLAS to one thread, before any gemm

__all__ = [
    "OperatorSpectrum",
    "build_fractional_laplacian_torus",
    "by_sample_blocks",
    "random_field",
    "random_rows",
    "smooth_field",
]


@dataclass(frozen=True)
class _Owned:
    """An array built in this module that no caller holds (the torus basis,
    filled in place): a spectrum keeps it, read-only, without a copy."""

    array: np.ndarray


def _frozen(a):
    """Read-only float copy of ``a``; an :class:`_Owned` array is kept itself."""
    out = a.array if isinstance(a, _Owned) else np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class OperatorSpectrum:
    """Finite eigenmodel of -L: eigenvalues, labels and a discrete L2 model.

    Attributes
    ----------
    eigenvalues : ndarray
        Nonnegative eigenvalues mu_k of -L, one per mode.
    labels : tuple
        Mode labels (Fourier indices for the torus, arbitrary otherwise).
    basis : ndarray, shape (n_phys, n_modes)
        Columns are the eigenfunctions sampled at the physical nodes,
        orthonormal under `weights`.
    weights : ndarray, shape (n_phys,)
        Positive quadrature weights of the physical nodes.
    transform : str
        ``"fft"`` when :meth:`to_physical` and :meth:`to_spectral` are real
        FFTs, ``"dense"`` when they are gemms against the basis; decided once,
        at construction (:func:`_fft_scales`).
    """

    eigenvalues: np.ndarray
    labels: tuple
    basis: np.ndarray
    weights: np.ndarray
    info: dict = field(default_factory=dict)
    # to_physical's input scale and to_spectral's output scale on the FFT path
    _fft: tuple | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _frozen(self.eigenvalues))
        object.__setattr__(self, "basis", _frozen(self.basis))
        object.__setattr__(self, "weights", _frozen(self.weights))
        object.__setattr__(self, "labels", tuple(self.labels))
        mu = self.eigenvalues
        if mu.ndim != 1 or mu.size == 0:
            raise ValueError("eigenvalues must be a nonempty 1-d array")
        if not np.all(np.isfinite(mu)) or np.any(mu < 0):
            raise ValueError("eigenvalues must be finite and nonnegative")
        if len(self.labels) != mu.size:
            raise ValueError("labels and eigenvalues must have equal length")
        if self.basis.shape != (self.weights.size, mu.size):
            raise ValueError("basis must be (n_phys, n_modes)")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")
        if not _orthonormal(self.basis, self.weights):
            raise ValueError("basis columns are not orthonormal under weights")
        object.__setattr__(self, "_fft", _fft_scales(self))

    @property
    def mode_count(self) -> int:
        return self.eigenvalues.size

    @property
    def transform(self) -> str:
        return "dense" if self._fft is None else "fft"

    # -- representation changes ------------------------------------------------
    #
    # On the FFT path an entry of either map differs from the dense product by
    # at most n eps |row|_1 max|basis|, |row|_1 taken of the weighted nodal
    # values for to_spectral.  At 385 to 1025 nodes and N(0, 1) coefficients
    # the differences came to at most a fifth of that bound: 3.2e-12 in
    # to_physical and 4.6e-13 in to_spectral at 513 nodes on the 2 pi torus.
    # Each row is transformed alone, so a row's values do not depend on the
    # rows stacked with it (the dense gemm gives no such promise).

    def to_physical(self, coefficients: np.ndarray) -> np.ndarray:
        """Nodal values of one coefficient vector or of each row of a stack."""
        if self._fft is None:
            return np.asarray(coefficients, dtype=float) @ self.basis.T
        return _inverse_rfft(coefficients, self._fft[0])

    def to_spectral(self, physical_values: np.ndarray) -> np.ndarray:
        """Coefficients of one nodal vector or of each row of a stack."""
        if self._fft is None:
            return (self.weights * np.asarray(physical_values, dtype=float)) @ self.basis
        return _rfft(physical_values, self._fft[1])

    def field_from_coefficients(self, coefficients) -> np.ndarray:
        """Read-only copy of one coefficient vector, checked against the modes.

        This is the one validation point for a single state; it computes no
        physical values.
        """
        c = _frozen(coefficients)
        if c.shape != (self.mode_count,):
            raise ValueError(
                f"expected {self.mode_count} coefficients, got shape {c.shape}"
            )
        return c


# Column blocks of the orthonormality check: each block's Gram columns and
# weighted copy hold at most a quarter of the basis's values, so the check
# allocates at most half the basis's bytes at once.  At 513 nodes it took
# 7.0 ms against the whole Gram's 7.8, and at 1025 nodes 52 against 47.
_GRAM_BLOCKS = 4


def _orthonormal(basis, weights) -> bool:
    """Whether every entry of the Gram matrix basis^T W basis is within 1e-10
    of the identity's (a NaN entry is not), computed _GRAM_BLOCKS blocks of
    columns at a time: no (modes, modes) array is allocated."""
    modes = basis.shape[1]
    step = -(-modes // _GRAM_BLOCKS)
    for start in range(0, modes, step):
        stop = min(start + step, modes)
        gram = basis.T @ (weights[:, None] * basis[:, start:stop])
        diagonal = np.arange(stop - start)
        gram[start + diagonal, diagonal] -= 1.0
        worst = np.abs(gram, out=gram).max()
        del gram  # freed before the next block's product is computed
        if not worst <= 1e-10:
            return False
    return True


# Node counts n whose torus transforms are real FFTs: from _FFT_NODES nodes on,
# with no prime factor above _FFT_LARGEST_FACTOR.  A large prime factor sends
# pocketfft to Bluestein's algorithm: at 64 rows or more the FFT took 2.4-3.1
# times the gemm's time at 257 nodes, 1.4-1.8 times at 449, 521 and 601, and
# as long at 769.  Below 385 nodes smooth counts gain less, and a single row
# at 225 or 275 nodes loses.  From 385 on smooth counts win at every row count
# tried (1 row, 16, 64 and an audit block): 1.5-3.5 times faster at 385-451
# nodes, 3.2-5.0 at 513 and 5.3-12.6 at 1025 (BENCH_30.json).
_FFT_NODES = 385
_FFT_LARGEST_FACTOR = 41


def _fft_sized(n: int) -> bool:
    """Whether a torus of ``n`` nodes is transformed by real FFT."""
    if n < _FFT_NODES:
        return False
    for p in range(2, _FFT_LARGEST_FACTOR + 1):
        while n % p == 0:
            n //= p
    return n == 1


def _fft_scales(op: OperatorSpectrum):
    """The scales that make real FFTs compute ``op``'s transforms:
    (to_physical's input scale, to_spectral's output scale), or None when
    the transforms stay dense gemms.

    The FFTs need the trigonometric basis on n = 2N + 1 uniform nodes from
    the node at 0, labelled 0, 1, -1, ..., N, -N (constant, then cosine and
    sine of each frequency k), and an n that :func:`_fft_sized` admits.  The
    scales are read off the basis's node-0 row, which holds the constant
    and each cosine's amplitude, and both FFTs must agree with the dense
    products on the coefficient row (1, 1/2, ..., 1/n) to 1e-10 relative:
    far above their roundoff, far below the gap that a basis of other
    signs, phases or nodes leaves.
    """
    n = op.mode_count
    labels = (0, *(sign * k for k in range(1, n // 2 + 1) for sign in (1, -1)))
    if (not _fft_sized(n) or op.labels != labels or op.weights.size != n
            or np.any(op.weights != op.weights[0])):
        return None
    physical = np.empty(n)
    physical[0] = op.basis[0, 0]
    physical[1::2] = op.basis[0, 1::2] / 2.0
    physical[2::2] = -physical[1::2]
    spectral = 2.0 * op.weights[0] * physical
    spectral[0] = op.weights[0] * physical[0]
    row = 1.0 / np.arange(1.0, n + 1.0)
    nodal = row @ op.basis.T
    back = (op.weights * nodal) @ op.basis
    if (np.abs(_inverse_rfft(row, physical) - nodal).max() > 1e-10 * np.abs(nodal).max()
            or np.abs(_rfft(nodal, spectral) - back).max() > 1e-10 * np.abs(back).max()):
        return None
    return _frozen(physical), _frozen(spectral)


def _inverse_rfft(coefficients, scale) -> np.ndarray:
    """Nodal values of coefficient rows in the torus label order: the rows
    times ``scale`` are the real and imaginary parts of the half spectrum,
    after the constant mode, whose imaginary part is 0."""
    c = np.asarray(coefficients, dtype=float)
    n = c.shape[-1]
    half = np.empty((*c.shape[:-1], n + 1))
    np.multiply(c, scale, out=half[..., 1:])
    half[..., 0] = half[..., 1]
    half[..., 1] = 0.0
    return np.fft.irfft(half.view(complex), n, norm="forward")


def _rfft(physical_values, scale) -> np.ndarray:
    """Coefficient rows of nodal rows: the real and imaginary parts of each
    row's half spectrum, the constant mode's imaginary part dropped, times
    ``scale``."""
    half = np.fft.rfft(np.asarray(physical_values, dtype=float)).view(float)
    half[..., 1] = half[..., 0]
    return np.multiply(half[..., 1:], scale)


# -- constructors ---------------------------------------------------------------


def build_fractional_laplacian_torus(
    mode_cutoff: int, alpha: float, length: float = 2.0 * math.pi
) -> OperatorSpectrum:
    """Fractional Laplacian -(-Delta)^alpha on a 1-d torus of given length.

    Modes are labelled 0, 1, -1, 2, -2, ..., +-mode_cutoff; label k carries the
    eigenvalue |2 pi k / length|^(2 alpha).  Positive labels are cosine modes,
    negative labels sine modes, label 0 the constant mode.  The physical grid
    has 2*mode_cutoff + 1 uniform nodes, on which the trigonometric basis is
    exactly orthonormal under the uniform weights.
    """
    if not isinstance(mode_cutoff, (int, np.integer)) or mode_cutoff < 1:
        raise ValueError("mode_cutoff must be an integer >= 1")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be within (0, 1]")
    if not length > 0.0:
        raise ValueError("length must be positive")

    n_phys = 2 * mode_cutoff + 1
    x = np.arange(n_phys) * (length / n_phys)
    weights = np.full(n_phys, length / n_phys)

    # filled in place and handed over as _Owned, so the spectrum keeps it
    # without a copy
    basis = np.empty((n_phys, n_phys))
    basis[:, 0] = 1.0 / math.sqrt(length)
    labels = [0]
    eigenvalues = [0.0]
    amp = math.sqrt(2.0 / length)
    for k in range(1, mode_cutoff + 1):
        phase = 2.0 * math.pi * k * x / length
        basis[:, 2 * k - 1] = amp * np.cos(phase)
        labels.append(k)
        basis[:, 2 * k] = amp * np.sin(phase)
        labels.append(-k)
        eigenvalues.extend([(2.0 * math.pi * k / length) ** (2.0 * alpha)] * 2)
    return OperatorSpectrum(
        np.array(eigenvalues),
        tuple(labels),
        _Owned(basis),
        weights,
        info={
            "family": "fractional_laplacian_torus",
            "mode_cutoff": int(mode_cutoff),
            "alpha": float(alpha),
            "length": float(length),
        },
    )


# -- sampling helpers ------------------------------------------------------------


def random_rows(op: OperatorSpectrum, rng: np.random.Generator, shape: tuple = (),
                scale: float = 1.0) -> np.ndarray:
    """Coefficient array of shape ``shape + (modes,)`` with independent mode-k
    entries ~ N(0, scale^2 / (1+mu_k)): one standard normal draw, scaled in place."""
    rows = rng.standard_normal((*shape, op.mode_count))
    rows *= scale / np.sqrt(1.0 + op.eigenvalues)
    return rows


# Values per state of a sample block: a block holds
# max(1, _BLOCK_VALUES // modes) samples, so each (block x modes) temporary is
# at most 256 KiB.  That is above glibc's default mmap threshold, so the heap
# need not keep it: a freed temporary may go back to the system and its
# successor be page-faulted anew.  2^15 takes less peak memory than 2^16; at
# 2^14 and 2^13 the processes of a dealt audit wait on the generator-state
# ring between blocks, and the 513-mode audit is slower (BENCH_38.json).
_BLOCK_VALUES = 1 << 15
# Modes from which the blocks are dealt to processes.  Each process draws only
# its own blocks, so on 2 CPUs the inequalities audits took 112-117 ms alone
# against 89-92 ms dealt at 65 modes, and 243-265 against 172-179 at 129
# (BENCH_29.json); but dealt at 65 modes the whole cascade-acceptance battery
# gained nothing beyond the noise and took 0.33 MB more memory (BENCH_38.json).
_DEALT_MODES = 128


def by_sample_blocks(op: OperatorSpectrum, rng: np.random.Generator, count: int,
                     states: int, rows_of, scale: float = 1.0) -> tuple:
    """Draw ``count`` samples of ``states`` coefficient rows each and evaluate
    ``rows_of(block)`` a block at a time, joining each of its outputs along the
    last (sample) axis; return those outputs and the number of processes that
    drew and evaluated the blocks.

    A block is one :func:`random_rows` draw of shape (b, states, modes), with
    b = max(1, _BLOCK_VALUES // modes) but fewer in the last block.  Draws on
    one generator continue its stream in C order, so the samples, and every
    result, are those of one (count, states, modes) draw whatever the block
    size; no array of every sample ever exists.  From ``_DEALT_MODES`` modes
    on the blocks are dealt to processes (:func:`levypme.parallel.deal`), and
    each process draws only its own: the generator state goes round a ring of
    pipes (:func:`levypme.parallel.drawn_in_turn`), from the process that
    drew a block to the one that draws the next, before either evaluates.
    The process that draws the last block returns the state it leaves, so
    ``rng`` continues as after the one draw.
    """
    step = max(1, _BLOCK_VALUES // op.mode_count)
    starts = range(0, count, step)

    def draw(index):
        return random_rows(op, rng, (min(step, count - starts[index]), states), scale)

    blocks = range(len(starts))
    workers = parallel.processes(len(blocks)) if op.mode_count >= _DEALT_MODES else 1
    if workers == 1:
        parts = [rows_of(draw(index)) for index in blocks]
    else:
        parts = parallel.drawn_in_turn(draw, rows_of, rng, blocks, workers)
    return tuple(np.concatenate(outputs, axis=-1) for outputs in zip(*parts)), workers


def random_field(op: OperatorSpectrum, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Random coefficient vector with mode-k coefficient ~ N(0, scale^2 / (1+mu_k))."""
    return op.field_from_coefficients(random_rows(op, rng, scale=scale))


def smooth_field(op: OperatorSpectrum, amplitude: float = 1.0) -> np.ndarray:
    """Deterministic smooth profile with coefficients amplitude / (1+mu_k)."""
    return op.field_from_coefficients(amplitude / (1.0 + op.eigenvalues))
