"""Diagonal eigenmodel of a nonpositive operator L.

Everything downstream works with a finite family of eigenpairs of -L, held in an
:class:`OperatorSpectrum`.  Its basis, orthonormal under the quadrature weights
standing in for the reference measure, maps spectral coefficients to physical
nodal values and back, for one vector or a ``(rows, modes)`` stack at once.
A state is its coefficient vector, and a batch of states a stack of such
rows; physical values are computed only where a pointwise map needs them.
One model is built here: the fractional Laplacian on a 1-d torus.

The transforms are dense gemms, so importing this module pins numpy's
OpenBLAS to one thread (:func:`pin_blas_threads`): a transform's bits do not
depend on ``OPENBLAS_NUM_THREADS``, and the program's only parallelism is its
own processes, one per usable CPU (:func:`deal`), which march the studies'
chunks and evaluate the audits' sample blocks.
"""
from __future__ import annotations

import ctypes
import math
import os
import pickle
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "OperatorSpectrum",
    "build_fractional_laplacian_torus",
    "by_sample_blocks",
    "deal",
    "pin_blas_threads",
    "random_field",
    "random_rows",
    "smooth_field",
]


def _frozen(a):
    out = np.array(a, dtype=float)
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
    """

    eigenvalues: np.ndarray
    labels: tuple
    basis: np.ndarray
    weights: np.ndarray
    info: dict = field(default_factory=dict)

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
        gram = self.basis.T @ (self.weights[:, None] * self.basis)
        if np.abs(gram - np.eye(mu.size)).max() > 1e-10:
            raise ValueError("basis columns are not orthonormal under weights")

    @property
    def mode_count(self) -> int:
        return self.eigenvalues.size

    # -- representation changes ------------------------------------------------

    def to_physical(self, coefficients: np.ndarray) -> np.ndarray:
        """Nodal values of one coefficient vector or of each row of a stack."""
        return np.asarray(coefficients, dtype=float) @ self.basis.T

    def to_spectral(self, physical_values: np.ndarray) -> np.ndarray:
        """Coefficients of one nodal vector or of each row of a stack."""
        return (self.weights * np.asarray(physical_values, dtype=float)) @ self.basis

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

    labels = [0]
    columns = [np.full(n_phys, 1.0 / math.sqrt(length))]
    eigenvalues = [0.0]
    amp = math.sqrt(2.0 / length)
    for k in range(1, mode_cutoff + 1):
        phase = 2.0 * math.pi * k * x / length
        columns.append(amp * np.cos(phase))
        labels.append(k)
        columns.append(amp * np.sin(phase))
        labels.append(-k)
        eigenvalues.extend([(2.0 * math.pi * k / length) ** (2.0 * alpha)] * 2)
    return OperatorSpectrum(
        np.array(eigenvalues),
        tuple(labels),
        np.column_stack(columns),
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
# 512 KiB, small enough to stay in cache and to be reused from the heap.
_BLOCK_VALUES = 1 << 16
# Modes from which the blocks are dealt to processes.  Every process draws
# every block, and a draw costs as much below about 129 modes as evaluating
# a block does: the inequalities audits on 2 CPUs took 100 ms alone against
# 107 ms dealt at 65 modes, 179 against 176 at 129, 411 against 323 at 257.
_DEALT_MODES = 128


def by_sample_blocks(op: OperatorSpectrum, rng: np.random.Generator, count: int,
                     states: int, rows_of, scale: float = 1.0) -> tuple:
    """Draw ``count`` samples of ``states`` coefficient rows each and evaluate
    ``rows_of(block)`` a block at a time, joining each of its outputs along the
    last (sample) axis.

    A block is one :func:`random_rows` draw of shape (b, states, modes), with
    b = max(1, _BLOCK_VALUES // modes) but fewer in the last block.  Draws on
    one generator continue its stream in C order, so the samples, and every
    result, are those of one (count, states, modes) draw whatever the block
    size; no array of every sample ever exists.  From ``_DEALT_MODES`` modes
    on the blocks are evaluated by :func:`deal`'s processes: each draws every
    block up to its next own one from its copy of ``rng``, and this process
    then draws the rest, so ``rng`` continues as after the one draw.
    """
    step = max(1, _BLOCK_VALUES // op.mode_count)
    starts = range(0, count, step)
    draws = enumerate(random_rows(op, rng, (min(step, count - start), states), scale)
                      for start in starts)

    def evaluate(index):
        for drawn, block in draws:
            if drawn == index:
                return rows_of(block)

    blocks = range(len(starts))
    if op.mode_count >= _DEALT_MODES:
        parts, _ = deal(evaluate, blocks)
    else:
        parts = [evaluate(index) for index in blocks]
    for _ in draws:
        pass
    return tuple(np.concatenate(outputs, axis=-1) for outputs in zip(*parts))


def random_field(op: OperatorSpectrum, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Random coefficient vector with mode-k coefficient ~ N(0, scale^2 / (1+mu_k))."""
    return op.field_from_coefficients(random_rows(op, rng, scale=scale))


def smooth_field(op: OperatorSpectrum, amplitude: float = 1.0) -> np.ndarray:
    """Deterministic smooth profile with coefficients amplitude / (1+mu_k)."""
    return op.field_from_coefficients(amplitude / (1.0 + op.eigenvalues))


# -- processes and BLAS threads ------------------------------------------------------


def deal(work, items):
    """``[work(item) for item in items]`` and the number of processes that ran
    it: this one and ``os.fork``ed children, one per usable CPU, dealt the
    items round-robin.  Each stops at its first failure; the lowest item's is
    raised, as the plain loop would.  Every child is reaped.

    The items are dealt only while BLAS is pinned to one thread: a threaded
    gemm in each of several processes would contend for the cores (four
    march chunks at 97 modes took 3-4 times as long).  Without a loaded
    OpenBLAS this process runs them all."""
    spread = pin_blas_threads() is not None and hasattr(os, "sched_getaffinity")
    cpus = len(os.sched_getaffinity(0)) if spread else 1
    workers = min(cpus, len(items)) if hasattr(os, "fork") else 1

    def share(start):  # (index, result or exception), up to the first failure
        done = []
        for index in range(start, len(items), workers):
            try:
                done.append((index, work(items[index])))
            except Exception as exc:
                return done + [(index, exc)]
        return done

    pipes = {}  # child pid -> read end of its pipe
    try:
        for start in range(1, workers):
            read, write = os.pipe()
            if (pid := os.fork()) == 0:  # the child pickles its share and leaves
                try:
                    os.close(read)
                    with os.fdopen(write, "wb") as pipe:
                        pickle.dump(share(start), pipe)
                finally:
                    os._exit(0)
            os.close(write)
            pipes[pid] = os.fdopen(read, "rb")
        done = share(0) + [outcome for pipe in pipes.values() for outcome in pickle.load(pipe)]
    finally:
        for pipe in pipes.values():  # a child blocked on a full pipe ends now
            pipe.close()
        for pid in pipes:
            os.waitpid(pid, 0)
    done.sort(key=lambda outcome: outcome[0])
    for _, value in done:
        if isinstance(value, Exception):
            raise value
    return [value for _, value in done], workers


# The thread-count entry points of the OpenBLAS builds numpy links: the
# scipy-openblas of numpy 2.x wheels, the OpenBLAS of numpy 1.x wheels (both
# with 64-bit integers) and a system OpenBLAS.
_THREAD_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                   "openblas_{}_num_threads")


def _loaded_openblas() -> list:
    """(file name, set_num_threads, get_num_threads) of every OpenBLAS mapped
    into this process, as ``/proc/self/maps`` lists them; empty where no
    mapped file named OpenBLAS exports those entry points, or where the maps
    cannot be read."""
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(None, 5) for line in maps]
    except OSError:
        return []
    paths = sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5].lower()})
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_SYMBOLS:
            if hasattr(lib, symbol.format("set")) and hasattr(lib, symbol.format("get")):
                set_threads, get_threads = lib[symbol.format("set")], lib[symbol.format("get")]
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                found.append((os.path.basename(path), set_threads, get_threads))
                break
    return found


def pin_blas_threads():
    """Set every loaded OpenBLAS to one thread; return ``{file name: thread
    count read back}``, or None when no OpenBLAS is loaded and BLAS is left
    as configured.

    Runs when this module is imported, after numpy has loaded its BLAS, and
    again before :func:`deal` forks and when a run records its environment.
    Forked processes inherit the setting.
    """
    found = _loaded_openblas()
    for _, set_threads, _ in found:
        set_threads(1)
    return {name: int(get_threads()) for name, _, get_threads in found} or None


pin_blas_threads()
