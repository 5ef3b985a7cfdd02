"""Diagonal eigenmodel of a nonpositive operator L.

Everything downstream works with a finite family of eigenpairs of -L, held in an
:class:`OperatorSpectrum`.  Its basis, orthonormal under the quadrature weights
standing in for the reference measure, maps spectral coefficients to physical
nodal values and back, for one vector or a ``(rows, modes)`` stack at once.
A state is its coefficient vector, and a batch of states a stack of such
rows; physical values are computed only where a pointwise map needs them.
One model is built here: the fractional Laplacian on a 1-d torus.

The transforms are dense gemms against the basis, except on a torus whose
node count :func:`_fft_sized` admits (385 nodes or more, no prime factor
above 41: 513 nodes, not 17, 65 or 257), where the same maps are real FFTs;
a spectrum decides which once, when it is built (``transform``).  Importing
this module pins numpy's OpenBLAS to one thread (:func:`pin_blas_threads`):
a gemm's bits do not depend on ``OPENBLAS_NUM_THREADS``, and the program's
only parallelism is its own processes, one per usable CPU (:func:`deal`),
which march the studies' chunks and draw and evaluate the audits' sample
blocks, each process only its own blocks (:func:`by_sample_blocks`).
"""
from __future__ import annotations

import ctypes
import math
import os
import pickle
import signal
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "OperatorSpectrum",
    "WorkerError",
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
        gram = self.basis.T @ (self.weights[:, None] * self.basis)
        if np.abs(gram - np.eye(mu.size)).max() > 1e-10:
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
# Modes from which the blocks are dealt to processes.  Each process draws only
# its own blocks, so on 2 CPUs the inequalities audits took 112-117 ms alone
# against 89-92 ms dealt at 65 modes, and 243-265 against 172-179 at 129.
# From here on, too, a study's march splits a ladder whose paths fit one
# chunk (cascade.CHUNK_ROWS) into two, so that it is dealt as two; that split
# is slower below 128 modes (BENCH_27.json), so the audits keep its gate.
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
    on the blocks are dealt to :func:`deal`'s processes, and each process
    draws only its own: the generator state goes round a ring of pipes, from
    the process that drew a block to the one that draws the next, before
    either evaluates.  The process that draws the last block returns the
    state it leaves, so ``rng`` continues as after the one draw.
    """
    step = max(1, _BLOCK_VALUES // op.mode_count)
    starts = range(0, count, step)

    def draw(index):
        return random_rows(op, rng, (min(step, count - starts[index]), states), scale)

    blocks = range(len(starts))
    workers = _workers(len(blocks)) if op.mode_count >= _DEALT_MODES else 1
    if workers == 1:
        parts = [rows_of(draw(index)) for index in blocks]
    else:
        parts = _drawn_in_turn(draw, rows_of, rng, blocks, workers)
    return tuple(np.concatenate(outputs, axis=-1) for outputs in zip(*parts)), workers


def _drawn_in_turn(draw, rows_of, rng, blocks, workers) -> list:
    """``[rows_of(draw(index)) for index in blocks]`` on :func:`deal`'s
    ``workers`` processes, with ``rng`` at the state the plain loop leaves.

    Process p draws blocks p, p + workers, ...  Pipe p of the ring carries
    the state left after each of them to process p + 1 (mod workers), which
    draws the next block.  Each process closes the ends of the pipes that are
    not its own, and its sending end as soon as it fails (a child's closes as
    it exits), so the next process reads an end of file instead of waiting
    for ever; that one fails too, at a later block than the failure
    :func:`deal` raises.  Each also keeps the reading end of its own pipe
    open, so that a send never meets a closed pipe.
    """
    ring = [(os.fdopen(read, "rb"), os.fdopen(write, "wb"))
            for read, write in (os.pipe() for _ in range(workers))]
    held = {end for pipe in ring for end in pipe}  # this process's open ends
    last = len(blocks) - 1

    def evaluate(index):
        inbox, (unread, outbox) = ring[index % workers - 1][0], ring[index % workers]
        for end in held - {inbox, unread, outbox}:  # on the first call in each process
            end.close()
        held.intersection_update((inbox, unread, outbox))
        try:
            if index > 0:
                rng.bit_generator.state = pickle.load(inbox)
            block = draw(index)
            if index < last:
                pickle.dump(rng.bit_generator.state, outbox)
                outbox.flush()
            final = rng.bit_generator.state if index == last else None
            return rows_of(block), final
        except BaseException:
            outbox.close()
            raise

    try:
        parts, _ = deal(evaluate, blocks)
    finally:
        for end in held:
            end.close()
    rng.bit_generator.state = parts[-1][1]
    return [outputs for outputs, _ in parts]


def random_field(op: OperatorSpectrum, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Random coefficient vector with mode-k coefficient ~ N(0, scale^2 / (1+mu_k))."""
    return op.field_from_coefficients(random_rows(op, rng, scale=scale))


def smooth_field(op: OperatorSpectrum, amplitude: float = 1.0) -> np.ndarray:
    """Deterministic smooth profile with coefficients amplitude / (1+mu_k)."""
    return op.field_from_coefficients(amplitude / (1.0 + op.eigenvalues))


# -- processes and BLAS threads ------------------------------------------------------


class WorkerError(RuntimeError):
    """A :func:`deal` worker died, or failed with an exception that does not
    survive pickling (sent as its class name and message)."""


def _workers(items: int) -> int:
    """The number of processes :func:`deal` runs ``items`` items on, and
    :func:`by_sample_blocks` draws its dealt blocks on: one per usable CPU
    (``os.sched_getaffinity``), but no more than there are items, and one
    where there is no ``os.fork``.

    The items are dealt only while BLAS is pinned to one thread: a threaded
    gemm in each of several processes would contend for the cores (four
    march chunks at 97 modes took 3-4 times as long).  Without a loaded
    OpenBLAS this process runs them all."""
    spread = (pin_blas_threads() is not None and hasattr(os, "sched_getaffinity")
              and hasattr(os, "fork"))
    cpus = len(os.sched_getaffinity(0)) if spread else 1
    return max(1, min(cpus, items))


def deal(work, items):
    """``[work(item) for item in items]`` and the number of processes that ran
    it: this one and ``os.fork``ed children, :func:`_workers` of them in all,
    dealt the items round-robin.  Each stops at its first failure; the lowest
    item's is raised, as the plain loop would.  A child sends a byte as it
    ends each item and its outcomes when it ends its share, so one that dies
    fails, with a :class:`WorkerError` naming its signal or exit status, at
    the first of its items it did not end.  Every child is reaped."""
    workers = _workers(len(items))

    def share(start):  # (index, result or exception) of each item, up to the first failure
        for index in range(start, len(items), workers):
            try:
                yield index, work(items[index])
            except Exception as exc:
                yield index, exc
                return

    def sendable(index, value):  # a failure as one that unpickles
        if isinstance(value, Exception):
            try:
                pickle.loads(pickle.dumps(value))
            except Exception:
                value = WorkerError(f"{type(value).__name__}: {value}")
        return index, value

    def received(start, data, status):  # the outcomes a child sent, and how it ended
        ended = len(data) - len(data.lstrip(b"+"))  # items it ended; a pickle starts b"\x80"
        if status == 0:
            return pickle.loads(data[ended:])
        if os.WIFSIGNALED(status):
            how = f"was killed by {signal.Signals(os.WTERMSIG(status)).name}"
        else:
            how = f"exited with status {os.waitstatus_to_exitcode(status)}"
        index = start + ended * workers
        where = f"at item {items[index]!r}" if index < len(items) else "after its last item"
        return [(index, WorkerError(f"a worker process {how} {where}"))]

    pipes = {}  # unreaped child pid -> (its first index, read end of its pipe)
    try:
        for start in range(1, workers):
            read, write = os.pipe()
            if (pid := os.fork()) == 0:  # the child sends its share and leaves
                status = 1
                try:
                    os.close(read)
                    with os.fdopen(write, "wb") as pipe:
                        # a byte as each item ends, the outcomes at the end: sent
                        # one by one they would fill the pipe while this process
                        # waits for its parent to read, which it does last
                        done = []
                        for outcome in share(start):
                            done.append(sendable(*outcome))
                            pipe.write(b"+")
                            pipe.flush()
                        pickle.dump(done, pipe)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            pipes[pid] = (start, os.fdopen(read, "rb"))
        done = list(share(0))
        for pid, (start, pipe) in list(pipes.items()):
            with pipe:
                data = pipe.read()
            del pipes[pid]
            done += received(start, data, os.waitpid(pid, 0)[1])
    finally:
        for pid, (_, pipe) in pipes.items():  # a child blocked on a full pipe ends now
            pipe.close()
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
