"""Operator model: eigenvalues, basis transforms, sampling helpers.

Frozen eigenvalues below are computed by hand from the closed form
mu_k = |2 pi k / length|^(2 alpha).
"""
import json
import math
import os
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levypme import operators
from levypme.operators import (
    OperatorSpectrum,
    WorkerError,
    build_fractional_laplacian_torus,
    by_sample_blocks,
    random_field,
    smooth_field,
)

from conftest import spectrum_from_eigenvalues


def test_torus_eigenvalues_frozen():
    op = build_fractional_laplacian_torus(2, 0.5)
    assert op.labels == (0, 1, -1, 2, -2)
    assert op.eigenvalues.tolist() == [0.0, 1.0, 1.0, 2.0, 2.0]

    op2 = build_fractional_laplacian_torus(2, 1.0)
    assert op2.eigenvalues.tolist() == [0.0, 1.0, 1.0, 4.0, 4.0]

    # alpha = 0.5 turns the squared frequency into |k|; label 4 carries 4
    op3 = build_fractional_laplacian_torus(4, 0.5)
    assert op3.eigenvalues[op3.labels.index(4)] == pytest.approx(4.0, abs=1e-14)


def test_torus_length_scaling():
    # doubling the circle halves the frequency: mu_1 = (2 pi / L)^(2 alpha)
    op = build_fractional_laplacian_torus(1, 1.0, length=4.0 * math.pi)
    assert op.eigenvalues[1] == pytest.approx(0.25, abs=1e-15)


def test_basis_orthonormality_and_roundtrip(torus_small):
    op = torus_small
    gram = op.basis.T @ (op.weights[:, None] * op.basis)
    assert np.abs(gram - np.eye(op.mode_count)).max() < 1e-12

    rng = np.random.default_rng(5)
    c = rng.standard_normal(op.mode_count)
    back = op.to_spectral(op.to_physical(c))
    assert np.abs(back - c).max() < 1e-12


def test_basis_slightly_off_orthonormal_rejected():
    # a basis whose Gram is 1e-6 off the identity is not orthonormal
    basis = np.eye(3)
    basis[0, 1] = 1e-6
    with pytest.raises(ValueError, match="orthonormal"):
        OperatorSpectrum(np.array([0.0, 1.0, 4.0]), (0, 1, 2), basis, np.ones(3))


def test_parseval(torus_small):
    op = torus_small
    c = np.random.default_rng(11).standard_normal(op.mode_count)
    v = op.to_physical(c)
    assert float(np.sum(op.weights * v * v)) == pytest.approx(float(c @ c), rel=1e-13)


def test_spectrum_from_eigenvalues_identity_model():
    op = spectrum_from_eigenvalues([0.0, 1.0, 4.0])
    # identity basis: physical values equal coefficients
    u = op.field_from_coefficients(np.array([1.0, -2.0, 0.5]))
    assert np.array_equal(op.to_physical(u), u)
    with pytest.raises(ValueError):
        spectrum_from_eigenvalues([-1.0])


def test_field_arrays_read_only(torus_small):
    u = smooth_field(torus_small)
    with pytest.raises(ValueError):
        u[0] = 7.0


def test_smooth_and_random_field_profiles(torus_small):
    op = torus_small
    u = smooth_field(op, amplitude=2.0)
    assert np.allclose(u, 2.0 / (1.0 + op.eigenvalues))
    a = random_field(op, np.random.default_rng(3), scale=1.0)
    b = random_field(op, np.random.default_rng(3), scale=1.0)
    assert np.array_equal(a, b)


@settings(max_examples=25, deadline=None)
@given(
    cutoff=st.integers(min_value=1, max_value=6),
    alpha=st.floats(min_value=0.1, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_roundtrip_property(cutoff, alpha, seed):
    op = build_fractional_laplacian_torus(cutoff, alpha)
    c = np.random.default_rng(seed).standard_normal(op.mode_count)
    assert np.abs(op.to_spectral(op.to_physical(c)) - c).max() < 1e-10


# Reads the thread count of every OpenBLAS mapped into the process, found
# without levypme's help, before and after importing levypme.operators.
_THREADS_AROUND_IMPORT = """
import ctypes, json, sys
import numpy

def threads():
    fields = [line.split(None, 5) for line in open("/proc/self/maps")]
    out = {}
    for path in sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5].lower()}):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                out[path] = getattr(lib, name)()
                break
    return out

before = threads()
sys.path.insert(0, sys.argv[1])
import levypme.operators
print(json.dumps([before, threads()]))
"""


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs /proc/self/maps")
def test_import_pins_openblas_to_one_thread():
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-B", "-c", _THREADS_AROUND_IMPORT, str(src)],
        capture_output=True, text=True, env={**os.environ, "OPENBLAS_NUM_THREADS": "2"},
    )
    assert done.returncode == 0, done.stderr
    before, after = json.loads(done.stdout.splitlines()[-1])
    if not before:
        pytest.skip("numpy's BLAS is not an OpenBLAS")
    if (os.cpu_count() or 1) >= 2:
        assert set(before.values()) == {2}
    assert after == dict.fromkeys(before, 1)


def _blocks_of_four(monkeypatch, cpus):
    """A 129-mode spectrum, whose sample blocks are dealt, with blocks of at
    most 4 samples and ``cpus`` usable CPUs."""
    op = build_fractional_laplacian_torus(64, 0.5)
    assert op.mode_count >= operators._DEALT_MODES
    monkeypatch.setattr(operators, "_BLOCK_VALUES", 4 * op.mode_count)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    return op


def test_sample_blocks_split_changes_no_bit(monkeypatch):
    # blocks of at most 4 samples (8 of them for 30 samples, 2 for 8, 1 for
    # 3), dealt to one process per CPU but at most one per block, or drawn
    # here alone: the outputs are the same bits, those of one whole draw,
    # and the generator goes on as after that one draw
    for count, cpus, workers in [(30, 3, 3), (30, 2, 2), (30, 1, 1), (8, 3, 2), (3, 3, 1)]:
        op = _blocks_of_four(monkeypatch, cpus)
        whole_rng = np.random.default_rng(11)
        whole = operators.random_rows(op, whole_rng, (count, 2))
        rng = np.random.default_rng(11)
        out, used = by_sample_blocks(op, rng, count, 2,
                                     lambda b: (b.sum(axis=(1, 2)), b[:, 1, 3]))
        assert used == workers
        assert np.array_equal(out[0], whole.sum(axis=(1, 2)))
        assert np.array_equal(out[1], whole[:, 1, 3])
        assert rng.random() == whole_rng.random()


def test_each_process_draws_only_its_own_blocks(monkeypatch):
    # 8 blocks on 3 processes: process p draws and evaluates blocks p, p + 3,
    # ..., so the block it evaluates k-th is the k-th block it drew, and this
    # process (blocks 0, 3 and 6) drew 3 blocks in all
    op = _blocks_of_four(monkeypatch, 3)
    drawn = []  # this process's draws; a forked process starts from its copy
    random_rows = operators.random_rows

    def counting(*args, **kwargs):
        drawn.append(1)
        return random_rows(*args, **kwargs)

    def rows_of(block):
        return np.full(len(block), os.getpid()), np.full(len(block), len(drawn))

    monkeypatch.setattr(operators, "random_rows", counting)
    (pids, draws), workers = by_sample_blocks(op, np.random.default_rng(2), 30, 2, rows_of)
    assert workers == 3
    first = np.arange(0, 30, 4)  # each block's first sample
    assert pids[0] == os.getpid() and len(set(pids[first[:3]])) == 3
    assert list(pids[first]) == [pids[first[b % 3]] for b in range(8)]
    assert list(draws[first]) == [b // 3 + 1 for b in range(8)]
    assert len(drawn) == 3


def _within(seconds, scenario):
    """Run ``scenario()`` in a forked process that leads a session of its own
    and fail with its traceback if it fails; kill the session and fail if it
    runs longer than ``seconds``, so that a hang fails the test at once."""
    read, write = os.pipe()
    if (pid := os.fork()) == 0:
        status = 1
        try:
            os.close(read)
            os.setsid()
            scenario()
            status = 0
        except BaseException:
            os.write(write, traceback.format_exc()[-4000:].encode())
        finally:
            os._exit(status)
    os.close(write)
    deadline = time.monotonic() + seconds
    with os.fdopen(read, "rb") as pipe:
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
            if time.monotonic() > deadline:
                os.killpg(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail(f"still running after {seconds} s")
            time.sleep(0.01)
        message = pipe.read().decode()
    assert done[1] == 0, message or f"wait status {done[1]}"


@pytest.mark.parametrize("killed_at, raised_at, expected, message", [
    ((True, 2), None, WorkerError, "^a worker process was killed by SIGKILL at item 3$"),
    (None, (True, 1), ValueError, "^child's evaluation 1$"),
    (None, (False, 2), ValueError, "^parent's evaluation 2$"),
], ids=["child killed", "child raises", "parent raises"])
def test_dealt_draw_failure_is_raised_and_no_child_left(killed_at, raised_at, expected,
                                                       message, monkeypatch):
    # 8 blocks on 2 processes, the child drawing blocks 1, 3, 5 and 7: the
    # child is killed as it draws block 3, before it passes the state on; or
    # it raises evaluating block 1; or this process raises evaluating block
    # 2, after passing the state on to block 3, while the child will wait
    # for the state after block 4.  The failure deal raises is the one
    # raised, no process waits for a state that never comes, and every child
    # is reaped.  A (process, n) pair plants a fault at that process's n-th
    # draw or evaluation; the process is True for the child.
    op = _blocks_of_four(monkeypatch, 2)
    parent = None  # the process that calls by_sample_blocks
    draws, evaluations = [], []  # this process's; a forked one starts from its copy
    random_rows = operators.random_rows

    def drawing(*args, **kwargs):
        draws.append(1)
        if (os.getpid() != parent, len(draws)) == killed_at:
            os.kill(os.getpid(), signal.SIGKILL)
        return random_rows(*args, **kwargs)

    def rows_of(block):
        evaluations.append(1)
        in_child = os.getpid() != parent
        if (in_child, len(evaluations)) == raised_at:
            raise ValueError(f"{'child' if in_child else 'parent'}'s evaluation {len(evaluations)}")
        return (block[:, 0, 0],)

    def scenario():
        nonlocal parent
        parent = os.getpid()
        with pytest.raises(expected, match=message):
            by_sample_blocks(op, np.random.default_rng(3), 30, 2, rows_of)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    monkeypatch.setattr(operators, "random_rows", drawing)
    _within(10.0, scenario)


class _KeywordOnly(Exception):
    def __init__(self, *, why):
        super().__init__(why)


def _raise_keyword_only():
    raise _KeywordOnly(why="planted")


@pytest.mark.parametrize("planted, message", [
    (lambda: os.kill(os.getpid(), signal.SIGKILL),
     "a worker process was killed by SIGKILL at item 3"),
    (lambda: os._exit(7), "a worker process exited with status 7 at item 3"),
    (_raise_keyword_only, "_KeywordOnly: planted"),
])
def test_deal_names_what_a_child_could_not_send(planted, message, monkeypatch):
    # on 2 CPUs the child works items 1, 3 and 5; after item 1 it dies at
    # item 3, or raises an exception that pickles but does not unpickle (its
    # constructor takes a keyword only); the caller gets a WorkerError that
    # says so at item 3, and no child is left
    parent = os.getpid()

    def work(item):
        if item == 3 and os.getpid() != parent:
            planted()
        return item

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with pytest.raises(WorkerError, match=f"^{message}$"):
        operators.deal(work, range(6))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_deal_places_a_dead_worker_after_its_last_item(monkeypatch):
    # the child finishes item 1 and is killed at item 3, the parent fails at
    # item 2: the plain loop would raise item 2's error, and so does deal;
    # with the parent well, the death is raised at item 3
    parent = os.getpid()

    def work(item, parent_fails):
        if item == 3 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        if item == 2 and parent_fails:
            raise ValueError("item 2")
        return item

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with pytest.raises(ValueError, match="^item 2$"):
        operators.deal(lambda item: work(item, True), range(6))
    with pytest.raises(WorkerError, match="at item 3$"):
        operators.deal(lambda item: work(item, False), range(6))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
