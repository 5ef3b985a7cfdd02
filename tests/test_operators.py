"""Operator model: eigenvalues, basis transforms, sampling helpers.

Frozen eigenvalues below are computed by hand from the closed form
mu_k = |2 pi k / length|^(2 alpha).
"""
import math
import os
import signal
import time
import traceback
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levypme import cascade, operators
from levypme.operators import (
    OperatorSpectrum,
    build_fractional_laplacian_torus,
    by_sample_blocks,
    random_field,
    smooth_field,
)
from levypme.parallel import WorkerError

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


def _column_built_torus(mode_cutoff, alpha, length=2.0 * math.pi):
    """The torus basis in closed form, one column array per mode, stacked."""
    n_phys = 2 * mode_cutoff + 1
    x = np.arange(n_phys) * (length / n_phys)
    amp = math.sqrt(2.0 / length)
    columns = [np.full(n_phys, 1.0 / math.sqrt(length))]
    for k in range(1, mode_cutoff + 1):
        phase = 2.0 * math.pi * k * x / length
        columns += [amp * np.cos(phase), amp * np.sin(phase)]
    return np.column_stack(columns)


@pytest.mark.parametrize("cutoff", [8, 32, 128, 256, 512])
def test_basis_built_in_place_is_the_column_build(cutoff):
    # 17, 65, 257, 513 and 1025 nodes: the basis filled in place is the
    # closed-form columns, bit for bit, read-only and in C order (that the
    # spectrum keeps it without a copy shows in the allocation test below)
    op = build_fractional_laplacian_torus(cutoff, 0.7, length=3.0)
    assert np.array_equal(op.basis, _column_built_torus(cutoff, 0.7, length=3.0))
    assert op.basis.flags.c_contiguous and not op.basis.flags.writeable


@pytest.mark.parametrize("cutoff", [256, 512])
def test_building_the_torus_allocates_at_most_twice_the_basis(cutoff):
    # the basis itself, and the orthonormality check's column blocks (at
    # most half the basis's bytes): no stacked columns, no second copy, no
    # (modes, modes) Gram; column stacking and the whole Gram peaked at 6x
    tracemalloc.start()
    try:
        op = build_fractional_laplacian_torus(cutoff, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * op.basis.nbytes


def test_defect_in_the_last_gram_block_rejected():
    # a 513-node basis whose last column is 5e-7 too long: its Gram is 1e-6
    # off the identity on the diagonal of the last column block only
    op = build_fractional_laplacian_torus(256, 0.5)
    basis = op.basis.copy()
    basis[:, -1] *= 1.0 + 5e-7
    with pytest.raises(ValueError, match="orthonormal"):
        OperatorSpectrum(op.eigenvalues, op.labels, basis, op.weights)


def test_nan_basis_rejected():
    # a NaN Gram entry is not within 1e-10 of the identity's
    basis = np.eye(3)
    basis[2, 0] = np.nan
    with pytest.raises(ValueError, match="orthonormal"):
        OperatorSpectrum(np.array([0.0, 1.0, 4.0]), (0, 1, 2), basis, np.ones(3))


def test_callers_basis_is_copied():
    # every array a caller passes in is copied: a writable one, a read-only
    # view of one, and a read-only array of its own, whose owner may turn
    # writes back on; writing to it afterwards leaves the spectrum unchanged
    owned = np.eye(3)
    owned.setflags(write=False)
    basis = np.eye(3)
    view = basis.view()
    view.setflags(write=False)
    for given, source in ((basis, basis), (view, basis), (owned, owned)):
        op = OperatorSpectrum(np.array([0.0, 1.0, 4.0]), (0, 1, 2), given, np.ones(3))
        assert op.basis is not given and not op.basis.flags.writeable
        source.setflags(write=True)
        source[0, 0] = 7.0
        assert op.basis[0, 0] == 1.0
        source[0, 0] = 1.0
    # and so is a single state's coefficient vector
    c = np.array([1.0, 2.0, 3.0])
    c.setflags(write=False)
    assert op.field_from_coefficients(c) is not c


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


@pytest.mark.parametrize("cutoff", [8, 16, 32, 128])
def test_dense_transforms_are_the_basis_products(cutoff):
    # 17, 33 and 65 nodes (every shipped scenario) and 257 (prime) stay
    # dense gemms, bit for bit, so no shipped report moves
    op = build_fractional_laplacian_torus(cutoff, 0.5)
    assert op.transform == "dense"
    c = np.random.default_rng(cutoff).standard_normal((9, op.mode_count))
    x = c @ op.basis.T
    assert np.array_equal(op.to_physical(c), x)
    assert np.array_equal(op.to_spectral(x), (op.weights * x) @ op.basis)


@pytest.mark.parametrize("cutoff, transform", [(192, "fft"), (256, "fft"), (260, "dense")])
def test_fft_transforms_match_the_basis(cutoff, transform):
    # 385 = 5 7 11 and 513 = 3^3 19 nodes are transformed by real FFT, 521
    # (prime) by the dense basis.  Every entry is within n eps |row|_1
    # max|basis| of the dense product, for one row, a stack and a strided
    # stack, and a row's values are the same bits alone as in a block of 127
    op = build_fractional_laplacian_torus(cutoff, 0.6, length=3.0)
    assert op.transform == transform
    n = op.mode_count
    c = np.random.default_rng(n).standard_normal((127, 2 * n))[:, ::2]
    x = np.ascontiguousarray(c) @ op.basis.T
    bound = n * np.finfo(float).eps * np.abs(op.basis).max()
    for rows in (c[3], np.ascontiguousarray(c), c, c[::3]):
        dense_x = np.ascontiguousarray(rows) @ op.basis.T
        dense_c = (op.weights * dense_x) @ op.basis
        tol_x = bound * np.abs(rows).sum(axis=-1, keepdims=True)
        tol_c = bound * np.abs(op.weights * dense_x).sum(axis=-1, keepdims=True)
        assert np.all(np.abs(op.to_physical(rows) - dense_x) <= tol_x)
        assert np.all(np.abs(op.to_spectral(dense_x) - dense_c) <= tol_c)
    if transform == "fft":
        assert np.array_equal(op.to_physical(c[40]), op.to_physical(c)[40])
        assert np.array_equal(op.to_spectral(x[40]), op.to_spectral(x)[40])


def test_fft_needs_the_torus_basis():
    # the FFT is taken only for node counts from 385 on with no prime factor
    # above 41, and only for the trigonometric basis on uniform nodes in the
    # torus label order: the same 513 modes in another order, or with a sign
    # flipped, stay dense
    sizes = (17, 33, 65, 257, 351, 385, 387, 513, 521, 697, 1025)
    assert [n for n in sizes if operators._fft_sized(n)] == [385, 513, 697, 1025]
    op = build_fractional_laplacian_torus(256, 0.5)
    order = np.r_[0, 2:op.mode_count, 1]
    flipped = op.basis.copy()
    flipped[:, 2] *= -1.0
    assert OperatorSpectrum(op.eigenvalues[order], np.array(op.labels)[order],
                            op.basis[:, order], op.weights).transform == "dense"
    assert OperatorSpectrum(op.eigenvalues, op.labels, flipped, op.weights).transform == "dense"
    assert OperatorSpectrum(op.eigenvalues, op.labels, op.basis, op.weights).transform == "fft"


def _blocks_of_four(monkeypatch, cpus):
    """A 129-mode spectrum, whose sample blocks are dealt, with blocks of at
    most 4 samples and ``cpus`` usable CPUs."""
    op = build_fractional_laplacian_torus(64, 0.5)
    assert op.mode_count >= operators._DEALT_MODES
    monkeypatch.setattr(operators, "_BLOCK_VALUES", 4 * op.mode_count)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    return op


def test_each_threshold_decides_only_its_own_dealing(monkeypatch):
    # on 2 CPUs 2 blocks of a 129-mode audit are dealt to 2 processes
    # (operators._DEALT_MODES) and a 257-mode ladder of 16 paths x 3 cells
    # is halved into 2 chunks (cascade._HALVED_MODES); moving either
    # threshold out of reach changes its own decision and not the other's
    op = _blocks_of_four(monkeypatch, 2)

    def audit_processes():  # 8 samples in 2 blocks of 4
        return by_sample_blocks(op, np.random.default_rng(1), 8, 1, lambda b: (b[:, 0, 0],))[1]

    halved = cascade._HALVED_MODES
    monkeypatch.setattr(cascade, "_HALVED_MODES", 10**6)
    assert cascade._chunk_bounds(257, 16, 3) == [(0, 16)]
    assert audit_processes() == 2
    monkeypatch.setattr(cascade, "_HALVED_MODES", halved)
    monkeypatch.setattr(operators, "_DEALT_MODES", 10**6)
    assert audit_processes() == 1
    assert cascade._chunk_bounds(257, 16, 3) == [(0, 8), (8, 16)]


def test_audit_blocks_are_dealt_from_128_modes(monkeypatch):
    # the threshold is inclusive: 2 blocks at 128 modes go to 2 processes,
    # at 127 modes to one (no torus has an even mode count, so this takes a
    # spectrum built from its eigenvalues)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    for modes, workers in [(operators._DEALT_MODES, 2), (operators._DEALT_MODES - 1, 1)]:
        op = spectrum_from_eigenvalues(np.arange(modes, dtype=float))
        monkeypatch.setattr(operators, "_BLOCK_VALUES", 4 * modes)
        out, used = by_sample_blocks(op, np.random.default_rng(1), 8, 1, lambda b: (b[:, 0, 0],))
        assert used == workers
        assert out[0].shape == (8,)


def test_sample_blocks_split_changes_no_bit(monkeypatch):
    # blocks of at most 4 samples (8 of them for 30 or 29 samples, the last
    # of 29 holding one, 2 for 8, 1 for 3), dealt to one process per CPU but
    # at most one per block, or drawn here alone: the outputs are the same
    # bits, those of one whole draw, and the generator goes on as after that
    # one draw
    for count, cpus, workers in [(30, 3, 3), (30, 2, 2), (30, 1, 1), (29, 2, 2), (8, 3, 2),
                                 (3, 3, 1)]:
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
