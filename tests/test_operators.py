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


def test_sample_blocks_split_changes_no_bit(monkeypatch):
    # 8 blocks of at most 4 samples, dealt to 3 processes (this one evaluates
    # blocks 0, 3 and 6, then draws block 7) or evaluated here alone:
    # the outputs are the same bits, those of one whole draw, and the
    # generator goes on as after that one draw
    op = build_fractional_laplacian_torus(64, 0.5)
    assert op.mode_count >= operators._DEALT_MODES
    monkeypatch.setattr(operators, "_BLOCK_VALUES", 4 * op.mode_count)
    whole_rng = np.random.default_rng(11)
    whole = operators.random_rows(op, whole_rng, (30, 2))
    expected = (whole.sum(axis=(1, 2)), whole[:, 1, 3], whole_rng.random())
    for cpus in (3, 1):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        rng = np.random.default_rng(11)
        out = by_sample_blocks(op, rng, 30, 2, lambda b: (b.sum(axis=(1, 2)), b[:, 1, 3]))
        assert np.array_equal(out[0], expected[0]) and np.array_equal(out[1], expected[1])
        assert rng.random() == expected[2]


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
