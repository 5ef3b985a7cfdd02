import os
import pickle
import signal
import time
import traceback

import numpy as np
import pytest
from hypothesis import settings

from levypme import cascade
from levypme.noise import NoiseModel
from levypme.operators import (
    OperatorSpectrum,
    build_fractional_laplacian_torus,
    random_field,
    smooth_field,
)
from levypme.stepper import march

# Every Hypothesis test draws the same examples on every run; each test's own
# ``max_examples`` still applies.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def _within(seconds, scenario):
    """Run ``scenario()`` in a forked process that leads a session of its own
    and return its result; fail with its traceback if it fails, and kill the
    session and fail if it runs longer than ``seconds``, so that a hang (a
    dealt draw waiting for a state that never comes) fails the test at once.
    The pickled result must fit the pipe's buffer (64 KiB on Linux)."""
    read, write = os.pipe()
    if (pid := os.fork()) == 0:
        status, message = 1, b""
        try:
            os.close(read)
            os.setsid()
            message = pickle.dumps(scenario())
            status = 0
        except BaseException:
            message = traceback.format_exc()[-4000:].encode()
        finally:
            try:
                os.write(write, message)
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
        received = pipe.read()
    assert done[1] == 0, received.decode() or f"wait status {done[1]}"
    return pickle.loads(received)


@pytest.fixture(autouse=True)
def cold_ensembles():
    """Start every test with no ensemble kept by an earlier test.

    Studies of one plan share ensembles within an interpreter
    (``cascade._run_cells``).  Without this, a test would pass on another
    test's march: a wall-clock budget would time a lookup, and a test that
    patches the kernel would not run it.
    """
    cascade._ENSEMBLES.clear()


@pytest.fixture
def march_steps(monkeypatch):
    """Spy on the studies' ``march``: one list entry per step it yields."""
    steps = []

    def counting(*args):
        for step in march(*args):
            steps.append(1)
            yield step

    monkeypatch.setattr(cascade, "march", counting)
    return steps


@pytest.fixture(scope="session")
def torus_small():
    # 17 modes, eigenvalues |k| (alpha = 1/2 on the 2 pi torus)
    return build_fractional_laplacian_torus(8, 0.5)


@pytest.fixture(scope="session")
def torus_medium():
    return build_fractional_laplacian_torus(16, 0.75)


def spectrum_from_eigenvalues(eigenvalues):
    """Diagonal model for given eigenvalues, labelled 0, 1, ...: the physical
    nodes are the modes (identity basis, unit weights), so pointwise maps act
    on the coefficients directly."""
    mu = np.asarray(eigenvalues, dtype=float)
    n = mu.size
    return OperatorSpectrum(mu, tuple(range(n)), np.eye(n), np.ones(n), info={"family": "custom"})


def zero_model():
    return NoiseModel(marks=("null",), intensities=(0.0,))


def additive_model(op, scales=(0.1, 0.06), intensities=(3.0, 1.5)):
    fields = [
        random_field(op, np.random.default_rng(977 + j), scale=s)
        for j, s in enumerate(scales)
    ]
    return NoiseModel(
        marks=tuple(f"z{j}" for j in range(len(scales))),
        intensities=intensities,
        fields=fields,
    )


def multiplicative_model(sigmas=(0.08, -0.05), intensities=(2.0, 1.0)):
    return NoiseModel(
        marks=tuple(f"z{j}" for j in range(len(sigmas))),
        intensities=intensities,
        sigmas=sigmas,
    )


@pytest.fixture
def initial_small(torus_small):
    return smooth_field(torus_small, 1.0)
