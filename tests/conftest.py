import numpy as np
import pytest

from levypme.noise import (
    AdditiveCoefficient,
    MultiplicativeCoefficient,
    NoiseModel,
    ZeroCoefficient,
)
from levypme.operators import build_fractional_laplacian_torus, random_field, smooth_field


@pytest.fixture(scope="session")
def torus_small():
    # 17 modes, eigenvalues |k| (alpha = 1/2 on the 2 pi torus)
    return build_fractional_laplacian_torus(8, 0.5)


@pytest.fixture(scope="session")
def torus_medium():
    return build_fractional_laplacian_torus(16, 0.75)


def zero_model():
    return NoiseModel(marks=("null",), intensities=(0.0,), coefficient=ZeroCoefficient())


def additive_model(op, scales=(0.1, 0.06), intensities=(3.0, 1.5)):
    fields = tuple(
        random_field(op, np.random.default_rng(977 + j), scale=s)
        for j, s in enumerate(scales)
    )
    return NoiseModel(
        marks=tuple(f"z{j}" for j in range(len(scales))),
        intensities=intensities,
        coefficient=AdditiveCoefficient(fields=fields),
    )


def multiplicative_model(sigmas=(0.08, -0.05), intensities=(2.0, 1.0)):
    return NoiseModel(
        marks=tuple(f"z{j}" for j in range(len(sigmas))),
        intensities=intensities,
        coefficient=MultiplicativeCoefficient(sigmas=sigmas),
    )


@pytest.fixture
def initial_small(torus_small):
    return smooth_field(torus_small, 1.0)
