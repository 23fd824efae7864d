import numpy as np
import pytest

from jsrkit import MatrixFamily

# golden ratio and friends, fixed by the quadratic-formula oracle:
# rho([[2,1],[1,1]]) solves x^2 - 3x + 1 = 0
PHI = (1.0 + np.sqrt(5.0)) / 2.0
PHI_SQ = (3.0 + np.sqrt(5.0)) / 2.0


@pytest.fixture
def golden_pair():
    return MatrixFamily.from_matrices([[[1, 1], [0, 1]], [[1, 0], [1, 1]]])


@pytest.fixture
def shear():
    return MatrixFamily.from_matrices([[[1, 1], [0, 1]]])


@pytest.fixture
def rotation():
    c, s = np.cos(0.7), np.sin(0.7)
    return MatrixFamily.from_matrices([[[c, -s], [s, c]]])


def random_family(seed, k=2, d=2, scale=1.0):
    rng = np.random.default_rng(seed)
    return MatrixFamily(scale * rng.standard_normal((k, d, d)))
