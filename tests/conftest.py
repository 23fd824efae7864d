import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import strategies as st

from jsrkit import MatrixFamily, io

# golden ratio and friends, fixed by the quadratic-formula oracle:
# rho([[2,1],[1,1]]) solves x^2 - 3x + 1 = 0
PHI = (1.0 + np.sqrt(5.0)) / 2.0
PHI_SQ = (3.0 + np.sqrt(5.0)) / 2.0


@pytest.fixture
def golden_pair():
    return MatrixFamily.from_matrices([[[1, 1], [0, 1]], [[1, 0], [1, 1]]])


@pytest.fixture
def mixed_entries():
    """A complex K = 2, d = 3 family whose bracket stays open through
    depth 12 (the golden pair's closes at depth 2), so budgets bind."""
    return io.parse_family(str(resources.files("jsrkit") / "data"
                               / "mixed_entries.json"))


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


def prefix_floor(tops, n, depth, best):
    """The scan's pruning floor on the Frobenius norm of a word of level
    n, spelled out: the least (best (1 - 1e-11))^N / M(N - n) over N in
    (n, depth], with M(j) the level-j maximum ``tops[j - 1]`` up to n and
    the least M(a) M(j - a) beyond.  A level N with M(N - n) = 0 holds
    nothing the word could reach, so it keeps no word."""
    top = dict(enumerate(tops[:n], start=1))
    for j in range(n + 1, depth - n + 1):
        top[j] = min(top[a] * top[j - a] for a in range(1, j))
    return min(((best * (1.0 - 1e-11)) ** big / top[big - n]
                for big in range(n + 1, depth + 1) if top[big - n] > 0.0),
               default=math.inf)


@st.composite
def gate_families(draw):
    """(letters, depth) at depths whose levels reach 1024 words, so the
    scan prunes: K in 2..4, d in 1..6, real or complex, Hermitian,
    unitarily conjugated lower triangular or Gaussian."""
    k, d = draw(st.integers(2, 4)), draw(st.integers(1, 6))
    cplx = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def gaussian(*shape):
        z = rng.standard_normal(shape)
        return z + 1j * rng.standard_normal(shape) if cplx else z

    mats = gaussian(k, d, d)
    kind = draw(st.sampled_from(["hermitian", "triangular", "gaussian"]))
    if kind == "hermitian":
        mats = mats + mats.conj().transpose(0, 2, 1)
    elif kind == "triangular":
        q = np.linalg.qr(gaussian(d, d))[0]
        mats = q.conj().T @ np.tril(mats) @ q
    return MatrixFamily(mats).normalized_mats(), {2: 10, 3: 7, 4: 5}[k]
