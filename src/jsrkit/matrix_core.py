"""Matrix families, finite words, and elementary spectral quantities.

Everything downstream (bounds, reduction, ergodic averages) is built on the
four operations here: spectral radius, operator norm, word products, and
their nth-root averaged values.  The value of a word is taken on the
letters over the family's scale (``MatrixFamily.normalized_mats``), whose
products cannot overflow, with the scale multiplied back: the formula of
the word walks, so a rescaled family gets the same answers.  A product
that shrinks below ``_kernels._SCREEN_FLOOR`` is scaled by the one rule
for every product, ``_kernels.unit_scale``: an exact power of 2, carried
as an integer, so a long word of contracting letters does not underflow
either.  A matrix or family is real when every imaginary part is exactly
0, the one realness rule of the package, and it is decided once, on
input: a real one is stored as float64 and any other as complex128.
Every consumer computes in the stored dtype.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import _kernels

Word = tuple[int, ...]


class ConvergenceError(RuntimeError):
    """Eigenvalue/singular-value iteration failed to converge."""


def _stored(entries, ndim: int) -> np.ndarray:
    """A validated C-contiguous copy of a square matrix (``ndim`` 2) or a
    (K, d, d) stack (``ndim`` 3): float64 when every imaginary part is
    exactly 0 (-0.0 included), complex128 otherwise."""
    a = np.array(entries, dtype=np.complex128)
    a = a if np.any(a.imag) else a.real.copy()
    if a.ndim != ndim or a.shape[-1] != a.shape[-2]:
        kind = "square matrix" if ndim == 2 else "(K, d, d) stack"
        raise ValueError(f"expected a {kind}, got shape {a.shape}")
    if not a.size:
        raise ValueError(f"need at least one matrix of at least 1x1, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite (no NaN/inf)")
    return a


def as_matrix(entries) -> np.ndarray:
    """Validate and return a square matrix, stored by ``_stored``."""
    return _stored(entries, 2)


def spectral_radius(a) -> float:
    """Largest eigenvalue modulus of a square matrix."""
    a = as_matrix(a)
    try:
        ev = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue iteration did not converge: {exc}") from exc
    return float(np.max(np.abs(ev)))


def _singular_values(a: np.ndarray) -> np.ndarray:
    # descending, of a matrix or of each matrix of a stack
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"singular value iteration did not converge: {exc}") from exc


def operator_norm(a) -> float:
    """Matrix norm induced by the Euclidean vector norm (largest singular value)."""
    return float(_singular_values(as_matrix(a))[0])


@dataclass(frozen=True)
class MatrixFamily:
    """A finite set of K d x d matrices, stacked as a (K, d, d) array,
    float64 for a real family and complex128 otherwise (``_stored``)."""

    mats: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = _stored(self.mats, 3)
        m.setflags(write=False)
        object.__setattr__(self, "mats", m)

    @classmethod
    def from_matrices(cls, matrices) -> "MatrixFamily":
        mats = [as_matrix(a) for a in matrices]
        dims = {a.shape[0] for a in mats}
        if len(dims) != 1:
            raise ValueError(f"all members must share one dimension, got {sorted(dims)}")
        return cls(np.stack(mats))

    @property
    def size(self) -> int:
        return self.mats.shape[0]

    @property
    def dim(self) -> int:
        return self.mats.shape[1]

    @property
    def is_real(self) -> bool:
        return self.mats.dtype == np.float64

    @functools.cached_property
    def scale(self) -> float:
        """max_k ||S_k||, the natural magnitude of the family (computed on
        first use; the stack is read-only), from one batched SVD that
        gives each member's ``operator_norm`` bitwise."""
        return float(_singular_values(self.mats)[:, 0].max())

    def normalized_mats(self) -> np.ndarray:
        """The stack over its scale (over 1 when the scale is 0), so every
        member has 2-norm at most 1.  numpy divides a complex stack by a
        real number through its reciprocal, which overflows when the scale
        is subnormal; such a stack and scale are first raised by 2^64, which
        is exact."""
        mats, scale = self.mats, self.scale or 1.0
        if scale < np.finfo(np.float64).tiny:
            mats, scale = mats * 2.0 ** 64, scale * 2.0 ** 64
        return mats / scale

    def scaled(self, factor: float) -> "MatrixFamily":
        return MatrixFamily(self.mats * factor)

    def transposed(self) -> "MatrixFamily":
        return MatrixFamily(self.mats.transpose(0, 2, 1).copy())

    def __repr__(self):
        return f"MatrixFamily(K={self.size}, d={self.dim})"


def check_word(family: MatrixFamily, word: Word) -> None:
    for letter in word:
        if not 1 <= letter <= family.size:
            raise IndexError(f"letter {letter} out of range 1..{family.size}")


def word_product(family: MatrixFamily, word: Word) -> np.ndarray:
    """S_{i_1} S_{i_2} ... S_{i_n}, multiplied left-to-right; empty word -> identity."""
    check_word(family, word)
    prod = np.eye(family.dim)
    for letter in word:
        prod = prod @ family.mats[letter - 1]
    return prod


def _normalized_product(family: MatrixFamily, word: Word) -> tuple[np.ndarray, int]:
    """(P, e) with P 2^e the product of a non-empty word's letters from
    ``normalized_mats``, left-to-right as the word walks multiply them,
    which is the word's product over scale^n.  The 2-norm of P is at most
    1, so it cannot overflow.  Whenever the running product's Frobenius
    norm falls below ``_kernels._SCREEN_FLOOR`` it is scaled by
    ``_kernels.unit_scale``, exactly, and e records the power; a product
    that never falls that low keeps its bits, with e = 0."""
    if len(word) < 1:
        raise ValueError("averaged values need a non-empty word")
    check_word(family, word)
    mats = family.normalized_mats()
    prod, exp = mats[word[0] - 1], 0
    for letter in word[1:]:
        prod = prod @ mats[letter - 1]
        if np.linalg.norm(prod) < _kernels._SCREEN_FLOOR:
            (prod,), (lift,) = _kernels.unit_scale(prod[None])
            exp += int(lift)
    return prod, exp


def averaged_spectral_value(family: MatrixFamily, word: Word) -> float:
    """rho(S_{i_1}...S_{i_n})^(1/n), taken as rho(P)^(1/n) 2^(e/n) scale
    on the normalized product P 2^e, as the word walks value words."""
    prod, exp = _normalized_product(family, word)
    n = len(word)
    return spectral_radius(prod) ** (1.0 / n) * 2.0 ** (exp / n) * family.scale


def averaged_norm_value(family: MatrixFamily, word: Word) -> float:
    """||S_{i_1}...S_{i_n}||^(1/n), taken as ||P||^(1/n) 2^(e/n) scale on
    the normalized product P 2^e, as the word walks value words."""
    prod, exp = _normalized_product(family, word)
    n = len(word)
    return operator_norm(prod) ** (1.0 / n) * 2.0 ** (exp / n) * family.scale
