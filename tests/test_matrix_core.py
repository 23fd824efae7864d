import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsrkit import (MatrixFamily, averaged_norm_value, averaged_spectral_value,
                    operator_norm, spectral_radius, word_product)
from jsrkit.matrix_core import ConvergenceError, as_matrix, check_word

from conftest import PHI, PHI_SQ, random_family

finite_floats = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


def small_matrix(draw, d):
    return np.array([[draw for _ in range(d)] for _ in range(d)])


matrices_2x2 = st.lists(finite_floats, min_size=4, max_size=4).map(
    lambda xs: np.array(xs).reshape(2, 2))


class TestSpectralRadius:
    def test_diagonal(self):
        # [TRIVIAL] rho of a diagonal matrix is the max |entry|
        assert spectral_radius(np.diag([3.0, -5.0])) == pytest.approx(5.0)

    def test_quadratic_oracle(self):
        # [DERIVED] eigenvalues of [[2,1],[1,1]] solve x^2 - 3x + 1 = 0,
        # so rho = (3 + sqrt 5)/2 = phi^2
        assert spectral_radius([[2, 1], [1, 1]]) == pytest.approx(PHI_SQ, abs=1e-12)

    def test_nilpotent(self):
        # [TRIVIAL]
        assert spectral_radius([[0, 1], [0, 0]]) == pytest.approx(0.0, abs=1e-12)

    def test_complex_rotation(self):
        # [TRIVIAL] unitary matrices have rho = 1
        c, s = np.cos(0.3), np.sin(0.3)
        assert spectral_radius([[c, -s], [s, c]]) == pytest.approx(1.0, abs=1e-12)

    @given(matrices_2x2)
    @settings(max_examples=50, deadline=None)
    def test_dominated_by_norm(self, a):
        assert spectral_radius(a) <= operator_norm(a) + 1e-9 * max(1.0, operator_norm(a))


class TestOperatorNorm:
    def test_shear_oracle(self):
        # [DERIVED] A = [[1,1],[0,1]]: A^T A = [[1,1],[1,2]] has eigenvalues
        # solving m^2 - 3m + 1 = 0, so ||A|| = sqrt((3+sqrt5)/2) = phi
        assert operator_norm([[1, 1], [0, 1]]) == pytest.approx(PHI, abs=1e-12)

    def test_diagonal(self):
        # [TRIVIAL]
        assert operator_norm(np.diag([2.0, -7.0])) == pytest.approx(7.0)

    @given(matrices_2x2, matrices_2x2)
    @settings(max_examples=50, deadline=None)
    def test_submultiplicative(self, a, b):
        lhs = operator_norm(a @ b)
        rhs = operator_norm(a) * operator_norm(b)
        assert lhs <= rhs + 1e-9 * max(1.0, rhs)

    @given(matrices_2x2, st.floats(-5, 5, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_homogeneous(self, a, c):
        assert operator_norm(c * a) == pytest.approx(abs(c) * operator_norm(a),
                                                     abs=1e-9, rel=1e-9)


class TestAsMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            as_matrix([[1, 2, 3], [4, 5, 6]])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            as_matrix([[np.nan, 0], [0, 1]])

    def test_promotes_real_to_complex(self):
        # only a matrix with a nonzero imaginary part is stored complex
        assert as_matrix([[1, 0], [0, 1]]).dtype == np.float64
        assert as_matrix([[1j, 0], [0, 1]]).dtype == np.complex128

    @pytest.mark.parametrize("imag, dtype", [(0.0, np.float64),
                                             (-0.0, np.float64),
                                             (1e-18, np.complex128)])
    def test_storage_rule(self, imag, dtype):
        # real when every imaginary part is exactly 0, decided on input
        entries = np.array([[1.0, 2.0], [0.5, 1.0]]) + 1j * np.array(
            [[0.0, imag], [0.0, 0.0]])
        assert as_matrix(entries).dtype == dtype
        fam = MatrixFamily(entries[None])
        assert fam.mats.dtype == dtype
        assert fam.is_real == (dtype == np.float64)
        assert MatrixFamily.from_matrices([entries, np.eye(2)]).mats.dtype == dtype

    def test_stores_a_copy(self):
        # the caller's array stays its own: writable and unaliased
        mats = np.eye(2)[None].copy()
        fam = MatrixFamily(mats)
        mats[0, 0, 0] = 5.0
        assert fam.mats[0, 0, 0] == 1.0 and fam.mats.flags.c_contiguous


class TestMatrixFamily:
    def test_shape_and_flags(self, golden_pair):
        assert golden_pair.size == 2
        assert golden_pair.dim == 2
        assert golden_pair.is_real
        assert not golden_pair.mats.flags.writeable

    def test_scale_is_max_norm(self, golden_pair):
        # [DERIVED] both generators are shears of norm phi
        assert golden_pair.scale == pytest.approx(PHI, abs=1e-12)

    def test_scale_computed_once(self, monkeypatch):
        fam = random_family(3, k=3, d=4)
        want = max(operator_norm(a) for a in fam.mats)
        assert fam.scale == want
        svd = np.linalg.svd
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)
        monkeypatch.setattr(np.linalg, "svd", counting)
        assert fam.scale == want and fam.is_real
        assert calls == []

    @pytest.mark.parametrize("cplx", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_scale_is_each_operator_norm_bitwise(self, seed, cplx):
        # one batched SVD, bit for bit the largest of the K single ones
        rng = np.random.default_rng(seed)
        k, d = 1 + seed % 3, 1 + seed
        mats = rng.standard_normal((k, d, d))
        if cplx:
            mats = mats + 1j * rng.standard_normal((k, d, d))
        fam = MatrixFamily(mats)
        assert fam.scale == max(operator_norm(a) for a in fam.mats)

    @pytest.mark.parametrize("mats", [np.zeros((2, 3, 3)),
                                      np.full((2, 2, 2), 5e-324),
                                      [[[1e-310, 2e-320], [0.0, -3e-309]]]])
    def test_scale_of_zero_and_subnormal_families(self, mats):
        fam = MatrixFamily(mats)
        assert fam.scale == max(operator_norm(a) for a in fam.mats)

    def test_scale_svd_failure_is_convergence_error(self, monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")
        monkeypatch.setattr(np.linalg, "svd", failing)
        with pytest.raises(ConvergenceError, match="did not converge"):
            random_family(0).scale

    def test_mixed_dims_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            MatrixFamily.from_matrices([np.eye(2), np.eye(3)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MatrixFamily(np.zeros((0, 2, 2)))

    def test_complex_detected(self):
        fam = MatrixFamily.from_matrices([[[1j, 0], [0, 1]]])
        assert not fam.is_real

    def test_realness_is_exact(self, golden_pair):
        # one rule: real when every imaginary part is exactly 0, at any scale
        assert golden_pair.scaled(1e-300).is_real
        assert MatrixFamily(golden_pair.mats * (1 - 0j)).is_real
        assert not MatrixFamily(golden_pair.mats + 1e-300j).is_real

    def test_transposed(self, golden_pair):
        t = golden_pair.transposed()
        assert np.allclose(t.mats[0], golden_pair.mats[0].T)

    def test_scaled(self, golden_pair):
        assert golden_pair.scaled(2.0).scale == pytest.approx(2.0 * PHI)

    @pytest.mark.parametrize("factor", [1e-300, 1.0, 1e300])
    def test_normalized_is_the_division(self, factor):
        # in the normal range the stack over its scale, bit for bit
        fam = random_family(4, k=3, d=3, scale=factor)
        np.testing.assert_array_equal(fam.normalized_mats(),
                                      fam.mats / fam.scale)

    @pytest.mark.parametrize("entry", [2.22507386e-309, 5e-324])
    def test_normalized_subnormal_scale(self, entry):
        # 1/scale overflows: the division numpy does would give inf and nan
        fam = MatrixFamily.from_matrices([[[entry, 0.4 * entry], [0, entry]]])
        unit = fam.normalized_mats()
        assert np.all(np.isfinite(unit.view(np.float64)))
        assert operator_norm(unit[0]) == pytest.approx(1.0, rel=1e-12)


class TestWordProduct:
    def test_empty_is_identity(self, golden_pair):
        assert np.allclose(word_product(golden_pair, ()), np.eye(2))

    def test_left_to_right_order(self, golden_pair):
        a, b = golden_pair.mats
        assert np.allclose(word_product(golden_pair, (1, 2)), a @ b)
        assert np.allclose(word_product(golden_pair, (2, 1)), b @ a)

    def test_golden_word(self, golden_pair):
        # [PAPER] S_1 S_2 = [[2,1],[1,1]]
        assert np.allclose(word_product(golden_pair, (1, 2)), [[2, 1], [1, 1]])

    def test_out_of_range_letter(self, golden_pair):
        with pytest.raises(IndexError):
            check_word(golden_pair, (3,))
        with pytest.raises(IndexError):
            word_product(golden_pair, (0,))


class TestAveragedValues:
    def test_golden_pair_word12(self, golden_pair):
        # [DERIVED] rho([[2,1],[1,1]])^(1/2) = phi
        assert averaged_spectral_value(golden_pair, (1, 2)) == pytest.approx(
            PHI, abs=1e-12)

    def test_rejects_empty(self, golden_pair):
        with pytest.raises(ValueError):
            averaged_spectral_value(golden_pair, ())
        with pytest.raises(ValueError):
            averaged_norm_value(golden_pair, ())

    def test_spectral_below_norm(self):
        for seed in range(5):
            fam = random_family(seed)
            for word in [(1,), (2,), (1, 2), (2, 1, 1)]:
                assert (averaged_spectral_value(fam, word)
                        <= averaged_norm_value(fam, word) + 1e-9)

    def test_rotation_invariance(self):
        # rho(AB) = rho(BA), so averaged spectral values agree on rotations
        for seed in range(5):
            fam = random_family(seed)
            v1 = averaged_spectral_value(fam, (1, 2, 2))
            v2 = averaged_spectral_value(fam, (2, 2, 1))
            assert v1 == pytest.approx(v2, rel=1e-9, abs=1e-12)


class TestLongContractingWord:
    """The normalized product of R and 60 letters 1e-6 R, R a rotation, is
    1e-360 R^61, below the smallest double: it is carried as P 2^e."""

    def test_values(self):
        c, s = np.cos(0.3), np.sin(0.3)
        r = np.array([[c, -s], [s, c]])
        fam = MatrixFamily(np.stack([r, 1e-6 * r]))
        word = (1,) + (2,) * 60
        want = 10.0 ** (-360 / 61)  # about 1.2542e-6
        assert averaged_spectral_value(fam, word) == pytest.approx(want, rel=1e-12)
        assert averaged_norm_value(fam, word) == pytest.approx(want, rel=1e-12)

    def test_short_product_keeps_its_bits(self):
        # a product that stays above the floor is the plain normalized one
        fam = random_family(2, k=2, d=3)
        word = (1, 2, 2, 1, 2)
        prod = fam.normalized_mats()[0]
        for letter in word[1:]:
            prod = prod @ fam.normalized_mats()[letter - 1]
        assert averaged_spectral_value(fam, word) == (
            spectral_radius(prod) ** (1.0 / 5) * fam.scale)
        assert averaged_norm_value(fam, word) == (
            operator_norm(prod) ** (1.0 / 5) * fam.scale)


class TestRescaledValues:
    """A word's values are taken on the normalized letters and the scale
    multiplied back, so those of c S are c times those of S even where
    the raw product of six letters underflows to 0 or overflows."""

    WORD = (1, 2, 2, 1, 2, 1)

    @pytest.mark.parametrize("c", [1e-170, 1e-120, 1e120, 1e170])
    @pytest.mark.parametrize("cplx", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_values_scale(self, c, cplx, seed):
        rng = np.random.default_rng(seed)
        mats = rng.standard_normal((2, 3, 3))
        if cplx:
            mats = mats + 1j * rng.standard_normal((2, 3, 3))
        fam = MatrixFamily(mats)
        for value in (averaged_spectral_value, averaged_norm_value):
            assert value(fam.scaled(c), self.WORD) == pytest.approx(
                c * value(fam, self.WORD), rel=1e-12, abs=0.0)
