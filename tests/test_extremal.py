import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jsrkit
from jsrkit import (MatrixFamily, NormCertificate, certify_finiteness,
                    check_extremal_norm, euclidean_certificate, norm_value)
from jsrkit import extremal
from jsrkit.extremal import (ComplexFamilyError, DegenerateNormError,
                             _gauge, _lp_gauge, induced_norm)

from conftest import PHI

CROSS = NormCertificate(dim=2, kind="polytope",
                        vertices=np.array([[1.0, 0.0], [0.0, 1.0]]))
SQUARE = NormCertificate(dim=2, kind="polytope",
                         vertices=np.array([[1.0, 1.0], [1.0, -1.0]]))

vectors_2 = st.lists(st.floats(-5, 5, allow_nan=False, allow_infinity=False),
                     min_size=2, max_size=2).map(np.array)


def test_import_leaves_the_lp_solver_out():
    # scipy is most of the import time: polytope gauges load scipy.spatial
    # (qhull) on first use, and only a gauge beyond FACET_MAX_DIM loads
    # the LP solver in scipy.optimize
    src = os.path.dirname(os.path.dirname(jsrkit.__file__))
    code = ("import sys, jsrkit, numpy as np; "
            "loaded = lambda: {m for m in ('scipy.optimize', 'scipy.spatial') "
            "if m in sys.modules}; "
            "assert not loaded(), loaded(); "
            "cross = lambda d: jsrkit.NormCertificate(dim=d, kind='polytope', "
            "vertices=np.eye(d)); "
            "jsrkit.norm_value(cross(6), np.ones(6)); "
            "assert loaded() == {'scipy.spatial'}, loaded(); "
            "jsrkit.norm_value(cross(7), np.ones(7)); "
            "assert 'scipy.optimize' in loaded()")
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


class TestNormValue:
    def test_cross_polytope_is_l1(self):
        # [DERIVED] balanced hull of {e1, e2} is the l1 unit ball
        assert norm_value(CROSS, [1.0, 1.0]) == pytest.approx(2.0, abs=1e-9)
        assert norm_value(CROSS, [0.5, -0.25]) == pytest.approx(0.75, abs=1e-9)

    def test_square_is_linf(self):
        # [DERIVED] balanced hull of {(1,1), (1,-1)} is the sup-norm ball
        assert norm_value(SQUARE, [1.0, 0.0]) == pytest.approx(1.0, abs=1e-9)
        assert norm_value(SQUARE, [0.3, -0.9]) == pytest.approx(0.9, abs=1e-9)

    def test_euclidean_with_transform(self):
        cert = euclidean_certificate(2, transform=np.diag([2.0, 1.0]))
        assert norm_value(cert, [1.0, 0.0]) == pytest.approx(2.0)

    def test_degenerate_vertices_rejected(self):
        cert = NormCertificate(dim=2, kind="polytope",
                               vertices=np.array([[1.0, 0.0], [2.0, 0.0]]))
        with pytest.raises(DegenerateNormError):
            norm_value(cert, [0.0, 1.0])

    def test_complex_vector_rejected(self):
        with pytest.raises(ComplexFamilyError):
            norm_value(CROSS, np.array([1.0 + 1.0j, 0.0]))

    def test_rounding_level_imaginary_vector_rejected(self):
        # the gauge takes real vectors only: every imaginary part exactly 0
        with pytest.raises(ComplexFamilyError):
            norm_value(CROSS, np.array([1.0 + 1e-18j, 0.0]))
        assert norm_value(CROSS, np.array([1.0 + 0j, 0.0])) == norm_value(
            CROSS, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("scale", [1.0, 1e-14])
    def test_complex_vector_rejected_at_any_scale(self, scale):
        # an imaginary part 1e-6 of the vector's size is not rounding
        with pytest.raises(ComplexFamilyError):
            norm_value(CROSS, scale * np.array([1.0 + 1e-6j, 0.0]))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            NormCertificate(dim=2, kind="hexagon")

    @given(vectors_2, vectors_2)
    @example(np.array([0.0, 0.25]), np.array([2.0, 1.19e-7]))
    @settings(max_examples=40, deadline=None)
    def test_triangle_inequality(self, x, y):
        lhs = norm_value(CROSS, x + y)
        rhs = norm_value(CROSS, x) + norm_value(CROSS, y)
        assert lhs <= rhs + 1e-7 * max(1.0, rhs)

    @given(vectors_2, st.floats(-4, 4, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_homogeneity(self, x, c):
        assert norm_value(SQUARE, c * x) == pytest.approx(
            abs(c) * norm_value(SQUARE, x), abs=1e-7, rel=1e-7)

    def test_tiny_vector_is_not_zero(self):
        # entries below the LP solver's feasibility tolerance must still count
        x = np.array([0.0, 5.96e-8])
        assert norm_value(SQUARE, x) == pytest.approx(5.96e-8, rel=1e-9)
        assert norm_value(SQUARE, 2 * x) == pytest.approx(2 * norm_value(SQUARE, x),
                                                          rel=1e-9)
        assert norm_value(SQUARE, 0 * x) == 0.0
        assert _lp_gauge(SQUARE.vertices, x) == pytest.approx(5.96e-8, rel=1e-9)


def _cube(d):
    # the sign vectors with first entry +1: their balanced hull is [-1, 1]^d
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=d - 1)))
    return np.hstack([np.ones((len(signs), 1)), signs])


def _lp_gauges(vertices):
    return lambda points: np.array([_lp_gauge(vertices, x) for x in points])


# singular values from 1 down to about 1.5e-12, just inside the rank
# tolerance: the qhull 2020.2 in scipy 1.17 stops on its hull with a
# precision error (QH6347, wide merge)
FLAT = np.column_stack([
    [-1.0399, 0.4343, 0.8902, 0.1911, 0.1355, 0.7204, 0.2144, -0.9529,
     0.8902, 0.006],
    1e-12 * np.array([[-2.642, 0.529, 0.248], [2.265, 1.649, 1.139],
                      [-2.394, -0.206, 0.175], [1.319, -2.287, 0.696],
                      [2.078, -0.831, -1.394], [-1.903, 0.845, -1.773],
                      [0.966, 1.911, -0.803], [0.007, 0.122, -1.662],
                      [-2.382, -0.205, 0.189], [-1.113, -1.67, -0.363]])])


class TestFacetGauge:
    """The facet gauge against closed forms and against the LP, which stays
    its independent oracle: check_extremal_norm uses the facet gauge too."""

    @pytest.mark.parametrize("d", range(1, 7))
    def test_cross_polytope_is_l1_and_cube_is_linf(self, d):
        points = np.random.default_rng(d).standard_normal((40, d))
        np.testing.assert_allclose(_gauge(np.eye(d))(points),
                                   np.abs(points).sum(axis=1), rtol=1e-12)
        np.testing.assert_allclose(_gauge(_cube(d))(points),
                                   np.abs(points).max(axis=1), rtol=1e-12)

    @given(st.integers(2, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_sets_match_the_lp(self, d, seed):
        rng = np.random.default_rng(seed)
        vertices = rng.standard_normal((rng.integers(d, 3 * d + 1), d))
        points = np.vstack([rng.standard_normal((4, d)), vertices[:2]])
        np.testing.assert_allclose(_gauge(vertices)(points),
                                   _lp_gauges(vertices)(points), rtol=1e-6)

    @pytest.mark.parametrize("vertices, points, expected", [
        # rank 2 in R^3: the hexagon with vertices ±e1, ±e2, ±(e1 + e2)
        ([[1, 0, 0], [0, 1, 0], [1, 1, 0]],
         [[0.5, -0.25, 0], [1, 1, 0], [0, 0, 1e-6], [1, 1, 1e-5], [0, 0, 0]],
         [0.75, 1.0, np.inf, np.inf, 0.0]),
        # rank 1: a segment, gauge |y| / max |V q|
        ([[1, 2, 0], [-2, -4, 0]],
         [[0.5, 1, 0], [-3, -6, 0], [1, 0, 0], [1, 2, 1e-5]],
         [0.25, 1.5, np.inf, np.inf]),
    ])
    def test_rank_deficient_sets(self, vertices, points, expected):
        vertices, points = np.array(vertices, float), np.array(points, float)
        np.testing.assert_allclose(_gauge(vertices)(points), expected,
                                   rtol=1e-12)
        np.testing.assert_allclose(_lp_gauges(vertices)(points), expected,
                                   rtol=1e-9)

    def test_nearly_flat_set_answers(self):
        # facets or LP, whichever qhull leaves, the gauge answers, and in
        # the dominant direction it agrees with the LP
        g = _gauge(FLAT)(np.eye(4))
        assert g[0] == pytest.approx(_lp_gauge(FLAT, np.eye(4)[0]), rel=1e-6)
        assert np.all(g >= 0)

    def test_qhull_failure_falls_back_to_the_lp(self, monkeypatch):
        import scipy.spatial

        def fail(points):
            raise scipy.spatial.QhullError("QH6347 qhull precision error")

        monkeypatch.setattr(scipy.spatial, "ConvexHull", fail)
        points = np.random.default_rng(0).standard_normal((5, 2))
        np.testing.assert_allclose(_gauge(SQUARE.vertices)(points),
                                   np.abs(points).max(axis=1), rtol=1e-6)

    def test_dimension_7_certificate_through_the_lp(self, monkeypatch):
        # beyond FACET_MAX_DIM every gauge is an LP; S_1 fixes e1 and S_2
        # halves and shifts, so the closure of e1 is 2^-i e_{i+1}, a
        # weighted l1 ball that both map into itself
        d = 7
        lp_calls = []
        monkeypatch.setattr(extremal, "_lp_gauge",
                            lambda v, x: lp_calls.append(x) or _lp_gauge(v, x))
        fam = MatrixFamily.from_matrices([np.diag([1.0] + [0.5] * (d - 1)),
                                          0.5 * np.roll(np.eye(d), 1, axis=1)])
        cert = certify_finiteness(fam, (1,))
        assert cert.verdict == "certified"
        assert cert.value == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(cert.certificate.vertices,
                                      np.diag(0.5 ** np.arange(d)))
        ok, gap, _ = check_extremal_norm(fam, cert.certificate, cert.value)
        assert ok and gap == pytest.approx(0.0, abs=1e-7)
        assert len(lp_calls) == 4 * d  # d x K images, closure and check

    @pytest.mark.parametrize("mats, word", [
        ([[[1, 1], [0, 1]], [[1, 0], [1, 1]]], (1, 2)),
        ([np.diag([-2.0, 1.0]), [[0.5, 0.3], [0.2, -0.4]]], (1,)),
        ([np.diag([0.5, 0.25])], (1,)),
        ([np.diag([3.0, 1.0, 2.0]), [[1, 1, 0], [0, 1, 0], [1, 0, 1]]], (1,)),
    ])
    def test_closure_matches_the_lp_closure(self, monkeypatch, mats, word):
        fam = MatrixFamily.from_matrices(mats)
        facet = certify_finiteness(fam, word, vertex_budget=30)
        monkeypatch.setattr(extremal, "_gauge", _lp_gauges)
        lp = certify_finiteness(fam, word, vertex_budget=30)
        assert (facet.verdict, facet.reason) == (lp.verdict, lp.reason)
        if facet.certificate is not None:
            np.testing.assert_array_equal(facet.certificate.vertices,
                                          lp.certificate.vertices)


class TestInducedNorm:
    def test_diagonal_under_l1(self):
        # [DERIVED] x -> xA with A = diag(3, 1) under l1: max column... the
        # vertex images are 3*e1 and e2, gauges 3 and 1
        assert induced_norm(CROSS, np.diag([3.0, 1.0])) == pytest.approx(3.0, abs=1e-9)

    def test_euclidean_transform(self):
        cert = euclidean_certificate(2, transform=np.diag([2.0, 1.0]))
        # T^{-1} A T is again diag(3, 1)
        assert induced_norm(cert, np.diag([3.0, 1.0])) == pytest.approx(3.0)

    def test_always_dominates_spectral_radius(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            a = rng.standard_normal((2, 2))
            rho = float(np.max(np.abs(np.linalg.eigvals(a))))
            assert induced_norm(CROSS, a) >= rho - 1e-9
            assert induced_norm(SQUARE, a) >= rho - 1e-9


class TestCheckExtremalNorm:
    def test_shear_euclidean_fails(self, shear):
        # [DERIVED] ||shear||_2 = phi but rho = 1: the Euclidean norm is
        # not extremal and the attained value is still a true upper bound
        ok, gap, attained = check_extremal_norm(shear, euclidean_certificate(2), 1.0)
        assert not ok
        assert attained == pytest.approx(PHI, abs=1e-9)
        assert gap == pytest.approx(PHI - 1.0, abs=1e-9)

    def test_rotation_euclidean_succeeds(self, rotation):
        ok, gap, attained = check_extremal_norm(rotation, euclidean_certificate(2), 1.0)
        assert ok
        assert attained == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("scale", [1.0, 1e-13])
    def test_tolerance_is_relative(self, shear, scale):
        # the shear's Euclidean norm attains phi rho at every scale
        ok, gap, _ = check_extremal_norm(shear.scaled(scale),
                                         euclidean_certificate(2), scale)
        assert not ok
        assert gap == pytest.approx((PHI - 1.0) * scale, rel=1e-9)

    def test_dimension_mismatch(self, shear):
        with pytest.raises(ValueError):
            check_extremal_norm(shear, euclidean_certificate(3), 1.0)


class TestCertifyFiniteness:
    def test_golden_pair_certified(self, golden_pair):
        cert = certify_finiteness(golden_pair, (1, 2))
        assert cert.verdict == "certified"
        assert cert.value == pytest.approx(PHI, abs=1e-9)
        poly = cert.certificate
        assert poly.status == "verified"
        assert poly.spans()
        # the certificate really is an extremal norm: the induced norms of
        # both scaled generators stay within the unit-ball invariance margin
        scaled = golden_pair.mats.real / cert.value
        for k in range(2):
            assert induced_norm(poly, scaled[k]) <= 1.0 + 1e-8

    def test_golden_pair_certificate_is_small(self, golden_pair):
        cert = certify_finiteness(golden_pair, (1, 2))
        assert cert.certificate.vertices.shape[0] <= 8

    def test_single_contraction(self):
        # [TRIVIAL] {diag(1/2, 1/4)}, word (1): certified at value 1/2
        fam = MatrixFamily.from_matrices([np.diag([0.5, 0.25])])
        cert = certify_finiteness(fam, (1,))
        assert cert.verdict == "certified"
        assert cert.value == pytest.approx(0.5, abs=1e-12)

    def test_single_contraction_completed_to_span(self):
        # the closure of (1, 0) is the invariant line x2 = 0; the short
        # vertex (0, 1e-3) maps into the completed polytope, so the
        # certificate spans and is a true extremal norm
        fam = MatrixFamily.from_matrices([np.diag([0.5, 0.25])])
        poly = certify_finiteness(fam, (1,)).certificate
        assert poly.spans() and poly.vertices.shape == (2, 2)
        ok, _, attained = check_extremal_norm(fam, poly, 0.5)
        assert ok and attained == pytest.approx(0.5, rel=1e-9)

    def test_negative_leading_eigenvalue_certified(self):
        # S_1 = diag(-2, 1) leads with -2: the balanced polytope holds -v,
        # the image of its seed v, so the word (1,) certifies rho = 2
        fam = MatrixFamily.from_matrices([np.diag([-2.0, 1.0]),
                                          [[0.5, 0.3], [0.2, -0.4]]])
        cert = certify_finiteness(fam, (1,))
        assert cert.verdict == "certified"
        assert cert.value == pytest.approx(2.0, abs=1e-12)
        ok, gap, _ = check_extremal_norm(fam, cert.certificate, cert.value)
        assert ok and gap == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("word", [(1, 2), (2, 1), (2, 1, 2, 1)])
    def test_seed_is_the_words_leading_left_eigenvector(self, golden_pair,
                                                         word):
        # no rotation of the word is searched: the first vertex is the
        # unit leading left eigenvector of the word's own product
        prod = np.linalg.multi_dot([np.eye(2)]
                                   + [golden_pair.mats[k - 1] for k in word])
        ev, vecs = np.linalg.eig(prod.T)
        v = vecs[:, np.argmax(np.abs(ev))].real
        v /= np.linalg.norm(v)
        cert = certify_finiteness(golden_pair, word)
        assert cert.verdict == "certified"
        first = cert.certificate.vertices[0]
        assert np.allclose(first * np.sign(first @ v), v, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("c", [1e-170, 1e-120, 1e120, 1e170])
    def test_rescaled_golden_pair(self, golden_pair, c):
        # the raw product of (1,2,1,2,1,2) underflows or overflows at these
        # scales; the normalized one gives the answer of c = 1
        word = (1, 2, 1, 2, 1, 2)
        base = certify_finiteness(golden_pair, word)
        got = certify_finiteness(golden_pair.scaled(c), word)
        assert base.verdict == got.verdict == "certified"
        assert got.value == pytest.approx(c * base.value, rel=1e-12)
        assert np.allclose(got.certificate.vertices,
                           base.certificate.vertices, rtol=0, atol=1e-12)

    def test_complex_leading_eigenvalue_refused(self, rotation):
        cert = certify_finiteness(rotation, (1,))
        assert cert.verdict == "inconclusive"
        assert cert.reason == "no cyclic rotation has a real leading eigenvalue"

    def test_invariant_line_is_not_certified(self):
        # the closure of the word (1,)'s eigenvector (1, 0) is the
        # invariant line x2 = 0, on which the family has radius 1; off it
        # S_2 grows like 2, so rho >= 2 and no certificate may be given
        fam = MatrixFamily.from_matrices([[[1, 0], [0.3, 0.5]],
                                          [[0.5, 0], [1, 2]]])
        cert = certify_finiteness(fam, (1,))
        assert cert.verdict == "inconclusive"
        assert cert.certificate is None
        assert cert.reason == "polytope spans an invariant subspace of dim 1"

    def test_shear_word_inconclusive(self, shear):
        # the shear's leading eigenvalue is a defective double root, so no
        # rotation yields a usable eigenvector; never a false certificate
        cert = certify_finiteness(shear, (1,))
        assert cert.verdict == "inconclusive"
        assert cert.reason

    def test_non_maximizing_word_does_not_certify(self, golden_pair):
        # scaling by the word (1,1)'s value 1 leaves phi-growth in the
        # semigroup, so the closure cannot terminate with a certificate
        cert = certify_finiteness(golden_pair, (1,), vertex_budget=64)
        assert cert.verdict == "inconclusive"

    def test_complex_family_rejected(self):
        fam = MatrixFamily.from_matrices([[[1j, 0], [0, 1]]])
        with pytest.raises(ComplexFamilyError):
            certify_finiteness(fam, (1,))

    @pytest.mark.parametrize("scale", [1.0, 1e-16])
    def test_small_complex_family_rejected(self, scale):
        # a nonzero imaginary part makes the family complex at every scale:
        # a real polytope cannot certify the value 1e-16 when rho = 2e-16
        fam = MatrixFamily(np.array([[[1, 0], [0, 0]], [[0, 0], [0, 2j]]])
                           * scale)
        assert not fam.is_real
        with pytest.raises(ComplexFamilyError):
            certify_finiteness(fam, (1,), 30)

    def test_rounding_level_imaginary_part_is_complex(self, golden_pair):
        # imaginary parts of 1e-18 of the scale are not rounded away: a
        # family is real only when every imaginary part is exactly 0
        fam = MatrixFamily(golden_pair.mats + 1e-18j * golden_pair.scale
                           * np.eye(2))
        assert not fam.is_real
        with pytest.raises(ComplexFamilyError):
            certify_finiteness(fam, (1, 2), 30)

    def test_empty_word_rejected(self, golden_pair):
        with pytest.raises(ValueError):
            certify_finiteness(golden_pair, ())

    def test_budget_exhaustion_is_inconclusive(self, golden_pair):
        cert = certify_finiteness(golden_pair, (1, 2), vertex_budget=1)
        assert cert.verdict in ("certified", "inconclusive")
        if cert.verdict == "inconclusive":
            assert "budget" in cert.reason
