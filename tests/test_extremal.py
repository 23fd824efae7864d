import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jsrkit
from jsrkit import (MatrixFamily, NormCertificate, boundedness_probe,
                    certify_finiteness, check_extremal_norm,
                    euclidean_certificate, norm_value)
from jsrkit.extremal import (ComplexFamilyError, DegenerateNormError,
                             induced_norm)

from conftest import PHI

CROSS = NormCertificate(dim=2, kind="polytope",
                        vertices=np.array([[1.0, 0.0], [0.0, 1.0]]))
SQUARE = NormCertificate(dim=2, kind="polytope",
                         vertices=np.array([[1.0, 1.0], [1.0, -1.0]]))

vectors_2 = st.lists(st.floats(-5, 5, allow_nan=False, allow_infinity=False),
                     min_size=2, max_size=2).map(np.array)


def test_import_leaves_the_lp_solver_out():
    # only certification solves linear programs: scipy.optimize, most of
    # the import time, loads on the first gauge
    src = os.path.dirname(os.path.dirname(jsrkit.__file__))
    code = ("import sys, jsrkit; "
            "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize loaded'; "
            "jsrkit.norm_value(jsrkit.NormCertificate(dim=1, kind='polytope', "
            "vertices=[[1.0]]), [2.0]); "
            "assert 'scipy.optimize' in sys.modules")
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

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            NormCertificate(dim=2, kind="hexagon")

    @given(vectors_2, vectors_2)
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

    def test_dimension_mismatch(self, shear):
        with pytest.raises(ValueError):
            check_extremal_norm(shear, euclidean_certificate(3), 1.0)


class TestBoundednessProbe:
    def test_contraction_bounded(self):
        fam = MatrixFamily.from_matrices([np.diag([0.5, 0.25]), np.diag([0.3, 0.1])])
        assert boundedness_probe(fam, 12).verdict == "bounded-likely"

    def test_rotation_bounded(self, rotation):
        assert boundedness_probe(rotation, 32).verdict == "bounded-likely"

    def test_expansion_unbounded_with_witness(self):
        fam = MatrixFamily.from_matrices([2.0 * np.eye(2)])
        res = boundedness_probe(fam, 40, growth_threshold=100.0)
        assert res.verdict == "unbounded"
        assert res.witness_word is not None
        # the witness really does exceed the threshold
        n = len(res.witness_word)
        assert 2.0 ** n > 100.0

    def test_shear_unbounded(self, shear):
        res = boundedness_probe(shear, 64, growth_threshold=10.0)
        assert res.verdict == "unbounded"

    def test_normalized_golden_pair_bounded(self, golden_pair):
        assert boundedness_probe(golden_pair.scaled(1 / PHI), 16).verdict \
            == "bounded-likely"


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

    def test_empty_word_rejected(self, golden_pair):
        with pytest.raises(ValueError):
            certify_finiteness(golden_pair, ())

    def test_budget_exhaustion_is_inconclusive(self, golden_pair):
        cert = certify_finiteness(golden_pair, (1, 2), vertex_budget=1)
        assert cert.verdict in ("certified", "inconclusive")
        if cert.verdict == "inconclusive":
            assert "budget" in cert.reason
