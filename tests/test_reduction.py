import json
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from jsrkit import (MatrixFamily, algebra_dimension, block_triangularize,
                    bounds_bracket, certify_finiteness, check_extremal_norm,
                    dominant_blocks, extremal_subspace, find_invariant_subspace,
                    is_irreducible)
from jsrkit import reduction
from jsrkit.config import INVARIANCE_TOL, RANK_TOL
from jsrkit.io import family_from_dict
from jsrkit.reduction import (AlgebraResult, ToleranceConflictError,
                              _invariance_residual, algebra_closure)

from conftest import PHI, random_family


def conjugated_block_family(seed, sizes=(1, 2), k=2, spectral_scales=(1.0, 0.6),
                            cplx=True, leak=0.0):
    """Lower-block-triangular family with seeded blocks and couplings,
    hidden behind a seeded unitary similarity (a real orthogonal one when
    not ``cplx``).  A ``leak`` above the diagonal blocks makes the family
    irreducible, but barely."""
    rng = np.random.default_rng(seed)
    d = sum(sizes)
    mats = np.zeros((k, d, d), dtype=np.complex128)
    start = 0
    for size, s in zip(sizes, spectral_scales):
        block = rng.standard_normal((k, size, size))
        for j in range(k):
            norm = np.linalg.norm(block[j], 2)
            block[j] *= s / (norm if norm > 0 else 1.0)
        mats[:, start:start + size, start:start + size] = block
        start += size
    # couplings below the diagonal blocks (row convention keeps the
    # leading coordinates invariant)
    for a in range(len(sizes)):
        for b in range(a):
            ra = sum(sizes[:a]), sum(sizes[:a + 1])
            rb = sum(sizes[:b]), sum(sizes[:b + 1])
            mats[:, ra[0]:ra[1], rb[0]:rb[1]] = rng.standard_normal(
                (k, sizes[a] - 0, sizes[b] - 0))
    q, _ = np.linalg.qr(rng.standard_normal((d, d))
                        + (1j * rng.standard_normal((d, d)) if cplx else 0.0))
    if leak:
        mats += leak * np.triu(rng.standard_normal((k, d, d)), 1) * (mats == 0)
    hidden = np.einsum("ij,kjl,lm->kim", q.conj().T, mats, q)
    return MatrixFamily(hidden), MatrixFamily(mats)


def sequential_closure(family):
    """The closure one candidate at a time: a FIFO queue, each candidate
    swept twice against the accepted rows one vdot at a time.  Returns the
    dimension, the accepted candidates, the uncertain flag, the worst
    ratio, the ratio of every candidate tried and the number of
    candidates left in the queue at the stop."""
    d = family.dim
    scale = family.scale
    gens = [family.mats[k] / (scale if scale > 0 else 1.0)
            for k in range(family.size)]
    ortho, basis, ratios = [], [], []
    uncertain = False
    worst = float("inf")
    queue = [np.eye(d, dtype=np.complex128)] + gens
    while queue and len(basis) < d * d:
        cand = queue.pop(0)
        cnorm = float(np.linalg.norm(cand))
        if cnorm <= 1e-300:
            continue
        v = cand.ravel() / cnorm
        for q in ortho:
            v = v - (np.vdot(q, v)) * q
        for q in ortho:
            v = v - (np.vdot(q, v)) * q
        ratio = float(np.linalg.norm(v))
        ratios.append(ratio)
        if RANK_TOL * 1e-2 < ratio < RANK_TOL * 1e2:
            uncertain = True
            worst = min(worst, ratio / RANK_TOL if ratio > RANK_TOL
                        else RANK_TOL / max(ratio, 1e-300))
        if ratio > RANK_TOL:
            ortho.append(v / ratio)
            basis.append(cand)
            for g in gens:
                queue.append(cand @ g)
    return len(basis), basis, uncertain, worst, ratios, len(queue)


def assert_closure_matches_reference(fam):
    dim, basis, uncertain, worst, ratios, _ = sequential_closure(fam)
    res = algebra_closure(fam)
    assert isinstance(res.basis, np.ndarray)
    assert res.basis.shape == (res.dimension, fam.dim, fam.dim)
    assert res.dimension == dim
    assert res.uncertain == uncertain
    # the same candidates, accepted in the same order
    np.testing.assert_allclose(res.basis, np.stack(basis), rtol=0, atol=1e-13)
    accepted_in_band = [r / RANK_TOL for r in ratios
                        if RANK_TOL < r < 1e2 * RANK_TOL]
    if min(accepted_in_band, default=None) == worst:
        assert res.worst_ratio == pytest.approx(worst, rel=1e-6)
    else:
        # no ratio in the band, or the closest is the rounding residual of
        # an in-span candidate: its size is noise that no two projection
        # orders share, so only the flag (and the band) can agree
        assert res.worst_ratio == worst == np.inf or 1 < res.worst_ratio < 1e2


def closure_cases():
    for d in range(1, 9):
        for k in (1, 2, 3):
            for cplx in (False, True):
                seed = 100 * d + 10 * k + cplx
                yield f"irreducible-d{d}-k{k}-{'c' if cplx else 'r'}", \
                    conjugated_block_family(seed, (d,), k, (1.0,), cplx)[0]
                if d > 1:
                    sizes = (d // 2, d - d // 2)
                    yield f"reducible-d{d}-k{k}-{'c' if cplx else 'r'}", \
                        conjugated_block_family(seed, sizes, k, cplx=cplx)[0]


CLOSURE_CASES = dict(closure_cases())


class TestClosureAgainstReference:
    @pytest.mark.parametrize("name", sorted(CLOSURE_CASES))
    def test_random_families(self, name):
        assert_closure_matches_reference(CLOSURE_CASES[name])

    @pytest.mark.parametrize("mats", [
        np.zeros((1, 3, 3)),                                 # zero generator
        np.stack([np.zeros((3, 3)), np.diag([1.0, 2.0, 3.0])]),
        np.stack([np.eye(4, k=-1), np.eye(4, k=-2)]),        # nilpotent
        np.stack([2.5 * np.eye(3), -1j * np.eye(3)]),        # scalar
    ], ids=["zero", "zero-and-diagonal", "nilpotent", "scalar"])
    def test_degenerate_families(self, mats):
        assert_closure_matches_reference(MatrixFamily(mats))

    def test_stop_at_full_dimension_mid_level(self):
        # a random 3x3 pair fills the 9-dimensional algebra part way
        # through a level: the queue still holds candidates at the stop,
        # and the level walk must stop with the same answer
        fam, _ = conjugated_block_family(7, (3,), 2, (1.0,))
        left = sequential_closure(fam)[-1]
        assert left > 0
        assert algebra_closure(fam).dimension == 9
        assert_closure_matches_reference(fam)

    @pytest.mark.parametrize("seed, leak, rel", [(5, 5e-9, 1e-6),
                                                 (2, 3e-12, 1e-3)])
    def test_near_reducible_family_is_uncertain(self, seed, leak, rel):
        # a 5e-9 leak is accepted at about 27 RANK_TOL, and a
        # 3e-12 leak is rejected with residuals of a few 1e-12: both inside
        # the band and both signals, not rounding, so worst_ratio agrees up
        # to the ~1e-15 rounding of the residual behind it
        fam, _ = conjugated_block_family(seed, (2, 2), leak=leak)
        res = algebra_closure(fam)
        assert res.uncertain
        assert res.worst_ratio == pytest.approx(sequential_closure(fam)[3], rel=rel)
        assert_closure_matches_reference(fam)


class TestAlgebra:
    def test_golden_pair_irreducible(self, golden_pair):
        # the two shears generate the full 2x2 algebra
        assert algebra_dimension(golden_pair) == 4
        assert is_irreducible(golden_pair)

    def test_shear_reducible(self, shear):
        # [DERIVED] span{I, N} where N is nilpotent: dimension 2
        assert algebra_dimension(shear) == 3 - 1
        assert not is_irreducible(shear)

    def test_diagonal_family_dimension(self):
        fam = MatrixFamily.from_matrices([np.diag([2.0, 0.5])])
        # span{I, D}: D has distinct eigenvalues, so dimension 2
        assert algebra_dimension(fam) == 2

    def test_scalar_family(self):
        fam = MatrixFamily.from_matrices([3.0 * np.eye(2)])
        assert algebra_dimension(fam) == 1

    def test_closure_basis_spans_reported_dimension(self, golden_pair):
        res = algebra_closure(golden_pair)
        flat = np.stack([b.ravel() for b in res.basis])
        rank = np.linalg.matrix_rank(flat, tol=1e-8)
        assert rank == res.dimension


def sequential_split(family, basis, seed, attempts=8):
    """The subspace search one probe and one orbit product at a time: the
    first verified subspace, or None.  A real family takes real probe
    coefficients (the first of each draw's two rows) and spans the real
    and imaginary parts of each orbit, so its subspace is real."""
    d = family.dim
    real = not np.any(family.mats.imag)
    mats = list(family.mats.real if real else family.mats)
    basis = [b.real if real else b for b in basis]
    rng = np.random.default_rng(seed)
    probes = []
    for z in rng.standard_normal((attempts, 2, len(basis))):
        coeffs = z[0] if real else z[0] + 1j * z[1]
        probes.append(sum(c * b for c, b in zip(coeffs, basis)))
    for r in probes + basis + mats:
        eigvecs = np.linalg.eig(r.T)[1]
        for j in range(d):
            v = eigvecs[:, j]
            orbit = np.stack([v] + [v @ b for b in basis])
            if real:
                orbit = np.concatenate([orbit.real, orbit.imag])
            _, sv, vh = np.linalg.svd(orbit / np.linalg.norm(orbit))
            rank = int(np.sum(sv > RANK_TOL * sv[0]))
            if 1 <= rank < d and _invariance_residual(vh[:rank], family) <= INVARIANCE_TOL:
                return vh[:rank]
    return None


class TestInvariantSubspace:
    @pytest.mark.parametrize("sizes", [(1, 2), (2, 2), (1, 1, 2), (3, 2)])
    @pytest.mark.parametrize("cplx", [False, True])
    def test_split_matches_probe_by_probe_search(self, sizes, cplx):
        # the same sums and products in the same order, so the same bits:
        # block_triangularize completes the subspace to a unitary with an
        # SVD whose singular values are all 1 and 0, and that completion
        # moves by O(1) when the subspace moves by a rounding error
        fam, _ = conjugated_block_family(sum(sizes), sizes, 2, (1.0, 0.6, 0.3),
                                         cplx)
        alg = algebra_closure(fam)
        expected = sequential_split(fam, list(alg.basis), seed=5)
        np.testing.assert_array_equal(reduction._split(fam, alg, seed=5), expected)

    @pytest.mark.parametrize("seed", range(4))
    def test_residual_is_max_over_generators(self, seed):
        rng = np.random.default_rng(seed)
        fam = random_family(seed, k=3, d=4)
        w = np.linalg.qr(rng.standard_normal((4, 2)))[0].T
        loop = max(np.linalg.norm(w @ s - (w @ s @ w.conj().T) @ w)
                   for s in fam.mats) / fam.scale
        assert _invariance_residual(w, fam) == pytest.approx(loop, rel=1e-12)

    def test_residual_of_the_last_generator_counts(self):
        # the row line e_1 is invariant under S_1 only: e_1 S_2 = (0, 3)
        fam = MatrixFamily.from_matrices([np.eye(2), [[0.0, 3.0], [0.0, 0.0]]])
        assert _invariance_residual(np.array([[1.0, 0.0]]), fam) == 1.0

    def test_irreducible_returns_none(self, golden_pair):
        assert find_invariant_subspace(golden_pair) is None

    def test_uncertain_full_closure_raises(self):
        # a 1e-9 coupling of diag(1, 2) makes the closure reach d^2 = 4
        # through a residual within a factor 100 of RANK_TOL: that is no
        # proof of irreducibility, and both calls say so
        fam = MatrixFamily.from_matrices([np.diag([1.0, 2.0]),
                                          [[1.0, 1e-9], [1e-9, 1.0]]])
        alg = algebra_closure(fam)
        assert alg.dimension == 4 and alg.uncertain
        with pytest.raises(ToleranceConflictError):
            find_invariant_subspace(fam)
        with pytest.raises(ToleranceConflictError):
            is_irreducible(fam)

    def test_shear_left_line(self, shear):
        w = find_invariant_subspace(shear)
        assert w is not None and w.shape == (1, 2)
        assert _invariance_residual(w, shear) <= 1e-8
        # [DERIVED] the only invariant row line of [[1,1],[0,1]] is e_2:
        # (0,1) [[1,1],[0,1]] = (0,1)
        assert abs(abs(w[0, 1]) - 1.0) <= 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_hidden_subspace_found_and_verified(self, seed):
        fam, _ = conjugated_block_family(seed)
        w = find_invariant_subspace(fam, seed=seed)
        assert w is not None
        assert 1 <= w.shape[0] < fam.dim
        assert _invariance_residual(w, fam) <= 1e-8
        # rows are orthonormal
        gram = w @ w.conj().T
        assert np.allclose(gram, np.eye(w.shape[0]), atol=1e-10)


def rotation(t):
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


def realified(z):
    """The real 2d x 2d matrix of z acting on C^d = R^d + i R^d."""
    return np.block([[z.real, z.imag], [-z.imag, z.real]])


def hidden_sum(top, bottom, seed=1):
    """The block-diagonal family top + bottom behind a random orthogonal Q."""
    k, m = top.shape[:2]
    mats = np.zeros((k, 2 * m, 2 * m))
    mats[:, :m, :m], mats[:, m:, m:] = top, bottom
    q = np.linalg.qr(np.random.default_rng(seed).standard_normal((2 * m, 2 * m)))[0]
    return q.T @ mats @ q


GOLDEN = np.array([[[1.0, 1.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 1.0]]])
# multiplication by i and by j on the quaternions, basis 1, i, j, k: the
# row of q maps to the row of q i (q j)
QUATERNION_I = np.array([[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0],
                         [0.0, 0.0, 0.0, -1.0], [0.0, 0.0, 1.0, 0.0]])
QUATERNION_J = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0],
                         [-1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0]])
_Z = np.random.default_rng(0).standard_normal((2, 2, 2, 2))
# irreducible over R, reducible over C: the algebra is C, H or M_2(C)
REAL_IRREDUCIBLE = {
    "rotation": rotation(0.3)[None],
    "quaternion-i-j": np.stack([QUATERNION_I, QUATERNION_J]),
    "realified-complex-pair": np.stack([realified(z) for z in _Z[0] + 1j * _Z[1]]),
}
# two irreducible real planes behind a rotation of R^4
REAL_LOOKALIKES = {
    "golden+golden": hidden_sum(GOLDEN, GOLDEN),
    "R0.3+R0.3": hidden_sum(rotation(0.3)[None], rotation(0.3)[None]),
    "R0.3+1.2R0.9": hidden_sum(rotation(0.3)[None], 1.2 * rotation(0.9)[None]),
}


def real_orbit_gap(mats, starts=12, seed=0):
    """Brute-force real orbit search: the least d-th singular value, over
    real x, of x's orbit under the words up to the length where their span
    stops growing, relative to the largest, by Nelder-Mead from seeded
    starts.  0 when some real orbit is a proper subspace, which is when
    the family is reducible over R."""
    d = mats.shape[1]
    words, level = [np.eye(d)], [np.eye(d)]
    while True:
        level = [w @ s for w in level for s in mats]
        grown = np.linalg.matrix_rank(np.reshape(words + level, (-1, d * d)), 1e-9)
        if grown == np.linalg.matrix_rank(np.reshape(words, (-1, d * d)), 1e-9):
            break
        words += level
    words = np.stack(words)

    def gap(x):
        sv = np.linalg.svd(x @ words, compute_uv=False)
        return sv[d - 1] / sv[0] if len(sv) == d else 0.0
    rng = np.random.default_rng(seed)
    return min(minimize(gap, rng.standard_normal(d), method="Nelder-Mead",
                        options={"xatol": 1e-12, "fatol": 1e-14}).fun
               for _ in range(starts))


class TestRealReduction:
    @pytest.mark.parametrize("name", sorted(REAL_IRREDUCIBLE))
    def test_irreducible_over_reals_stays_whole(self, name):
        fam = MatrixFamily(REAL_IRREDUCIBLE[name])
        r = block_triangularize(fam)
        assert r.block_sizes == (fam.dim,)
        assert np.all(r.transform.imag == 0)
        assert is_irreducible(fam)
        assert find_invariant_subspace(fam) is None
        # the closure is below d^2, so only the proof keeps the block whole
        alg = algebra_closure(fam)
        assert alg.dimension < fam.dim ** 2
        assert reduction._irreducible_over_reals(fam, alg)
        assert real_orbit_gap(REAL_IRREDUCIBLE[name]) > 1e-2

    @pytest.mark.parametrize("name", sorted(REAL_LOOKALIKES))
    def test_lookalike_splits_into_real_planes(self, name):
        fam = MatrixFamily(REAL_LOOKALIKES[name])
        r = block_triangularize(fam)
        assert r.block_sizes == (2, 2)
        assert np.all(r.transform.imag == 0)
        assert all(np.all(b.mats.imag == 0) for b in r.blocks)
        assert r.reconstruction_residual() <= 1e-12
        p = r.transform
        assert np.max(np.abs(p.T @ p - np.eye(4))) <= 1e-12
        assert not is_irreducible(fam)
        w = find_invariant_subspace(fam)
        assert w is not None and np.all(w.imag == 0)
        assert real_orbit_gap(REAL_LOOKALIKES[name]) < 1e-9
        for b in r.blocks:  # each plane is irreducible over R
            assert real_orbit_gap(b.mats.real) > 1e-2

    @pytest.mark.parametrize("mats", [*REAL_LOOKALIKES.values(),
                                      *REAL_IRREDUCIBLE.values()])
    def test_real_family_reduces_in_float64(self, mats):
        # the family is stored real, and so are the closure and the split
        fam = MatrixFamily(mats)
        assert algebra_closure(fam).basis.dtype == np.float64
        r = block_triangularize(fam)
        assert r.transform.dtype == np.float64
        assert all(b.mats.dtype == np.float64 for b in r.blocks)
        # a complex copy with one nonzero imaginary part stays complex
        tilted = MatrixFamily(mats + 1e-300j)
        assert algebra_closure(tilted).basis.dtype == np.complex128

    @staticmethod
    def coupled_to_a_real_plane(top):
        # the pair of real 4x4 blocks ``top`` above a real coupling to a
        # random real 2x2 pair, behind a random orthogonal Q
        rng = np.random.default_rng(3)
        mats = np.zeros((2, 6, 6))
        mats[:, :4, :4] = top
        mats[:, 4:, 4:] = rng.standard_normal((2, 2, 2))
        mats[:, 4:, :4] = rng.standard_normal((2, 2, 4))
        q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        return MatrixFamily(q.T @ mats @ q)

    @staticmethod
    def record_proofs(monkeypatch):
        proofs = []
        prove = reduction._irreducible_over_reals

        def recorded(f, alg):
            proofs.append((f.dim, prove(f, alg)))
            return proofs[-1][1]
        monkeypatch.setattr(reduction, "_irreducible_over_reals", recorded)
        return proofs

    def test_complex_type_block_is_proven_over_reals(self, monkeypatch):
        # a realified complex 2x2 block (real algebra M_2(C), of dimension
        # 8 < 16) coupled to a real 2x2 block: theta's eigenvalues on the
        # 4x4 block are two simple conjugate pairs, so the orbit test over
        # the reals proves it irreducible, with no closure and no commutant
        fam = self.coupled_to_a_real_plane(REAL_IRREDUCIBLE["realified-complex-pair"])
        assert algebra_closure(fam).dimension < 36 - 4 * 2
        proofs = self.record_proofs(monkeypatch)
        r = block_triangularize(fam)
        assert r.block_sizes == (4, 2)
        assert proofs == [] and r.closures == 0
        assert r.reconstruction_residual() <= 1e-12

    def test_quaternion_type_block_keeps_commutant_proof(self, monkeypatch):
        # on a block of quaternion type every eigenvalue of theta is double:
        # the orbit test cannot decide that block, so its closure (of
        # dimension 4 < 16) is kept whole by the proof over the reals
        fam = self.coupled_to_a_real_plane(REAL_IRREDUCIBLE["quaternion-i-j"])
        proofs = self.record_proofs(monkeypatch)
        r = block_triangularize(fam)
        assert r.block_sizes == (4, 2)
        assert proofs == [(4, True)] and r.closures == 1
        assert r.reconstruction_residual() <= 1e-12

    def test_scalar_plane_is_not_proven_irreducible(self):
        # every real line is invariant, and the commutant M_2(R) has
        # dimension 4 = d^2 / dim(A): only the trace form refuses it
        fam = MatrixFamily(2.0 * np.eye(2)[None])
        alg = algebra_closure(fam)
        assert alg.dimension == 1
        assert not reduction._irreducible_over_reals(fam, alg)
        assert block_triangularize(fam).block_sizes == (1, 1)
        assert real_orbit_gap(fam.mats.real) < 1e-9


def complex_type_pairs(draws=15):
    """8x8 real families, exactly reducible into two isomorphic blocks of
    complex type: one realified complex pair on both diagonal blocks, a
    real coupling below them and a random orthogonal Q (default_rng(5)).
    Every eigenvalue of every algebra element is double."""
    rng = np.random.default_rng(5)
    for _ in range(draws):
        z = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        mats = np.zeros((2, 8, 8))
        mats[:, :4, :4] = mats[:, 4:, 4:] = [realified(zk) for zk in z]
        mats[:, 4:, :4] = rng.standard_normal((2, 4, 4))
        q = np.linalg.qr(rng.standard_normal((8, 8)))[0]
        yield q.T @ mats @ q


COMPLEX_TYPE_PAIRS = list(complex_type_pairs())
# planted reduce jobs of jsrbench (seed, job id) whose closures met in-span
# residuals across the band's lower edge and raised ToleranceConflictError
ROUNDING_FLOOR = json.loads(
    (Path(__file__).parent / "data" / "rounding_floor_families.json").read_text())


def closure_decision(fam):
    """Irreducible (True) or not from a certain closure and, below d^2 for
    a real family, the proof over the reals; None when uncertain."""
    alg = algebra_closure(fam)
    if alg.uncertain:
        return None
    return (alg.dimension == fam.dim ** 2
            or fam.is_real and reduction._irreducible_over_reals(fam, alg))


class TestOrbitTest:
    @pytest.mark.parametrize("scale", [1.0, 1e-13, 1e7])
    @pytest.mark.parametrize("draw", range(len(COMPLEX_TYPE_PAIRS)))
    def test_isomorphic_complex_type_blocks_split(self, draw, scale):
        # the orbit test cannot decide the 8x8 family, whose closure finds
        # the split; each 4x4 block then has simple conjugate pairs, and the
        # orbit test proves it irreducible over the reals
        fam = MatrixFamily(COMPLEX_TYPE_PAIRS[draw] * scale)
        r = block_triangularize(fam)
        assert r.block_sizes == (4, 4)
        assert all(b.is_real and is_irreducible(b) for b in r.blocks)
        assert r.closures == 1
        assert r.reconstruction_residual() <= 1e-12
        assert not is_irreducible(fam)

    def test_complex_type_blocks_data_file(self):
        # the bundled example is the first draw at scale 1
        doc = json.loads((Path(reduction.__file__).parent / "data"
                          / "complex_type_blocks.json").read_text())
        np.testing.assert_array_equal(np.array(doc["matrices"]), COMPLEX_TYPE_PAIRS[0])

    @pytest.mark.parametrize("case", ROUNDING_FLOOR,
                             ids=[f"seed{c['seed']}-job{c['job']}" for c in ROUNDING_FLOOR])
    def test_rounding_floor_families_split(self, case):
        fam = family_from_dict(case["family"])
        r = block_triangularize(fam)
        assert sorted(r.block_sizes) == sorted(case["sizes"])
        assert r.closures == 0
        assert r.reconstruction_residual() <= 1e-12

    @pytest.mark.parametrize("cplx", [False, True])
    @pytest.mark.parametrize("d", range(2, 9))
    def test_agrees_with_certain_closure(self, d, cplx):
        decided = 0
        for seed in range(6):
            k = 1 + seed % 3
            m = 1 + seed % (d - 1)
            for sizes in ((d,), (m, d - m)):
                fam = conjugated_block_family(100 * seed + d, sizes, k,
                                              (1.0, 0.6), cplx)[0]
                expected = closure_decision(fam)
                done, w = reduction._orbit_test(fam, seed)
                if expected is None or not done:
                    continue
                decided += 1
                assert (w is None) == expected
                if w is not None:
                    assert 1 <= len(w) < d
                    assert _invariance_residual(w, fam) <= 1e-12
        assert decided >= 10

    @pytest.mark.parametrize("seed", range(40))
    def test_annihilated_line_is_never_irreducible(self, seed):
        # e_1 S_k = 0 for every k: the line is invariant, and the children
        # of its eigenvector are rounding noise, which measured against
        # their own norms would make both orbits look full
        rng = np.random.default_rng(seed)
        d = 2 + seed % 5
        mats = rng.standard_normal((2, d, d))
        mats[:, 0, :] = 0
        q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        fam = MatrixFamily(q.T @ mats @ q)
        done, w = reduction._orbit_test(fam, seed)
        assert not done or w is not None
        assert not is_irreducible(fam)


class TestBlockTriangularize:
    def test_irreducible_is_single_block(self, golden_pair):
        r = block_triangularize(golden_pair)
        assert r.block_sizes == (2,)
        assert np.allclose(r.transform, np.eye(2))

    def test_shear_splits(self, shear):
        r = block_triangularize(shear)
        assert r.block_sizes == (1, 1)
        assert r.reconstruction_residual() <= 1e-10
        # the diagonal entries are the eigenvalues, both 1
        diag = [complex(b.mats[0, 0, 0]) for b in r.blocks]
        assert np.allclose(sorted(abs(x) for x in diag), [1.0, 1.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_transform_is_unitary(self, seed):
        fam, _ = conjugated_block_family(seed, sizes=(1, 2))
        r = block_triangularize(fam, seed=seed)
        p = r.transform
        assert np.allclose(p @ p.conj().T, np.eye(fam.dim), atol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_residual_and_block_layout(self, seed):
        fam, _ = conjugated_block_family(seed, sizes=(2, 1))
        r = block_triangularize(fam, seed=seed)
        assert sum(r.block_sizes) == fam.dim
        assert r.reconstruction_residual() <= 1e-8
        # diagonal blocks of the transformed stack equal the reported blocks
        t = r.transformed()
        starts = np.cumsum((0,) + r.block_sizes)
        for j, b in enumerate(r.blocks):
            seg = t[:, starts[j]:starts[j + 1], starts[j]:starts[j + 1]]
            assert np.allclose(seg, b.mats, atol=1e-10)

    @staticmethod
    def count_closures(monkeypatch):
        calls = []
        monkeypatch.setattr(reduction, "algebra_closure",
                            lambda fam: calls.append(fam.dim) or algebra_closure(fam))
        return calls

    def test_planted_split_runs_no_closure(self, monkeypatch):
        # sizes (1, 2) with a generic coupling: the orbit test finds the
        # split and proves the 2x2 block irreducible, so no closure runs
        calls = self.count_closures(monkeypatch)
        fam, _ = conjugated_block_family(3, sizes=(1, 2))
        r = block_triangularize(fam, seed=3)
        assert r.block_sizes == (1, 2)
        assert calls == [] and r.closures == 0

    def test_zero_coupling_recurses(self, monkeypatch):
        # block-diagonal (1, 2): the split is followed by an orbit test of
        # the 2x2 block, whichever side it lands on; no closure runs
        rng = np.random.default_rng(5)
        mats = np.zeros((2, 3, 3))
        mats[:, :1, :1] = rng.standard_normal((2, 1, 1))
        mats[:, 1:, 1:] = rng.standard_normal((2, 2, 2))
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        fam = MatrixFamily(q.T @ mats @ q)
        assert algebra_closure(fam).dimension == 5
        tests = []
        orbit_test = reduction._orbit_test
        monkeypatch.setattr(reduction, "_orbit_test",
                            lambda f, seed: tests.append(f.dim) or orbit_test(f, seed))
        calls = self.count_closures(monkeypatch)
        r = block_triangularize(fam)
        assert sorted(r.block_sizes) == [1, 2]
        assert tests == [3, 2] and calls == []
        assert all(is_irreducible(b) for b in r.blocks)
        assert r.reconstruction_residual() <= 1e-12

    @pytest.mark.parametrize("sizes", [(1, 2), (2, 2), (1, 1, 2), (2, 3),
                                       (1, 2, 2), (3, 1, 2), (2, 2, 2, 2)])
    @pytest.mark.parametrize("cplx", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_planted_layouts(self, sizes, cplx, seed):
        # every block found is irreducible, whether a closure of its own or
        # the dimension of its parent's proved it, and the layout is the
        # planted one (generic couplings leave one invariant flag)
        fam, _ = conjugated_block_family(
            seed, sizes, spectral_scales=(1.0, 0.6, 0.8, 0.7)[:len(sizes)],
            cplx=cplx)
        assert fam.is_real == (not cplx)
        r = block_triangularize(fam, seed=seed)
        assert r.block_sizes == sizes
        assert all(is_irreducible(b) for b in r.blocks)
        assert r.reconstruction_residual() <= 1e-10

    def test_uncertain_closure_raises(self, monkeypatch):
        # a 5e-9 leak above the (2, 2) blocks puts an orbit rank decision in
        # the band: the closure decides instead, and its uncertainty raises
        # with its gap factor
        fam, _ = conjugated_block_family(5, (2, 2), leak=5e-9)
        assert reduction._orbit_test(fam, 0) == (False, None)
        with pytest.raises(ToleranceConflictError, match="gap factor"):
            block_triangularize(fam)

        def uncertain(fam):
            res = algebra_closure(fam)
            return AlgebraResult(res.dimension, res.basis, True, 3.0)
        monkeypatch.setattr(reduction, "algebra_closure", uncertain)
        with pytest.raises(ToleranceConflictError, match="gap factor 3"):
            block_triangularize(fam)
        with pytest.raises(ToleranceConflictError, match="gap factor 3"):
            is_irreducible(fam)

    @pytest.mark.parametrize("seed", range(5))
    def test_jsr_conserved_by_similarity(self, seed):
        # the family bracket and the transformed-family bracket agree:
        # unitary similarity preserves both spectral radii and norms
        fam, plain = conjugated_block_family(seed)
        b1 = bounds_bracket(fam, 6)
        b2 = bounds_bracket(plain, 6)
        assert b1.lower == pytest.approx(b2.lower, rel=1e-9, abs=1e-12)
        assert b1.upper == pytest.approx(b2.upper, rel=1e-9, abs=1e-12)


class TestDominantBlocks:
    def test_diagonal_dominance(self):
        fam = MatrixFamily.from_matrices([np.diag([2.0, 0.5])])
        r = block_triangularize(fam)
        report = dominant_blocks(r, 4)
        assert not report.ambiguous
        assert len(report.dominant) == 1
        j = report.dominant[0]
        assert report.block_brackets[j - 1].lower == pytest.approx(2.0, abs=1e-10)
        assert report.family_bracket.lower == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_best_block_matches_family(self, seed):
        fam, _ = conjugated_block_family(seed, sizes=(1, 2))
        r = block_triangularize(fam, seed=seed)
        report = dominant_blocks(r, 8)
        fam_b = report.family_bracket
        best = max(report.block_brackets, key=lambda b: b.lower)
        slack = fam_b.width + best.width
        assert abs(best.lower - fam_b.lower) <= slack + 1e-9


    @pytest.mark.parametrize("scale", [1.0, 1e-14])
    def test_ties_are_relative(self, scale):
        # lower triangular, block radii 1, 0.5 and 0.45: the first block
        # alone dominates at every scale
        a = np.array([[1.0, 0.0, 0.0], [0.3, 0.5, 0.0], [0.2, 0.1, 0.45]])
        b = np.array([[0.8, 0.0, 0.0], [0.1, 0.4, 0.0], [0.3, 0.2, 0.3]])
        r = block_triangularize(MatrixFamily(np.stack([a, b]) * scale))
        report = dominant_blocks(r, 6)
        assert r.block_sizes == (1, 1, 1)
        assert report.dominant == report.certain == (1,)


def assert_certified(res):
    """An "ok" comes with a verified norm that attains the estimate on E."""
    assert res.status == "ok"
    assert res.certificate.status == "verified"
    assert res.certificate.dim == res.dim == res.restricted_family.dim
    ok, _, _ = check_extremal_norm(res.restricted_family, res.certificate,
                                   res.rho_estimate)
    assert ok


# draws 219, 244 and 287 of 400 Gaussian pairs (rng = default_rng(0); each
# draw d = rng.integers(2, 4), then rng.standard_normal((2, d, d))): no
# norm verifies at the depth-8 estimate, and a longer word beats it
FALSE_OK_DRAWS = {
    219: [[[1.6748602277743765, 1.425013505932209, -0.626561806397675],
           [-0.07721766254887426, 0.04998884670470353, 1.1031849161072949],
           [-0.48797635649312726, 0.5917901516494696, 0.2737782144923443]],
          [[0.3006312921505879, 1.0540165718697039, 0.14665875736033007],
           [-1.2813218705118012, 0.902404681351209, -0.4870478663062789],
           [0.8978117352621887, 0.26474916059722137, -0.9780268280270532]]],
    244: [[[0.5175447956383256, 0.26141252516203256, -0.2753310614637201],
           [1.0696281386735234, 1.3427902285178765, -1.3606872918929576],
           [1.8584614604674685, 0.05174122041413462, -0.17073095626927703]],
          [[0.9264294977175774, -0.7672009029446151, 0.4681774642987094],
           [-0.32746724421918144, -0.034936354045610386, 0.38742218372924875],
           [0.021143186922731386, -0.3281953579409903, 1.2051804232145304]]],
    287: [[[-0.032361842037741125, -1.1601921179626042, 0.6896240335278586],
           [-0.7067085623317264, -0.5703150183735061, 1.14616672789585],
           [-1.0132282811592563, -0.20252555633844876, -0.010103822600866907]],
          [[0.38518724167618096, 1.5378444110734248, -0.018340150271273437],
           [0.5221234980226651, -0.0923057128105607, -1.674066531870293],
           [1.1123383800780098, 0.7324283906401677, 1.2013507593065542]]],
}


class TestExtremalSubspace:
    def test_shear_restricts_to_line(self, shear):
        res = extremal_subspace(shear, depth=8)
        assert res.dim == 1
        # [PAPER] restriction of the shear to its invariant line is [1]
        assert np.allclose(res.restricted_family.mats, [[[1.0]]])
        assert res.rho_estimate == pytest.approx(1.0, abs=1e-9)
        assert_certified(res)

    def test_rotation_full_space(self, rotation):
        res = extremal_subspace(rotation, depth=8)
        assert res.dim == 2
        assert_certified(res)

    def test_golden_pair_full_space(self, golden_pair):
        # irreducible families always carry an extremal norm on the full
        # space; here the Euclidean norm is one
        res = extremal_subspace(golden_pair, depth=10)
        assert res.dim == 2
        assert res.rho_estimate == pytest.approx(PHI, abs=1e-9)
        assert_certified(res)

    @pytest.mark.parametrize("scale", [1.0, 1e-13])
    def test_small_shear_restricts_to_line(self, scale):
        # the Euclidean norm attains 2.414 rho at every scale, so only the
        # invariant line carries a verified norm
        fam = MatrixFamily(np.array([[[1.0, 2.0], [0.0, 1.0]]]) * scale)
        res = extremal_subspace(fam, 6, vertex_budget=30)
        assert res.dim == 1
        assert res.diagnostics.startswith("blocks 1..1")
        assert_certified(res)

    def test_zero_family(self):
        res = extremal_subspace(MatrixFamily(np.zeros((1, 2, 2))), depth=4)
        assert res.status == "zero"
        assert res.dim == 0

    def test_restriction_preserves_jsr(self):
        # two eigenvalue-1 blocks joined by a Jordan coupling: the full
        # normalized semigroup is unbounded, so a proper restriction is
        # needed, and its bracket must still attain the spectral radius
        fam = MatrixFamily.from_matrices(
            [[[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.5]]])
        res = extremal_subspace(fam, depth=8)
        assert 1 <= res.dim < 3
        assert res.rho_estimate == pytest.approx(1.0, abs=1e-9)
        assert_certified(res)
        b = bounds_bracket(res.restricted_family, 6)
        assert b.lower == pytest.approx(res.rho_estimate, abs=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_real_block_gets_polytope(self, seed):
        # a golden pair in skewed coordinates (its Euclidean norm exceeds
        # phi) over a conformal block at 0.9 phi, behind a real rotation:
        # the real invariant plane keeps the restriction real, so the
        # polytope of the word (1, 2) certifies it; the reduction is real,
        # so every block reaches the polytope layer
        skew = np.array([[1.0, 2.0], [0.0, 1.0]])
        golden = np.array([[[1.0, 1.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 1.0]]])
        c, s = np.cos(0.3), np.sin(0.3)
        rng = np.random.default_rng(seed)
        mats = np.zeros((2, 4, 4))
        mats[:, :2, :2] = np.linalg.inv(skew) @ golden @ skew
        mats[:, 2:, :2] = rng.standard_normal((2, 2, 2))
        mats[:, 2:, 2:] = 0.9 * PHI * np.array([[[c, -s], [s, c]],
                                                [[0.0, 1.0], [1.0, 0.0]]])
        q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        fam = MatrixFamily(q.T @ mats @ q)
        red = block_triangularize(fam)
        assert red.block_sizes == (2, 2)
        fins = [certify_finiteness(b, bounds_bracket(b, 8).best_word, 30)
                for b in red.blocks]
        # the golden block certifies phi; the conformal block's witness
        # (1,) has a complex leading eigenvalue
        assert [f.verdict for f in fins] == ["certified", "inconclusive"]
        assert fins[0].value == pytest.approx(PHI, rel=1e-12)
        res = extremal_subspace(fam, depth=8, vertex_budget=30)
        assert res.dim == 2
        assert res.restricted_family.is_real
        assert res.certificate.kind == "polytope"
        assert res.rho_estimate == pytest.approx(PHI, rel=1e-12)
        assert_certified(res)

    @pytest.mark.parametrize("draw", sorted(FALSE_OK_DRAWS))
    def test_no_ok_without_a_verified_norm(self, draw):
        fam = MatrixFamily.from_matrices(FALSE_OK_DRAWS[draw])
        res = extremal_subspace(fam, depth=8, vertex_budget=30)
        assert res.status == "undetermined"
        assert res.certificate is None
        # an "ok" would have been false: a word of length 10 to 12 beats
        # the estimate by more than 0.15%
        deeper = bounds_bracket(fam, 12)
        assert deeper.lower > 1.0015 * res.rho_estimate
