"""Irreducibility, common invariant subspaces, and block triangularization.

Decisions use Norton's orbit test (R. A. Parker 1984; D. F. Holt and S.
Rees 1994): with v and w left and right eigenvectors of a simple
eigenvalue lambda of a random element theta of the algebra, the family is
irreducible iff the orbits of v under the family and of w under the
transposes both span the space, and a proper orbit of v, or the
annihilator of one of w, is invariant.  Over the reals a nonreal lambda
gives the real or imaginary part of its eigenvector: lambda and its
conjugate are simple, so ker (theta - lambda)(theta - conj(lambda)) has
dimension 2 and plays the eigenline's part.  Where one of three guards
fails (lambda separated by 1e-3 max|lambda|, no orbit rank decision within
a factor 100 of RANK_TOL, a proper orbit invariant to RANK_TOL * 1e-2),
the algebra closure decides.  Reducible families are split recursively
into a lower-block-triangular form with irreducible diagonal blocks; the
block with the largest joint spectral radius carries the family's growth
rate.  One test gives two invariant subspaces, the orbit U of v and the
annihilator Z of w's orbit, and every invariant subspace holds U or lies
in Z.  So when Z lies in U the section U / Z is irreducible, and the
split into Z, U / Z and V / U recurses only on Z and V / U (Holt and
Rees's argument).  Invariance is for row vectors, x -> x S_k.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels, extremal
from .bounds import BoundsBracket, bounds_bracket
from .config import DEFAULT_NODE_BUDGET, INVARIANCE_TOL, RANK_TOL, VERTEX_BUDGET
from .matrix_core import MatrixFamily, Word


class ToleranceConflictError(RuntimeError):
    """Numerical decisions contradict each other near the rank tolerance."""


@dataclass(frozen=True)
class AlgebraResult:
    dimension: int
    basis: np.ndarray = field(repr=False)  # (dimension, d, d), in acceptance order
    uncertain: bool = False
    worst_ratio: float = float("inf")  # rejected/accepted ratio closest to the tolerance


_SWEEPS = 3  # classical Gram-Schmidt sweeps per projection; see algebra_closure
_ATTEMPTS = 8  # seeded random algebra elements probed per subspace search
_SEPARATION = 1e-3  # least gap of the orbit test's eigenvalue, relative to max|lambda|


def algebra_closure(family: MatrixFamily) -> AlgebraResult:
    """Dimension and basis of the unital algebra generated by the family:
    the orbit of I under right-multiplication by the generators, one level
    of children (``_kernels.children``) of the last level's accepted
    candidates at a time.  Each candidate is scaled to unit Frobenius norm
    and accepted when its residual against the accepted orthonormal rows
    exceeds RANK_TOL; a residual within a factor 100 of RANK_TOL either way
    flags the closure uncertain (``worst_ratio`` is the closest factor).  A
    level is projected against earlier levels as one block, then each
    candidate against its own level's accepted rows, in three sweeps: the
    decisions of a one-candidate queue (one sweep leaves in-span residuals
    near 2e-11; two or four change some decisions on the 880 ``reduce``
    families of jsrbench seeds 1-10, three none)."""
    d = family.dim
    full = d * d
    gens = family.normalized_mats()
    level = np.concatenate([np.eye(d)[None], gens])
    ortho = np.zeros((0, full), gens.dtype)  # accepted rows, orthonormal
    kept: list[np.ndarray] = []
    uncertain = False
    worst = float("inf")
    while len(level) and len(ortho) < full:
        norms = _kernels.frobenius(level)
        live = np.flatnonzero(norms > 1e-300)
        rows = level[live].reshape(live.size, full) / norms[live, None]
        for _ in range(_SWEEPS):
            rows -= (rows @ ortho.conj().T) @ ortho
        fresh = np.empty((min(live.size, full - len(ortho)), full), gens.dtype)
        fresh_h = np.empty_like(fresh)  # their conjugates
        taken: list[int] = []
        for j, v in zip(live, rows):
            if taken:
                new, new_h = fresh[:len(taken)], fresh_h[:len(taken)]
                for _ in range(_SWEEPS):
                    v = v - (new_h @ v) @ new
            ratio = float(np.linalg.norm(v))
            if RANK_TOL * 1e-2 < ratio < RANK_TOL * 1e2:
                uncertain = True
                worst = min(worst, ratio / RANK_TOL if ratio > RANK_TOL
                            else RANK_TOL / max(ratio, 1e-300))
            if ratio > RANK_TOL:
                fresh[len(taken)] = v / ratio
                fresh_h[len(taken)] = fresh[len(taken)].conj()
                taken.append(j)
                if len(taken) == len(fresh):  # d^2 reached, or the level used up
                    break
        ortho = np.concatenate([ortho, fresh[:len(taken)]])
        kept.append(level[taken])
        level = _kernels.children(kept[-1], gens)
    basis = np.concatenate(kept)
    return AlgebraResult(len(basis), basis, uncertain, worst)


def _certain(res: AlgebraResult) -> AlgebraResult:
    if res.uncertain:
        raise ToleranceConflictError(
            f"rank decision ambiguous near tolerance (gap factor {res.worst_ratio:.2g})")
    return res


def algebra_dimension(family: MatrixFamily) -> int:
    return _certain(algebra_closure(family)).dimension


def is_irreducible(family: MatrixFamily) -> bool:
    """No nontrivial common invariant subspace: over the reals for a real
    family, over the complex numbers otherwise.  Norton's orbit test
    decides unless one of its three guards fails (module docstring); then
    a certain algebra closure does, and an uncertain one raises
    ToleranceConflictError.  ``block_triangularize`` and
    ``find_invariant_subspace`` make the same decision."""
    return _decide(family, seed=0)[0] is None


def _invariance_residual(basis: np.ndarray, family: MatrixFamily) -> float:
    """max_k || proj-complement(W S_k) || relative to the family scale."""
    scale = family.scale if family.scale > 0 else 1.0
    images = basis @ family.mats
    residual = images - (images @ basis.conj().T) @ basis
    return float(np.linalg.norm(residual, axis=(1, 2)).max()) / scale


def find_invariant_subspace(family: MatrixFamily, seed: int = 0) -> np.ndarray | None:
    """Orthonormal rows W, real for a real family, of a proper nonzero
    subspace with W S_k in span(W): a proper orbit of the orbit test or,
    where a guard fails, one the closure's probes find, verified for
    invariance.  None, or ToleranceConflictError, where ``is_irreducible``
    answers True or raises."""
    return _decide(family, seed)[0]


def _orbit_test(family: MatrixFamily, seed: int) -> tuple[
        bool, np.ndarray | None, tuple[np.ndarray | None, np.ndarray | None] | None]:
    """Norton's test on theta, a seeded combination of the normalized words
    of lengths 1 and 2: (decided, W, section).  A failed guard gives
    (False, None, None).  Otherwise W is None for an irreducible family,
    else the proper orbit (unrefined) with the smaller invariance
    residual.  U is the orbit of v (None when it is the space) and Z the
    annihilator of w's orbit (None when it is 0).  Every invariant
    subspace holds v, and then U, or lies in Z, as lambda is an eigenvalue
    of theta on it or not (over the reals, with the plane ker q(theta) in
    place of v's line; it meets Z in 0).  So a subspace between Z and U
    is one of them, and when every proper orbit passed the residual
    guard, ``section`` is (Z, U), U / Z irreducible, if Z lies in U to
    RANK_TOL * 1e-2.  If instead V = U + Z with U n Z = 0 (dimensions
    that add up to d, and the least singular value of their stacked rows
    above RANK_TOL * 1e2), U and
    V / Z are irreducible, and ``section`` keeps the one of them that
    W's split gives: (None, U) when W is U, else (Z, None).  Otherwise
    it is None."""
    d, real = family.dim, family.is_real
    gens = family.normalized_mats()
    words = np.concatenate([gens, _kernels.children(gens, gens)])
    z = np.random.default_rng(seed).standard_normal((2, len(words)))
    coeffs = z[0] if real else z[0] + 1j * z[1]
    theta = (coeffs @ words.reshape(len(words), -1)).reshape(d, d)
    lam, right = np.linalg.eig(theta)
    lam_t, left = np.linalg.eig(theta.T)
    sep = (np.abs(lam[:, None] - lam) + np.diag(np.full(d, np.inf))).min(axis=1)
    i = int(np.argmax(sep))
    j = int(np.argmin(np.abs(lam_t - lam[i])))  # lambda again, as theta^T's
    if not sep[i] > max(_SEPARATION * np.abs(lam).max(), 2 * abs(lam_t[j] - lam[i])):
        return False, None, None
    norms = _kernels.frobenius(words)
    letters = words[norms > 0] / norms[norms > 0, None, None]
    # v's orbit, then w's under the transposes, whose annihilator is
    # invariant: a level of children of the new rows at a time, swept twice
    # and ranked by its singular values against ||parent|| ||letter|| = 1
    # (its own norm would blow rounding noise up to a unit row).  Of two
    # proper orbits, the split with the smaller invariance residual is taken.
    found = []  # U, then Z: None when trivial, else (residual, rows)
    for x, mats in ((left[:, j], letters), (right[:, i], letters.swapaxes(1, 2))):
        if real:
            x = x.real if np.linalg.norm(x.real) >= np.linalg.norm(x.imag) else x.imag
        rows = new = (x / np.linalg.norm(x)).astype(gens.dtype)[None]
        while len(new) and len(rows) < d:
            level = (new @ mats).reshape(-1, d)
            for _ in range(2):
                level -= (level @ rows.conj().T) @ rows
            _, sv, vh = np.linalg.svd(level, full_matrices=False)
            if ((RANK_TOL * 1e-2 < sv) & (sv < RANK_TOL * 1e2)).any():
                return False, None, None
            new = vh[:np.count_nonzero(sv > RANK_TOL)]
            new -= (new @ rows.conj().T) @ rows  # the rounding of a small sv
            rows = np.concatenate([rows, new])
        if len(rows) < d:
            w = rows if mats is letters else np.linalg.svd(rows.conj())[2][len(rows):]
            found.append((_invariance_residual(w, family), w))
        else:
            found.append(None)
    tol = RANK_TOL * 1e-2
    splits = [split for split in found if split is not None]
    residual, w = min(splits, key=lambda split: split[0], default=(0.0, None))
    if residual > tol:
        return False, None, None
    u, z = (None if split is None else split[1] for split in found)
    if any(r > tol for r, _ in splits):
        return True, w, None
    if u is not None and z is not None:
        if np.linalg.norm(z - (z @ u.conj().T) @ u) > tol:  # Z not in U
            if len(u) + len(z) != d or np.linalg.svd(
                    np.concatenate([u, z]), compute_uv=False)[-1] <= RANK_TOL * 1e2:
                return True, w, None
            # V = U + Z, U n Z = 0: the side of w's split that is U or V / Z
            u, z = (u, None) if w is u else (None, z)
    return True, w, (z, u)


def _decide(family: MatrixFamily, seed: int, test=None) -> tuple[np.ndarray | None, int]:
    # the one decision of is_irreducible, find_invariant_subspace and
    # block_triangularize, and the closures it ran: the orbit test (or its
    # (decided, W) ``test``), else a certain closure of dimension d^2, a
    # verified subspace or a real proof; a subspace takes one Newton step
    # (``_refine``)
    decided, w = test or _orbit_test(family, seed)[:2]
    if not decided:
        alg = _certain(algebra_closure(family))
        if alg.dimension < family.dim ** 2:
            w = _split(family, alg, seed)
            if w is None and not (family.is_real and _irreducible_over_reals(family, alg)):
                raise ToleranceConflictError(
                    "algebra closure says reducible but no invariant subspace verified; "
                    "the family sits at the rank tolerance boundary")
    return (None if w is None else _refine(w, family)), int(not decided)


def _split(family: MatrixFamily, alg: AlgebraResult, seed: int) -> np.ndarray | None:
    # the first verified proper invariant subspace the probes find, or None
    # (real for a real family).  A probe, built when it is tried, sums its
    # terms one at a time in basis order: the transform is not continuous in
    # the subspace, and a BLAS contraction rounds differently.
    d = family.dim
    real, basis = family.is_real, alg.basis
    z = np.random.default_rng(seed).standard_normal((_ATTEMPTS, 2, alg.dimension))
    coeffs = z[:, 0] if real else z[:, 0] + 1j * z[:, 1]
    probes = itertools.chain(((c[:, None, None] * basis).sum(axis=0) for c in coeffs),
                             basis, family.mats)
    for r in probes:
        try:
            eigvecs = np.linalg.eig(r.T)[1]
        except np.linalg.LinAlgError:
            continue
        for v in eigvecs.T:
            orbit = np.concatenate([v[None], v @ basis])
            if real:
                orbit = np.concatenate([orbit.real, orbit.imag])
            norm = np.linalg.norm(orbit)
            if norm <= 1e-300:
                continue
            _, sv, vh = np.linalg.svd(orbit / norm)
            w = vh[:int(np.sum(sv > RANK_TOL * sv[0]))]
            if 1 <= len(w) < d and _invariance_residual(w, family) <= INVARIANCE_TOL:
                return w
    return None


def _refine(w: np.ndarray, family: MatrixFamily) -> np.ndarray:
    """One Newton step from a verified subspace W toward the invariant one
    (Stewart): with each S_k = [[A11, A12], [A21, A22]] in the basis
    [W; W_perp], the rows of [I, X] with A11 X - X A22 = A12 for every k,
    in least squares, cancel the leak A12 to first order.  An orbit of
    nearly parallel rows leaves a leak near 1e-12, inside the next
    closure's rank band.  Kept only if it lowers the invariance residual."""
    r, d = w.shape
    p = np.linalg.svd(w)[2]
    t = p @ family.mats @ p.conj().T
    # row-major vec(A11 X - X A22), rows (k, i, j) and columns (i', j')
    op = (t[:, :r, None, :r, None] * np.eye(d - r)[:, None, :]
          - np.eye(r)[:, None, :, None] * t[:, None, r:, None, r:].swapaxes(2, 4))
    x = np.linalg.lstsq(op.reshape(-1, r * (d - r)), t[:, :r, r:].reshape(-1),
                        rcond=None)[0]
    step = np.linalg.svd(p[:r] + x.reshape(r, d - r) @ p[r:], full_matrices=False)[2]
    return step if _invariance_residual(step, family) < _invariance_residual(w, family) else w


def _irreducible_over_reals(family: MatrixFamily, alg: AlgebraResult) -> bool:
    """Proof that a real family is irreducible over the reals: its real
    commutant C (X S_k = S_k X for every k) is a division algebra, as
    tr(XY) is negative definite on its trace-free part (so C has no nonzero
    nilpotent and no idempotent but 0 and I), and dim(A) dim(C) = d^2 makes
    A all of End_C(R^d) (double commutant theorem).  A singular value
    within a factor 100 of RANK_TOL, either way, proves nothing."""
    d = family.dim
    eye = np.eye(d)
    # X -> X S - S X on row-major vec(X)
    op = np.concatenate([np.kron(eye, s.T) - np.kron(s, eye)
                         for s in family.normalized_mats()])
    _, sv, vh = np.linalg.svd(op)
    if np.any((RANK_TOL * 1e-2 < sv) & (sv < RANK_TOL * 1e2)):
        return False
    comm = vh[int(np.sum(sv > RANK_TOL)):].reshape(-1, d, d)
    if len(comm) not in (1, 2, 4) or alg.dimension * len(comm) != d * d:
        return False
    # on an orthonormal basis of C = R I + (trace-free part), the form is
    # positive on I alone
    form = np.linalg.eigvalsh(np.einsum("aij,bji->ab", comm, comm))
    return len(comm) == 1 or form[-2] < -RANK_TOL * 1e2


@dataclass(frozen=True)
class ReductionResult:
    """Unitary similarity into lower-block-triangular form with irreducible
    diagonal blocks: transform^H S_k transform reproduces the layout.  A
    real family gets a float64 orthogonal transform and float64 blocks,
    irreducible over the reals; a complex one, blocks irreducible over C."""

    family: MatrixFamily = field(metadata={"report": False})  # the input
    transform: np.ndarray = field(repr=False)  # unitary P, P^{-1} = P^H
    block_sizes: tuple[int, ...] = ()
    blocks: tuple[MatrixFamily, ...] = ()
    structure: str = "lower-block-triangular"
    closures: int = 0  # algebra closures run; 0 when the orbit test decided every block

    @property
    def block_count(self) -> int:
        return len(self.block_sizes)

    def transformed(self) -> np.ndarray:
        p = self.transform
        return np.einsum("ij,kjl,lm->kim", p.conj().T, self.family.mats, p)

    def reconstruction_residual(self) -> float:
        """Largest off-structure entry of P^H S_k P, relative to the family scale."""
        scale = self.family.scale if self.family.scale > 0 else 1.0
        block = np.repeat(np.arange(self.block_count), self.block_sizes)
        above = block[:, None] < block  # row in a block, column in a later one
        return float(np.max(np.abs(self.transformed()[:, above]), initial=0.0)) / scale


def block_triangularize(family: MatrixFamily, seed: int = 0) -> ReductionResult:
    """Recursively split along invariant subspaces until every diagonal
    block is irreducible, over the reals for a real family, whose
    transform and blocks are then float64.  The assembled transform is
    unitary (nested orthonormal completions), so it is as well-conditioned
    as possible.  Each family runs the orbit test once.  Where it yields a
    section (``_orbit_test``), Z in U, the family splits into Z, U / Z and
    V / U, and U / Z is a block without a test of its own: Norton's
    criterion holds on it, as lambda is simple there, v generates it and
    w its dual.  Only Z and V / U recurse.  A
    direct sum V = U + Z splits in two along the test's answer, and its
    side that holds lambda is such a block too.  Otherwise the family
    splits in two along that answer, or where one of the test's guards
    fails along the algebra closure's (module docstring), which raises
    ToleranceConflictError when uncertain; ``closures`` counts them."""
    d = family.dim
    if d == 1:
        return _whole(family)
    decided, w, section = _orbit_test(family, seed)
    if section is None:
        w, closures = _decide(family, seed, (decided, w))
        flag, leaf = ([] if w is None else [w]), None
    else:  # the pieces Z, U / Z, V / U that are not 0; U / Z is the leaf
        closures, leaf = 0, int(section[0] is not None)
        flag = [_refine(x, family) for x in section if x is not None]
    if not flag:  # irreducible
        return _whole(family, closures)
    # rows whose first len(x) span x, for each subspace x of the flag
    p_inv = np.linalg.svd(flag[0])[2]
    for prev, x in zip(flag, flag[1:]):
        m = len(prev)
        p_inv[m:] = np.linalg.svd(x @ p_inv[m:].conj().T)[2] @ p_inv[m:]
    t = np.einsum("ij,kjl,lm->kim", p_inv, family.mats, p_inv.conj().T)
    cuts = [0] + [len(x) for x in flag] + [d]
    q = np.zeros((d, d), dtype=family.mats.dtype)
    parts = []
    for j, (a, b) in enumerate(zip(cuts, cuts[1:])):
        block = MatrixFamily(np.ascontiguousarray(t[:, a:b, a:b]))
        parts.append(_whole(block) if j == leaf else block_triangularize(block, seed))
        q[a:b, a:b] = parts[-1].transform
    return ReductionResult(family, p_inv.conj().T @ q,
                           sum((r.block_sizes for r in parts), ()),
                           sum((r.blocks for r in parts), ()),
                           closures=closures + sum(r.closures for r in parts))


def _whole(family: MatrixFamily, closures: int = 0) -> ReductionResult:
    # an irreducible family is its own single block
    return ReductionResult(family, np.eye(family.dim, dtype=family.mats.dtype),
                           (family.dim,), (family,), closures=closures)


@dataclass(frozen=True)
class DominanceReport:
    dominant: tuple[int, ...]        # 1-based block indices
    certain: tuple[int, ...]
    ambiguous: bool
    family_bracket: BoundsBracket
    block_brackets: tuple[BoundsBracket, ...]


def dominant_blocks(result: ReductionResult, depth: int,
                    node_budget: int = DEFAULT_NODE_BUDGET) -> DominanceReport:
    """Block indices whose bounds bracket overlaps the best block bracket.

    When brackets overlap ambiguously the superset is returned with the
    ambiguity flagged.
    """
    return _dominance(result, bounds_bracket(result.family, depth, node_budget),
                      depth, node_budget)


def _dominance(result: ReductionResult, fam_bracket: BoundsBracket, depth: int,
               node_budget: int) -> DominanceReport:
    # dominant_blocks with the family's bracket already scanned
    brackets = tuple(bounds_bracket(b, depth, node_budget) for b in result.blocks)
    best_lower = max(b.lower for b in brackets)
    tol = 1e-12 * best_lower
    included = tuple(j + 1 for j, b in enumerate(brackets)
                     if b.upper >= best_lower - tol)
    certain = tuple(j + 1 for j, b in enumerate(brackets)
                    if b.lower >= best_lower - tol)
    return DominanceReport(included, certain, included != certain,
                           fam_bracket, brackets)


@dataclass(frozen=True)
class ExtremalSubspace:
    """An invariant subspace E carrying an extremal norm: status "ok" comes
    only with a verified certificate, a norm under which the largest
    induced norm of the restricted generators is ``rho_estimate``, a lower
    bound on their joint spectral radius, so the two are equal."""

    status: str  # "ok", "zero", or "undetermined"
    rho_estimate: float
    basis: np.ndarray | None = field(default=None, repr=False)  # rows spanning E
    restricted_family: MatrixFamily | None = None
    certificate: "extremal.NormCertificate | None" = None
    diagnostics: str = ""

    @property
    def dim(self) -> int:
        return 0 if self.basis is None else self.basis.shape[0]


# values within this relative distance of the estimate equal it: the
# bracket's own tie rule
_RHO_TIE = 1e-12


def _certificate(family: MatrixFamily, rho: float, word: Word,
                 vertex_budget: int) -> "extremal.NormCertificate | None":
    """A verified norm whose largest induced generator norm is rho, or
    None: the Euclidean norm if it attains rho (the one rung for complex
    families), else for a real family the polytope that
    ``certify_finiteness`` closes around the word, if the word's value is
    rho.  Both equalities are to ``_RHO_TIE`` relative."""
    cert = extremal.euclidean_certificate(family.dim)
    ok, gap, _ = extremal.check_extremal_norm(family, cert, rho, _RHO_TIE)
    if ok:
        return replace(cert, margin=max(0.0, -gap), status="verified")
    if not family.is_real:
        return None
    fin = extremal.certify_finiteness(family, word, vertex_budget)
    if (fin.verdict == "certified"
            and abs(fin.value - rho) <= _RHO_TIE * rho):
        return fin.certificate
    return None


def extremal_subspace(family: MatrixFamily, depth: int,
                      vertex_budget: int = VERTEX_BUDGET,
                      node_budget: int = DEFAULT_NODE_BUDGET,
                      seed: int = 0) -> ExtremalSubspace:
    """Invariant subspace on which the joint spectral radius is attained
    by a norm, following the constructive restriction argument.

    The estimate is the depth-``depth`` bracket's lower bound, attained by
    its best word.  The whole space is tried first (``_certificate``), then
    the first block j of the triangularization whose bracket's lower bound
    is the estimate and whose restriction to blocks 1..j carries a
    certificate, with the block bracket's best word for the polytope.  E is
    spanned by rows of the unitary transform, real for a real family.
    Without a verified certificate the answer is "undetermined", never a
    guess.  ``vertex_budget`` caps each polytope closure.
    """
    bracket = bounds_bracket(family, depth, node_budget)
    if bracket.upper <= 1e-300:
        return ExtremalSubspace("zero", 0.0, basis=np.zeros((0, family.dim)))
    rho_est = bracket.lower
    if rho_est <= 0.0:
        return ExtremalSubspace(
            "undetermined", 0.0,
            diagnostics="lower bound is zero but upper is not; "
                        "no usable spectral radius estimate at this depth")
    cert = _certificate(family, rho_est, bracket.best_word, vertex_budget)
    if cert is not None:
        return ExtremalSubspace(
            "ok", rho_est, basis=np.eye(family.dim),
            restricted_family=family, certificate=cert,
            diagnostics=f"full space; verified {cert.kind} norm")
    reduction = block_triangularize(family, seed=seed)
    if reduction.block_count == 1:
        return ExtremalSubspace(
            "undetermined", rho_est,
            diagnostics="irreducible family and no norm verified at the "
                        "estimate; it may not be tight")
    report = _dominance(reduction, bracket, depth, node_budget)
    starts = np.cumsum((0,) + reduction.block_sizes)
    for j in report.certain:
        m = int(starts[j])
        basis = reduction.transform.conj().T[:m]
        restricted = MatrixFamily(basis @ family.mats @ basis.conj().T)
        cert = _certificate(restricted, rho_est,
                            report.block_brackets[j - 1].best_word, vertex_budget)
        if cert is not None:
            return ExtremalSubspace(
                "ok", rho_est, basis=basis, restricted_family=restricted,
                certificate=cert,
                diagnostics=f"blocks 1..{j} (dim {m}); verified {cert.kind} norm")
    return ExtremalSubspace(
        "undetermined", rho_est,
        diagnostics="no norm verified at the estimate on the full space or "
                    "on a restriction to a dominant block; it may not be tight")
