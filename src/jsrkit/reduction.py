"""Irreducibility, common invariant subspaces, and block triangularization.

A family is irreducible exactly when the unital algebra it generates is
the full d x d matrix algebra, so irreducibility testing is a span-closure
computation.  Reducible families are repeatedly split along invariant
subspaces into a lower-block-triangular form whose diagonal blocks are
irreducible; the block with the largest joint spectral radius carries the
whole family's growth rate.

Subspace invariance uses the row-vector convention (x maps to x S_k);
transpose the family for the column convention.
"""

from __future__ import annotations

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


def algebra_closure(family: MatrixFamily) -> AlgebraResult:
    """Dimension and basis of the unital algebra generated by the family.

    Span closure from {I, S_1, ..., S_K} under right-multiplication by the
    generators, one breadth-first level at a time: the first level is
    [I, S_1, ..., S_K] and each next one holds the children
    (``_kernels.children``) of the candidates accepted on the level before,
    parent-major.  Every candidate is scaled to unit Frobenius norm, and the
    norm of its residual against the accepted orthonormal rows decides its
    rank: accepted above RANK_TOL, zero candidates skipped, and the closure
    flagged uncertain when a residual lies within a factor 100 of RANK_TOL
    either way (``worst_ratio`` is the closest such factor).

    A level is projected against the rows of earlier levels as one block,
    ``V -= (V Q^H) Q``.  Then each candidate, in order, is projected
    against the rows accepted earlier on its own level only.  So the
    accepted candidates, their order and the stop at d^2 are those of a
    queue that takes one candidate at a time.  Each projection is three
    sweeps.  One sweep leaves in-span residuals up to about 2e-11, inside
    the band.  From two on, the residual of an in-span candidate is the
    rounding of the first sweep: median about 1e-15, but up to about 2e-12,
    across the band's lower edge.  Three is the count that changes no
    decision of the one-at-a-time queue on the 880 ``reduce`` families of
    jsrbench seeds 1-10; two and four each change some.
    """
    d = family.dim
    full = d * d
    gens = family.normalized_mats()
    level = np.concatenate([np.eye(d, dtype=np.complex128)[None], gens])
    ortho = np.zeros((0, full), np.complex128)  # accepted rows, orthonormal
    kept: list[np.ndarray] = []
    uncertain = False
    worst = float("inf")
    while len(level) and len(ortho) < full:
        norms = _kernels.frobenius(level)
        live = np.flatnonzero(norms > 1e-300)
        rows = level[live].reshape(live.size, full) / norms[live, None]
        for _ in range(_SWEEPS):
            rows -= (rows @ ortho.conj().T) @ ortho
        fresh = np.empty((min(live.size, full - len(ortho)), full), np.complex128)
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


def _certain_closure(family: MatrixFamily) -> AlgebraResult:
    res = algebra_closure(family)
    if res.uncertain:
        raise ToleranceConflictError(
            f"rank decision ambiguous near tolerance (gap factor {res.worst_ratio:.2g})")
    return res


def algebra_dimension(family: MatrixFamily) -> int:
    return _certain_closure(family).dimension


def is_irreducible(family: MatrixFamily) -> bool:
    """No nontrivial common invariant subspace; equivalently the generated
    algebra has dimension d^2."""
    return algebra_dimension(family) == family.dim ** 2


def _invariance_residual(basis: np.ndarray, family: MatrixFamily) -> float:
    """max_k || proj-complement(W S_k) || relative to the family scale."""
    scale = family.scale if family.scale > 0 else 1.0
    images = basis @ family.mats
    residual = images - (images @ basis.conj().T) @ basis
    return float(np.linalg.norm(residual, axis=(1, 2)).max()) / scale


def find_invariant_subspace(family: MatrixFamily, seed: int = 0,
                            attempts: int = 8) -> np.ndarray | None:
    """Orthonormal row basis W of a proper nonzero subspace with W S_k in span(W).

    Probes left eigenvectors of seeded random algebra elements and spans
    their algebra orbits; every candidate is post-verified for invariance
    before being returned.  Returns None only when the family is
    (numerically) irreducible.
    """
    alg = algebra_closure(family)
    if alg.dimension == family.dim ** 2:
        return None
    return _split(family, alg, seed, attempts)


def _split(family: MatrixFamily, alg: AlgebraResult, seed: int,
           attempts: int = 8) -> np.ndarray:
    # find_invariant_subspace, given a closure that is not the full algebra
    d = family.dim
    rng = np.random.default_rng(seed)

    def try_vector(v: np.ndarray) -> np.ndarray | None:
        orbit = np.concatenate([v[None], v @ alg.basis])
        norm = np.linalg.norm(orbit)
        if norm <= 1e-300:
            return None
        _, sv, vh = np.linalg.svd(orbit / norm)
        rank = int(np.sum(sv > RANK_TOL * sv[0]))
        if not 1 <= rank < d:
            return None
        basis = vh[:rank]
        if _invariance_residual(basis, family) <= INVARIANCE_TOL:
            return basis
        return None

    # per probe, the real and then the imaginary parts of its coefficients;
    # the sum adds the terms in basis order, one at a time (a BLAS
    # contraction rounds differently, and the transform block_triangularize
    # builds from the subspace is not continuous in it)
    z = rng.standard_normal((attempts, 2, alg.dimension))
    coeffs = z[:, 0] + 1j * z[:, 1]
    probes = np.concatenate([(coeffs[:, :, None, None] * alg.basis).sum(axis=1),
                             alg.basis, family.mats])
    for r in probes:
        try:
            eigvecs = np.linalg.eig(r.T)[1]
        except np.linalg.LinAlgError:
            continue
        for j in range(d):
            found = try_vector(eigvecs[:, j])
            if found is not None:
                return found
    raise ToleranceConflictError(
        "algebra closure says reducible but no invariant subspace verified; "
        "the family sits at the rank tolerance boundary")


@dataclass(frozen=True)
class ReductionResult:
    """Unitary similarity into lower-block-triangular form with irreducible
    diagonal blocks: transform^H S_k transform reproduces the layout."""

    family: MatrixFamily = field(metadata={"report": False})  # the input
    transform: np.ndarray = field(repr=False)  # unitary P, P^{-1} = P^H
    block_sizes: tuple[int, ...] = ()
    blocks: tuple[MatrixFamily, ...] = ()
    structure: str = "lower-block-triangular"

    @property
    def block_count(self) -> int:
        return len(self.block_sizes)

    def transformed(self) -> np.ndarray:
        p = self.transform
        return np.einsum("ij,kjl,lm->kim", p.conj().T, self.family.mats, p)

    def reconstruction_residual(self) -> float:
        """Largest off-structure entry of P^H S_k P, relative to the family scale."""
        t = self.transformed()
        scale = self.family.scale if self.family.scale > 0 else 1.0
        worst = 0.0
        starts = np.cumsum((0,) + self.block_sizes)
        for a in range(self.block_count):
            for b in range(a + 1, self.block_count):
                seg = t[:, starts[a]:starts[a + 1], starts[b]:starts[b + 1]]
                worst = max(worst, float(np.max(np.abs(seg), initial=0.0)))
        return worst / scale


def block_triangularize(family: MatrixFamily, seed: int = 0) -> ReductionResult:
    """Recursively split along invariant subspaces until every diagonal
    block is irreducible.  The assembled transform is unitary (nested
    orthonormal completions), so it is as well-conditioned as possible.
    One algebra closure per split decides irreducibility (raising
    ToleranceConflictError when uncertain) and seeds the subspace search."""
    d = family.dim
    alg = None if d == 1 else _certain_closure(family)
    if alg is None or alg.dimension == d * d:  # irreducible
        return ReductionResult(family, np.eye(d, dtype=np.complex128),
                               (d,), (family,))
    w = _split(family, alg, seed)
    m = w.shape[0]
    _, _, vh = np.linalg.svd(w)
    p_inv = vh  # first m rows span the invariant subspace
    p = p_inv.conj().T
    t = np.einsum("ij,kjl,lm->kim", p_inv, family.mats, p)
    top = MatrixFamily(np.ascontiguousarray(t[:, :m, :m]))
    bottom = MatrixFamily(np.ascontiguousarray(t[:, m:, m:]))
    r_top = block_triangularize(top, seed=seed)
    r_bottom = block_triangularize(bottom, seed=seed)
    q = np.zeros((d, d), dtype=np.complex128)
    q[:m, :m] = r_top.transform
    q[m:, m:] = r_bottom.transform
    return ReductionResult(family, p @ q,
                           r_top.block_sizes + r_bottom.block_sizes,
                           r_top.blocks + r_bottom.blocks)


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
    fam_bracket = bounds_bracket(result.family, depth, node_budget)
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


def _real_rows(basis: np.ndarray) -> np.ndarray:
    """A real orthonormal row basis of span(basis) when that span is its
    own conjugate, as a real family's invariant subspaces often are, so
    that the restriction of a real family stays real; else the basis as
    given.  The real and imaginary parts of the rows lie in such a span,
    and their rank tells."""
    m = basis.shape[0]
    _, sv, vh = np.linalg.svd(np.vstack([basis.real, basis.imag]))
    if sv.size > m and sv[m] > RANK_TOL * sv[0]:
        return basis
    return vh[:m]


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
    its best word.  The whole space is tried first (``_certificate``);
    otherwise the search descends into the block triangularization and
    takes the first block j, in order, whose bracket's lower bound is the
    estimate (a block below it cannot prove equality) and whose
    restriction to blocks 1..j carries a certificate, with the block
    bracket's best word for the polytope.  E is spanned by rows of the
    (unitary) transform, in a real basis when it has one.  Without a
    verified certificate the answer is "undetermined", never a guess.
    ``vertex_budget`` caps each polytope closure.
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
            "ok", rho_est, basis=np.eye(family.dim, dtype=np.complex128),
            restricted_family=family, certificate=cert,
            diagnostics=f"full space; verified {cert.kind} norm")
    reduction = block_triangularize(family, seed=seed)
    if reduction.block_count == 1:
        return ExtremalSubspace(
            "undetermined", rho_est,
            diagnostics="irreducible family and no norm verified at the "
                        "estimate; it may not be tight")
    report = dominant_blocks(reduction, depth, node_budget)
    starts = np.cumsum((0,) + reduction.block_sizes)
    for j in report.certain:
        m = int(starts[j])
        basis = _real_rows(reduction.transform.conj().T[:m])
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
