"""Extremal norms and finiteness certification.

A norm is extremal for a family when the largest induced generator norm
equals the joint spectral radius; any norm's maximum is an upper bound,
so a candidate norm that attains the best known lower bound certifies the
JSR exactly.  Candidate norms here are either the Euclidean norm (possibly
in transformed coordinates) or the gauge of a balanced polytope given by a
finite vertex set; the latter is what ``certify_finiteness`` constructs by
closing the vertex orbit of a spectrum-maximizing word's leading
eigenvector under the normalized generators.

Polytope machinery is real-only; complex families get bounds and
Euclidean-norm checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .config import GROWTH_THRESHOLD, MEMBERSHIP_TOL, VERTEX_BUDGET
from .matrix_core import (MatrixFamily, Word, averaged_spectral_value,
                          operator_norm)


class ComplexFamilyError(ValueError):
    """Polytope certification needs real entries; use bounds-only mode."""


class DegenerateNormError(ValueError):
    """The vertex set does not span the space, so the gauge is not a norm."""


@dataclass(frozen=True)
class NormCertificate:
    """A finitely represented candidate extremal norm.

    kind "polytope": unit ball is the balanced (symmetric) hull of the
    vertex rows.  kind "euclidean": norm is ||x T||_2 with T defaulting to
    the identity.  status "verified" means the normalized generators map
    the unit ball into itself.
    """

    dim: int
    kind: str = "polytope"
    vertices: np.ndarray | None = field(default=None, repr=False)
    transform: np.ndarray | None = field(default=None, repr=False)
    margin: float = 0.0
    status: str = "candidate"

    def __post_init__(self):
        if self.kind not in ("polytope", "euclidean"):
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if self.kind == "polytope":
            if self.vertices is None:
                raise ValueError("polytope certificate needs vertices")
            v = np.asarray(self.vertices, dtype=np.float64)
            if v.ndim != 2 or v.shape[1] != self.dim:
                raise ValueError(f"vertices must be (m, {self.dim})")
            object.__setattr__(self, "vertices", v)
        if self.transform is not None:
            object.__setattr__(self, "transform", np.asarray(self.transform))

    def spans(self) -> bool:
        if self.kind == "euclidean":
            return True
        sv = np.linalg.svd(self.vertices, compute_uv=False)
        return sv.size >= self.dim and sv[self.dim - 1] > 1e-12 * sv[0]


def euclidean_certificate(dim: int, transform=None) -> NormCertificate:
    return NormCertificate(dim=dim, kind="euclidean", transform=transform,
                           status="candidate")


def _realify(x) -> np.ndarray:
    x = np.asarray(x)
    if np.iscomplexobj(x):
        if np.max(np.abs(x.imag), initial=0.0) > 1e-9 * max(1.0, np.max(np.abs(x))):
            raise ComplexFamilyError("polytope gauge is defined for real vectors")
        x = x.real
    return np.asarray(x, dtype=np.float64)


def norm_value(cert: NormCertificate, x) -> float:
    """Minkowski gauge of the certificate's unit ball at x."""
    if cert.kind == "euclidean":
        x = np.asarray(x, dtype=np.complex128)
        if cert.transform is not None:
            x = x @ cert.transform
        return float(np.linalg.norm(x))
    x = _realify(x)
    if x.shape != (cert.dim,):
        raise ValueError(f"vector must have dim {cert.dim}")
    if not cert.spans():
        raise DegenerateNormError("vertex set does not span the space")
    return _gauge(cert.vertices, x)


def _gauge(vertices: np.ndarray, x: np.ndarray) -> float:
    """min sum |c| subject to c @ vertices = x (inf if x is outside the span).

    The gauge is positively homogeneous, so x is solved at max-abs 1 and the
    optimum scaled back: HiGHS reads entries below its ~1e-7 feasibility
    tolerance as 0, which would make tiny vectors look like the origin.
    """
    # imported here: scipy.optimize is most of the import time of jsrkit,
    # and only certification solves linear programs
    from scipy.optimize import linprog

    size = float(np.max(np.abs(x)))
    if size == 0.0:
        return 0.0
    m = vertices.shape[0]
    a_eq = np.hstack([vertices.T, -vertices.T])
    res = linprog(np.ones(2 * m), A_eq=a_eq, b_eq=x / size,
                  bounds=(0, None), method="highs")
    if not res.success:
        return float("inf")
    return float(res.fun) * size


def induced_norm(cert: NormCertificate, a: np.ndarray) -> float:
    """Operator norm of the row action x -> x a under the certificate norm."""
    if cert.kind == "euclidean":
        a = np.asarray(a, dtype=np.complex128)
        if cert.transform is not None:
            t = np.asarray(cert.transform, dtype=np.complex128)
            a = np.linalg.solve(t, a @ t)  # T^{-1} A T; ||x A T|| <= ||x T|| * sigma_max
        return operator_norm(a)
    if not cert.spans():
        raise DegenerateNormError("vertex set does not span the space")
    a = _realify(a)
    return max(_gauge(cert.vertices, v @ a) for v in cert.vertices)


def check_extremal_norm(family: MatrixFamily, cert: NormCertificate,
                        rho_estimate: float,
                        rel_tol: float = 1e-8) -> tuple[bool, float, float]:
    """Does max_k ||S_k|| under this norm equal the JSR estimate?

    Returns (verdict, gap, attained) with gap = attained - rho_estimate.
    The attained value is always a true upper bound on the JSR, whatever
    the verdict.
    """
    if cert.dim != family.dim:
        raise ValueError("certificate dimension does not match the family")
    attained = max(induced_norm(cert, family.mats[k]) for k in range(family.size))
    gap = attained - rho_estimate
    ok = abs(gap) <= rel_tol * max(1.0, abs(rho_estimate))
    return ok, gap, attained


@dataclass(frozen=True)
class ProbeResult:
    verdict: str  # "bounded-likely", "unbounded", "inconclusive"
    max_log_norm: float
    depths_scanned: int
    witness_word: Word | None = None


def boundedness_probe(family: MatrixFamily, depth: int,
                      growth_threshold: float = GROWTH_THRESHOLD,
                      node_budget: int = 10**5) -> ProbeResult:
    """Heuristic boundedness verdict for a normalized semigroup.

    "unbounded" is sound relative to the threshold semantics: some finite
    product's norm exceeded growth_threshold, and the witnessing word is
    reported.  "bounded-likely" means the running maximum product norm did
    not increase over the last quarter of the scanned depths.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    log_thresh = float(np.log(growth_threshold))
    scan = _kernels.scan_words(np.ascontiguousarray(family.mats), depth,
                               node_budget)
    n_eff = scan.levels
    if n_eff < 1:
        raise ValueError("node budget too small for even depth 1")
    with np.errstate(divide="ignore"):
        lognorms = np.arange(1, n_eff + 1) * np.log(scan.max_norm[:n_eff])
    max_log = scan.norm_log
    running = np.maximum.accumulate(lognorms)
    if max_log > log_thresh:
        return ProbeResult("unbounded", max_log, n_eff, scan.norm_word)
    if n_eff >= 4:
        q = (3 * n_eff) // 4
        if running[-1] <= running[q - 1] + 1e-9:
            return ProbeResult("bounded-likely", max_log, n_eff, None)
    return ProbeResult("inconclusive", max_log, n_eff, None)


@dataclass(frozen=True)
class FinitenessCertificate:
    word: Word
    value: float  # candidate JSR, the averaged spectral value of the word
    verdict: str  # "certified" or "inconclusive"
    certificate: NormCertificate | None = None
    reason: str = ""


def _best_rotation(mats_real: np.ndarray, word: Word) -> tuple[Word, np.ndarray] | str:
    """Cyclic rotation of the word whose product has the cleanest leading
    eigenpair: simple and real, of either sign (the polytope is balanced,
    so an eigenvalue -1 of the normalized product maps the seed v to -v,
    which is inside it).  Returns a reason string on failure."""
    n = len(word)
    rots = (np.arange(n)[:, None] + np.arange(n)) % n  # rotation s starts at s
    letters = np.asarray(word)[rots] - 1
    prods = np.eye(mats_real.shape[1])[None]
    for t in range(n):
        prods = prods @ mats_real[letters[:, t]]
    ev = np.linalg.eigvals(prods)
    ev = np.take_along_axis(ev, np.argsort(-np.abs(ev), axis=1), axis=1)
    mag = np.abs(ev[:, 0])
    if mag[0] <= 0.0:
        return "leading eigenvalue of the word product is zero"
    second = np.abs(ev[:, 1]) if ev.shape[1] > 1 else 0.0
    gap = (mag - second) / mag
    usable = np.flatnonzero(np.abs(ev[:, 0].imag) <= 1e-9 * mag)
    if not usable.size:
        return "no cyclic rotation has a real leading eigenvalue"
    s = usable[_kernels.first_near_max(gap[usable], 1e-15)]
    if gap[s] <= 1e-12:
        return "leading eigenvalue is (numerically) not simple"
    return word[s:] + word[:s], prods[s]


def certify_finiteness(family: MatrixFamily, word: Word,
                       vertex_budget: int = VERTEX_BUDGET) -> FinitenessCertificate:
    """Certify that a word attains the joint spectral radius.

    Scales the family by the word's averaged spectral value, seeds a
    vertex set with the leading left eigenvector of the scaled word
    product, and closes the set under the generators: every image that
    escapes the current balanced hull becomes a new vertex.  If the
    closure terminates, the polytope gauge is an extremal norm and the JSR
    equals the candidate value.  A closed vertex set that spans only an
    invariant subspace bounds the family on that subspace alone: it is
    completed by short vertices along the orthogonal complement, and
    unless the generators map those into the completed polytope the
    answer is inconclusive ("polytope spans an invariant subspace of dim
    r"), as is budget exhaustion: never a false certificate.
    """
    if len(word) < 1:
        raise ValueError("certification needs a non-empty word")
    if not family.is_real:
        raise ComplexFamilyError(
            "polytope certification supports real families only; "
            "use the bounds subcommand for complex input")
    rho_cand = averaged_spectral_value(family, word)
    if rho_cand <= 0.0:
        return FinitenessCertificate(word, rho_cand, "inconclusive",
                                     reason="candidate value is zero")
    mats = np.ascontiguousarray(family.mats.real) / rho_cand
    picked = _best_rotation(mats, word)
    if isinstance(picked, str):
        return FinitenessCertificate(word, rho_cand, "inconclusive", reason=picked)
    rot, prod = picked
    ev, vecs = np.linalg.eig(prod.T)
    lead = int(np.argmax(np.abs(ev)))
    v = vecs[:, lead]
    pivot = v[np.argmax(np.abs(v))]
    v = v / (pivot / abs(pivot))
    if np.max(np.abs(v.imag)) > 1e-9:
        return FinitenessCertificate(word, rho_cand, "inconclusive",
                                     reason="leading eigenvector is not realizable")
    v = v.real / np.linalg.norm(v.real)

    vertices = [v]
    queue = [v]
    max_gauge = 0.0
    while queue:
        if len(vertices) > vertex_budget:
            return FinitenessCertificate(
                word, rho_cand, "inconclusive",
                reason=f"vertex budget {vertex_budget} exhausted; "
                       "the normalized semigroup may be unbounded")
        v0 = queue.pop(0)
        arr = np.array(vertices)
        for k in range(family.size):
            u = v0 @ mats[k]
            g = _gauge(np.array(vertices), u)
            if g <= 1.0 + MEMBERSHIP_TOL:
                max_gauge = max(max_gauge, g)
                continue
            # near-duplicate of an existing vertex: LP noise, treat as inside
            scale = np.linalg.norm(u)
            if scale > 0 and np.min(
                    np.minimum(np.linalg.norm(arr - u, axis=1),
                               np.linalg.norm(arr + u, axis=1))) <= 1e-12 * scale:
                continue
            vertices.append(u)
            queue.append(u)
    # every right singular vector, without an m x m left factor
    _, sv, vh = np.linalg.svd(vertices, full_matrices=len(vertices) < family.dim)
    rank = int(np.sum(sv > 1e-12 * sv[0]))  # as in NormCertificate.spans
    if rank < family.dim:
        # the closed set spans an invariant subspace only: short vertices
        # along its orthogonal complement make a polytope that spans, and
        # that is still invariant if the generators map them into it
        extra = 1e-3 * vh[rank:]
        vertices = np.vstack([vertices, extra])
        gauges = [_gauge(vertices, u @ m) for u in extra for m in mats]
        if max(gauges) > 1.0 + MEMBERSHIP_TOL:
            return FinitenessCertificate(
                word, rho_cand, "inconclusive",
                reason=f"polytope spans an invariant subspace of dim {rank}")
        max_gauge = max([max_gauge] + gauges)
    cert = NormCertificate(
        dim=family.dim, kind="polytope", vertices=vertices,
        margin=max(0.0, 1.0 - max_gauge), status="verified")
    return FinitenessCertificate(word, rho_cand, "certified", certificate=cert)
