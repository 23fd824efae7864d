"""Extremal norms and finiteness certification.

A norm is extremal for a family when the largest induced generator norm
equals the joint spectral radius; any norm's maximum is an upper bound,
so a candidate norm that attains the best known lower bound certifies the
JSR exactly.  Candidate norms here are either the Euclidean norm (possibly
in transformed coordinates) or the gauge of a balanced polytope given by a
finite vertex set; the latter is what ``certify_finiteness`` constructs by
closing the vertex orbit of a spectrum-maximizing word's leading
eigenvector under the normalized generators.

Every polytope gauge is read off the facet form of the balanced hull
(one qhull hull per vertex set, then one matmul for any number of
points) in dimension up to FACET_MAX_DIM; beyond that, or when qhull
fails, each gauge is a linear program.

Polytope machinery is real-only; complex families get bounds and
Euclidean-norm checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import MEMBERSHIP_TOL, VERTEX_BUDGET
from .matrix_core import MatrixFamily, Word, _normalized_product, operator_norm


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
        return self.kind == "euclidean" or _span(self.vertices)[0] == self.dim


def _span(vertices: np.ndarray) -> tuple[int, np.ndarray]:
    """(rank, vh) of the (m, d) vertex rows: the number of singular values
    above 1e-12 times the largest, and the d right singular vectors as
    rows, those of the span first.  The m x m left factor is formed only
    when m < d, where the rows of vh past m need it."""
    _, sv, vh = np.linalg.svd(vertices,
                              full_matrices=len(vertices) < vertices.shape[1])
    return int(np.sum(sv > 1e-12 * sv[:1])), vh


def euclidean_certificate(dim: int, transform=None) -> NormCertificate:
    return NormCertificate(dim=dim, kind="euclidean", transform=transform,
                           status="candidate")


def _realify(x) -> np.ndarray:
    x = np.asarray(x)
    if np.iscomplexobj(x):
        if np.any(x.imag):
            raise ComplexFamilyError("polytope gauge is defined for real vectors")
        x = x.real
    return np.asarray(x, dtype=np.float64)


def norm_value(cert: NormCertificate, x) -> float:
    """Minkowski gauge of the certificate's unit ball at x."""
    if cert.kind == "euclidean":
        x = np.asarray(x)
        if cert.transform is not None:
            x = x @ cert.transform
        return float(np.linalg.norm(x))
    x = _realify(x)
    if x.shape != (cert.dim,):
        raise ValueError(f"vector must have dim {cert.dim}")
    if not cert.spans():
        raise DegenerateNormError("vertex set does not span the space")
    return float(_gauge(cert.vertices)(x[None])[0])


# beyond this dimension a balanced hull of a few dozen vertices has too
# many facets to enumerate (thousands at d = 6), so gauges are LPs
FACET_MAX_DIM = 6
# relative residual off span(V) beyond which a point is outside every
# multiple of the hull; rounding leaves about 1e-16
SPAN_TOL = 1e-9


def _gauge(vertices: np.ndarray):
    """The gauge of the balanced hull of ±vertices, as a function that maps
    an (n, d) stack of points to their n gauges (inf off span(vertices)).

    In d <= FACET_MAX_DIM it is exact to rounding: the points are taken
    into orthonormal coordinates Q of span(V), and each facet {y: a.y = 1}
    of the hull of ±VQ (qhull; a segment in rank 1) gives one row a, so
    gauge(x) = max(0, max_a a.(xQ)).  Beyond that dimension, or when qhull
    fails on a nearly flat set, each gauge is ``_lp_gauge``.
    """
    def lp(points):
        return np.array([_lp_gauge(vertices, x) for x in points])

    if vertices.shape[1] > FACET_MAX_DIM:
        return lp
    # imported here: scipy is most of the import time of jsrkit, and only
    # polytope norms need it
    from scipy.spatial import ConvexHull, QhullError

    rank, vh = _span(vertices)
    basis = vh[:rank].T
    y = vertices @ basis
    if basis.shape[1] == 1:
        rows = np.array([[1.0], [-1.0]]) / np.max(np.abs(y))
    else:
        try:
            eq = ConvexHull(np.vstack([y, -y])).equations
        except QhullError:
            return lp
        rows = eq[:, :-1] / -eq[:, -1:]

    def facet(points):
        coords = points @ basis
        g = np.maximum(0.0, np.max(coords @ rows.T, axis=1))
        off = np.linalg.norm(points - coords @ basis.T, axis=1)
        g[off > SPAN_TOL * np.linalg.norm(points, axis=1)] = np.inf
        return g

    return facet


def _lp_gauge(vertices: np.ndarray, x: np.ndarray) -> float:
    """min sum |c| subject to c @ vertices = x (inf if x is outside the span).

    The gauge is positively homogeneous, so x is solved at max-abs 1 and the
    optimum scaled back: HiGHS reads entries below its ~1e-7 feasibility
    tolerance as 0, which would make tiny vectors look like the origin.
    That tolerance also bounds its accuracy: about 1e-7 relative.
    """
    # imported here: scipy.optimize is most of the import time of jsrkit,
    # and only gauges in more than FACET_MAX_DIM dimensions solve LPs
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
        if cert.transform is not None:  # T^{-1} A T; ||x A T|| <= ||x T|| * sigma_max
            a = np.linalg.solve(cert.transform, np.asarray(a) @ cert.transform)
        return operator_norm(a)
    if not cert.spans():
        raise DegenerateNormError("vertex set does not span the space")
    a = _realify(a)
    return float(np.max(_gauge(cert.vertices)(cert.vertices @ a)))


def check_extremal_norm(family: MatrixFamily, cert: NormCertificate,
                        rho_estimate: float,
                        rel_tol: float = 1e-8) -> tuple[bool, float, float]:
    """Does max_k ||S_k|| under this norm equal the JSR estimate?

    Returns (verdict, gap, attained) with gap = attained - rho_estimate;
    the verdict holds when |gap| <= rel_tol * |rho_estimate|, relative at
    every scale.  The attained value is always a true upper bound on the
    JSR, whatever the verdict.  A polytope's gauge is built once, for all
    m x K vertex images.
    """
    if cert.dim != family.dim:
        raise ValueError("certificate dimension does not match the family")
    if cert.kind == "euclidean":
        attained = max(induced_norm(cert, a) for a in family.mats)
    elif not cert.spans():
        raise DegenerateNormError("vertex set does not span the space")
    else:
        images = (cert.vertices @ _realify(family.mats)).reshape(-1, cert.dim)
        attained = float(np.max(_gauge(cert.vertices)(images)))
    gap = attained - rho_estimate
    ok = abs(gap) <= rel_tol * abs(rho_estimate)
    return ok, gap, attained


@dataclass(frozen=True)
class FinitenessCertificate:
    word: Word
    value: float  # candidate JSR, the averaged spectral value of the word
    verdict: str  # "certified" or "inconclusive"
    certificate: NormCertificate | None = None
    reason: str = ""


def certify_finiteness(family: MatrixFamily, word: Word,
                       vertex_budget: int = VERTEX_BUDGET) -> FinitenessCertificate:
    """Certify that a word attains the joint spectral radius.

    One eigendecomposition of the word's normalized product P 2^e
    (``matrix_core._normalized_product``) gives the candidate value
    |lambda|^(1/n) 2^(e/n) scale from the leading eigenvalue lambda of P,
    which must be nonzero, real (of
    either sign: the polytope is balanced) and simple, and the seed, its
    leading left eigenvector.  No rotation of the word is tried: each has
    the spectrum of P, and its seed is the image of this one under a
    prefix, which the closure reaches anyway.  The closure runs on the
    normalized generators over |lambda|^(1/n) 2^(e/n): every image that escapes
    the current balanced hull becomes a new vertex.  If it terminates,
    the polytope gauge is an extremal norm and the JSR equals the
    candidate value.  A closed vertex set that spans only an
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
    prod, exp = _normalized_product(family, word)
    ev, vecs = np.linalg.eig(prod.T)
    order = np.argsort(-np.abs(ev))
    lead = ev[order[0]]
    mag = float(abs(lead))
    rho_norm = mag ** (1.0 / len(word)) * 2.0 ** (exp / len(word))
    rho_cand = rho_norm * family.scale

    def refuse(reason):
        return FinitenessCertificate(word, rho_cand, "inconclusive", reason=reason)

    if rho_cand <= 0.0:
        return refuse("candidate value is zero")
    if abs(lead.imag) > 1e-9 * mag:
        return refuse("no cyclic rotation has a real leading eigenvalue")
    second = abs(ev[order[1]]) if ev.size > 1 else 0.0
    if (mag - second) / mag <= 1e-12:
        return refuse("leading eigenvalue is (numerically) not simple")
    v = vecs[:, order[0]]
    pivot = v[np.argmax(np.abs(v))]
    v = v / (pivot / abs(pivot))
    if np.max(np.abs(v.imag)) > 1e-9:
        return refuse("leading eigenvector is not realizable")
    v = v.real / np.linalg.norm(v.real)
    mats = family.normalized_mats() / rho_norm

    vertices = [v]
    queue = [v]
    gauge = _gauge(v[None])
    max_gauge = 0.0
    while queue:
        if len(vertices) > vertex_budget:
            return FinitenessCertificate(
                word, rho_cand, "inconclusive",
                reason=f"vertex budget {vertex_budget} exhausted; "
                       "the normalized semigroup may be unbounded")
        v0 = queue.pop(0)
        arr = np.array(vertices)
        images = v0 @ mats
        gauges = gauge(images)
        for k, u in enumerate(images):
            g = float(gauges[k])
            if g <= 1.0 + MEMBERSHIP_TOL:
                max_gauge = max(max_gauge, g)
                continue
            # near-duplicate of an existing vertex: rounding, treat as inside
            scale = np.linalg.norm(u)
            if scale > 0 and np.min(
                    np.minimum(np.linalg.norm(arr - u, axis=1),
                               np.linalg.norm(arr + u, axis=1))) <= 1e-12 * scale:
                continue
            vertices.append(u)
            queue.append(u)
            # the later images are judged against the grown hull
            gauge = _gauge(np.array(vertices))
            gauges[k + 1:] = gauge(images[k + 1:])
    rank, vh = _span(np.array(vertices))
    if rank < family.dim:
        # the closed set spans an invariant subspace only: short vertices
        # along its orthogonal complement make a polytope that spans, and
        # that is still invariant if the generators map them into it
        extra = 1e-3 * vh[rank:]
        vertices = np.vstack([vertices, extra])
        gauges = _gauge(vertices)((extra @ mats).reshape(-1, family.dim))
        if np.max(gauges) > 1.0 + MEMBERSHIP_TOL:
            return FinitenessCertificate(
                word, rho_cand, "inconclusive",
                reason=f"polytope spans an invariant subspace of dim {rank}")
        max_gauge = max(max_gauge, float(np.max(gauges)))
    cert = NormCertificate(
        dim=family.dim, kind="polytope", vertices=vertices,
        margin=max(0.0, 1.0 - max_gauge), status="verified")
    return FinitenessCertificate(word, rho_cand, "certified", certificate=cert)
