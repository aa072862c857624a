"""Hypermetric evaluation and the distance-space dimension oracle.

The central object is the linear system S(P) on unordered vertex pairs:
for every dependency y and every probe vertex u it contains the equation
sum_v y(v) d(u, v) = 0.  The dimension of its solution space is a second,
independent route to the rank of the polytope.  face_system builds that one
row system from the canonical dependency basis, for every vertex count, and
exact.sparse_rank takes its rank by fraction-free integer elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import exact
from .deps import dependency_module
from .errors import SumNotOne
from .model import Polytope, circumcenter, distance_matrix, from_coords


def vertex_pairs(nv: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(nv) for j in range(i + 1, nv)]


@dataclass(frozen=True)
class FaceSystem:
    """Sparse equation system on unordered vertex pairs.

    rows[k] is ((dependency index, probe vertex), {pair index: coefficient}).
    Pair indices follow vertex_pairs order.
    """

    nvertices: int
    pairs: tuple[tuple[int, int], ...]
    rows: tuple[tuple[tuple[int, int], dict[int, int]], ...]

    def dense(self) -> list[list[Fraction]]:
        out = []
        for _, row in self.rows:
            vec = [Fraction(0)] * len(self.pairs)
            for c, v in row.items():
                vec[c] = Fraction(v)
            out.append(vec)
        return out


def eval_hypermetric(dm, b) -> Fraction:
    """sum over unordered pairs of b(u) b(v) d(u, v).  Requires sum(b) = 1."""
    d = exact.qmat(dm)
    if len(b) != len(d):
        raise ValueError("coefficient count does not match matrix size")
    if sum(b) != 1:
        raise SumNotOne("representation coefficients must sum to one")
    total = Fraction(0)
    for i, bi in enumerate(b):
        if bi:
            row = d[i]
            for j in range(i + 1, len(d)):
                if b[j]:
                    total += bi * b[j] * row[j]
    return total


def representation_point(p: Polytope, b) -> tuple[tuple[Fraction, ...], bool]:
    """Affine combination sum b(v) v and whether it is a vertex of p."""
    if len(b) != p.nvertices:
        raise ValueError("coefficient count does not match vertex count")
    if sum(b) != 1:
        raise SumNotOne("representation coefficients must sum to one")
    pt = tuple(
        sum((Fraction(bv) * v[k] for bv, v in zip(b, p.vertices)), Fraction(0))
        for k in range(p.dim)
    )
    return pt, pt in set(p.vertices)


@dataclass(frozen=True)
class LemmaHyReport:
    value: Fraction
    equality_holds: bool
    point: tuple[Fraction, ...]
    point_is_vertex: bool
    consistent: bool
    caveat: str


def check_lemma_hy(p: Polytope, gram, b) -> LemmaHyReport:
    """Compare hypermetric equality against vertexhood of the combination point.

    The two sides agree exactly when the sphere through the vertices is
    empty and carries no other lattice points; cosphericity is checked on
    the way in (distance data comes from the Gram form), emptiness is not.
    """
    circumcenter(p, gram)  # raises NotCospherical on bad input
    d = distance_matrix(p, gram)
    val = eval_hypermetric(d, b)
    pt, isv = representation_point(p, b)
    return LemmaHyReport(
        value=val,
        equality_holds=(val == 0),
        point=pt,
        point_is_vertex=isv,
        consistent=(val == 0) == isv,
        caveat="equivalence assumes the circumscribed sphere is empty and meets the lattice only in vertices; verify_empty_sphere gives a bounded-window check",
    )


def face_system(p: Polytope) -> FaceSystem:
    """System rows (y, u) over the canonical dependency basis and all probes."""
    basis = dependency_module(p)
    nv = p.nvertices
    pairs = vertex_pairs(nv)
    pidx = {pr: k for k, pr in enumerate(pairs)}
    rows = []
    for yi, y in enumerate(basis):
        for u in range(nv):
            row: dict[int, int] = {}
            for v, c in enumerate(y):
                if c and v != u:
                    row[pidx[(u, v) if u < v else (v, u)]] = c
            rows.append(((yi, u), row))
    return FaceSystem(nvertices=nv, pairs=tuple(pairs), rows=tuple(rows))


def face_dimension(p: Polytope) -> int:
    """Dimension of the solution space of the pair system S(P).

    Equals nvertices*(nvertices-1)/2 minus the exact.sparse_rank of the
    face_system rows.  For a simplex the system is empty and the value is
    dim*(dim+1)/2.
    """
    nv = p.nvertices
    rows = [row for _, row in face_system(p).rows]
    return nv * (nv - 1) // 2 - exact.sparse_rank(rows)


def restricted_face_dimension(p: Polytope, subset) -> int:
    """face_dimension of the subpolytope on the given vertex subset.

    The subset must still affinely span the full dimension.
    """
    idx = sorted(set(subset))
    if any(not 0 <= i < p.nvertices for i in idx):
        raise ValueError("subset index out of range")
    sub = from_coords(p.dim, [p.vertices[i] for i in idx])
    return face_dimension(sub)
