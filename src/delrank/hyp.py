"""Hypermetric evaluation and the distance-space dimension oracle.

The central object is the linear system S(P) on unordered vertex pairs:
for every dependency y and every probe vertex u it has the equation
row(y, u): sum_v y(v) d(u, v) = 0.  The dimension of its solution space is
a second route to the rank of the polytope.  face_system builds the rows
from the supports of the paper's dependencies, p.frame.dependencies, the
ones rank_of builds its form constraints from, and emits them in the order
face_dimension eliminates them; exact.sparse_rank takes their rank by
fraction-free integer elimination.
face_system keeps row (y, u) only when u is in the support of y.  Each row
it leaves out is in the span of the rows it keeps, or alone on a pair
column, adding 1 to the rank, which face_dimension counts (the proofs are
in face_system's docstring).  Pair indices follow vertex_pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import exact
from .errors import SumNotOne, WrongSize
from .model import Polytope, _distance_matrix, _from_integers, _validate_distance_matrix, circumcenter


def vertex_pairs(nv: int) -> list[tuple[int, int]]:
    """The unordered vertex pairs (i, j), i < j, in lex order: the columns of the pair system."""
    return [(i, j) for i in range(nv) for j in range(i + 1, nv)]


def eval_hypermetric(dm, b) -> Fraction:
    """sum over unordered pairs of b(u) b(v) d(u, v).  Requires sum(b) = 1."""
    d, t = _validate_distance_matrix(dm)
    if len(b) != len(d):
        raise WrongSize("coefficient count does not match matrix size")
    if sum(b) != 1:
        raise SumNotOne("representation coefficients must sum to one")
    total = 0
    for i, bi in enumerate(b):
        if bi:
            row = d[i]
            for j in range(i + 1, len(d)):
                if b[j]:
                    total += bi * b[j] * row[j]
    return Fraction(total) / t


def representation_point(p: Polytope, b) -> tuple[tuple[Fraction, ...], bool]:
    """Affine combination sum b(v) v and whether it is a vertex of p."""
    if len(b) != p.nvertices:
        raise WrongSize("coefficient count does not match vertex count")
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
    circumcenter(p, gram)  # checks the form, and raises NotCospherical on bad input
    num, scale = _distance_matrix(p, *exact.over_common_denominator(gram))
    val = eval_hypermetric(num, b) / scale
    pt, isv = representation_point(p, b)
    return LemmaHyReport(
        value=val,
        equality_holds=(val == 0),
        point=pt,
        point_is_vertex=isv,
        consistent=(val == 0) == isv,
        caveat="equivalence assumes the circumscribed sphere is empty and meets the lattice only in vertices; verify_empty_sphere gives a bounded-window check",
    )


def face_system(p: Polytope) -> tuple[tuple[tuple[int, int], dict[int, int]], ...]:
    """Rows ((y, u), {pair index: coefficient}) of S(P) that face_dimension eliminates.

    y indexes the dependencies of the polytope's frame (p.frame), the
    paper's dependencies over the last affine basis, so each leads at its
    own vertex; u is the probe vertex.  Row (y, u) holds y's support with u
    dropped, each vertex v read as the pair {u, v}, with pair indices in
    vertex_pairs order.  Write row(y, u) for sum_v y(v) d{u, v} and lead(y)
    for the first vertex where y is nonzero.  Row (y, u) is kept only when
    u is in the support of y: sum_y |supp y| rows.

    Rule 1 leaves out (y, u) when u = lead(y') < lead(y) for another y'.
    Proof that this keeps the rank: take y, y' with l' = lead(y') < lead(y).

    - sum_x y(x) row(y', x) and sum_x y'(x) row(y, x) are both
      sum_{a != b} y(a) y'(b) d{a, b}, so they are the same linear form.
    - The left side only uses probes above l', since y is zero at l' and
      below it; the right side is y'(l') row(y, l') plus probes above l'.
    - So y'(l') row(y, l') is a combination of rows at higher probes, and
      y'(l') != 0.
    - By descending induction on the probe, the kept rows span every row.

    Rule 2 leaves out (y_a, b) for a = lead(y_a) < b outside the basis.
    Each support holds one vertex outside the basis, its lead, so only
    (y_a, b) and (y_b, a) touch the pair {a, b}, and rule 1 leaves out
    (y_b, a).  So (y_a, b) is alone on that column, with y_a(a) != 0, and
    the k*(k-1)/2 rows rule 2 leaves out add exactly k*(k-1)/2 to the rank.

    Rule 3 leaves out (y_w, b) for w = lead(y_w) and b a basis vertex
    outside supp(y_w).  Only rows (y, b) with w in supp(y), that is y = y_w,
    and rows (y, w) touch the pair {w, b}, and rules 1 and 2 keep (y, w)
    only for y = y_w, whose support misses b.  So (y_w, b) is alone on that
    column, with y_w(w) != 0: the k*(dim + 1) - sum_y (|supp y| - 1) rows
    rule 3 leaves out add exactly that many to the rank.
    The arguments need no unit pivots, no Z-basis and no vertex order.

    The rows come out in the order face_dimension eliminates them: from
    the last probe down, in dependency order within each probe.  Row
    (y, u) lives on the pairs that contain u.  Of these, the pairs (v, u)
    with v < u are new to the elimination when the probes come from the
    last one down, and in lex column order they precede the pairs (u, w)
    that higher probes already pivoted on.  So a row pivots on a fresh
    pair at the leading vertex of y, and each dependency leads at its own
    vertex.  This keeps fill and entry growth far below the
    dependency-major order of rows.
    """
    supports = p.frame.dependencies
    nv = p.nvertices
    holding = [[] for _ in range(nv)]
    for yi, y in enumerate(supports):
        for v, _ in y:
            holding[v].append(yi)
    # vertex_pairs puts {i, j}, i < j, at i*(2nv - i - 1)/2 + j - i - 1 = start[i] + j: no nv x nv table
    start = [i * (2 * nv - i - 3) // 2 - 1 for i in range(nv)]
    rows = []
    for u in range(nv - 1, -1, -1):
        for yi in holding[u]:
            rows.append(((yi, u), {start[v] + u if v < u else start[u] + v: c for v, c in supports[yi] if v != u}))
    return tuple(rows)


def face_dimension(p: Polytope) -> int:
    """Dimension of the solution space of the pair system S(P).

    Equals nv*(nv-1)/2 minus the exact.sparse_rank of the face_system rows,
    eliminated in their order, and minus the rank of the rows its rules 2
    and 3 leave out: k*(k-1)/2 + k*(dim + 1) - sum_y (|supp y| - 1) for the
    k dependencies.  For a simplex the system is empty and the value is
    dim*(dim+1)/2.
    """
    supports = p.frame.dependencies
    nv, k = p.nvertices, len(supports)
    alone = k * (k - 1) // 2 + k * (p.dim + 1) - sum(len(y) - 1 for y in supports)
    return nv * (nv - 1) // 2 - alone - exact.sparse_rank([row for _, row in face_system(p)])


def restricted_face_dimension(p: Polytope, subset) -> int:
    """face_dimension of the subpolytope on the given vertex subset.

    The subset must still affinely span the full dimension.
    """
    idx = sorted(set(subset))
    if any(not 0 <= i < p.nvertices for i in idx):
        raise WrongSize("subset index out of range")
    sub = _from_integers(p.dim, [p.numerators[i] for i in idx], p.denominator)
    return face_dimension(sub)
