"""Hypermetric evaluation and the distance-space dimension oracle.

The central object is the linear system S(P) on unordered vertex pairs:
for every affine dependency y and every probe vertex u it has the equation
sum_v y(v) d(u, v) = 0.  The dimension of its solution space is a second
route to the rank of the polytope.  Its solutions are fixed by their values
on the pairs of one affine basis, so face_system builds one row per
dependency of p.frame.dependencies over those dim*(dim + 1)/2 basis pairs,
and exact.sparse_rank takes their rank by fraction-free integer elimination
(the proof is in face_system's docstring).  rank_of ranks one row per
dependency over the same number of form entries; in the frame's
coordinates the two row formulas are related by d_ij = G_ii + G_jj - 2 G_ij,
so the cross-check guards the two row builders, while both routes share
the frame and the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import exact
from .errors import SumNotOne, WrongSize
from .model import Polytope, _distance_matrix, _from_integers, _validate_distance_matrix, circumcenter


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


def face_system(p: Polytope) -> tuple[tuple[int, dict[int, int]], ...]:
    """Rows (y, {basis pair index: coefficient}) that face_dimension ranks, one per dependency.

    y indexes the dependencies of the polytope's frame (p.frame), the
    paper's dependencies over the last affine basis: y_w holds the vertex
    w outside the basis and the basis vertices B_w where it is nonzero.
    Row y_w is sum_{b < b'} y_w(b) y_w(b') d{b, b'} over the pairs in B_w.
    The columns are the dim*(dim + 1)/2 pairs of basis positions, in lex
    order.

    Proof that it is the pair system.  S(P) has the row
    sum_v y(v) d{u, v} for every affine dependency y and probe vertex u,
    on the unknowns d over the unordered vertex pairs, with d(u, u) = 0.
    A solution makes v -> d(u, v) vanish on every affine dependency, so it
    is the restriction of an affine function, for every u.  With l_b the
    barycentric coordinates over the basis, d is then the restriction of
    the symmetric biaffine F(x, z) = sum_{b, b'} l_b(x) l_b'(z) d(b, b'),
    and any values on the basis pairs give such an F.  So restricting d to
    the basis pairs is a bijection from the solutions onto the values for
    which F(w, w) = 0 at every vertex w outside the basis.  Since
    l_b(w) = -y_w(b) / y_w(w), F(w, w) is 2 / y_w(w)^2 times row y_w.
    Hence the solution space has dimension dim*(dim + 1)/2 minus the rank
    of these k rows.  The argument needs no unit pivots, no Z-basis and no
    vertex order.  In the rows themselves, with row(y, u) for
    sum_v y(v) d{u, v}: y_w(w) row(y_w, w) - sum_b y_w(b) row(y_w, b) is
    -2 times row y_w.
    """
    basis = p.frame.basis
    m = len(basis)
    position = {b: i for i, b in enumerate(basis)}
    # basis pair {i, j}, i < j, is at i*(2m - i - 1)/2 + j - i - 1 = start[i] + j
    start = [i * (2 * m - i - 3) // 2 - 1 for i in range(m)]
    rows = []
    for yi, (_, *on_basis) in enumerate(p.frame.dependencies):
        terms = [(position[b], c) for b, c in on_basis]
        rows.append((yi, {start[i] + j: c * e for k, (i, c) in enumerate(terms) for j, e in terms[k + 1:]}))
    return tuple(rows)


def face_dimension(p: Polytope) -> int:
    """Dimension of the solution space of the pair system S(P).

    Equals dim*(dim + 1)/2 minus the exact.sparse_rank of the face_system
    rows (the proof is in face_system's docstring).  For a simplex there
    are no rows and the value is dim*(dim + 1)/2.
    """
    n = p.dim
    return n * (n + 1) // 2 - exact.sparse_rank([row for _, row in face_system(p)])


def restricted_face_dimension(p: Polytope, subset) -> int:
    """face_dimension of the subpolytope on the given vertex subset.

    The subset must still affinely span the full dimension.
    """
    idx = sorted(set(subset))
    if any(not 0 <= i < p.nvertices for i in idx):
        raise WrongSize("subset index out of range")
    sub = _from_integers(p.dim, [p.numerators[i] for i in idx], p.denominator)
    return face_dimension(sub)
