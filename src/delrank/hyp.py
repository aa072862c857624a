"""Hypermetric evaluation and the distance-space dimension oracle.

The central object is the linear system S(P) on unordered vertex pairs:
for every affine dependency y and every probe vertex u it has the equation
sum_v y(v) d(u, v) = 0.  The dimension of its solution space is a second
route to the rank of the polytope.  Its solutions are fixed by their values
on the pairs of one affine basis, so face_system builds one row per
dependency of p.frame.dependencies over those dim*(dim + 1)/2 basis pairs,
and exact.sparse_rank takes their rank by fraction-free integer elimination
(the proof is in face_system's docstring).  rank_of ranks one row per
dependency, built from the same supports, over the same number of form
entries.  In the frame's coordinates, the last basis vertex at the
origin, the row of y here pulled back through d{i, j} = G_ii + G_jj - 2 G_ij
and d{i, last} = G_ii is exactly minus rank_of's row of y, as the
coefficients of y sum to 0.  So the cross-check guards the two row
builders, while both routes share the frame and the kernel.

The Lemma HY functions take b as a support, as p.frame.dependencies are
stored, with coefficients summing to one; eval_hypermetric evaluates the
pair sum on distances, check_lemma_hy reads it off the circumsphere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import exact
from .errors import SumNotOne, WrongSize
from .model import Polytope, _check_support, _from_integers, _is_vertex_index, _norm, _validate_distance_matrix, _validate_gram_shape, circumcenter


def _check_representation(n: int, b) -> None:
    """WrongSize unless b is a support over n vertices, SumNotOne unless its coefficients sum to one."""
    _check_support(n, b)
    if sum(c for _, c in b) != 1:
        raise SumNotOne("representation coefficients must sum to one")


def eval_hypermetric(dm, b) -> Fraction:
    """sum over unordered pairs of b(u) b(v) d(u, v), for b a support.  Requires sum(b) = 1."""
    d, t = _validate_distance_matrix(dm)
    _check_representation(len(d), b)
    return Fraction(sum(bu * bv * d[u][v] for k, (u, bu) in enumerate(b) for v, bv in b[k + 1:])) / t


def representation_point(p: Polytope, b) -> tuple[tuple[Fraction, ...], bool]:
    """Affine combination sum b(v) v, for b a support, and whether it is a vertex of p."""
    _check_representation(p.nvertices, b)
    num = tuple(sum(c * p.numerators[v][i] for v, c in b) for i in range(p.dim))  # k times the point
    return tuple(Fraction(a) / p.denominator for a in num), num in p.numerators


@dataclass(frozen=True)
class LemmaHyReport:
    value: Fraction
    equality_holds: bool
    point: tuple[Fraction, ...]
    point_is_vertex: bool
    consistent: bool
    caveat: str


def check_lemma_hy(p: Polytope, gram, b) -> LemmaHyReport:
    """Compare hypermetric equality against vertexhood of the combination point, for b a support.

    The two sides agree exactly when the sphere through the vertices is
    empty and carries no other lattice points; cosphericity is checked on
    the way in (distance data comes from the Gram form), emptiness is not.

    The value is read off the circumsphere, with no distance matrix.  Let
    x = sum_u b(u) x_u with sum_u b(u) = 1, and |x_u - c|^2 = r^2 at every
    vertex under the form.  Then sum_u b(u) (x_u - x) = 0, so
    r^2 = sum_u b(u) |x_u - c|^2 = sum_u b(u) |x_u - x|^2 + |x - c|^2, the
    cross term vanishing.  And
    sum_{u<v} b(u) b(v) d(u, v) = 1/2 sum_{u,v} b(u) b(v) |x_u - x_v|^2
    = sum_u b(u) |x_u|^2 - |x|^2 = sum_u b(u) |x_u - x|^2.  Hence the pair
    sum, eval_hypermetric on the distance matrix, is r^2 - |x - c|^2.
    """
    w, s = form = _validate_gram_shape(p, gram)  # a checked _Form passes as it is
    sphere = circumcenter(p, form)  # raises NotCospherical on bad input
    pt, isv = representation_point(p, b)
    (u,), e = exact.over_common_denominator([[a - c for a, c in zip(pt, sphere.center)]])
    val = sphere.radius_sq - Fraction(_norm(w, u), s * e * e)
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
    idx = list(subset)
    if not all(_is_vertex_index(p.nvertices, i) for i in idx):
        raise WrongSize("subset index out of range")
    sub = _from_integers(p.dim, [p.numerators[i] for i in sorted(set(idx))], p.denominator)
    return face_dimension(sub)
