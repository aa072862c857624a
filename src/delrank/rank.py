"""Rank of a Delaunay polytope via the space of compatible Gram forms.

Each integral affine dependency y of the vertex set imposes one linear
constraint sum_v y(v) z(v)^T B z(v) = 0 on symmetric forms B.  The solution
space is the space of quadratic forms for which the vertex set stays
cospherical, and its dimension is the rank: the number of degrees of
freedom of the polytope.  Affine invariance (translation, reflection,
unimodular basis change) is built into the construction.  Both
bspace_constraints and rank_of read the supports of p.frame.dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import exact
# dependency_module is unused here; perfbench/test_perfbench.py checks that rank.dependency_module is it
from .deps import dependency_module  # noqa: F401
from .errors import DelrankError, InternalError, WrongSize
from .model import Polytope, _from_integers, circumcenter, is_centrally_symmetric


def sym_columns(n: int) -> list[tuple[int, int]]:
    """Column order for symmetric form coordinates: (i, j), i <= j, lex."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def bspace_constraints(p: Polytope) -> tuple[tuple[int, ...], ...]:
    """Integer constraint rows on symmetric forms in the input's coordinates, one per paper dependency.

    The dependencies are p.frame.dependencies, one per vertex outside the
    affine basis; each row combines the vertex quadrics its support names,
    at most dim + 2.  Entries follow sym_columns(p.dim); off-diagonal
    columns carry the doubled coefficient, so a row dotted with
    upper-triangle coordinates equals the full symmetric contraction.  The
    quadrics are those of x = k v, k the vertices' least common
    denominator: k^2 times the rational row.  bspace_basis and nrd need
    forms in these coordinates; rank_of ranks the same space in the frame's.
    """
    cols = sym_columns(p.dim)
    quads = [[x[i] * x[i] if i == j else 2 * x[i] * x[j] for i, j in cols] for x in p.numerators]
    rows = []
    for y in p.frame.dependencies:
        acc = [0] * len(cols)
        for v, c in y:
            acc = [a + c * b for a, b in zip(acc, quads[v])]
        rows.append(tuple(acc))
    return tuple(rows)


def rank_of(p: Polytope) -> int:
    """Dimension of the space of symmetric forms compatible with p.

    The constraints of bspace_constraints, read in p.frame's affine
    coordinates.  Write v = b + U l(v), b the last basis vertex and U the
    invertible matrix of the others' differences from b, so that l(b) is 0
    and the basis vertex at position i has l = e_i.  For an affine
    dependency y, sum_v y(v) l(v) = 0 and sum_v y(v) = 0, so
    sum_v y(v) v^T B v = sum_v y(v) l(v)^T (U^T B U) l(v), and B -> U^T B U
    is a bijection of the symmetric forms.  A dependency of p.frame with
    coefficient c_w at its vertex w and c_i at basis position i has
    l(w) = -sum_i c_i e_i / c_w, so c_w times its constraint is
    c_i (c_i + c_w) on the diagonal and 2 c_i c_j off it, over the basis
    positions i, j of its support but the last.  It is kept as a
    {column: entry} row of its nonzeros for exact.sparse_rank.
    """
    n = p.dim
    # sym_columns puts (i, j), i <= j, at i*(2n - i + 1)/2 + j - i = start[i] + j
    start = [i * (2 * n - i - 1) // 2 for i in range(n)]
    position = {b: i for i, b in enumerate(p.frame.basis[:-1])}  # the last basis vertex sits at the origin
    rows = []
    for (_, cw), *on_basis in p.frame.dependencies:
        terms = [(position[b], c) for b, c in on_basis if b in position]
        row = {start[i] + j: 2 * c * e for k, (i, c) in enumerate(terms) for j, e in terms[k + 1:]}
        row.update((start[i] + i, c * (c + cw)) for i, c in terms if c != -cw)
        rows.append(row)
    return n * (n + 1) // 2 - exact.sparse_rank(rows)


def bspace_basis(p: Polytope) -> list[list[list[Fraction]]]:
    """Basis of the compatible-form space, as full symmetric matrices."""
    cols = sym_columns(p.dim)
    out = []
    # with no dependencies the all-zero row leaves every column free: the unit forms, in column order
    for vec in exact.nullspace([list(r) for r in bspace_constraints(p)] or [[0] * len(cols)]):
        b = [[Fraction(0)] * p.dim for _ in range(p.dim)]
        for (i, j), val in zip(cols, vec):
            b[i][j] = val
            b[j][i] = val
        out.append(b)
    return out


def is_extreme(p: Polytope) -> bool:
    """Rank 1: the form is rigid up to scaling."""
    return rank_of(p) == 1


def nrd(polytopes) -> int:
    """Dimension of the joint compatible-form space of several polytopes.

    All polytopes must share one coordinate dimension; their constraint
    rows are stacked.
    """
    ps = list(polytopes)
    if not ps:
        raise WrongSize("need at least one polytope")
    dims = sorted({p.dim for p in ps})
    if len(dims) > 1:
        raise WrongSize(f"dimension mismatch across inputs: {dims}")
    n = dims[0]
    rows = [r for p in ps for r in bspace_constraints(p)]
    return n * (n + 1) // 2 - exact.rank(rows)


@dataclass(frozen=True)
class SymmetricReductionReport:
    applicable: bool
    failed: tuple[str, ...]
    details: tuple[str, ...]
    rank_full: int | None = None
    rank_section: int | None = None
    inequality_holds: bool | None = None


def check_symmetric_reduction(p: Polytope, gram) -> SymmetricReductionReport:
    """Check the hypotheses of the centrally symmetric section bound.

    For a centrally symmetric polytope in lattice coordinates whose section
    by the last coordinate hyperplane is an asymmetric full-dimensional
    polytope, the rank of the whole is at most the rank of the section,
    provided the mirrored section and the unit vector along the dropped
    axis leave room for an escape vertex.  The report records which
    hypotheses fail; when all hold, both ranks are computed and compared.
    The Gram form serves only to check that the vertices are cospherical
    (NotCospherical if not); the center of symmetry comes from the vertex
    pairing.

    Hypothesis codes:
      cs   polytope centrally symmetric with integral vertex coordinates,
           origin and all unit coordinate vectors among the vertices
      h2   section by the hyperplane is full-dimensional in it and asymmetric
      h3   either the doubled-center coordinate along the axis differs from 1,
           or some vertex avoids the section and its mirror
    """
    n = p.dim
    if n < 1:
        raise WrongSize("the section bound needs dimension at least 1")
    axis = n - 1

    circumcenter(p, gram)  # raises NotCospherical on bad input
    xs, k = p.numerators, p.denominator  # every point below is its coordinates times k, as integers
    vset = set(xs)
    zero = (0,) * n
    units = [tuple(k * (j == i) for j in range(n)) for i in range(n)]

    # the reasons hypothesis cs fails come first in details
    details: list[str] = []
    if k != 1:
        details.append("vertex coordinates are not all integral")
    if zero not in vset or any(u not in vset for u in units):
        details.append("origin or some unit coordinate vector is not a vertex")
    symmetric, pairing = is_centrally_symmetric(p)
    if not symmetric:
        details.append("polytope is not centrally symmetric")
    failed = ["cs"] if details else []

    in_section = [x for x in xs if x[axis] == 0]
    section: Polytope | None = None
    try:
        section = _from_integers(n - 1, [x[:axis] + x[axis + 1:] for x in in_section], k)
    except DelrankError as e:
        failed.append("h2")
        details.append(f"section is not a full-dimensional polytope in the hyperplane: {e}")
    if section is not None:
        sec_sym, _ = is_centrally_symmetric(section)
        if sec_sym:
            failed.append("h2")
            details.append("section is centrally symmetric, not asymmetric")

    if symmetric:
        doubled = tuple(a + b for a, b in zip(xs[0], xs[pairing[0]]))
        g = gcd(doubled[axis], k)
        z_axis = f"{doubled[axis] // g}" + (f"/{k // g}" if k != g else "")
        section_set = set(in_section)
        mirror_set = {tuple(d - a for d, a in zip(doubled, x)) for x in section_set}
        unit_axis = units[axis]
        if unit_axis in mirror_set:
            escape = [x for x in xs if x not in section_set and x not in mirror_set]
            if not escape:
                failed.append("h3")
                details.append(
                    "unit vector along the axis mirrors into the section and every vertex lies in the section or its mirror"
                )
        else:
            details.append(f"axis coordinate of the doubled center is {z_axis}; escape clause not triggered")

    if failed:
        return SymmetricReductionReport(
            applicable=False, failed=tuple(failed), details=tuple(details)
        )
    if section is None:
        raise InternalError("section missing although hypothesis h2 holds")
    r_full = rank_of(p)
    r_sec = rank_of(section)
    return SymmetricReductionReport(
        applicable=True,
        failed=(),
        details=tuple(details),
        rank_full=r_full,
        rank_section=r_sec,
        inequality_holds=r_full <= r_sec,
    )
