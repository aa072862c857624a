"""Rank of a Delaunay polytope via the space of compatible Gram forms.

Each integral affine dependency y of the vertex set imposes one linear
constraint sum_v y(v) z(v)^T B z(v) = 0 on symmetric forms B.  The solution
space is the space of quadratic forms for which the vertex set stays
cospherical, and its dimension is the rank: the number of degrees of
freedom of the polytope.  Affine invariance (translation, reflection,
unimodular basis change) is built into the construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import exact
# dependency_module is unused here; perfbench/test_perfbench.py checks that rank.dependency_module is it
from .deps import dependency_module  # noqa: F401
from .errors import DelrankError, InternalError, NotUnimodular, WrongSize
from .model import Polytope, circumcenter, from_coords, is_centrally_symmetric


def sym_columns(n: int) -> list[tuple[int, int]]:
    """Column order for symmetric form coordinates: (i, j), i <= j, lex."""
    return [(i, j) for i in range(n) for j in range(i, n)]


def bspace_constraints(p: Polytope) -> tuple[tuple[int, ...], ...]:
    """Integer constraint rows on symmetric forms, one per paper dependency.

    The dependencies are the polytope's frame's (p.frame.dependencies), one
    per vertex outside the affine basis.  Each row combines the vertex
    quadrics its dependency's support names, at most dim + 2 of them.
    Entries follow sym_columns(p.dim); off-diagonal columns carry the
    doubled coefficient, so a row dotted with upper-triangle coordinates
    equals the full symmetric contraction.  The quadrics are those of
    x = k v, with k the least common denominator of the vertices, so each
    row is k^2 times the rational one: the same constraint.
    """
    cols = sym_columns(p.dim)
    xs, _ = p._int_coords
    quads = [[x[i] * x[i] if i == j else 2 * x[i] * x[j] for i, j in cols] for x in xs]
    rows = []
    for y in p.frame.dependencies:
        acc = [0] * len(cols)
        for v, c in y:
            acc = [a + c * b for a, b in zip(acc, quads[v])]
        rows.append(tuple(acc))
    return tuple(rows)


def rank_of(p: Polytope) -> int:
    """Dimension of the space of symmetric forms compatible with p."""
    n = p.dim
    return n * (n + 1) // 2 - exact.rank(bspace_constraints(p))


def bspace_basis(p: Polytope) -> list[list[list[Fraction]]]:
    """Basis of the compatible-form space, as full symmetric matrices."""
    rows = bspace_constraints(p)
    cols = sym_columns(p.dim)
    if rows:
        vecs = exact.nullspace([list(r) for r in rows])
    else:
        m = len(cols)
        vecs = [[Fraction(int(i == k)) for i in range(m)] for k in range(m)]
    out = []
    for vec in vecs:
        b = [[Fraction(0)] * p.dim for _ in range(p.dim)]
        for (i, j), val in zip(cols, vec):
            b[i][j] = val
            b[j][i] = val
        out.append(b)
    return out


def is_extreme(p: Polytope) -> bool:
    """Rank 1: the form is rigid up to scaling."""
    return rank_of(p) == 1


def transform_basis(p: Polytope, u) -> Polytope:
    """Apply an integer unimodular change of coordinates z -> U z."""
    um = exact.qmat(u)
    n = p.dim
    if len(um) != n or any(len(row) != n for row in um):
        raise WrongSize("matrix size does not match dimension")
    if any(x.denominator != 1 for row in um for x in row):
        raise NotUnimodular("basis change must be integral")
    if exact.covolume(um) != 1:
        raise NotUnimodular("basis change must have determinant +-1")
    verts = [tuple(sum(um[i][k] * v[k] for k in range(n)) for i in range(n)) for v in p.vertices]
    return from_coords(n, verts)


def translate(p: Polytope, a, reflect: bool = False) -> Polytope:
    """Map every vertex v to a + v, or to a - v when reflect is set."""
    if len(a) != p.dim:
        raise WrongSize("translation vector length does not match dimension")
    av = [Fraction(x) for x in a]
    sign = -1 if reflect else 1
    verts = [tuple(t + sign * x for t, x in zip(av, v)) for v in p.vertices]
    return from_coords(p.dim, verts)


def nrd(polytopes) -> int:
    """Dimension of the joint compatible-form space of several polytopes.

    All polytopes must share one coordinate dimension; their constraint
    rows are stacked.
    """
    ps = list(polytopes)
    if not ps:
        raise WrongSize("need at least one polytope")
    n = ps[0].dim
    if any(p.dim != n for p in ps):
        raise WrongSize("all polytopes must share the same dimension")
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


def check_symmetric_reduction(p: Polytope, gram, hyperplane_axis: int | None = None) -> SymmetricReductionReport:
    """Check the hypotheses of the centrally symmetric section bound.

    For a centrally symmetric polytope in lattice coordinates whose section
    by a coordinate hyperplane is an asymmetric full-dimensional polytope,
    the rank of the whole is at most the rank of the section, provided the
    mirrored section and the unit vector along the dropped axis leave room
    for an escape vertex.  The report records which hypotheses fail; when
    all hold, both ranks are computed and compared.  The Gram form serves
    only to check that the vertices are cospherical (NotCospherical if not);
    the center of symmetry comes from the vertex pairing.

    Hypothesis codes:
      cs   polytope centrally symmetric with integral vertex coordinates,
           origin and all unit coordinate vectors among the vertices
      h2   section by the hyperplane is full-dimensional in it and asymmetric
      h3   either the doubled-center coordinate along the axis differs from 1,
           or some vertex avoids the section and its mirror
    """
    n = p.dim
    axis = n - 1 if hyperplane_axis is None else hyperplane_axis
    if not 0 <= axis < n:
        raise WrongSize("hyperplane axis out of range")

    circumcenter(p, gram)  # raises NotCospherical on bad input
    vset = set(p.vertices)
    zero = tuple(Fraction(0) for _ in range(n))
    units = [tuple(Fraction(int(k == i)) for k in range(n)) for i in range(n)]

    # the reasons hypothesis cs fails come first in details
    details: list[str] = []
    if any(x.denominator != 1 for v in p.vertices for x in v):
        details.append("vertex coordinates are not all integral")
    if zero not in vset or any(u not in vset for u in units):
        details.append("origin or some unit coordinate vector is not a vertex")
    symmetric, pairing = is_centrally_symmetric(p)
    if not symmetric:
        details.append("polytope is not centrally symmetric")
    failed = ["cs"] if details else []

    in_section = [v for v in p.vertices if v[axis] == 0]
    section: Polytope | None = None
    try:
        section = from_coords(n - 1, [v[:axis] + v[axis + 1:] for v in in_section])
    except DelrankError as e:
        failed.append("h2")
        details.append(f"section is not a full-dimensional polytope in the hyperplane: {e}")
    if section is not None:
        sec_sym, _ = is_centrally_symmetric(section)
        if sec_sym:
            failed.append("h2")
            details.append("section is centrally symmetric, not asymmetric")

    if symmetric:
        doubled = tuple(x + y for x, y in zip(p.vertices[0], p.vertices[pairing[0]]))
        z_axis = doubled[axis]
        section_set = set(in_section)
        mirror_set = {tuple(d - x for d, x in zip(doubled, v)) for v in section_set}
        unit_axis = units[axis]
        if unit_axis in mirror_set:
            escape = [v for v in p.vertices if v not in section_set and v not in mirror_set]
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
