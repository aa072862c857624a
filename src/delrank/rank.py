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
from .deps import dependency_module
from .errors import DelrankError, NotUnimodular, WrongSize
from .model import (
    Polytope,
    affine_basis_indices,
    circumcenter,
    from_coords,
    is_centrally_symmetric,
)


def sym_columns(n: int) -> list[tuple[int, int]]:
    """Column order for symmetric form coordinates: (i, j), i <= j, lex."""
    return [(i, j) for i in range(n) for j in range(i, n)]


@dataclass(frozen=True)
class ConstraintSystem:
    dim: int
    columns: tuple[tuple[int, int], ...]
    rows: tuple[tuple[Fraction, ...], ...]

    def rank(self) -> int:
        return exact.sparse_rank(_integer_rows(self.rows))


def _integer_rows(rows) -> list[dict[int, int]]:
    """Nonzero rational rows as primitive integer {column: entry} dicts."""
    return [
        {c: v for c, v in enumerate(exact.primitivize(r)) if v}
        for r in rows
        if any(r)
    ]


@dataclass(frozen=True)
class FullSystem:
    """Per-vertex sphere equations in form coefficients plus center terms.

    Columns: symmetric form coordinates b_ij followed by n auxiliary
    center coordinates (the pairings of the center with each basis vector).
    One row per vertex other than the base vertex.
    """

    dim: int
    columns: tuple[object, ...]
    rows: tuple[tuple[Fraction, ...], ...]


def bspace_constraints(p: Polytope, dependencies=None) -> ConstraintSystem:
    """Constraint rows on symmetric forms, one per dependency vector.

    Off-diagonal columns carry the doubled coefficient, so a row dotted
    with upper-triangle coordinates equals the full symmetric contraction.
    By default the canonical dependency basis is used; any iterable of
    coefficient vectors can be supplied instead.
    """
    if dependencies is None:
        dependencies = dependency_module(p).vectors
    cols = sym_columns(p.dim)
    rows = []
    for y in dependencies:
        if len(y) != p.nvertices:
            raise WrongSize("dependency length does not match vertex count")
        acc = {c: Fraction(0) for c in cols}
        for v, c in zip(p.vertices, y):
            if c:
                for i in range(p.dim):
                    vi = v[i]
                    if vi:
                        acc[(i, i)] += c * vi * vi
                        for j in range(i + 1, p.dim):
                            if v[j]:
                                acc[(i, j)] += 2 * c * vi * v[j]
        rows.append(tuple(acc[c] for c in cols))
    return ConstraintSystem(dim=p.dim, columns=tuple(cols), rows=tuple(rows))


def rank_of(p: Polytope) -> int:
    """Dimension of the space of symmetric forms compatible with p."""
    n = p.dim
    return n * (n + 1) // 2 - bspace_constraints(p).rank()


def bspace_basis(p: Polytope) -> list[list[list[Fraction]]]:
    """Basis of the compatible-form space, as full symmetric matrices."""
    system = bspace_constraints(p)
    if system.rows:
        vecs = exact.nullspace([list(r) for r in system.rows])
    else:
        m = len(system.columns)
        vecs = [[Fraction(int(i == k)) for i in range(m)] for k in range(m)]
    out = []
    for vec in vecs:
        b = [[Fraction(0)] * p.dim for _ in range(p.dim)]
        for (i, j), val in zip(system.columns, vec):
            b[i][j] = val
            b[j][i] = val
        out.append(b)
    return out


def full_system(p: Polytope) -> FullSystem:
    """Sphere equations for all vertices against the base vertex.

    Row for vertex v: sum_{i<=j} z_i z_j b_ij (doubled off diagonal)
    minus 2 sum_i z_i gamma_i = 0, where z is v relative to the base and
    gamma_i stands for the pairing of the center with basis vector i.
    """
    n = p.dim
    cols: list[object] = list(sym_columns(n)) + [("c", i) for i in range(n)]
    base = p.vertices[p.base_index]
    rows = []
    for k, v in enumerate(p.vertices):
        if k == p.base_index:
            continue
        z = [a - b for a, b in zip(v, base)]
        row = []
        for (i, j) in sym_columns(n):
            row.append(z[i] * z[j] if i == j else 2 * z[i] * z[j])
        for i in range(n):
            row.append(-2 * z[i])
        rows.append(tuple(row))
    return FullSystem(dim=n, columns=tuple(cols), rows=tuple(rows))


def full_system_form_dimension(p: Polytope) -> int:
    """Dimension of the form part of the full-system solution space.

    Projects the solution space onto the b coordinates; the auxiliary
    center coordinates are eliminated.  Always equals rank_of(p).
    """
    fs = full_system(p)
    m = p.dim * (p.dim + 1) // 2
    vecs = exact.nullspace([list(r) for r in fs.rows])
    proj = [v[:m] for v in vecs]
    return exact.rank(proj) if proj else 0


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
    if abs(exact.det(um)) != 1:
        raise NotUnimodular("basis change must have determinant +-1")
    verts = [tuple(sum(um[i][k] * v[k] for k in range(n)) for i in range(n)) for v in p.vertices]
    return from_coords(n, verts, base_index=p.base_index)


def translate(p: Polytope, a, reflect: bool = False) -> Polytope:
    """Map every vertex v to a + v, or to a - v when reflect is set."""
    if len(a) != p.dim:
        raise WrongSize("translation vector length does not match dimension")
    av = [Fraction(x) for x in a]
    sign = -1 if reflect else 1
    verts = [tuple(t + sign * x for t, x in zip(av, v)) for v in p.vertices]
    return from_coords(p.dim, verts, base_index=p.base_index)


def nrd(polytopes) -> int:
    """Dimension of the joint compatible-form space of several polytopes.

    All polytopes must share one coordinate dimension; their constraint
    rows are stacked.
    """
    ps = list(polytopes)
    if not ps:
        raise ValueError("need at least one polytope")
    n = ps[0].dim
    if any(p.dim != n for p in ps):
        raise WrongSize("all polytopes must share the same dimension")
    rows = [r for p in ps for r in bspace_constraints(p).rows]
    return n * (n + 1) // 2 - exact.sparse_rank(_integer_rows(rows))


@dataclass(frozen=True)
class RankReport:
    """Aggregated result of the rank computations on one polytope."""

    rank: int
    dependency_count: int
    extreme: bool
    face_dimension: int | None = None
    centrally_symmetric: bool | None = None
    basicity: object | None = None
    notes: tuple[str, ...] = ()


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
    all hold, both ranks are computed and compared.

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
    failed: list[str] = []
    details: list[str] = []

    cd = circumcenter(p, gram)
    vset = set(p.vertices)
    zero = tuple(Fraction(0) for _ in range(n))
    units = [tuple(Fraction(int(k == i)) for k in range(n)) for i in range(n)]

    if any(x.denominator != 1 for v in p.vertices for x in v):
        failed.append("cs")
        details.append("vertex coordinates are not all integral")
    if zero not in vset or any(u not in vset for u in units):
        if "cs" not in failed:
            failed.append("cs")
        details.append("origin or some unit coordinate vector is not a vertex")
    symmetric, _ = is_centrally_symmetric(p, gram)
    if not symmetric:
        if "cs" not in failed:
            failed.append("cs")
        details.append("polytope is not centrally symmetric")

    section_idx = [i for i, v in enumerate(p.vertices) if v[axis] == 0]
    section_pts = [tuple(x for k, x in enumerate(v) if k != axis) for i, v in enumerate(p.vertices) if v[axis] == 0]
    sub_gram = [[gram[i][j] for j in range(n) if j != axis] for i in range(n) if i != axis]
    section: Polytope | None = None
    try:
        section = from_coords(n - 1, section_pts)
        affine_basis_indices(section)  # flat sections slip past from_coords
    except DelrankError as e:
        section = None
        failed.append("h2")
        details.append(f"section is not a full-dimensional polytope in the hyperplane: {e}")
    if section is not None:
        sec_sym, _ = is_centrally_symmetric(section, sub_gram)
        if sec_sym:
            failed.append("h2")
            details.append("section is centrally symmetric, not asymmetric")

    doubled = tuple(2 * c for c in cd.center)
    z_axis = doubled[axis]
    if symmetric:
        section_set = {p.vertices[i] for i in section_idx}
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
    assert section is not None
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
