"""Polytope model: rational vertex data, Gram forms, distance matrices,
circumscribed spheres and the bounded-window emptiness check.

A polytope here is just its vertex set with exact rational coordinates in
some reference basis.  A Gram form turns coordinates into geometry; squared
distances are d(u, v) = (u - v)^T G (u - v).
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from . import exact
from .errors import (
    DelrankError,
    DimensionDeficient,
    DuplicateVertex,
    InputError,
    InternalError,
    NotCospherical,
    NotPositiveDefinite,
    TooFewVertices,
    WrongSize,
)


@dataclass(frozen=True)
class Polytope:
    dim: int
    vertices: tuple[tuple[Fraction, ...], ...]

    @property
    def nvertices(self) -> int:
        return len(self.vertices)

    @cached_property
    def frame(self) -> Frame:
        """The last affine basis and the paper's dependencies over it; see Frame."""
        return _frame(self)

    @cached_property
    def _int_coords(self) -> tuple[list[list[int]], int]:
        """The vertices as integer rows x = k v, and k: their least common denominator."""
        return exact.over_common_denominator(self.vertices)


@dataclass(frozen=True)
class Frame:
    """One reduced echelon form of the lifted vertices (v, 1), read from the last vertex down.

    basis holds the sorted pivot vertices: each vertex not affinely spanned
    by the ones after it.  The non-pivot columns are the affine coordinates
    of every other vertex w over the basis vertices above w; coordinates
    holds them as (w, numerators over basis) in ascending w, all over the
    one denominator of the reduced form.  On a polytope that spans its
    dimension there are dim + 1 basis vertices.
    """

    basis: tuple[int, ...]
    coordinates: tuple[tuple[int, tuple[int, ...]], ...]
    denominator: int

    @cached_property
    def dependencies(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The dependency each vertex w outside the basis gives, in ascending w.

        Its coefficients are the denominator at w and minus w's coordinate
        numerators at the basis vertices, divided by their gcd: primitive,
        and positive at w.  Each is stored as its support: the (vertex,
        coefficient) pairs where it is nonzero, in ascending vertex order.
        That is w first, then basis vertices above w, at most dim + 2 pairs.
        """
        out = []
        for w, coords in self.coordinates:
            g = gcd(self.denominator, *coords)
            out.append(((w, self.denominator // g), *((v, -x // g) for v, x in zip(self.basis, coords) if x)))
        return tuple(out)


@dataclass(frozen=True)
class Circumdata:
    center: tuple[Fraction, ...]
    radius_sq: Fraction


@dataclass(frozen=True)
class EmptySphereReport:
    window: int
    box: tuple[tuple[int, int], ...]
    points_checked: int
    strict_violations: tuple[tuple[int, ...], ...]
    on_sphere_nonvertices: tuple[tuple[int, ...], ...]
    sphere: Circumdata
    caveats: tuple[str, ...] = ()
    note: str = "heuristic bounded-window check, not a proof of emptiness"

    def ok(self) -> bool:
        return not self.strict_violations


def from_coords(dim: int, vertices) -> Polytope:
    """Build a validated polytope from coordinate vectors.

    Requires at least dim + 1 distinct vertices spanning an affine space of
    exactly the stated dimension.  The dimension check counts the pivots of
    the polytope's frame, which is then cached on it for every later reader.
    """
    vts = tuple(tuple(Fraction(x) for x in v) for v in vertices)
    if any(len(v) != dim for v in vts):
        raise DimensionDeficient(f"coordinate vectors must have length {dim}")
    if len(vts) < dim + 1:
        raise TooFewVertices(f"need at least {dim + 1} vertices, got {len(vts)}")
    if len(set(vts)) != len(vts):
        seen: set[tuple[Fraction, ...]] = set()
        for i, v in enumerate(vts):
            if v in seen:
                raise DuplicateVertex(f"vertex {i} repeats an earlier vertex")
            seen.add(v)
    p = Polytope(dim=dim, vertices=vts)
    if not vts or len(p.frame.basis) != dim + 1:
        raise DimensionDeficient("vertices do not affinely span the stated dimension")
    return p


def _validate_gram_shape(p: Polytope, gram) -> list[list[Fraction]]:
    g = exact.qmat(gram)
    if len(g) != p.dim or any(len(row) != p.dim for row in g):
        raise WrongSize(f"Gram form must be {p.dim}x{p.dim}")
    for i in range(p.dim):
        for j in range(i):
            if g[i][j] != g[j][i]:
                raise InputError("Gram form must be symmetric")
    if not exact.is_positive_definite(g):
        raise NotPositiveDefinite("Gram form must be positive definite")
    return g


def inner(g, u, v) -> Fraction:
    total = Fraction(0)
    for row, ui in zip(g, u):
        if ui:
            total += ui * sum(gij * vj for gij, vj in zip(row, v) if vj)
    return total


def norm_sq(g, u) -> Fraction:
    return inner(g, u, u)


def distance_matrix(p: Polytope, gram) -> list[list[Fraction]]:
    """Squared-distance matrix of the vertex set under the Gram form."""
    num, scale = _distance_matrix(p, *exact.over_common_denominator(_validate_gram_shape(p, gram)))
    return [[Fraction(x, scale) for x in row] for row in num]


def _distance_matrix(p: Polytope, w: list[list[int]], s: int) -> tuple[list[list[int]], int]:
    """Squared distances under the validated form W / s, W integral, as numerators over one denominator.

    With X = k V integral, numerator (i, j) is n_i + n_j - 2 <x_i, W x_j>,
    where n_i = <x_i, W x_i>, and the denominator is s k^2.
    """
    xs, k = p._int_coords
    ys = [[sum(a * b for a, b in zip(row, x)) for row in w] for x in xs]
    norms = [sum(a * b for a, b in zip(x, y)) for x, y in zip(xs, ys)]
    n = p.nvertices
    num = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            num[i][j] = num[j][i] = norms[i] + norms[j] - 2 * sum(a * b for a, b in zip(xs[i], ys[j]))
    return num, s * k * k


def validate_distance_matrix(dm) -> list[list[Fraction]]:
    """The matrix as Fractions, once it is square and symmetric with zero diagonal and positive entries off it."""
    d = exact.qmat(dm)
    n = len(d)
    if d and len(d[0]) != n:
        raise WrongSize("distance matrix must be square")
    for i in range(n):
        if d[i][i] != 0:
            raise InputError("distance matrix diagonal must be zero")
        for j in range(i + 1, n):
            if d[i][j] != d[j][i]:
                raise InputError("distance matrix must be symmetric")
            if d[i][j] <= 0:
                raise InputError("off-diagonal squared distances must be positive")
    return d


def differences(p: Polytope, base: int, others) -> list[list[Fraction]]:
    """Vectors from vertex base to each vertex in others."""
    return [[x - b for x, b in zip(p.vertices[i], p.vertices[base])] for i in others]


def _lifted(p: Polytope, cols) -> list[list[int]]:
    """The vertices in cols lifted to k (v, 1), one integer column each, k their common denominator."""
    xs, k = p._int_coords
    return [*([xs[i][j] for i in cols] for j in range(p.dim)), [k] * len(cols)]


def _frame(p: Polytope) -> Frame:
    last = p.nvertices - 1
    red, pivots, d = exact.rref(_lifted(p, range(last, -1, -1)))
    # pivot c is vertex last - c, so the reversed pivot rows follow the sorted basis
    rows = red[::-1]
    pivset = set(pivots)
    coordinates = tuple(
        (last - c, tuple(row[c] for row in rows)) for c in range(last, -1, -1) if c not in pivset
    )
    return Frame(basis=tuple(last - c for c in reversed(pivots)), coordinates=coordinates, denominator=d)


def circumcenter(p: Polytope, gram) -> Circumdata:
    """Center and squared radius of the sphere through all vertices.

    Solves the n equations fixing the center against an affine basis, then
    checks every remaining vertex exactly.
    """
    g = _validate_gram_shape(p, gram)
    basis = p.frame.basis
    v0 = p.vertices[basis[0]]
    us = differences(p, basis[0], basis[1:])
    # rows: 2 u_i^T G x = u_i^T G u_i, unknown x = center - v0
    a = [[2 * sum(u[k] * g[k][j] for k in range(p.dim)) for j in range(p.dim)] for u in us]
    b = [norm_sq(g, u) for u in us]
    x = exact.solve(a, b)
    if x is None:
        raise NotCospherical("circumcenter system is inconsistent")
    center = tuple(c + off for c, off in zip(v0, x))
    r2 = norm_sq(g, x)
    for i, v in enumerate(p.vertices):
        diff = [a_ - c_ for a_, c_ in zip(v, center)]
        if norm_sq(g, diff) != r2:
            raise NotCospherical(f"vertex {i} is not on the sphere through the affine basis")
    return Circumdata(center=center, radius_sq=r2)


def is_centrally_symmetric(p: Polytope) -> tuple[bool, dict[int, int] | None]:
    """Whether v -> 2c - v permutes the vertex set; returns the pairing if so.

    A symmetry of the vertex set fixes their centroid, so c is the centroid.
    On a cospherical vertex set it is also the circumcenter, because the
    symmetry maps the unique sphere through the vertices onto itself.
    """
    doubled = [2 * sum(xs) / p.nvertices for xs in zip(*p.vertices)]
    index = {v: i for i, v in enumerate(p.vertices)}
    pairing: dict[int, int] = {}
    for i, v in enumerate(p.vertices):
        mirror = tuple(d - x for d, x in zip(doubled, v))
        j = index.get(mirror)
        if j is None:
            return False, None
        pairing[i] = j
    return True, pairing


def _difference_lattice_caveats(p: Polytope) -> tuple[str, ...]:
    # The box scan walks integer coordinate vectors; flag inputs whose
    # vertex-difference lattice is not exactly the integer coordinate lattice.
    diffs = differences(p, 0, range(1, p.nvertices))
    if any(x.denominator != 1 for row in diffs for x in row):
        return ("vertex differences are not all integral; the integer box scan covers only a sublattice of the vertex lattice",)
    if exact.covolume(diffs) != 1:
        return ("vertex differences generate a proper sublattice of the integer coordinate lattice; the box scan includes points outside it",)
    return ()


def verify_empty_sphere(p: Polytope, gram, window: int = 1) -> EmptySphereReport:
    """Scan integer points in a box around the polytope for sphere violations.

    The box spans the vertex coordinates expanded by `window` in every axis
    direction.  A strict violation is an integer point strictly inside the
    circumscribed sphere.  Integer points on the sphere that are not
    vertices are reported separately.  This bounded scan is a heuristic
    check only; it can never prove global emptiness.
    """
    if window < 0:
        raise InputError("window must be >= 0")
    cd = circumcenter(p, gram)  # validates the form
    n = p.dim
    los = []
    his = []
    for k in range(n):
        vals = [v[k] for v in p.vertices]
        los.append(math.ceil(min(vals)) - window)
        his.append(math.floor(max(vals)) + window)
    count = math.prod(hi - lo + 1 for lo, hi in zip(los, his))
    if count > sys.maxsize:
        raise InputError(f"the scan box holds more than {sys.maxsize} integer points")
    # one scale for the form, the center and the radius (a row of copies of
    # it), so the scan below runs in integers
    (*w, cc, _), scale = exact.over_common_denominator([*gram, cd.center, [cd.radius_sq] * n])
    threshold = int(scale**3 * cd.radius_sq)
    int_vertices = {
        tuple(int(x) for x in v) for v in p.vertices if all(x.denominator == 1 for x in v)
    }
    strict: list[tuple[int, ...]] = []
    on_sphere: list[tuple[int, ...]] = []
    for z in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(los, his))):
        u = [scale * z[k] - cc[k] for k in range(n)]
        s = 0
        for i in range(n):
            ui = u[i]
            if ui:
                row = w[i]
                s += row[i] * ui * ui
                for j in range(i + 1, n):
                    s += 2 * row[j] * ui * u[j]
        if s < threshold:
            strict.append(z)
        elif s == threshold and z not in int_vertices:
            on_sphere.append(z)
    return EmptySphereReport(
        window=window,
        box=tuple(zip(los, his)),
        points_checked=count,
        strict_violations=tuple(strict),
        on_sphere_nonvertices=tuple(on_sphere),
        sphere=cd,
        caveats=_difference_lattice_caveats(p),
    )


def from_distances(dm) -> tuple[Polytope, list[list[Fraction]]]:
    """Reconstruct (polytope, Gram form) from an exact squared-distance matrix.

    Vertex 0 becomes the origin.  One reduced row echelon form R of the
    vertex Gram matrix A, A[i][j] = <v_i - v_0, v_j - v_0> for i, j >= 1,
    gives everything: its pivot columns C become unit coordinate vectors,
    A[C, C] is the Gram form, and column k of R holds the coordinates of
    vertex k.  Bad input fails as such; once the form passes the definite
    check, the realization is exact.  Proof: the columns C span those of
    A, so A = A[:, C] R, and A is symmetric, so A = R^T A[C, C] R.  So
    A[C, C] is nonsingular and the coordinates reproduce A, and with it
    every distance d(i, j) = A[i][i] + A[j][j] - 2 A[i][j] (A is 0 at v_0).
    The distances are positive, so the vertices are distinct, and the
    origin and the unit vectors span the dimension.  There is a pivot,
    since A[1][1] = d(1, 0) > 0.  So a rejection by from_coords or a
    failed re-check of every distance is an InternalError.
    """
    d = validate_distance_matrix(dm)
    m = len(d)
    if m < 2:
        raise TooFewVertices("need at least 2 vertices")
    # e = t d in integers; a[i][j] = 2 t <v_i - v_0, v_j - v_0>, whose RREF
    # is that of the vertex Gram matrix
    e, t = exact.over_common_denominator(d)
    a = [[e[i][0] + e[j][0] - e[i][j] for j in range(1, m)] for i in range(1, m)]
    red, chosen, den = exact.rref(a)
    n = len(chosen)
    # the chosen submatrix of a is 2 t times the Gram form
    sub = [[a[r][c] for c in chosen] for r in chosen]
    if not exact.is_positive_definite(sub):
        raise NotPositiveDefinite("reconstructed Gram form is not positive definite")
    coords = [[Fraction(0)] * n] + [[Fraction(row[k], den) for row in red] for k in range(m - 1)]
    try:
        p = from_coords(n, coords)
    except DelrankError as err:
        raise InternalError(f"reconstructed coordinates are rejected: {err}") from err
    # distances num / scale under the form sub / 2t, against the input e / t
    num, scale = _distance_matrix(p, sub, 2 * t)
    if any(x * t != y * scale for xrow, yrow in zip(num, e) for x, y in zip(xrow, yrow)):
        raise InternalError("reconstructed coordinates do not reproduce the distance matrix")
    return p, [[Fraction(x, 2 * t) for x in row] for row in sub]
