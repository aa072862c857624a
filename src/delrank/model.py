"""Polytope model: vertex data, Gram forms, distance matrices,
circumscribed spheres and the bounded-window emptiness check.

A polytope here is just its vertex set in some reference basis, stored as
integer rows x = k v over k, the least common denominator of the rational
coordinates v; Fractions are made only for results.  A Gram form turns
coordinates into geometry; squared distances are d(u, v) = (u - v)^T G (u - v).
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

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
    """Vertices x / k, x integer rows and k their least denominator: equality and hashing compare the vertices."""

    dim: int
    numerators: tuple[tuple[int, ...], ...]
    denominator: int

    @property
    def nvertices(self) -> int:
        return len(self.numerators)

    @cached_property
    def vertices(self) -> tuple[tuple[Fraction, ...], ...]:
        """The rational coordinates, as the public API reads them."""
        return tuple(tuple(Fraction(x, self.denominator) for x in row) for row in self.numerators)

    @cached_property
    def frame(self) -> Frame:
        """The last affine basis and the paper's dependencies over it; see Frame."""
        return _frame(self)


@dataclass(frozen=True)
class Frame:
    """One reduced echelon form of the lifted vertices (v, 1), read from the last vertex down.

    basis holds the sorted pivot vertices: each vertex not affinely spanned
    by the ones after it; on a polytope that spans its dimension there are
    dim + 1.  The non-pivot columns are the affine coordinates of every
    other vertex w over the basis vertices above w, as numerators over the
    one denominator of the reduced form.  dependencies holds the dependency
    each such w gives, in ascending w: the denominator at w and minus the
    numerators at the basis vertices, divided by their gcd, so primitive
    and positive at w.  Each is stored as its support: the (vertex,
    coefficient) pairs where it is nonzero, in ascending vertex order.
    That is w first, then basis vertices above w, at most dim + 2 pairs.
    """

    basis: tuple[int, ...]
    dependencies: tuple[tuple[tuple[int, int], ...], ...]


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
    """Build a validated polytope from rational coordinate vectors: at least dim + 1 distinct vertices spanning an
    affine space of exactly the stated dimension, brought to integers over one denominator and checked there."""
    rows = [list(v) for v in vertices]
    if any(len(v) != dim for v in rows):  # the converter would call ragged rows WrongSize
        raise DimensionDeficient(f"coordinate vectors must have length {dim}")
    return _from_integers(dim, *exact.over_common_denominator(rows))


def _from_integers(dim: int, rows, k: int) -> Polytope:
    """The validated polytope with vertices x / k, x the integer rows and k > 0 a common denominator.

    The rows and k are divided by gcd(k, every entry), so that the polytope stores the least denominator and equal
    vertices give equal fields.  from_coords and from_distances pass the least one already (the lcm of the
    denominators; the d of exact.rref, the lcm of the pivots of its primitive rows), and the division is a no-op.
    Checks row length, vertex count, duplicates and the affine dimension, the pivot count of the frame it caches.
    """
    xs = tuple(map(tuple, rows))
    g = gcd(k, *(a for x in xs for a in x))
    if g > 1:  # a vertex subset or a shift can leave a common factor
        xs, k = tuple(tuple(a // g for a in x) for x in xs), k // g
    if any(len(x) != dim for x in xs):
        raise DimensionDeficient(f"coordinate vectors must have length {dim}")
    if len(xs) < dim + 1:
        raise TooFewVertices(f"need at least {dim + 1} vertices, got {len(xs)}")
    if len(set(xs)) != len(xs):
        first = {x: i for i, x in reversed(tuple(enumerate(xs)))}  # each row's first index
        raise DuplicateVertex(f"vertex {next(i for i, x in enumerate(xs) if first[x] != i)} repeats an earlier vertex")
    p = Polytope(dim, xs, k)
    if not xs or len(p.frame.basis) != dim + 1:
        raise DimensionDeficient("vertices do not affinely span the stated dimension")
    return p


class _Form(NamedTuple):  # a Gram form checked for its polytope: integer rows w over one denominator s
    w: list[list[int]]
    s: int


def _validate_gram_shape(p: Polytope, gram) -> _Form:
    """The form as integer rows W over one denominator s, once it is dim x dim, symmetric and positive definite.
    A _Form was checked already and passes as it is, so a command that loads one from a file checks it once."""
    if isinstance(gram, _Form):
        return gram
    w, s = exact.over_common_denominator(gram)
    if len(w) != p.dim or any(len(row) != p.dim for row in w):
        raise WrongSize(f"Gram form must be {p.dim}x{p.dim}")
    for i in range(p.dim):
        for j in range(i):
            if w[i][j] != w[j][i]:
                raise InputError("Gram form must be symmetric")
    if not exact.is_positive_definite(w):
        raise NotPositiveDefinite("Gram form must be positive definite")
    return _Form(w, s)


def _norm(w: list[list[int]], u) -> int:
    """u^T W u for a symmetric integer form W and an integer vector u."""
    return sum(map(mul, u, [sum(map(mul, row, u)) for row in w]))


def distance_matrix(p: Polytope, gram) -> list[list[Fraction]]:
    """Squared-distance matrix of the vertex set under the Gram form."""
    num, scale = _distance_matrix(p, *_validate_gram_shape(p, gram))
    return [[Fraction(x, scale) for x in row] for row in num]


def _distance_matrix(p: Polytope, w: list[list[int]], s: int) -> tuple[list[list[int]], int]:
    """Squared distances under the validated form W / s, W integral, as numerators over one denominator.

    With X = k V integral, numerator (i, j) is n_i + n_j - 2 <x_i, W x_j>,
    where n_i = <x_i, W x_i>, and the denominator is s k^2.
    """
    xs, k = p.numerators, p.denominator
    ys = [[sum(map(mul, row, x)) for row in w] for x in xs]
    norms = [sum(map(mul, x, y)) for x, y in zip(xs, ys)]
    n = p.nvertices
    num = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            num[i][j] = num[j][i] = norms[i] + norms[j] - 2 * sum(map(mul, xs[i], ys[j]))
    return num, s * k * k


def _validate_distance_matrix(dm) -> tuple[list[list[int]], int]:
    """The matrix as integer rows D over one denominator t, once it is square and symmetric with zero diagonal and
    positive entries off it."""
    d, t = exact.over_common_denominator(dm)
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
    return d, t


def _is_vertex_index(n: int, i) -> bool:
    """Whether i indexes one of n vertices: an int in range(n), and not a bool."""
    return isinstance(i, int) and not isinstance(i, bool) and 0 <= i < n


def _check_support(n: int, y) -> None:
    """WrongSize unless y is (vertex, coefficient) pairs whose vertices are vertex indices, strictly ascending."""
    vs = [t[0] if isinstance(t, (tuple, list)) and len(t) == 2 else None for t in y]
    if not all(_is_vertex_index(n, v) for v in vs) or any(a >= b for a, b in zip(vs, vs[1:])):
        raise WrongSize("a support is (vertex, coefficient) pairs, its vertices indices in strictly ascending order")


def differences(p: Polytope, base: int, others) -> list[list[int]]:
    """Vectors from vertex base to each vertex in others, times the polytope's denominator k: integer rows."""
    xs = p.numerators
    return [[a - b for a, b in zip(xs[i], xs[base])] for i in others]


def _lifted(p: Polytope, cols) -> list[list[int]]:
    """The vertices in cols lifted to k (v, 1), one integer column each, k their common denominator."""
    xs, k = p.numerators, p.denominator
    return [*([xs[i][j] for i in cols] for j in range(p.dim)), [k] * len(cols)]


def _frame(p: Polytope) -> Frame:
    last = p.nvertices - 1
    red, pivots, d = exact.rref(_lifted(p, range(last, -1, -1)))
    # pivot c is vertex last - c, so the reversed pivot rows follow the sorted basis
    columns = list(zip(*red[::-1]))
    basis = tuple(last - c for c in reversed(pivots))
    pivset = set(pivots)
    dependencies = []
    for c in range(last, -1, -1):
        if c not in pivset:
            coords = columns[c]
            g = gcd(d, *coords)
            dependencies.append(((last - c, d // g), *((v, -x // g) for v, x in zip(basis, coords) if x)))
    return Frame(basis=basis, dependencies=tuple(dependencies))


def circumcenter(p: Polytope, gram) -> Circumdata:
    """Center and squared radius of the sphere through all vertices.

    Solves the n equations fixing the center against an affine basis, then
    checks every vertex exactly, in integers: W = s G and x = k v.  Scaling
    the form does not move the center, and scaling the vertices scales the
    unknown, so the solve gives y = k (center - v0) = offset / e; the center
    is c / (e k) with c = e x0 + offset, and vertex x is on the sphere when
    |e x - c|_W = |offset|_W.  The system always has a solution: the rows
    of U, the differences of the basis vertices, are independent and W is
    definite, so 2 U W is nonsingular.  A failed solve is an InternalError.
    """
    w, s = _validate_gram_shape(p, gram)
    basis = p.frame.basis
    x0 = p.numerators[basis[0]]
    us = differences(p, basis[0], basis[1:])
    # rows: 2 u_i^T W y = u_i^T W u_i, with W u_i read off as a row since W is symmetric
    wus = [[sum(map(mul, row, u)) for row in w] for u in us]
    y = exact.solve([[2 * a for a in wu] for wu in wus], [sum(map(mul, u, wu)) for u, wu in zip(us, wus)])
    if y is None:
        raise InternalError("circumcenter system is singular over an affine basis and a definite form")
    (offset,), e = exact.over_common_denominator([y])
    c = [e * a + b for a, b in zip(x0, offset)]
    q, r2 = e * p.denominator, _norm(w, offset)
    for i, x in enumerate(p.numerators):
        if _norm(w, [e * a - b for a, b in zip(x, c)]) != r2:
            raise NotCospherical(f"vertex {i} is not on the sphere through the affine basis")
    return Circumdata(center=tuple(Fraction(a, q) for a in c), radius_sq=Fraction(r2, s * q * q))


def is_centrally_symmetric(p: Polytope) -> tuple[bool, dict[int, int] | None]:
    """Whether v -> 2c - v permutes the vertex set; returns the pairing if so.

    A symmetry of the vertex set fixes their centroid, so c is the centroid.
    On a cospherical vertex set it is also the circumcenter, because the
    symmetry maps the unique sphere through the vertices onto itself.  For
    n vertices x = k v, n k (2c - v) = 2 S - n x with S their sum.
    """
    n = p.nvertices
    doubled = [2 * sum(col) for col in zip(*p.numerators)]
    index = {tuple(n * a for a in x): i for i, x in enumerate(p.numerators)}
    pairing: dict[int, int] = {}
    for i, x in enumerate(p.numerators):
        j = index.get(tuple(d - n * a for d, a in zip(doubled, x)))
        if j is None:
            return False, None
        pairing[i] = j
    return True, pairing


def _difference_lattice_caveats(p: Polytope) -> tuple[str, ...]:
    # The box scan walks integer coordinate vectors; flag inputs whose vertex-difference lattice is not exactly the
    # integer coordinate lattice.  differences scales each by k, and with it the covolume by k^dim.
    diffs = differences(p, 0, range(1, p.nvertices))
    if any(x % p.denominator for row in diffs for x in row):
        return ("vertex differences are not all integral; the integer box scan covers only a sublattice of the vertex lattice",)
    if exact.covolume(diffs) != p.denominator**p.dim:
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
    if not isinstance(window, int) or isinstance(window, bool):
        raise InputError("window must be an integer")
    if window < 0:
        raise InputError("window must be >= 0")
    w, t = form = _validate_gram_shape(p, gram)
    cd = circumcenter(p, form)
    n = p.dim
    k = p.denominator  # the box runs from ceil(min x / k) to floor(max x / k) on each axis
    los = [-(-min(col) // k) - window for col in zip(*p.numerators)]
    his = [max(col) // k + window for col in zip(*p.numerators)]
    count = math.prod(hi - lo + 1 for lo, hi in zip(los, his))
    if count > sys.maxsize:
        raise InputError(f"the scan box holds more than {sys.maxsize} integer points")
    # one scale for the center and the radius (a row of copies of it), so
    # the scan below compares |scale z - cc|_W with scale^2 t r^2 in integers
    (cc, _), scale = exact.over_common_denominator([cd.center, [cd.radius_sq] * n])
    threshold = int(scale * scale * t * cd.radius_sq)
    int_vertices = {tuple(a // k for a in x) for x in p.numerators if not any(a % k for a in x)}
    strict: list[tuple[int, ...]] = []
    on_sphere: list[tuple[int, ...]] = []
    for z in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(los, his))):
        u = [scale * z[j] - cc[j] for j in range(n)]
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

    Vertex 0 becomes the origin.  The reduced row echelon form R of the vertex Gram matrix A,
    A[i][j] = <v_i - v_0, v_j - v_0>, gives everything: its pivot columns C become unit coordinate vectors, A[C, C] is
    the Gram form, and column k of R holds the coordinates of vertex k.  As A is symmetric and the columns C span it,
    A = R^T A[C, C] R; so when A[C, C] is definite the coordinates reproduce A and every distance
    A[i][i] + A[j][j] - 2 A[i][j], the positive distances make the vertices distinct, and the origin and the unit
    vectors span the dimension.

    R is reduced from the rows T alone: row j is taken, in order, when its Schur diagonal over the rows taken so far,
    S_jj = A[j][j] - A[j, T] A[T, T]^-1 A[T, j], is nonzero, that is d A[j][j] - sum_i A[j][C_i] R[i][j] over d for
    their R, C and d; a row in their span reads 0.  The rows taken grow one reduced form (exact._extend) of primitive
    rows q_i: d is the lcm of the q_i[C_i], R[i][j] = q_i[j] d / q_i[C_i], and R, C and d are read off it once, at the
    end, as exact.rref of the rows taken.  Definiteness is read off the same numbers.  While C is the rows taken, the
    k-th reads d det A[T<=k] / det A[T<k] with d > 0, so the form is refused, NotPositiveDefinite, when a taken row
    reads negative or C != T at the end, as a definite check of A[T, T] would refuse it.  (i) If C = T, both tests are
    Sylvester's criterion.  (ii) If C != T, the first taken row j that does not pivot at j pivots at a column c < j
    outside the rows T' taken before it, a skipped row, where its Schur row over T' is nonzero.  Were A semidefinite,
    S_cc = 0 at c's step would put row c in the span of the rows taken before it, and S_jc = S_cj = 0 over T'.  So A is
    not semidefinite, and the definite check fails, or it passes and a later failure is NotPositiveDefinite (below).
    A is semidefinite exactly when the distances are Euclidean (Schoenberg), as a passing re-check proves.  Then
    C = T, and a zero diagonal of the semidefinite Schur complement zeroes its row, so every skipped row is in the span
    of T: R, C and d are A's own.  A failure after the check is classified by the rank of A.  If it is |T|, R is A's
    reduced form, A = R^T A[T, T] R with A[T, T] definite is semidefinite, and the failure is an InternalError.
    Otherwise a skipped row is outside the span of T, A is not semidefinite, and the failure is NotPositiveDefinite.
    """
    p, (w, s) = _from_distances(dm)
    return p, [[Fraction(x, s) for x in row] for row in w]


def _from_distances(dm) -> tuple[Polytope, _Form]:
    """from_distances with its form as the checked _Form 2t A[C, C] over 2t, t the distances' denominator."""
    e, t = _validate_distance_matrix(dm)
    m = len(e)
    if m < 2:
        raise TooFewVertices("need at least 2 vertices")

    def gram_row(x: list[int]) -> list[int]:
        # e = t d in integers, so this is 2 t <v - v_0, w - v_0> at every vertex w, for the vertex v of row x
        return [x[0] + y[0] - xy for y, xy in zip(e, x)]

    # vertex 0 has a zero row and column: it is never taken, and its coordinates in R are 0
    taken, form, terms, den = [], {}, [], 1  # the reduced form of no rows
    for j, x in enumerate(e):
        # den times the Schur diagonal of row j, whose diagonal entry is 2 e[j][0]; R[i][j] = q[j] den / q[c]
        schur = den * 2 * x[0] - sum((x[0] + e[c][0] - x[c]) * q[j] * f for c, q, f in terms if j in q)
        if schur < 0:
            break
        if schur:
            taken.append(j)
            exact._extend(form, dict(enumerate(gram_row(x))))
            den = lcm(*(q[c] for c, q in form.items()))
            terms = [(c, q, den // q[c]) for c, q in form.items()]
    if schur < 0 or list(form) != taken:
        raise NotPositiveDefinite("reconstructed Gram form is not positive definite")
    red, chosen, den = exact._scaled(form, m)  # exact.rref of the rows taken
    n = len(taken)
    sub = [[e[r][0] + e[c][0] - e[r][c] for c in taken] for r in taken]  # 2 t times the Gram form

    def failure(message: str) -> Exception:
        if exact.rank([gram_row(x) for x in e]) != n:
            return NotPositiveDefinite("reconstructed Gram form is not positive definite")
        return InternalError(message)

    try:  # vertex k is column k of R over den
        p = _from_integers(n, list(zip(*red)), den)
    except DelrankError as err:
        raise failure(f"reconstructed coordinates are rejected: {err}") from err
    # distances num / scale under the form sub / 2t, against the input e / t; scale = 2t k^2, so f is exact
    num, scale = _distance_matrix(p, sub, 2 * t)
    f = scale // t
    if any(xrow != [y * f for y in yrow] for xrow, yrow in zip(num, e)):
        raise failure("reconstructed coordinates do not reproduce the distance matrix")
    return p, _Form(sub, 2 * t)
