"""Integral affine dependencies among the vertices of a polytope.

A dependency is an integer vector y indexed by vertices with sum(y) = 0 and
sum(y(v) v) = 0.  These vectors form a Z-module whose rank is always
nvertices - dim - 1; a simplex has none.  The paper's dependencies, one
per vertex outside the affine basis, are p.frame.dependencies, and both
ranks read them there, as their supports: (vertex, coefficient) pairs in
ascending vertex order.  This module gives the saturated module in that
same format, the one it is printed in, and checks such supports against
distances.
"""

from __future__ import annotations

from . import exact
from .errors import InternalError, SumNotZero
from .model import Polytope, _check_support, _lifted, _validate_distance_matrix


def dependency_module(p: Polytope) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Canonical Z-basis of all integral affine dependencies of the vertex set, each as its support.

    When every dependency of the polytope's frame has coefficient 1 at its
    own vertex w, that is when every vertex has integral affine coordinates
    over the frame's basis, the frame's dependencies are the answer, as
    they are.  Each lives on w and basis vertices above w, so sorted by w
    they are an echelon basis with unit pivots and zeros above each pivot:
    in Hermite form.  They are saturated, because an integral dependency y
    equals sum_w y(w) y_w, as the difference vanishes off the affinely
    independent basis.  Otherwise a Hermite pass (exact.integral_kernel)
    finds the module, and each of its vectors is cut to its nonzeros.  The
    ranks read the frame, and need neither.
    """
    ys = p.frame.dependencies
    if all(y[0][1] == 1 for y in ys):
        return ys
    kernel = exact.integral_kernel(_lifted(p, range(p.nvertices)))
    if len(kernel) != p.nvertices - p.dim - 1:
        raise InternalError(f"dependency module has rank {len(kernel)}, expected {p.nvertices - p.dim - 1}")
    return tuple(tuple((v, c) for v, c in enumerate(k) if c) for k in kernel)


def check_dist_system(dm, y) -> bool:
    """Whether sum_v y(v) d(u, v) = 0 holds for every probe vertex u, for y a support as dependency_module gives."""
    d, _ = _validate_distance_matrix(dm)
    _check_support(len(d), y)
    return all(sum(c * row[v] for v, c in y) == 0 for row in d)


def check_negative_type(dm, y) -> bool:
    """Whether sum_{u,v} y(u) y(v) d(u, v) = 0, for y a support.  Requires sum(y) = 0."""
    d, _ = _validate_distance_matrix(dm)
    _check_support(len(d), y)
    if sum(c for _, c in y) != 0:
        raise SumNotZero("dependency coefficients must sum to zero")
    return sum(a * sum(b * d[u][v] for v, b in y) for u, a in y) == 0
