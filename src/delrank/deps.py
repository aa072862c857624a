"""Integral affine dependencies among the vertices of a polytope.

A dependency is an integer vector y indexed by vertices with sum(y) = 0 and
sum(y(v) v) = 0.  These vectors form a Z-module whose rank is always
nvertices - dim - 1; a simplex has none.  The paper's dependencies, one
per vertex outside the affine basis, are p.frame.dependencies, and both
ranks read them there, as their supports: (vertex, coefficient) pairs in
ascending vertex order.  This module gives the saturated module and checks
vectors against distances.  The module is an arbitrary Z-basis, so it
comes as tuples of ints indexed by vertex, the format it is printed in and
the one the checks take.
"""

from __future__ import annotations

from . import exact
from .errors import InternalError, SumNotZero, WrongSize
from .model import Polytope, _lifted, _validate_distance_matrix


def dependency_module(p: Polytope) -> tuple[tuple[int, ...], ...]:
    """Canonical Z-basis of all integral affine dependencies of the vertex set.

    When every dependency of the polytope's frame has coefficient 1 at its
    own vertex w, that is when every vertex has integral affine coordinates
    over the frame's basis, the frame's dependencies, spread to vectors
    indexed by vertex, are the answer.  Each lives on w and basis vertices
    above w, so sorted by w they are an echelon basis with unit pivots and
    zeros above each pivot: in Hermite form.  They are saturated, because
    an integral dependency y equals sum_w y(w) y_w, as the difference
    vanishes off the affinely independent basis.  Otherwise a Hermite pass
    (exact.integral_kernel) finds the module.  The ranks read the frame,
    and need neither.
    """
    ys = p.frame.dependencies
    if all(y[0][1] == 1 for y in ys):
        out = []
        for y in ys:
            vec = [0] * p.nvertices
            for v, c in y:
                vec[v] = c
            out.append(tuple(vec))
        return tuple(out)
    kernel = exact.integral_kernel(_lifted(p, range(p.nvertices)))
    if len(kernel) != p.nvertices - p.dim - 1:
        raise InternalError(f"dependency module has rank {len(kernel)}, expected {p.nvertices - p.dim - 1}")
    return tuple(tuple(v) for v in kernel)


def check_dist_system(dm, y) -> bool:
    """Whether sum_v y(v) d(u, v) = 0 holds for every probe vertex u."""
    d, _ = _validate_distance_matrix(dm)
    if len(y) != len(d):
        raise WrongSize("coefficient count does not match matrix size")
    for row in d:
        if sum(c * x for c, x in zip(y, row)) != 0:
            return False
    return True


def check_negative_type(dm, y) -> bool:
    """Whether sum_{u,v} y(u) y(v) d(u, v) = 0.  Requires sum(y) = 0."""
    d, _ = _validate_distance_matrix(dm)
    if len(y) != len(d):
        raise WrongSize("coefficient count does not match matrix size")
    if sum(y) != 0:
        raise SumNotZero("dependency coefficients must sum to zero")
    total = 0
    for i, yi in enumerate(y):
        if yi:
            total += yi * sum(yj * d[i][j] for j, yj in enumerate(y) if yj)
    return total == 0
