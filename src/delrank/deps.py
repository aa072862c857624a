"""Integral affine dependencies among the vertices of a polytope.

A dependency is an integer vector y indexed by vertices with sum(y) = 0 and
sum(y(v) v) = 0.  These vectors form a Z-module whose rank is always
nvertices - dim - 1; a simplex has none.  Dependencies come in one
format, that of p.frame.dependencies: tuples of ints indexed by vertex.
"""

from __future__ import annotations

from fractions import Fraction

from . import exact
from .errors import InternalError, NotAffineBasis, SumNotZero
from .model import Polytope, _dependency, affine_coordinates


def dependency_module(p: Polytope) -> tuple[tuple[int, ...], ...]:
    """Canonical Z-basis of all integral affine dependencies of the vertex set.

    When every dependency of the polytope's frame has coefficient 1 at its
    own vertex w, that is when every vertex has integral affine coordinates
    over the frame's basis, the frame's dependencies are the answer.  Each
    lives on w and basis vertices above w, so sorted by w they are an
    echelon basis with unit pivots and zeros above each pivot: in Hermite
    form.  They are saturated, because an integral dependency y equals
    sum_w y(w) y_w, as the difference vanishes off the affinely independent
    basis.  Otherwise a Hermite pass (exact.integral_kernel) finds the
    module.  The ranks read the frame, and need neither.
    """
    ys = p.frame.dependencies
    if all(next(filter(None, y)) == 1 for y in ys):
        return ys
    rows = [[v[k] for v in p.vertices] for k in range(p.dim)] + [[1] * p.nvertices]
    kernel = exact.integral_kernel(rows)
    if len(kernel) != p.nvertices - p.dim - 1:
        raise InternalError(f"dependency module has rank {len(kernel)}, expected {p.nvertices - p.dim - 1}")
    return tuple(tuple(v) for v in kernel)


def basis_dependencies(p: Polytope, basis_indices) -> tuple[tuple[int, ...], ...]:
    """One dependency per vertex outside the affine basis, in ascending vertex order.

    For w outside the basis the unique affine representation of w over the
    basis yields an integral dependency supported on basis + {w}, primitive
    and positive at w.  Together these span the same rational space as
    dependency_module(p).  Any affine basis will do; over p.frame.basis the
    result is p.frame.dependencies, each living on w and basis vertices
    above w.
    """
    basis = list(basis_indices)
    if len(basis) != p.dim + 1 or len(set(basis)) != len(basis):
        raise NotAffineBasis(f"expected {p.dim + 1} distinct indices")
    if any(not 0 <= i < p.nvertices for i in basis):
        raise NotAffineBasis("index out of range")
    others = [w for w in range(p.nvertices) if w not in basis]
    coords = affine_coordinates(p, basis, others)
    if coords is None:
        raise NotAffineBasis("indices are not affinely independent")
    return tuple(_dependency(p.nvertices, w, basis, x) for w, x in zip(others, coords))


def check_dist_system(dm, y) -> bool:
    """Whether sum_v y(v) d(u, v) = 0 holds for every probe vertex u."""
    d = exact.qmat(dm)
    if len(y) != len(d):
        raise ValueError("coefficient count does not match matrix size")
    for row in d:
        if sum((c * x for c, x in zip(y, row)), Fraction(0)) != 0:
            return False
    return True


def check_negative_type(dm, y) -> bool:
    """Whether sum_{u,v} y(u) y(v) d(u, v) = 0.  Requires sum(y) = 0."""
    d = exact.qmat(dm)
    if len(y) != len(d):
        raise ValueError("coefficient count does not match matrix size")
    if sum(y) != 0:
        raise SumNotZero("dependency coefficients must sum to zero")
    total = Fraction(0)
    for i, yi in enumerate(y):
        if yi:
            total += yi * sum((yj * d[i][j] for j, yj in enumerate(y) if yj), Fraction(0))
    return total == 0
