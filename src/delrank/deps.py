"""Integral affine dependencies among the vertices of a polytope.

A dependency is an integer vector y indexed by vertices with sum(y) = 0 and
sum(y(v) v) = 0.  These vectors form a Z-module whose rank is always
nvertices - dim - 1; a simplex has none.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import exact
from .errors import InternalError, NotAffineBasis, SumNotZero
from .model import Polytope, affine_coordinates


@dataclass(frozen=True)
class VertexDependency:
    """Dependency supported on an affine basis plus one extra vertex w.

    Normalized primitive with coefficients[w] > 0.
    """

    w: int
    coefficients: tuple[int, ...]


def dependency_module(p: Polytope) -> tuple[tuple[int, ...], ...]:
    """Canonical Z-basis of all integral affine dependencies of the vertex set.

    A Hermite pass; the ranks read basis_dependencies, which need none.
    """
    rows = [[v[k] for v in p.vertices] for k in range(p.dim)] + [[1] * p.nvertices]
    kernel = exact.integral_kernel(rows)
    if len(kernel) != p.nvertices - p.dim - 1:
        raise InternalError(f"dependency module has rank {len(kernel)}, expected {p.nvertices - p.dim - 1}")
    return tuple(tuple(v) for v in kernel)


def basis_dependencies(p: Polytope, basis_indices) -> list[VertexDependency]:
    """One dependency per vertex outside the affine basis.

    For w outside the basis the unique affine representation of w over the
    basis yields an integral dependency supported on basis + {w}.  Together
    these span the same rational space as dependency_module(p).  Over
    model.affine_basis_indices(p) each lives on w and basis vertices above w.
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
    out: list[VertexDependency] = []
    for w, x in zip(others, coords):
        # primitivize the support only; its first entry, at w, stays positive
        y = [0] * p.nvertices
        for i, c in zip([w, *basis], exact.primitivize([1, *(-c for c in x)])):
            y[i] = c
        out.append(VertexDependency(w=w, coefficients=tuple(y)))
    return out


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
