"""Integral affine dependencies among the vertices of a polytope.

A dependency is an integer vector y indexed by vertices with sum(y) = 0 and
sum(y(v) v) = 0.  These vectors form a Z-module whose rank is always
nvertices - dim - 1; a simplex has none.  The paper's dependencies, one
per vertex outside the affine basis, are p.frame.dependencies, and both
ranks read them there, as their supports: (vertex, coefficient) pairs in
ascending vertex order.  This module gives the saturated module in that
same format, the one it is printed in, in Hermite form: one walk over the
frame, with one small Hermite form per vertex whose coefficient y_w(w)
exceeds 1.  It also checks such supports against distances.
"""

from __future__ import annotations

from math import lcm

from . import exact
from .errors import InternalError, SumNotZero
from .model import Polytope, _check_support, _validate_distance_matrix


def dependency_module(p: Polytope) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Canonical Z-basis of all integral affine dependencies of the vertex set, in Hermite form, each as its support.

    An integral dependency y is sum_w y(w) ŷ_w over the frame's y_w, with ŷ_w = y_w / y_w(w), as the difference
    vanishes off the affinely independent basis.  So with D the lcm of the y_w(w) and r_w the residues mod D of
    D ŷ_w at the basis positions, the module is the t in Z^k with sum_w t_w r_w = 0 mod D, and its Hermite form
    is that of the t, as a nonzero y leads at its least w with t_w != 0: row w is m_w > 0 at w and an entry in
    [0, m_w') at each w' > w.  The walk takes w from the last down and keeps H, the Hermite form of the rows
    (r_w' | e_w') and (D e_i | 0) over the w' > w with m_w' > 1.  A w' with m_w' = 1 is left out: its row h_w' is
    e_w' plus kept columns, and (r_w' | e_w') - h_w' lies in the lattice of the w'' > w', so the lattice's elements
    that vanish at the left-out columns are those of the kept rows; row w, reduced into [0, 1) there, is one.  All
    m_w multiply to the index of the module in Z^k, the order of a subgroup of (Z/D)^(dim+1), so at most
    (dim + 1) log2 D columns are kept.  A w with y_w(w) = 1 has r_w = 0, and its row is y_w.  Otherwise row w is
    read off the Hermite form of H, a zero column for w in front of its kept columns, and (r_w | 1): the rows
    (D e_i | 0) and one row per t column make that lattice full rank, so its Hermite form is square with a pivot in
    every column, and exactly one row has zero residues and a nonzero entry at w, the row pivoting there.  Any other
    count is an InternalError.
    """
    ys, basis = p.frame.dependencies, p.frame.basis
    n, d = len(basis), lcm(*(y[0][1] for y in ys))
    at = {b: i for i, b in enumerate(basis)}
    h = [[d * (i == j) for j in range(n)] for i in range(n)]
    kept: list[int] = []
    scaled: dict[int, list[int]] = {}
    module = []
    for y in reversed(ys):
        w, a = y[0]
        if a == 1:
            module.append(y)
            continue
        s = scaled[w] = [0] * n
        for v, c in y[1:]:
            s[at[v]] = c * (d // a)
        r = [x % d for x in s]
        form = exact.hermite_normal_form([[*x[:n], 0, *x[n:]] for x in h] + [[*r, 1, *[0] * len(kept)]])
        rows = [x[n:] for x in form if not any(x[:n]) and x[n]]
        if len(rows) != 1:
            raise InternalError(f"{len(rows)} relation rows at vertex {w}, expected 1")
        t = {u: c for u, c in zip([w, *kept], rows[0]) if c}
        if t[w] > 1:
            h, kept = form, [w, *kept]
        at_basis = ((b, sum(c * scaled[u][i] for u, c in t.items()) // d) for i, b in enumerate(basis))
        module.append(tuple(sorted([*t.items(), *((b, x) for b, x in at_basis if x)])))
    return tuple(module[::-1])


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
