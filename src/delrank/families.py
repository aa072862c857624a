"""Classical Delaunay polytope families with fixed vertex orders.

Vertex orders are part of the contract: tests and file outputs depend on
them, so generators must never reorder.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .model import Polytope, from_coords, from_distances

FAMILY_NAMES = ("simplex", "cross", "halfcube", "cube", "p0")


def simplex(n: int) -> Polytope:
    """Origin and the n unit vectors."""
    if n < 1:
        raise InputError("simplex needs n >= 1")
    verts = [[0] * n] + [[int(i == k) for k in range(n)] for i in range(n)]
    return from_coords(n, verts)


def cross_polytope(n: int) -> Polytope:
    """0, e_1 .. e_{n-1}, e_n, and e_n - e_i; the segment 0..e_n is a diameter."""
    if n < 2:
        raise InputError("cross polytope needs n >= 2")
    verts = [[0] * n]
    verts += [[int(i == k) for k in range(n)] for i in range(n - 1)]
    verts.append([int(k == n - 1) for k in range(n)])
    for i in range(n - 1):
        verts.append([int(k == n - 1) - int(i == k) for k in range(n)])
    return from_coords(n, verts)


def half_cube(n: int) -> Polytope:
    """0/1 vectors with an even number of ones, by ascending bit pattern."""
    if n < 3:
        raise InputError("half cube needs n >= 3")
    verts = []
    for mask in range(1 << n):
        if bin(mask).count("1") % 2 == 0:
            verts.append([(mask >> k) & 1 for k in range(n)])
    return from_coords(n, verts)


def cube(n: int) -> Polytope:
    """All 0/1 vectors by ascending bit pattern."""
    if n < 1:
        raise InputError("cube needs n >= 1")
    verts = [[(mask >> k) & 1 for k in range(n)] for mask in range(1 << n)]
    return from_coords(n, verts)


def canonical_gram(family: str, n: int) -> list[list[Fraction]]:
    """A positive definite form under which the family is a Delaunay polytope.

    Identity works for the simplex, cube, and half cube.  For the cross
    polytope the identity is not compatible; the form of the root lattice
    realization (diagonal 2 block with all pairings 1, diameter vector of
    squared length 4 pairing 2 with everything) is used instead.
    """
    if family in ("simplex", "cube", "halfcube"):
        return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    if family == "cross":
        g = [[Fraction(1 + int(i == j)) for j in range(n)] for i in range(n)]
        for i in range(n - 1):
            g[i][n - 1] = Fraction(2)
            g[n - 1][i] = Fraction(2)
        g[n - 1][n - 1] = Fraction(4)
        return g
    raise InputError(f"no canonical form for family {family!r}")


P0_BLOCKS = (3, 3, 4, 4)
P0_DEPENDENCY = (3, 3, 3, -3, -3, -3, -2, -2, -2, -2, 2, 2, 2, 2)
# squared distances: within any block 7; between blocks, indexed by block pair
_P0_CROSS = {
    (0, 1): 10,
    (0, 2): 6,
    (0, 3): 12,
    (1, 2): 12,
    (1, 3): 6,
    (2, 3): 12,
}


@dataclass(frozen=True)
class P0Data:
    """A 14-vertex polytope of dimension 12 with no integral affine basis."""

    polytope: Polytope
    gram: tuple[tuple[Fraction, ...], ...]
    distances: tuple[tuple[Fraction, ...], ...]
    dependency: tuple[int, ...]


def p0_distance_matrix() -> list[list[Fraction]]:
    """Squared distances of p0: 7 within a block of P0_BLOCKS, the _P0_CROSS value between blocks."""
    blocks = []
    for b, size in enumerate(P0_BLOCKS):
        blocks.extend([b] * size)
    m = len(blocks)
    d = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            bi, bj = blocks[i], blocks[j]
            val = 7 if bi == bj else _P0_CROSS[(bi, bj) if bi < bj else (bj, bi)]
            d[i][j] = Fraction(val)
            d[j][i] = Fraction(val)
    return d


def p0() -> P0Data:
    """The paper's witness p0, rebuilt from its distance matrix, with its Gram form and frozen dependency."""
    d = p0_distance_matrix()
    poly, gram = from_distances(d)
    return P0Data(
        polytope=poly,
        gram=tuple(tuple(row) for row in gram),
        distances=tuple(tuple(row) for row in d),
        dependency=P0_DEPENDENCY,
    )
