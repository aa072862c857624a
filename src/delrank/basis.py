"""Affine bases of the vertex set over Q and over Z.

A polytope is Z-basic when some dim + 1 vertices form an affine basis in
which every other vertex has integer affine coordinates.  Enumeration is
lexicographic over index subsets, so results are deterministic and a
completed search is a certificate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import exact
from .errors import AffinelyDependent, InternalError, WrongSize
from .model import Polytope

Z_BASIC = "Z_BASIC"
Q_BASIC_ONLY = "Q_BASIC_ONLY"
UNDECIDED = "UNDECIDED"


@dataclass(frozen=True)
class BasicityClass:
    kind: str
    witness: tuple[int, ...] | None
    tested: int
    exhaustive: bool
    note: str = ""


def _affine_coordinates(p: Polytope, subset: list[int]):
    """Matrix of the affine system for the subset, or None when dependent."""
    a = [[p.vertices[i][k] for i in subset] for k in range(p.dim)]
    a.append([Fraction(1)] * len(subset))
    if exact.rank(a) != p.dim + 1:
        return None
    return a


def is_affine_basis(p: Polytope, subset, ring: str = "Q") -> bool:
    """Whether the subset is an affine basis over the given ring ("Q" or "Z").

    Over Z the affine coordinates of every vertex with respect to the
    subset must be integers.
    """
    if ring not in ("Q", "Z"):
        raise ValueError("ring must be 'Q' or 'Z'")
    idx = list(subset)
    if len(idx) != p.dim + 1 or len(set(idx)) != len(idx):
        raise WrongSize(f"subset must contain {p.dim + 1} distinct indices")
    if any(not 0 <= i < p.nvertices for i in idx):
        raise WrongSize("subset index out of range")
    a = _affine_coordinates(p, idx)
    if a is None:
        return False
    if ring == "Q":
        return True
    chosen = set(idx)
    for w in range(p.nvertices):
        if w in chosen:
            continue
        rhs = list(p.vertices[w]) + [Fraction(1)]
        x = exact.solve(a, rhs)
        if x is None:
            raise InternalError(f"vertex {w} has no affine coordinates over an affine basis")
        if any(c.denominator != 1 for c in x):
            return False
    return True


def classify_basicity(p: Polytope, budget: int = 2000) -> BasicityClass:
    """Search subsets lexicographically for an integral affine basis.

    The budget counts affinely independent subsets actually tested over Z.
    A completed search with no witness certifies Q_BASIC_ONLY; running out
    of budget leaves the question UNDECIDED.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    tested = 0
    for combo in itertools.combinations(range(p.nvertices), p.dim + 1):
        a = _affine_coordinates(p, list(combo))
        if a is None:
            continue
        if tested == budget:
            return BasicityClass(
                kind=UNDECIDED,
                witness=None,
                tested=tested,
                exhaustive=False,
                note="budget exhausted before the subset enumeration finished",
            )
        tested += 1
        if is_affine_basis(p, combo, ring="Z"):
            return BasicityClass(
                kind=Z_BASIC, witness=combo, tested=tested, exhaustive=False
            )
    return BasicityClass(
        kind=Q_BASIC_ONLY,
        witness=None,
        tested=tested,
        exhaustive=True,
        note="all affinely independent subsets tested",
    )


def _integer_lattice_rows(vectors: list[list[Fraction]]) -> tuple[list[list[int]], int]:
    scale = lcm(*(x.denominator for row in vectors for x in row)) if vectors else 1
    return [[int(x * scale) for x in row] for row in vectors], scale


def lattice_index(p: Polytope, subset) -> int:
    """Index of the subset-difference lattice inside the full difference lattice.

    Both lattices are full rank; the index is the ratio of the Hermite form
    determinants and is always a positive integer.
    """
    idx = list(subset)
    if len(idx) != p.dim + 1 or len(set(idx)) != len(idx):
        raise WrongSize(f"subset must contain {p.dim + 1} distinct indices")
    if any(not 0 <= i < p.nvertices for i in idx):
        raise WrongSize("subset index out of range")
    if _affine_coordinates(p, idx) is None:
        raise AffinelyDependent("subset is affinely dependent")

    def hnf_det(vectors: list[list[Fraction]]) -> Fraction:
        rows, scale = _integer_lattice_rows(vectors)
        h, _ = exact.hermite_normal_form(rows)
        d = Fraction(1)
        for i in range(p.dim):
            d *= h[i][i]
        return d / Fraction(scale) ** p.dim

    base_full = p.vertices[p.base_index]
    full_vecs = [
        [x - b for x, b in zip(p.vertices[i], base_full)]
        for i in range(p.nvertices)
        if i != p.base_index
    ]
    base_sub = p.vertices[idx[0]]
    sub_vecs = [
        [x - b for x, b in zip(p.vertices[i], base_sub)] for i in idx[1:]
    ]
    d_full = hnf_det(full_vecs)
    d_sub = hnf_det(sub_vecs)
    ratio = d_sub / d_full
    if ratio.denominator != 1 or ratio <= 0:
        raise InternalError(f"lattice index {ratio} is not a positive integer")
    return int(ratio)
