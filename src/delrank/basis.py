"""Affine bases of the vertex set over Q and over Z.

A polytope is Z-basic when some dim + 1 vertices form an affine basis in
which every other vertex has integer affine coordinates.  Enumeration is
lexicographic over index subsets, so results are deterministic and a
completed search is a certificate.
"""

from __future__ import annotations

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


def is_affine_basis(p: Polytope, subset, ring: str = "Q") -> bool:
    """Whether the subset is an affine basis over the given ring ("Q" or "Z").

    Over Z the affine coordinates of every vertex with respect to the
    subset must be integers.  One reduced echelon form of the lifted
    vertices (v, 1) decides both; over Z every other vertex is a
    right-hand side, reduced to its affine coordinates.
    """
    if ring not in ("Q", "Z"):
        raise ValueError("ring must be 'Q' or 'Z'")
    idx = list(subset)
    if len(idx) != p.dim + 1 or len(set(idx)) != len(idx):
        raise WrongSize(f"subset must contain {p.dim + 1} distinct indices")
    if any(not 0 <= i < p.nvertices for i in idx):
        raise WrongSize("subset index out of range")
    cols = idx if ring == "Q" else idx + [w for w in range(p.nvertices) if w not in idx]
    a = [[p.vertices[i][k] for i in cols] for k in range(p.dim)]
    a.append([Fraction(1)] * len(cols))
    red, pivots = exact.rref(a)
    if pivots != list(range(p.dim + 1)):
        return False
    return all(x.denominator == 1 for row in red for x in row[p.dim + 1:])


def classify_basicity(p: Polytope, budget: int = 2000) -> BasicityClass:
    """Search subsets lexicographically for an integral affine basis.

    Depth first over index prefixes, a prefix whose lifted vertices (v, 1)
    are dependent is dropped with every subset extending it, so independent
    subsets come in the order of a plain scan of all subsets.
    The budget counts affinely independent subsets actually tested over Z.
    A completed search with no witness certifies Q_BASIC_ONLY; running out
    of budget leaves the question UNDECIDED.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    n, size = p.nvertices, p.dim + 1
    lifted = [list(v) + [Fraction(1)] for v in p.vertices]

    def independent(prefix: list[int]):
        for i in range(prefix[-1] + 1 if prefix else 0, n - size + len(prefix) + 1):
            sub = prefix + [i]
            if exact.rank([lifted[j] for j in sub]) < len(sub):
                continue
            if len(sub) == size:
                yield tuple(sub)
            else:
                yield from independent(sub)

    tested = 0
    for combo in independent([]):
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
    if not is_affine_basis(p, idx):
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
