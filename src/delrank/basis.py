"""Affine bases of the vertex set over Q and over Z.

A polytope is Z-basic when some dim + 1 vertices form an affine basis in
which every other vertex has integer affine coordinates.  Enumeration is
lexicographic over index subsets, so results are deterministic and a
completed search is a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import exact
from .errors import AffinelyDependent, InputError, InternalError, WrongSize
from .model import Polytope, _lifted, differences

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
    vertices (v, 1), subset columns first, decides both: the subset is
    affinely independent when its columns are the first pivots, and over Z
    every other vertex is a right-hand side, reduced to its affine
    coordinates in the pivot rows.
    """
    if ring not in ("Q", "Z"):
        raise InputError("ring must be 'Q' or 'Z'")
    idx = list(subset)
    if len(idx) != p.dim + 1 or len(set(idx)) != len(idx):
        raise WrongSize(f"subset must contain {p.dim + 1} distinct indices")
    if any(not 0 <= i < p.nvertices for i in idx):
        raise WrongSize("subset index out of range")
    others = [] if ring == "Q" else [w for w in range(p.nvertices) if w not in idx]
    red, pivots, d = exact.rref(_lifted(p, idx + others))
    k = len(idx)
    return pivots[:k] == list(range(k)) and all(x % d == 0 for row in red[:k] for x in row[k:])


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
        raise InputError("budget must be >= 1")
    n, size = p.nvertices, p.dim + 1
    # k (v, 1) in integers, k the vertices' common denominator: same rank as (v, 1)
    xs, k = p._int_coords
    lifted = [[*x, k] for x in xs]

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


def lattice_index(p: Polytope, subset) -> int:
    """Index of the subset-difference lattice inside the full difference lattice.

    Both lattices are full rank; the index is the ratio of their covolumes
    and is always a positive integer.
    """
    idx = list(subset)
    if not is_affine_basis(p, idx):
        raise AffinelyDependent("subset is affinely dependent")

    full = exact.covolume(differences(p, 0, range(1, p.nvertices)))
    ratio = exact.covolume(differences(p, idx[0], idx[1:])) / full
    if ratio.denominator != 1 or ratio <= 0:
        raise InternalError(f"lattice index {ratio} is not a positive integer")
    return int(ratio)
