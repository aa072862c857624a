"""Affine bases of the vertex set over Q and over Z.

A polytope is Z-basic when some dim + 1 vertices form an affine basis in
which every other vertex has integer affine coordinates, that is when their
lifted vertices k (v, 1), k the common denominator, generate the lattice of
all lifted vertices: both have one covolume.  Enumeration is lexicographic
over index subsets, so results are deterministic and a completed search is
a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import exact
from .errors import AffinelyDependent, InputError, InternalError, WrongSize
from .model import Polytope, _is_vertex_index

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


def is_affine_basis(p: Polytope, subset) -> bool:
    """Whether the subset is an affine basis over Q: dim + 1 vertices whose lifted rows k (v, 1) are independent.

    It is one over Z too when lattice_index(p, subset) == 1.
    """
    idx = list(subset)
    if not all(_is_vertex_index(p.nvertices, i) for i in idx):
        raise WrongSize("subset index out of range")
    if len(idx) != p.dim + 1 or len(set(idx)) != len(idx):
        raise WrongSize(f"subset must contain {p.dim + 1} distinct indices")
    return exact.rank([[*p.numerators[i], p.denominator] for i in idx]) == len(idx)


def classify_basicity(p: Polytope, budget: int = 2000) -> BasicityClass:
    """Search subsets lexicographically for an integral affine basis.

    Depth first over index prefixes, a prefix whose lifted vertices (v, 1)
    are dependent is dropped with every subset extending it, so independent
    subsets come in the order of a plain scan of all subsets.  One covolume
    of each (dim + 1)-subset reached decides it: 0 when it is dependent, that
    of all lifted vertices, taken once, when it is an integral affine basis.
    The budget counts the independent subsets tested.
    A completed search with no witness certifies Q_BASIC_ONLY; running out
    of budget leaves the question UNDECIDED.
    """
    if not isinstance(budget, int) or isinstance(budget, bool):
        raise InputError("budget must be an integer")
    if budget < 1:
        raise InputError("budget must be >= 1")
    n, size = p.nvertices, p.dim + 1
    # k (v, 1) in integers, k the vertices' common denominator: same rank as (v, 1)
    lifted = [[*x, p.denominator] for x in p.numerators]
    full = exact.covolume(lifted)

    def subsets(prefix: list[int]):
        for i in range(prefix[-1] + 1 if prefix else 0, n - size + len(prefix) + 1):
            sub = prefix + [i]
            if len(sub) == size:
                yield tuple(sub)
            elif exact.rank([lifted[j] for j in sub]) == len(sub):
                yield from subsets(sub)

    tested = 0
    for combo in subsets([]):
        covolume = exact.covolume([lifted[j] for j in combo])
        if not covolume:  # dependent
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
        if covolume == full:
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
    """Index of the lattice the subset's lifted vertices k (v, 1) generate in the one all of them generate.

    It is the ratio of the two covolumes, a positive integer, and it is 1 exactly when the subset is an integral affine
    basis.  It equals the index of the subset-difference lattice in the full difference lattice: both lifted lattices
    have last coordinates kZ, and k times the two difference lattices as their kernels there.
    """
    idx = list(subset)
    if not is_affine_basis(p, idx):
        raise AffinelyDependent("subset is affinely dependent")
    lifted = [[*x, p.denominator] for x in p.numerators]
    ratio = exact.covolume([lifted[i] for i in idx]) / exact.covolume(lifted)
    if ratio.denominator != 1 or ratio <= 0:
        raise InternalError(f"lattice index {ratio} is not a positive integer")
    return int(ratio)
