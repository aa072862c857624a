"""Affine bases over Q and Z, basicity search, lattice indices."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import delrank as dr
from delrank import exact
from tests.helpers import (
    count_calls,
    random_half_integer_polytope,
    random_unimodular,
    rank_leaf_basicity,
    relabeled,
    scan_basicity,
    solve_affine_basis,
    transform_basis,
)


def test_is_affine_basis_square(square):
    assert dr.is_affine_basis(square, [0, 1, 2])
    assert dr.lattice_index(square, [0, 1, 2]) == 1
    assert dr.lattice_index(square, [1, 2, 3]) == 1
    with pytest.raises(dr.WrongSize):
        dr.is_affine_basis(square, [0, 1])
    with pytest.raises(dr.WrongSize):
        dr.is_affine_basis(square, [0, 1, 9])
    with pytest.raises(dr.WrongSize):  # False and True are not the vertices 0 and 1
        dr.is_affine_basis(square, [False, True, 2])
    for subset in ([0, 1, 2, 4.0], [0, 1, 2, [4]]):  # an index that is not an int, hashable or not
        with pytest.raises(dr.WrongSize):
            dr.is_affine_basis(dr.cube(3), subset)


def test_is_affine_basis_dependent_subset():
    degenerate = dr.from_coords(2, [[0, 0], [1, 0], [2, 0], [0, 1]])
    assert not dr.is_affine_basis(degenerate, [0, 1, 2])


def test_is_affine_basis_z_vs_q():
    # (1,1) has half-integer affine coordinates over the outer triangle
    p = dr.from_coords(2, [[0, 0], [2, 0], [0, 2], [1, 1]])
    assert dr.is_affine_basis(p, [0, 1, 2])
    assert dr.lattice_index(p, [0, 1, 2]) != 1


def test_classify_basicity_square(square):
    cls = dr.classify_basicity(square)
    assert cls.kind == dr.Z_BASIC
    assert cls.witness == (0, 1, 2)
    assert cls.tested == 1
    assert not cls.exhaustive


def test_classify_basicity_exhaustive_q_only():
    # no two of 0, 3, 5 differ by a unit, so no pair generates Z
    p = dr.from_coords(1, [[0], [3], [5]])
    cls = dr.classify_basicity(p, budget=100)
    assert cls.kind == dr.Q_BASIC_ONLY
    assert cls.exhaustive
    assert cls.tested == 3
    assert cls.witness is None


def test_classify_basicity_budget_exhaustion():
    p = dr.from_coords(1, [[0], [3], [5]])
    cls = dr.classify_basicity(p, budget=2)
    assert cls.kind == dr.UNDECIDED
    assert not cls.exhaustive
    assert cls.tested == 2
    assert "budget" in cls.note
    # the count of tested subsets never equals a non-integer budget, so p0's search would run to its end
    for q, budget in ((p, 0), (dr.p0().polytope, 2.5)):
        with pytest.raises(dr.InputError):
            dr.classify_basicity(q, budget=budget)


def test_classify_basicity_refuses_a_bool_budget():
    # True is no budget of 1, as it is no vertex index
    with pytest.raises(dr.InputError, match="budget must be an integer"):
        dr.classify_basicity(dr.cube(3), budget=True)


def test_classify_basicity_skips_dependent_subsets():
    # three collinear vertices: the subset (0,1,2) never counts against budget
    degenerate = dr.from_coords(2, [[0, 0], [1, 0], [2, 0], [0, 1]])
    cls = dr.classify_basicity(degenerate, budget=100)
    assert cls.kind == dr.Z_BASIC
    assert cls.witness == (0, 1, 3)
    assert cls.tested == 1


def test_lattice_index_square(square):
    assert dr.lattice_index(square, [0, 1, 2]) == 1
    assert dr.lattice_index(square, [1, 2, 3]) == 1


def test_lattice_index_sublattice():
    p = dr.from_coords(2, [[0, 0], [2, 0], [0, 2], [1, 1]])
    # the outer triangle spans a lattice of index 4 inside the full one?
    # differences of all vertices: (2,0),(0,2),(1,1) -> determinant 2 lattice;
    # triangle alone: (2,0),(0,2) -> determinant 4; index 2
    assert dr.lattice_index(p, [0, 1, 2]) == 2


def test_lattice_index_errors(square):
    with pytest.raises(dr.WrongSize):
        dr.lattice_index(square, [0, 1])
    degenerate = dr.from_coords(2, [[0, 0], [1, 0], [2, 0], [0, 1]])
    with pytest.raises(dr.AffinelyDependent):
        dr.lattice_index(degenerate, [0, 1, 2])


@given(st.integers(0, 10_000), st.sampled_from([1, 2, 3, 2000]))
def test_classify_basicity_matches_combinations_scan(seed, budget):
    p = random_half_integer_polytope(random.Random(seed))
    assert dr.classify_basicity(p, budget=budget) == scan_basicity(p, budget=budget)


@given(st.integers(0, 10_000))
def test_is_affine_basis_matches_solve_per_vertex(seed):
    rng = random.Random(seed)
    p = random_half_integer_polytope(rng)
    for sub in itertools.combinations(range(p.nvertices), p.dim + 1):
        sub = rng.sample(sub, len(sub))
        basis = dr.is_affine_basis(p, sub)
        assert basis == solve_affine_basis(p, sub)
        assert (basis and dr.lattice_index(p, sub) == 1) == solve_affine_basis(p, sub, "Z")


def _simplex_plus_one_point(rng):
    """A random rational simplex and an affine combination of two or more of its vertices, in a random order and
    under a random unimodular basis change."""
    while True:
        n = rng.randrange(1, 5)
        simplex = [tuple(Fraction(rng.randrange(-4, 5), rng.choice((1, 1, 2, 3))) for _ in range(n)) for _ in range(n + 1)]
        support = rng.sample(range(n + 1), rng.randrange(2, n + 2))
        coefficients = [Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3))) for _ in support[1:]]
        coefficients.insert(0, 1 - sum(coefficients))
        if coefficients[0] == 0:
            continue
        point = tuple(sum(c * simplex[v][k] for c, v in zip(coefficients, support)) for k in range(n))
        try:
            p = dr.from_coords(n, rng.sample([*simplex, point], n + 2))
        except dr.DelrankError:  # the simplex is flat
            continue
        return transform_basis(p, random_unimodular(n, rng))


@given(st.integers(0, 10_000))
def test_one_dependency_fixes_every_lattice_index_and_the_basicity_search(seed):
    """With nv = dim + 2 and y the one primitive dependency, V minus w has lattice index |y(w)|.

    The (dim + 1)-subsets in lexicographic order are V minus w for w descending, a basis exactly when y(w) != 0, so
    the search stops at the largest w with |y(w)| = 1, or tests all of supp y and certifies Q_BASIC_ONLY.
    """
    p = _simplex_plus_one_point(random.Random(seed))
    n = p.nvertices
    (y,) = p.frame.dependencies
    y = dict(y)
    for w in range(n):
        rest = [v for v in range(n) if v != w]
        if w in y:
            assert dr.lattice_index(p, rest) == abs(y[w])
        else:
            assert not dr.is_affine_basis(p, rest)
    units = [w for w, c in y.items() if abs(c) == 1]
    if units:
        top = max(units)
        want = dr.BasicityClass(dr.Z_BASIC, tuple(v for v in range(n) if v != top), sum(w >= top for w in y), False)
    else:
        want = dr.BasicityClass(dr.Q_BASIC_ONLY, None, len(y), True, "all affinely independent subsets tested")
    assert dr.classify_basicity(p) == want


def test_classify_basicity_prunes_dependent_prefixes(monkeypatch):
    # the plain scan ranks thousands of dependent 8-subsets of the 64 vertices
    calls = []
    rank = exact.rank
    monkeypatch.setattr(exact, "rank", lambda m: calls.append(len(m)) or rank(m))
    cls = dr.classify_basicity(dr.half_cube(7))
    assert (cls.kind, cls.tested) == (dr.Z_BASIC, 1)
    assert len(calls) <= 64


BASICITY_SOURCES = {
    "cube6": lambda rng: relabeled(dr.cube(6), rng),
    "cube7": lambda rng: relabeled(dr.cube(7), rng),
    "half_cube": lambda rng: relabeled(dr.half_cube(rng.randrange(3, 7)), rng),
    "p0": lambda rng: relabeled(dr.p0().polytope, rng),
    "random": random_half_integer_polytope,
}


@given(st.integers(0, 10_000), st.sampled_from(sorted(BASICITY_SOURCES)), st.sampled_from([1, 3, 2000]))
def test_classify_basicity_decides_each_subset_by_one_covolume(seed, source, budget):
    p = BASICITY_SOURCES[source](random.Random(seed))
    want = rank_leaf_basicity(p, budget=budget)
    with pytest.MonkeyPatch.context() as mp:
        ranks = count_calls(mp, exact, "rank")
        got = dr.classify_basicity(p, budget=budget)
    assert got == want
    # the prefixes are ranked; a (dim + 1)-subset is decided by its covolume alone
    assert all(len(rows) < p.dim + 1 for (rows,) in ranks)
