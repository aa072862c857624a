"""Affine bases over Q and Z, basicity search, lattice indices."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import delrank as dr
from delrank import exact
from tests.helpers import random_half_integer_polytope, scan_basicity, solve_affine_basis


def test_is_affine_basis_square(square):
    assert dr.is_affine_basis(square, [0, 1, 2], ring="Q")
    assert dr.is_affine_basis(square, [0, 1, 2], ring="Z")
    assert dr.is_affine_basis(square, [1, 2, 3], ring="Z")
    with pytest.raises(dr.InputError):
        dr.is_affine_basis(square, [0, 1, 2], ring="R")
    with pytest.raises(dr.WrongSize):
        dr.is_affine_basis(square, [0, 1])
    with pytest.raises(dr.WrongSize):
        dr.is_affine_basis(square, [0, 1, 9])


def test_is_affine_basis_dependent_subset():
    degenerate = dr.from_coords(2, [[0, 0], [1, 0], [2, 0], [0, 1]])
    assert not dr.is_affine_basis(degenerate, [0, 1, 2], ring="Q")


def test_is_affine_basis_z_vs_q():
    # (1,1) has half-integer affine coordinates over the outer triangle
    p = dr.from_coords(2, [[0, 0], [2, 0], [0, 2], [1, 1]])
    assert dr.is_affine_basis(p, [0, 1, 2], ring="Q")
    assert not dr.is_affine_basis(p, [0, 1, 2], ring="Z")


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
    with pytest.raises(dr.InputError):
        dr.classify_basicity(p, budget=0)


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


def test_z_basis_iff_unit_lattice_index_on_small_families():
    for p in (dr.cross_polytope(3), dr.half_cube(3), dr.cube(2)):
        for sub in itertools.combinations(range(p.nvertices), p.dim + 1):
            if not dr.is_affine_basis(p, sub, ring="Q"):
                continue
            assert dr.is_affine_basis(p, sub, ring="Z") == (dr.lattice_index(p, sub) == 1)


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
        for ring in ("Q", "Z"):
            assert dr.is_affine_basis(p, sub, ring=ring) == solve_affine_basis(p, sub, ring=ring)


def test_classify_basicity_prunes_dependent_prefixes(monkeypatch):
    # the plain scan ranks thousands of dependent 8-subsets of the 64 vertices
    calls = []
    rank = exact.rank
    monkeypatch.setattr(exact, "rank", lambda m: calls.append(len(m)) or rank(m))
    cls = dr.classify_basicity(dr.half_cube(7))
    assert (cls.kind, cls.tested) == (dr.Z_BASIC, 1)
    assert len(calls) <= 64
