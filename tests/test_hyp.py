"""Hypermetric forms and the pair-system route to the rank."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delrank as dr
from delrank import exact
from tests.helpers import family_corpus, random_polytope

IDENT2 = [[1, 0], [0, 1]]


def test_vertex_pairs():
    assert dr.vertex_pairs(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert dr.vertex_pairs(2) == [(0, 1)]


def test_eval_hypermetric_square(square):
    d = dr.distance_matrix(square, IDENT2)
    assert dr.eval_hypermetric(d, [1, 1, -1, 0]) == -2
    assert dr.eval_hypermetric(d, [0, 1, 1, -1]) == 0
    assert dr.eval_hypermetric(d, [1, 0, 0, 0]) == 0
    with pytest.raises(dr.SumNotOne):
        dr.eval_hypermetric(d, [1, 1, 0, 0])
    with pytest.raises(ValueError):
        dr.eval_hypermetric(d, [1, 0, 0])


def test_representation_point(square):
    pt, isv = dr.representation_point(square, [0, 1, 1, -1])
    assert pt == (Fraction(0), Fraction(0)) and isv
    pt, isv = dr.representation_point(square, [1, 1, -1, 0])
    assert pt == (Fraction(1), Fraction(-1)) and not isv
    with pytest.raises(dr.SumNotOne):
        dr.representation_point(square, [2, 0, 0, 0])


def test_check_lemma_hy_square(square):
    r = dr.check_lemma_hy(square, IDENT2, [2, -1, 0, 0])
    assert r.value == -2
    assert not r.equality_holds and not r.point_is_vertex and r.consistent
    r = dr.check_lemma_hy(square, IDENT2, [1, 0, 0, 0])
    assert r.equality_holds and r.point_is_vertex and r.consistent
    assert "bounded-window" in r.caveat
    with pytest.raises(dr.NotCospherical):
        dr.check_lemma_hy(square, [[1, 1], [1, 1]], [1, 0, 0, 0])


def test_face_system_square(square):
    fs = dr.face_system(square)
    assert fs.nvertices == 4
    assert len(fs.rows) == 4
    assert len(fs.pairs) == 6
    dense = fs.dense()
    assert exact.rank(dense) == 4
    # row for probe u=0 with y=(1,-1,-1,1): -d(0,1) - d(0,2) + d(0,3)
    (yi, u), row = fs.rows[0]
    assert (yi, u) == (0, 0)
    assert row == {0: -1, 1: -1, 2: 1}


def test_face_dimension_known_values(square):
    assert dr.face_dimension(square) == 2
    for n in range(1, 6):
        assert dr.face_dimension(dr.simplex(n)) == n * (n + 1) // 2
    assert dr.face_dimension(dr.cross_polytope(3)) == 4
    assert dr.face_dimension(dr.half_cube(4)) == 7


def test_structured_rows_match_dense_rank():
    """The sparse face_system rows must have the same rank as the dense system."""
    for p in (dr.cross_polytope(4), dr.half_cube(4), dr.half_cube(5), dr.cube(3)):
        fs = dr.face_system(p)
        dense_rank = exact.rank(fs.dense())
        assert exact.sparse_rank([row for _, row in fs.rows]) == dense_rank
        npairs = p.nvertices * (p.nvertices - 1) // 2
        assert dr.face_dimension(p) == npairs - dense_rank


def test_face_dimension_structured_path_agrees_small():
    # a 32-vertex instance, larger than the small cases above
    p = dr.half_cube(6)
    npairs = p.nvertices * (p.nvertices - 1) // 2
    dense_rank = exact.rank(dr.face_system(p).dense())
    assert dr.face_dimension(p) == npairs - dense_rank


def test_restricted_face_dimension(square):
    # any three corners of the square form a triangle, i.e. a simplex
    assert dr.restricted_face_dimension(square, [0, 1, 2]) == 3
    assert dr.restricted_face_dimension(square, [1, 2, 3]) == 3
    assert dr.restricted_face_dimension(square, [0, 1, 2, 3]) == 2
    with pytest.raises(ValueError):
        dr.restricted_face_dimension(square, [0, 1, 9])
    with pytest.raises(dr.TooFewVertices):
        dr.restricted_face_dimension(square, [0, 1])


@settings(max_examples=30)
@given(st.integers(0, 10_000))
def test_face_dimension_equals_rank_on_random_configs(seed):
    rng = random.Random(seed)
    p = random_polytope(rng, max_dim=4)
    assert dr.face_dimension(p) == dr.rank_of(p)


def test_face_rows_vanish_on_family_distances():
    """Every system row evaluates to zero on the distances of a compatible form."""
    for name, p in family_corpus():
        if p.nvertices > 16 or name.startswith(("cross", "p0")):
            continue
        ident = [[int(i == j) for j in range(p.dim)] for i in range(p.dim)]
        d = dr.distance_matrix(p, ident)
        fs = dr.face_system(p)
        flat = [d[i][j] for i, j in fs.pairs]
        for _, row in fs.rows:
            assert sum(Fraction(c) * flat[k] for k, c in row.items()) == 0, name
