"""Hypermetric forms and the pair-system route to the rank."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delrank as dr
from delrank import exact, hyp
from tests.helpers import (
    all_face_rows,
    count_calls,
    dense_face_rows,
    dict_sparse_rank,
    family_corpus,
    fraction_rref,
    random_half_integer_polytope,
    random_polytope,
    random_unimodular,
    transform_basis,
    vertex_pairs,
    vertex_vectors,
)

IDENT2 = [[1, 0], [0, 1]]


def test_vertex_pairs():
    assert vertex_pairs(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert vertex_pairs(2) == [(0, 1)]


def test_eval_hypermetric_square(square):
    d = dr.distance_matrix(square, IDENT2)
    assert dr.eval_hypermetric(d, [1, 1, -1, 0]) == -2
    assert dr.eval_hypermetric(d, [0, 1, 1, -1]) == 0
    assert dr.eval_hypermetric(d, [1, 0, 0, 0]) == 0
    with pytest.raises(dr.SumNotOne):
        dr.eval_hypermetric(d, [1, 1, 0, 0])
    with pytest.raises(dr.WrongSize):
        dr.eval_hypermetric(d, [1, 0, 0])


def test_eval_hypermetric_checks_its_matrix():
    # a non-square or asymmetric matrix is bad input, not a matrix with its extra column dropped
    with pytest.raises(dr.WrongSize):
        dr.eval_hypermetric([[0, 1, 5], [1, 0, 7]], [2, -1])
    with pytest.raises(dr.InputError):
        dr.eval_hypermetric([[0, 1], [2, 0]], [2, -1])


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
        dr.check_lemma_hy(square, [[2, 1], [1, 2]], [1, 0, 0, 0])


def test_check_lemma_hy_checks_the_form_once(monkeypatch, square, p0data):
    calls = count_calls(monkeypatch, exact, "is_positive_definite")
    dr.check_lemma_hy(square, IDENT2, [2, -1, 0, 0])
    assert len(calls) == 1
    p, gram = p0data.polytope, [list(r) for r in p0data.gram]
    dr.check_lemma_hy(p, gram, [1] + [0] * (p.nvertices - 1))
    assert len(calls) == 2
    with pytest.raises(dr.NotPositiveDefinite):
        dr.check_lemma_hy(square, [[1, 2], [2, 1]], [1, 0, 0, 0])
    assert len(calls) == 3


def test_face_system_square(square):
    rows = dr.face_system(square)
    # the one dependency y = (1, -1, -1, 1) leads at 0 over the basis 1, 2, 3
    assert square.frame.basis == (1, 2, 3)
    assert square.frame.dependencies == (((0, 1), (1, -1), (2, -1), (3, 1)),)
    # y(1) y(2) d{1, 2} + y(1) y(3) d{1, 3} + y(2) y(3) d{2, 3} over the basis pairs in lex order
    assert rows == ((0, {0: 1, 1: -1, 2: -1}),)
    assert exact.rank(dense_face_rows(square, rows)) == 1


def test_face_system_records_its_module_and_dimension(square):
    for p in (square, dr.simplex(3), dr.half_cube(4), dr.from_coords(0, [()])):
        rows = dr.face_system(p)
        ys = vertex_vectors(p, p.frame.dependencies)
        module = list(vertex_vectors(p, dr.dependency_module(p)))
        assert exact.rank(list(ys) + module) == exact.rank(module) == len(module)
        assert [yi for yi, _ in rows] == list(range(len(ys)))
        nv = p.nvertices
        assert dr.face_dimension(p) == nv * (nv - 1) // 2 - dict_sparse_rank([row for _, row in all_face_rows(p, ys)])


def test_face_dimension_ranks_face_system_through_the_module_attribute(monkeypatch):
    """The benchmark traces hyp.face_system and exact.sparse_rank by replacing the module attributes."""
    systems = count_calls(monkeypatch, hyp, "face_system")
    ranks = count_calls(monkeypatch, exact, "sparse_rank")
    assert dr.face_dimension(dr.half_cube(5)) == 5
    assert len(systems) == 1
    assert len(ranks) == 1 and type(ranks[0][0]) is list


def test_face_dimension_known_values(square):
    assert dr.face_dimension(square) == 2
    for n in range(1, 6):
        assert dr.face_dimension(dr.simplex(n)) == n * (n + 1) // 2
    assert dr.face_dimension(dr.cross_polytope(3)) == 4
    assert dr.face_dimension(dr.half_cube(4)) == 7


def test_face_system_row_counts_on_the_benchmark_polytopes():
    # the canonical rank-large inputs: one row per dependency over the dim(dim+1)/2 basis pairs
    for p, rows, dimension in ((dr.half_cube(7), 56, 7), (dr.cube(6), 57, 6)):
        system = dr.face_system(p)
        assert len(system) == len(p.frame.dependencies) == p.nvertices - p.dim - 1 == rows
        assert max(c for _, row in system for c in row) < p.dim * (p.dim + 1) // 2
        assert dr.face_dimension(p) == dimension


def test_structured_rows_match_dense_rank():
    """The sparse face_system rows must have the same rank as the dense system."""
    for p in (dr.cross_polytope(4), dr.half_cube(4), dr.half_cube(5), dr.cube(3)):
        rows = dr.face_system(p)
        dense_rank = len(fraction_rref(dense_face_rows(p, rows))[1])
        assert exact.sparse_rank([row for _, row in rows]) == dense_rank
        assert dr.face_dimension(p) == p.dim * (p.dim + 1) // 2 - dense_rank


def test_face_dimension_structured_path_agrees_small():
    # a 32-vertex instance, larger than the small cases above
    p = dr.half_cube(6)
    npairs = p.nvertices * (p.nvertices - 1) // 2
    # the full (y, u) system, not face_system's rows; the Fraction
    # oracle is too slow on its 800 rows, the plain dict loop is independent too
    oracle_rank = dict_sparse_rank([row for _, row in all_face_rows(p, vertex_vectors(p, dr.dependency_module(p)))])
    assert dr.face_dimension(p) == npairs - oracle_rank


def test_restricted_face_dimension(square):
    # any three corners of the square form a triangle, i.e. a simplex
    assert dr.restricted_face_dimension(square, [0, 1, 2]) == 3
    assert dr.restricted_face_dimension(square, [1, 2, 3]) == 3
    assert dr.restricted_face_dimension(square, [0, 1, 2, 3]) == 2
    with pytest.raises(dr.WrongSize):
        dr.restricted_face_dimension(square, [0, 1, 9])
    with pytest.raises(dr.TooFewVertices):
        dr.restricted_face_dimension(square, [0, 1])


@settings(max_examples=30)
@given(st.integers(0, 10_000))
def test_face_dimension_equals_rank_on_random_configs(seed):
    rng = random.Random(seed)
    p = random_polytope(rng, max_dim=4)
    assert dr.face_dimension(p) == dr.rank_of(p)


@given(st.integers(0, 10_000), st.sampled_from((random_polytope, random_half_integer_polytope)))
def test_face_rank_does_not_depend_on_row_order(seed, make):
    rng = random.Random(seed)
    p = make(rng)
    verts = list(p.vertices)
    rng.shuffle(verts)
    q = dr.from_coords(p.dim, verts)
    labelled = dr.face_system(q)
    expected = len(fraction_rref(dense_face_rows(q, labelled))[1])
    # face_system emits one row per dependency, in dependency order
    assert [yi for yi, _ in labelled] == list(range(len(q.frame.dependencies)))
    rows = [row for _, row in labelled]
    for order in (rows, rows[::-1], rng.sample(rows, len(rows))):
        assert exact.sparse_rank(order) == expected
    assert dr.face_dimension(q) == q.dim * (q.dim + 1) // 2 - expected


def _transformed(build, n):
    return lambda rng: transform_basis(build(n), random_unimodular(n, rng))


PAIR_SYSTEM_INSTANCES = {
    "random": random_polytope,
    "half_integer": random_half_integer_polytope,
    "halfcube5": _transformed(dr.half_cube, 5),
    "cube4": _transformed(dr.cube, 4),
    "cross5": _transformed(dr.cross_polytope, 5),
    "p0": lambda rng: dr.p0().polytope,
}


def _full_rank(p):
    """The rank of every (y, u) row over the saturated dependency module, by the plain dict loop."""
    return dict_sparse_rank([row for _, row in all_face_rows(p, vertex_vectors(p, dr.dependency_module(p)))])


def _relabeled(p, rng):
    verts = list(p.vertices)
    rng.shuffle(verts)
    return dr.from_coords(p.dim, verts)


@given(st.integers(0, 10_000), st.sampled_from(sorted(PAIR_SYSTEM_INSTANCES)))
def test_face_dimension_matches_the_full_pair_system(seed, name):
    """face_dimension is the solution dimension of every (y, u) row over the saturated dependency module."""
    rng = random.Random(seed)
    p = _relabeled(PAIR_SYSTEM_INSTANCES[name](rng), rng)
    nv = p.nvertices
    assert dr.face_dimension(p) == nv * (nv - 1) // 2 - _full_rank(p)
    # with one vertex left out, when the rest still spans the dimension
    keep = sorted(rng.sample(range(nv), nv - 1))
    try:
        sub = dr.from_coords(p.dim, [p.vertices[i] for i in keep])
    except dr.DelrankError:
        return
    assert dr.restricted_face_dimension(p, keep) == (nv - 1) * (nv - 2) // 2 - _full_rank(sub)


def test_face_dimension_of_p0_matches_the_full_pair_system():
    p = dr.p0().polytope
    assert dr.face_dimension(p) == 77 == 14 * 13 // 2 - _full_rank(p)
    # leaving out a vertex of the one dependency's support leaves a simplex: no rows at all
    keep = [v for v in range(p.nvertices) if v != p.frame.dependencies[0][0][0]]
    sub = dr.from_coords(p.dim, [p.vertices[i] for i in keep])
    assert dr.restricted_face_dimension(p, keep) == 78 == 13 * 12 // 2 - _full_rank(sub)


def _spread(p, row):
    """A face_system row moved from the basis-pair columns onto the vertex-pair columns of the full system."""
    index = {pair: k for k, pair in enumerate(vertex_pairs(p.nvertices))}
    return {index[pair]: row[k] for k, pair in enumerate(itertools.combinations(p.frame.basis, 2)) if k in row}


@given(st.integers(0, 10_000), st.sampled_from(sorted(PAIR_SYSTEM_INSTANCES)))
def test_face_system_drops_only_redundant_rows(seed, name):
    """Row y_w is -1/2 times y_w(w) row(y_w, w) - sum_b y_w(b) row(y_w, b); the other rows add one to the rank per pair off the basis."""
    rng = random.Random(seed)
    p = _relabeled(PAIR_SYSTEM_INSTANCES[name](rng), rng)
    supports = p.frame.dependencies
    full = dict(all_face_rows(p, vertex_vectors(p, supports)))
    rows = dr.face_system(p)
    for yi, row in rows:
        (w, lead), *on_basis = supports[yi]
        combined = {k: lead * v for k, v in full[yi, w].items()}
        for b, c in on_basis:
            for k, v in full[yi, b].items():
                combined[k] = combined.get(k, 0) - c * v
        assert {k: v for k, v in combined.items() if v} == {k: -2 * v for k, v in _spread(p, row).items()}
    nv, n = p.nvertices, p.dim
    outside = nv * (nv - 1) // 2 - n * (n + 1) // 2
    assert dict_sparse_rank(list(full.values())) == outside + exact.sparse_rank([row for _, row in rows])


def test_face_rows_vanish_on_family_distances():
    """Every face_system row is zero on the basis-pair squared distances of a compatible form, at any size."""
    for name, p in family_corpus():
        family = name.rstrip("0123456789")
        if name == "square":
            gram = [[1, 0], [0, 1]]
        elif name == "p0":
            gram = [list(r) for r in dr.p0().gram]
        else:
            gram = dr.canonical_gram(family, p.dim)
        d = dr.distance_matrix(p, gram)
        flat = [d[i][j] for i, j in itertools.combinations(p.frame.basis, 2)]
        for _, row in dr.face_system(p):
            assert sum(c * flat[k] for k, c in row.items()) == 0, name
