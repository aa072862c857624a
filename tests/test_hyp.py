"""Hypermetric forms and the pair-system route to the rank."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delrank as dr
from delrank import exact
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
    vertex_vectors,
)

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
    assert len(rows) == 4
    assert len(dr.vertex_pairs(square.nvertices)) == 6
    dense = dense_face_rows(square.nvertices, rows)
    assert exact.rank(dense) == 4
    assert [label for label, _ in rows] == [(0, 3), (0, 2), (0, 1), (0, 0)]
    full = dict(all_face_rows(square, vertex_vectors(square, square.frame.dependencies)))
    assert all(full[label] == row for label, row in rows)
    # row for probe u=0 with y=(1,-1,-1,1): -d(0,1) - d(0,2) + d(0,3)
    (yi, u), row = rows[-1]
    assert (yi, u) == (0, 0)
    assert row == {0: -1, 1: -1, 2: 1}


def test_face_system_records_its_module_and_dimension(square):
    for p in (square, dr.simplex(3), dr.half_cube(4), dr.from_coords(0, [()])):
        rows = dr.face_system(p)
        ys = vertex_vectors(p, p.frame.dependencies)
        module = list(dr.dependency_module(p))
        assert exact.rank(list(ys) + module) == exact.rank(module) == len(module)
        assert {yi for (yi, _), _ in rows} == set(range(len(ys)))
        nv = p.nvertices
        assert dr.face_dimension(p) == nv * (nv - 1) // 2 - dict_sparse_rank([row for _, row in all_face_rows(p, ys)])


def test_face_dimension_known_values(square):
    assert dr.face_dimension(square) == 2
    for n in range(1, 6):
        assert dr.face_dimension(dr.simplex(n)) == n * (n + 1) // 2
    assert dr.face_dimension(dr.cross_polytope(3)) == 4
    assert dr.face_dimension(dr.half_cube(4)) == 7


def _kept(p):
    """The number of face_system rows: one per dependency and vertex of its support."""
    return sum(len(y) for y in p.frame.dependencies)


def _alone(p):
    """The rank of the rows rules 2 and 3 leave out: k(k-1)/2 + k(dim+1) - sum_y (|supp y| - 1)."""
    supports = p.frame.dependencies
    k = len(supports)
    return k * (k - 1) // 2 + k * (p.dim + 1) - sum(len(y) - 1 for y in supports)


def test_face_system_row_counts_on_the_benchmark_polytopes():
    # the canonical rank-large inputs: rule 3 takes half_cube(7) from 504 rows to 362 and cube(6) from 456 to 300
    for p, rows, dimension in ((dr.half_cube(7), 362, 7), (dr.cube(6), 300, 6)):
        assert len(dr.face_system(p)) == _kept(p) == rows
        assert dr.face_dimension(p) == dimension


def test_structured_rows_match_dense_rank():
    """The sparse face_system rows must have the same rank as the dense system."""
    for p in (dr.cross_polytope(4), dr.half_cube(4), dr.half_cube(5), dr.cube(3)):
        rows = dr.face_system(p)
        dense_rank = len(fraction_rref(dense_face_rows(p.nvertices, rows))[1])
        assert exact.sparse_rank([row for _, row in rows]) == dense_rank
        npairs = p.nvertices * (p.nvertices - 1) // 2
        assert len(rows) == _kept(p)
        assert dr.face_dimension(p) == npairs - _alone(p) - dense_rank


def test_face_dimension_structured_path_agrees_small():
    # a 32-vertex instance, larger than the small cases above
    p = dr.half_cube(6)
    npairs = p.nvertices * (p.nvertices - 1) // 2
    # the full (y, u) system, not face_system's pruned rows; the Fraction
    # oracle is too slow on its 800 rows, the plain dict loop is independent too
    oracle_rank = dict_sparse_rank([row for _, row in all_face_rows(p, dr.dependency_module(p))])
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
    nv = q.nvertices
    expected = len(fraction_rref(dense_face_rows(nv, labelled))[1])
    # face_system emits the rows in elimination order: descending probe, dependency order within it
    assert list(labelled) == sorted(labelled, key=lambda r: (-r[0][1], r[0][0]))
    dependency_major = [row for _, row in sorted(labelled, key=lambda r: r[0])]
    probe_descending = [row for _, row in labelled]
    drawn = rng.sample(dependency_major, len(dependency_major))
    for rows in (dependency_major, probe_descending, drawn):
        assert exact.sparse_rank(rows) == expected
    assert len(labelled) == _kept(q)
    assert dr.face_dimension(q) == nv * (nv - 1) // 2 - _alone(q) - expected


def _transformed(build, n):
    return lambda rng: transform_basis(build(n), random_unimodular(n, rng))


ROW_RULE_INSTANCES = {
    "random": random_polytope,
    "half_integer": random_half_integer_polytope,
    "halfcube5": _transformed(dr.half_cube, 5),
    "cube4": _transformed(dr.cube, 4),
    "cross5": _transformed(dr.cross_polytope, 5),
    "p0": lambda rng: dr.p0().polytope,
}


@given(st.integers(0, 10_000), st.sampled_from(sorted(ROW_RULE_INSTANCES)))
def test_face_system_drops_only_redundant_rows(seed, name):
    """The rows face_system leaves out never change the rank of the full (y, u) system."""
    rng = random.Random(seed)
    p = ROW_RULE_INSTANCES[name](rng)
    verts = list(p.vertices)
    rng.shuffle(verts)
    p = dr.from_coords(p.dim, verts)
    rows = dr.face_system(p)
    full = all_face_rows(p, vertex_vectors(p, p.frame.dependencies))
    k, nv = len(p.frame.dependencies), p.nvertices
    assert len(full) == k * nv
    assert len(rows) == _kept(p)
    oracle = dict(full)
    assert all(oracle[label] == row for label, row in rows)
    # the full system over the Hermite module, a dependency family face_system does not build
    module_rank = dict_sparse_rank([row for _, row in all_face_rows(p, dr.dependency_module(p))])
    assert module_rank == exact.sparse_rank([row for _, row in rows]) + _alone(p)
    assert dr.face_dimension(p) == nv * (nv - 1) // 2 - module_rank


def _dropped_rows(seed, name):
    """A drawn, relabeled instance; its supports; its rule-1 system; and the rule-1 rows face_system leaves out."""
    rng = random.Random(seed)
    p = ROW_RULE_INSTANCES[name](rng)
    verts = list(p.vertices)
    rng.shuffle(verts)
    p = dr.from_coords(p.dim, verts)
    supports = p.frame.dependencies
    leads = [y[0][0] for y in supports]
    # the rule-1 system: every row but (y, u) with u the lead of another dependency and below lead(y)
    rule1 = [(label, row) for label, row in all_face_rows(p, vertex_vectors(p, supports))
             if not (label[1] in leads and label[1] < leads[label[0]])]
    kept = {label for label, _ in dr.face_system(p)}
    dropped = [(label, row) for label, row in rule1 if label not in kept]
    assert len(rule1) == len(kept) + len(dropped)
    return p, supports, rule1, dropped


def _alone_on_lead_pair(p, supports, system, rows):
    """Each row (y, u) is the only row of system on the pair {lead(y), u}, with coefficient y(lead(y))."""
    pairs = {pair: k for k, pair in enumerate(dr.vertex_pairs(p.nvertices))}
    for (yi, u), row in rows:
        lead, coefficient = supports[yi][0]
        column = pairs[min(lead, u), max(lead, u)]
        assert row[column] == coefficient != 0
        assert [label for label, other in system if column in other] == [(yi, u)]


@given(st.integers(0, 10_000), st.sampled_from(sorted(ROW_RULE_INSTANCES)))
def test_each_row_dropped_for_its_lead_is_alone_on_its_column(seed, name):
    """Rows (y, u) with u outside the basis and above lead(y) are the only rows of the rule-1 system on {lead(y), u}."""
    p, supports, rule1, dropped = _dropped_rows(seed, name)
    leads = [y[0][0] for y in supports]
    rule2 = [(label, row) for label, row in dropped if label[1] not in p.frame.basis]
    k = len(supports)
    assert len(rule2) == k * (k - 1) // 2
    assert all(u in leads and u > leads[yi] for (yi, u), _ in rule2)
    _alone_on_lead_pair(p, supports, rule1, rule2)


@given(st.integers(0, 10_000), st.sampled_from(sorted(ROW_RULE_INSTANCES)))
def test_each_row_dropped_outside_its_support_is_alone_on_its_column(seed, name):
    """Rows (y, b) with b a basis vertex outside supp(y) are the only rows on {lead(y), b} once rule 2 has run."""
    p, supports, rule1, dropped = _dropped_rows(seed, name)
    rule3 = [(label, row) for label, row in dropped if label[1] in p.frame.basis]
    rule2 = {label for label, _ in dropped if label[1] not in p.frame.basis}
    k = len(supports)
    assert len(rule3) == k * (p.dim + 1) - sum(len(y) - 1 for y in supports)
    assert all(b not in dict(supports[yi]) for (yi, b), _ in rule3)
    _alone_on_lead_pair(p, supports, [(label, row) for label, row in rule1 if label not in rule2], rule3)


def test_face_rows_vanish_on_family_distances():
    """Every system row evaluates to zero on the distances of a compatible form."""
    for name, p in family_corpus():
        if p.nvertices > 16 or name.startswith(("cross", "p0")):
            continue
        ident = [[int(i == j) for j in range(p.dim)] for i in range(p.dim)]
        d = dr.distance_matrix(p, ident)
        flat = [d[i][j] for i, j in dr.vertex_pairs(p.nvertices)]
        for _, row in dr.face_system(p):
            assert sum(Fraction(c) * flat[k] for k, c in row.items()) == 0, name
