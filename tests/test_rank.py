"""Constraint systems on Gram parameters and the rank computation."""

import json
import random
import time
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delrank as dr
from delrank import cli, exact
from delrank.rank import sym_columns
from tests.helpers import (
    count_calls,
    family_corpus,
    fraction_bspace_rows,
    fraction_check_symmetric_reduction,
    fraction_restricted_face_dimension,
    fraction_rref,
    full_system,
    full_system_form_dimension,
    gram_corpus,
    module_form_space,
    quadric_rank,
    random_half_integer_polytope,
    random_polytope,
    random_unimodular,
    reduction_instance,
    transform_basis,
    translate,
    vertex_vectors,
)


def test_sym_columns_order():
    assert sym_columns(2) == [(0, 0), (0, 1), (1, 1)]
    assert dr.bspace_constraints(dr.simplex(2)) == ()


def test_square_constraint_row(square):
    rows = dr.bspace_constraints(square)
    assert sym_columns(square.dim) == [(0, 0), (0, 1), (1, 1)]
    assert rows == ((Fraction(0), Fraction(2), Fraction(0)),)
    assert exact.rank(rows) == 1


def test_cross_constraint_count():
    # n-1 independent relations tie the diameter direction to each axis
    for n in (3, 4, 5):
        assert exact.rank(dr.bspace_constraints(dr.cross_polytope(n))) == n - 1


def test_sparse_rank_matches_dense_on_families():
    for name, p in family_corpus():
        rows = dr.bspace_constraints(p)
        assert exact.rank(rows) == len(fraction_rref(rows)[1]), name


def test_sparse_rank_scales_fractional_rows(p0data):
    # p0 has half-integral coordinates, so its rows from the Fraction oracle carry denominators
    p = p0data.polytope
    rows = fraction_bspace_rows(p, vertex_vectors(p, p.frame.dependencies))
    assert any(x.denominator != 1 for row in rows for x in row)
    assert exact.rank(rows) == len(fraction_rref(rows)[1]) == exact.rank(dr.bspace_constraints(p))


def test_sparse_rank_skips_zero_rows(square):
    rows = fraction_bspace_rows(square, [(0, 0, 0, 0), (1, -1, -1, 1), (0, 0, 0, 0)])
    assert rows[0] == rows[2] == (Fraction(0),) * 3
    assert exact.rank(rows) == len(fraction_rref(rows)[1]) == 1
    zeros = fraction_bspace_rows(square, [(0, 0, 0, 0)])
    assert exact.rank(zeros) == len(fraction_rref(zeros)[1]) == 0


def _axis_scaled(p, scales):
    # a linear image keeps the affine dependencies and the rank; fractional
    # scales give constraint rows with denominators
    return dr.from_coords(p.dim, [tuple(s * x for s, x in zip(scales, v)) for v in p.vertices])


@settings(max_examples=30)
@given(st.integers(0, 10_000))
def test_sparse_rank_matches_dense_on_random_configs(seed):
    rng = random.Random(seed)
    p = random_polytope(rng, max_dim=4)
    scales = [Fraction(1, rng.choice((1, 2, 3, 5))) for _ in range(p.dim)]
    for q in (p, _axis_scaled(p, scales)):
        rows = dr.bspace_constraints(q)
        assert exact.rank(rows) == len(fraction_rref(rows)[1])


def test_nrd_matches_dense_on_stacked_rows(p0data):
    n = 3
    pairs = [
        (dr.cross_polytope(n), dr.half_cube(n)),
        (dr.cube(n), transform_basis(dr.cube(n), [[1, 1, 0], [0, 1, 0], [0, 0, 1]])),
        (p0data.polytope, _axis_scaled(p0data.polytope, [Fraction(1, 3)] * p0data.polytope.dim)),
    ]
    for a, b in pairs:
        rows = [r for q in (a, b) for r in dr.bspace_constraints(q)]
        m = a.dim * (a.dim + 1) // 2
        assert dr.nrd([a, b]) == m - len(fraction_rref(rows)[1])


def test_rank_of_known(square):
    assert dr.rank_of(square) == 2
    assert dr.rank_of(dr.simplex(4)) == 10
    assert dr.rank_of(dr.cross_polytope(4)) == 7
    assert dr.rank_of(dr.half_cube(5)) == 5


def test_rank_of_at_a_thousand_vertices():
    """cube(10) has 1,024 vertices and half_cube(10) 512, beyond the corpus; both have the paper's rank 10."""
    cube, half_cube = dr.cube(10), dr.half_cube(10)
    start = time.perf_counter()
    assert dr.rank_of(cube) == dr.rank_of(half_cube) == 10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"rank_of took {elapsed:.2f}s"


def test_constraint_rows_vanish_on_compatible_forms():
    """Contracting any row with a form that realizes the polytope gives zero."""
    for name, p, g in gram_corpus():
        for row in dr.bspace_constraints(p):
            total = Fraction(0)
            for coeff, (i, j) in zip(row, sym_columns(p.dim)):
                total += coeff * g[i][j]
            assert total == 0, name


def _assert_fraction_rows_equal(p, name):
    rows = dr.bspace_constraints(p)
    # the integer rows are k^2 times the Fraction rows, k the vertices' common denominator
    k = lcm(*(x.denominator for v in p.vertices for x in v))
    fraction_rows = fraction_bspace_rows(p, vertex_vectors(p, p.frame.dependencies))
    assert rows == tuple(tuple(k * k * x for x in row) for row in fraction_rows), name
    assert all(type(x) is int for row in rows for x in row), name
    # rows over the Hermite module span the same constraints
    module_rows = fraction_bspace_rows(p, vertex_vectors(p, dr.dependency_module(p)))
    assert exact.rank(rows + module_rows) == exact.rank(rows) == exact.rank(module_rows), name


def test_bspace_rows_match_the_fraction_accumulation_on_families():
    for name, p in family_corpus():
        if p.nvertices <= 64:
            _assert_fraction_rows_equal(p, name)


@settings(max_examples=30)
@given(st.integers(0, 10_000), st.sampled_from((random_polytope, random_half_integer_polytope)))
def test_bspace_rows_match_the_fraction_accumulation(seed, make):
    p = make(random.Random(seed))
    _assert_fraction_rows_equal(p, seed)


def test_rank_agrees_between_dependency_families():
    for name, p in family_corpus():
        if p.nvertices > 24:
            continue
        module_rows = fraction_bspace_rows(p, vertex_vectors(p, dr.dependency_module(p)))
        n = p.dim
        assert n * (n + 1) // 2 - exact.rank(module_rows) == dr.rank_of(p), name


@settings(max_examples=30)
@given(st.integers(0, 10_000))
def test_basis_route_matches_the_hermite_module(seed):
    rng = random.Random(seed)
    p = random_polytope(rng, max_dim=4)
    scales = [Fraction(1, rng.choice((2, 3, 5))) for _ in range(p.dim)]
    verts = list(_axis_scaled(p, scales).vertices)
    rng.shuffle(verts)
    for q in (p, dr.from_coords(p.dim, verts)):
        rank, basis = module_form_space(q)
        assert dr.rank_of(q) == rank
        assert dr.bspace_basis(q) == basis
        assert dr.nrd([q]) == rank


def test_rank_of_builds_no_hermite_form(monkeypatch, p0data):
    calls = count_calls(monkeypatch, exact, "hermite_normal_form")
    for p in (dr.half_cube(5), dr.cube(3), p0data.polytope):
        dr.rank_of(p)
        dr.bspace_basis(p)
        dr.nrd([p, p])
    assert calls == []


def test_bspace_basis_square(square):
    basis = dr.bspace_basis(square)
    assert basis == [
        [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]],
        [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(1)]],
    ]


def test_bspace_basis_simplex_full():
    basis = dr.bspace_basis(dr.simplex(2))
    assert len(basis) == 3
    for b in basis:
        assert b == [[b[i][j] for i in range(2)] for j in range(2)]  # symmetric


def test_bspace_basis_halfcube_diagonal():
    for n in (5, 6):
        basis = dr.bspace_basis(dr.half_cube(n))
        assert len(basis) == n
        for b in basis:
            for i in range(n):
                for j in range(n):
                    if i != j:
                        assert b[i][j] == 0


def _assert_basis_satisfies_constraints(p, name):
    rows = dr.bspace_constraints(p)
    basis = dr.bspace_basis(p)
    assert len(basis) == dr.rank_of(p), name
    for b in basis:
        for row in rows:
            total = Fraction(0)
            for coeff, (i, j) in zip(row, sym_columns(p.dim)):
                total += coeff * b[i][j]
            assert total == 0, name


def test_bspace_basis_satisfies_constraints():
    # the corpus includes the square and p0, whose rows carry denominators
    for name, p in family_corpus():
        if p.nvertices <= 64:
            _assert_basis_satisfies_constraints(p, name)
    rng = random.Random(0)
    for draw in range(20):
        p = random_polytope(rng, max_dim=4)
        scales = [Fraction(1, rng.choice((2, 3, 5))) for _ in range(p.dim)]
        for q in (p, _axis_scaled(p, scales)):
            _assert_basis_satisfies_constraints(q, draw)


def test_full_system_square(square):
    fs = full_system(square)
    assert len(fs.rows) == 3
    assert len(fs.columns) == 5
    assert full_system_form_dimension(square) == 2


def test_full_system_simplex():
    # rows only pin the center parameters; all form parameters stay free
    for n in (2, 3):
        assert full_system_form_dimension(dr.simplex(n)) == n * (n + 1) // 2


def test_full_system_matches_rank_everywhere():
    for name, p in family_corpus():
        if p.nvertices > 16:
            continue
        assert full_system_form_dimension(p) == dr.rank_of(p), name


QUADRIC_BASES = dict(family_corpus())
# the Fraction oracle once per corpus instance: the rank is invariant under the basis change and relabeling drawn below
QUADRIC_RANKS = {}


def test_quadric_rank_is_invariant_under_basis_change_and_relabeling():
    rng = random.Random(5)
    for name in ("halfcube5", "p0"):
        p = QUADRIC_BASES[name]
        q = transform_basis(p, random_unimodular(p.dim, rng))
        q = dr.from_coords(q.dim, rng.sample(q.vertices, q.nvertices))
        assert q.vertices != p.vertices
        assert quadric_rank(q) == quadric_rank(p), name


@given(st.integers(0, 10_000), st.sampled_from(sorted(QUADRIC_BASES) + ["random", "half_integer"]),
       st.booleans(), st.booleans())
def test_quadric_rank_matches_both_routes(seed, name, transform, relabel):
    """The quadrics through the vertices read no frame, so a wrong frame cannot move them with both routes."""
    rng = random.Random(seed)
    if name == "random":
        p = random_polytope(rng)
    elif name == "half_integer":
        p = random_half_integer_polytope(rng)
    else:
        p = QUADRIC_BASES[name]
    if transform:
        p = transform_basis(p, random_unimodular(p.dim, rng))
    if relabel:
        p = dr.from_coords(p.dim, rng.sample(p.vertices, p.nvertices))
    if name in QUADRIC_BASES:
        if name not in QUADRIC_RANKS:
            QUADRIC_RANKS[name] = quadric_rank(QUADRIC_BASES[name])
        expected = QUADRIC_RANKS[name]
    else:
        expected = quadric_rank(p)
    assert dr.rank_of(p) == expected
    assert dr.face_dimension(p) == expected


@given(st.integers(0, 10_000), st.sampled_from(sorted(QUADRIC_BASES) + ["random", "half_integer"]),
       st.booleans(), st.booleans(), st.sampled_from((0, 1, 2)))
def test_rank_of_matches_the_input_coordinate_constraints(seed, name, transform, relabel, shift):
    """rank_of ranks forms in the frame's affine coordinates, bspace_constraints in the input's: the same dimension."""
    rng = random.Random(seed)
    if name == "random":
        p = random_polytope(rng)
    elif name == "half_integer":
        p = random_half_integer_polytope(rng)
    else:
        p = QUADRIC_BASES[name]
    if transform:
        p = transform_basis(p, random_unimodular(p.dim, rng))
    if relabel:
        p = dr.from_coords(p.dim, rng.sample(p.vertices, p.nvertices))
    if shift:  # an integer or a half-integer translation
        p = translate(p, [Fraction(rng.randrange(-5, 6), shift) for _ in range(p.dim)])
    n = p.dim
    assert dr.rank_of(p) == n * (n + 1) // 2 - exact.rank(dr.bspace_constraints(p))


def test_is_extreme():
    assert dr.is_extreme(dr.simplex(1))
    assert not dr.is_extreme(dr.simplex(3))
    assert not dr.is_extreme(dr.half_cube(5))


def test_transform_basis_identity_and_shear(square):
    same = transform_basis(square, [[1, 0], [0, 1]])
    assert same.vertices == square.vertices
    sheared = transform_basis(square, [[1, 1], [0, 1]])
    assert dr.rank_of(sheared) == 2


def test_translate_and_reflect(square):
    t = translate(square, [5, 7])
    assert t.vertices[0] == (Fraction(5), Fraction(7))
    assert dr.rank_of(t) == 2
    r = translate(square, [0, 0], reflect=True)
    assert dr.rank_of(r) == 2
    # same constraint row space either way
    a = dr.bspace_constraints(square)
    b = dr.bspace_constraints(r)
    assert exact.rank(list(a) + list(b)) == exact.rank(list(a)) == exact.rank(list(b))


@settings(max_examples=30)
@given(st.integers(0, 10_000))
def test_rank_invariant_under_lattice_moves(seed):
    rng = random.Random(seed)
    p = random_polytope(rng, max_dim=3)
    expected = dr.rank_of(p)
    u = random_unimodular(p.dim, rng)
    assert dr.rank_of(transform_basis(p, u)) == expected
    a = [rng.randrange(-4, 5) for _ in range(p.dim)]
    assert dr.rank_of(translate(p, a, reflect=bool(rng.randrange(2)))) == expected
    perm = list(range(p.nvertices))
    rng.shuffle(perm)
    assert dr.rank_of(dr.from_coords(p.dim, [p.vertices[i] for i in perm])) == expected


def test_nrd(square):
    assert dr.nrd([dr.simplex(3)]) == 6
    assert dr.nrd([square]) == 2
    assert dr.nrd([square, translate(square, [3, 5])]) == 2
    sheared = transform_basis(square, [[1, 1], [0, 1]])
    assert dr.nrd([square, sheared]) == 1
    with pytest.raises(dr.WrongSize):
        dr.nrd([])
    with pytest.raises(dr.WrongSize):
        dr.nrd([square, dr.simplex(3)])


def test_rank_report_shape(tmp_path, capsys):
    # the rank fields of a `report` document, for a file with no Gram form
    path = tmp_path / "square.json"
    path.write_text(json.dumps({"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]}))
    assert cli.main(["report", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {
        "command", "input", "dim", "nvertices", "rank", "face_dimension", "methods_agree",
        "extreme", "centrally_symmetric", "dependencies", "basicity", "verify", "warnings",
    }
    assert doc["rank"] == 2 and doc["face_dimension"] == 2 and doc["methods_agree"] is True
    assert doc["extreme"] is False and doc["dependencies"]["count"] == 1
    assert doc["centrally_symmetric"] is None and doc["verify"] is None
    assert doc["warnings"] == ["no Gram form in input; sphere checks skipped"]


def test_symmetric_reduction_square(square):
    rep = dr.check_symmetric_reduction(square, [[1, 0], [0, 1]])
    assert not rep.applicable
    assert "h3" in rep.failed
    assert rep.rank_full is None and rep.inequality_holds is None


def test_symmetric_reduction_center_ignores_a_singular_form(square):
    # the square is cospherical under [[1, 0], [0, 0]] too, about (1/2, 0);
    # such a form is refused before any center is taken
    with pytest.raises(dr.NotPositiveDefinite):
        dr.check_symmetric_reduction(square, [[1, 0], [0, 0]])


def test_symmetric_reduction_simplex():
    rep = dr.check_symmetric_reduction(dr.simplex(2), [[1, 0], [0, 1]])
    assert not rep.applicable
    assert "cs" in rep.failed


def test_symmetric_reduction_applicable_instance():
    p, g = reduction_instance()
    rep = dr.check_symmetric_reduction(p, g)
    assert rep.applicable
    assert rep.failed == ()
    assert rep.rank_full == 3 and rep.rank_section == 3
    assert rep.inequality_holds


def test_symmetric_reduction_cross3():
    # every vertex is a section vertex or a mirror of one: no escape vertex
    p = dr.cross_polytope(3)
    rep = dr.check_symmetric_reduction(p, dr.canonical_gram("cross", 3))
    assert not rep.applicable
    assert "h3" in rep.failed


def test_symmetric_reduction_flat_section():
    # sections that are affinely flat (or bare points) fail h2 cleanly
    for p, g in [
        (dr.half_cube(3), dr.canonical_gram("halfcube", 3)),
        (dr.cube(1), dr.canonical_gram("cube", 1)),
        (dr.simplex(1), dr.canonical_gram("simplex", 1)),
    ]:
        rep = dr.check_symmetric_reduction(p, g)
        assert not rep.applicable
        assert "h2" in rep.failed


REBUILD_SCALES = st.sampled_from((1, 1, 2, Fraction(1, 2), Fraction(2, 3)))
REBUILD_SHIFTS = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 1, 2, 3)))


def _outcome(f, *args):
    try:
        return f(*args)
    except dr.DelrankError as err:
        return type(err), str(err)


@given(st.data())
def test_integer_rebuilds_match_the_fraction_routes(data):
    _, p, g = data.draw(st.sampled_from([*gram_corpus(), ("reduction", *reduction_instance())]))
    # p relabeled, scaled along each axis and translated, under the form that keeps it cospherical
    order = data.draw(st.permutations(range(p.nvertices)))
    scales = [data.draw(REBUILD_SCALES) for _ in range(p.dim)]
    shift = [data.draw(REBUILD_SHIFTS) for _ in range(p.dim)]
    if data.draw(st.booleans()):  # relabeled only, so that the section bound can apply
        scales, shift = [1] * p.dim, [0] * p.dim
    q = dr.from_coords(p.dim, [[s * x + t for s, x, t in zip(scales, p.vertices[i], shift)] for i in order])
    h = [[Fraction(x) / (si * sj) for x, sj in zip(row, scales)] for row, si in zip(g, scales)]
    subset = data.draw(st.lists(st.integers(0, p.nvertices), max_size=p.nvertices + 1))
    axis = data.draw(st.integers(0, p.dim - 1))
    assert _outcome(dr.restricted_face_dimension, q, subset) == _outcome(fraction_restricted_face_dimension, q, subset)
    assert _outcome(dr.check_symmetric_reduction, q, h, axis) == _outcome(fraction_check_symmetric_reduction, q, h, axis)
