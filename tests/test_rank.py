"""Constraint systems on Gram parameters and the rank computation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delrank as dr
from delrank import exact
from tests.helpers import family_corpus, gram_corpus, random_polytope, random_unimodular, reduction_instance


def test_sym_columns_order():
    cs = dr.bspace_constraints(dr.simplex(2))
    assert cs.columns == ((0, 0), (0, 1), (1, 1))
    assert cs.rows == ()


def test_square_constraint_row(square):
    cs = dr.bspace_constraints(square)
    assert cs.columns == ((0, 0), (0, 1), (1, 1))
    assert cs.rows == ((Fraction(0), Fraction(2), Fraction(0)),)
    assert cs.rank() == 1


def test_cross_constraint_count():
    # n-1 independent relations tie the diameter direction to each axis
    for n in (3, 4, 5):
        cs = dr.bspace_constraints(dr.cross_polytope(n))
        assert cs.rank() == n - 1


def test_sparse_rank_matches_dense_on_families():
    for name, p in family_corpus():
        cs = dr.bspace_constraints(p)
        assert cs.rank() == exact.rank(cs.rows), name


def test_sparse_rank_scales_fractional_rows(p0data):
    # p0 has half-integral coordinates, so its rows carry denominators
    cs = dr.bspace_constraints(p0data.polytope)
    assert any(x.denominator != 1 for row in cs.rows for x in row)
    assert cs.rank() == exact.rank(cs.rows)


def test_sparse_rank_skips_zero_rows(square):
    cs = dr.bspace_constraints(square, dependencies=[(0, 0, 0, 0), (1, -1, -1, 1), (0, 0, 0, 0)])
    assert cs.rows[0] == cs.rows[2] == (Fraction(0),) * 3
    assert cs.rank() == exact.rank(cs.rows) == 1
    zeros = dr.bspace_constraints(square, dependencies=[(0, 0, 0, 0)])
    assert zeros.rank() == exact.rank(zeros.rows) == 0


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
        cs = dr.bspace_constraints(q)
        assert cs.rank() == exact.rank(cs.rows)


def test_nrd_matches_dense_on_stacked_rows(p0data):
    n = 3
    pairs = [
        (dr.cross_polytope(n), dr.half_cube(n)),
        (dr.cube(n), dr.transform_basis(dr.cube(n), [[1, 1, 0], [0, 1, 0], [0, 0, 1]])),
        (p0data.polytope, _axis_scaled(p0data.polytope, [Fraction(1, 3)] * p0data.polytope.dim)),
    ]
    for a, b in pairs:
        rows = [r for q in (a, b) for r in dr.bspace_constraints(q).rows]
        m = a.dim * (a.dim + 1) // 2
        assert dr.nrd([a, b]) == m - exact.rank(rows)


def test_rank_of_known(square):
    assert dr.rank_of(square) == 2
    assert dr.rank_of(dr.simplex(4)) == 10
    assert dr.rank_of(dr.cross_polytope(4)) == 7
    assert dr.rank_of(dr.half_cube(5)) == 5


def test_constraint_rows_vanish_on_compatible_forms():
    """Contracting any row with a form that realizes the polytope gives zero."""
    for name, p, g in gram_corpus():
        cs = dr.bspace_constraints(p)
        for row in cs.rows:
            total = Fraction(0)
            for coeff, (i, j) in zip(row, cs.columns):
                total += coeff * g[i][j]
            assert total == 0, name


def test_bspace_constraints_with_custom_dependencies(square):
    vdeps = dr.basis_dependencies(square, [0, 1, 2])
    cs = dr.bspace_constraints(square, dependencies=[d.coefficients for d in vdeps])
    assert cs.rows == ((Fraction(0), Fraction(2), Fraction(0)),)
    with pytest.raises(dr.WrongSize):
        dr.bspace_constraints(square, dependencies=[(1, -1, -1)])


def test_rank_agrees_between_dependency_families():
    for name, p in family_corpus():
        if p.nvertices > 24:
            continue
        basis = dr.affine_basis_indices(p)
        vdeps = [d.coefficients for d in dr.basis_dependencies(p, basis)]
        n = p.dim
        assert (
            n * (n + 1) // 2 - dr.bspace_constraints(p, dependencies=vdeps).rank()
            == dr.rank_of(p)
        ), name


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


def test_bspace_basis_satisfies_constraints(square):
    cs = dr.bspace_constraints(square)
    for b in dr.bspace_basis(square):
        for row in cs.rows:
            total = Fraction(0)
            for coeff, (i, j) in zip(row, cs.columns):
                total += coeff * b[i][j]
            assert total == 0


def test_full_system_square(square):
    fs = dr.full_system(square)
    assert len(fs.rows) == 3
    assert len(fs.columns) == 5
    assert dr.full_system_form_dimension(square) == 2


def test_full_system_simplex():
    # rows only pin the center parameters; all form parameters stay free
    for n in (2, 3):
        assert dr.full_system_form_dimension(dr.simplex(n)) == n * (n + 1) // 2


def test_full_system_matches_rank_everywhere():
    for name, p in family_corpus():
        if p.nvertices > 16:
            continue
        assert dr.full_system_form_dimension(p) == dr.rank_of(p), name


def test_is_extreme():
    assert dr.is_extreme(dr.simplex(1))
    assert not dr.is_extreme(dr.simplex(3))
    assert not dr.is_extreme(dr.half_cube(5))


def test_transform_basis_rejects_non_unimodular(square):
    with pytest.raises(dr.NotUnimodular):
        dr.transform_basis(square, [[2, 0], [0, 1]])
    with pytest.raises(dr.NotUnimodular):
        dr.transform_basis(square, [[1, Fraction(1, 2)], [0, 1]])


def test_transform_basis_identity_and_shear(square):
    same = dr.transform_basis(square, [[1, 0], [0, 1]])
    assert same.vertices == square.vertices
    sheared = dr.transform_basis(square, [[1, 1], [0, 1]])
    assert dr.rank_of(sheared) == 2


def test_translate_and_reflect(square):
    t = dr.translate(square, [5, 7])
    assert t.vertices[0] == (Fraction(5), Fraction(7))
    assert dr.rank_of(t) == 2
    r = dr.translate(square, [0, 0], reflect=True)
    assert dr.rank_of(r) == 2
    # same constraint row space either way
    a = dr.bspace_constraints(square).rows
    b = dr.bspace_constraints(r).rows
    assert exact.rank(list(a) + list(b)) == exact.rank(list(a)) == exact.rank(list(b))


@settings(max_examples=30)
@given(st.integers(0, 10_000))
def test_rank_invariant_under_lattice_moves(seed):
    rng = random.Random(seed)
    p = random_polytope(rng, max_dim=3)
    expected = dr.rank_of(p)
    u = random_unimodular(p.dim, rng)
    assert dr.rank_of(dr.transform_basis(p, u)) == expected
    a = [rng.randrange(-4, 5) for _ in range(p.dim)]
    assert dr.rank_of(dr.translate(p, a, reflect=bool(rng.randrange(2)))) == expected
    perm = list(range(p.nvertices))
    rng.shuffle(perm)
    assert dr.rank_of(dr.from_coords(p.dim, [p.vertices[i] for i in perm])) == expected


def test_nrd(square):
    assert dr.nrd([dr.simplex(3)]) == 6
    assert dr.nrd([square]) == 2
    assert dr.nrd([square, dr.translate(square, [3, 5])]) == 2
    sheared = dr.transform_basis(square, [[1, 1], [0, 1]])
    assert dr.nrd([square, sheared]) == 1
    with pytest.raises(ValueError):
        dr.nrd([])
    with pytest.raises(dr.WrongSize):
        dr.nrd([square, dr.simplex(3)])


def test_rank_report_shape():
    rr = dr.RankReport(rank=2, dependency_count=1, extreme=False, face_dimension=2)
    assert rr.rank == 2 and rr.basicity is None and rr.notes == ()


def test_symmetric_reduction_square(square):
    rep = dr.check_symmetric_reduction(square, [[1, 0], [0, 1]])
    assert not rep.applicable
    assert "h3" in rep.failed
    assert rep.rank_full is None and rep.inequality_holds is None


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
