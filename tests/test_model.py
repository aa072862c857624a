"""Polytope model: validation, circumspheres, distance reconstruction."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delrank as dr
from delrank import exact, model
from tests.helpers import (
    circumcenter_symmetry,
    count_calls,
    family_corpus,
    fraction_distance_matrix,
    gram_corpus,
    incremental_affine_basis,
    random_half_integer_polytope,
    random_polytope,
    random_unimodular,
    solve_basis_dependencies,
    vertex_vectors,
)

SQUARE_D = [[0, 1, 1, 2], [1, 0, 2, 1], [1, 2, 0, 1], [2, 1, 1, 0]]


def test_from_coords_rejects_bad_input():
    with pytest.raises(dr.TooFewVertices):
        dr.from_coords(2, [[0, 0], [1, 0]])
    with pytest.raises(dr.DuplicateVertex):
        dr.from_coords(2, [[0, 0], [1, 0], [0, 1], [0, 0]])
    with pytest.raises(dr.DimensionDeficient):
        dr.from_coords(2, [[0, 0], [1, 0], [2, 0]])
    with pytest.raises(dr.DimensionDeficient):
        dr.from_coords(2, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])


def test_affine_basis_indices(square):
    assert square.frame.basis == (1, 2, 3)
    # vertex 1 lies on the line through vertices 2 and 3, so the scan from the end skips it
    degenerate_last = dr.from_coords(2, [[0, 1], [0, 0], [1, 0], [2, 0]])
    assert degenerate_last.frame.basis == (0, 2, 3)


def _relabeled(p, rng):
    verts = list(p.vertices)
    rng.shuffle(verts)
    return dr.from_coords(p.dim, verts)


def _transformed(build, n):
    return lambda rng: dr.transform_basis(build(n), random_unimodular(n, rng))


FRAME_INSTANCES = {
    "random": random_polytope,
    "half_integer": random_half_integer_polytope,
    "halfcube5": _transformed(dr.half_cube, 5),
    "cube4": _transformed(dr.cube, 4),
    "cross5": _transformed(dr.cross_polytope, 5),
}


def _assert_frame_matches_the_oracles(p, name):
    """The frame's basis is the incremental scan's, its dependencies those of one solve per vertex.

    Each dependency is its support: w first and positive, then basis
    vertices above w, content 1.
    """
    basis = incremental_affine_basis(p)
    assert p.frame.basis == tuple(basis), name
    assert vertex_vectors(p, p.frame.dependencies) == solve_basis_dependencies(p, basis), name
    for y in p.frame.dependencies:
        vs = [v for v, _ in y]
        (w, lead), rest = y[0], y[1:]
        assert len(y) <= p.dim + 2, name
        assert all(a < b for a, b in zip(vs, vs[1:])), name
        assert w not in basis and lead > 0, name
        assert all(v in basis and v > w and c for v, c in rest), name
        assert gcd(*(c for _, c in y)) == 1, name


@settings(max_examples=60)
@given(st.integers(0, 10_000), st.sampled_from(sorted(FRAME_INSTANCES)))
def test_affine_basis_indices_matches_the_incremental_scan(seed, name):
    rng = random.Random(seed)
    _assert_frame_matches_the_oracles(_relabeled(FRAME_INSTANCES[name](rng), rng), name)


def test_affine_basis_indices_matches_the_incremental_scan_on_the_families():
    rng = random.Random(1)
    for name, p in family_corpus():
        for q in (p, _relabeled(p, rng)):
            _assert_frame_matches_the_oracles(q, name)


def test_frame_is_cached_outside_equality_and_hashing(square):
    frame = square.frame
    assert square.frame is frame
    assert (frame.basis, vertex_vectors(square, frame.dependencies)) == ((1, 2, 3), ((1, -1, -1, 1),))
    assert frame.dependencies is frame.dependencies
    fresh = dr.from_coords(2, square.vertices)
    assert fresh == square and hash(fresh) == hash(square)
    assert fresh.frame is not frame


def test_from_coords_basicity_and_verify_build_no_dependency_vector():
    p = dr.half_cube(6)
    dr.classify_basicity(p)
    dr.verify_empty_sphere(p, dr.canonical_gram("halfcube", 6), window=0)
    # a cached_property lands in the instance dict on its first read
    assert "dependencies" not in vars(p.frame)
    assert len(p.frame.dependencies) == p.nvertices - p.dim - 1
    assert "dependencies" in vars(p.frame)


def test_distance_matrix(square):
    ident = [[1, 0], [0, 1]]
    d = dr.distance_matrix(square, ident)
    assert d == [[Fraction(x) for x in row] for row in SQUARE_D]


def test_validate_distance_matrix_rejects():
    with pytest.raises(dr.WrongSize):
        dr.validate_distance_matrix([[0, 1], [1, 0], [1, 1]])
    with pytest.raises(dr.InputError):
        dr.validate_distance_matrix([[0, 1], [2, 0]])
    with pytest.raises(dr.InputError):
        dr.validate_distance_matrix([[1, 1], [1, 0]])
    with pytest.raises(dr.InputError):
        dr.validate_distance_matrix([[0, -1], [-1, 0]])


def test_circumcenter_square(square):
    cd = dr.circumcenter(square, [[1, 0], [0, 1]])
    assert cd.center == (Fraction(1, 2), Fraction(1, 2))
    assert cd.radius_sq == Fraction(1, 2)


def test_gram_form_shape_errors_are_domain_errors(square):
    with pytest.raises(dr.WrongSize):
        dr.circumcenter(square, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(dr.WrongSize):
        dr.circumcenter(square, [[1, 0], [0]])
    with pytest.raises(dr.InputError):
        dr.circumcenter(square, [[1, 2], [3, 1]])


def test_circumcenter_not_cospherical(square):
    with pytest.raises(dr.NotCospherical):
        dr.circumcenter(square, [[3, -1], [-1, 1]])
    with pytest.raises(dr.NotCospherical):
        dr.circumcenter(square, [[2, 1], [1, 2]])


@pytest.mark.parametrize("gram", [[[1, 0], [0, 0]], [[1, 0], [0, -1]], [[1, 1], [1, 1]]])
def test_forms_that_are_not_positive_definite_are_rejected(square, gram):
    # under [[1, 0], [0, 0]] the square would be cospherical about (1/2, 0)
    for check in (
        lambda: dr.circumcenter(square, gram),
        lambda: dr.distance_matrix(square, gram),
        lambda: dr.verify_empty_sphere(square, gram),
        lambda: dr.check_lemma_hy(square, gram, [1, 0, 0, 0]),
        lambda: dr.check_symmetric_reduction(square, gram),
    ):
        with pytest.raises(dr.NotPositiveDefinite):
            check()


def test_zero_dimensional_polytope():
    point = dr.from_coords(0, [()])
    assert point.frame.basis == (0,)
    assert dr.rank_of(point) == 0
    assert dr.bspace_basis(point) == []
    assert dr.nrd([point]) == 0
    assert dr.circumcenter(point, []) == dr.Circumdata(center=(), radius_sq=Fraction(0))


def test_central_symmetry(square):
    sym, pairing = dr.is_centrally_symmetric(square)
    assert sym
    assert pairing == {0: 3, 1: 2, 2: 1, 3: 0}
    sym, pairing = dr.is_centrally_symmetric(dr.simplex(2))
    assert not sym and pairing is None


GRAMS = gram_corpus()


@given(st.integers(0, 10_000), st.booleans())
def test_central_symmetry_matches_circumcenter_oracle(seed, reflect):
    rng = random.Random(seed)
    _, p, g = rng.choice(GRAMS)
    order = list(range(p.nvertices))
    rng.shuffle(order)
    p = dr.from_coords(p.dim, [p.vertices[i] for i in order])
    shift = [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(p.dim)]
    p = dr.translate(p, shift, reflect=reflect)
    assert dr.is_centrally_symmetric(p) == circumcenter_symmetry(p, g)


def test_from_distances_square():
    p, gram = dr.from_distances(SQUARE_D)
    assert p.dim == 2
    assert gram == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert p.vertices == (
        (Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(1)),
    )
    assert dr.distance_matrix(p, gram) == [[Fraction(x) for x in row] for row in SQUARE_D]


def test_from_distances_rejects():
    # violates the quadrilateral of squared distances: form is indefinite
    with pytest.raises(dr.NotPositiveDefinite):
        dr.from_distances([[0, 1, 1], [1, 0, 9], [1, 9, 0]])
    with pytest.raises(dr.TooFewVertices):
        dr.from_distances([[0]])


def test_from_distances_rechecks_as_an_internal_invariant(monkeypatch):
    # a form that passes is always realized (the proof is in the docstring), so
    # a failed re-check or rejected coordinates are bugs, not bad input
    real = model._distance_matrix

    def bumped(p, w, s):
        num, scale = real(p, w, s)
        num[0][1] += 1
        return num, scale

    monkeypatch.setattr(model, "_distance_matrix", bumped)
    with pytest.raises(dr.InternalError, match="do not reproduce the distance matrix"):
        dr.from_distances(SQUARE_D)
    monkeypatch.setattr(model, "_distance_matrix", real)

    def rejecting(dim, vertices):
        raise dr.DuplicateVertex("vertex 3 repeats an earlier vertex")

    monkeypatch.setattr(model, "from_coords", rejecting)
    with pytest.raises(dr.InternalError, match="vertex 3 repeats"):
        dr.from_distances(SQUARE_D)


def test_verify_empty_sphere_square(square):
    rep = dr.verify_empty_sphere(square, [[1, 0], [0, 1]], window=2)
    assert rep.ok()
    assert rep.points_checked == 36
    assert rep.strict_violations == ()
    assert rep.on_sphere_nonvertices == ()
    assert rep.caveats == ()
    assert "heuristic" in rep.note


def test_verify_empty_sphere_simplex_boundary_point():
    rep = dr.verify_empty_sphere(dr.simplex(2), [[1, 0], [0, 1]], window=1)
    assert rep.ok()
    assert rep.strict_violations == ()
    assert rep.on_sphere_nonvertices == ((1, 1),)


def test_verify_empty_sphere_window_zero(square):
    rep = dr.verify_empty_sphere(square, [[1, 0], [0, 1]], window=0)
    assert rep.box == ((0, 1), (0, 1))
    assert rep.points_checked == 4
    assert rep.ok()
    with pytest.raises(dr.InputError):
        dr.verify_empty_sphere(square, [[1, 0], [0, 1]], window=-1)


def test_verify_flags_sublattice():
    doubled = dr.from_coords(2, [[0, 0], [2, 0], [0, 2], [2, 2]])
    rep = dr.verify_empty_sphere(doubled, [[1, 0], [0, 1]], window=0)
    assert any("proper sublattice" in c for c in rep.caveats)
    # center (1,1) is an interior integer point of the doubled square
    assert (1, 1) in rep.strict_violations

    halves = dr.from_coords(1, [[0], [Fraction(1, 2)]])
    rep = dr.verify_empty_sphere(halves, [[1]], window=1)
    assert any("not all integral" in c for c in rep.caveats)


def test_verify_detects_interior_point():
    # 3x1 rectangle: (1,0) and (2,0) land strictly inside the circumsphere
    rect = dr.from_coords(2, [[0, 0], [3, 0], [0, 1], [3, 1]])
    rep = dr.verify_empty_sphere(rect, [[1, 0], [0, 1]], window=0)
    assert not rep.ok()
    assert (1, 0) in rep.strict_violations and (2, 0) in rep.strict_violations


@settings(max_examples=25)
@given(st.integers(0, 10_000))
def test_distance_matrix_translation_invariant(seed):
    rng = random.Random(seed)
    p = random_polytope(rng, max_dim=3)
    ident = [[int(i == j) for j in range(p.dim)] for i in range(p.dim)]
    a = [rng.randrange(-4, 5) for _ in range(p.dim)]
    q = dr.translate(p, a)
    assert dr.distance_matrix(p, ident) == dr.distance_matrix(q, ident)


@given(st.integers(0, 10_000))
def test_distance_matrix_matches_the_fraction_oracle(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 5)
    while True:
        verts = {tuple(Fraction(rng.randrange(-6, 7), rng.choice((1, 2, 3, 5))) for _ in range(n))
                 for _ in range(rng.randrange(n + 1, n + 5))}
        try:
            p = dr.from_coords(n, sorted(verts))
            break
        except dr.DelrankError:
            continue
    # L D L^T with L unit lower triangular: positive definite for rational D > 0
    low = [[Fraction(int(i == j)) if j >= i else Fraction(rng.randrange(-3, 4), rng.choice((1, 2, 3, 5)))
            for j in range(n)] for i in range(n)]
    diag = [Fraction(rng.randrange(1, 7), rng.choice((1, 2, 3, 5))) for _ in range(n)]
    gram = [[sum(low[i][k] * diag[k] * low[j][k] for k in range(n)) for j in range(n)] for i in range(n)]
    assert dr.distance_matrix(p, gram) == fraction_distance_matrix(p, gram)


class NotRealizable(dr.DelrankError):
    """The greedy reconstruction found no realization."""


def greedy_from_distances(dm):
    """Reconstruction by a greedy scan of principal minors, one solve per vertex.

    The first vertices whose pairwise form is nonsingular become the
    coordinate basis; every vertex is solved for over it.
    """
    d = [[Fraction(x) for x in row] for row in dm]
    m = len(d)
    a = [[(d[i][0] + d[j][0] - d[i][j]) / 2 for j in range(1, m)] for i in range(1, m)]
    n = exact.rank(a)
    chosen = []
    for i in range(m - 1):
        trial = chosen + [i]
        if exact.rank([[a[r][c] for c in trial] for r in trial]) == len(trial):
            chosen = trial
        if len(chosen) == n:
            break
    if len(chosen) < n:
        raise NotRealizable("no nonsingular coordinate subset found")
    gram = [[a[r][c] for c in chosen] for r in chosen]
    if not exact.is_positive_definite(gram):
        raise dr.NotPositiveDefinite("reconstructed Gram form is not positive definite")
    coords = [[Fraction(0)] * n]
    for k in range(m - 1):
        z = exact.solve(gram, [a[r][k] for r in chosen])
        if z is None:
            raise NotRealizable(f"vertex {k + 1} has no coordinates")
        coords.append(z)
    p = dr.from_coords(n, coords)
    if dr.distance_matrix(p, gram) != d:
        raise NotRealizable("coordinates do not reproduce the distances")
    return p, gram


def random_form(n, rng):
    """Positive definite integer form L D L^T with L unit lower triangular."""
    low = [[int(i == j) if j >= i else rng.randrange(-2, 3) for j in range(n)] for i in range(n)]
    diag = [rng.randrange(1, 4) for _ in range(n)]
    return [[sum(low[i][k] * diag[k] * low[j][k] for k in range(n)) for j in range(n)] for i in range(n)]


@given(st.integers(0, 10_000))
def test_from_distances_matches_greedy_minor_scan(seed):
    rng = random.Random(seed)
    p = random_polytope(rng, max_dim=4)
    g = random_form(p.dim, rng)
    assert dr.is_positive_definite(g)
    perm = list(range(p.nvertices))
    rng.shuffle(perm)
    d0 = dr.distance_matrix(p, g)
    d = [[d0[i][j] for j in perm] for i in perm]
    assert dr.from_distances(d) == greedy_from_distances(d)
    # pull vertices 1 and 2 apart until their 2x2 Gram minor is negative
    a11, a22 = d[1][0], d[2][0]
    a12 = (a11 + a22 - d[1][2]) / 2
    bump = 2 * (abs(a12) + a11 + a22 + 1)
    d[1][2] += bump
    d[2][1] += bump
    with pytest.raises(dr.DelrankError):
        dr.from_distances(d)
    with pytest.raises(dr.DelrankError):
        greedy_from_distances(d)


def test_from_distances_checks_the_form_once(monkeypatch, p0data):
    d = [list(r) for r in p0data.distances]
    calls = count_calls(monkeypatch, exact, "is_positive_definite")
    dr.from_distances(d)
    assert len(calls) == 1
    dr.from_distances(SQUARE_D)
    assert len(calls) == 2
    with pytest.raises(dr.NotPositiveDefinite, match="reconstructed Gram form is not positive definite"):
        dr.from_distances([[0, 1, 1], [1, 0, 9], [1, 9, 0]])
    assert len(calls) == 3


def test_from_distances_then_distance_matrix_roundtrip(p0data):
    assert dr.distance_matrix(p0data.polytope, [list(r) for r in p0data.gram]) == [
        list(r) for r in p0data.distances
    ]
