"""Polytope model: validation, circumspheres, distance reconstruction."""

import dataclasses
import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import delrank as dr
from delrank import cli, exact, model
from tests.helpers import (
    circumcenter_symmetry,
    count_calls,
    definite_check_from_distances,
    family_corpus,
    fraction_circumcenter,
    fraction_distance_matrix,
    fraction_from_coords,
    fraction_from_distances,
    fraction_norm_sq,
    fraction_validate_distance_matrix,
    fraction_validate_gram_shape,
    gram_corpus,
    incremental_affine_basis,
    random_half_integer_polytope,
    random_polytope,
    random_unimodular,
    relabeled,
    rref_from_distances,
    solve_basis_dependencies,
    transform_basis,
    translate,
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


def _transformed(build, n):
    return lambda rng: transform_basis(build(n), random_unimodular(n, rng))


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
    _assert_frame_matches_the_oracles(relabeled(FRAME_INSTANCES[name](rng), rng), name)


def test_affine_basis_indices_matches_the_incremental_scan_on_the_families():
    rng = random.Random(1)
    for name, p in family_corpus():
        for q in (p, relabeled(p, rng)):
            _assert_frame_matches_the_oracles(q, name)


def test_frame_is_cached_outside_equality_and_hashing(square):
    frame = square.frame
    assert square.frame is frame
    assert (frame.basis, vertex_vectors(square, frame.dependencies)) == ((1, 2, 3), ((1, -1, -1, 1),))
    assert [f.name for f in dataclasses.fields(frame)] == ["basis", "dependencies"]
    fresh = dr.from_coords(2, square.vertices)
    assert fresh == square and hash(fresh) == hash(square)
    assert fresh.frame is not frame


def test_distance_matrix(square):
    ident = [[1, 0], [0, 1]]
    d = dr.distance_matrix(square, ident)
    assert d == [[Fraction(x) for x in row] for row in SQUARE_D]


def test_validate_distance_matrix_rejects():
    with pytest.raises(dr.WrongSize):
        dr.from_distances([[0, 1], [1, 0], [1, 1]])
    with pytest.raises(dr.InputError):
        dr.from_distances([[0, 1], [2, 0]])
    with pytest.raises(dr.InputError):
        dr.from_distances([[1, 1], [1, 0]])
    with pytest.raises(dr.InputError):
        dr.from_distances([[0, -1], [-1, 0]])


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


def test_singular_circumcenter_system_is_an_internal_error(monkeypatch, square):
    # over an affine basis and a definite form the system is regular, so no input can make it fail
    monkeypatch.setattr(exact, "solve", lambda a, b: None)
    with pytest.raises(dr.InternalError, match="circumcenter system is singular"):
        dr.circumcenter(square, [[1, 0], [0, 1]])


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
        lambda: dr.check_lemma_hy(square, gram, [(0, 1)]),
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
    p = translate(p, shift, reflect=reflect)
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

    def rejecting(dim, rows, k):
        raise dr.DuplicateVertex("vertex 3 repeats an earlier vertex")

    monkeypatch.setattr(model, "_from_integers", rejecting)
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


# scaling the form moves no point across the sphere; the scan compares in integers over the form's denominator
SCALED_IDENTITIES = ([[1, 0], [0, 1]], [[Fraction(1, 3), 0], [0, Fraction(1, 3)]], [[3, 0], [0, 3]])


def test_verify_empty_sphere_simplex_boundary_point():
    for gram in SCALED_IDENTITIES:
        rep = dr.verify_empty_sphere(dr.simplex(2), gram, window=1)
        assert rep.ok()
        assert rep.strict_violations == ()
        assert rep.on_sphere_nonvertices == ((1, 1),)


def test_verify_empty_sphere_window_zero(square):
    rep = dr.verify_empty_sphere(square, [[1, 0], [0, 1]], window=0)
    assert rep.box == ((0, 1), (0, 1))
    assert rep.points_checked == 4
    assert rep.ok()
    for p, gram, window in ((square, [[1, 0], [0, 1]], -1), (dr.cube(3), dr.canonical_gram("cube", 3), 0.5)):
        with pytest.raises(dr.InputError):
            dr.verify_empty_sphere(p, gram, window=window)


def test_verify_empty_sphere_refuses_a_bool_window():
    # True is no window of 1, as it is no vertex index
    with pytest.raises(dr.InputError, match="window must be an integer"):
        dr.verify_empty_sphere(dr.cube(3), dr.canonical_gram("cube", 3), window=True)


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
    for gram in SCALED_IDENTITIES:
        rep = dr.verify_empty_sphere(rect, gram, window=0)
        assert not rep.ok()
        assert (1, 0) in rep.strict_violations and (2, 0) in rep.strict_violations


@settings(max_examples=25)
@given(st.integers(0, 10_000))
def test_distance_matrix_translation_invariant(seed):
    rng = random.Random(seed)
    p = random_polytope(rng, max_dim=3)
    ident = [[int(i == j) for j in range(p.dim)] for i in range(p.dim)]
    a = [rng.randrange(-4, 5) for _ in range(p.dim)]
    q = translate(p, a)
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


def _large_distances(name):
    """The distance matrix of p0 or of cross(8) under its canonical form."""
    if name == "p0":
        return [list(row) for row in dr.p0().distances]
    return dr.distance_matrix(dr.cross_polytope(8), dr.canonical_gram("cross", 8))


@given(st.integers(0, 10_000), st.sampled_from(("form", "p0", "cross8")))
def test_from_distances_matches_greedy_minor_scan(seed, source):
    rng = random.Random(seed)
    if source == "form":
        p = random_polytope(rng, max_dim=4)
        g = random_form(p.dim, rng)
        assert dr.is_positive_definite(g)
        d = _relabeled_matrix(dr.distance_matrix(p, g), rng)
    else:
        d = _relabeled_matrix(_large_distances(source), rng)
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
    # definiteness is read off the Schur diagonals of the pivot search: no separate definite check
    calls = count_calls(monkeypatch, exact, "is_positive_definite")
    dr.from_distances(d)
    dr.from_distances(SQUARE_D)
    with pytest.raises(dr.NotPositiveDefinite, match="reconstructed Gram form is not positive definite"):
        dr.from_distances([[0, 1, 1], [1, 0, 9], [1, 9, 0]])
    assert len(calls) == 0


@pytest.mark.parametrize("command", ["verify", "report"])
def test_commands_check_the_form_of_a_file_once(monkeypatch, tmp_path, capsys, command):
    vertices, distances = tmp_path / "hc4.json", tmp_path / "hc4d.json"
    assert cli.main(["family", "halfcube", "4", "--output", str(vertices)]) == 0
    d = dr.distance_matrix(dr.half_cube(4), dr.canonical_gram("halfcube", 4))
    distances.write_text(json.dumps({"dim": 4, "distances": [[str(x) for x in row] for row in d]}))
    calls = count_calls(monkeypatch, exact, "is_positive_definite")
    # a file's gram field is checked once; a distance file's form by the loader's own pivot search
    for path, checks in ((vertices, 1), (distances, 0)):
        calls.clear()
        assert cli.main([command, str(path), "--window", "0"]) == 0
        assert len(calls) == checks, path.name
    capsys.readouterr()


def test_from_distances_then_distance_matrix_roundtrip(p0data):
    assert dr.distance_matrix(p0data.polytope, [list(r) for r in p0data.gram]) == [
        list(r) for r in p0data.distances
    ]


ORACLE_POLYTOPES = {
    "simplex2": lambda: dr.simplex(2),
    "simplex3": lambda: dr.simplex(3),
    "cube2": lambda: dr.cube(2),
    "cube3": lambda: dr.cube(3),
    "cross3": lambda: dr.cross_polytope(3),
}
BREAKS = ("none", "ragged", "non-square", "asymmetric", "diagonal", "sign", "stretch")
rationals = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3)))
positive_rationals = st.builds(Fraction, st.integers(1, 6), st.sampled_from((1, 2, 3)))


def _drawn_form(data, n):
    """L D L^T with L unit lower triangular, or D alone: positive definite."""
    diagonal = data.draw(st.booleans())
    low = [[Fraction(int(i == j)) if j >= i or diagonal else data.draw(rationals) for j in range(n)] for i in range(n)]
    diag = [data.draw(positive_rationals) for _ in range(n)]
    return [[sum(low[i][k] * diag[k] * low[j][k] for k in range(n)) for j in range(n)] for i in range(n)]


def _broken_and_mixed(data, m):
    """m broken in at most one place, its entries drawn as Fractions, strings or (when integral) ints."""
    m = [list(row) for row in m]
    how = data.draw(st.sampled_from(BREAKS))
    i, j = data.draw(st.lists(st.integers(0, len(m) - 1), min_size=2, max_size=2, unique=True))
    if how == "ragged":
        m[i].pop()
    elif how == "non-square":
        m = [row[:-1] for row in m]
    elif how == "asymmetric":
        m[i][j] += 1
    elif how == "diagonal":
        m[i][i] = 1 - m[i][i]
    elif how == "sign":
        m[i][j] = m[j][i] = -m[i][j]
    elif how == "stretch":
        m[i][j] = m[j][i] = 4 * m[i][j] + 1
    return [
        [data.draw(st.sampled_from([x, str(x)] + ([int(x)] if x.denominator == 1 else []))) for x in row]
        for row in m
    ]


def _outcome(f, *args):
    try:
        return f(*args)
    except dr.DelrankError as err:
        return type(err)


@given(st.data())
def test_gram_check_on_integers_matches_the_fraction_oracle(data):
    p = ORACLE_POLYTOPES[data.draw(st.sampled_from(sorted(ORACLE_POLYTOPES)))]()
    gram = _broken_and_mixed(data, _drawn_form(data, p.dim))
    want = _outcome(fraction_validate_gram_shape, p, gram)
    got = _outcome(model._validate_gram_shape, p, gram)
    if isinstance(want, type):
        assert got is want
        return
    w, s = got
    assert [[Fraction(x, s) for x in row] for row in w] == want
    assert dr.distance_matrix(p, gram) == fraction_distance_matrix(p, want)
    cd = _outcome(dr.circumcenter, p, gram)
    assert cd == _outcome(dr.circumcenter, p, want)
    if not isinstance(cd, type):
        diffs = [[x - c for x, c in zip(v, cd.center)] for v in p.vertices]
        assert all(fraction_norm_sq(want, u) == cd.radius_sq for u in diffs)


@given(st.data())
def test_distance_check_on_integers_matches_the_fraction_oracle(data):
    p = ORACLE_POLYTOPES[data.draw(st.sampled_from(sorted(ORACLE_POLYTOPES)))]()
    dm = _broken_and_mixed(data, fraction_distance_matrix(p, _drawn_form(data, p.dim)))
    want = _outcome(fraction_validate_distance_matrix, dm)
    got = _outcome(model._validate_distance_matrix, dm)
    if isinstance(want, type):
        assert got is want
        assert _outcome(dr.from_distances, dm) is want
        return
    d, t = got
    assert [[Fraction(x, t) for x in row] for row in d] == want
    rebuilt = _outcome(dr.from_distances, dm)
    assert rebuilt == _outcome(dr.from_distances, want)
    if not isinstance(rebuilt, type):
        assert fraction_distance_matrix(*rebuilt) == want


def _placed(data, p):
    """p's vertices relabeled, scaled along each axis and translated, with "p/q" entries among the scales and shifts;
    and the scales."""
    order = data.draw(st.permutations(range(p.nvertices)))
    scales = [data.draw(positive_rationals) for _ in range(p.dim)]
    shift = [data.draw(rationals) for _ in range(p.dim)]
    return [[s * x + t for s, x, t in zip(scales, p.vertices[i], shift)] for i in order], scales


def _same_polytope(got, want):
    return got == want and hash(got) == hash(want) and got.vertices == want.vertices and got.frame == want.frame


COORD_BREAKS = ("none", "duplicate", "too-few", "long-row", "flat")


@given(st.data())
def test_from_coords_on_integers_matches_the_fraction_oracle(data):
    p = ORACLE_POLYTOPES[data.draw(st.sampled_from(sorted(ORACLE_POLYTOPES)))]()
    verts, _ = _placed(data, p)
    how = data.draw(st.sampled_from(COORD_BREAKS))
    if how == "duplicate":
        verts.append(verts[data.draw(st.integers(0, len(verts) - 1))])
    elif how == "too-few":
        verts = verts[: p.dim]
    elif how == "long-row":
        verts[-1] = [*verts[-1], 0]
    elif how == "flat":
        verts = [[*v[:-1], 0] for v in verts]
    want = _outcome(fraction_from_coords, p.dim, verts)
    got = _outcome(dr.from_coords, p.dim, verts)
    if isinstance(want, type):
        assert got is want
        return
    assert _same_polytope(got, want)
    # integer input and the equal Fraction input give one polytope
    ints = [[int(x * want.denominator) for x in v] for v in verts]
    assert _same_polytope(dr.from_coords(p.dim, ints), dr.from_coords(p.dim, [[Fraction(x) for x in v] for v in ints]))
    assert _same_polytope(dr.from_coords(p.dim, ints), fraction_from_coords(p.dim, ints))


@given(st.data())
def test_from_distances_on_integers_matches_the_fraction_oracle(data):
    p = ORACLE_POLYTOPES[data.draw(st.sampled_from(sorted(ORACLE_POLYTOPES)))]()
    q = dr.from_coords(p.dim, _placed(data, p)[0])
    dm = fraction_distance_matrix(q, _drawn_form(data, p.dim))
    how = data.draw(st.sampled_from(("none", "asymmetric", "indefinite", "wrong-size")))
    if how == "asymmetric":
        dm[0][1] += 1
    elif how == "indefinite":
        # pull vertices 1 and 2 apart until their 2x2 Gram minor is negative
        a11, a22 = dm[1][0], dm[2][0]
        bump = 2 * (abs((a11 + a22 - dm[1][2]) / 2) + a11 + a22 + 1)
        dm[1][2] += bump
        dm[2][1] += bump
    elif how == "wrong-size":
        dm = [row[:-1] for row in dm]
    # entries as the loader hands them on: an int for an integer, a Fraction for "p/q"
    dm = [[int(x) if x.denominator == 1 else x for x in row] for row in dm]
    want = _outcome(fraction_from_distances, dm)
    got = _outcome(dr.from_distances, dm)
    if isinstance(want, type):
        assert got is want
        return
    assert _same_polytope(got[0], want[0])
    assert got[1] == want[1]


@given(st.data())
def test_circumcenter_on_integers_matches_the_fraction_oracle(data):
    _, p, g = data.draw(st.sampled_from(GRAMS))
    verts, scales = _placed(data, p)
    q = dr.from_coords(p.dim, verts)
    if data.draw(st.booleans()):
        # the form that keeps the scaled vertices cospherical
        g = [[x / (si * sj) for x, sj in zip(row, scales)] for row, si in zip(g, scales)]
    else:
        g = _drawn_form(data, p.dim)
    assert _outcome(dr.circumcenter, q, g) == _outcome(fraction_circumcenter, q, g)


# Gram matrices that are not semidefinite although every pivot row of the search gives a definite form: the first
# two rebuild a repeated vertex, the third rebuilds coordinates that fail the re-check
NOT_SEMIDEFINITE = (
    [[0, 1, 4, 4, 4], [1, 0, 1, 1, 1], [4, 1, 0, 2, 5], [4, 1, 2, 0, 1], [4, 1, 5, 1, 0]],
    [[0, 4, 2, 5, 5], [4, 0, 2, 1, 1], [2, 2, 0, 5, 5], [5, 1, 5, 0, 6], [5, 1, 5, 6, 0]],
    [[0, 1, 4, 1], [1, 0, 1, 2], [4, 1, 0, 3], [1, 2, 3, 0]],
)


def _relabeled_matrix(d, rng):
    order = list(range(len(d)))
    rng.shuffle(order)
    return [[d[i][j] for j in order] for i in order]


def _rebuilt(f, dm):
    """What f makes of dm: the polytope's fields and frame and the form, or the error class and message."""
    try:
        p, form = f(dm)
    except (dr.DelrankError, dr.InternalError) as err:
        return type(err), str(err)
    return p, hash(p), p.vertices, p.frame, form


@pytest.mark.parametrize("dm", NOT_SEMIDEFINITE)
def test_non_semidefinite_matrices_are_not_positive_definite(dm, monkeypatch):
    # the pivot rows alone pass the definite check, so the rank of the whole matrix tells bad input from a bug; the
    # third matrix's last row pivots at a skipped row, which the pivot search refuses before any rank is taken
    calls = count_calls(monkeypatch, exact, "rank")
    with pytest.raises(dr.NotPositiveDefinite, match="^reconstructed Gram form is not positive definite$"):
        dr.from_distances(dm)
    assert len(calls) == (dm is not NOT_SEMIDEFINITE[2])
    assert _rebuilt(dr.from_distances, dm) == _rebuilt(rref_from_distances, dm)


def test_non_semidefinite_distance_file_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 3, "distances": [[str(x) for x in row] for row in NOT_SEMIDEFINITE[0]]}))
    assert cli.main(["rank", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "invalid input: reconstructed Gram form is not positive definite\n"


def test_from_distances_reduces_only_the_pivot_rows(monkeypatch):
    # the pivot search grows one reduced form row by row; the one rref is the frame's, on the n + 1 lifted rows
    calls = count_calls(monkeypatch, exact, "rref")
    for p, g in [(dr.half_cube(7), dr.canonical_gram("halfcube", 7)), (dr.p0().polytope, dr.p0().gram)]:
        calls.clear()
        q, _ = dr.from_distances(_relabeled_matrix(dr.distance_matrix(p, g), random.Random(1)))
        assert (q.dim, q.nvertices) == (p.dim, p.nvertices)
        assert len(calls) == 1 and len(calls[0][0]) == p.dim + 1


@given(st.integers(0, 10_000), st.sampled_from(("family", "p0", "cross8", "form", "integers")))
def test_pivot_search_matches_the_full_rref(seed, source):
    rng = random.Random(seed)
    if source == "family":
        _, p, g = rng.choice(GRAMS)
        dm = _relabeled_matrix(dr.distance_matrix(p, g), rng)
    elif source in ("p0", "cross8"):
        dm = _relabeled_matrix(_large_distances(source), rng)
    elif source == "form":
        p = random_polytope(rng, max_dim=4)
        dm = _relabeled_matrix(dr.distance_matrix(p, random_form(p.dim, rng)), rng)
    else:
        m = rng.randrange(3, 7)
        dm = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                dm[i][j] = dm[j][i] = rng.randrange(1, 7)
    assert _rebuilt(dr.from_distances, dm) == _rebuilt(rref_from_distances, dm)


def _pulled_apart(d, rng):
    """d with two vertices pulled apart: by 1, or by a bump that makes their 2x2 Gram minor negative when neither is
    vertex 0."""
    i, j = rng.sample(range(len(d)), 2)
    a11, a22 = d[i][0], d[j][0]
    bump = rng.choice((1, 2 * (abs((a11 + a22 - d[i][j]) / 2) + a11 + a22 + 1)))
    d[i][j] += bump
    d[j][i] += bump
    return d


def _lorentzian(rng):
    """The third NOT_SEMIDEFINITE matrix, the distances of 0, e_1, 2e_1 + e_2 + e_3 and e_2 under diag(1, 1, -1), with
    one to three more points of that space, all at positive distances: rank-deficient indefinite Gram matrices, on
    which a later row can pivot at a skipped one."""
    while True:
        extra = [tuple(rng.randrange(-2, 3) for _ in range(3)) for _ in range(rng.randrange(1, 4))]
        xs = [(0, 0, 0), (1, 0, 0), (2, 1, 1), (0, 1, 0), *extra]
        dm = [[(u[0] - v[0]) ** 2 + (u[1] - v[1]) ** 2 - (u[2] - v[2]) ** 2 for v in xs] for u in xs]
        if all(dm[i][j] > 0 for i in range(len(xs)) for j in range(i)):
            return dm


@given(st.integers(0, 10_000), st.sampled_from(("not-semidefinite", "lorentzian", "family", "p0", "integers", "form")))
@example(8, "lorentzian")  # a row pivots at a skipped one on a matrix of rank |T|: only C != T refuses it
def test_definiteness_from_the_schur_diagonals_matches_the_definite_check(seed, source):
    rng = random.Random(seed)
    if source == "not-semidefinite":
        dm = [list(row) for row in rng.choice(NOT_SEMIDEFINITE)]
    elif source == "lorentzian":
        dm = _lorentzian(rng)
    elif source == "family":
        _, p, g = rng.choice(GRAMS)
        dm = _pulled_apart(_relabeled_matrix(dr.distance_matrix(p, g), rng), rng)
    elif source == "p0":
        dm = _pulled_apart(_relabeled_matrix(_large_distances("p0"), rng), rng)
    elif source == "integers":
        m = rng.randrange(3, 8)
        dm = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                dm[i][j] = dm[j][i] = rng.randrange(1, 7)
    else:
        p = random_polytope(rng, max_dim=4)
        dm = _relabeled_matrix(dr.distance_matrix(p, random_form(p.dim, rng)), rng)
        if rng.random() < 0.5:
            dm = _pulled_apart(dm, rng)
    assert _rebuilt(dr.from_distances, dm) == _rebuilt(definite_check_from_distances, dm)
