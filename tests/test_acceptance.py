"""Acceptance gate: one test per published claim, exact comparisons only.

Each criterion is a single test so `pytest -v` prints one pass/fail line
per claim.  Timing bounds are asserted inside the relevant tests.
"""

import itertools
import random
import time

import pytest
from fractions import Fraction

import delrank as dr
from tests import helpers


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start


def test_criterion_01_simplex_ranks():
    """Simplices: rank n(n+1)/2 for n = 1..8, under a second each."""
    for n in range(1, 9):
        value, elapsed = timed(dr.rank_of, dr.simplex(n))
        assert value == n * (n + 1) // 2, f"simplex({n})"
        assert elapsed < 1.0, f"simplex({n}) took {elapsed:.2f}s"


def test_criterion_02_cross_ranks():
    """Cross polytopes: rank n(n+1)/2 - (n-1) for n = 2..8, under a second each."""
    for n in range(2, 9):
        value, elapsed = timed(dr.rank_of, dr.cross_polytope(n))
        assert value == n * (n + 1) // 2 - (n - 1), f"cross({n})"
        assert elapsed < 1.0, f"cross({n}) took {elapsed:.2f}s"


def test_criterion_03_half_cube_ranks():
    """Half cubes: ranks 6, 7, then n for n = 5..8, within 30 s overall."""
    expected = {3: 6, 4: 7, 5: 5, 6: 6, 7: 7, 8: 8}
    total = 0.0
    for n in range(3, 9):
        value, elapsed = timed(dr.rank_of, dr.half_cube(n))
        total += elapsed
        assert value == expected[n], f"half_cube({n})"
    assert total < 30.0, f"half cube ranks took {total:.2f}s"


def test_criterion_04_half_cube_basis_diagonal():
    """Half cubes from dimension 5 on: the free form space is n diagonal matrices."""
    for n in range(5, 9):
        basis = dr.bspace_basis(dr.half_cube(n))
        assert len(basis) == n, f"half_cube({n})"
        for mat in basis:
            for i in range(n):
                for j in range(n):
                    if i != j:
                        assert mat[i][j] == 0, f"half_cube({n}) off-diagonal"


def test_criterion_05_p0_suite():
    """The 14-vertex instance: dependency, both rank routes, deletions, basis
    classification, and the positive definite form, within a minute."""
    start = time.perf_counter()
    data = dr.p0()
    p = data.polytope

    mod = helpers.vertex_vectors(p, dr.dependency_module(p))
    assert len(mod) == 1
    expected = (3, 3, 3, -3, -3, -3, -2, -2, -2, -2, 2, 2, 2, 2)
    vec = mod[0]
    assert vec == expected or vec == tuple(-c for c in expected)

    assert dr.rank_of(p) == 77
    assert dr.face_dimension(p) == 77

    for w in range(14):
        keep = [i for i in range(14) if i != w]
        assert dr.restricted_face_dimension(p, keep) == 78
        assert dr.is_affine_basis(p, keep, ring="Q")
        assert not dr.is_affine_basis(p, keep, ring="Z")

    cls = dr.classify_basicity(p)
    assert cls.kind == dr.Q_BASIC_ONLY
    assert cls.exhaustive
    assert cls.tested == 14

    assert dr.is_positive_definite(data.gram)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"suite took {elapsed:.2f}s"


def test_criterion_06_two_routes_agree():
    """Dependency-system rank equals hypermetric face dimension and the rank
    of the quadrics through the vertices on every family instance up to 128
    vertices and on 50 random small configurations."""
    for name, p in helpers.family_corpus():
        assert dr.rank_of(p) == dr.face_dimension(p) == helpers.quadric_rank(p), name
    rng = random.Random(60)
    for i in range(50):
        p = helpers.random_polytope(rng, max_dim=4)
        assert dr.rank_of(p) == dr.face_dimension(p) == helpers.quadric_rank(p), f"random #{i}"


def test_criterion_07_invariance():
    """Rank is unchanged by unimodular coordinate changes, translations and
    reflections, and vertex relabelings."""
    cases = [
        ("square", helpers.square()),
        ("cross4", dr.cross_polytope(4)),
        ("halfcube5", dr.half_cube(5)),
        ("p0", dr.p0().polytope),
    ]
    rng = random.Random(70)
    for name, p in cases:
        base = dr.rank_of(p)
        for _ in range(20):
            m = helpers.random_unimodular(p.dim, rng)
            assert dr.rank_of(helpers.transform_basis(p, m)) == base, name
        for _ in range(20):
            a = [rng.randint(-5, 5) for _ in range(p.dim)]
            moved = helpers.translate(p, a, reflect=rng.random() < 0.5)
            assert dr.rank_of(moved) == base, name
        for _ in range(10):
            order = list(range(p.nvertices))
            rng.shuffle(order)
            q = dr.from_coords(p.dim, [list(p.vertices[i]) for i in order])
            assert dr.rank_of(q) == base, name


def _biconditional_case(p, gram):
    # all-integer fast path over the window; both sides computed from
    # independent data (distances vs coordinates)
    d = dr.distance_matrix(p, gram)
    dm = []
    for row in d:
        assert all(x.denominator == 1 for x in row)
        dm.append([int(x) for x in row])
    verts = [tuple(int(c) for c in v) for v in p.vertices]
    vset = set(verts)
    nv, dim = len(verts), p.dim
    pairs = [
        (u, v, dm[u][v]) for u in range(nv) for v in range(u + 1, nv) if dm[u][v]
    ]
    checked = equalities = 0
    witnesses = []
    for b in itertools.product(range(-2, 3), repeat=nv):
        if sum(b) != 1:
            continue
        value = 0
        for u, v, duv in pairs:
            if b[u] and b[v]:
                value += b[u] * b[v] * duv
        z = tuple(
            sum(b[i] * verts[i][k] for i in range(nv) if b[i]) for k in range(dim)
        )
        assert value <= 0, (b, value)
        assert (value == 0) == (z in vset), (b, value, z)
        checked += 1
        if value == 0:
            equalities += 1
        if len(witnesses) < 400 and (value == 0 or len(witnesses) % 8 == 0):
            witnesses.append(b)
    return checked, equalities, witnesses


def test_criterion_08_hypermetric_equality_iff_vertex():
    """On the square, both small cross polytopes, and the 4-half-cube: the
    pair sum vanishes exactly when the combination point is a vertex, for
    every integer coefficient vector in [-2, 2] summing to one."""
    cases = [
        ("square", dr.cube(2), dr.canonical_gram("cube", 2)),
        ("cross3", dr.cross_polytope(3), dr.canonical_gram("cross", 3)),
        ("cross4", dr.cross_polytope(4), dr.canonical_gram("cross", 4)),
        ("halfcube4", dr.half_cube(4), dr.canonical_gram("halfcube", 4)),
    ]
    rng = random.Random(80)
    for name, p, gram in cases:
        # precondition: the bounded-window emptiness heuristic must pass
        rep = dr.verify_empty_sphere(p, gram, window=1)
        assert rep.ok(), name
        checked, equalities, witnesses = _biconditional_case(p, gram)
        assert checked > 0 and equalities >= p.nvertices, name
        # tie a sample back to the library entry point
        sample = witnesses if len(witnesses) <= 50 else rng.sample(witnesses, 50)
        dmat = dr.distance_matrix(p, gram)
        for b in sample:
            report = dr.check_lemma_hy(p, gram, list(b))
            assert report.consistent, (name, b)
            assert report.value == dr.eval_hypermetric(dmat, list(b))
            assert report.equality_holds == (report.value == 0)
            _, is_vertex = dr.representation_point(p, list(b))
            assert report.point_is_vertex == is_vertex


def test_criterion_09_rank_one_needs_many_vertices():
    """Any corpus instance of minimal rank has at least n(n+3)/2 vertices."""
    hits = 0
    for name, p in helpers.family_corpus():
        if dr.rank_of(p) == 1:
            hits += 1
            n = p.dim
            assert p.nvertices >= n * (n + 3) // 2, name
            assert dr.is_extreme(p), name
    assert hits >= 1  # the segment keeps this from being vacuous


def test_criterion_10_symmetric_reduction():
    """The square is rejected with the section-vertex condition named; every
    applicable corpus instance satisfies the rank inequality, checked by
    recomputation on the section."""
    report = dr.check_symmetric_reduction(helpers.square(), dr.canonical_gram("cube", 2))
    assert not report.applicable
    assert "h3" in report.failed

    p, gram = helpers.reduction_instance()
    report = dr.check_symmetric_reduction(p, gram)
    assert report.applicable
    assert report.failed == ()
    assert report.inequality_holds
    assert report.rank_full <= report.rank_section

    applicable = 1
    for name, p, gram in helpers.gram_corpus():
        rep = dr.check_symmetric_reduction(p, gram)
        if rep.applicable:
            applicable += 1
            assert rep.inequality_holds, name
            assert rep.rank_full <= rep.rank_section, name
    assert applicable >= 1


def test_criterion_11_deterministic_reports(tmp_path, capsys):
    """Rerunning every corpus file through the reporter yields byte-identical
    output."""
    from delrank import cli

    specs = [
        (["family", "simplex", "3"], []),
        (["family", "cross", "3"], []),
        (["family", "halfcube", "4"], []),
        (["family", "halfcube", "5"], []),
        (["family", "cube", "2"], []),
        (["family", "p0"], ["--window", "0"]),
    ]
    for make, extra in specs:
        target = str(tmp_path / ("_".join(make[1:]) + ".json"))
        assert cli.main(make + ["--output", target]) == 0
        capsys.readouterr()
        runs = []
        for _ in range(2):
            assert cli.main(["report", target] + extra) == 0
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1], make
        assert runs[0].endswith("\n")
