"""The 14-vertex, 12-dimensional witness instance, end to end.

Expected values here were computed once with this code path cross-checked
against an independent dense elimination, then frozen.
"""

import pytest
from fractions import Fraction

import delrank as dr

EXPECTED_DEP = tuple(enumerate((3, 3, 3, -3, -3, -3, -2, -2, -2, -2, 2, 2, 2, 2)))


@pytest.fixture(scope="module")
def data():
    return dr.p0()


def test_dependency_vector(data):
    mod = dr.dependency_module(data.polytope)
    assert len(mod) == 1
    vec = mod[0]
    assert vec == EXPECTED_DEP or vec == tuple((v, -c) for v, c in EXPECTED_DEP)
    assert data.dependency == EXPECTED_DEP


def test_dependency_is_valid(data):
    p = data.polytope
    assert sum(c for _, c in EXPECTED_DEP) == 0
    n = p.dim
    for k in range(n):
        assert sum(c * p.vertices[v][k] for v, c in EXPECTED_DEP) == 0


def test_rank_both_routes(data):
    assert dr.rank_of(data.polytope) == 77
    assert dr.face_dimension(data.polytope) == 77


def test_restricted_rank_jumps_on_every_deletion(data):
    # dropping any single vertex kills the only dependency
    p = data.polytope
    for w in range(14):
        keep = [i for i in range(14) if i != w]
        assert dr.restricted_face_dimension(p, keep) == 78


def test_no_z_basis_but_all_q_bases(data):
    p = data.polytope
    for w in range(14):
        keep = [i for i in range(14) if i != w]
        assert dr.is_affine_basis(p, keep)
        assert dr.lattice_index(p, keep) != 1


def test_classify_basicity(data):
    result = dr.classify_basicity(data.polytope)
    assert result.kind == dr.Q_BASIC_ONLY
    assert result.exhaustive
    assert result.tested == 14
    assert result.witness is None


def test_lattice_index_matches_dependency_weights(data):
    p = data.polytope
    counts = {}
    for w, c in EXPECTED_DEP:
        keep = [i for i in range(14) if i != w]
        idx = dr.lattice_index(p, keep)
        assert idx == abs(c)
        counts[idx] = counts.get(idx, 0) + 1
    assert counts == {3: 6, 2: 8}


def test_not_centrally_symmetric(data):
    flag, pairing = dr.is_centrally_symmetric(data.polytope)
    assert not flag
    assert pairing is None


def test_empty_sphere_window_zero(data):
    report = dr.verify_empty_sphere(data.polytope, data.gram, window=0)
    assert report.points_checked == 31104
    assert len(report.strict_violations) == 0
    assert report.ok()
    assert any("integral" in c for c in report.caveats)


def test_distance_system_on_frozen_dependency(data):
    d = [list(row) for row in data.distances]
    assert dr.check_dist_system(d, EXPECTED_DEP)
    assert dr.check_negative_type(d, EXPECTED_DEP)


def test_gram_positive_definite(data):
    assert dr.is_positive_definite(data.gram)


def test_circumcenter_exists(data):
    c = dr.circumcenter(data.polytope, data.gram)
    assert c.radius_sq > 0
    # every vertex is at the common squared distance from the center
    g = data.gram
    p = data.polytope
    for v in p.vertices:
        diff = [Fraction(v[k]) - c.center[k] for k in range(12)]
        val = sum(
            diff[i] * g[i][j] * diff[j] for i in range(12) for j in range(12)
        )
        assert val == c.radius_sq


def test_extreme(data):
    # rank 77 > 1, so nowhere near extreme
    assert not dr.is_extreme(data.polytope)
