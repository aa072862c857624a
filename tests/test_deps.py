"""Integral dependency module and per-vertex dependencies."""

import random
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import delrank as dr
from delrank import exact
from tests.helpers import (
    count_calls,
    dense_dependency_module,
    family_corpus,
    gram_corpus,
    random_half_integer_polytope,
    random_polytope,
    random_unimodular,
    solve_basis_dependencies,
    transform_basis,
    vertex_vectors,
)


def test_square_dependency(square):
    dep = dr.dependency_module(square)
    assert dep == (((0, 1), (1, -1), (2, -1), (3, 1)),)
    assert vertex_vectors(square, dep) == ((1, -1, -1, 1),)


def test_simplex_has_no_dependencies():
    for n in (1, 2, 3, 5):
        assert len(dr.dependency_module(dr.simplex(n))) == 0


def test_cross3_dependencies():
    p = dr.cross_polytope(3)
    assert vertex_vectors(p, dr.dependency_module(p)) == ((1, 0, -1, 1, 0, -1), (0, 1, -1, 0, 1, -1))


def test_dependency_count_matches_codimension():
    for name, p in family_corpus():
        if p.nvertices > 40:
            continue
        assert len(dr.dependency_module(p)) == p.nvertices - p.dim - 1, name


def test_dependency_vectors_are_dependencies():
    for name, p in family_corpus():
        if p.nvertices > 40:
            continue
        for y in vertex_vectors(p, dr.dependency_module(p)):
            assert sum(y) == 0, name
            for k in range(p.dim):
                assert sum(c * v[k] for c, v in zip(y, p.vertices)) == 0, name


def test_dependency_vectors_primitive_first_positive():
    for name, p in family_corpus():
        if p.nvertices > 40:
            continue
        for y in vertex_vectors(p, dr.dependency_module(p)):
            g = 0
            for c in y:
                g = gcd(g, c)
            assert g == 1, name
            lead = next(c for c in y if c)
            assert lead > 0, name


def test_basis_dependencies_square(square):
    assert square.frame.dependencies == (((0, 1), (1, -1), (2, -1), (3, 1)),)
    # the square has one dependency up to scale, so another basis gives it too
    assert vertex_vectors(square, square.frame.dependencies) == solve_basis_dependencies(square, [0, 1, 2])


def test_basis_dependencies_cross3():
    p = dr.cross_polytope(3)
    assert p.frame.basis == (2, 3, 4, 5)
    out = vertex_vectors(p, p.frame.dependencies)
    assert out == ((1, 0, -1, 1, 0, -1), (0, 1, -1, 0, 1, -1))
    for w, y in zip((0, 1), out):
        assert y[w] > 0
        assert sum(y) == 0


def test_basis_dependencies_span_the_module():
    """Both dependency families must span the same rational space."""
    for name, p in family_corpus():
        if p.nvertices > 24:
            continue
        module = [list(y) for y in vertex_vectors(p, dr.dependency_module(p))]
        if not module:
            continue
        vdeps = [list(y) for y in vertex_vectors(p, p.frame.dependencies)]
        assert len(vdeps) == len(module)
        assert exact.rank(module) == exact.rank(vdeps) == exact.rank(module + vdeps), name


LEAD_INSTANCES = {
    "random": random_polytope,
    "half_integer": random_half_integer_polytope,
    "halfcube5": lambda rng: dr.half_cube(5),
    "cube4": lambda rng: dr.cube(4),
    "cross5": lambda rng: dr.cross_polytope(5),
    "simplex4": lambda rng: dr.simplex(4),
    "p0": lambda rng: dr.p0().polytope,
}


@given(st.integers(0, 10_000), st.sampled_from(sorted(LEAD_INSTANCES)))
def test_dependencies_over_the_last_basis_lead_at_their_vertex(seed, name):
    """Each paper dependency starts at its w, positive, and lives on w and basis vertices above w."""
    rng = random.Random(seed)
    p = LEAD_INSTANCES[name](rng)
    verts = list(p.vertices)
    rng.shuffle(verts)
    p = dr.from_coords(p.dim, verts)
    basis = p.frame.basis
    vdeps = vertex_vectors(p, p.frame.dependencies)
    assert vdeps == solve_basis_dependencies(p, basis), name
    others = [w for w in range(p.nvertices) if w not in basis]
    assert len(vdeps) == len(others) == p.nvertices - p.dim - 1
    for w, y in zip(others, vdeps):
        support = [v for v, c in enumerate(y) if c]
        assert support[0] == w and y[w] > 0, name
        assert all(v in basis and v > w for v in support[1:]), name


MODULE_INSTANCES = {
    **LEAD_INSTANCES,
    "halfcube5-T": lambda rng: transform_basis(dr.half_cube(5), random_unimodular(5, rng)),
    "cube4-T": lambda rng: transform_basis(dr.cube(4), random_unimodular(4, rng)),
    "cross5-T": lambda rng: transform_basis(dr.cross_polytope(5), random_unimodular(5, rng)),
    "cube6": lambda rng: dr.cube(6),
    "halfcube6": lambda rng: dr.half_cube(6),
}


def _relabeled(p, seed):
    order = list(range(p.nvertices))
    random.Random(seed).shuffle(order)
    return dr.from_coords(p.dim, [p.vertices[i] for i in order])


def _assert_module_spreads_to_the_oracle(p, name):
    module = dr.dependency_module(p)
    assert vertex_vectors(p, module) == dense_dependency_module(p), name
    for y in module:
        support = [v for v, _ in y]
        assert support == sorted(set(support)) and all(c for _, c in y), name


@given(st.integers(0, 10_000), st.sampled_from(sorted(MODULE_INSTANCES)))
# inputs whose frame has a coefficient y_w(w) > 1, so the module is not the frame's tuple
@example(0, "p0")
@example(1, "p0")
@example(2, "p0")
@example(0, "half_integer")
@example(3, "half_integer")
@example(4, "half_integer")
@example(5, "half_integer")
@example(3, "cube6")
@example(3, "halfcube6")
def test_dependency_module_matches_the_hermite_kernel(seed, name):
    """Relabeled or in another lattice basis, the module equals the Hermite basis of the integer kernel, and its
    supports are the nonzeros of the dense oracle."""
    p = _relabeled(MODULE_INSTANCES[name](random.Random(seed)), seed)
    _assert_module_spreads_to_the_oracle(p, name)


def test_dependency_module_spreads_to_the_dense_oracle_on_families():
    for name, p in family_corpus():
        _assert_module_spreads_to_the_oracle(p, name)


def test_dependency_module_takes_the_frame_only_when_it_is_integral(monkeypatch):
    calls = count_calls(monkeypatch, exact, "hermite_normal_form")
    hc = dr.half_cube(5)
    assert dr.dependency_module(hc) == hc.frame.dependencies
    assert calls == []
    halves = dr.from_coords(2, [[1, 1], [0, 0], [2, 0], [0, 2]])
    assert halves.frame.dependencies == (((0, 2), (2, -1), (3, -1)),)
    assert dr.dependency_module(halves) == (((0, 2), (2, -1), (3, -1)),)
    assert len(calls) == 1


def test_dependency_module_hermite_forms_stay_small(monkeypatch):
    """On relabeled cube(8) the frame has D = 2, and no Hermite form the walk takes has more than
    (dim + 1)(1 + floor(log2 D)) + 1 rows, whatever the number of dependencies."""
    p = _relabeled(dr.cube(8), 1)
    ys = p.frame.dependencies
    assert (lcm(*(y[0][1] for y in ys)), len(ys)) == (2, 247)
    calls = count_calls(monkeypatch, exact, "hermite_normal_form")
    assert len(dr.dependency_module(p)) == 247
    assert calls and max(len(m) for m, in calls) <= 9 * (1 + 1) + 1


SQUARE_DEPENDENCY = ((0, 1), (1, -1), (2, -1), (3, 1))


def test_check_dist_system_square(square):
    d = dr.distance_matrix(square, [[1, 0], [0, 1]])
    assert dr.check_dist_system(d, SQUARE_DEPENDENCY)
    assert not dr.check_dist_system(d, ((0, 1),))
    assert dr.check_dist_system(d, ())


def test_check_negative_type_square(square):
    d = dr.distance_matrix(square, [[1, 0], [0, 1]])
    assert dr.check_negative_type(d, SQUARE_DEPENDENCY)
    assert not dr.check_negative_type(d, ((0, 1), (1, -1)))
    with pytest.raises(dr.SumNotZero):
        dr.check_negative_type(d, ((0, 1),))


@pytest.mark.parametrize("check", [dr.check_dist_system, dr.check_negative_type])
@pytest.mark.parametrize(
    "y",
    [
        ((0, 1), (4, -1)),  # a vertex past the matrix
        ((-1, 1), (0, -1)),  # a negative vertex
        ((1, 1), (0, -1)),  # descending
        ((0, 1), (0, -1)),  # a repeated vertex
        ((0, 1), (1.0, -1)),  # a vertex that is not an int
        (1, -1),  # items that are not pairs: a dense vector
        ((False, 1), (True, -1)),  # vertices that are bools
    ],
)
def test_distance_checks_reject_a_support_off_the_matrix_or_out_of_order(square, check, y):
    d = dr.distance_matrix(square, [[1, 0], [0, 1]])
    with pytest.raises(dr.WrongSize):
        check(d, y)


def test_distance_checks_check_their_matrix():
    # a non-square or asymmetric matrix is bad input, not a matrix with its extra column dropped
    with pytest.raises(dr.WrongSize):
        dr.check_dist_system([[0, 1, 5], [1, 0, 7]], ((0, 1), (1, -1)))
    with pytest.raises(dr.WrongSize):
        dr.check_negative_type([[0, 1, 5], [1, 0, 7]], ((0, 1), (1, -1)))
    with pytest.raises(dr.InputError):
        dr.check_dist_system([[0, 1], [2, 0]], ((0, 1), (1, -1)))
    with pytest.raises(dr.InputError):
        dr.check_negative_type([[0, 1], [2, 0]], ((0, 1), (1, -1)))


def test_dependencies_satisfy_distance_checks_under_family_forms():
    for name, p, g in gram_corpus():
        d = dr.distance_matrix(p, g)
        for y in dr.dependency_module(p):
            assert dr.check_dist_system(d, y), name
            assert dr.check_negative_type(d, y), name


@settings(max_examples=25)
@given(st.integers(0, 10_000))
def test_relabeling_permutes_the_dependency_lattice(seed):
    """A vertex relabeling maps the dependency module by the same permutation."""
    rng = random.Random(seed)
    p = random_polytope(rng, max_dim=3)
    perm = list(range(p.nvertices))
    rng.shuffle(perm)
    q = dr.from_coords(p.dim, [p.vertices[i] for i in perm])
    dep_p = [list(y) for y in vertex_vectors(p, dr.dependency_module(p))]
    dep_q = [list(y) for y in vertex_vectors(q, dr.dependency_module(q))]
    assert len(dep_p) == len(dep_q)
    if not dep_p:
        return
    # dep_q and the permuted dep_p must generate the same integer lattice
    permuted = [[y[perm[j]] for j in range(len(y))] for y in dep_p]
    assert exact.hermite_normal_form(permuted) == exact.hermite_normal_form(dep_q)
