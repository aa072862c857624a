"""Exact linear algebra kernel: rank, solve, HNF; and the integral-kernel oracle of the tests."""

import copy
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import delrank as dr
from delrank import exact, hyp, model
from tests.helpers import (
    count_calls,
    dict_sparse_rank,
    fraction_det,
    fraction_rref,
    integral_kernel,
    mat_mul,
    primitivize,
    stepwise_reduced,
    sylvester_positive_definite,
    transpose,
)

ints = st.integers(min_value=-6, max_value=6)


def int_matrices(max_rows=4, max_cols=4):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(ints, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )


def test_rank_small():
    assert exact.rank([[1, 0], [0, 1]]) == 2
    assert exact.rank([[1, 2], [2, 4]]) == 1
    assert exact.rank([[0, 0], [0, 0]]) == 0
    assert exact.rank([[Fraction(1, 2), Fraction(1, 3)]]) == 1


def test_nullspace_known():
    # canonical form puts a unit at each free column
    assert exact.nullspace([[1, 1, 1]]) == [
        [Fraction(-1), Fraction(1), Fraction(0)],
        [Fraction(-1), Fraction(0), Fraction(1)],
    ]
    assert exact.nullspace([[1, -1, 0], [0, 1, -1]]) == [[Fraction(1), Fraction(1), Fraction(1)]]
    assert exact.nullspace([[1, 0], [0, 1]]) == []


def test_solve():
    assert exact.solve([[1, 0], [0, 1]], [3, 4]) == [Fraction(3), Fraction(4)]
    assert exact.solve([[1, 1]], [2]) == [Fraction(2), Fraction(0)]
    assert exact.solve([[1], [1]], [0, 1]) is None


def test_det():
    # the covolume of a square integer matrix is |det|, 0 when it is singular
    assert exact.covolume([[2, 4], [6, 8]]) == 8
    assert exact.covolume([[1, 2], [2, 4]]) == 0


def test_over_common_denominator():
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert exact.over_common_denominator([[half, 1], [third, 0]]) == ([[3, 6], [2, 0]], 6)
    assert exact.over_common_denominator([["-1/4"], [2]]) == ([[-1], [8]], 4)
    assert exact.over_common_denominator([]) == ([], 1)
    with pytest.raises(dr.WrongSize):
        exact.over_common_denominator([[half], [1, 2]])


small_fractions = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
mixed_matrices = st.integers(0, 4).flatmap(
    lambda c: st.lists(st.lists(st.one_of(ints, small_fractions, small_fractions.map(str)), min_size=c, max_size=c), max_size=4)
)


@given(mixed_matrices)
def test_over_common_denominator_passes_ints_and_matches_the_qmat_route(m):
    a, s = exact.over_common_denominator(m)
    # the route it replaced: every entry a Fraction, then one lcm of their denominators
    q = [[Fraction(x) for x in row] for row in m]
    t = lcm(*(x.denominator for row in q for x in row))
    assert (a, s) == ([[x.numerator * (t // x.denominator) for x in row] for row in q], t)
    assert all(type(x) is int for row in a for x in row)
    # on integer rows it is the identity, entry by entry
    ints_only = [[x if type(x) is int else 10**30 for x in row] for row in m]
    b, t = exact.over_common_denominator(ints_only)
    assert t == 1
    assert all(x is y for row, brow in zip(ints_only, b) for x, y in zip(row, brow))


def test_is_positive_definite():
    assert exact.is_positive_definite([[1, 0], [0, 1]])
    assert not exact.is_positive_definite([[1, 2], [2, 1]])
    assert not exact.is_positive_definite([[0, 0], [0, 1]])
    # the second pivot is created negative and keeps its sign; clearing scales the first row by a positive factor
    assert not exact.is_positive_definite([[1, 1], [1, -1]])
    assert not exact.is_positive_definite([[-1, 1], [1, -2]])
    assert exact.is_positive_definite([[3, 2, -1], [2, 3, -1], [-1, -1, 2]])


square_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(ints, min_size=n, max_size=n), min_size=n, max_size=n)
)


@given(square_matrices)
@example([[1, 0, 0], [0, -1, 0], [0, 0, -1]])  # pivots +, -, -: the last leading minor is positive again
@example([[1, 0, 0], [0, -1, 0], [0, 0, 1]])  # leading minors +, -, -
@example([[1, 1, 1], [1, 1, 0], [0, 1, 0]])  # leading minors +, 0, +: row 1 pivots at column 2
def test_is_positive_definite_matches_leading_minors(m):
    sym = [[x + y for x, y in zip(row, col)] for row, col in zip(m, transpose(m))]
    gram = mat_mul(transpose(m), m)
    for g in (m, sym, gram):
        assert exact.is_positive_definite(g) == sylvester_positive_definite(g)


rationals = st.builds(Fraction, ints, st.integers(1, 4))
rational_square_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n)
)


@given(rational_square_matrices, st.lists(st.lists(ints, min_size=4, max_size=4), max_size=3))
def test_covolume_is_abs_det_of_a_basis(m, combos):
    d = abs(fraction_det(m))
    assume(d != 0)
    assert exact.covolume(m) == d
    # integer combinations of the rows leave the lattice unchanged
    extra = [[sum(c * row[k] for c, row in zip(cs, m)) for k in range(len(m))] for cs in combos]
    assert exact.covolume(m + extra) == d


@given(rational_square_matrices, st.lists(rationals, min_size=4, max_size=4))
def test_covolume_is_zero_when_rows_do_not_span(m, coeffs):
    # drop one row and add a rational combination of the rest: rank < n
    rest = m[:-1]
    combo = [sum((c * row[k] for c, row in zip(coeffs, rest)), Fraction(0)) for k in range(len(m))]
    assert exact.covolume(rest + [combo]) == 0
    if rest:
        assert exact.covolume(rest) == 0


@st.composite
def rational_matrices(draw):
    """Matrices with 0 to 5 rows and 0 to 6 columns, some rows rational multiples of others."""
    ncols = draw(st.integers(0, 6))
    entries = st.one_of(st.just(0), ints, st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)))
    m = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=5))
    for _ in range(draw(st.integers(0, 2)) if m else 0):
        row = m[draw(st.integers(0, len(m) - 1))]
        f = draw(st.sampled_from([1, -1, 2, Fraction(-3, 2)]))
        m.insert(draw(st.integers(0, len(m))), [f * x for x in row])
    return m


@given(rational_matrices(), st.data())
def test_elimination_matches_the_fraction_rref(m, data):
    red, pivots = fraction_rref(m)
    rows, got_pivots, d = exact.rref(m)
    assert got_pivots == pivots
    assert all(type(x) is int for row in rows for x in row)
    assert type(d) is int and d > 0
    # d is the lcm of the pivots of the primitive reduced rows, the least common denominator of the oracle's
    assert d == lcm(*(x.denominator for row in red for x in row))
    assert [row[c] for row, c in zip(rows, pivots)] == [d] * len(pivots)
    assert [[Fraction(x, d) for x in row] for row in rows] == red[: len(pivots)]
    assert not any(x for row in red[len(pivots):] for x in row)
    assert exact.rank(m) == len(pivots)
    ncols = len(m[0]) if m else 0
    kernel = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(int(k == f)) for k in range(ncols)]
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        kernel.append(v)
    assert exact.nullspace(m) == kernel
    b = data.draw(st.lists(st.builds(Fraction, ints, st.integers(1, 5)), min_size=len(m), max_size=len(m)))
    aug_red, aug_pivots = fraction_rref([row + [x] for row, x in zip(m, b)])
    if ncols in aug_pivots:
        assert exact.solve(m, b) is None
    else:
        x = [Fraction(0)] * ncols
        for r, c in enumerate(aug_pivots):
            x[c] = aug_red[r][ncols]
        assert exact.solve(m, b) == x


@st.composite
def grown_rows(draw):
    """Integer rows of one length to feed one at a time: random ones, zero rows, repeats and negated multiples."""
    ncols = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["random", "zero", "repeat", "negated"]) if rows else st.just("random"))
        if kind == "random":
            rows.append(draw(st.lists(ints, min_size=ncols, max_size=ncols)))
        elif kind == "zero":
            rows.append([0] * ncols)
        else:
            row = draw(st.sampled_from(rows))
            f = 1 if kind == "repeat" else -draw(st.integers(1, 3))
            rows.append([f * x for x in row])
    return ncols, rows


@given(grown_rows())
@example((2, [[-2, 4], [0, 0], [-2, 4], [3, -1], [0, -5]]))
def test_extended_form_is_the_rref_of_the_rows_so_far(case):
    ncols, rows = case
    form = {}
    for i, row in enumerate(rows):
        given_row = {j: v for j, v in enumerate(row) if v or j % 2}  # some explicit zeros
        before = dict(given_row)
        exact._extend(form, given_row)
        assert given_row == before and not any(p is given_row for p in form.values())
        for c, p in form.items():
            assert min(p) == c and gcd(*p.values()) == 1 and not any(k in p for k in form if k != c)
        assert exact._scaled(form, ncols) == exact.rref(rows[: i + 1])


@st.composite
def sparse_int_rows(draw):
    """Sparse integer rows of one length: entries of both signs up to 9, so pivot entries are often negative and not
    1, with repeated rows and integer combinations of earlier rows, so the rank is often deficient."""
    ncols = draw(st.integers(1, 7))
    entries = st.integers(-9, 9).filter(bool)
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["random", "repeat", "combination"]) if rows else st.just("random"))
        if kind == "random":
            rows.append(draw(st.dictionaries(st.integers(0, ncols - 1), entries, max_size=ncols)))
        elif kind == "repeat":
            rows.append(dict(draw(st.sampled_from(rows))))
        else:
            a, b, s, t = draw(st.sampled_from(rows)), draw(st.sampled_from(rows)), draw(ints), draw(ints)
            combined = {k: s * a.get(k, 0) + t * b.get(k, 0) for k in a.keys() | b.keys()}
            rows.append({k: v for k, v in combined.items() if v})
    return ncols, rows


def assert_reduced_as_stepwise(rows, ncols):
    form, oracle = exact._reduced(rows), stepwise_reduced(rows)
    # the same primitive pivot rows up to sign, keyed in the same order, so the same rref
    assert list(form) == list(oracle)
    assert all(form[c] in (q, {k: -v for k, v in q.items()}) for c, q in oracle.items())
    assert exact._scaled(form, ncols) == exact._scaled(oracle, ncols)


@given(sparse_int_rows())
@example((2, [{0: -2, 1: 4}, {0: 3, 1: -1}, {1: -5}, {0: -2, 1: 4}]))
@example((3, [{0: 2, 2: 1}, {1: -3, 2: 1}, {0: 1, 1: 1, 2: 1}]))  # the last row needs the lcm of the pivots, 6
def test_reduced_form_matches_the_stepwise_loop(case):
    ncols, rows = case
    assert_reduced_as_stepwise(rows, ncols)


@pytest.mark.parametrize("name", ["cube(6) relabeled", "half_cube(6) relabeled", "p0"])
def test_reduced_form_matches_the_stepwise_loop_on_the_library_rows(name, monkeypatch, p0data):
    if name == "p0":
        p = p0data.polytope
    else:
        q = dr.cube(6) if name.startswith("cube") else dr.half_cube(6)
        order = list(range(q.nvertices))
        random.Random(1).shuffle(order)
        p = dr.from_coords(q.dim, [q.vertices[i] for i in order])
    ncols = p.dim * (p.dim + 1) // 2
    calls = count_calls(monkeypatch, exact, "sparse_rank")
    dr.rank_of(p)
    (rank_rows,) = calls[-1]
    assert_reduced_as_stepwise(rank_rows, ncols)
    assert_reduced_as_stepwise([row for _, row in hyp.face_system(p)], ncols)
    assert_reduced_as_stepwise(*exact._int_rows(model._lifted(p, range(p.nvertices - 1, -1, -1))))


@given(int_matrices())
def test_rank_plus_nullity(m):
    cols = len(m[0])
    assert exact.rank(m) + len(exact.nullspace(m)) == cols


@given(int_matrices())
def test_nullspace_vectors_in_kernel(m):
    for v in exact.nullspace(m):
        for row in m:
            assert sum(Fraction(a) * x for a, x in zip(row, v)) == 0


def _textbook_hnf(m):
    """Independent row-style HNF: gcd sweeps, no cleverness."""
    h = [list(map(int, row)) for row in m]
    rows, cols = len(h), len(h[0])
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if h[i][c]:
                piv = i
                break
        if piv is None:
            continue
        h[r], h[piv] = h[piv], h[r]
        changed = True
        while changed:
            changed = False
            for i in range(r + 1, rows):
                if h[i][c]:
                    if abs(h[i][c]) < abs(h[r][c]):
                        h[r], h[i] = h[i], h[r]
                    q = h[i][c] // h[r][c]
                    h[i] = [a - q * b for a, b in zip(h[i], h[r])]
                    if h[i][c]:
                        changed = True
        if h[r][c] < 0:
            h[r] = [-a for a in h[r]]
        for i in range(r):
            q = h[i][c] // h[r][c]
            if q:
                h[i] = [a - q * b for a, b in zip(h[i], h[r])]
        r += 1
    return h


def _hnf_with_transform(m):
    """(H, U) with H = U m and U unimodular, from the Hermite form of [m | I]."""
    n = len(m)
    aug = exact.hermite_normal_form([[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(m)])
    return [row[: len(m[0])] for row in aug], [row[len(m[0]):] for row in aug]


def _check_transform(m):
    h, u = _hnf_with_transform(m)
    assert h == exact.hermite_normal_form(m)
    assert mat_mul(u, m) == h
    assert abs(fraction_det(u)) == 1
    return h, u


def test_hnf_known_matrix():
    assert exact.hermite_normal_form([[2, 4], [6, 8]]) == [[2, 0], [0, 4]]
    assert _textbook_hnf([[2, 4], [6, 8]])[:2] == [[2, 0], [0, 4]]
    _check_transform([[2, 4], [6, 8]])


def test_hnf_edge_cases():
    assert exact.hermite_normal_form([[1, 0], [0, 1]]) == [[1, 0], [0, 1]]
    assert _check_transform([[0]]) == ([[0]], [[1]])
    assert exact.hermite_normal_form([[Fraction(4, 2), 3]]) == [[2, 3]]
    with pytest.raises(dr.InputError):
        exact.hermite_normal_form([[Fraction(1, 2)]])
    with pytest.raises(dr.WrongSize):
        exact.hermite_normal_form([[1, 2], [3]])


@given(int_matrices())
def test_hnf_properties(m):
    h, _ = _check_transform(m)
    # agreement with the independent implementation
    assert _textbook_hnf(m) == h
    # idempotence
    assert exact.hermite_normal_form(h) == h


def test_integral_kernel_known():
    assert integral_kernel([[1, 1, 1]]) == [[1, 0, -1], [0, 1, -1]]
    assert integral_kernel([[2, -1]]) == [[1, 2]]
    assert integral_kernel([[1, 0], [0, 1]]) == []
    # the one-line trap: the rational kernel basis of [[2,1,1]] scaled to
    # integers misses (1,-1,-1); the saturated basis must contain it
    k = integral_kernel([[2, 1, 1]])
    assert _in_z_span(k, [1, -1, -1])


def _in_z_span(basis, v):
    if not basis:
        return all(x == 0 for x in v)
    a = [[Fraction(row[i]) for row in basis] for i in range(len(v))]
    x = exact.solve(a, [Fraction(c) for c in v])
    return x is not None and all(c.denominator == 1 for c in x)


@settings(max_examples=40)
@given(int_matrices(max_rows=3, max_cols=4))
def test_integral_kernel_saturated(m):
    k = integral_kernel(m)
    cols = len(m[0])
    assert len(k) == cols - exact.rank(m)
    for v in k:
        g = 0
        for x in v:
            g = gcd(g, x)
        assert g == 1
        for row in m:
            assert sum(a * x for a, x in zip(row, v)) == 0
    # brute force small integer kernel vectors and require Z-membership
    if cols <= 3:
        from itertools import product

        for v in product(range(-2, 3), repeat=cols):
            if any(v) and all(
                sum(a * x for a, x in zip(row, v)) == 0 for row in m
            ):
                assert _in_z_span(k, list(v))


nonzero_rationals = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9))


@given(rational_matrices(), st.lists(nonzero_rationals, min_size=7, max_size=7))
def test_integral_kernel_is_hermite_and_ignores_row_scaling(m, scales):
    k = integral_kernel(m)
    if k:
        assert exact.hermite_normal_form(k) == k
    assert len(m) <= len(scales)
    assert integral_kernel([[s * x for x in row] for row, s in zip(m, scales)]) == k


def test_primitivize():
    assert primitivize([Fraction(1, 2), Fraction(-1, 2), 1]) == [1, -1, 2]
    assert primitivize([3, 6, 9]) == [1, 2, 3]
    assert primitivize([-2, 4]) == [1, -2]
    with pytest.raises(dr.InputError):
        primitivize([0, 0])


@given(int_matrices())
def test_sparse_rank_matches_dense(m):
    rows = [
        {j: v for j, v in enumerate(row) if v}
        for row in m
    ]
    assert exact.sparse_rank(rows) == len(fraction_rref(m)[1])


@given(int_matrices(max_rows=5, max_cols=7), st.data())
def test_sparse_rank_matches_dense_on_scaled_dependent_rows(m, data):
    # integer combinations of the rows make some rows die; scale factors of
    # at least 2 make pivots other than +-1 and rows that are not primitive
    combos = data.draw(st.lists(st.lists(ints, min_size=len(m), max_size=len(m)), max_size=4))
    m = m + [[sum(c * row[j] for c, row in zip(cs, m)) for j in range(len(m[0]))] for cs in combos]
    m = data.draw(st.permutations(m))
    factors = st.integers(2, 9) | st.integers(-9, -2)
    scales = data.draw(st.lists(factors, min_size=len(m), max_size=len(m)))
    rows = [{j: s * v for j, v in enumerate(row) if v} for row, s in zip(m, scales)]
    expected = len(fraction_rref(m)[1])
    assert exact.sparse_rank(rows) == expected
    assert dict_sparse_rank(rows) == expected


@given(int_matrices(max_rows=5, max_cols=5), st.data())
@example([[1, 2], [3, 4]], None)
def test_kernel_leaves_its_inputs_unchanged_and_shares_no_row(m, data):
    # the first nonzero row pivots without a step, and a primitive row without zeros could be stored as it is
    dicts = [{j: v for j, v in enumerate(row) if v} for row in m]
    zeros = [{j: v for j, v in enumerate(row) if v or j % 2} for row in m]
    if data is not None:
        dicts = data.draw(st.permutations(dicts))
    gram = mat_mul(transpose(m), m)
    inputs = (m, dicts, zeros, gram)
    before = copy.deepcopy(inputs)
    exact.rank(m)
    exact.rref(m)
    exact.is_positive_definite(gram)
    for rows in (dicts, zeros):
        exact.sparse_rank(rows)
        pivots = exact._reduced(rows)
        assert not any(p is row for p in pivots.values() for row in rows)
    # the reduction in place also leaves the stored pivots alone: a second pass over them keeps them
    pivots = exact._reduced(dicts)
    again = copy.deepcopy(pivots)
    assert exact._reduced(list(pivots.values())) == again and pivots == again
    assert inputs == before
