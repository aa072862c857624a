"""Generator sanity: vertex sets, orders, canonical inner products."""

import pytest
from fractions import Fraction

import delrank as dr
from delrank import cli
from delrank.errors import InputError


def test_simplex_vertices():
    p = dr.simplex(3)
    assert p.dim == 3
    assert [tuple(v) for v in p.vertices] == [
        (0, 0, 0),
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    ]


def test_cross_vertices_order():
    p = dr.cross_polytope(3)
    assert p.dim == 3
    assert [tuple(v) for v in p.vertices] == [
        (0, 0, 0),
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (-1, 0, 1),
        (0, -1, 1),
    ]


def test_half_cube_vertices():
    # even-popcount masks in ascending order, bit k is coordinate k
    p = dr.half_cube(3)
    assert [tuple(v) for v in p.vertices] == [
        (0, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
        (0, 1, 1),
    ]


def test_cube_matches_square():
    p = dr.cube(2)
    assert [tuple(v) for v in p.vertices] == [(0, 0), (1, 0), (0, 1), (1, 1)]


@pytest.mark.parametrize(
    "family,n,count",
    [
        ("simplex", 5, 6),
        ("cross", 5, 10),
        ("halfcube", 5, 16),
        ("cube", 4, 16),
    ],
)
def test_vertex_counts(family, n, count):
    p = cli._GENERATORS[family](n)
    assert len(p.vertices) == count
    assert p.dim == n


def test_family_spec_validation(capsys):
    # sizes below each generator's minimum are usage errors of `delrank family`
    for name, n in [("simplex", 0), ("cross", 1), ("halfcube", 2), ("cube", 0), ("p0", 3)]:
        assert cli.main(["family", name, str(n)]) == 1, name
        assert capsys.readouterr().out == ""
    with pytest.raises(SystemExit) as exc:
        cli.main(["family", "orthoplex", "3"])
    assert exc.value.code == 1
    # p0 takes no size parameter
    assert cli.main(["family", "p0"]) == 0


def test_generator_bounds():
    with pytest.raises(InputError):
        dr.simplex(0)
    with pytest.raises(InputError):
        dr.cross_polytope(1)
    with pytest.raises(InputError):
        dr.half_cube(2)
    with pytest.raises(InputError):
        dr.cube(0)


def test_canonical_gram_identity_families():
    for family, n in [("simplex", 4), ("halfcube", 4), ("cube", 3)]:
        g = dr.canonical_gram(family, n)
        assert g == [
            [Fraction(int(i == j)) for j in range(n)] for i in range(n)
        ]


def test_cross_gram_frozen():
    assert dr.canonical_gram("cross", 3) == [
        [Fraction(2), Fraction(1), Fraction(2)],
        [Fraction(1), Fraction(2), Fraction(2)],
        [Fraction(2), Fraction(2), Fraction(4)],
    ]


@pytest.mark.parametrize("n", range(2, 9))
def test_cross_gram_positive_definite(n):
    assert dr.is_positive_definite(dr.canonical_gram("cross", n))


@pytest.mark.parametrize("n", range(2, 7))
def test_cross_gram_makes_vertices_cospherical(n):
    p = dr.cross_polytope(n)
    g = dr.canonical_gram("cross", n)
    c = dr.circumcenter(p, g)
    assert c.radius_sq > 0


def test_p0_shape():
    data = dr.p0()
    assert data.polytope.dim == 12
    assert len(data.polytope.vertices) == 14
    assert dr.is_positive_definite(data.gram)
    computed = dr.distance_matrix(data.polytope, data.gram)
    assert [list(row) for row in computed] == [list(row) for row in data.distances]
    assert [v for v, c in data.dependency if c] == list(range(14))


def test_p0_distance_matrix_blocks():
    d = dr.p0_distance_matrix()
    blocks = []
    start = 0
    for size in (3, 3, 4, 4):
        blocks.append(list(range(start, start + size)))
        start += size
    for bi, block in enumerate(blocks):
        for i in block:
            for j in block:
                assert d[i][j] == (0 if i == j else 7)
    cross = {
        (0, 1): 10,
        (0, 2): 6,
        (0, 3): 12,
        (1, 2): 12,
        (1, 3): 6,
        (2, 3): 12,
    }
    for (a, b), value in cross.items():
        for i in blocks[a]:
            for j in blocks[b]:
                assert d[i][j] == value


def test_build_rejects_size_for_p0(capsys):
    assert cli.main(["family", "p0", "12"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and "p0 takes no size argument" in out.err
