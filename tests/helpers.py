"""Builders and dense oracles shared across test modules."""

import itertools
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

import delrank as dr
from delrank import exact, model
from delrank.rank import sym_columns


def square():
    return dr.from_coords(2, [[0, 0], [1, 0], [0, 1], [1, 1]])


def random_unimodular(n, rng, steps=12):
    """Random unimodular integer matrix built from shears, swaps and flips."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.randrange(-2, 3)
            for k in range(n):
                m[i][k] += c * m[j][k]
        elif kind == 1 and i != j:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-x for x in m[i]]
    return m


def random_polytope(rng, max_dim=4):
    """Random integer vertex set with full affine rank, dimension <= max_dim."""
    while True:
        n = rng.randrange(2, max_dim + 1)
        nv = rng.randrange(n + 1, n + 5)
        verts = set()
        while len(verts) < nv:
            verts.add(tuple(rng.randrange(-3, 4) for _ in range(n)))
        try:
            return dr.from_coords(n, sorted(verts))
        except dr.DelrankError:
            continue


def relabeled(p, rng):
    """p with its vertices in a random order."""
    verts = list(p.vertices)
    rng.shuffle(verts)
    return dr.from_coords(p.dim, verts)


def random_half_integer_polytope(rng, max_dim=3):
    """Random vertex set, some coordinates half-integers, in a random vertex order."""
    while True:
        n = rng.randrange(1, max_dim + 1)
        nv = rng.randrange(n + 1, n + 5)
        verts = set()
        while len(verts) < nv:
            verts.add(tuple(Fraction(rng.randrange(-5, 6), rng.choice((1, 1, 2))) for _ in range(n)))
        verts = sorted(verts)
        rng.shuffle(verts)
        try:
            return dr.from_coords(n, verts)
        except dr.DelrankError:
            continue


def reduction_instance():
    """Centrally symmetric 3-polytope whose hyperplane section is a triangle.

    Under the attached form the eight vertices are cospherical, the section
    by the last coordinate hyperplane is the triangle {0, e1, e2}, and the
    vertex e1+e2+e3 avoids both the section and its mirror image.
    """
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
             [1, 1, 2], [0, 1, 2], [1, 0, 2], [1, 1, 1]]
    gram = [[3, 2, -1], [2, 3, -1], [-1, -1, 2]]
    return dr.from_coords(3, verts), gram


def family_corpus():
    """Named instances the cross-cutting suites run over, all with |V| <= 128."""
    out = [("square", square())]
    for n in range(1, 9):
        out.append((f"simplex{n}", dr.simplex(n)))
    for n in range(2, 9):
        out.append((f"cross{n}", dr.cross_polytope(n)))
    for n in range(3, 9):
        out.append((f"halfcube{n}", dr.half_cube(n)))
    for n in range(1, 5):
        out.append((f"cube{n}", dr.cube(n)))
    out.append(("p0", dr.p0().polytope))
    return out


def gram_corpus():
    """(name, polytope, gram) triples for geometry-dependent suites."""
    out = []
    for n in range(1, 5):
        out.append((f"simplex{n}", dr.simplex(n), dr.canonical_gram("simplex", n)))
    for n in range(2, 5):
        out.append((f"cross{n}", dr.cross_polytope(n), dr.canonical_gram("cross", n)))
    for n in range(3, 6):
        out.append((f"halfcube{n}", dr.half_cube(n), dr.canonical_gram("halfcube", n)))
    for n in range(1, 4):
        out.append((f"cube{n}", dr.cube(n), dr.canonical_gram("cube", n)))
    data = dr.p0()
    out.append(("p0", data.polytope, [list(r) for r in data.gram]))
    return out


def fraction_rref(m):
    """Gauss-Jordan in Fractions, pivot the first nonzero scanning down each column; returns (R, pivots)."""
    a = [[Fraction(x) for x in row] for row in m]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        inv = a[r][c]
        a[r] = [x / inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def fraction_det(m):
    """Determinant by Gaussian elimination in Fractions, pivot the first nonzero scanning down each column."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    d = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            d = -d
        d *= a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] / a[c][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return d


def incremental_affine_basis(p):
    """Greedy affine basis from the last vertex down: the last vertex, then each vertex whose difference from it is independent of those kept; sorted."""
    last = p.nvertices - 1
    base = p.vertices[last]
    chosen = [last]
    reduced = []
    for i in range(last - 1, -1, -1):
        if len(chosen) == p.dim + 1:
            break
        vec = [x - b for x, b in zip(p.vertices[i], base)]
        for row in reduced:
            lead = next(k for k, x in enumerate(row) if x != 0)
            if vec[lead] != 0:
                f = vec[lead] / row[lead]
                vec = [x - f * y for x, y in zip(vec, row)]
        if any(x != 0 for x in vec):
            reduced.append(vec)
            chosen.append(i)
    return sorted(chosen)


def transpose(m):
    return [list(col) for col in zip(*m)]


def mat_mul(a, b):
    """Exact matrix product."""
    bt = transpose(b)
    return [[sum((Fraction(x) * Fraction(y) for x, y in zip(row, col)), Fraction(0)) for col in bt] for row in a]


def vertex_vectors(p, supports):
    """Dependencies given as supports ((vertex, coefficient), ...) spread to int tuples indexed by vertex."""
    out = []
    for y in supports:
        vec = [0] * p.nvertices
        for v, c in y:
            vec[v] = c
        out.append(tuple(vec))
    return tuple(out)


def integral_kernel(m):
    """Z-basis of the integer kernel {y : m y = 0}, in Hermite-canonical form: the dense oracle for dependency_module.

    Rational rows are scaled to integers, which keeps the kernel.  The Hermite form of [m^T | I] is [H | U] with U
    unimodular and U m^T = H, so the U-parts of the rows where H is zero are a Z-basis of the kernel; as the bottom
    rows of a Hermite form they are already in Hermite form, each primitive with positive leading entry.
    """
    a, _ = exact.over_common_denominator(m)
    ncols = len(a[0]) if a else 0
    h = exact.hermite_normal_form([[*col, *(int(i == j) for j in range(ncols))] for i, col in enumerate(zip(*a))])
    return [row[len(a):] for row in h if not any(row[: len(a)])]


def dense_dependency_module(p):
    """Dense oracle for dependency_module: the Hermite kernel of the lifted vertices, as int tuples indexed by vertex."""
    kernel = integral_kernel(model._lifted(p, range(p.nvertices)))
    assert len(kernel) == p.nvertices - p.dim - 1
    return tuple(tuple(v) for v in kernel)


def vertex_pairs(nv):
    """The unordered vertex pairs (i, j), i < j, in lex order: the columns of the full pair system."""
    return [(i, j) for i in range(nv) for j in range(i + 1, nv)]


def dense_face_rows(p, rows):
    """Labelled face_system rows of p as dense Fraction vectors over its dim(dim+1)/2 basis pairs."""
    out = []
    for _, row in rows:
        vec = [Fraction(0)] * (p.dim * (p.dim + 1) // 2)
        for c, v in row.items():
            vec[c] = Fraction(v)
        out.append(vec)
    return out


def all_face_rows(p, vectors):
    """Every pair-system row ((dependency index, probe), {pair index: coefficient}), one per given dependency vector and probe vertex."""
    pairs = vertex_pairs(p.nvertices)
    index = {pair: k for k, pair in enumerate(pairs)}
    rows = []
    for yi, y in enumerate(vectors):
        for u in range(p.nvertices):
            row = {index[min(u, v), max(u, v)]: c for v, c in enumerate(y) if c and v != u}
            rows.append(((yi, u), row))
    return rows


def dict_sparse_rank(rows):
    """Sparse rank by the plain dict loop: the row is divided by its content on every step and always scaled by the pivot."""
    pivots = {}
    rk = 0
    for row in rows:
        r = {c: v for c, v in row.items() if v}
        while r:
            g = 0
            for v in r.values():
                g = gcd(g, v)
            if g > 1:
                r = {c: v // g for c, v in r.items()}
            c = min(r)
            p = pivots.get(c)
            if p is None:
                pivots[c] = r
                rk += 1
                break
            a, b = r[c], p[c]
            merged = {k: b * v for k, v in r.items()}
            for k, v in p.items():
                merged[k] = merged.get(k, 0) - a * v
            r = {k: v for k, v in merged.items() if v}
    return rk


def _step(r, p, c):
    """Cancel column c of row r against pivot row p, in place: scale by p[c] over the gcd, subtract, and divide a
    scaled row by its content."""
    a, b = r[c], p[c]
    g = gcd(a, b)
    a //= g
    b //= g
    if b != 1:
        for k in r:
            r[k] *= b
    for k, v in p.items():
        x = r.get(k, 0) - a * v
        if x:
            r[k] = x
        else:
            del r[k]
    if b != 1:
        g = gcd(*r.values())
        if g > 1:
            for k in r:
                r[k] //= g


def stepwise_reduced(rows):
    """The reduced echelon form of integer {column: entry} rows, one _step per pivot column a row meets.

    This is exact._reduced as it was before it cancelled a row at all of its pivots in one pass: the same primitive
    pivot rows by leading column, up to sign, keyed in the same order.
    """
    form = {}
    for row in rows:
        r = {c: v for c, v in row.items() if v}
        for c, p in form.items():
            if c in r:
                _step(r, p, c)
        if not r:
            continue
        c = min(r)
        g = gcd(*r.values())
        form[c] = r = {k: v // g for k, v in r.items()} if g > 1 else r
        for k, q in form.items():
            if k != c and c in q:
                _step(q, r, c)
                g = gcd(*q.values())
                form[k] = {j: v // g for j, v in q.items()} if g > 1 else q
    return form


def fraction_bspace_rows(p, dependencies):
    """Constraint rows accumulated entry by entry in Fractions, one row per dependency."""
    cols = sym_columns(p.dim)
    rows = []
    for y in dependencies:
        acc = {c: Fraction(0) for c in cols}
        for v, c in zip(p.vertices, y):
            if c:
                for i in range(p.dim):
                    for j in range(i, p.dim):
                        acc[(i, j)] += (1 if i == j else 2) * c * v[i] * v[j]
        rows.append(tuple(acc[c] for c in cols))
    return tuple(rows)


@dataclass(frozen=True)
class FullSystem:
    """Per-vertex sphere equations in form coefficients plus center terms.

    Columns: symmetric form coordinates b_ij followed by n auxiliary
    center coordinates (the pairings of the center with each basis vector).
    One row per vertex other than vertex 0.
    """

    dim: int
    columns: tuple
    rows: tuple


def full_system(p):
    """Sphere equations for all vertices against vertex 0.

    Row for vertex v: sum_{i<=j} z_i z_j b_ij (doubled off diagonal)
    minus 2 sum_i z_i gamma_i = 0, where z is v relative to vertex 0 and
    gamma_i stands for the pairing of the center with basis vector i.
    A third rank route, independent of the dependency module.
    """
    n = p.dim
    cols = list(sym_columns(n)) + [("c", i) for i in range(n)]
    base = p.vertices[0]
    rows = []
    for v in p.vertices[1:]:
        z = [a - b for a, b in zip(v, base)]
        row = [z[i] * z[j] if i == j else 2 * z[i] * z[j] for (i, j) in sym_columns(n)]
        row += [-2 * z[i] for i in range(n)]
        rows.append(tuple(row))
    return FullSystem(dim=n, columns=tuple(cols), rows=tuple(rows))


def full_system_form_dimension(p):
    """Dimension of the form part of the full-system solution space.

    Projects the solution space onto the b coordinates; the auxiliary
    center coordinates are eliminated.  Always equals rank_of(p).
    """
    fs = full_system(p)
    m = p.dim * (p.dim + 1) // 2
    vecs = exact.nullspace([list(r) for r in fs.rows])
    proj = [v[:m] for v in vecs]
    return exact.rank(proj) if proj else 0


def quadric_rank(p):
    """Rank as N + n + 1 - rank M, N = n(n+1)/2, M one row ((v_i v_j)_{i<=j}, v, 1) per vertex.

    A form B is compatible when v -> v^T B v is affine on the vertices,
    and the affine part is unique because they affinely span, so the
    compatible forms match the quadrics that vanish on the vertices one
    for one.  A third rank route: it reads no frame, no dependency and no
    Gram form, and ranks M by Fraction Gauss-Jordan.
    """
    cols = sym_columns(p.dim)
    m = [[v[i] * v[j] for i, j in cols] + [*v, 1] for v in p.vertices]
    return len(cols) + p.dim + 1 - len(fraction_rref(m)[1])


def fraction_matrix(rows):
    """Every entry as a Fraction; WrongSize when the rows differ in length."""
    m = [[Fraction(x) for x in row] for row in rows]
    if any(len(row) != len(m[0]) for row in m):
        raise dr.WrongSize("ragged matrix")
    return m


def fraction_validate_gram_shape(p, gram):
    """The Gram-form check on Fractions, entry by entry, as model._validate_gram_shape made it before it read integers."""
    g = fraction_matrix(gram)
    if len(g) != p.dim or any(len(row) != p.dim for row in g):
        raise dr.WrongSize(f"Gram form must be {p.dim}x{p.dim}")
    for i in range(p.dim):
        for j in range(i):
            if g[i][j] != g[j][i]:
                raise dr.InputError("Gram form must be symmetric")
    if not sylvester_positive_definite(g):
        raise dr.NotPositiveDefinite("Gram form must be positive definite")
    return g


def fraction_validate_distance_matrix(dm):
    """The distance-matrix check on Fractions, entry by entry, as the library made it before it read integers."""
    d = fraction_matrix(dm)
    n = len(d)
    if d and len(d[0]) != n:
        raise dr.WrongSize("distance matrix must be square")
    for i in range(n):
        if d[i][i] != 0:
            raise dr.InputError("distance matrix diagonal must be zero")
        for j in range(i + 1, n):
            if d[i][j] != d[j][i]:
                raise dr.InputError("distance matrix must be symmetric")
            if d[i][j] <= 0:
                raise dr.InputError("off-diagonal squared distances must be positive")
    return d


def fraction_norm_sq(g, u):
    """u^T G u, summed in Fractions."""
    total = Fraction(0)
    for row, ui in zip(g, u):
        if ui:
            total += ui * sum(gij * uj for gij, uj in zip(row, u) if uj)
    return total


def fraction_distance_matrix(p, gram):
    """Squared distances as one Fraction inner product per vertex pair."""
    g = fraction_matrix(gram)
    n = p.nvertices
    diffs = [[[a - b for a, b in zip(u, v)] for v in p.vertices] for u in p.vertices]
    return [[fraction_norm_sq(g, diffs[i][j]) for j in range(n)] for i in range(n)]


def fraction_from_coords(dim, vertices):
    """from_coords as the library made it in Fractions: the same checks on the Fraction vertices, the rank of the
    lifted vertices for the dimension, and the polytope stored over the least common denominator."""
    vts = tuple(tuple(Fraction(x) for x in v) for v in vertices)
    if any(len(v) != dim for v in vts):
        raise dr.DimensionDeficient(f"coordinate vectors must have length {dim}")
    if len(vts) < dim + 1:
        raise dr.TooFewVertices(f"need at least {dim + 1} vertices, got {len(vts)}")
    for i, v in enumerate(vts):
        if v in vts[:i]:
            raise dr.DuplicateVertex(f"vertex {i} repeats an earlier vertex")
    if not vts or len(fraction_rref([[*v, 1] for v in vts])[1]) != dim + 1:
        raise dr.DimensionDeficient("vertices do not affinely span the stated dimension")
    k = lcm(*(x.denominator for v in vts for x in v))
    return model.Polytope(dim, tuple(tuple(int(x * k) for x in v) for v in vts), k)


def fraction_from_distances(dm):
    """from_distances as the library made it in Fractions: the vertex Gram matrix A, its reduced echelon form R by
    Gauss-Jordan, the form A[C, C] on the pivots C, vertex k as column k of R, and a re-check of every distance."""
    d = fraction_validate_distance_matrix(dm)
    m = len(d)
    if m < 2:
        raise dr.TooFewVertices("need at least 2 vertices")
    a = [[(d[i][0] + d[j][0] - d[i][j]) / 2 for j in range(1, m)] for i in range(1, m)]
    red, chosen = fraction_rref(a)
    form = [[a[r][c] for c in chosen] for r in chosen]
    if not sylvester_positive_definite(form):
        raise dr.NotPositiveDefinite("reconstructed Gram form is not positive definite")
    p = fraction_from_coords(len(chosen), [[Fraction(0)] * len(chosen)] + [list(col) for col in zip(*red[: len(chosen)])])
    if fraction_distance_matrix(p, form) != d:
        raise dr.InternalError("reconstructed coordinates do not reproduce the distance matrix")
    return p, form


def fraction_circumcenter(p, gram):
    """The circumsphere solved and checked in Fractions: the center against the greedy affine basis, then every vertex
    at the squared radius."""
    g = fraction_validate_gram_shape(p, gram)
    basis = incremental_affine_basis(p)
    v0 = p.vertices[basis[0]]
    us = [[a - b for a, b in zip(p.vertices[i], v0)] for i in basis[1:]]
    # rows: 2 u^T G x = u^T G u, unknown x = center - v0
    a = [[2 * sum(u[k] * g[k][j] for k in range(p.dim)) for j in range(p.dim)] for u in us]
    red, pivots = fraction_rref([[*row, fraction_norm_sq(g, u)] for row, u in zip(a, us)])
    if pivots != list(range(p.dim)):
        raise dr.InternalError("circumcenter system is singular")
    x = [row[-1] for row in red]
    center = tuple(c + off for c, off in zip(v0, x))
    r2 = fraction_norm_sq(g, x)
    for i, v in enumerate(p.vertices):
        if fraction_norm_sq(g, [a - c for a, c in zip(v, center)]) != r2:
            raise dr.NotCospherical(f"vertex {i} is not on the sphere through the affine basis")
    return dr.Circumdata(center=center, radius_sq=r2)


def sylvester_positive_definite(g):
    """Sylvester's criterion: every leading principal minor is positive."""
    return all(fraction_det([row[:k] for row in g[:k]]) > 0 for k in range(1, len(g) + 1))


def solve_affine_basis(p, subset, ring="Q"):
    """Affine-basis test by a rank check and one solve per outside vertex."""
    idx = list(subset)
    a = [[p.vertices[i][k] for i in idx] for k in range(p.dim)]
    a.append([Fraction(1)] * len(idx))
    if exact.rank(a) != p.dim + 1:
        return False
    if ring == "Q":
        return True
    for w in range(p.nvertices):
        if w not in idx:
            x = exact.solve(a, list(p.vertices[w]) + [Fraction(1)])
            if any(c.denominator != 1 for c in x):
                return False
    return True


def scan_basicity(p, budget=2000):
    """The basicity search as a plain scan of every (dim + 1)-subset in lexicographic order."""
    tested = 0
    for combo in itertools.combinations(range(p.nvertices), p.dim + 1):
        if not solve_affine_basis(p, combo):
            continue
        if tested == budget:
            return dr.BasicityClass(dr.UNDECIDED, None, tested, False,
                                    "budget exhausted before the subset enumeration finished")
        tested += 1
        if solve_affine_basis(p, combo, ring="Z"):
            return dr.BasicityClass(dr.Z_BASIC, combo, tested, False)
    return dr.BasicityClass(dr.Q_BASIC_ONLY, None, tested, True, "all affinely independent subsets tested")


def circumcenter_symmetry(p, gram):
    """Central symmetry as v -> 2c - v permuting the vertices, c the circumcenter under gram."""
    center = dr.circumcenter(p, gram).center
    index = {v: i for i, v in enumerate(p.vertices)}
    pairing = {}
    for i, v in enumerate(p.vertices):
        j = index.get(tuple(2 * c - x for c, x in zip(center, v)))
        if j is None:
            return False, None
        pairing[i] = j
    return True, pairing


def primitivize(v):
    """Scale a rational vector to a primitive integer vector.

    Clears denominators, divides by the content, and flips sign so the
    first nonzero entry is positive.  Rejects the zero vector.
    """
    q = [Fraction(x) for x in v]
    s = lcm(*(x.denominator for x in q))
    ints = [int(x * s) for x in q]
    g = gcd(*ints)
    if g == 0:
        raise dr.InputError("zero vector has no primitive form")
    if next(x for x in ints if x) < 0:
        g = -g
    return [x // g for x in ints]


def solve_basis_dependencies(p, basis):
    """One dependency per vertex outside the basis, by one solve per vertex."""
    a = [[p.vertices[i][k] for i in basis] for k in range(p.dim)]
    a.append([Fraction(1)] * len(basis))
    out = []
    for w in range(p.nvertices):
        if w in basis:
            continue
        x = exact.solve(a, list(p.vertices[w]) + [Fraction(1)])
        y = [Fraction(0)] * p.nvertices
        y[w] = Fraction(1)
        for i, c in zip(basis, x):
            y[i] = -c
        yi = primitivize(y)
        if yi[w] < 0:
            yi = [-c for c in yi]
        out.append(tuple(yi))
    return tuple(out)


def module_form_space(p):
    """Rank and compatible-form basis from the Hermite dependency module, as rank_of computed them before the basis route."""
    cols = sym_columns(p.dim)
    m = len(cols)
    rows = [list(r) for r in fraction_bspace_rows(p, vertex_vectors(p, dr.dependency_module(p)))]
    vecs = exact.nullspace(rows) if rows else [[Fraction(int(i == k)) for i in range(m)] for k in range(m)]
    basis = []
    for vec in vecs:
        b = [[Fraction(0)] * p.dim for _ in range(p.dim)]
        for (i, j), val in zip(cols, vec):
            b[i][j] = b[j][i] = val
        basis.append(b)
    return len(vecs), basis


def count_calls(monkeypatch, module, name):
    """Record the arguments of every call to module.name, through any delrank module that imported it."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key == "delrank" or key.startswith("delrank."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def rref_from_distances(dm):
    """from_distances as the library made it with one full exact.rref of the vertex Gram matrix A: the form A[C, C]
    on its pivots C, vertex k as column k of R over d, and every failure after the definite check an InternalError."""
    e, t = model._validate_distance_matrix(dm)
    m = len(e)
    if m < 2:
        raise dr.TooFewVertices("need at least 2 vertices")
    a = [[e[i][0] + e[j][0] - e[i][j] for j in range(1, m)] for i in range(1, m)]
    red, chosen, den = exact.rref(a)
    n = len(chosen)
    sub = [[a[r][c] for c in chosen] for r in chosen]
    if not exact.is_positive_definite(sub):
        raise dr.NotPositiveDefinite("reconstructed Gram form is not positive definite")
    try:
        p = model._from_integers(n, [(0,) * n, *zip(*red)], den)
    except dr.DelrankError as err:
        raise dr.InternalError(f"reconstructed coordinates are rejected: {err}") from err
    num, scale = model._distance_matrix(p, sub, 2 * t)
    f = scale // t
    if any(xrow != [y * f for y in yrow] for xrow, yrow in zip(num, e)):
        raise dr.InternalError("reconstructed coordinates do not reproduce the distance matrix")
    return p, [[Fraction(x, 2 * t) for x in row] for row in sub]


def definite_check_from_distances(dm):
    """from_distances as the library made it with a separate definite check of the form on the rows taken, after the
    pivot search, instead of reading it off the search's Schur diagonals."""
    e, t = model._validate_distance_matrix(dm)
    m = len(e)
    if m < 2:
        raise dr.TooFewVertices("need at least 2 vertices")

    def gram_row(x):
        return [x[0] + y[0] - xy for y, xy in zip(e, x)]

    taken, form, terms, den = [], {}, [], 1
    for j, x in enumerate(e):
        if den * 2 * x[0] != sum((x[0] + e[c][0] - x[c]) * q[j] * f for c, q, f in terms if j in q):
            taken.append(j)
            exact._extend(form, dict(enumerate(gram_row(x))))
            den = lcm(*(q[c] for c, q in form.items()))
            terms = [(c, q, den // q[c]) for c, q in form.items()]
    red, chosen, den = exact._scaled(form, m)
    n = len(taken)
    sub = [[e[r][0] + e[c][0] - e[r][c] for c in taken] for r in taken]
    if not exact.is_positive_definite(sub):
        raise dr.NotPositiveDefinite("reconstructed Gram form is not positive definite")

    def failure(message):
        if exact.rank([gram_row(x) for x in e]) != n:
            return dr.NotPositiveDefinite("reconstructed Gram form is not positive definite")
        return dr.InternalError(message)

    try:
        p = model._from_integers(n, list(zip(*red)), den)
    except dr.DelrankError as err:
        raise failure(f"reconstructed coordinates are rejected: {err}") from err
    num, scale = model._distance_matrix(p, sub, 2 * t)
    f = scale // t
    if any(xrow != [y * f for y in yrow] for xrow, yrow in zip(num, e)):
        raise failure("reconstructed coordinates do not reproduce the distance matrix")
    return p, [[Fraction(x, 2 * t) for x in row] for row in sub]


def rank_leaf_basicity(p, budget=2000):
    """classify_basicity as the library made it with an exact.rank of every subset, each (dim + 1)-subset included,
    before its covolume."""
    n, size = p.nvertices, p.dim + 1
    lifted = [[*x, p.denominator] for x in p.numerators]
    full = exact.covolume(lifted)

    def independent(prefix):
        for i in range(prefix[-1] + 1 if prefix else 0, n - size + len(prefix) + 1):
            sub = prefix + [i]
            if exact.rank([lifted[j] for j in sub]) < len(sub):
                continue
            if len(sub) == size:
                yield tuple(sub)
            else:
                yield from independent(sub)

    tested = 0
    for combo in independent([]):
        if tested == budget:
            return dr.BasicityClass(dr.UNDECIDED, None, tested, False,
                                    "budget exhausted before the subset enumeration finished")
        tested += 1
        if exact.covolume([lifted[j] for j in combo]) == full:
            return dr.BasicityClass(dr.Z_BASIC, combo, tested, False)
    return dr.BasicityClass(dr.Q_BASIC_ONLY, None, tested, True, "all affinely independent subsets tested")


def transform_basis(p, u):
    """Apply an integer unimodular change of coordinates z -> U z."""
    um, s = exact.over_common_denominator(u)
    assert len(um) == p.dim and all(len(row) == p.dim for row in um), "matrix size does not match dimension"
    assert s == 1 and exact.covolume(um) == 1, "basis change must be integral with determinant +-1"
    return model._from_integers(p.dim, [[sum(map(mul, row, x)) for row in um] for x in p.numerators], p.denominator)


def translate(p, a, reflect=False):
    """Map every vertex v to a + v, or to a - v when reflect is set."""
    assert len(a) == p.dim, "translation vector length does not match dimension"
    (b,), s = exact.over_common_denominator([a])
    k, sign = p.denominator, -1 if reflect else 1
    # b / s + sign x / k = (k b + sign s x) / (k s)
    return model._from_integers(p.dim, [[k * t + sign * s * y for t, y in zip(b, x)] for x in p.numerators], k * s)


def fraction_restricted_face_dimension(p, subset):
    """restricted_face_dimension through the Fraction vertices and from_coords."""
    idx = sorted(set(subset))
    if any(not 0 <= i < p.nvertices for i in idx):
        raise dr.WrongSize("subset index out of range")
    return dr.face_dimension(dr.from_coords(p.dim, [p.vertices[i] for i in idx]))


def fraction_check_symmetric_reduction(p, gram):
    """check_symmetric_reduction on the Fraction vertices, its section built by from_coords."""
    n = p.dim
    if n < 1:
        raise dr.WrongSize("the section bound needs dimension at least 1")
    axis = n - 1
    dr.circumcenter(p, gram)
    vset = set(p.vertices)
    zero = tuple(Fraction(0) for _ in range(n))
    units = [tuple(Fraction(int(k == i)) for k in range(n)) for i in range(n)]
    details = []
    if any(x.denominator != 1 for v in p.vertices for x in v):
        details.append("vertex coordinates are not all integral")
    if zero not in vset or any(u not in vset for u in units):
        details.append("origin or some unit coordinate vector is not a vertex")
    symmetric, pairing = dr.is_centrally_symmetric(p)
    if not symmetric:
        details.append("polytope is not centrally symmetric")
    failed = ["cs"] if details else []
    in_section = [v for v in p.vertices if v[axis] == 0]
    section = None
    try:
        section = dr.from_coords(n - 1, [v[:axis] + v[axis + 1:] for v in in_section])
    except dr.DelrankError as e:
        failed.append("h2")
        details.append(f"section is not a full-dimensional polytope in the hyperplane: {e}")
    if section is not None and dr.is_centrally_symmetric(section)[0]:
        failed.append("h2")
        details.append("section is centrally symmetric, not asymmetric")
    if symmetric:
        doubled = tuple(x + y for x, y in zip(p.vertices[0], p.vertices[pairing[0]]))
        section_set = set(in_section)
        mirror_set = {tuple(d - x for d, x in zip(doubled, v)) for v in section_set}
        if units[axis] in mirror_set:
            if not [v for v in p.vertices if v not in section_set and v not in mirror_set]:
                failed.append("h3")
                details.append(
                    "unit vector along the axis mirrors into the section and every vertex lies in the section or its mirror"
                )
        else:
            details.append(f"axis coordinate of the doubled center is {doubled[axis]}; escape clause not triggered")
    if failed:
        return dr.SymmetricReductionReport(applicable=False, failed=tuple(failed), details=tuple(details))
    r_full, r_sec = dr.rank_of(p), dr.rank_of(section)
    return dr.SymmetricReductionReport(
        applicable=True, failed=(), details=tuple(details), rank_full=r_full, rank_section=r_sec,
        inequality_holds=r_full <= r_sec,
    )
