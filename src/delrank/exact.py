"""Exact linear algebra over rationals and integers.

Matrices are plain lists of lists, vectors plain lists.  Rational entries
are fractions.Fraction, integer entries plain int.  Every routine is
deterministic: pivots are chosen by fixed scan order, never by magnitude
heuristics that depend on input encoding.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Vec = list[Fraction]
Mat = list[list[Fraction]]
IntVec = list[int]
IntMat = list[list[int]]


def qmat(rows) -> Mat:
    m = [[x if isinstance(x, Fraction) else Fraction(x) for x in row] for row in rows]
    if m:
        w = len(m[0])
        if any(len(row) != w for row in m):
            raise ValueError("ragged matrix")
    return m


def _scaled_row(row) -> IntVec:
    """The row times the lcm of its denominators: an integer row with the same RREF."""
    q = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    s = lcm(*(x.denominator for x in q))
    return [x.numerator * (s // x.denominator) for x in q]


def _combine(pv: int, f: int, u: IntVec, v: IntVec) -> IntVec:
    """pv * u - f * v divided by its content."""
    row = [pv * x - f * y for x, y in zip(u, v)]
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _eliminate(m, jordan: bool) -> tuple[IntMat, list[int]]:
    """Fraction-free elimination of the row-scaled matrix; returns (rows, pivot columns).

    Each pivot is the first nonzero entry scanning down its column.  Row i
    becomes pv * row_i - f * row_r divided by its content, a nonzero
    multiple of the rational Gauss step, so zero patterns, swaps and
    pivots match it.  With jordan the rows above each pivot are cleared
    too, so the pivot rows divided by their pivots are the RREF; without
    it only the rows below are, which is enough for the pivot columns.
    """
    a = [_scaled_row(row) for row in m]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    if any(len(row) != ncols for row in a):
        raise ValueError("ragged matrix")
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        row_r = a[r]
        pv = row_r[c]
        for i in range(0 if jordan else r + 1, nrows):
            f = a[i][c]
            if f and i != r:
                a[i] = _combine(pv, f, a[i], row_r)
        pivots.append(c)
        r += 1
    return a, pivots


def rref(m: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form; returns (R, pivot column indices).

    Pivot is the first nonzero entry scanning down each column, so the
    result is canonical for a given row ordering.  The elimination runs in
    integers; only the result is made of fractions.
    """
    a, pivots = _eliminate(m, jordan=True)
    red = [[Fraction(x, row[c]) for x in row] for row, c in zip(a, pivots)]
    red += [[Fraction(0)] * len(row) for row in a[len(pivots):]]
    return red, pivots


def rank(m) -> int:
    return len(_eliminate(m, jordan=False)[1])


def nullspace(m) -> list[Vec]:
    """Basis of {x : m x = 0}, one vector per free column of the echelon form.

    Each basis vector has entry 1 at its free column and zeros at the other
    free columns, so the output is canonical.
    """
    red, pivots = rref(m)
    ncols = len(red[0]) if red else 0
    pivset = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(v)
    return basis


def solve(a, b) -> Vec | None:
    """One exact solution of a x = b with free variables set to 0, or None."""
    bv = list(b)
    if len(a) != len(bv):
        raise ValueError("size mismatch")
    ncols = len(a[0]) if a else 0
    red, pivots = rref([[*row, x] for row, x in zip(a, bv)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    return x


def is_positive_definite(g) -> bool:
    """Sylvester test: one fraction-free elimination without row swaps.

    Rows are scaled to integers by positive factors and combined as
    pv * row_i - f * row_c with pv > 0, so each pivot keeps the sign of
    the ratio of successive leading minors, and all must be positive.
    """
    a = [_scaled_row(row) for row in g]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("non-square form")
    for c in range(n):
        pv = a[c][c]
        if pv <= 0:
            return False
        for i in range(c + 1, n):
            f = a[i][c]
            if f:
                a[i] = _combine(pv, f, a[i], a[c])
    return True


def _as_int_matrix(m) -> IntMat:
    out = [[x if type(x) is int else Fraction(x) for x in row] for row in m]
    for row in out:
        if len(row) != len(out[0]):
            raise ValueError("ragged matrix")
        for k, x in enumerate(row):
            if type(x) is not int:
                if x.denominator != 1:
                    raise ValueError("integer matrix expected")
                row[k] = x.numerator
    return out


def hermite_normal_form(m) -> IntMat:
    """Row Hermite normal form H of an integer matrix: its rows span the same lattice.

    Pivot entries are positive, entries above each pivot are reduced into
    [0, pivot), zero rows collect at the bottom.  The unimodular U with
    H = U m is the right-hand part of the Hermite form of [m | I].
    """
    h = _as_int_matrix(m)
    nrows = len(h)
    ncols = len(h[0]) if h else 0
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        while True:
            live = [i for i in range(r, nrows) if h[i][c] != 0]
            if not live:
                break
            i0 = min(live, key=lambda i: (abs(h[i][c]), i))
            if i0 != r:
                h[r], h[i0] = h[i0], h[r]
            rest = [i for i in range(r + 1, nrows) if h[i][c] != 0]
            if not rest:
                break
            for i in rest:
                q = h[i][c] // h[r][c]
                if q:
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
        if h[r][c] != 0:
            if h[r][c] < 0:
                h[r] = [-x for x in h[r]]
            piv = h[r][c]
            for i in range(r):
                q = h[i][c] // piv  # floor keeps residues in [0, piv)
                if q:
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
            r += 1
    return h


def covolume(rows) -> Fraction:
    """Covolume of the lattice the rational rows generate in Q^n, n their length.

    That is |det| of any Z-basis of the lattice, read off the Hermite form
    of the rows scaled to integers; 0 when the rows do not span Q^n.
    """
    m = qmat(rows)
    n = len(m[0]) if m else 0
    scale = lcm(*(x.denominator for row in m for x in row))
    h = hermite_normal_form([[x.numerator * (scale // x.denominator) for x in row] for row in m])
    d = Fraction(1)
    for i in range(n):
        # a full-rank Hermite form has its pivots on the diagonal; otherwise
        # some h[i][i] is 0 or row i is missing
        d *= h[i][i] if i < len(h) else 0
    return d / Fraction(scale) ** n


def integral_kernel(m) -> list[IntVec]:
    """Z-basis of the integer kernel {y : m y = 0}, in Hermite-canonical form.

    The returned vectors span every integer solution over Z, not merely the
    rational kernel.  Rational rows are scaled to integers, which keeps the
    kernel.  The Hermite form of [m^T | I] is [H | U] with U unimodular and
    U m^T = H, so the U-parts of the rows where H is zero are a Z-basis of
    the kernel; as the bottom rows of a Hermite form they are already in
    Hermite form.  Each vector comes out primitive with positive leading
    entry.
    """
    a = [_scaled_row(row) for row in m]
    ncols = len(a[0]) if a else 0
    if any(len(row) != ncols for row in a):
        raise ValueError("ragged matrix")
    h = hermite_normal_form([[*col, *(int(i == j) for j in range(ncols))] for i, col in enumerate(zip(*a))])
    return [row[len(a):] for row in h if not any(row[: len(a)])]


def primitivize(v) -> IntVec:
    """Scale a rational vector to a primitive integer vector.

    Clears denominators, divides by the content, and flips sign so the
    first nonzero entry is positive.  Rejects the zero vector.
    """
    ints = _scaled_row(v)
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    if next(x for x in ints if x) < 0:
        g = -g
    return [x // g for x in ints]


def sparse_rank(rows) -> int:
    """Rank of a sparse integer matrix given as {column: entry} dicts.

    Fraction-free elimination: each incoming row is reduced against stored
    pivot rows by leftmost column until it dies or yields a new pivot.  The
    two multipliers are divided by their gcd, so a row is scaled only when
    the pivot's multiplier is not 1, and each combination is divided by its
    content to bound entry growth; stored pivots are primitive.  Input rows
    are never modified.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        r = row if all(row.values()) else {c: v for c, v in row.items() if v}
        while r:
            c = min(r)
            p = pivots.get(c)
            if p is None:
                g = gcd(*r.values())
                pivots[c] = {k: v // g for k, v in r.items()} if g > 1 else r
                break
            a, b = r[c], p[c]
            g = gcd(a, b)
            a //= g
            b //= g
            m = dict(r) if b == 1 else {k: b * v for k, v in r.items()}
            get = m.get
            for k, v in p.items():
                m[k] = get(k, 0) - a * v
            g = gcd(*m.values())
            r = {k: v // g for k, v in m.items() if v} if g > 1 else {k: v for k, v in m.items() if v}
    return len(pivots)
