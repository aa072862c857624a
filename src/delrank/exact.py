"""Exact linear algebra over rationals and integers.

Matrices are plain lists of lists, vectors plain lists.  Rational entries
are fractions.Fraction, integer entries plain int.  The rational routines
share one fraction-free elimination, _echelon, which reduces each row in
turn against the pivot row at its leftmost column; no pivot is chosen by a
magnitude heuristic.  rref is canonical even so, because a reduced echelon
form depends only on the row space.  hermite_normal_form is the one
elimination over Z.  Rational input enters through over_common_denominator
as integers over one denominator, and rref hands its result back in the
same format; nullspace and solve divide by that denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import InputError, WrongSize

Vec = list[Fraction]
Mat = list[list[Fraction]]
IntVec = list[int]
IntMat = list[list[int]]


def _width(m) -> int:
    """The common length of the rows of m, 0 when it has none; WrongSize when the lengths differ."""
    w = len(m[0]) if m else 0
    if any(len(row) != w for row in m):
        raise WrongSize("ragged matrix")
    return w


def qmat(rows) -> Mat:
    m = [[x if isinstance(x, Fraction) else Fraction(x) for x in row] for row in rows]
    _width(m)
    return m


def over_common_denominator(m) -> tuple[IntMat, int]:
    """Integer rows a and the least s > 0 with m = a / s, entrywise.

    s is the lcm of all denominators of m, so it scales every row by the
    same factor: the result keeps the kernel, the row space, ratios of
    entries across rows, and every comparison between them.  Integer rows
    pass through as they are, with s = 1.  This is the one way rational
    input enters the kernel.
    """
    a = [list(row) for row in m]
    _width(a)
    if {type(x) for row in a for x in row} <= {int}:
        return a, 1
    q = [[x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row] for row in a]
    s = lcm(*{x.denominator for row in q for x in row})
    return [[x.numerator * (s // x.denominator) for x in row] for row in q], s


def _int_rows(m) -> tuple[list[dict[int, int]], int]:
    """The rows of m over their common denominator as {column: entry} dicts of the nonzero entries; and the row length."""
    a, _ = over_common_denominator(m)
    return [{j: x for j, x in enumerate(row) if x} for row in a], len(a[0]) if a else 0


def _step(r: dict[int, int], p: dict[int, int], c: int) -> dict[int, int]:
    """Row r with column c cancelled against pivot row p, divided by its content.

    The two multipliers are divided by their gcd, so r is scaled only when
    the pivot's multiplier is not 1, and only by a positive factor when
    p[c] > 0.  Neither input is modified.
    """
    a, b = r[c], p[c]
    g = gcd(a, b)
    a //= g
    b //= g
    m = dict(r) if b == 1 else {k: b * v for k, v in r.items()}
    get = m.get
    for k, v in p.items():
        m[k] = get(k, 0) - a * v
    g = gcd(*m.values())
    return {k: v // g for k, v in m.items() if v} if g > 1 else {k: v for k, v in m.items() if v}


def _echelon(rows) -> dict[int, dict[int, int]]:
    """Fraction-free echelon form of integer {column: entry} rows: the primitive pivot rows by leading column.

    Each incoming row is reduced by _step against the stored pivot row at
    its leftmost column until it dies or starts a new pivot.  Every step is
    a nonzero multiple of a rational Gauss step, so the pivot rows span the
    row space of the input.  Input rows are never modified.
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
            r = _step(r, p, c)
    return pivots


def rref(m) -> tuple[IntMat, list[int], int]:
    """Reduced row echelon form in integers; returns (R, pivot column indices, d).

    R holds the nonzero rows of the reduced echelon form times d, where
    d > 0 is the lcm of their pivots, so R[i][pivots[i]] == d and every
    entry is an integer.  The rows are brought to echelon form by
    _echelon; then each pivot row, last first, is cleared at the later
    pivots.  The nonzero rows of a reduced echelon form depend only on the
    row space, so R and d are canonical.
    """
    rows, ncols = _int_rows(m)
    echelon = _echelon(rows)
    pivots = sorted(echelon)
    for i in reversed(range(len(pivots))):
        r = echelon[pivots[i]]
        for c in pivots[i + 1:]:
            if c in r:
                r = _step(r, echelon[c], c)
        echelon[pivots[i]] = r
    d = lcm(*(echelon[c][c] for c in pivots))
    red = []
    for c in pivots:
        r = echelon[c]
        f = d // r[c]
        red.append([r[j] * f if j in r else 0 for j in range(ncols)])
    return red, pivots, d


def rank(m) -> int:
    return len(_echelon(_int_rows(m)[0]))


def nullspace(m) -> list[Vec]:
    """Basis of {x : m x = 0}, one vector per free column of the echelon form.

    Each basis vector has entry 1 at its free column and zeros at the other
    free columns, so the output is canonical.
    """
    red, pivots, d = rref(m)
    ncols = len(m[0]) if m else 0
    pivset = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, c in zip(red, pivots):
            v[c] = Fraction(-row[f], d)
        basis.append(v)
    return basis


def solve(a, b) -> Vec | None:
    """One exact solution of a x = b with free variables set to 0, or None."""
    bv = list(b)
    if len(a) != len(bv):
        raise WrongSize("size mismatch")
    ncols = len(a[0]) if a else 0
    red, pivots, d = rref([[*row, x] for row, x in zip(a, bv)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, c in zip(red, pivots):
        x[c] = Fraction(row[ncols], d)
    return x


def is_positive_definite(g) -> bool:
    """Sylvester's criterion, read off the pivots of one _echelon pass.

    The form is positive definite exactly when row c starts the pivot of
    column c, for c = 0..n-1 in row order, and every pivot entry is
    positive.  Row c is then reduced without row swaps against the pivots
    of columns 0..c-1 in turn; while those are positive, each step scales
    the row by a positive factor, so its entry at c keeps the sign of the
    ratio of successive leading minors.
    """
    rows, n = _int_rows(g)
    if len(rows) != n:
        raise WrongSize("non-square form")
    pivots = _echelon(rows)
    return list(pivots) == list(range(n)) and all(pivots[c][c] > 0 for c in range(n))


def _as_int_matrix(m) -> IntMat:
    a, s = over_common_denominator(m)
    if s != 1:
        raise InputError("integer matrix expected")
    return a


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
    a, scale = over_common_denominator(rows)
    n = len(a[0]) if a else 0
    h = hermite_normal_form(a)
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
    a, _ = over_common_denominator(m)
    ncols = len(a[0]) if a else 0
    h = hermite_normal_form([[*col, *(int(i == j) for j in range(ncols))] for i, col in enumerate(zip(*a))])
    return [row[len(a):] for row in h if not any(row[: len(a)])]


def sparse_rank(rows) -> int:
    """Rank of a sparse integer matrix given as {column: entry} dicts; input rows are never modified."""
    return len(_echelon(rows))
