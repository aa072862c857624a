"""Exact linear algebra over rationals and integers.

Matrices are plain lists of lists, vectors plain lists.  Rational entries
are fractions.Fraction, integer entries plain int.  All rational
elimination runs through one loop, _extend, which grows a reduced echelon
form by one row; no pivot is chosen by a magnitude heuristic.  Its pivot
rows are zero at each other's leading columns, so _cancel reduces a row
against all of them in one fraction-free pass: one scale, and one
subtraction per pivot row met.  _reduced is that form of a list of rows:
rank, sparse_rank and is_positive_definite read its pivots, and rref
scales it to integers over one denominator, canonical because a reduced
echelon form depends only on the row space.  A caller that reads the form
between rows keeps it across _extend calls instead of running rref per
row.  hermite_normal_form is the one elimination over Z.  Rational input
enters through over_common_denominator as integers over one denominator,
and rref hands its result back in the same format; nullspace and solve
divide by that denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

from .errors import InputError, WrongSize

Vec = list[Fraction]
IntMat = list[list[int]]


def _width(m) -> int:
    """The common length of the rows of m, 0 when it has none; WrongSize when the lengths differ."""
    w = len(m[0]) if m else 0
    if any(len(row) != w for row in m):
        raise WrongSize("ragged matrix")
    return w


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


def _cancel(r: dict[int, int], pivots) -> None:
    """Cancel row r, in place, at the leading column c of every (c, p) in pivots that it meets.

    The pivot rows are zero at each other's leading columns, so subtracting one leaves r's entries at the others as
    they are, and every multiplier is fixed by r's own entries.  So r is scaled once, by the least f > 0 that makes
    f r[c] a multiple of p[c] at every c met, and each met pivot row is subtracted once, f r[c] / p[c] times.
    Entries are deleted as they reach zero.  r may keep a content, which the caller divides out.  No p is modified.
    """
    f = 1
    for c, p in pivots:
        if c in r:
            b = p[c]
            if f % b:
                f = lcm(f, b // gcd(r[c], b))
    if f != 1:
        for k in r:
            r[k] *= f
    get = r.get
    for c, p in pivots:
        if c in r:
            a = r[c] // p[c]
            for k, v in p.items():
                x = get(k, 0) - a * v
                if x:
                    r[k] = x
                else:
                    del r[k]


def rref(m) -> tuple[IntMat, list[int], int]:
    """Reduced row echelon form in integers; returns (R, pivot column indices, d).

    R holds the nonzero rows of the reduced echelon form times d, where
    d > 0 is the lcm of their pivots, so R[i][pivots[i]] == d and every
    entry is an integer.  The form is _reduced of the rows.  The nonzero
    rows of a reduced echelon form depend only on the row space, so R and
    d are canonical.
    """
    rows, ncols = _int_rows(m)
    return _scaled(_reduced(rows), ncols)


def _reduced(rows) -> dict[int, dict[int, int]]:
    """The reduced echelon form of integer {column: entry} rows, adding them in order by _extend.

    Its pivot columns are keyed in the order the rows created them.  No input row is modified or stored as a pivot row.
    """
    form: dict[int, dict[int, int]] = {}
    for r in rows:
        _extend(form, r)
    return form


def _extend(form: dict[int, dict[int, int]], row: dict[int, int]) -> None:
    """Extend a reduced echelon form, its primitive pivot rows by leading column, by one integer {column: entry} row.

    This is the library's one rational elimination loop.  A copy of the row is cancelled by _cancel at every pivot
    column it meets, in one pass: a reduced pivot row holds only its own pivot and free columns, so subtracting it
    leaves the row's entries at the other pivot columns as they were, and the multipliers are fixed before any
    subtraction.  What is left, if anything, is divided by its content and becomes the pivot row at its leftmost
    column, keyed after the others; each other row that meets that column is cancelled at it the same way and made
    primitive again.  Every row is scaled by positive factors only, so no pivot changes sign.  _scaled(form, ncols) is
    then rref of the rows added so far, since a reduced echelon form depends only on the row space.  form is changed in
    place; the row is not.
    """
    r = {c: v for c, v in row.items() if v}
    _cancel(r, form.items())
    if not r:
        return
    c = min(r)
    g = gcd(*r.values())
    form[c] = r = {k: v // g for k, v in r.items()} if g > 1 else r
    for k, q in form.items():
        if k != c and c in q:
            _cancel(q, ((c, r),))
            g = gcd(*q.values())
            form[k] = {j: v // g for j, v in q.items()} if g > 1 else q


def _scaled(form: dict[int, dict[int, int]], ncols: int) -> tuple[IntMat, list[int], int]:
    """(R, pivots, d) as rref returns them, from a reduced echelon form of primitive pivot rows by leading column."""
    pivots = sorted(form)
    d = lcm(*(form[c][c] for c in pivots))
    red = []
    for c in pivots:
        r = form[c]
        f = d // r[c]
        red.append([r[j] * f if j in r else 0 for j in range(ncols)])
    return red, pivots, d


def rank(m) -> int:
    return len(_reduced(_int_rows(m)[0]))


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
    """Sylvester's criterion, read off the pivots of the _reduced form of the rows.

    The test: row c creates the pivot of column c, for c = 0..n-1 in row order, and every final pivot entry is
    positive.  _extend scales rows by positive factors only, so every pivot keeps the sign it was created with.  While
    the leading minors of orders 1..c are nonzero, rows 0..c-1 have created the pivots of columns 0..c-1, and reducing
    row c leaves a positive multiple of the Schur complement entry, the ratio of the leading minors of orders c+1 and
    c.  So the test passes exactly when every leading minor is positive: the first order c+1 whose minor is not
    positive makes row c die or pivot at a later column if it is zero, and create a negative pivot if it is negative.
    """
    rows, n = _int_rows(g)
    if len(rows) != n:
        raise WrongSize("non-square form")
    form = _reduced(rows)
    return list(form) == list(range(n)) and all(form[c][c] > 0 for c in range(n))


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
    # a full-rank Hermite form has its pivots on the diagonal; otherwise some h[i][i] is 0 or row i is missing
    return Fraction(prod(h[i][i] for i in range(n)) if len(h) >= n else 0, scale**n)


def sparse_rank(rows) -> int:
    """Rank of a sparse integer matrix given as {column: entry} dicts, the pivot count of their _reduced form."""
    return len(_reduced(rows))
