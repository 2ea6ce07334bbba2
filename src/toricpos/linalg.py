"""Exact linear algebra over Q and Z.

Everything here works on plain lists of ``Fraction``/``int``; no floating
point exists anywhere in the library. Elimination runs on integer rows:
``rref`` clears each row of denominators once, and every step replaces a row
by ``_eliminate``, the positive multiple p*row - f*pivot_row divided by its
content, the same row operation the simplex's pivots make. The Smith normal
form returns the unimodular transforms so callers can build quotient-lattice
projections.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _eliminate(row, prow, col):
    """``row`` with column ``col`` cleared by ``prow`` (prow[col] > 0): the
    positive multiple prow[col]*row - row[col]*prow, divided by its content.
    The one row operation of ``rref`` and of the simplex's pivots."""
    p, f = prow[col], row[col]
    return content_free([p * x - f * y for x, y in zip(row, prow)])


def rref(mat) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan elimination on integer rows; returns (R, pivot columns).

    Row i of R, divided by its positive entry R[i][pivots[i]], is row i of
    the reduced row echelon form over Q; every row of R is content-free. The
    pivot in each column is the first row from the current one on with a
    nonzero entry there."""
    a = [content_free(clear_denominators(row)[0]) for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if a[i][c]), None)
        if pivot_row is None:
            continue
        prow = a[pivot_row]
        if prow[c] < 0:
            prow = [-x for x in prow]
        a[pivot_row] = a[r]
        a[r] = prow
        for i in range(rows):
            if i != r and a[i][c]:
                a[i] = _eliminate(a[i], prow, c)
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def matrix_rank(mat) -> int:
    return len(rref(mat)[1])


def solve_linear(mat, rhs) -> list[Fraction] | None:
    """One exact solution x of mat @ x = rhs, or None. Free variables are 0."""
    if not mat:
        return [] if all(x == 0 for x in rhs) else None
    cols = len(mat[0])
    red, pivots = rref([[*row, b] for row, b in zip(mat, rhs)])
    if cols in pivots:  # pivot in the augmented column: inconsistent
        return None
    x = [Fraction(0)] * cols
    for row, c in zip(red, pivots):
        x[c] = Fraction(row[cols], row[c])
    return x


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a,b) >= 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def smith_normal_form(mat) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form of an integer matrix.

    Returns (S, U, V) with U @ mat @ V = S, S diagonal with d1 | d2 | ...,
    and det(U), det(V) = +-1. Total on integer matrices, deterministic.
    """
    s = [[int(x) for x in row] for row in mat]
    m = len(s)
    n = len(s[0]) if m else 0
    u = identity(m)
    v = identity(n)
    if m == 0 or n == 0:
        return s, u, v

    def row_op(i, j, a, b, c, d):
        # (row_i, row_j) <- (a*row_i + b*row_j, c*row_i + d*row_j), det ad-bc = +-1
        for mat_ in (s, u):
            ri, rj = mat_[i], mat_[j]
            for k in range(len(ri)):
                ri[k], rj[k] = a * ri[k] + b * rj[k], c * ri[k] + d * rj[k]

    def col_op(i, j, a, b, c, d):
        for mat_ in (s, v):
            for row in mat_:
                row[i], row[j] = a * row[i] + b * row[j], c * row[i] + d * row[j]

    def find_pivot(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = abs(s[i][j])
                if x and (best is None or x < best[0]):
                    best = (x, i, j)
        return best

    t = 0
    while t < min(m, n):
        found = find_pivot(t)
        if found is None:
            break
        _, pi, pj = found
        if pi != t:
            row_op(t, pi, 0, 1, 1, 0)
        if pj != t:
            col_op(t, pj, 0, 1, 1, 0)
        while True:
            dirty = False
            for i in range(t + 1, m):
                b_ = s[i][t]
                if not b_:
                    continue
                a_ = s[t][t]
                if b_ % a_ == 0:  # plain elimination keeps the pivot row intact
                    row_op(t, i, 1, 0, -(b_ // a_), 1)
                else:  # gcd transform strictly shrinks the pivot
                    g, x, y = _ext_gcd(a_, b_)
                    row_op(t, i, x, y, -(b_ // g), a_ // g)
                dirty = True
            for j in range(t + 1, n):
                b_ = s[t][j]
                if not b_:
                    continue
                a_ = s[t][t]
                if b_ % a_ == 0:
                    col_op(t, j, 1, 0, -(b_ // a_), 1)
                else:
                    g, x, y = _ext_gcd(a_, b_)
                    col_op(t, j, x, y, -(b_ // g), a_ // g)
                dirty = True
            if not dirty:
                break
        # divisibility: fold any non-multiple into the pivot position
        pivot = s[t][t]
        culprit = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if pivot and s[i][j] % pivot:
                    culprit = (i, j)
                    break
            if culprit:
                break
        if culprit:
            row_op(t, culprit[0], 1, 1, 0, 1)  # add the offending row to row t
            continue
        if s[t][t] < 0:
            # negating one row is a det -1 operation, still unimodular
            for mat_ in (s, u):
                mat_[t] = [-x for x in mat_[t]]
        t += 1
    return s, u, v


def primitive_vector(vec) -> tuple[tuple[int, ...], int]:
    """(primitive vector, positive multiplier) with vec = multiplier * primitive.

    Accepts an integer vector; raises on zero vectors.
    """
    ints = [int(x) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g == 0:
        raise ValueError("zero vector has no primitive direction")
    return tuple(x // g for x in ints), g


def content_free(ints):
    """The integer vector divided by its content (gcd); a zero vector stays zero."""
    g = gcd(*ints)
    return ints if g <= 1 else [x // g for x in ints]


def clear_denominators(values) -> tuple[list[int], int]:
    """Scale rationals to integers: returns (ints, L) with ints = L * values.

    An all-``int`` input, the common case for rows built from integral
    divisors, is returned as it is with L = 1, without ``Fraction`` work."""
    if all(type(x) is int for x in values):
        return list(values), 1
    fracs = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in values]
    scale = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (scale // f.denominator) for f in fracs], scale
