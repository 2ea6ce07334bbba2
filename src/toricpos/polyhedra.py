"""Rational polyhedra with mixed strict/weak rows: feasibility, exact LP,
lattice points.

A row (u, c) encodes the condition on y:

* strict row:  <y, u> + c <  0
* weak row:    <y, u> + c >= 0

``polyhedron()`` stores each row scaled to integers and divided by its
content (a zero row stays zero); positive scaling keeps each condition, and
the content-free form of a row is unique.

A divisor's regions build no row. Every region the library asks about picks,
per ray, the row (u_rho, a_rho), its negation, both, or the joint row
(u_rho, -h_rho; a_rho) of D - eps*H, so its normals are fixed by the fan and
the selection. ``Selections`` holds one kind of region on one fan
(``Fan.regions``): selection -> (plan, index), where index reads the
region's closure constants b out of a coefficient vector (``rhs``). A query
is (plan, b).

Fourier-Motzkin decides. A ``Plan`` holds what one (dim, strict normals,
weak normals) fixes, each part built on first use and kept by the plan
alone, so a fan's plans go with its tables: the closure's rows <u, y> <= b,
the lifted (y, t) system whose largest t decides strict feasibility, the
walk's layout and one chain of levels. Level d is the closure's rows on
coordinates d.. projected onto y_d (``_projection``, Schrijver 12.2): with
y_0..y_{d-1} fixed and their share taken out of b, it gives y_d's exact
range. A query reads only its constants, one dot product per projected row,
exactly (a rational class's constants are Fractions): ``closure_nonempty``
reads level 0, ``strictly_feasible`` the lifted system's projection onto t
and ``point``, which writes a witness, both. ``lattice_points``, the one
``Polyhedron`` entry point to the walk, asks (``_plan_of(poly)``, ``_closure_rhs(poly)``).

The simplex below builds its rows directly and creates no plan. It is the
tests' reference; no library path, fan condition and witnesses included,
solves an LP. It is a two-phase
tableau of integer rows with Bland's rule: each pivot is a multiply-subtract
pass and a gcd content reduction per row, the signs and ratios Bland's rule
reads are those of the rational tableau, and results are read as Fractions.

Lattice enumeration floors each constant once: <u, y> is an integer on
integer points, so <u, y> + c >= 0 iff <u, y> + floor(c) >= 0, and
<u, y> + c < 0 iff <u, y> + floor(c) + 1 <= 0. The walk visits one
coordinate per depth: a node at depth d reads level d on the constants left
by its prefix and rounds y_d's exact range inward, and a node is built only
when the walk visits it. It stops at the parent nodes (depth n - 2), where
each end of a child's last-coordinate interval is a min of terms
floor((A - p * v) / d) in the child's coordinate v (``Plan.parent_terms``).
The parents under one grandparent (depth n - 3) are read together: fixing
its coordinate u takes u * cols[n - 3] off the constants, so each row a
parent reads is an arithmetic progression in u, and a parent's range and
terms are progressions folded with min, drawn one parent at a time.
``parent_sum`` counts a parent's points from its terms in closed form,
whatever its width, one pass over each side's terms in slope order, and
``Plan.blocks``, the walk's one output, yields the parents with a point.
``Weights`` is their one reader: a sequence of the points, which builds a
block's children's ends as lazy ``folds`` only when a reader enters it.
``Plan.has_point`` reads y_0's integers (``Plan.start``). Every interval is
exact, so a walk stops short of a point only at an integer gap, a nonempty
range that holds no integer, and a level can hold one only if a row's y_d
coefficient is a > 1. A gapless plan (a = 1 on levels 1.., every bad-subset
plan of the built-in fans) answers there; another dives once from the root
to a leaf (``Plan.dive``), through the middle of each node's interval, and
falls back to the counts at a gap. ``Twists`` asks has_point over a window
of constants n * b_d - j * b_h (the q-ample scan's twists N*D - j*H): each
projected row of level 0 reads n * x - j * y - z there (the projection is
linear in the constants), so y_0's integers take three multiply-adds per
row, and only a plan that is not gapless builds constants and dives.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, count, islice, repeat
from math import ceil, floor, gcd, lcm
from operator import itemgetter, sub
from typing import NamedTuple

from .errors import UnboundedRegion
from .linalg import _eliminate, clear_denominators, content_free

Row = tuple[tuple[int, ...], int]  # integers with content 1, or all zero


class Polyhedron(NamedTuple):
    """Mixed-row rational polyhedron in Q^dim; build it with ``polyhedron()``,
    which stores each row as content-free integers."""

    dim: int
    strict: tuple[Row, ...] = ()
    weak: tuple[Row, ...] = ()

    def satisfied_by(self, point) -> bool:
        pt = [Fraction(x) for x in point]
        if len(pt) != self.dim:
            return False
        for u, c in self.strict:
            if sum(a * b for a, b in zip(pt, u)) + c >= 0:
                return False
        for u, c in self.weak:
            if sum(a * b for a, b in zip(pt, u)) + c < 0:
                return False
        return True


def polyhedron(dim, strict=(), weak=()) -> Polyhedron:
    def norm(rows):
        out = []
        for u, c in rows:
            if len(u) != dim:
                raise ValueError(f"row has {len(u)} coordinates, expected {dim}")
            ints = content_free(clear_denominators([*u, c])[0])
            out.append((tuple(ints[:-1]), ints[-1]))
        return tuple(out)

    return Polyhedron(dim, norm(strict), norm(weak))


# ---------------------------------------------------------------------------
# simplex core: maximize c.z subject to A z <= b, z >= 0
# ---------------------------------------------------------------------------


# A tableau row is a list of integers with the rhs in the last slot. A
# constraint row needs no denominator of its own: its basic column holds a
# positive entry d, the row stands for itself divided by d, and any positive
# multiple of it stands for the same equation. An objective row holds the
# reduced costs, then -value, then its positive denominator. Every pivot keeps
# the basic entries positive and replaces each other row by
# ``linalg._eliminate``, the row operation of ``rref``: a positive multiple
# divided by its content. The signs and ratios Bland's rule reads are those
# of the rational tableau.


def _price_out(obj, prow, col):
    """Objective row with column ``col`` eliminated by ``prow`` (prow[col] > 0)."""
    if not obj[col]:
        return obj
    return _eliminate(obj, [*prow, 0], col)  # the denominator slot scales by prow[col]


def _pivot(rows, basis, objs, col, r):
    """Pivot column ``col`` into the basis at row ``r``, objective rows too."""
    prow = rows[r]
    if prow[col] < 0:  # only when driving out an artificial, whose rhs is 0
        prow = rows[r] = [-x for x in prow]
    for i, row in enumerate(rows):
        if row[col] and i != r:
            rows[i] = _eliminate(row, prow, col)
    objs[:] = [_price_out(obj, prow, col) for obj in objs]
    basis[r] = col


def _optimize(rows, basis, objs, ncols):
    """Bland's rule on ``objs[0]``, pivoting every row of ``objs`` along.

    Returns 'optimal' or 'unbounded'.
    """
    obj = objs[0]
    while True:
        enter = next((j for j in range(ncols) if obj[j] > 0), None)
        if enter is None:
            return "optimal"
        best = None
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                if best is None:
                    best, best_a, best_rhs = i, a, row[-1]
                    continue
                lhs, rhs = row[-1] * best_a, best_rhs * a  # rhs_i/a vs rhs_best/best_a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                    best, best_a, best_rhs = i, a, row[-1]
        if best is None:
            return "unbounded"
        _pivot(rows, basis, objs, enter, best)
        obj = objs[0]


def simplex_max(a_rows, b_vals, cost):
    """Exact two-phase simplex.

    Maximizes cost.z subject to a_rows @ z <= b_vals, z >= 0.
    Returns (status, z, value) with status in {optimal, unbounded, infeasible}.
    """
    m = len(a_rows)
    n = len(cost)
    slack = n + m
    rows, art_rows = [], []
    for i in range(m):
        ints, scale = clear_denominators(list(a_rows[i]) + [b_vals[i]])
        row = ints[:n] + [0] * m + ints[n:]
        row[n + i] = scale
        if ints[n] < 0:
            row = [-x for x in row]
            art_rows.append(i)
        rows.append(row)
    total = slack + len(art_rows)
    basis = list(range(n, slack))
    for row in rows:  # artificial columns go between the slacks and the rhs
        row[slack:slack] = [0] * len(art_rows)
    for k, i in enumerate(art_rows):  # a negated row's artificial enters at +scale
        rows[i][slack + k] = -rows[i][n + i]
        basis[i] = slack + k
    ints, scale = clear_denominators(cost)
    obj = ints + [0] * (total - n) + [0, scale]  # the initial basis costs 0
    if art_rows:
        phase1 = [0] * slack + [-1] * len(art_rows) + [0, 1]
        for i in art_rows:
            phase1 = _price_out(phase1, rows[i], basis[i])
        objs = [phase1, obj]
        _optimize(rows, basis, objs, total)
        if objs[0][-2] != 0:
            return "infeasible", None, None
        objs = objs[1:]
        for i in range(len(rows)):  # drive degenerate artificials out
            if basis[i] >= slack:
                col = next((j for j in range(slack) if rows[i][j] != 0), None)
                if col is not None:
                    _pivot(rows, basis, objs, col, i)
        keep = [i for i in range(len(rows)) if basis[i] < slack]
        rows = [rows[i][:slack] + rows[i][-1:] for i in keep]
        basis = [basis[i] for i in keep]
        obj = objs[0][:slack] + objs[0][-2:]
    objs = [obj]
    status = _optimize(rows, basis, objs, slack)
    if status == "unbounded":
        return "unbounded", None, None
    z = [Fraction(0)] * n
    for row, bvar in zip(rows, basis):
        if bvar < n:
            z[bvar] = Fraction(row[-1], row[bvar])
    obj = objs[0]
    return "optimal", z, Fraction(-obj[-2], obj[-1])


def lp_free_max(a_rows, b_vals, cost):
    """Maximize cost.y subject to a_rows @ y <= b_vals with y free.

    Free variables are split y = y+ - y-. Returns (status, y, value).
    """
    n = len(cost)
    a2 = [[x for x in row] + [-x for x in row] for row in a_rows]
    c2 = [x for x in cost] + [-x for x in cost]
    status, z, value = simplex_max(a2, b_vals, c2)
    if status != "optimal":
        return status, None, None
    y = [z[i] - z[n + i] for i in range(n)]
    return "optimal", y, value


def lp_optimize(poly: Polyhedron, objective, sense="max"):
    """Optimize over the closure (strict rows relaxed to weak).

    Returns (status, point, value); value is for the requested sense. No
    decision calls it: the test suite's oracles check the projections
    against it, and perfbench's tracer still names it.
    """
    c = list(objective) if sense == "max" else [-x for x in objective]
    leq = [[-x for x in u] for u, _ in poly.weak] + [list(u) for u, _ in poly.strict]
    status, y, value = lp_free_max(leq, _closure_rhs(poly), c)
    if status != "optimal":
        return status, None, None
    return "optimal", tuple(y), value if sense == "max" else -value


def lp_strict_feasible(poly: Polyhedron) -> tuple[Fraction, ...] | None:
    """A rational point satisfying every row, or None when there is none.

    Slack contract: maximize t with strict rows shifted by t; t is capped at 1
    so an unbounded slack still gives a concrete witness.
    No library path calls it (``Plan.point`` writes the witness); its rows
    are built here, so it creates no plan.
    """
    n = poly.dim
    rows = [(*u, 1) for u, _ in poly.strict] + [(*(-x for x in u), 0) for u, _ in poly.weak]
    rows += [(0,) * n + (1,), (0,) * n + (-1,)]
    rhs = [-c for _, c in poly.strict] + [c for _, c in poly.weak] + [1, 0]
    status, y, value = lp_free_max(rows, rhs, [0] * n + [1])
    if status != "optimal" or value <= 0:
        return None
    return tuple(y[:n])


# ---------------------------------------------------------------------------
# region plans: what a region's row normals fix, built once
# ---------------------------------------------------------------------------


def _primitive(u, lam):
    """Row (u, lam) divided by the content of its normal and multipliers."""
    g = gcd(*u, *(l for _, l in lam))
    return (u, lam) if g == 1 else (tuple(x // g for x in u), tuple((i, l // g) for i, l in lam))


def _projection(normals, dim, k):
    """Closure rows <normals[i], y> <= b_i projected onto coordinate y_k.

    Returns (zeros, uppers, lowers). A pair (a, lam) in uppers says
    a * y_k <= sum(l * b_i for i, l in lam), one in lowers says
    -a * y_k <= that sum, with a > 0 in both; each multiplier tuple lam in
    zeros says 0 <= its sum. Together they are implied by the rows and cut
    out exactly the closure's projection onto y_k (Fourier-Motzkin
    elimination, Schrijver, Theory of Linear and Integer Programming, 1986,
    12.2), and zeros say whether the closure is empty. After t eliminations
    a combination of more than t + 1 original rows is implied by the others
    for every b (Chernikov's rule) and is dropped, as are exact duplicates.
    """
    rows = [(u, ((i, 1),)) for i, u in enumerate(normals)]
    for t, j in enumerate((j for j in range(dim) if j != k), 1):
        kept = [row for row in rows if row[0][j] == 0]
        neg = [row for row in rows if row[0][j] < 0]
        for up, lp in (row for row in rows if row[0][j] > 0):
            for un, ln in neg:
                p, q = up[j], -un[j]
                lam = dict((i, q * l) for i, l in lp)
                for i, l in ln:
                    lam[i] = lam.get(i, 0) + p * l
                if len(lam) <= t + 1:
                    u = tuple(q * x + p * y for x, y in zip(up, un))
                    kept.append(_primitive(u, tuple(sorted(lam.items()))))
        rows = list(dict.fromkeys(kept))
    return (
        tuple(lam for u, lam in rows if u[k] == 0),
        tuple((u[k], lam) for u, lam in rows if u[k] > 0),
        tuple((-u[k], lam) for u, lam in rows if u[k] < 0),
    )


def _range(projection, b):
    """The exact range of y_k over {y : <normals[i], y> <= b[i]}, read from
    the projection of the normals onto y_k: (lower, upper) with each side a
    (num, den) pair, den > 0, or None when unbounded; None when the set is
    empty. One dot product per projected row, so each side equals the LP
    optimum. The dot products are written out as loops: a generator per
    projected row took twice as long."""
    zeros, uppers, lowers = projection
    for lam in zeros:
        s = 0
        for i, l in lam:
            s += l * b[i]
        if s < 0:
            return None
    lower = upper = None
    for a, lam in uppers:
        s = 0
        for i, l in lam:
            s += l * b[i]
        if upper is None or s * upper[1] < upper[0] * a:
            upper = (s, a)
    for a, lam in lowers:  # y_k >= s / a
        s = 0
        for i, l in lam:
            s -= l * b[i]
        if lower is None or s * lower[1] > lower[0] * a:
            lower = (s, a)
    if lower is not None and upper is not None and lower[0] * upper[1] > upper[0] * lower[1]:
        return None
    return lower, upper


def _simplest(lower, upper):
    """The simplest rational (p, q), q > 0 and coprime to p, in the closed
    interval [lower, upper] with sides as ``_range`` gives them: the integer
    nearest 0 if it holds one, else the one of least denominator, found down
    the Stern-Brocot tree (Graham-Knuth-Patashnik, Concrete Mathematics, 4.5):
    an interval inside (n, n + 1) holds n + 1/r for r in the flipped one."""
    if upper is not None and upper[0] < 0:
        p, q = _simplest((-upper[0], upper[1]), lower and (-lower[0], lower[1]))
        return -p, q
    if lower is None or lower[0] <= 0:
        return 0, 1
    (a, b), (c, d) = lower, upper or (1, 0)  # (1, 0) stands for +infinity
    P, Q, R, S = 1, 0, 0, 1  # the answer is (P * r + Q) / (R * r + S)
    while (r := -(-a // b)) * d > c:  # no integer in [a/b, c/d]: it is inside (r - 1, r)
        a, b, c, d = d, c - (r - 1) * d, b, a - (r - 1) * b
        P, Q, R, S = P * (r - 1) + Q, P, R * (r - 1) + S, R
    return P * r + Q, R * r + S


# ---------------------------------------------------------------------------
# the lattice walk and the plan
# ---------------------------------------------------------------------------


def _integers(level, rest):
    """The integers (lo, hi) in the range ``_range`` reads from a level on
    the constants rest, empty when lo > hi; a side is None when unbounded."""
    span = _range(level, rest)
    if span is None:
        return 0, -1
    lower, upper = span
    return lower and -(-lower[0] // lower[1]), upper and upper[0] // upper[1]


def _parents(cols, levels, v_lo, v_hi, rest):
    """The walk from the root's interval [v_lo, v_hi] down to depth
    len(cols), fixing y_d by cols[d], in lexicographic order: yields
    (prefix, constants, v_lo, v_hi) per node at that depth whose coordinate
    takes v in [v_lo, v_hi]. A child's constants are its parent's less
    v * cols[d], and it reads level d + 1 on them. The stack holds one range
    of v per depth above the node, and a child is built only when the walk
    visits it, so a caller that stops early has built no node it did not
    visit. The stack is explicit because a recursive closure forms a cycle
    that keeps the answer alive."""
    last = len(cols)
    stack = []
    prefix = ()
    while True:
        if len(prefix) < last:
            stack.append((prefix, rest, iter(range(v_lo, v_hi + 1))))
        elif v_lo <= v_hi:
            yield prefix, rest, v_lo, v_hi
        while stack:  # the next node: the next v of the deepest open level
            prefix, rest, vs = stack[-1]
            v = next(vs, None)
            if v is not None:
                break
            stack.pop()
        else:
            return
        d = len(prefix)
        rest = [x - a * v for x, a in zip(rest, cols[d])]
        prefix += (v,)
        v_lo, v_hi = _integers(levels[d + 1], rest)


def floor_sum(n, m, a, b):
    """sum(floor((a * i + b) / m) for i in range(n)) for m >= 1, in O(log m)
    steps: the AtCoder Library's floor_sum, a Euclid-like recursion
    (Graham-Knuth-Patashnik, Concrete Mathematics, 3.5)."""
    total = 0
    while n > 0:
        q, a = divmod(a, m)
        r, b = divmod(b, m)
        total += n * (n - 1) // 2 * q + n * r
        top = a * n + b  # now 0 <= a, b < m: count the lattice points under the line
        if top < m:
            break
        n, b = divmod(top, m)
        m, a = a, m
    return total


def _side_sum(side, lo, hi):
    """Sum over v in [lo, hi] of the min of floor((A - p * v) / d) over the
    side's terms: the constant (A, 0, d) first, then the moving terms in
    slope order, p / d ascending (``Plan.sides``). The min of the lines
    (A - p * v) / d is concave, so in slope order, the constant in its place
    among them, each term binds on one interval, each after the earlier
    terms' intervals, and one pass reads them from lo up. At x, a term
    that a later term is already below never binds again, as the later
    term falls at least as fast; otherwise it binds from x for as long as
    it is at most each later term. Each interval is one arithmetic series
    (d = 1) or one floor_sum."""
    if len(side) > 1 and side[1][1] < 0:  # the constant's place: after the moving terms with p < 0
        k = 2
        while k < len(side) and side[k][1] < 0:
            k += 1
        side = side[1:k] + side[:1] + side[k:]
    total, x = 0, lo
    for i, (a, p, d) in enumerate(side):
        if x > hi:
            break
        y = hi
        for c, q, e in side[i + 1 :]:  # (a - p * v) / d <= (c - q * v) / e iff P * v <= R, P >= 0
            P, R = d * q - e * p, d * c - e * a
            if P * x > R:
                break
            if P and R // P < y:
                y = R // P
        else:
            n = y - x + 1
            total += n * (a - p * x) - p * (n * (n - 1) // 2) if d == 1 else floor_sum(n, d, -p, a - p * x)
            x = y + 1
    return total


def parent_sum(terms, v_lo, v_hi):
    """The points under one parent: sum over v in [v_lo, v_hi] of the
    child's width U(v) + L(v) + 1, where U and L are the mins of
    floor((A - p * v) / d) over the upper and the lower side's terms.

    No width is negative on a parent the walk yields. Its v lie in level
    n - 2's exact range on the floored constants (in dimension 1 the one
    virtual parent exists only when y_0 holds an integer), so each child's
    real fiber is nonempty: the real mins g_U and g_L, with U = floor(g_U)
    and L = floor(g_L), satisfy g_U + g_L >= 0, and then
    U + L + 1 >= floor(g_U + g_L) >= 0. Each side's sum splits at its
    binding terms (``_side_sum``).
    """
    upper, lower = terms
    return v_hi - v_lo + 1 + _side_sum(upper, v_lo, v_hi) + _side_sum(lower, v_lo, v_hi) if v_lo <= v_hi else 0


def _floors(a, p, d, lo, n):
    """floor((a - p * v) / d) for v = lo, ..., lo + n - 1, lazily: the range
    itself for d = 1, a repeat for p = 0."""
    if not p:
        return repeat(a // d, n)
    rooms = range(a - p * lo, a - p * (lo + n), -p)
    return rooms if d == 1 else map(d.__rfloordiv__, rooms)


def _min(floors):
    """The termwise min of one or more lazy sequences."""
    return map(min, *floors) if len(floors) > 1 else floors[0]


def folds(terms, v_lo, v_hi):
    """A parent's (his, neg_los): per child v = v_lo, ..., v_hi, the upper
    end and the negated lower end of its last coordinate's interval, each a
    lazy map of floor divisions (``_floors``) folded with min, or a list
    when no term on its side moves with v."""
    n = v_hi - v_lo + 1
    out = []
    for (const, _, _), *moving in terms:
        floors = [_floors(a, p, d, v_lo, n) for a, p, d in moving]
        out.append(map(min, repeat(const), *floors) if floors else [const] * n)
    return out


class Weights(Sequence):
    """Read-only integer points of one region, lexicographic, kept as the
    walk's blocks (``Plan.blocks``): the children v_lo..v_hi of one parent
    prefix, child v holding the points prefix + (v, w) for w between the
    ends its terms give (just (w,) in dimension 1), and the block's count.
    Its length is a sum of block counts, and it is equal to any sequence of
    the same points. A block's children are folded (``folds``) only when a
    reader enters it: an index or a slice keeps the runs (prefix, lo, hi) of
    the block it starts in, with their running lengths, and iteration folds
    block by block. No point tuple is built until one is read."""

    def __init__(self, blocks, dim):
        self.blocks = tuple(blocks)
        self._nested = dim > 1  # a parent coordinate heads each child
        self._starts = [0, *accumulate(block[-1] for block in self.blocks)]
        self._opened = {}  # block index -> its runs and their running lengths

    def __len__(self):
        return self._starts[-1]

    def _runs(self, blocks):
        """The runs (prefix + head, lo, hi) of the blocks' nonempty children,
        read lazily from their folds."""
        for prefix, v_lo, v_hi, terms, _ in blocks:
            heads = zip(count(v_lo)) if self._nested else repeat(())
            for head, h, neg_lo in zip(heads, *folds(terms, v_lo, v_hi)):
                if h + neg_lo >= 0:
                    yield prefix + head, -neg_lo, h

    @staticmethod
    def _points(runs):
        return (p + (v,) for p, lo, hi in runs for v in range(lo, hi + 1))

    def _from(self, k):
        """The points from index k (0 <= k < len) on: a bisection of the
        blocks and one of the block's running run lengths (its runs folded
        on its first read and kept) find point k, and the walk goes on."""
        b = bisect_right(self._starts, k) - 1
        k -= self._starts[b]
        opened = self._opened.get(b)
        if opened is None:
            runs = list(self._runs(self.blocks[b : b + 1]))
            opened = self._opened[b] = runs, list(accumulate(hi - lo + 1 for _, lo, hi in runs))
        runs, ends = opened
        j = bisect_right(ends, k)  # the run holding the point
        prefix, _, hi = runs[j]
        first = (prefix, hi - (ends[j] - 1 - k), hi)  # the run's last point hi is at ends[j] - 1
        later = self._runs(islice(self.blocks, b + 1, None))
        return self._points(chain((first,), islice(runs, j + 1, None), later))

    def __getitem__(self, i):
        k = range(len(self))[i]  # negative, out-of-range and slice indices as for a tuple
        if not isinstance(k, range):
            return next(self._from(k))
        if not k:
            return ()
        step = abs(k.step)  # read up from the lowest index, every step-th point
        read = tuple(islice(self._from(min(k[0], k[-1])), 0, (len(k) - 1) * step + 1, step))
        return read if k.step > 0 else read[::-1]

    def __iter__(self):
        return self._points(self._runs(self.blocks))

    def __eq__(self, other):
        return tuple(self) == tuple(other) if isinstance(other, Sequence) else NotImplemented

    def __hash__(self):
        return hash(tuple(self))


_INT = frozenset((int,))


class Plan:
    """Everything one (dim, strict normals, weak normals) fixes; a query
    (plan, b) adds the closure's constants b in ``leq`` order. ``leq`` holds
    the closure's rows <u, y> <= b: each weak row negated, then each strict
    row. ``lifted`` holds the same rows in (y, t), each strict one shifted by
    t, then t <= 1 and t >= 0 (constants b, 1, 0): its largest t decides
    strict feasibility. ``levels`` is the walk's chain, level d the rows on
    coordinates d.. projected onto y_d. Each part is built on first use, so a
    plan that only answers ``closure_nonempty`` eliminates once, for level
    0."""

    def __init__(self, dim, strict, weak):
        self.dim = dim
        self.strict, self.weak = strict, weak

    @cached_property
    def leq(self):
        return tuple(tuple(-x for x in u) for u in self.weak) + self.strict

    @cached_property
    def top(self):
        """Level 0, the closure's projection onto y_0, all that
        ``closure_nonempty`` reads."""
        return _projection(self.leq, self.dim, 0)

    @cached_property
    def levels(self):
        """levels[d] is ``_projection`` of the rows' parts on coordinates d..
        onto y_d, its multipliers indexing the rows of ``leq``; level 0 is
        ``top``. With y_0..y_{d-1} fixed, the constants b less the prefix's
        share give y_d's exact range over the closure (``_range``), as the
        level projects the fiber over the prefix."""
        leq = self.leq
        return tuple(_projection(tuple(u[d:] for u in leq), self.dim - d, 0) if d else self.top
                     for d in range(self.dim))

    @cached_property
    def bounded(self):
        """Is every nonempty closure of the plan bounded? It is iff every
        level has an upper and a lower row: level by level, they pin a
        recession direction's coordinates to 0, and a level missing a side
        leaves its coordinate unbounded on that side over every prefix with
        a nonempty fiber."""
        return all(uppers and lowers for _, uppers, lowers in self.levels)

    @cached_property
    def gapless(self):
        """Has every row of levels 1.. y_d coefficient a = 1? On integer
        constants their ranges then have integer ends, and each level is
        exact, so an integer y_0 in level 0's range leads to a point."""
        return all(a == 1 for _, *sides in self.levels[1:] for side in sides for a, _ in side)

    @cached_property
    def shifts(self):
        """1 per strict row of ``leq`` and 0 per weak one."""
        return (0,) * len(self.weak) + (1,) * len(self.strict)

    @cached_property
    def lifted(self):
        n = self.dim
        rows = tuple((*u, t) for u, t in zip(self.leq, self.shifts))
        return rows + ((0,) * n + (1,), (0,) * n + (-1,))

    @cached_property
    def t_projection(self):
        """The lifted system's projection onto t."""
        return _projection(self.lifted, self.dim + 1, self.dim)

    @cached_property
    def cols(self):
        """cols[d] holds the coefficients at y_d of the closure's rows in
        ``leq`` order: fixing y_d = v takes v * cols[d] off the constants."""
        return tuple(tuple(u[d] for u in self.leq) for d in range(self.dim))

    @cached_property
    def sides(self):
        """Per side of the last coordinate (dim >= 1), upper then lower, the
        rows with a parent coefficient p = 0 as (row, |a|) and the others as
        (row, |a|, p) in slope order, p / |a| ascending (``_side_sum``), where
        a is the row's last coefficient; in dimension 1 every p is 0."""
        pen = self.cols[-2] if self.dim > 1 else (0,) * len(self.leq)
        sides = []
        for sign in (1, -1):
            side = [(r, sign * a) for r, a in enumerate(self.cols[-1]) if sign * a > 0]
            moving = [(r, d, pen[r]) for r, d in side if pen[r]]
            moving.sort(key=lambda row: Fraction(row[2], row[1]))
            sides.append(([(r, d) for r, d in side if not pen[r]], moving))
        return tuple(sides)

    @cached_property
    def steps(self):
        """Per side of level n - 2 (dim >= 3), upper then lower, its rows as
        (a, lam, T) with T = lam . cols[n - 3]: under a grandparent (depth
        n - 3) with constants rest, the row reads S - u * T at the parent
        whose coordinate is u, S = lam . rest, so each end of the parents'
        intervals is a min of floors of arithmetic progressions in u."""
        col = self.cols[-3]
        return tuple(tuple((a, lam, sum(l * col[i] for i, l in lam)) for a, lam in side)
                     for side in self.levels[-2][1:])

    def closure_nonempty(self, b) -> bool:
        """Is the closure (strict rows relaxed to weak) nonempty? Its
        projection onto the first coordinate is."""
        if self.dim == 0:
            return all(x >= 0 for x in b)
        return _range(self.top, b) is not None

    def strictly_feasible(self, b) -> bool:
        """Does some point meet every row, strict rows strictly? Iff the
        lifted system's range of t is nonempty with a positive upper end."""
        t_range = _range(self.t_projection, [*b, 1, 0])
        return t_range is not None and t_range[1][0] > 0

    def start(self, b):
        """The walk's setup for the constants b, shared by ``parent_terms``
        and ``has_point``: (v_lo, v_hi, rest), y_0's integers and the integer
        constants, or None when y_0 has no integer. In dimension 0 it is
        (0, 0, rest), or None when () breaks a row. Raises UnboundedRegion
        when y_0 has an integer on an unbounded plan whose region is
        strictly feasible, and gives None on one that is not.

        Fraction constants are floored first, so the walk runs on ints, and
        a strict row's constant moves by one, as <u, y> < b means
        <u, y> <= b - 1 over Z. rest holds the resulting constants in
        ``leq`` order, and y_0's integers round level 0's range on them
        inward.
        """
        if not _INT.issuperset(map(type, b)):  # floor each c: b is c on a weak row, -c on a strict one
            nw = len(self.weak)
            b = [floor(x) for x in b[:nw]] + [ceil(x) for x in b[nw:]]
        rest = list(map(sub, b, self.shifts))
        if not self.dim:
            return (0, 0, rest) if all(x >= 0 for x in rest) else None
        v_lo, v_hi = _integers(self.levels[0], rest)
        if v_lo is not None and v_hi is not None and v_lo > v_hi:
            return None
        if not self.bounded:
            if self.strictly_feasible(b):
                raise UnboundedRegion(f"unbounded region of dimension {self.dim}")
            return None
        return v_lo, v_hi, rest

    def parent_terms(self, b, start=None):
        """The walk (dim >= 1) down to its parent nodes, depth n - 2, in
        lexicographic order: yields (prefix, v_lo, v_hi, terms) per parent
        whose coordinate takes v in [v_lo, v_hi]. terms holds, for the upper
        end and the negated lower end of the last coordinate, the terms
        (A, p, d) whose min over floor((A - p * v) / d) is that end at child
        v: first the side's constant (A, 0, 1), then one per row that moves
        with v, in slope order. In dimension 1 the one virtual parent has
        prefix () and v_lo = v_hi = 0, and in dimension 2 the root is the one
        parent. Raises UnboundedRegion as ``start`` does, and ValueError in
        dimension 0.

        The walk starts from ``start``'s interval and constants (pass them as
        start when ``self.start(b)`` has run already) and goes down to the
        grandparents (depth n - 3, ``_parents``); the parents under one are
        read as arithmetic progressions in its coordinate u, lazily, one
        parent at a time. A parent's constants are the grandparent's less
        u * cols[n - 3], so each row of level n - 2 reads S - u * T
        (``steps``), and [v_lo, v_hi] is the min of their floors. A zero row
        of level n - 2 holds at every u of the grandparent's range, which is
        level n - 3's exact projection, so it is not read. On the last
        coordinate a row with coefficient a, parent coefficient p and
        constant A at the parent bounds the child at v by (A - p * v) // |a|,
        from above when a > 0 and, negated, from below when a < 0: the term
        (A, p, |a|). The rows with p = 0 are folded into their side's
        constant, their min. A side with none takes the larger end over
        [v_lo, v_hi] of its first moving term, which is monotone in v, so the
        constant never binds below it. A row with a = 0 is in the parent's
        level, so the parent's interval holds it for every v.
        """
        if not self.dim:
            raise ValueError("the walk needs dim >= 1; Plan.has_point decides a dim-0 region")
        start = start or self.start(b)
        if start is None:
            return
        v_lo, v_hi, rest = start
        if self.dim < 3:  # one parent: the root, or a virtual one at 0 in dimension 1
            if self.dim == 1:
                v_lo = v_hi = 0
            yield from self._parents_under(((),), (v_hi,), (-v_lo,), rest, (0,) * len(rest), 0, 1)
            return
        col = self.cols[-3]
        for prefix, rest, u_lo, u_hi in _parents(self.cols[:-3], self.levels, v_lo, v_hi, rest):
            n = u_hi - u_lo + 1
            his, neg_los = (_min([_floors(sum(l * rest[i] for i, l in lam), t, a, u_lo, n) for a, lam, t in rows])
                            for rows in self.steps)
            prefixes = map(prefix.__add__, zip(range(u_lo, u_hi + 1)))
            yield from self._parents_under(prefixes, his, neg_los, rest, col, u_lo, n)

    def _parents_under(self, prefixes, his, neg_los, rest, col, u_lo, n):
        """``parent_terms`` over the n parents u = u_lo, ... under one node
        with constants rest, a parent's constants being rest less u * col:
        given each parent's prefix, v_hi and -v_lo, lazily, it reads each
        side's constant and its moving terms' A from arithmetic
        progressions in u (``_floors``) and builds each parent's terms as
        the walk draws it."""
        sides, bare = [], []
        for k, (fixed, moving) in enumerate(self.sides):
            moves = [zip(_floors(rest[r], col[r], 1, u_lo, n), repeat(p), repeat(d)) for r, d, p in moving]
            if fixed:
                const = _min([_floors(rest[r], col[r], d, u_lo, n) for r, d in fixed])
                moves.insert(0, zip(const, repeat(0), repeat(1)))
            else:
                bare.append(k)
            sides.append(zip(*moves))
        for prefix, v_hi, neg_lo, *terms in zip(prefixes, his, neg_los, *sides):
            if v_hi + neg_lo >= 0:
                for k in bare:  # the side's constant: its first moving term's larger end
                    (a, p, d), *_ = side = terms[k]
                    terms[k] = ((a - p * (v_hi if p < 0 else -neg_lo)) // d, 0, 1), *side
                yield prefix, -neg_lo, v_hi, terms

    def has_point(self, b) -> bool:
        """Does the region hold an integer point? On a gapless plan, dim 0
        included, iff y_0 holds an integer (``start``). On another, one dive
        first (Berthold, Primal Heuristics for Mixed Integer Programs, 2006):
        each depth takes the middle integer of its node's interval. The
        levels give each coordinate's exact range over the prefix's fiber,
        so a dive stops short of the last level only at an integer gap, and
        only then are the parents counted (``blocks``, from its start). A
        dim-0 region holds () iff its floored constants satisfy every row.
        Raises UnboundedRegion as ``start`` does."""
        start = self.start(b)
        if start is None or self.gapless:
            return start is not None
        return self.dive(b, start)

    def dive(self, b, start) -> bool:
        """``has_point`` past its start on a plan that is not gapless,
        ``self.start(b)`` or the same read from level-0 sums (``Twists``):
        the dive, then the counts from that start at a dead end."""
        v_lo, v_hi, rest = start
        for col, level in zip(self.cols, self.levels[1:]):
            v = (v_lo + v_hi) // 2
            rest = [x - a * v for x, a in zip(rest, col)]
            v_lo, v_hi = _integers(level, rest)
            if v_lo > v_hi:
                return next(self.blocks(b, start), None) is not None
        return True

    def blocks(self, b, start=None):
        """The integer points (dim >= 1) counted per parent node, in
        lexicographic order: (prefix, v_lo, v_hi, terms, count) per parent
        with count > 0, counted in closed form (``parent_sum``). In
        dimension 1 the one block stands for the points (w,), not (0, w).
        start as in ``parent_terms``. ``Weights`` reads the blocks as
        points."""
        for prefix, v_lo, v_hi, terms in self.parent_terms(b, start):
            n = parent_sum(terms, v_lo, v_hi)
            if n:
                yield prefix, v_lo, v_hi, terms, n

    def point(self, b):
        """A rational point of the region, every strict row strict, or None.
        t = 1/k, the largest such t at most the lifted system's largest t
        (<= 1), shifts the strict rows' constants so that every row is weak;
        then level d gives y_d's exact range over the prefix, and y_d is its
        simplest rational (``_simplest``). b is kept as ints over one den."""
        den = lcm(*(x.denominator for x in b))
        b = [x.numerator * (den // x.denominator) for x in b]
        t_range = _range(self.t_projection, [*b, den, 0])
        if t_range is None or t_range[1][0] <= 0:
            return None
        k = -(-t_range[1][1] * den // t_range[1][0])
        b = [x * k - s * den for x, s in zip(b, self.shifts)]
        den *= k
        point = []
        for level, col in zip(self.levels, self.cols):
            p, q = _simplest(*(side and (side[0], side[1] * den) for side in _range(level, b)))
            point.append(Fraction(p, q))
            b = [x * q - p * den * a for x, a in zip(b, col)]
            den *= q
        return tuple(point)


class Twists:
    """``has_point`` of one plan over a window of constants b(n, j) =
    n * b_d - j * b_h. When b_d and b_h are ints and the plan is bounded of
    dim >= 1, ``Plan.start`` reads level 0 (``Plan.top``) on b less the
    shifts, and each projected row's dot product lam . (b - shifts) is
    n * x - j * y - z with x = lam . b_d, y = lam . b_h and z = lam . shifts,
    all linear in (n, j). The triples are read here, once, so a twist's
    integers of y_0 take three multiply-adds per row (``integers``): they
    answer on a gapless plan, and on another b and the walk's constants are
    built to dive only when y_0 holds one. Otherwise
    (a Fraction constant, whose rows ``start`` floors one by one, or a plan
    unbounded or of dim 0) rows is None and each twist asks
    ``Plan.has_point`` on b."""

    def __init__(self, plan: Plan, b_d, b_h):
        self.plan, self.b_d, self.b_h = plan, b_d, b_h
        self.rows = None
        if plan.dim and _INT.issuperset(map(type, chain(b_d, b_h))) and plan.bounded:
            shifts = plan.shifts

            def sums(lam):
                x = y = z = 0
                for i, l in lam:
                    x += l * b_d[i]
                    y += l * b_h[i]
                    z += l * shifts[i]
                return x, y, z

            zeros, uppers, lowers = plan.top
            self.rows = (tuple(map(sums, zeros)), tuple((a, *sums(lam)) for a, lam in uppers),
                         tuple((a, *sums(lam)) for a, lam in lowers))

    def integers(self, n, j):
        """y_0's integers (lo, hi) at b(n, j), read from rows (when set):
        level 0's range on b less the shifts rounded inward, as in
        ``Plan.start``, or None when it holds no integer."""
        zeros, uppers, lowers = self.rows
        for x, y, z in zeros:
            if n * x - j * y < z:
                return None
        hi = None
        for a, x, y, z in uppers:  # a * y_0 <= n * x - j * y - z
            v = (n * x - j * y - z) // a
            if hi is None or v < hi:
                hi = v
        lo = None
        for a, x, y, z in lowers:  # -a * y_0 <= n * x - j * y - z
            v = -((n * x - j * y - z) // a)
            if v > hi:
                return None
            if lo is None or v > lo:
                lo = v
        return lo, hi

    def has_point(self, n, j) -> bool:
        """``Plan.has_point`` on b(n, j)."""
        if self.rows is None:
            return self.plan.has_point([n * x - j * y for x, y in zip(self.b_d, self.b_h)])
        span = self.integers(n, j)
        if span is None or self.plan.gapless:
            return span is not None
        b = [n * x - j * y for x, y in zip(self.b_d, self.b_h)]
        return self.plan.dive(b, (*span, list(map(sub, b, self.plan.shifts))))


class Selections(dict):
    """One kind of region over fixed rows (``Fan.regions``): selection ->
    (plan, index), built on first use. Row i has the normal normals[i] and,
    for coefficients a, the constant scales[i] * a_i. ``picks(selection)``
    lists the region's (strict, weak) rows as (i, s), row i with sign s, in
    the region's order. index holds per closure row in ``leq`` order a pair
    (i, f) with b = f * a_i (``rhs``): a weak row <u, y> + c >= 0 reads
    -<u, y> <= c and a strict one <u, y> <= -c."""

    def __init__(self, dim, normals, scales, picks):
        super().__init__()
        self.dim, self.normals, self.scales, self.picks = dim, normals, scales, picks

    def __missing__(self, selection):
        strict, weak = self.picks(selection)
        normals, scales = self.normals, self.scales

        def rows(picked):
            return tuple(normals[i] if s > 0 else tuple(-x for x in normals[i]) for i, s in picked)

        index = [(i, s * scales[i]) for i, s in weak] + [(i, -s * scales[i]) for i, s in strict]
        plan = Plan(self.dim, rows(strict), rows(weak))
        entry = self[selection] = plan, tuple((i, f) if f else (0, 0) for i, f in index)
        return entry


def rhs(index, coeffs):
    """A selection's closure constants b for the coefficient vector."""
    return [f * coeffs[i] for i, f in index]


# ---------------------------------------------------------------------------
# the Polyhedron entry point to the walk: a plan of its own, then the plan's core
# ---------------------------------------------------------------------------


_normal = itemgetter(0)


def _plan_of(poly: Polyhedron) -> Plan:
    return Plan(poly.dim, tuple(map(_normal, poly.strict)), tuple(map(_normal, poly.weak)))


def _closure_rhs(poly: Polyhedron):
    """The constants b of the closure rows <u, y> <= b, in ``leq`` order."""
    return [c for _, c in poly.weak] + [-c for _, c in poly.strict]


def lattice_points(poly: Polyhedron) -> list[tuple[int, ...]]:
    """All integer points of the polyhedron in lexicographic order, the
    plan's blocks read as ``Weights``. Raises UnboundedRegion as
    ``Plan.start`` does."""
    if poly.dim == 0:
        return [()] if poly.satisfied_by(()) else []
    return list(Weights(_plan_of(poly).blocks(_closure_rhs(poly)), poly.dim))
