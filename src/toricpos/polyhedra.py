"""Rational polyhedra with mixed strict/weak rows: feasibility, exact LP,
lattice points.

A row (u, c) encodes the condition on y:

* strict row:  <y, u> + c <  0
* weak row:    <y, u> + c >= 0

``polyhedron()`` fixes the row format once: each row is scaled to integers
and divided by its content, so every stored row is an integer tuple with
content 1 (a zero row stays zero). Positive scaling keeps each condition,
and the layers below read the stored rows as they are. A row given as plain
``int`` entries (rays are, and so is ``ToricDivisor.plain_coeffs`` wherever
a coefficient is integral) is normalized by one gcd; only a row holding a
true ``Fraction`` has its denominators cleared first. The content-free form
of a row is unique, so both routes store the same row. The per-ray rows of
a divisor are normalized once (``ray_rows``, kept as ``ToricDivisor.rows``)
with their negations, whose content is the same; a region of that divisor
picks its rows from them and is built as ``Polyhedron(dim, strict, weak)``,
with no row normalized again.

Fourier-Motzkin decides, from region plans. Everything a query needs that
depends only on the row normals is kept in one plan per (dim, strict
normals, weak normals) (``_plan``, cached): the closure's normals as rows
<u, y> <= b, the lifted (y, t) system of ``lp_strict_feasible`` (strict rows
shifted by t, 0 <= t <= 1), their Fourier-Motzkin projections
(``_projection(normals, dim, k)`` eliminates every coordinate but y_k, cached
per normals and coordinate), and the walk's columns and last-level layout.
A plan fills each part the first time a query needs it, so no projection is
built that no query reads. A query looks up its plan once and then touches
only its region's constants: the rhs vector, one integer dot product per
projected row. ``closure_nonempty`` reads the projection onto y_0,
``coordinate_bounds`` and the walk's box the projection onto each
coordinate (one loop, ``_bounds``, serves both), and
``strictly_feasible`` the lifted projection onto t: the region is strictly
feasible iff that range has a positive upper end. On a fan's primitive
rays, the regions of an integral divisor, of its twists N*D - j*H and of
every representative D + div(chi^m) share their normals, so a pass over
many divisors builds a few plans and answers every query from them.

The simplex only writes witnesses: ``lp_strict_feasible`` returns a rational
point where a caller prints one. It is a textbook two-phase tableau with
Bland's rule. Its rows hold integers, and stored rows enter the tableau as
they are, with no denominator to clear: each pivot is one multiply-subtract
pass and a gcd content reduction per row, so no ``Fraction`` arithmetic runs
inside the pivot loop. The signs and ratios Bland's rule reads are exactly
those of the rational tableau, so every pivot sequence is deterministic, and
results (points, values, certificates) are built as exact ``Fraction``
values when read.

Lattice enumeration bounds each coordinate by the plan's projections,
rounded inward to integers by floor division. The walk then visits the box
one interval per node: every row reads <u, y> + c <= 0 over Z, so each row
bounds the next coordinate from one side, solved by floor division. A
node's children are built one at a time as the walk reaches them, so a walk
that stops at its first point builds no node it does not visit. The last
level is read in one batch per parent node (depth n - 2): each row's bounds
over the parent's whole range are one ``map`` of floor divisions (the range
itself when the row's last coefficient is 1 or -1), folded with ``min``, and
no node is built for a single last-coordinate interval. That per-parent
fold (``_parent_folds``) has two readers. ``lattice_runs`` zips it lazily
into runs (prefix, lo, hi), one per nonempty child, so an existence query
stops at its first nonempty child; lattice_points expands the runs.
``lattice_blocks`` turns each parent's two folds into int lists and counts
the parent's points in C, yielding one block per parent that holds a point,
so a count builds no run and no point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import islice, repeat
from math import gcd
from operator import add, itemgetter, neg

from .errors import UnboundedRegion
from .linalg import clear_denominators, content_free

Row = tuple[tuple[int, ...], int]  # integers with content 1, or all zero


@dataclass(frozen=True)
class Polyhedron:
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


def ray_rows(dim, rays, coeffs):
    """Per ray, the stored row of (u_rho, a_rho) and of its negation, as
    ``polyhedron()`` stores them. Each u_rho holds a primitive ray (``Fan``
    rejects any other), so a row of plain ``int`` entries has content 1 and
    is stored as it is; only a row holding a ``Fraction`` goes through
    ``polyhedron()``. A row's content and its negation's are the same, so
    the negation of a stored row is stored as it is. A region that picks
    these rows is built as ``Polyhedron(dim, strict, weak)`` and holds
    exactly the rows ``polyhedron()`` would, with no row normalized again."""
    rows = [(tuple(u), a) for u, a in zip(rays, coeffs)]
    rational = [row for row in rows if not _plain(row)]
    if rational:
        stored = iter(polyhedron(dim, weak=rational).weak)
        rows = [row if _plain(row) else next(stored) for row in rows]
    return tuple((row, (tuple(map(neg, row[0])), -row[1])) for row in rows)


_INT = frozenset((int,))


def _plain(row):
    """Does the row (u, c) hold only ``int`` entries?"""
    u, c = row
    return type(c) is int and _INT.issuperset(map(type, u))


# ---------------------------------------------------------------------------
# simplex core: maximize c.z subject to A z <= b, z >= 0
# ---------------------------------------------------------------------------


# A tableau row is a list of integers with the rhs in the last slot. A
# constraint row needs no denominator of its own: its basic column holds a
# positive entry d, the row stands for itself divided by d, and any positive
# multiple of it stands for the same equation. An objective row holds the
# reduced costs, then -value, then its positive denominator. Every pivot keeps
# the basic entries positive and divides each row by its content, and the
# signs and ratios Bland's rule reads are those of the rational tableau.


def _price_out(obj, prow, col):
    """Objective row with column ``col`` eliminated by ``prow`` (prow[col] > 0)."""
    f = obj[col]
    if not f:
        return obj
    p = prow[col]
    return content_free([p * x - f * y for x, y in zip(obj, prow)] + [p * obj[-1]])


def _pivot(rows, basis, objs, col, r):
    """Pivot column ``col`` into the basis at row ``r``, objective rows too."""
    prow = rows[r]
    p = prow[col]
    if p < 0:  # only when driving out an artificial, whose rhs is 0
        prow = rows[r] = [-x for x in prow]
        p = -p
    for i, row in enumerate(rows):
        f = row[col]
        if f and i != r:
            rows[i] = content_free([p * x - f * y for x, y in zip(row, prow)])
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
    status, y, value = lp_free_max(_plan_of(poly).leq, _closure_rhs(poly), c)
    if status != "optimal":
        return status, None, None
    return "optimal", tuple(y), value if sense == "max" else -value


@dataclass(frozen=True)
class StrictFeasibility:
    feasible: bool
    witness: tuple[Fraction, ...] | None


def lp_strict_feasible(poly: Polyhedron) -> StrictFeasibility:
    """Decide strict feasibility and produce a rational witness.

    Slack contract: maximize t with strict rows shifted by t; t is capped at 1
    so an unbounded slack still reports feasible with a concrete witness.
    """
    n = poly.dim
    status, y, value = lp_free_max(_plan_of(poly).lifted, _lifted_rhs(poly), [0] * n + [1])
    if status != "optimal" or value <= 0:
        return StrictFeasibility(False, None)
    return StrictFeasibility(True, tuple(y[:n]))


# ---------------------------------------------------------------------------
# region plans: what a region's row normals fix, built once
# ---------------------------------------------------------------------------


def _primitive(u, lam):
    """Row (u, lam) divided by the content of its normal and multipliers."""
    g = gcd(*u, *(l for _, l in lam))
    return (u, lam) if g == 1 else (tuple(x // g for x in u), tuple((i, l // g) for i, l in lam))


# One entry per (normals, coordinate), asked for on a plan's first read of
# that projection; the plan keeps it, so later reads skip this cache. It is
# hit when two plans share their closure normals (equal ``leq``, another
# strict/weak split) or a plan is rebuilt after eviction. Three passes of the
# bench panels (seed 71) asked 89 times on positivity-profile, 24 on
# cohomology-multiples and 28 on scan-oracle, with 0, 0 and 2 hits (two
# scan-oracle plans share their normals); the P1^5 run counted at ``_plan``
# asked 847 times with 1 hit.
@lru_cache(maxsize=2048)
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


class _Plan:
    """Everything a region's row normals fix, for one (dim, strict normals,
    weak normals); a query reads it with the region's constants only.

    ``leq`` holds the closure's normals, rows <u, y> <= b: each weak row
    negated, then each strict row (``_closure_rhs`` gives b). ``lifted`` holds
    the (y, t) system whose largest t decides strict feasibility: each
    strict row shifted by t, each weak row, then t <= 1 and t >= 0
    (``_lifted_rhs``). The projections of both, and the walk's columns and
    last-level layout, are built when a query first needs them: a plan that
    only ever answers ``closure_nonempty`` projects one coordinate, and one
    that only writes a witness (``lp_strict_feasible``, as every separation
    LP of fan validation does) builds ``lifted`` alone.
    """

    def __init__(self, dim, strict, weak):
        self.dim = dim
        self.strict, self.weak = strict, weak
        self.projections = [None] * dim

    @cached_property
    def leq(self):
        return tuple(tuple(-x for x in u) for u in self.weak) + self.strict

    def projection(self, k):
        """The closure's projection onto y_k."""
        proj = self.projections[k]
        if proj is None:
            proj = self.projections[k] = _projection(self.leq, self.dim, k)
        return proj

    @cached_property
    def lifted(self):
        n = self.dim
        rows = tuple((*u, 1) for u in self.strict) + tuple((*(-x for x in u), 0) for u in self.weak)
        return rows + ((0,) * n + (1,), (0,) * n + (-1,))

    @cached_property
    def t_projection(self):
        """The lifted system's projection onto t."""
        return _projection(self.lifted, self.dim + 1, self.dim)

    @cached_property
    def walk(self):
        """(cols, pen, sides) for ``lattice_runs``. The walk reads the
        closure's rows in ``leq`` order as <u, y> + val <= 0 over Z, and
        cols[d] holds their coefficients at y_d. pen holds the parent
        column of the last level (zeros in dimension 1). Per side of the last
        coordinate, upper then lower, sides holds the rows with a parent
        coefficient p = 0 as (row, |a|) and the others as (row, |a|, p)."""
        n = self.dim
        cols = tuple(tuple(u[d] for u in self.leq) for d in range(n))
        pen = cols[n - 2] if n > 1 else (0,) * len(self.leq)
        sides = []
        for sign in (1, -1):
            side = [(r, sign * a) for r, a in enumerate(cols[-1]) if sign * a > 0]
            sides.append(([(r, d) for r, d in side if not pen[r]],
                          [(r, d, pen[r]) for r, d in side if pen[r]]))
        return cols, pen, tuple(sides)


# One entry per distinct normals. A scan-oracle pass (seed 71) reads 18
# plans 1,108 times and a positivity-profile pass 87 plans 1,379 times. A
# plan keeps every projection it has read, so the plans, not _projection's
# maxsize, bound the projections held: at most 2048 * (dim + 1). Three passes
# of the bench panels hold 89 (positivity-profile, 87 plans), 24
# (cohomology-multiples, 8 plans) and 28 (scan-oracle, 18 plans). On P1^5
# (10 rays, 243 cones), 24 seeded classes with coefficients in [-2, 2], each
# through positivity_report and both exact base loci, then six of them
# through cohomology_dims, check_mode_agreement and scan_qample for every q,
# classify_cones, base_locus, smallest_qample, the connectivity criterion
# and restrict, and one chamber_scan, build 815 plans holding 847
# projections, well under both caps.
@lru_cache(maxsize=2048)
def _plan(dim, strict, weak) -> _Plan:
    return _Plan(dim, strict, weak)


_normal = itemgetter(0)


def _plan_of(poly: Polyhedron) -> _Plan:
    return _plan(poly.dim, tuple(map(_normal, poly.strict)), tuple(map(_normal, poly.weak)))


def _closure_rhs(poly: Polyhedron):
    """The constants b of the closure rows <u, y> <= b, in ``leq`` order."""
    return [c for _, c in poly.weak] + [-c for _, c in poly.strict]


def _lifted_rhs(poly: Polyhedron):
    """The constants of the lifted rows, in ``lifted`` order."""
    return [-c for _, c in poly.strict] + [c for _, c in poly.weak] + [1, 0]


def _bounds(plan, b, dim):
    """The exact range of each coordinate over the closure {<leq, y> <= b},
    as _range gives it: a list of (lower, upper) pairs of (num, den) pairs,
    or None when the closure is empty. Each projection is exact, so an
    empty closure is found at the first coordinate."""
    bounds = []
    for k in range(dim):
        bound = _range(plan.projection(k), b)
        if bound is None:
            return None
        bounds.append(bound)
    return bounds


def coordinate_bounds(poly: Polyhedron):
    """The exact range of each coordinate over the closure, in order.

    Yields (lower, upper) per coordinate as Fractions, a side None when it
    is unbounded, or yields None once when the closure is empty: the ranges
    lattice_runs rounds to its box, read as exact values.
    """
    bounds = _bounds(_plan_of(poly), _closure_rhs(poly), poly.dim)
    if bounds is None:
        yield None
        return
    for bound in bounds:
        yield tuple(None if x is None else Fraction(*x) for x in bound)


def closure_nonempty(poly: Polyhedron) -> bool:
    """Is the closure (strict rows relaxed to weak) nonempty? Its projection
    onto the first coordinate is."""
    b = _closure_rhs(poly)
    if poly.dim == 0:
        return all(x >= 0 for x in b)
    return _range(_plan_of(poly).projection(0), b) is not None


def strictly_feasible(poly: Polyhedron) -> bool:
    """lp_strict_feasible's verdict with no LP: the lifted system's range of t
    is the LP's feasible set of objective values, so the system is strictly
    feasible iff that range is nonempty with a positive upper end."""
    t_range = _range(_plan_of(poly).t_projection, _lifted_rhs(poly))
    return t_range is not None and t_range[1][0] > 0


# ---------------------------------------------------------------------------
# lattice enumeration
# ---------------------------------------------------------------------------


def _interval(col, vals, tail, v_lo, v_hi):
    """The v in [v_lo, v_hi] that a node may pick for its coordinate: each row
    <u, y> + c <= 0 with partial sum val, coefficient a = col[r] and least
    tail t needs a * v <= -val - t. An empty answer has v_lo > v_hi."""
    for a, val, t in zip(col, vals, tail):
        room = -val - t
        if a > 0:
            v_hi = min(v_hi, room // a)
        elif a < 0:
            v_lo = max(v_lo, -(room // -a))
        elif room < 0:
            return v_lo, v_lo - 1
    return v_lo, v_hi


def _parents(cols, tails, lo, hi, vals):
    """The walk down to depth n - 2 (n >= 2), in lexicographic order: yields
    (prefix, partial sums, heads, v_lo, v_hi) per node whose coordinate takes
    v in [v_lo, v_hi], heads holding the tuples (v,). The stack holds one
    range of v per level above the node, and a child is built only when the
    walk visits it, so a caller that stops early has built no node it did
    not visit. The stack is explicit because a recursive closure forms a
    cycle that keeps the answer alive."""
    last = len(cols) - 2
    stack = []
    prefix = ()
    while True:
        d = len(prefix)
        v_lo, v_hi = _interval(cols[d], vals, tails[d + 1], lo[d], hi[d])
        if d < last:
            stack.append((prefix, vals, iter(range(v_lo, v_hi + 1))))
        elif v_lo <= v_hi:
            yield prefix, vals, zip(range(v_lo, v_hi + 1)), v_lo, v_hi
        while stack:  # the next node: the next v of the deepest open level
            prefix, vals, vs = stack[-1]
            v = next(vs, None)
            if v is not None:
                break
            stack.pop()
        else:
            return
        vals = [x + a * v for x, a in zip(vals, cols[len(prefix)])]
        prefix += (v,)


def _parent_folds(poly: Polyhedron):
    """The walk (dim >= 1) down to its parent nodes, depth n - 2, in
    lexicographic order: yields (prefix, heads, v_lo, his, neg_los) per
    parent whose coordinate takes v in [v_lo, v_hi]. heads holds the tuples
    (v,) of its children, and his and neg_los are folds giving, child by
    child, the upper end and the negated lower end of the last coordinate's
    interval; a child is nonempty when hi + neg_lo >= 0. A fold is a lazy
    map, or a list when no row on its side moves with v. In
    dimension 1 the walk has one virtual parent, heads [()] and v_lo 0.
    Raises UnboundedRegion when some coordinate is unbounded on a region
    that is strictly feasible.

    The box [lo, hi] rounds each coordinate's exact range over the closure
    (``_bounds``, the loop coordinate_bounds reads as Fractions) inward by
    floor division, coordinate by coordinate: an empty integer range yields
    nothing before the next coordinate is looked at, and an unbounded one is
    settled by strictly_feasible. Columns and the last level's row layout
    come from the plan; the constants, the box and the tails are the
    query's own.

    Rows read <u, y> + c <= 0 and tails[d] holds their least values over
    coordinates d.. of the box. A node at depth d < n - 1 admits the v with
    u[d] * v <= -val - tails[d + 1] for each row's partial sum val (u[d] = 0
    with a negative right side prunes it). The last coordinate is read in one
    batch per parent node (in dimension 1 the virtual parent's coordinate is
    0 with column 0): a row with last coefficient a bounds the child at v by
    (-val - p * v) // |a|, p its parent coefficient, from above when a > 0
    and, negated, from below when a < 0. Each row's bounds over the parent's
    v-range are one map of floor divisions (for |a| = 1 the range of
    -val - p * v itself), folded with min; the lower side
    is kept negated so it folds with min too. A row with a = 0 has tail 0 at
    the parent, so the parent's interval holds it for every v. No leaf node
    is built.
    """
    n = poly.dim
    plan = _plan_of(poly)
    bounds = _bounds(plan, _closure_rhs(poly), n)
    if bounds is None:
        return
    lo, hi = [], []
    for lower, upper in bounds:
        if lower is None or upper is None:
            if strictly_feasible(poly):
                raise UnboundedRegion(f"coordinate {len(lo)} unbounded")
            return
        low, high = -(-lower[0] // lower[1]), upper[0] // upper[1]
        if low > high:
            return
        lo.append(low)
        hi.append(high)
    cols, pen, (upper_side, lower_side) = plan.walk
    # the closure's rows as <u, y> + val <= 0 over Z: a strict row's
    # constant moves by one, as <u, y> + c < 0 means <u, y> + c + 1 <= 0
    vals = [-c for _, c in poly.weak] + [c + 1 for _, c in poly.strict]
    tails = [[0] * len(vals)]
    for d in range(n - 1, -1, -1):  # each row's least value over the box
        low, high = lo[d], hi[d]
        tails.insert(0, [t + a * (low if a > 0 else high) for t, a in zip(tails[0], cols[d])])
    if n == 1:  # one virtual parent, its coordinate fixed at 0 with column 0
        v_lo, v_hi = _interval(pen, vals, tails[0], 0, 0)
        parents = [((), vals, [()], v_lo, v_hi)] if v_lo <= v_hi else []
    else:
        parents = _parents(cols, tails, lo, hi, vals)
    # the box's bound on each side of the last coordinate; the lower side is
    # kept negated, so both fold with min
    sides = ((hi[-1], *upper_side), (-lo[-1], *lower_side))
    for prefix, vals, heads, v_lo, v_hi in parents:
        folds = []
        for bound, fixed, moving in sides:
            const = min([bound, *(-vals[r] // d for r, d in fixed)])
            floors = []
            for r, d, p in moving:
                rooms = range(-vals[r] - p * v_lo, -vals[r] - p * (v_hi + 1), -p)
                floors.append(rooms if d == 1 else map(d.__rfloordiv__, rooms))
            folds.append(map(min, repeat(const), *floors) if floors else [const] * (v_hi - v_lo + 1))
        yield prefix, heads, v_lo, *folds


def lattice_runs(poly: Polyhedron, first_only=False):
    """The integer points of the polyhedron (dim >= 1) as runs, in lexicographic
    order: (prefix, lo, hi) stands for prefix + (v,) with lo <= v <= hi, one
    run per nonempty interval of the last coordinate, in ascending order
    under each parent node (``_parent_folds``). The folds are read lazily,
    so first_only stops at the first nonempty child of the first parent
    that has one. Strict rows are honored strictly. Raises UnboundedRegion
    when some coordinate is unbounded on a region that is strictly feasible.
    """
    for prefix, heads, _, his, neg_los in _parent_folds(poly):
        for head, h, neg_lo in zip(heads, his, neg_los):
            if h + neg_lo >= 0:
                yield prefix + head, -neg_lo, h
                if first_only:
                    return


def lattice_blocks(poly: Polyhedron):
    """The integer points of the polyhedron (dim >= 1) counted per parent
    node (``_parent_folds``), in lexicographic order: yields (prefix, v_lo,
    his, neg_los, count) per parent with count > 0 points. his and neg_los
    are lists, one entry per child v = v_lo, v_lo + 1, ...: the child's
    last coordinate runs from -neg_lo to hi, and is empty when hi + neg_lo
    < 0. The count is summed in C, with no Python step and no tuple per
    child or point. In dimension 1 the one block has v_lo 0 and stands for
    the points (w,), not (0, w)."""
    for prefix, _, v_lo, his, neg_los in _parent_folds(poly):
        his, neg_los = list(his), list(neg_los)
        count = sum(map(max, map(add, his, neg_los), repeat(-1))) + len(his)
        if count:
            yield prefix, v_lo, his, neg_los, count


def lattice_points(poly: Polyhedron, first_only=False) -> list[tuple[int, ...]]:
    """All integer points of the polyhedron in lexicographic order, or the
    first one under first_only: the runs of lattice_runs, expanded."""
    if poly.dim == 0:
        return [()] if poly.satisfied_by(()) else []
    points = (p + (v,) for p, lo, hi in lattice_runs(poly, first_only) for v in range(lo, hi + 1))
    return list(islice(points, 1 if first_only else None))
