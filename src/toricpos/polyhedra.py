"""Rational polyhedra with mixed strict/weak rows: feasibility, exact LP,
lattice points.

A row (u, c) encodes the condition on y:

* strict row:  <y, u> + c <  0
* weak row:    <y, u> + c >= 0

``polyhedron()`` fixes the row format once: each row is scaled to integers
and divided by its content, so every stored row is an integer tuple with
content 1 (a zero row stays zero). Positive scaling keeps each condition,
and the layers below read the stored rows as they are.

Fourier-Motzkin decides. ``_projection(normals, dim, k)`` eliminates every
coordinate but y_k from closure rows <u, y> <= b and depends only on the row
normals, so it is built once per normals and coordinate and cached; a
question about one polyhedron is then a few integer dot products with its
constants. ``closure_nonempty`` reads the projection onto y_0,
``coordinate_bounds`` the projection onto each coordinate, and
``strictly_feasible`` the projection onto t of the system
``lp_strict_feasible`` solves (strict rows shifted by t, 0 <= t <= 1): it is
strictly feasible iff that range has a positive upper end.

The simplex only writes witnesses: ``lp_strict_feasible`` returns a rational
point where a caller prints one. It is a textbook two-phase tableau with
Bland's rule. Its rows hold integers: each pivot is one multiply-subtract
pass and a gcd content reduction per row, so no ``Fraction`` arithmetic runs
inside the pivot loop. The signs and ratios Bland's rule reads are exactly
those of the rational tableau, so every pivot sequence is deterministic, and
results (points, values, certificates) are built as exact ``Fraction``
values when read.

Lattice enumeration bounds each coordinate by ``coordinate_bounds``. The
walk then visits the box one interval per node: every row reads
<u, y> + c <= 0 over Z, so each row bounds the next coordinate from one
side, solved by floor division. The walk returns the last coordinate's
intervals as runs (prefix, lo, hi), so counting points sums run lengths and
builds no point; lattice_points expands the runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import ceil, floor, gcd

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


def _leq_rows(poly: Polyhedron):
    """Closure rows as (coeffs, rhs) pairs meaning coeffs.y <= rhs."""
    return [(tuple(-x for x in u), c) for u, c in poly.weak] + [(u, -c) for u, c in poly.strict]


def _lifted_rows(poly: Polyhedron):
    """The system in (y, t) whose largest t decides strict feasibility, as
    (coeffs, rhs) pairs meaning coeffs.(y, t) <= rhs: each strict row shifted
    by t, each weak row, then t <= 1 and t >= 0."""
    n = poly.dim
    rows = [((*u, 1), -c) for u, c in poly.strict]  # <y,u> + c + t <= 0
    rows += [((*(-x for x in u), 0), c) for u, c in poly.weak]  # -<y,u> <= c
    return rows + [((0,) * n + (1,), 1), ((0,) * n + (-1,), 0)]


def lp_optimize(poly: Polyhedron, objective, sense="max"):
    """Optimize over the closure (strict rows relaxed to weak).

    Returns (status, point, value); value is for the requested sense. No
    decision calls it: the test suite's oracles check the projections
    against it, and perfbench's tracer still names it.
    """
    rows = _leq_rows(poly)
    a = [r for r, _ in rows]
    b = [r for _, r in rows]
    c = list(objective) if sense == "max" else [-x for x in objective]
    status, y, value = lp_free_max(a, b, c)
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
    rows = _lifted_rows(poly)
    status, y, value = lp_free_max([a for a, _ in rows], [b for _, b in rows], [0] * n + [1])
    if status != "optimal" or value <= 0:
        return StrictFeasibility(False, None)
    return StrictFeasibility(True, tuple(y[:n]))


# ---------------------------------------------------------------------------
# lattice enumeration
# ---------------------------------------------------------------------------


def _primitive(u, lam):
    """Row (u, lam) divided by the content of its normal and multipliers."""
    g = gcd(*u, *(l for _, l in lam))
    return (u, lam) if g == 1 else (tuple(x // g for x in u), tuple((i, l // g) for i, l in lam))


# One entry per (normals, coordinate). Every command on P1^5 (10 rays, 243
# cones) together filled 822 entries and P1^4 254, so a fan's entries stay.
@lru_cache(maxsize=2048)
def _projection(normals, dim, k):
    """Closure rows <normals[i], y> <= b_i projected onto coordinate y_k.

    Holds pairs (a, lam): a * y_k <= sum(l * b_i for i, l in lam) is implied
    by the rows, and together they cut out exactly the closure's projection
    onto y_k (Fourier-Motzkin elimination, Schrijver, Theory of Linear and
    Integer Programming, 1986, 12.2). Rows with a = 0 say whether the closure
    is empty. After t eliminations a combination of more than t + 1 original
    rows is implied by the others for every b (Chernikov's rule) and is
    dropped, as are exact duplicates.
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
    return tuple((u[k], lam) for u, lam in rows)


def _range(rows, dim, k):
    """The exact range of y_k over {y : coeffs.y <= rhs for (coeffs, rhs) in
    rows}: (lower, upper) with each side a (num, den) pair, den > 0, or None
    when unbounded; None when the set is empty. One dot product per projected
    row, so each side equals the LP optimum."""
    lower = upper = None
    for a, lam in _projection(tuple(u for u, _ in rows), dim, k):
        s = sum(l * rows[i][1] for i, l in lam)
        if a > 0:
            if upper is None or s * upper[1] < upper[0] * a:
                upper = (s, a)
        elif a < 0:  # y_k >= s / a = -s / -a
            if lower is None or -s * lower[1] > lower[0] * -a:
                lower = (-s, -a)
        elif s < 0:
            return None
    if lower is not None and upper is not None and lower[0] * upper[1] > upper[0] * lower[1]:
        return None
    return lower, upper


def coordinate_bounds(poly: Polyhedron):
    """The exact range of each coordinate over the closure, in order.

    Yields (lower, upper) per coordinate, a side None when it is unbounded,
    or yields None once and stops when the closure is empty.
    """
    rows = _leq_rows(poly)
    for k in range(poly.dim):
        bounds = _range(rows, poly.dim, k)
        if bounds is None:
            yield None
            return
        yield tuple(None if x is None else Fraction(*x) for x in bounds)


def closure_nonempty(poly: Polyhedron) -> bool:
    """Is the closure (strict rows relaxed to weak) nonempty? Its projection
    onto the first coordinate is."""
    rows = _leq_rows(poly)
    if poly.dim == 0:
        return all(b >= 0 for _, b in rows)
    return _range(rows, poly.dim, 0) is not None


def strictly_feasible(poly: Polyhedron) -> bool:
    """lp_strict_feasible's verdict with no LP: the lifted system's range of t
    is the LP's feasible set of objective values, so the system is strictly
    feasible iff that range is nonempty with a positive upper end."""
    t_range = _range(_lifted_rows(poly), poly.dim + 1, poly.dim)
    return t_range is not None and t_range[1][0] > 0


def lattice_runs(poly: Polyhedron, first_only=False):
    """The integer points of the polyhedron (dim >= 1) as runs, in lexicographic
    order: (prefix, lo, hi) stands for prefix + (v,) with lo <= v <= hi, one
    run per nonempty interval of the last coordinate, so counting builds no
    point. first_only stops after the first run. Strict rows are honored
    strictly. Raises UnboundedRegion when some coordinate is unbounded on a
    region that is strictly feasible.

    The box [lo, hi] rounds each coordinate's exact range over the closure
    (coordinate_bounds) inward, coordinate by coordinate: an empty integer
    range yields nothing before the next coordinate is looked at, and an
    unbounded one is settled by strictly_feasible.

    Rows read <u, y> + c <= 0 and tails[d] holds their least values over
    coordinates d.. of the box. A node at depth d admits the v with
    u[d] * v <= -val - tails[d + 1] for each row's partial sum val (u[d] = 0
    with a negative right side prunes it) and walks that interval; at the last
    coordinate the interval is yielded as one run. The stack is explicit
    because a recursive closure forms a cycle that keeps the answer alive.
    """
    n = poly.dim
    lo, hi = [], []
    for k, bounds in enumerate(coordinate_bounds(poly)):
        if bounds is None:
            return
        lower, upper = bounds
        if lower is None or upper is None:
            if strictly_feasible(poly):
                raise UnboundedRegion(f"coordinate {k} unbounded")
            return
        lo.append(ceil(lower))
        hi.append(floor(upper))
        if lo[k] > hi[k]:
            return
    # <u, y> + c <= -1 for strict rows, <-u, y> - c <= 0 for weak rows
    rows = [(u, c + 1) for u, c in poly.strict] + [([-x for x in u], -c) for u, c in poly.weak]
    cols = [[u[d] for u, _ in rows] for d in range(n)]
    tails = [[0] * len(rows)]
    for d in range(n - 1, -1, -1):
        tails.insert(0, [t + min(a * lo[d], a * hi[d]) for t, a in zip(tails[0], cols[d])])
    stack = [((), [c for _, c in rows])]  # (prefix, partial sums); popped in lex order
    while stack:
        prefix, vals = stack.pop()
        depth = len(prefix)
        v_lo, v_hi = lo[depth], hi[depth]
        for a, val, t in zip(cols[depth], vals, tails[depth + 1]):
            room = -val - t
            if a > 0:
                v_hi = min(v_hi, room // a)
            elif a < 0:
                v_lo = max(v_lo, -(room // -a))
            elif room < 0:
                v_hi = v_lo - 1  # the later rows keep it empty
        if depth < n - 1:
            col = cols[depth]
            stack.extend((prefix + (v,), [x + a * v for x, a in zip(vals, col)])
                         for v in range(v_hi, v_lo - 1, -1))
        elif v_lo <= v_hi:
            yield prefix, v_lo, v_hi
            if first_only:
                return


def lattice_points(poly: Polyhedron, first_only=False) -> list[tuple[int, ...]]:
    """All integer points of the polyhedron in lexicographic order, or the
    first one under first_only: the runs of lattice_runs, expanded."""
    if poly.dim == 0:
        return [()] if poly.satisfied_by(()) else []
    points = (p + (v,) for p, lo, hi in lattice_runs(poly, first_only) for v in range(lo, hi + 1))
    return list(islice(points, 1 if first_only else None))
