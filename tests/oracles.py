"""Independent oracles the unit and acceptance suites check against.

These deliberately take the dumb route: filter every integer point of an
explicit box, walk every weight of a certified box and classify its sign
pattern one weight at a time, decide a cone question by the LP instead of
the cached projections, or run the simplex on ``Fraction`` rows.
They share only the exact arithmetic layer with the implementations they
check.
"""

from fractions import Fraction
from itertools import product
from math import ceil, floor

from toricpos import full_subcomplex, reduced_cohomology
from toricpos.cohomology import bad_subsets, subset_region
from toricpos.polyhedra import Polyhedron, lp_optimize, lp_strict_feasible, polyhedron


def box_filter_lattice_points(poly: Polyhedron, box):
    """All integer points of the box satisfying every row, lex order.

    The caller promises the box contains the polyhedron.
    """
    dims = [range(lo, hi + 1) for lo, hi in box]
    out = []
    for point in product(*dims):
        ok = True
        for u, c in poly.strict:
            if sum(Fraction(a) * b for a, b in zip(point, u)) + c >= 0:
                ok = False
                break
        if ok:
            for u, c in poly.weak:
                if sum(Fraction(a) * b for a, b in zip(point, u)) + c < 0:
                    ok = False
                    break
        if ok:
            out.append(point)
    return out


def certified_weight_box(fan, coeffs):
    """A box containing every weight that can contribute to any H^p.

    Union of the per-subset region boxes (each bounded on a complete fan),
    padded by one.
    """
    n = fan.rank
    lo = [0] * n
    hi = [0] * n
    for entries in bad_subsets(fan):
        for subset, _ in entries:
            region = subset_region(fan, coeffs, subset)
            for k in range(n):
                e = [Fraction(0)] * n
                e[k] = Fraction(1)
                smin, _, vmin = lp_optimize(region, e, "min")
                smax, _, vmax = lp_optimize(region, e, "max")
                if smin == "infeasible" or smax == "infeasible":
                    continue
                assert smin == "optimal" and smax == "optimal", (
                    f"unbounded region for subset {subset}"
                )
                lo[k] = min(lo[k], ceil(vmin))
                hi[k] = max(hi[k], floor(vmax))
    return [(l - 1, h + 1) for l, h in zip(lo, hi)]


def lp_persists(d, ample, strict=(), tight=()) -> bool:
    """``positivity._persists`` by two LPs on rows built here: the region of
    D - eps*H (rows in ``strict`` < 0, in ``tight`` = 0, the rest >= 0) in
    (y, eps) with eps > 0 is strictly feasible, and its eps = 0 closure has a
    point."""
    fan = d.fan
    n = fan.rank
    joint_strict, joint_weak, closure = [((0,) * n + (-1,), 0)], [], []
    for i, u in enumerate(fan.rays):
        a = d.coeffs[i]
        row = tuple(u) + (-ample.coeffs[i],)
        if i in strict:
            joint_strict.append((row, a))
            closure.append((tuple(-x for x in u), -a))
            continue
        joint_weak.append((row, a))
        closure.append((u, a))
        if i in tight:
            joint_weak.append((tuple(-x for x in row), -a))
            closure.append((tuple(-x for x in u), -a))
    joint = polyhedron(n + 1, strict=joint_strict, weak=joint_weak)
    closure_status = lp_optimize(polyhedron(n, weak=closure), (0,) * n)[0]
    return lp_strict_feasible(joint).feasible and closure_status == "optimal"


def brute_force_cohomology(fan, coeffs):
    """Cohomology dims by walking every weight of the certified box and
    classifying its sign pattern directly (pattern cohomology memoized)."""
    n = fan.rank
    box = certified_weight_box(fan, coeffs)
    dims = [0] * (n + 1)
    pattern_cohomology: dict = {}
    for m in product(*[range(lo, hi + 1) for lo, hi in box]):
        pattern = tuple(
            i
            for i in range(fan.n_rays)
            if sum(Fraction(a) * b for a, b in zip(m, fan.rays[i])) + coeffs[i] < 0
        )
        rc = pattern_cohomology.get(pattern)
        if rc is None:
            rc = reduced_cohomology(full_subcomplex(fan, pattern), n)
            pattern_cohomology[pattern] = rc
        for p in range(n + 1):
            dims[p] += rc[p]
    return tuple(dims)


# ---------------------------------------------------------------------------
# reference simplex: the Fraction tableau the integer simplex must reproduce
# ---------------------------------------------------------------------------


def _recompute_objective(rows, rhs, basis, cost, ncols):
    obj = [Fraction(cost[j]) for j in range(ncols)]
    val = Fraction(0)
    for i, bvar in enumerate(basis):
        cb = cost[bvar]
        if cb:
            val += cb * rhs[i]
            for j in range(ncols):
                obj[j] -= cb * rows[i][j]
    return obj, val


def _pivot_step(rows, rhs, basis, obj, col, row):
    piv = rows[row][col]
    inv = Fraction(1) / piv
    rows[row] = [x * inv for x in rows[row]]
    rhs[row] *= inv
    for i in range(len(rows)):
        if i != row and rows[i][col]:
            f = rows[i][col]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[row])]
            rhs[i] -= f * rhs[row]
    f = obj[col]
    if f:
        for j in range(len(obj)):
            obj[j] -= f * rows[row][j]
    basis[row] = col


def _optimize(rows, rhs, basis, obj, ncols, blocked=frozenset()):
    """Bland's rule loop; returns 'optimal' or 'unbounded'."""
    while True:
        enter = next(
            (j for j in range(ncols) if j not in blocked and obj[j] > 0), None
        )
        if enter is None:
            return "optimal"
        best = None
        for i in range(len(rows)):
            a = rows[i][enter]
            if a > 0:
                ratio = rhs[i] / a
                key = (ratio, basis[i])
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:
            return "unbounded"
        _pivot_step(rows, rhs, basis, obj, enter, best[1])


def reference_simplex_max(a_rows, b_vals, cost):
    """Exact two-phase simplex.

    Maximizes cost.z subject to a_rows @ z <= b_vals, z >= 0.
    Returns (status, z, value) with status in {optimal, unbounded, infeasible}.
    """
    m = len(a_rows)
    n = len(cost)
    slack = n + m
    rows, rhs, basis, art_cols = [], [], [], []
    for i in range(m):
        row = [Fraction(x) for x in a_rows[i]] + [Fraction(0)] * m
        row[n + i] = Fraction(1)
        r = Fraction(b_vals[i])
        if r < 0:
            row = [-x for x in row]
            r = -r
        rows.append(row)
        rhs.append(r)
    total = slack
    for i in range(m):
        if rows[i][n + i] == 1:
            basis.append(n + i)
        else:  # slack was negated; add an artificial column
            for rr in rows:
                rr.append(Fraction(0))
            rows[i][total] = Fraction(1)
            art_cols.append(total)
            basis.append(total)
            total += 1
    if art_cols:
        cost1 = [Fraction(0)] * total
        for j in art_cols:
            cost1[j] = Fraction(-1)
        obj, val = _recompute_objective(rows, rhs, basis, cost1, total)
        _optimize(rows, rhs, basis, obj, total)
        _, val = _recompute_objective(rows, rhs, basis, cost1, total)
        if val != 0:
            return "infeasible", None, None
        for i in range(len(rows)):  # drive degenerate artificials out
            if basis[i] in art_cols:
                col = next(
                    (j for j in range(slack) if rows[i][j] != 0), None
                )
                if col is not None:
                    obj = [Fraction(0)] * total
                    _pivot_step(rows, rhs, basis, obj, col, i)
        keep = [i for i in range(len(rows)) if basis[i] not in art_cols]
        rows = [rows[i][:slack] for i in keep]
        rhs = [rhs[i] for i in keep]
        basis = [basis[i] for i in keep]
    cost2 = [Fraction(x) for x in cost] + [Fraction(0)] * m
    obj, _ = _recompute_objective(rows, rhs, basis, cost2, slack)
    status = _optimize(rows, rhs, basis, obj, slack)
    if status == "unbounded":
        return "unbounded", None, None
    z = [Fraction(0)] * n
    for i, bvar in enumerate(basis):
        if bvar < n:
            z[bvar] = rhs[i]
    _, value = _recompute_objective(rows, rhs, basis, cost2, slack)
    return "optimal", z, value
