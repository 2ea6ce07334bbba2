"""Independent oracles the unit and acceptance suites check against.

These deliberately take the dumb route: filter every integer point of an
explicit box, walk every weight of a certified box and classify its sign
pattern one weight at a time, decide a cone question by the LP instead of
the cached projections, run the simplex on ``Fraction`` rows, solve a
wall's linear system again for every divisor by ``Fraction`` elimination,
build every region's rows from the coefficients again, each row
normalized by ``polyhedron()``, or ask a base locus's question of every
cone.
They share only the exact arithmetic layer with the implementations they
check, save the reference base loci and the reference parent walk: the
loci ask the library's own cone questions, and check the order of asking
and the chains built on it; the walk reads each parent's level with the
library's ``_integers``, and checks the progressions the count walk reads
instead.
"""

from fractions import Fraction
from itertools import product
from math import ceil, floor

from toricpos import full_subcomplex, reduced_cohomology
from toricpos.cohomology import bad_subsets
from toricpos.linalg import dot
from toricpos.polyhedra import (
    Polyhedron,
    _closure_rhs,
    _parents,
    _plan_of,
    _projection,
    _range,
    lp_optimize,
    lp_strict_feasible,
    polyhedron,
)
from toricpos.positivity import (
    _face_has_point,
    _face_nonempty,
    _joint_picks,
    _persists,
)


def box_filter_lattice_points(poly: Polyhedron, box):
    """All integer points of the box satisfying every row, lex order.

    The caller promises the box contains the polyhedron.
    """
    dims = [range(lo, hi + 1) for lo, hi in box]
    out = []
    for point in product(*dims):
        ok = True
        for u, c in poly.strict:
            if sum(a * b for a, b in zip(point, u)) + c >= 0:
                ok = False
                break
        if ok:
            for u, c in poly.weak:
                if sum(a * b for a, b in zip(point, u)) + c < 0:
                    ok = False
                    break
        if ok:
            out.append(point)
    return out


def coordinate_bounds(poly: Polyhedron):
    """The exact range of each coordinate over the closure, in order, as
    Fraction pairs (lower, upper), a side None when unbounded; or [None]
    when the closure is empty. One Fourier-Motzkin projection per coordinate
    (``polyhedra._projection`` onto y_k), which the walk never builds: the
    tests check these ranges against ``lp_optimize``."""
    leq, b = _plan_of(poly).leq, _closure_rhs(poly)
    bounds = [_range(_projection(leq, poly.dim, k), b) for k in range(poly.dim)]
    if None in bounds:
        return [None]
    return [tuple(None if x is None else Fraction(*x) for x in bound) for bound in bounds]


def per_child_count(terms, v_lo, v_hi):
    """A parent's count (``polyhedra.parent_sum``) child by child: each
    child's ends read as the mins of its terms' floors, its width clipped at
    0, the widths summed."""
    def end(side, v):
        return min((a - p * v) // d for a, p, d in side)

    upper, lower = terms
    return sum(max(end(upper, v) + end(lower, v) + 1, 0) for v in range(v_lo, v_hi + 1))


def reference_parent_terms(plan, b):
    """``Plan.parent_terms`` node by node: the walk (``polyhedra._parents``)
    down to the parents, depth n - 2, each parent's constants built as a
    list and its level read (``polyhedra._integers``), then its terms built
    from those constants by the rule ``parent_terms`` states."""
    start = plan.start(b)
    if start is None:
        return
    v_lo, v_hi, rest = start
    if plan.dim == 1:  # one virtual parent, its coordinate fixed at 0
        parents = [((), rest, 0, 0)]
    else:
        parents = _parents(plan.cols[:-2], plan.levels, v_lo, v_hi, rest)
    for prefix, rest, v_lo, v_hi in parents:
        terms = []
        for fixed, moving in plan.sides:  # the lower side is kept negated, so both are mins
            moves = [(rest[r], p, d) for r, d, p in moving]
            if fixed:
                bound = min(rest[r] // d for r, d in fixed)
            else:
                a, p, d = moves[0]
                bound = (a - p * (v_lo if p > 0 else v_hi)) // d
            terms.append(((bound, 0, 1), *moves))
        yield prefix, v_lo, v_hi, terms


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
            region = coeff_subset_region(fan, coeffs, subset)
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
    return lp_strict_feasible(joint) is not None and closure_status == "optimal"


# ---------------------------------------------------------------------------
# base loci cone by cone: every cone asked, none settled by a face or facet
# ---------------------------------------------------------------------------


def reference_minimal(cones) -> tuple:
    """The inclusion-minimal cones of a set of cones, by size then rays,
    each compared with every smaller one kept."""
    out = []
    for c in sorted(set(cones), key=lambda c: (len(c), c)):
        if not any(set(p) <= set(c) for p in out):
            out.append(c)
    return tuple(out)


def reference_base_locus_cones(divisor) -> set:
    """The cones of Bs|D|: all of them when P_D holds no lattice point,
    else each nonempty cone whose tight face holds none."""
    no_sections = not _face_has_point(divisor, ())
    return {tau for tau in divisor.fan.cones
            if no_sections or (tau and not _face_has_point(divisor, tau))}


def reference_stable_cones(divisor) -> set:
    """The cones of B(D): each cone whose tight face of P_D is empty."""
    return {tau for tau in divisor.fan.cones if not _face_nonempty(divisor, tau)}


def reference_augmented_cones(divisor, ample) -> set:
    """The cones of B+(D): each cone tau whose region of D - eps*H with tau
    tight does not persist as eps -> 0."""
    joint = divisor.fan.regions(_joint_picks, ample.plain_coeffs)
    return {tau for tau in divisor.fan.cones if not _persists(divisor, joint, ((), tau))}


def reference_stable_chain(divisor, horizon=24):
    """(minimal cones, multiple) of the chain that intersects Bs|kD| for
    k = 1..horizon and stops at the first milestone whose intersection
    equals the previous milestone's and B(D); None when none does and the
    final intersection is not B(D)."""
    exact = reference_stable_cones(divisor)
    running, previous = None, None
    for k in range(1, horizon + 1):
        bs_k = reference_base_locus_cones(k * divisor)
        running = bs_k if running is None else running & bs_k
        if k in (1, 2, 6, 12, 24):
            if previous == running == exact:
                return reference_minimal(running), k
            previous = set(running)
    return (reference_minimal(running), horizon) if running == exact else None


def reference_augmented_chain(divisor, ample, max_doublings=8):
    """(minimal cones, multiple) of the chain B(kD - H), k = 2, 4, 8, ...,
    that stops when two successive loci agree with B+(D); None when the
    doublings run out."""
    exact = reference_minimal(reference_augmented_cones(divisor, ample))
    previous, k = None, 2
    for _ in range(max_doublings):
        locus = reference_minimal(reference_stable_cones(k * divisor - ample))
        if previous == locus == exact:
            return locus, k
        previous, k = locus, 2 * k
    return None


# ---------------------------------------------------------------------------
# region builders that normalize every row of every region: the rows a
# fan's selection tables (``Fan.regions``) must reproduce for a divisor
# ---------------------------------------------------------------------------


def coeff_section_polyhedron(divisor) -> Polyhedron:
    """P_D = {m : <m, u_rho> + a_rho >= 0 for all rays}."""
    fan = divisor.fan
    return polyhedron(
        fan.rank,
        weak=[(fan.rays[i], divisor.plain_coeffs[i]) for i in range(fan.n_rays)],
    )


def coeff_subset_region(fan, coeffs, subset) -> Polyhedron:
    """P_S(D): strict rows on S, weak rows off S, in M-coordinates."""
    return coeff_sign_region(fan, coeffs, strict=subset)


def coeff_big_region(divisor, tau=()) -> Polyhedron:
    """The region whose strict feasibility is ``positivity.is_big(D, tau)``."""
    fan = divisor.fan
    star = {i for c in fan.max_cones if set(tau) <= set(c) for i in c}
    strict, weak = [], []
    for i in range(fan.n_rays):
        u, a = fan.rays[i], divisor.plain_coeffs[i]
        flipped = (tuple(-x for x in u), -a)
        if i in tau:
            weak += [(u, a), flipped]
        elif i in star:
            strict.append(flipped)
    return polyhedron(fan.rank, strict=strict, weak=weak)


def coeff_sign_region(fan, coeffs, strict=(), tight=()) -> Polyhedron:
    """The rows in ``strict`` strict (< 0), those in ``tight`` tight (= 0)
    and the rest weak (>= 0), in ray order; a row in both is strict. With
    ``strict`` empty it is the face of the section polytope where the rows
    of ``tight`` are tight."""
    strict_rows, weak = [], []
    for i in range(fan.n_rays):
        u, a = fan.rays[i], coeffs[i]
        if i in strict:
            strict_rows.append((u, a))
            continue
        weak.append((u, a))
        if i in tight:
            weak.append((tuple(-x for x in u), -a))
    return polyhedron(fan.rank, strict=strict_rows, weak=weak)


def plan_polyhedron(plan, b) -> Polyhedron:
    """The region (plan, b) as a ``Polyhedron``, each row normalized by
    ``polyhedron()``: the closure constants b are in ``Plan.leq`` order, a
    weak row's -<u, y> <= c read back as <u, y> + c >= 0 and a strict row's
    <u, y> <= b as <u, y> - b < 0."""
    nw = len(plan.weak)
    strict = tuple(zip(plan.strict, (-x for x in b[nw:])))
    return polyhedron(plan.dim, strict=strict, weak=tuple(zip(plan.weak, b[:nw])))


def reference_simplest(lo, hi) -> Fraction:
    """The integer nearest 0 in [lo, hi] (a side None when unbounded), else
    p/q for the least q with some p/q in it, found by trying q = 2, 3, ...:
    the least such p is ceil(lo * q)."""
    if (lo is None or lo <= 0) and (hi is None or hi >= 0):
        return Fraction(0)
    if hi is not None and hi < 0:
        return -reference_simplest(-hi, None if lo is None else -lo)
    q = 1
    while hi is not None and Fraction(ceil(lo * q), q) > hi:
        q += 1
    return Fraction(ceil(lo * q), q)


def coeff_joint_region(d, ample, strict=(), tight=()) -> Polyhedron:
    """The region of D - eps*H in (y, eps) with eps > 0, the rows in
    ``strict`` strict (< 0), those in ``tight`` tight (= 0) and the rest weak
    (>= 0)."""
    fan = d.fan
    n = fan.rank
    joint_strict, joint_weak = [], []
    for i in range(fan.n_rays):
        row, a = fan.rays[i] + (-ample.plain_coeffs[i],), d.plain_coeffs[i]
        if i in strict:
            joint_strict.append((row, a))
        else:
            joint_weak.append((row, a))
            if i in tight:
                joint_weak.append((tuple(-x for x in row), -a))
    joint_strict.append(((0,) * n + (-1,), 0))  # eps > 0
    return polyhedron(n + 1, strict=joint_strict, weak=joint_weak)


def solve_wall_degree(divisor, wall):
    """``divisor.wall_degree`` by one linear solve per divisor: the
    representative of D that vanishes on one neighbour of the wall, read at
    the opposite ray of the other neighbour."""
    fan = divisor.fan
    sigma, sigma2 = fan.wall_neighbors[wall]
    m = reference_solve_linear([fan.rays[i] for i in sigma], [divisor.coeffs[i] for i in sigma])
    other = next(i for i in sigma2 if i not in wall)
    return divisor.coeffs[other] - dot(m, fan.rays[other])


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


# ---------------------------------------------------------------------------
# reference linear algebra: the Fraction eliminations the integer rref replaced
# ---------------------------------------------------------------------------


def reference_rref(mat):
    """Reduced row echelon form by Fraction Gauss-Jordan; returns (R, pivot
    columns), the pivot in each column the first nonzero row from the current
    one on."""
    a = [[Fraction(x) for x in row] for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = Fraction(1) / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def reference_solve_linear(mat, rhs):
    """One solution of mat @ x = rhs read off ``reference_rref`` (free
    variables 0), or None."""
    if not mat:
        return [] if all(x == 0 for x in rhs) else None
    cols = len(mat[0])
    red, pivots = reference_rref([[*row, b] for row, b in zip(mat, rhs)])
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for i, c in enumerate(pivots):
        x[c] = red[i][cols]
    return x


def reference_det(mat):
    """Determinant of a square matrix by Fraction Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in mat]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant needs a square matrix")
    result = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            result = -result
        result *= a[c][c]
        inv = Fraction(1) / a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return result
