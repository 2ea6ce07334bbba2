import gc
import random
import weakref
from collections import Counter
from fractions import Fraction
from math import ceil, floor, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toricpos.polyhedra as polyhedra
from toricpos import Fan, ToricDivisor, UnboundedRegion, classify_cones, is_qnef
from toricpos.cohomology import bad_subsets, sign_picks
from toricpos.positivity import _big_picks, _joint_picks, default_ample
from toricpos.polyhedra import (
    Plan,
    Twists,
    Weights,
    _closure_rhs,
    _plan_of,
    _range,
    _side_sum,
    _simplest,
    floor_sum,
    folds,
    lattice_points,
    lp_optimize,
    lp_strict_feasible,
    parent_sum,
    polyhedron,
    rhs,
    simplex_max,
)

from .conftest import gap_regions, product_fan, random_divisors, unimodular
from .oracles import (
    box_filter_lattice_points,
    certified_weight_box,
    coeff_subset_region,
    coordinate_bounds,
    per_child_count,
    plan_polyhedron,
    reference_parent_terms,
    reference_simplest,
    reference_simplex_max,
)


def _query(p):
    """The polyhedron as a plan query (plan, b)."""
    return _plan_of(p), _closure_rhs(p)


def _blocks(p):
    """The walk's blocks of the polyhedron (``Plan.blocks``)."""
    return _plan_of(p).blocks(_closure_rhs(p))


def _first_block_points(p):
    """The points of the walk's first block, the block has_point's fallback
    reads, or [] when the walk yields none."""
    first = next(_blocks(p), None)
    return list(Weights([first] if first else [], p.dim))


def test_strict_feasible_interval():
    # y < 0 and y >= -1
    p = polyhedron(1, strict=[((1,), 0)], weak=[((1,), 1)])
    witness = lp_strict_feasible(p)
    assert witness is not None and p.satisfied_by(witness)


def test_strict_infeasible_half_open_clash():
    # y < 0 and y >= 0
    p = polyhedron(1, strict=[((1,), 0)], weak=[((1,), 0)])
    assert lp_strict_feasible(p) is None


def test_unbounded_slack_still_reports_feasible_with_witness():
    p = polyhedron(1, strict=[((1,), 0)])  # the open half-line y < 0
    witness = lp_strict_feasible(p)
    assert witness is not None and p.satisfied_by(witness)


def test_totaro_double_weight_pattern_feasible(totaro):
    # the all-negative pattern on f3..f6 for twice the example class
    doubled = (6, 6, -2, -2, -2, -2)
    region = coeff_subset_region(totaro, [Fraction(c) for c in doubled], (2, 3, 4, 5))
    assert lp_strict_feasible(region) is not None
    assert (0, 0, 0) in lattice_points(region)


def test_unit_square_lattice_points():
    p = polyhedron(2, weak=[((1, 0), 0), ((0, 1), 0), ((-1, 0), 1), ((0, -1), 1)])
    assert lattice_points(p) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_half_open_interval_respects_strictness():
    p = polyhedron(1, weak=[((1,), 0)], strict=[((1,), -1)])
    assert lattice_points(p) == [(0,)]


def test_degree_two_sections_on_p1():
    # the section polytope of a degree-2 class on the line has 3 points
    p = polyhedron(1, weak=[((1,), 2), ((-1,), 0)])
    assert lattice_points(p) == [(-2,), (-1,), (0,)]


def test_unbounded_raises():
    p = polyhedron(2, weak=[((1, 0), 0)])
    with pytest.raises(UnboundedRegion):
        lattice_points(p)


def test_strictly_empty_unbounded_closure_is_empty_not_error():
    p = polyhedron(1, weak=[((1,), 0)], strict=[((1,), 0)])
    assert lattice_points(p) == []
    # y0 has no integer in [1/5, 4/5], so the walk stops there before it
    # looks at y1, which is unbounded on a strictly feasible region
    q = polyhedron(2, weak=[((1, 0), Fraction(-1, 5)), ((-1, 0), Fraction(4, 5)), ((0, 1), 0)])
    assert lp_strict_feasible(q) is not None
    assert lattice_points(q) == []


def test_unbounded_region_raises_whichever_coordinate_is_unbounded():
    # boundedness is the plan's: a strictly feasible region on an unbounded
    # plan raises once y_0's range holds an integer, whether y_k is free or
    # open above or below. A later coordinate's empty integer range does not
    # hide it: y1 has no integer in [1/5, 4/5] below, and y2 is unbounded
    for n in range(1, 5):
        for k in range(n):
            for sides in ((1,), (-1,), ()):
                weak = [(tuple(s * (j == i) for j in range(n)), 2 if s < 0 else 0)
                        for i in range(n) for s in ((1, -1) if i != k else sides)]
                p = polyhedron(n, weak=weak)
                assert lp_strict_feasible(p) is not None
                for ask in (lattice_points, lambda p: next(_blocks(p)),
                            lambda p: _plan_of(p).has_point(_closure_rhs(p))):
                    with pytest.raises(UnboundedRegion):
                        ask(p)
    gap = [((0, 1, 0), Fraction(-1, 5)), ((0, -1, 0), Fraction(4, 5))]
    q = polyhedron(3, weak=[((1, 0, 0), 0), ((-1, 0, 0), 1), ((0, 0, 1), 0), *gap])
    with pytest.raises(UnboundedRegion):
        lattice_points(q)


def test_lp_optimize_statuses():
    tri = polyhedron(2, weak=[((1, 0), 0), ((0, 1), 0), ((-1, -1), 3)])
    status, point, value = lp_optimize(tri, (1, 1), "max")
    assert status == "optimal" and value == 3
    status, _, _ = lp_optimize(tri, (1, 1), "min")
    assert status == "optimal"
    status, _, _ = lp_optimize(polyhedron(1, weak=[((1,), 0)]), (1,), "max")
    assert status == "unbounded"
    infeasible = polyhedron(1, weak=[((1,), -1), ((-1,), 0)])
    assert lp_optimize(infeasible, (1,), "max")[0] == "infeasible"


rows_strategy = st.lists(
    st.tuples(
        st.lists(st.integers(-4, 4), min_size=2, max_size=2),
        st.integers(-6, 6),
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=120, deadline=None)
@given(rows_strategy, rows_strategy)
def test_strict_witness_satisfies_every_row(strict_rows, weak_rows):
    p = polyhedron(
        2,
        strict=[(tuple(u), c) for u, c in strict_rows],
        weak=[(tuple(u), c) for u, c in weak_rows],
    )
    witness = lp_strict_feasible(p)
    if witness is not None:
        assert p.satisfied_by(witness)


@settings(max_examples=80, deadline=None)
@given(rows_strategy, rows_strategy)
def test_lattice_points_match_box_filter(strict_rows, weak_rows):
    # bound everything into a 15^2 window so the box filter is total
    window = [((1, 0), 7), ((-1, 0), 7), ((0, 1), 7), ((0, -1), 7)]
    p = polyhedron(
        2,
        strict=[(tuple(u), c) for u, c in strict_rows],
        weak=[(tuple(u), c) for u, c in weak_rows] + window,
    )
    expected = box_filter_lattice_points(p, [(-7, 7), (-7, 7)])
    assert lattice_points(p) == expected


def test_three_dimensional_box_filter_agreement():
    p = polyhedron(
        3,
        strict=[((1, 1, 1), -4)],
        weak=[
            ((1, 0, 0), 5), ((-1, 0, 0), 5),
            ((0, 1, 0), 5), ((0, -1, 0), 5),
            ((0, 0, 1), 5), ((0, 0, -1), 5),
            ((1, -2, 3), 2),
        ],
    )
    expected = box_filter_lattice_points(p, [(-6, 6)] * 3)
    assert lattice_points(p) == expected


coefficient = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
constant = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=3),
)


@st.composite
def windowed_polyhedra(draw):
    """A polyhedron in 3 or 4 dimensions inside the window |y_k| <= 2, with
    one strict and one weak row that ignore a drawn coordinate."""
    dim = draw(st.sampled_from((3, 4)))

    def row():
        return tuple(draw(coefficient) for _ in range(dim)), draw(constant)

    strict = [row() for _ in range(draw(st.integers(0, 3)))]
    weak = [row() for _ in range(draw(st.integers(0, 3)))]
    for rows in (strict, weak):
        (u, c), k = row(), draw(st.integers(0, dim - 1))
        rows.append((u[:k] + (0,) + u[k + 1 :], c))
    for k in range(dim):
        for sign in (1, -1):
            weak.append((tuple(sign if j == k else 0 for j in range(dim)), 2))
    return polyhedron(dim, strict=strict, weak=weak), [(-2, 2)] * dim


@settings(max_examples=150, deadline=None)
@given(windowed_polyhedra())
def test_lattice_points_match_box_filter_in_three_and_four_dimensions(drawn):
    p, box = drawn
    points = lattice_points(p)
    assert points == box_filter_lattice_points(p, box)
    first = _first_block_points(p)
    assert points[: len(first)] == first and bool(first) == bool(points)


def test_lattice_points_leaves_no_reference_cycle():
    # a cycle through the walk would keep every answer alive until a full collection
    p = polyhedron(3, weak=[(tuple(s if j == k else 0 for j in range(3)), 4)
                            for k in range(3) for s in (1, -1)])
    gc.collect()
    gc.disable()
    try:
        assert len(lattice_points(p)) == 9**3
        assert next(_blocks(p))[:3] == ((-4,), -4, 4)  # a walk left open
        assert _first_block_points(p)[0] == (-4, -4, -4)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_dropped_fan_frees_its_plans():
    # each plan lives in its fan's selection tables alone, so once the fan
    # is gone no plan of its regions is left
    def answered():
        fan = Fan(2, ((1, 0), (-1, 0), (0, 1), (0, -1)), ((0, 2), (0, 3), (1, 2), (1, 3)))
        d = ToricDivisor(fan, (1, -2, 0, 1))
        classify_cones(d)
        for q in range(fan.rank):
            is_qnef(d, q)
        return [weakref.ref(plan) for table in fan._regions.values() for plan, _ in table.values()]

    plans = answered()
    gc.collect()
    assert plans and not any(ref() for ref in plans), len(plans)


def test_level_zero_is_the_top_projection(monkeypatch):
    # closure_nonempty's projection is the walk's first level, so a plan
    # that reads both eliminates once per level
    calls = []
    project = polyhedra._projection

    def counting(*args):
        calls.append(args)
        return project(*args)

    monkeypatch.setattr(polyhedra, "_projection", counting)
    for p, _ in gap_regions():
        plan = _plan_of(p)
        calls.clear()
        assert plan.closure_nonempty(_closure_rhs(p)) and plan.levels[0] is plan.top
        assert len(plan.levels) == len(calls) == p.dim, calls


def test_projected_bounds_match_lp_on_seeded_corpus():
    # every coordinate's range from the cached projection against the
    # closure's min and max LPs: same status, same exact value
    rng = random.Random(20261)

    def entry():
        if rng.random() < 0.3:
            return 0
        if rng.random() < 0.4:
            return Fraction(rng.randint(-6, 6), rng.choice([2, 3, 4]))
        return rng.randint(-3, 3)

    statuses = {}
    for _ in range(2400):
        n = rng.randint(1, 4)

        def row():
            return tuple(entry() for _ in range(n)), entry() + rng.randint(-4, 4)

        strict = [row() for _ in range(rng.choice([0, 0, 1, 2, 3]))]
        weak = [row() for _ in range(rng.choice([0, 1, 2, 3, 4]))]
        for k in rng.sample(range(n), rng.randint(0, n)):  # a window on some coordinates
            for sign in (1, -1):
                weak.append((tuple(sign if j == k else 0 for j in range(n)), rng.randint(0, 4)))
        p = polyhedron(n, strict=strict, weak=weak)
        bounds = list(coordinate_bounds(p))
        assert bounds == [None] or len(bounds) == n, (p, bounds)
        for k in range(n):
            e = [int(j == k) for j in range(n)]
            smin, _, vmin = lp_optimize(p, e, "min")
            smax, _, vmax = lp_optimize(p, e, "max")
            if bounds == [None]:
                assert (smin, smax) == ("infeasible", "infeasible"), (p, k)
                statuses["empty"] = statuses.get("empty", 0) + 1
                continue
            lower, upper = bounds[k]
            assert (smin, vmin) == (("unbounded", None) if lower is None else ("optimal", lower)), (p, k)
            assert (smax, vmax) == (("unbounded", None) if upper is None else ("optimal", upper)), (p, k)
            statuses[smin, smax] = statuses.get((smin, smax), 0) + 1
        if not strict and not weak:
            statuses["no rows"] = statuses.get("no rows", 0) + 1
    assert len(statuses) == 6, statuses
    # the cache key holds the dimension: one empty row set per dimension
    for n in (1, 3, 1):
        assert list(coordinate_bounds(polyhedron(n))) == [(None, None)] * n
        with pytest.raises(UnboundedRegion):
            lattice_points(polyhedron(n))


def scan_twist_regions(fan, count, multiples, twists=(1, 2, 3, 4)):
    """The regions of N*D - j*H the q-ample scan queries, for seeded D on
    ``fan`` and H = -K: every bad subset of every degree, each row of each
    twist normalized by ``polyhedron()``."""
    ample = default_ample(fan)
    for d in random_divisors(fan, count, lo=-4, hi=4, seed="scan-twists"):
        for n_mult in multiples:
            for j in twists:
                twisted = tuple(n_mult * a - j * h for a, h in zip(d.plain_coeffs, ample.plain_coeffs))
                for entries in bad_subsets(fan):
                    for subset, _ in entries:
                        yield twisted, coeff_subset_region(fan, twisted, subset)


def test_fm_decisions_match_the_lp_on_seeded_corpus(totaro):
    # strictly_feasible and closure_nonempty against the strict-feasibility
    # LP and the closure LP, on mixed rows in dims 0-5: empty, unbounded,
    # lower-dimensional (an equation as two weak rows) and full-dimensional
    rng = random.Random(20263)

    def entry():
        r = rng.random()
        if r < 0.3:
            return 0
        if r < 0.5:
            return Fraction(rng.randint(-6, 6), rng.choice([2, 3, 4]))
        return rng.randint(-3, 3)

    kinds = Counter()
    for _ in range(1500):
        n = rng.randint(0, 5)

        def row():
            return tuple(entry() for _ in range(n)), entry() + rng.randint(-4, 4)

        strict = [row() for _ in range(rng.choice([0, 1, 2, 3]))]
        weak = [row() for _ in range(rng.choice([0, 1, 2, 4]))]
        if rng.random() < 0.25:
            u, c = row()
            weak += [(u, c), (tuple(-x for x in u), -c)]
        if rng.random() < 0.5:  # a window on every coordinate: bounded
            for k in range(n):
                for sign in (1, -1):
                    weak.append((tuple(sign if j == k else 0 for j in range(n)), rng.randint(0, 4)))
        p = polyhedron(n, strict=strict, weak=weak)
        strict_lp = lp_strict_feasible(p) is not None
        closure_lp = lp_optimize(p, (0,) * n)[0] == "optimal"
        plan, b = _query(p)
        assert plan.strictly_feasible(b) == strict_lp, p
        assert plan.closure_nonempty(b) == closure_lp, p
        if not closure_lp:
            kinds["empty"] += 1
        elif not strict_lp:
            kinds["closure only"] += 1
        else:
            kinds["strictly feasible"] += 1
        if n == 0:
            kinds["dim 0"] += 1
        elif closure_lp and lp_optimize(p, (1,) + (0,) * (n - 1))[0] == "unbounded":
            kinds["unbounded"] += 1
    assert len(kinds) == 5 and min(kinds.values()) >= 20, kinds
    # the regions the scan oracle asks about, read from shared plans
    twist_kinds = Counter()
    for _, p in scan_twist_regions(totaro, 12, (1, 2, 12)):
        strict_lp = lp_strict_feasible(p) is not None
        closure_lp = lp_optimize(p, (0,) * p.dim)[0] == "optimal"
        plan, b = _query(p)
        assert plan.strictly_feasible(b) == strict_lp, p
        assert plan.closure_nonempty(b) == closure_lp, p
        twist_kinds["strictly feasible" if strict_lp else "closure only" if closure_lp else "empty"] += 1
    assert len(twist_kinds) == 3 and min(twist_kinds.values()) >= 15, twist_kinds


def test_simplest_matches_the_brute_force_least_denominator():
    # closed intervals between small rationals, half-unbounded and unbounded
    # ones, with and without an integer, against every p/q with q <= 5 and
    # |p/q| <= 4: the integer nearest 0 in it, else the only one of least
    # denominator; each side is handed over unreduced
    ends = sorted({Fraction(p, q) for q in range(1, 5) for p in range(-3 * q, 3 * q + 1)})
    candidates = sorted({Fraction(p, q) for q in range(1, 6) for p in range(-4 * q, 4 * q + 1)})
    kinds = Counter()
    for lo in (None, *ends):
        for hi in (None, *ends):
            if lo is not None and hi is not None and lo > hi:
                continue
            inside = [x for x in candidates if (lo is None or lo <= x) and (hi is None or x <= hi)]
            integers = [x for x in inside if x.denominator == 1]
            if integers:
                want = min(integers, key=abs)
            else:
                least = min(x.denominator for x in inside)
                [want] = [x for x in inside if x.denominator == least]
            sides = [None if x is None else (2 * x.numerator, 2 * x.denominator) for x in (lo, hi)]
            p, q = _simplest(*sides)
            assert q > 0 and gcd(p, q) == 1 and Fraction(p, q) == want, (lo, hi, p, q)
            assert reference_simplest(lo, hi) == want, (lo, hi)
            kinds[(lo is None) + (hi is None), bool(integers)] += 1
    assert len(kinds) == 4, kinds  # every interval unbounded on a side holds an integer


def test_point_writes_the_simplest_witness_of_every_region(example_fans):
    # Plan.point on seeded sign, big and joint regions of the example fans,
    # with int constants and Fraction ones (D - H/100), and on the slivers:
    # None exactly where the simplex finds no point; else a point meeting
    # every row, each strict one strictly, whose coordinates are, one by
    # one, the simplest rationals in the ranges their levels give over the
    # prefix, once the strict rows are shifted by t = 1/ceil(1/t_hi)
    queries = [_query(p) for p, _ in gap_regions()]
    for fan in example_fans:
        h = default_ample(fan)
        signs = [(s, ()) for entries in bad_subsets(fan) for s, _ in entries]
        signs += [((), tau) for tau in fan.cones]
        tables = ((fan.regions(sign_picks), signs), (fan.regions(_big_picks), fan.cones),
                  (fan.regions(_joint_picks, h.plain_coeffs), signs))
        for d in random_divisors(fan, 4, seed="point"):
            for coeffs in (d.plain_coeffs, (d - Fraction(1, 100) * h).plain_coeffs):
                for table, selections in tables:
                    for selection in selections:
                        plan, index = table[selection]
                        queries.append((plan, rhs(index, coeffs)))
    kinds = Counter()
    for plan, b in queries:
        region = plan_polyhedron(plan, b)
        point = plan.point(b)
        assert (point is None) == (lp_strict_feasible(region) is None), region
        kinds["none" if point is None else "point", all(type(x) is int for x in b)] += 1
        if point is None:
            continue
        assert region.satisfied_by(point), (region, point)
        t_num, t_den = _range(plan.t_projection, [*b, 1, 0])[1]
        t = Fraction(1, ceil(Fraction(t_den, t_num)))
        rest = [x - t * s for x, s in zip(b, plan.shifts)]
        for y, level, col in zip(point, plan.levels, plan.cols):
            lower, upper = _range(level, rest)
            lo, hi = (None if side is None else Fraction(*side) for side in (lower, upper))
            assert y == reference_simplest(lo, hi), (region, point)
            rest = [x - y * a for x, a in zip(rest, col)]
        kinds["t < 1"] += t < 1
        kinds["fraction"] += any(y.denominator > 1 for y in point)
    assert len(kinds) == 6 and min(kinds.values()) >= 10, kinds


def test_stored_rows_are_content_free_integers_on_seeded_corpus():
    # polyhedron() stores each row once as coprime integers; each stored row
    # must take the sign of its input row everywhere, on its boundary too, so
    # the box filter, which reads the stored rows, checks the input rows
    rng = random.Random(20262)

    def entry():
        r = rng.random()
        if r < 0.3:
            return 0
        if r < 0.7:
            return Fraction(rng.randint(-6, 6), rng.choice([2, 3, 4, 6]))
        return rng.randint(-4, 4)

    def value(u, c, point):
        return sum(Fraction(a) * b for a, b in zip(point, u)) + c

    def sign(x):
        return (x > 0) - (x < 0)

    zero_rows = 0
    for _ in range(600):
        n = rng.randint(0, 4)

        def row():
            if rng.random() < 0.1:
                return (0,) * n, Fraction(0)
            factor = rng.choice([1, 2, 6, Fraction(1, 2), Fraction(2, 3)])
            return tuple(factor * entry() for _ in range(n)), factor * entry()

        strict = [row() for _ in range(rng.randint(0, 3))]
        weak = [row() for _ in range(rng.randint(0, 3))]
        p = polyhedron(n, strict=strict, weak=weak)
        stored = p.strict + p.weak
        for (u, c), (v, d) in zip(stored, strict + weak):
            assert all(type(x) is int for x in (*u, c)), (u, c)
            if any(v) or d:
                assert gcd(*u, c) == 1, (u, c)
            else:
                assert (u, c) == ((0,) * n, 0)
                zero_rows += 1
        points = [tuple(entry() for _ in range(n)) for _ in range(4)]
        for v, d in strict + weak:  # one point on each boundary
            k = next((k for k in range(n) if v[k]), None)
            if k is not None:
                y = list(entry() for _ in range(n))
                y[k] -= value(v, d, y) / v[k]
                assert value(v, d, y) == 0
                points.append(tuple(y))
        for y in points:
            for (u, c), (v, d) in zip(stored, strict + weak):
                assert sign(value(u, c, y)) == sign(value(v, d, y)), ((u, c), (v, d), y)
            direct = all(value(v, d, y) < 0 for v, d in strict) and all(
                value(v, d, y) >= 0 for v, d in weak
            )
            assert p.satisfied_by(y) == direct, (p, y)
    assert zero_rows > 0


def test_integer_rows_store_as_their_fraction_forms_on_seeded_corpus():
    # an all-int row takes polyhedron()'s one-gcd route and the same row as
    # Fractions the clear_denominators route; both must store the row divided
    # by its content, which is unique, as plain ints
    rng = random.Random(20265)
    kinds = Counter()
    for _ in range(800):
        n = rng.randint(0, 4)
        content = rng.choice([1, 1, 2, 3, 6])
        if rng.random() < 0.1:
            u, c = (0,) * n, 0
        else:
            u = tuple(content * rng.randint(-5, 5) for _ in range(n))
            c = content * rng.randint(-5, 5)
        g = gcd(*u, c)
        expected = (u, c) if g == 0 else (tuple(x // g for x in u), c // g)
        k = rng.choice([2, 3, 5, 6])
        forms = [
            (u, c),
            (tuple(map(Fraction, u)), Fraction(c)),
            (tuple(Fraction(x, k) for x in u), Fraction(c, k)),
        ]
        for form in forms:
            p = polyhedron(n, strict=[form], weak=[form])
            assert p.strict == p.weak == (expected,), (form, p)
            assert all(type(x) is int for x in (*p.weak[0][0], p.weak[0][1])), p
        kinds["zero" if g == 0 else "content > 1" if g > 1 else "primitive"] += 1
        kinds["negative entry"] += min((*u, c)) < 0
    assert len(kinds) == 4 and min(kinds.values()) >= 40, kinds


def test_positively_scaled_rows_store_one_row():
    # rows that differ by a positive factor are stored as the same
    # content-free row, so both polyhedra hold the same rows and points
    window = [((0, 1), 4), ((0, -1), 4), ((-1, 0), 5)]
    first = polyhedron(2, weak=[((Fraction(1, 2), 0), Fraction(1, 3))] + window)
    second = polyhedron(2, weak=[((3, 0), 2)] + window)
    assert first.weak == second.weak and first.weak[0] == ((3, 0), 2)
    points = lattice_points(first)
    assert lattice_points(second) == points and len(points) == 6 * 9


def test_bad_subset_regions_are_walked_without_an_lp(monkeypatch, example_fans):
    import toricpos.polyhedra

    calls = []
    solve = toricpos.polyhedra.simplex_max

    def counting(*args):
        calls.append(args)
        return solve(*args)

    for fan in example_fans:
        for d in random_divisors(fan, 4, seed="fm-bounds"):
            box = certified_weight_box(fan, d.coeffs)
            for entries in bad_subsets(fan):
                for subset, _ in entries:
                    region = coeff_subset_region(fan, d.plain_coeffs, subset)
                    with monkeypatch.context() as m:
                        m.setattr(toricpos.polyhedra, "simplex_max", counting)
                        points = lattice_points(region)
                    assert calls == [], (fan.name, d.coeffs, subset)
                    assert points == box_filter_lattice_points(region, box), (fan.name, d.coeffs, subset)


def test_lattice_runs_match_box_filter_on_seeded_corpus(totaro):
    # the batched last level against the box filter, in dims 1-5: windows up
    # to width 12 on the last two coordinates, so one parent holds many v;
    # rows with a zero last or penultimate coefficient; strict rows; and
    # Fraction constants. Each row passes near a drawn point of the window.
    rng = random.Random(20264)

    def entry():
        r = rng.random()
        if r < 0.25:
            return 0
        if r < 0.4:
            return Fraction(rng.randint(-6, 6), rng.choice([2, 3, 4]))
        return rng.randint(-3, 3)

    kinds = Counter()
    for _ in range(1000):
        n = rng.randint(1, 5)
        box = []
        for k in range(n):
            a = rng.randint(-6, 6)
            box.append((a, a + rng.randint(0, 12 if k >= n - 2 else 2)))
        weak = []
        for k, (a, b) in enumerate(box):  # a <= y_k <= b
            e = tuple(int(j == k) for j in range(n))
            weak += [(e, -a), (tuple(-x for x in e), b)]

        def row():
            u = [entry() for _ in range(n)]
            zeroed = rng.choice([None, None, n - 1, n - 2])
            if zeroed is not None and zeroed >= 0:
                u[zeroed] = 0
                kinds["last zero" if zeroed == n - 1 else "penultimate zero"] += 1
            near = [rng.randint(a, b) for a, b in box]
            offset = Fraction(rng.randint(-8, 8), rng.choice([1, 1, 2, 3]))
            return tuple(u), offset - sum(x * y for x, y in zip(u, near))

        strict = [row() for _ in range(rng.randint(0, 3))]
        p = polyhedron(n, strict=strict, weak=weak + [row() for _ in range(rng.randint(0, 3))])
        expected = box_filter_lattice_points(p, box)
        weights = Weights(_blocks(p), n)
        runs = list(weights._runs(weights.blocks))
        assert all(lo <= hi for _, lo, hi in runs), (p, runs)
        assert all(a[0] < b[0] for a, b in zip(runs, runs[1:])), (p, runs)
        assert list(weights) == expected and len(weights) == len(expected), p
        first = _first_block_points(p)
        assert expected[: len(first)] == first and bool(first) == bool(expected), p
        kinds[f"dim {n}"] += 1
        kinds["strict"] += bool(strict)
        kinds["fraction constant"] += any(c.denominator > 1 for _, c in strict)
        kinds["empty" if not runs else "one run" if len(runs) == 1 else "many runs"] += 1
        # a parent of two or more runs: one batch yields several children
        kinds["shared parent"] += any(a[0][:-1] == b[0][:-1] for a, b in zip(runs, runs[1:]))
    assert len(kinds) == 13 and min(kinds.values()) >= 30, kinds
    # the regions the scan oracle walks, inside each twist's certified box
    twist_kinds, boxes = Counter(), {}
    for twisted, p in scan_twist_regions(totaro, 6, (1, 2), twists=(1, 3)):
        if twisted not in boxes:
            boxes[twisted] = certified_weight_box(totaro, twisted)
        expected = box_filter_lattice_points(p, boxes[twisted])
        plan, b = _query(p)
        weights = Weights(plan.blocks(b), p.dim)
        assert list(weights) == expected and plan.has_point(b) == bool(expected), p
        twist_kinds["hit" if weights else "empty over Z" if plan.closure_nonempty(b) else "empty over Q"] += 1
    assert len(twist_kinds) == 3 and min(twist_kinds.values()) >= 10, twist_kinds


def test_floor_sum_matches_the_brute_force_sum():
    for n in range(13):
        for m in range(1, 8):
            for a in range(-20, 21):
                for b in range(-20, 21):
                    assert floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n)), (n, m, a, b)


def test_side_sum_matches_the_brute_force_sum():
    # seeded sides of 1-4 terms, a constant (A, 0, d) and then moving terms
    # in slope order (p / d ascending, the order Plan.sides keeps), p in
    # -4..4 with 0 included and d in 1..4, over empty, one-point and wider
    # intervals: the one-pass sum of the envelope against the min summed
    # child by child. The draws reach ties in slope and a constant whose
    # place is between terms that rise and terms that fall
    rng = random.Random("side-sum")
    shapes = Counter()
    for _ in range(20000):
        moving = [(rng.randint(-12, 12), rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(rng.randint(0, 3))]
        side = ((rng.randint(-12, 12), 0, rng.randint(1, 4)), *sorted(moving, key=lambda t: Fraction(t[1], t[2])))
        lo = rng.randint(-6, 6)
        hi = lo + rng.randint(-2, 8)
        brute = sum(min((a - p * v) // d for a, p, d in side) for v in range(lo, hi + 1))
        assert _side_sum(side, lo, hi) == brute, (side, lo, hi)
        slopes = [Fraction(p, d) for _, p, d in side]
        shapes["empty" if hi < lo else "one point" if hi == lo else "wider"] += 1
        shapes["tie in slope"] += len(set(slopes)) < len(slopes)
        shapes["constant between"] += min(slopes) < 0 < max(slopes)
        shapes["4 terms"] += len(side) == 4
    assert len(shapes) == 6 and min(shapes.values()) > 500, shapes


def test_parent_counts_match_the_per_child_sum_on_seeded_corpus(p1, p2, totaro):
    # every parent the walk reaches on the subset regions of integral classes,
    # their multiples and their halves: the parents read from progressions
    # against the reference walk's, node by node; the closed-form count
    # against the children's widths clipped at 0 and summed one by one, no
    # width negative, and the folds against the children's ends. The corpus
    # runs dimensions 1 to 4 and reaches terms with d > 1, a side with two
    # moving rows, moving rows on both sides, and a nonempty real interval
    # where the sides meet whose children all have width 0
    p112 = Fan(2, ((1, 0), (-1, -2), (0, 1)), ((0, 1), (1, 2), (0, 2)), name="P(1,1,2)")
    p1xp2 = [(p1.rays, p1.max_cones), (p2.rays, p2.max_cones)]
    fans = (p1, p2, p112, product_fan(p1xp2, ((1, 1, 0), (0, 1, 1), (0, 0, 1))),
            product_fan(p1xp2, ((1, 0, 0), (2, 1, 0), (3, -2, 1))),
            product_fan([(p1.rays, p1.max_cones)] * 4), totaro)
    shapes = Counter()
    for fan in fans:
        regions = fan.regions(sign_picks)
        subsets = [s for entries in bad_subsets(fan) for s, _ in entries]
        for d in random_divisors(fan, 4, lo=-3, hi=3, seed="parent-counts"):
            for a in (d.plain_coeffs, (3 * d).plain_coeffs, [Fraction(x, 2) for x in d.coeffs]):
                for subset in subsets:
                    plan, index = regions[subset, ()]
                    b = rhs(index, a)
                    parents = list(plan.parent_terms(b))
                    assert parents == list(reference_parent_terms(plan, b)), (fan.rays, a, subset)
                    shapes[f"dim {plan.dim}"] += bool(parents)
                    for _, v_lo, v_hi, terms in parents:
                        count = parent_sum(terms, v_lo, v_hi)
                        assert count == per_child_count(terms, v_lo, v_hi), (fan.rays, a, subset, terms)
                        ends = [tuple(min((x - p * v) // e for x, p, e in side) for side in terms)
                                for v in range(v_lo, v_hi + 1)]
                        assert all(u + l + 1 >= 0 for u, l in ends), (fan.rays, a, subset, terms)
                        assert list(zip(*folds(terms, v_lo, v_hi))) == ends, (fan.rays, a, subset, terms)
                        upper, lower = terms
                        shapes["d > 1"] += any(e > 1 for side in terms for _, _, e in side)
                        shapes["two moving rows"] += max(len(upper), len(lower)) > 2
                        shapes["both sides move"] += min(len(upper), len(lower)) > 1
                        meet = [v for v in range(v_lo, v_hi + 1)
                                if min(Fraction(x - p * v, e) for x, p, e in upper)
                                + min(Fraction(x - p * v, e) for x, p, e in lower) >= 0]
                        shapes["met, all widths 0"] += bool(meet) and not count
                        shapes["parents"] += 1
    assert len(shapes) == 9 and min(shapes.values()) >= 5, shapes


def _scan_regions(example_fans, p1, p2, count=4, multiples=(1, 2, 12)):
    """(where, region) for the regions the q-ample scan asks about, for
    ``count`` seeded classes and their ``multiples``, on the built-in fans,
    P(1,1,2) and a GL(3,Z) image of P1 x P2, then the slivers with integer
    gaps (``gap_regions``)."""
    p112 = Fan(2, ((1, 0), (-1, -2), (0, 1)), ((0, 1), (1, 2), (0, 2)), name="P(1,1,2)")
    gl = product_fan([(p1.rays, p1.max_cones), (p2.rays, p2.max_cones)], ((1, 1, 0), (0, 1, 1), (0, 0, 1)))
    for fan in (*example_fans, p112, gl):
        for _, p in scan_twist_regions(fan, count, multiples):
            yield fan.rays, p
    for p, _ in gap_regions():
        yield "sliver", p


def test_has_point_dives_and_walks_only_at_a_dead_end(monkeypatch, example_fans, p1, p2):
    # has_point against "the count walk yields a block" on the scan regions.
    # A gapless plan answers at level 0 and never dives. Any other dives
    # once from a nonempty start: the dive answers yes at a leaf and reads
    # blocks only at a dead end, an integer gap; P(1,1,2), the GL(3,Z) image
    # and the slivers dive, and the slivers reach a dead end on a region
    # with a point and a dead end on an empty one
    walked, dived = [], []
    blocks, dive = Plan.blocks, Plan.dive

    def counting(plan, b, *start):
        walked.append(b)
        return blocks(plan, b, *start)

    def diving(plan, b, start):
        dived.append(b)
        return dive(plan, b, start)

    monkeypatch.setattr(Plan, "blocks", counting)
    monkeypatch.setattr(Plan, "dive", diving)
    outcomes = Counter()
    for where, p in _scan_regions(example_fans, p1, p2):
        plan, b = _plan_of(p), _closure_rhs(p)
        walked.clear()
        dived.clear()
        found = plan.has_point(b)
        assert found == (next(blocks(plan, b), None) is not None), (where, p)
        assert len(walked) <= len(dived) == (not plan.gapless and plan.start(b) is not None), (where, p)
        if walked:
            outcomes["dead end, point" if found else "dead end, empty"] += 1
        elif dived:
            outcomes["leaf"] += 1
        else:
            outcomes["level 0, point" if found else "no start"] += 1
    assert len(outcomes) == 5 and min(outcomes.values()) >= 5, outcomes


def test_gapless_plans_answer_at_level_0_and_count_every_child(example_fans, totaro):
    # a plan is gapless when every row of its levels 1.. has a = 1. Every
    # bad-subset and cone-face plan of the built-in fans is; none of
    # P(1,1,2) (its ray (-1, -2)) or of a fixed GL(3,Z) image of totaro-x
    # is. On a gapless plan has_point is "y_0 holds an integer", and each
    # parent's children are all nonempty;
    # every plan answers has_point as the count walk does, and a window
    # (``Twists``, int and Fraction constants) as has_point does
    p112 = Fan(2, ((1, 0), (-1, -2), (0, 1)), ((0, 1), (1, 2), (0, 2)), name="P(1,1,2)")
    matrix = unimodular(random.Random("gapless"), 3)
    image = Fan(3, tuple(tuple(sum(a * x for a, x in zip(row, r)) for row in matrix) for r in totaro.rays),
                totaro.max_cones, name="GL.totaro-x")
    outcomes = Counter()
    for fan in (*example_fans, p112, image):
        regions = fan.regions(sign_picks)
        plans = [regions[s, ()] for entries in bad_subsets(fan) for s, _ in entries]
        plans += [regions[(), tau] for tau in fan.cones]
        gapless = {plan.gapless for plan, _ in plans}
        assert gapless == ({True} if fan in example_fans else {False}), fan.name
        h = default_ample(fan).plain_coeffs
        for d in random_divisors(fan, 4, lo=-4, hi=4, seed="gapless"):
            for a in (d.plain_coeffs, [Fraction(x, 3) for x in d.coeffs]):
                for plan, index in plans:
                    b = rhs(index, a)
                    found = plan.has_point(b)
                    assert found == (next(plan.blocks(b), None) is not None), (fan.name, a, plan.leq)
                    window, b_h = Twists(plan, b, rhs(index, h)), rhs(index, h)
                    for n, j in ((1, 1), (2, 1), (3, 2)):
                        twist = [n * x - j * y for x, y in zip(b, b_h)]
                        assert window.has_point(n, j) == plan.has_point(twist), (fan.name, a, plan.leq)
                    if not plan.gapless:
                        continue
                    assert found == (plan.start(b) is not None), (fan.name, a, plan.leq)
                    for _, v_lo, v_hi, terms in plan.parent_terms(b):
                        assert parent_sum(terms, v_lo, v_hi) == per_child_count(terms, v_lo, v_hi)
                        assert all(u + l >= 0 for u, l in zip(*folds(terms, v_lo, v_hi))), (fan.name, a, terms)
                        outcomes["parents"] += 1
                    outcomes[type(a[0]), found] += 1
    assert len(outcomes) == 5 and min(outcomes.values()) >= 5, outcomes


def test_has_point_sets_the_walk_up_once(monkeypatch, example_fans, p1, p2):
    # a dead-end dive hands its own start to the count walk, so every query,
    # leaf, dead end or empty start, runs Plan.start exactly once
    starts = []
    start = Plan.start

    def counting(plan, b):
        starts.append(b)
        return start(plan, b)

    monkeypatch.setattr(Plan, "start", counting)
    queries = 0
    for where, p in _scan_regions(example_fans, p1, p2):
        starts.clear()
        _plan_of(p).has_point(_closure_rhs(p))
        assert len(starts) == 1, (where, p)
        queries += 1
    assert queries >= 20


def _range_by_lp(rows, rest, d):
    """y_d's range over {y : <u[d:], y[d:]> <= rest_i per row u} by the
    reference simplex on free variables split in two: Fraction (lower,
    upper), a side None when unbounded, or None when the set is empty."""
    m = len(rows[0]) - d
    a = [list(u[d:]) + [-x for x in u[d:]] for u in rows]
    ends = []
    for sign in (-1, 1):
        cost = [0] * (2 * m)
        cost[0], cost[m] = sign, -sign
        status, _, value = reference_simplex_max(a, rest, cost)
        if status == "infeasible":
            return None
        ends.append(None if status == "unbounded" else sign * value)
    return tuple(ends)


def _random_polytopes(count):
    """Seeded bounded regions in dimensions 1-4: a window per coordinate and
    up to three more rows with entries in -3..3 through a point of the
    window, some strict, some with Fraction constants."""
    rng = random.Random(20267)
    for _ in range(count):
        n = rng.randint(1, 4)
        box = [(a, a + rng.randint(0, 5)) for a in (rng.randint(-3, 3) for _ in range(n))]
        weak = []
        for k, (a, b) in enumerate(box):
            e = tuple(int(j == k) for j in range(n))
            weak += [(e, -a), (tuple(-x for x in e), b)]
        rows = []
        for _ in range(rng.randint(1, 3)):
            u = tuple(rng.randint(-3, 3) for _ in range(n))
            near = [rng.randint(a, b) for a, b in box]
            c = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3])) - sum(x * y for x, y in zip(u, near))
            rows.append((u, c))
        cut = rng.randint(0, len(rows))
        yield polyhedron(n, strict=rows[:cut], weak=weak + rows[cut:])


def test_levels_give_every_visited_node_its_exact_range(monkeypatch, example_fans, p1, p2):
    # at every node the count walk and the dive visit (the root in
    # Plan.start), the level's range on the node's constants is y_d's range
    # over the closure with the prefix fixed, by the reference simplex; each
    # parent the count walk yields, read from its grandparent's arithmetic
    # progressions, has that range rounded inward as [v_lo, v_hi]; and every
    # dive dead end is an integer gap, a nonempty range that holds no
    # integer
    import toricpos.polyhedra as polyhedra

    visited, dead_ends = [], []
    integers, blocks = polyhedra._integers, Plan.blocks

    def recording(level, rest):
        visited.append((level, list(rest)))
        return integers(level, rest)

    def dead_end(plan, b, *start):
        dead_ends.append(visited[-1])
        return blocks(plan, b, *start)

    monkeypatch.setattr(polyhedra, "_integers", recording)
    monkeypatch.setattr(Plan, "blocks", dead_end)
    regions = [p for _, p in _scan_regions(example_fans, p1, p2, 2, (1, 3))] + list(_random_polytopes(80))
    seen = Counter()
    for p in regions:
        plan, b = _plan_of(p), _closure_rhs(p)
        visited.clear()
        dead_ends.clear()
        parents = list(plan.parent_terms(b))
        plan.has_point(b)
        depth = {id(level): d for d, level in enumerate(plan.levels)}
        for level, rest in visited:
            span = _range(level, rest)
            got = None if span is None else tuple(None if x is None else Fraction(*x) for x in span)
            assert got == _range_by_lp(plan.leq, rest, depth[id(level)]), (p, rest)
            seen["empty" if got is None else "node"] += 1
        for prefix, v_lo, v_hi, _ in parents if p.dim > 1 else ():
            rest = [x - sum(v * col[i] for v, col in zip(prefix, plan.cols)) for i, x in enumerate(plan.start(b)[2])]
            lower, upper = _range_by_lp(plan.leq, rest, p.dim - 2)
            assert (ceil(lower), floor(upper)) == (v_lo, v_hi), (p, prefix)
            seen["node"] += 1
        for level, rest in dead_ends:
            (lower, upper) = _range(level, rest)
            assert -(-lower[0] // lower[1]) > upper[0] // upper[1], (p, rest)
            seen["dead end"] += 1
    assert seen["node"] >= 2000 and seen["empty"] >= 50 and seen["dead end"] >= 20, seen


def test_zero_dimensional_polyhedra():
    # () is the only candidate: has_point reads the constants, and the walk,
    # whose levels start at dim 1, refuses the region
    for p, holds in ((polyhedron(0, weak=[((), 0)]), True), (polyhedron(0, weak=[((), 1)]), True),
                     (polyhedron(0, weak=[((), -1)]), False), (polyhedron(0, strict=[((), 0)]), False),
                     (polyhedron(0, strict=[((), -1)]), True), (polyhedron(0), True)):
        assert lattice_points(p) == ([()] if holds else []), p
        assert _plan_of(p).has_point(_closure_rhs(p)) == holds, p
        with pytest.raises(ValueError, match="dim >= 1"):
            next(_blocks(p))


# ---------------------------------------------------------------------------
# the integer simplex against the Fraction reference: same (status, z, value)
# ---------------------------------------------------------------------------

rationals = st.builds(
    Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 4, 6])
)


@st.composite
def lps(draw):
    m = draw(st.integers(0, 8))
    n = draw(st.integers(0, 6))
    a = draw(st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=m, max_size=m))
    b = draw(st.lists(rationals, min_size=m, max_size=m))
    c = draw(st.lists(rationals, min_size=n, max_size=n))
    return a, b, c


@settings(max_examples=300, deadline=None)
@given(lps())
def test_simplex_matches_fraction_reference(lp):
    assert simplex_max(*lp) == reference_simplex_max(*lp)


def test_simplex_matches_fraction_reference_on_seeded_corpus():
    rng = random.Random(20260)

    def entry():
        if rng.random() < 0.3:
            return 0
        return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4]))

    statuses = {}
    for _ in range(2400):
        m, n = rng.randint(0, 8), rng.randint(0, 6)
        a = [[entry() for _ in range(n)] for _ in range(m)]
        b = [rng.choice([0, 0, -1, 1, 2]) if rng.random() < 0.5 else entry() for _ in range(m)]
        c = [entry() for _ in range(n)]
        result = simplex_max(a, b, c)
        assert result == reference_simplex_max(a, b, c), (a, b, c)
        statuses[result[0]] = statuses.get(result[0], 0) + 1
    assert set(statuses) == {"optimal", "unbounded", "infeasible"}, statuses


def test_simplex_on_int_rows_matches_fraction_reference_on_seeded_corpus():
    # rows stored by polyhedron() reach the simplex as plain ints and enter
    # the tableau without clearing denominators
    rng = random.Random(20266)
    statuses = Counter()
    for _ in range(1200):
        m, n = rng.randint(0, 8), rng.randint(0, 6)
        a = [[rng.choice([0, 0, rng.randint(-6, 6)]) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(-3, 6) for _ in range(m)]
        c = [rng.randint(-4, 4) for _ in range(n)]
        result = simplex_max(a, b, c)
        fracs = [[Fraction(x) for x in row] for row in a]
        assert result == reference_simplex_max(fracs, list(map(Fraction, b)), c), (a, b, c)
        statuses[result[0]] += 1
    assert set(statuses) == {"optimal", "unbounded", "infeasible"}, statuses


@pytest.mark.parametrize(
    "a, b, z",
    [
        # feasibility LPs (zero cost): the answer is the vertex where phase 1
        # stops, and a tied ratio test picks a different one if it breaks
        # ties on anything but the smaller basis index
        ([[0, -1, -1], [1, 0, -2], [0, 2, -1]], [-1, -1, 2], ["0", "5/4", "1/2"]),
        ([[-2, 2, 2], [0, -2, 1], [0, -2, 0], [-1, 2, -1]], [0, -1, 2, 0], ["1", "2/3", "1/3"]),
    ],
)
def test_simplex_ratio_ties_break_on_the_smaller_basis_index(a, b, z):
    expected = ("optimal", [Fraction(x) for x in z], Fraction(0))
    assert reference_simplex_max(a, b, [0, 0, 0]) == expected
    assert simplex_max(a, b, [0, 0, 0]) == expected


def test_simplex_drives_a_degenerate_artificial_out():
    # phase 1 ends with the artificial of z1 - z2 >= 1 basic at level 0; it
    # leaves on a negative pivot entry, and the row z1 + z2 <= 1 carries halves
    a = [[-1, 1], [0, 1], [Fraction(1, 2), Fraction(1, 2)]]
    b, c = [-1, 1, Fraction(1, 2)], [-1, 0]
    assert reference_simplex_max(a, b, c) == ("optimal", [Fraction(1), Fraction(0)], Fraction(-1))
    assert simplex_max(a, b, c) == ("optimal", [Fraction(1), Fraction(0)], Fraction(-1))


def test_first_only_walk_builds_only_the_nodes_it_visits(monkeypatch):
    # a node above the parents (``_parents``) gets its constants from its
    # parent's column, and each visit reads the node's level once (the
    # root's in Plan.start), so the column reads count the built nodes and
    # the level reads the visits; every built node is visited. The parents
    # are drawn one at a time from their grandparent's progressions, so a
    # walk that stops at its first block, as the fallback of has_point
    # does, has drawn no parent past it. Every parent it draws before that
    # block is empty, and the block is the parent of the first point
    import toricpos.polyhedra as polyhedra

    reads, visits, drawn = [0], [0], []

    class Column(list):
        def __iter__(self):
            reads[0] += 1
            return super().__iter__()

    walk, integers, under = polyhedra._parents, polyhedra._integers, Plan._parents_under

    def counted_integers(*args):
        visits[0] += 1
        return integers(*args)

    def counted_parents(cols, *args):
        return walk([Column(c) for c in cols], *args)

    def drawing(prefixes):
        for prefix in prefixes:
            drawn.append(prefix)
            yield prefix

    def counted_under(plan, prefixes, *args):
        return under(plan, drawing(prefixes), *args)

    monkeypatch.setattr(polyhedra, "_parents", counted_parents)
    monkeypatch.setattr(polyhedra, "_integers", counted_integers)
    monkeypatch.setattr(Plan, "_parents_under", counted_under)
    rng = random.Random(20266)
    stopped_early = 0
    for _ in range(300):
        n = rng.randint(2, 5)
        box = []
        for k in range(n):
            a = rng.randint(-4, 4)
            box.append((a, a + rng.randint(0, 4)))
        weak = []
        for k, (a, b) in enumerate(box):
            e = tuple(int(j == k) for j in range(n))
            weak += [(e, -a), (tuple(-x for x in e), b)]
        for _ in range(rng.randint(0, 3)):
            u = tuple(rng.randint(-3, 3) for _ in range(n))
            near = [rng.randint(a, b) for a, b in box]
            weak.append((u, rng.randint(-3, 6) - sum(x * y for x, y in zip(u, near))))
        p = polyhedron(n, weak=weak)
        plan, b = _query(p)
        points = box_filter_lattice_points(p, box)
        walked = []
        for read in (lambda: next(plan.blocks(b), None), lambda: list(plan.blocks(b))):
            reads[0] = visits[0] = 0
            drawn.clear()
            got = read()
            assert reads[0] == max(visits[0] - 1, 0), (p, reads[0], visits[0])
            walked.append((got, list(drawn)))
        (first, reached), (blocks, every) = walked
        assert list(Weights(blocks, n)) == points
        assert first == (blocks[0] if blocks else None), p
        assert not {q[: n - 2] for q in points} & set(reached[:-1] if points else reached), (p, reached)
        assert not points or reached[-1] == points[0][: n - 2], (p, reached)
        stopped_early += len(reached) < len(every)
    assert stopped_early > 100, stopped_early
