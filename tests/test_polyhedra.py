import gc
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricpos import ToricDivisor, UnboundedRegion
from toricpos.cohomology import bad_subsets, subset_region
from toricpos.polyhedra import (
    _projection,
    closure_nonempty,
    coordinate_bounds,
    lattice_points,
    lp_optimize,
    lp_strict_feasible,
    polyhedron,
    simplex_max,
    strictly_feasible,
)

from .conftest import random_divisors
from .oracles import box_filter_lattice_points, certified_weight_box, reference_simplex_max


def test_strict_feasible_interval():
    # y < 0 and y >= -1
    p = polyhedron(1, strict=[((1,), 0)], weak=[((1,), 1)])
    res = lp_strict_feasible(p)
    assert res.feasible
    assert p.satisfied_by(res.witness)


def test_strict_infeasible_half_open_clash():
    # y < 0 and y >= 0
    p = polyhedron(1, strict=[((1,), 0)], weak=[((1,), 0)])
    assert not lp_strict_feasible(p).feasible


def test_unbounded_slack_still_reports_feasible_with_witness():
    p = polyhedron(1, strict=[((1,), 0)])  # the open half-line y < 0
    res = lp_strict_feasible(p)
    assert res.feasible and p.satisfied_by(res.witness)


def test_totaro_double_weight_pattern_feasible(totaro):
    # the all-negative pattern on f3..f6 for twice the example class
    doubled = (6, 6, -2, -2, -2, -2)
    region = subset_region(totaro, [Fraction(c) for c in doubled], (2, 3, 4, 5))
    res = lp_strict_feasible(region)
    assert res.feasible
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
    assert lp_strict_feasible(q).feasible
    assert lattice_points(q) == []


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
    res = lp_strict_feasible(p)
    if res.feasible:
        assert p.satisfied_by(res.witness)


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
    assert lattice_points(p, first_only=True) == points[:1]


def test_lattice_points_leaves_no_reference_cycle():
    # a cycle through the walk would keep every answer alive until a full collection
    p = polyhedron(3, weak=[(tuple(s if j == k else 0 for j in range(3)), 4)
                            for k in range(3) for s in (1, -1)])
    gc.collect()
    gc.disable()
    try:
        assert len(lattice_points(p)) == 9**3
        assert lattice_points(p, first_only=True) == [(-4, -4, -4)]
        assert gc.collect() == 0
    finally:
        gc.enable()


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


def test_fm_decisions_match_the_lp_on_seeded_corpus():
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
        strict_lp = lp_strict_feasible(p).feasible
        closure_lp = lp_optimize(p, (0,) * n)[0] == "optimal"
        assert strictly_feasible(p) == strict_lp, p
        assert closure_nonempty(p) == closure_lp, p
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


def test_positively_scaled_rows_share_one_projection_entry():
    # the projection cache is keyed by the stored normals and a coordinate,
    # so rows that differ by a positive factor reach the same entries
    window = [((0, 1), 4), ((0, -1), 4), ((-1, 0), 5)]
    first = polyhedron(2, weak=[((Fraction(1, 2), 0), Fraction(1, 3))] + window)
    second = polyhedron(2, weak=[((3, 0), 2)] + window)
    bounds = list(coordinate_bounds(first))
    before = _projection.cache_info()
    assert list(coordinate_bounds(second)) == bounds
    after = _projection.cache_info()
    assert (after.hits, after.misses) == (before.hits + 2, before.misses)


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
                    region = subset_region(fan, d.coeffs, subset)
                    with monkeypatch.context() as m:
                        m.setattr(toricpos.polyhedra, "simplex_max", counting)
                        points = lattice_points(region)
                    assert calls == [], (fan.name, d.coeffs, subset)
                    assert points == box_filter_lattice_points(region, box), (fan.name, d.coeffs, subset)


def test_zero_dimensional_polyhedra():
    assert lattice_points(polyhedron(0, weak=[((), 0)])) == [()]
    assert lattice_points(polyhedron(0, strict=[((), 0)])) == []


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
