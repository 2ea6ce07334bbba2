import pytest

from toricpos import (
    EmptySet,
    Fan,
    InvalidFan,
    NotACone,
    full_subcomplex,
    reduced_cohomology,
    star_quotient,
    subset_connected,
    validate,
)
from toricpos.polyhedra import _plan

from .conftest import product_fan

TOTARO_RAYS = ((0, 0, -1), (0, 0, 1), (1, 0, 1), (0, 1, -1), (-1, 0, 0), (0, -1, 0))


def test_p2_properties(p2):
    props = validate(p2)
    assert props.simplicial and props.complete and props.smooth


def test_totaro_properties(totaro):
    props = validate(totaro)
    assert props.simplicial and props.complete and props.smooth
    assert len(totaro.walls) == 12


def test_literature_cone_list_is_degenerate():
    # the printed triples (146) and (246) are coplanar with these rays
    with pytest.raises(InvalidFan, match="not simplicial"):
        Fan(
            3,
            TOTARO_RAYS,
            ((0, 2, 3), (0, 2, 5), (0, 3, 4), (0, 3, 5),
             (1, 2, 3), (1, 2, 5), (1, 3, 4), (1, 3, 5)),
        )


def test_deleted_cone_breaks_completeness(totaro):
    partial = Fan(3, totaro.rays, tuple(c for c in totaro.max_cones if c != (0, 2, 3)))
    props = validate(partial)
    assert props.simplicial and not props.complete
    with pytest.raises(InvalidFan, match="wall"):
        validate(partial, require_complete=True)


def test_non_primitive_ray_rejected():
    with pytest.raises(InvalidFan, match="primitive"):
        Fan(2, ((2, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2)))


def test_ray_in_no_maximal_cone_rejected():
    # P2 plus an unused ray (1, 1): every answer would see a phantom divisor
    with pytest.raises(InvalidFan, match=r"ray 3 = \(1, 1\) lies in no maximal cone"):
        Fan(2, ((1, 0), (0, 1), (-1, -1), (1, 1)), ((0, 1), (1, 2), (0, 2)))


def test_duplicate_ray_rejected():
    with pytest.raises(InvalidFan, match="repeated"):
        Fan(2, ((1, 0), (1, 0), (0, 1)), ((0, 2),))


def test_overlapping_cones_rejected():
    # cone(e1, e2) and cone(e1+2e2, e2) overlap beyond a common face
    with pytest.raises(InvalidFan, match="overlap"):
        Fan(2, ((1, 0), (0, 1), (1, 2)), ((0, 1), (1, 2), (0, 2)))


def test_every_wall_of_complete_fan_has_two_neighbors(example_fans):
    for fan in example_fans:
        for wall, neighbors in fan.wall_neighbors.items():
            assert len(neighbors) == 2, (fan.name, wall)


def test_star_quotient_of_fiber_ray_is_p1xp1(totaro):
    quot, ray_map = star_quotient(totaro, (0,))
    props = validate(quot)
    assert quot.rank == 2
    assert props.complete and props.smooth
    assert len(quot.rays) == 4 and len(quot.max_cones) == 4
    # opposite ray pairs survive: images of f3,f5 and f4,f6 are negatives
    def image(i):
        return quot.rays[ray_map[i][0]]
    assert tuple(-x for x in image(2)) == image(4)
    assert tuple(-x for x in image(3)) == image(5)
    assert all(mult == 1 for _, mult in ray_map.values())


def test_star_quotient_empty_cone_is_identity(totaro):
    quot, ray_map = star_quotient(totaro, ())
    assert quot is totaro
    assert ray_map == {i: (i, 1) for i in range(6)}


def test_star_quotient_of_wall_is_p1(totaro):
    quot, _ = star_quotient(totaro, (0, 2))
    assert quot.rank == 1
    assert validate(quot).complete
    assert set(quot.rays) == {(1,), (-1,)}


def test_star_quotient_completeness_preserved(example_fans):
    for fan in example_fans:
        for tau in fan.cones:
            if len(tau) >= fan.rank:
                continue
            quot, _ = star_quotient(fan, tau)
            assert validate(quot).complete, (fan.name, tau)


def test_star_quotient_rejects_non_cone(totaro):
    with pytest.raises(NotACone):
        star_quotient(totaro, (0, 1))  # f1, f2 are opposite rays, not a cone


def test_full_subcomplex_negative_rays(totaro):
    sub = full_subcomplex(totaro, (2, 3, 4, 5))
    edges = {f for f in sub.faces if len(f) == 2}
    assert edges == {(2, 3), (2, 5), (3, 4), (4, 5)}
    assert not [f for f in sub.faces if len(f) == 3]


def test_full_subcomplex_empty():
    fan = Fan(1, ((1,), (-1,)), ((0,), (1,)))
    sub = full_subcomplex(fan, ())
    assert sub.faces == ()


def test_full_subcomplex_whole_p2(p2):
    sub = full_subcomplex(p2, (0, 1, 2))
    assert len([f for f in sub.faces if len(f) == 1]) == 3
    assert len([f for f in sub.faces if len(f) == 2]) == 3


def test_whole_complex_is_a_sphere(example_fans):
    for fan in example_fans:
        rc = reduced_cohomology(full_subcomplex(fan, tuple(range(fan.n_rays))), fan.rank)
        expected = tuple(
            1 if k == fan.rank else 0 for k in range(fan.rank + 1)
        )
        assert rc == expected, fan.name


def test_subset_connected(totaro):
    assert not subset_connected(totaro, (0, 1))
    assert subset_connected(totaro, (0,))
    assert subset_connected(totaro, (0, 2, 1))
    with pytest.raises(EmptySet):
        subset_connected(totaro, ())


def test_fan_validation_creates_no_plan(p1):
    # each separation LP builds its tableau rows directly, so building and
    # validating P1^4 (16 cones, 120 pairs) leaves the region plans alone
    before = _plan.cache_info()
    fan = product_fan([(p1.rays, p1.max_cones)] * 4)
    assert fan.properties.complete and len(fan.max_cones) == 16
    after = _plan.cache_info()
    assert (after.hits, after.misses, after.currsize) == (before.hits, before.misses, before.currsize)
