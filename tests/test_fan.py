import random
from fractions import Fraction

import pytest

import toricpos.fan as fan_module
import toricpos.polyhedra as polyhedra
from toricpos import (
    EmptySet,
    Fan,
    InvalidFan,
    NotACone,
    full_subcomplex,
    reduced_cohomology,
    star_quotient,
    subset_connected,
    load_workspace,
    ToricDivisor,
    validate,
)
from toricpos.cohomology import bad_subsets
from toricpos.workspace import BUILTIN_WORKSPACES

from .conftest import product_fan, unimodular
from .oracles import reference_det


@pytest.fixture(autouse=True)
def no_simplex(monkeypatch):
    """No fan check solves an LP: every fan of this module, complete or not,
    builds or is rejected with the simplex taken away."""
    def no_lp(*args):
        raise AssertionError("a fan check solved an LP")

    monkeypatch.setattr(polyhedra, "simplex_max", no_lp)


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


P1 = (((1,), (-1,)), ((0,), (1,)))

# fans that are no fans, each with its message: (rank, rays, cones, match)
BROKEN = {
    "overlap": (2, ((1, 0), (0, 1), (1, 2)), ((0, 1), (1, 2), (0, 2)), "overlap"),
    # every wall has its two cones on opposite sides, yet the cones wind
    # twice round the origin
    "winds-twice": (2, ((1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3)),
                    ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)), "overlap"),
    # P2 plus cone(f1, (1, 1)), whose wall (1, 1) lies in that cone only
    "hanging-facet": (2, ((1, 0), (0, 1), (-1, -1), (1, 1)),
                      ((0, 1), (1, 2), (0, 2), (0, 3)), "overlap"),
    "duplicate": (2, ((1, 0), (0, 1)), ((0, 1), (0, 1)), r"cone \(0, 1\) listed twice"),
    "nested": (2, ((1, 0), (0, 1)), ((0, 1), (0,)), r"cone \(0, 1\) and \(0,\) are nested"),
    # not complete: the ray (1, 1, 1) lies inside the first cone
    "inner-ray": (3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)), ((0, 1, 2), (0, 1, 3)),
                  r"cones \(0, 1, 2\) and \(0, 1, 3\) overlap"),
    # not complete: two cones with no common ray that cross
    "crossing": (2, ((1, 0), (1, 2), (2, 1), (0, 1)), ((0, 1), (2, 3)),
                 r"cones \(0, 1\) and \(2, 3\) overlap"),
    "nested-facet": (3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 1, 2), (0, 1)),
                     r"cone \(0, 1, 2\) and \(0, 1\) are nested"),
}


def complete_fans(max_k):
    """Complete fans built afresh: the built-in workspaces' fans and P1^k for
    2 <= k <= max_k, a seeded GL(n,Z) image of each of rank n > 1, and every
    star quotient of the built-in fans."""
    rng = random.Random(26)
    builtin = [load_workspace(name).fan for name in BUILTIN_WORKSPACES]
    fans = list(builtin)
    for factors in [[(f.rays, f.max_cones)] for f in builtin] + [[P1] * k for k in range(2, max_k + 1)]:
        n = sum(len(rays[0]) for rays, _ in factors)
        fans.append(product_fan(factors))
        if n > 1:
            fans.append(product_fan(factors, unimodular(rng, n)))
    fans += [star_quotient(f, tau)[0] for f in builtin for tau in f.cones if tau]
    return fans


def test_unimodular_draws_are_in_gl_n_z():
    # one sign per row operation: each step adds +-(another row), which
    # keeps the determinant, so every seeded draw has determinant +-1
    rng = random.Random(0)
    for n in range(2, 7):
        for _ in range(50):
            matrix = unimodular(rng, n)
            assert abs(reference_det(matrix)) == 1, matrix


def test_the_wall_pass_and_the_pairwise_check_accept_every_complete_fan():
    fans = complete_fans(5)
    for fan in fans:
        assert fan.properties.complete, fan
        fan_module._check_pairs(fan)


@pytest.mark.parametrize("name", list(BROKEN))
def test_a_broken_fan_fails_the_wall_pass_and_the_pairwise_check(name, monkeypatch):
    rank, rays, cones, match = BROKEN[name]
    with pytest.raises(InvalidFan, match=match):
        Fan(rank, rays, cones)
    monkeypatch.setattr(fan_module, "_check_walls", fan_module._check_pairs)
    with pytest.raises(InvalidFan, match=match):
        Fan(rank, rays, cones)


def test_only_the_covering_count_catches_a_fan_winding_twice():
    # (0, 1) and (3, 4) share no wall: only check (b) can name them
    rank, rays, cones, _ = BROKEN["winds-twice"]
    with pytest.raises(InvalidFan, match=r"cones \(0, 1\) and \(3, 4\) overlap"):
        Fan(rank, rays, cones)


def test_fan_validation_creates_no_plan(monkeypatch):
    # a complete fan's condition is read from its walls, so building every
    # complete fan of the corpus, P1^6's 64 cones included, builds no region
    # plan; a fan that is not complete builds one plan per pair of maximal
    # cones, and P1^k less one cone, in its own coordinates and in a GL(k,Z)
    # image, passes the pairwise check
    built = []
    plan_init = polyhedra.Plan.__init__

    def counting(plan, *args):
        built.append(args)
        plan_init(plan, *args)

    monkeypatch.setattr(polyhedra.Plan, "__init__", counting)
    fans = complete_fans(6)
    assert all(fan.properties.complete for fan in fans) and not built
    assert max(len(fan.max_cones) for fan in fans) == 64
    rng = random.Random(27)
    for k in range(2, 5):
        for matrix in (None, unimodular(rng, k)):
            full = product_fan([P1] * k, matrix)
            built.clear()
            assert Fan(k, full.rays, full.max_cones[1:]).incompleteness, (k, matrix)
            pairs = (2**k - 1) * (2**k - 2) // 2
            assert len(built) == pairs, (k, matrix, len(built))


def test_fans_and_divisors_are_values(totaro):
    # a fan rebuilt from the same rays and cones, in either constructor form,
    # equals the first and hashes alike, so it shares the caches keyed on fans
    keyword = Fan(rank=3, rays=list(totaro.rays), max_cones=[c[::-1] for c in totaro.max_cones],
                  name="totaro-x")
    positional = Fan(3, totaro.rays, totaro.max_cones, "totaro-x")
    assert keyword == positional == totaro and keyword is not totaro
    assert hash(keyword) == hash(positional) == hash(totaro)
    assert repr(keyword) == (f"Fan(rank=3, rays={totaro.rays!r}, "
                             f"max_cones={totaro.max_cones!r}, name='totaro-x')")
    unnamed = Fan(3, totaro.rays, totaro.max_cones)
    assert unnamed != totaro and hash(unnamed) == hash(totaro)  # the name is not hashed
    assert totaro != (totaro.rank, totaro.rays, totaro.max_cones, totaro.name)
    index = bad_subsets(totaro)
    hits = bad_subsets.cache_info().hits
    assert bad_subsets(keyword) is index and bad_subsets.cache_info().hits == hits + 1
    # a divisor is its fan and its coefficients
    d = ToricDivisor(totaro, (3, 3, -1, -1, -1, -1))
    same = ToricDivisor(keyword, (Fraction(3), 3, -1, -1, -1, -1))
    assert d == same and hash(d) == hash(same)
    assert repr(d) == f"ToricDivisor(fan={totaro!r}, coeffs={d.coeffs!r})"
    assert d != ToricDivisor(totaro, (3, 3, -1, -1, -1, 0))
    assert d != ToricDivisor(unnamed, d.coeffs) and hash(ToricDivisor(unnamed, d.coeffs)) == hash(d)
    assert d != (totaro, d.coeffs)
