import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricpos import (
    Fan,
    NotACone,
    ToricDivisor,
    anticanonical_divisor,
    canonical_divisor,
    class_of,
    classify_cones,
    cohomology_dims,
    divisor_of_character,
    is_ample,
    is_linearly_equivalent,
    lattice_points,
    picard_rank,
    prime_divisor,
    restrict,
    section_polyhedron,
    wall_degree,
    zero_divisor,
)

from .conftest import product_fan, unimodular
from .oracles import solve_wall_degree


def test_picard_ranks(example_fans):
    ranks = {fan.name: picard_rank(fan) for fan in example_fans}
    assert ranks == {"p1": 1, "p2": 1, "p1xp1": 2, "totaro-x": 3}


def test_class_of_zero_divisor(totaro):
    assert class_of(zero_divisor(totaro)).is_zero


def test_coefficients_are_exact_fractions_for_every_input_kind(p2):
    half = Fraction(1, 2)
    d = ToricDivisor(p2, (3, half, "-2/6"))
    assert d.coeffs == (Fraction(3), half, Fraction(-1, 3))
    assert all(type(c) is Fraction for c in d.coeffs)
    assert d.coeffs[1] is half  # a Fraction is kept, not rebuilt
    assert d.plain_coeffs == (3, half, Fraction(-1, 3))
    assert type(d.plain_coeffs[0]) is int
    for e in (-d, 2 * d, d + d, d - d):
        assert all(type(c) is Fraction for c in e.coeffs)
    assert (-d).coeffs == (-3, -half, Fraction(1, 3))


def test_character_divisors_have_zero_class(totaro):
    for m in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -3, 5)):
        assert class_of(divisor_of_character(totaro, m)).is_zero


def test_f3_f5_linearly_equivalent(totaro):
    # div(chi^e1) = F3 - F5, so the classes agree
    assert divisor_of_character(totaro, (1, 0, 0)).coeffs == (0, 0, 1, 0, -1, 0)
    diff = prime_divisor(totaro, 2) - prime_divisor(totaro, 4)
    assert class_of(diff).is_zero
    eq, witness, integral = is_linearly_equivalent(
        prime_divisor(totaro, 2), prime_divisor(totaro, 4)
    )
    assert eq and integral and witness == (1, 0, 0)


def test_f1_f2_not_equivalent(totaro):
    eq, witness, _ = is_linearly_equivalent(
        prime_divisor(totaro, 0), prime_divisor(totaro, 1)
    )
    assert not eq and witness is None


@settings(max_examples=40, deadline=None)
@given(st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)))
def test_class_invariant_under_character_shift(m):
    fan = _totaro()
    d = ToricDivisor(fan, (3, 3, -1, -1, -1, -1))
    shifted = d + divisor_of_character(fan, m)
    assert class_of(shifted) == class_of(d)


def _totaro():
    from toricpos import Fan

    return Fan(
        3,
        ((0, 0, -1), (0, 0, 1), (1, 0, 1), (0, 1, -1), (-1, 0, 0), (0, -1, 0)),
        ((0, 2, 3), (0, 2, 5), (0, 3, 4), (0, 4, 5),
         (1, 2, 3), (1, 2, 5), (1, 3, 4), (1, 4, 5)),
        name="totaro-x",
    )


def test_restriction_of_example_class(totaro, totaro_L):
    res = restrict(totaro_L, (0,))
    assert res.witness_m == (0, 0, -3)
    cls = class_of(res.divisor)
    assert cls.coords == (1, -5)
    # the shifted representative itself: 6F2 + 2F3 - 4F4 - F5 - F6
    shifted = totaro_L - divisor_of_character(totaro, res.witness_m)
    assert shifted.coeffs == (0, 6, 2, -4, -1, -1)


def test_printed_representative_is_not_equivalent(totaro, totaro_L):
    stated = ToricDivisor(totaro, (0, 6, -4, 2, -1, -1))
    assert not is_linearly_equivalent(totaro_L, stated)[0]


def test_restriction_of_ample_stays_ample(totaro, totaro_H):
    res = restrict(totaro_H, (0,))
    assert is_ample(res.divisor)
    assert all(c > 0 for c in class_of(res.divisor).coords)


def test_restrict_zero_divisor(totaro):
    res = restrict(zero_divisor(totaro), (0, 2))
    assert all(c == 0 for c in res.divisor.coeffs)


def test_restrict_rejects_non_cone(totaro, totaro_L):
    with pytest.raises(NotACone):
        restrict(totaro_L, (2, 4))


def test_restrict_commutes_with_linear_equivalence(totaro, totaro_L):
    rng = random.Random(3)
    base = restrict(totaro_L, (0,))
    for _ in range(10):
        m = tuple(rng.randint(-4, 4) for _ in range(3))
        other = restrict(totaro_L + divisor_of_character(totaro, m), (0,))
        eq, _, _ = is_linearly_equivalent(base.divisor, other.divisor)
        assert eq


def test_canonical_divisors(p1, p2, totaro, totaro_H):
    assert canonical_divisor(p1).coeffs == (-1, -1)
    assert cohomology_dims(anticanonical_divisor(p1)).dims[0] == 3
    assert cohomology_dims(anticanonical_divisor(p2)).dims[0] == 10
    assert anticanonical_divisor(totaro).coeffs == totaro_H.coeffs
    assert is_ample(totaro_H)


def test_sign_convention_unit_sections_on_p1(p1):
    # degree-1 class on the line has a 2-point section polytope
    d = ToricDivisor(p1, (1, 0))
    assert len(lattice_points(section_polyhedron(d))) == 2


def test_wall_degree_on_p2(p2):
    h = ToricDivisor(p2, (1, 0, 0))
    assert all(wall_degree(h, w) == 1 for w in p2.walls)


def test_wall_forms_match_the_per_divisor_solve(example_fans):
    # Fan.wall_forms is solved once per fan; every degree it gives must be
    # the per-divisor solve's, for integral and rational classes alike
    rng = random.Random(20264)
    p1 = (((1,), (-1,)), ((0,), (1,)))
    p2 = (((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2)))
    fans = list(example_fans)
    for factors in ([p1] * 3, [p1] * 4, [p2, p1, p1]):
        for _ in range(2):
            n = sum(len(rays[0]) for rays, _ in factors)
            fans.append(product_fan(factors, unimodular(rng, n)))
    # weighted projective spaces P(1,1,2) and P(1,1,1,3) are simplicial, not
    # smooth; a wall whose first neighbour is singular has a form with a
    # denominator
    weighted = [
        Fan(2, ((1, 0), (0, 1), (-1, -2)), ((0, 2), (0, 1), (1, 2))),
        Fan(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -3)),
            ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))),
    ]
    assert all(any(form[3] > 1 for form in fan.wall_forms.values()) for fan in weighted)
    fans += weighted
    fractional = 0
    for fan in fans:
        assert fan.properties.complete
        for k in range(6):
            den = 1 if k < 3 else rng.choice([2, 3, 6])
            coeffs = [Fraction(rng.randint(-7, 7), den) for _ in range(fan.n_rays)]
            d = ToricDivisor(fan, coeffs)
            for w in fan.walls:
                degree = wall_degree(d, w)
                assert type(degree) is Fraction
                assert degree == solve_wall_degree(d, w), (fan.rays, coeffs, w)
                fractional += degree.denominator > 1
        assert is_ample(anticanonical_divisor(fan))
    assert len(fans) == 12 and fractional > 100, fractional


def test_ampleness_and_wall_flags_are_the_wall_degree_signs(example_fans):
    # classify_cones and is_ample read signs from wall_numerator, wall_degree
    # divides the same numerator; both must tell one story on rational classes
    rng = random.Random("wall-signs")
    kinds = set()
    for fan in example_fans:
        for k in range(40):
            den = 1 + k % 3
            coeffs = [Fraction(rng.randint(-4, 4), den) for _ in range(fan.n_rays)]
            d = ToricDivisor(fan, coeffs)
            degrees = [wall_degree(d, w) for w in fan.walls]
            flags = classify_cones(d)
            assert flags.nef == all(x >= 0 for x in degrees), (fan.name, coeffs)
            assert flags.ample == is_ample(d) == all(x > 0 for x in degrees), (fan.name, coeffs)
            assert flags.negative_wall == next(
                (w for w, x in zip(fan.walls, degrees) if x < 0), None
            ), (fan.name, coeffs)
            kinds.add((flags.nef, flags.ample, any(x.denominator > 1 for x in degrees)))
    # ample, nef not ample and not nef, each with a fractional degree somewhere
    assert {(True, True, True), (True, False, True), (False, False, True)} <= kinds, kinds


def test_wall_degree_rejects_a_non_wall(p2, totaro, totaro_L):
    for cone in [(0, 1), (0, 2, 3), (0, 1, 2), ()]:  # no cone, a maximal cone, no cone, the apex
        with pytest.raises(NotACone):
            wall_degree(totaro_L, cone)
    open_p2 = Fan(2, p2.rays, ((0, 1), (1, 2)))  # ray 0 borders one cone
    with pytest.raises(NotACone):
        wall_degree(ToricDivisor(open_p2, (1, 0, 0)), (0,))
    assert wall_degree(ToricDivisor(open_p2, (1, 0, 0)), (1,)) == 1
