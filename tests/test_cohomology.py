import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from toricpos import (
    NotIntegral,
    ToricDivisor,
    ToricError,
    asymptotic_nonvanishing,
    canonical_divisor,
    cohomology_dims,
    divisor_of_character,
    full_subcomplex,
    lattice_points,
    reduced_cohomology,
    section_polyhedron,
    zero_divisor,
)
from toricpos.cohomology import bad_subsets, sign_picks
from toricpos.polyhedra import Plan, Weights, _closure_rhs, _plan_of, folds, rhs

from .conftest import gap_regions, product_fan, random_divisors
from .oracles import (
    box_filter_lattice_points,
    brute_force_cohomology,
    certified_weight_box,
    coeff_subset_region,
)


def test_reduced_cohomology_conventions(totaro, p2):
    assert reduced_cohomology(full_subcomplex(totaro, ()), 3) == (1, 0, 0, 0)
    assert reduced_cohomology(full_subcomplex(totaro, (2, 3, 4, 5)), 3) == (0, 0, 1, 0)
    assert reduced_cohomology(full_subcomplex(p2, (0, 1, 2)), 2) == (0, 0, 1)
    assert reduced_cohomology(full_subcomplex(totaro, (0, 1)), 3) == (0, 1, 0, 0)


def test_bad_subset_index_totaro(totaro):
    index = bad_subsets(totaro)
    assert index[0] == (((), 1),)
    assert [s for s, _ in index[1]] == [(0, 1), (2, 4), (3, 5)]
    assert [s for s, _ in index[2]] == [(0, 1, 2, 4), (0, 1, 3, 5), (2, 3, 4, 5)]
    assert [s for s, _ in index[3]] == [(0, 1, 2, 3, 4, 5)]


def test_structure_sheaf_of_complete_fan(example_fans):
    for fan in example_fans:
        dims = cohomology_dims(zero_divisor(fan)).dims
        assert dims[0] == 1 and all(d == 0 for d in dims[1:]), fan.name


def test_negative_degree_on_p1(p1):
    dims = cohomology_dims(ToricDivisor(p1, (-2, 0))).dims
    assert dims == (0, 1)
    table = cohomology_dims(ToricDivisor(p1, (0, -2)))
    assert table.dims == (0, 1)
    # the unique contributing weight for this orientation
    assert table.witnesses[0][1] == ((-1,),)


def test_p2_twists(p2):
    assert cohomology_dims(ToricDivisor(p2, (-4, 0, 0))).dims == (0, 0, 3)
    assert cohomology_dims(ToricDivisor(p2, (3, 0, 0))).dims == (10, 0, 0)


def test_h2_of_small_positive_twist(totaro, totaro_L, totaro_H):
    # 2L + H = 2(L + H/2): the smallest integral class along a small positive
    # twist of the example direction; its H^2 is exactly one dimensional
    table = cohomology_dims(2 * totaro_L + totaro_H)
    assert table.dims[2] == 1
    witness = [w for w in table.witnesses if w[0] == (2, 3, 4, 5)]
    assert witness and witness[0][1] == ((0, 0, 0),)
    # and at the larger twist L + H the obstructing region is empty
    assert cohomology_dims(totaro_L + totaro_H).dims[2] == 0


def test_rejects_non_integral(totaro, totaro_L):
    with pytest.raises(NotIntegral):
        cohomology_dims(Fraction(1, 2) * totaro_L)


def test_serre_duality_randomized(example_fans):
    for fan in example_fans:
        k = canonical_divisor(fan)
        for d in random_divisors(fan, 40, seed="serre"):
            left = cohomology_dims(d).dims
            right = cohomology_dims(k - d).dims
            assert left == tuple(reversed(right)), (fan.name, d.coeffs)


def test_linear_equivalence_invariance(totaro):
    rng = random.Random(9)
    for d in random_divisors(totaro, 10, seed="lin"):
        m = tuple(rng.randint(-3, 3) for _ in range(3))
        shifted = d + divisor_of_character(totaro, m)
        assert cohomology_dims(shifted).dims == cohomology_dims(d).dims


def test_h0_equals_section_polytope_count(example_fans):
    for fan in example_fans:
        for d in random_divisors(fan, 25, seed="h0"):
            expected = len(lattice_points(section_polyhedron(d)))
            assert cohomology_dims(d).dims[0] == expected


def test_euler_characteristic_equivalence_invariant(totaro):
    rng = random.Random(4)
    for d in random_divisors(totaro, 8, seed="euler"):
        m = tuple(rng.randint(-2, 2) for _ in range(3))
        shifted = d + divisor_of_character(totaro, m)
        assert (
            cohomology_dims(d).euler_characteristic
            == cohomology_dims(shifted).euler_characteristic
        )


def test_brute_force_oracle_agreement(example_fans):
    for fan in example_fans:
        for d in random_divisors(fan, 6, lo=-3, hi=3, seed="oracle"):
            assert cohomology_dims(d).dims == brute_force_cohomology(
                fan, d.coeffs
            ), (fan.name, d.coeffs)


def test_witness_weights_match_box_filter_in_order(totaro):
    rng = random.Random("witness-weights")
    for d in random_divisors(totaro, 3, lo=-2, hi=2, seed="witness-weights"):
        kd = rng.randint(5, 8) * d
        table = cohomology_dims(kd)
        box = certified_weight_box(totaro, kd.coeffs)
        assert table.witnesses, kd.coeffs
        for subset, weights, _ in table.witnesses:
            region = coeff_subset_region(totaro, kd.plain_coeffs, subset)
            assert list(weights) == box_filter_lattice_points(region, box), (kd.coeffs, subset)


def test_cohomology_dims_walks_each_bad_subset_once(monkeypatch, example_fans):
    calls = []
    blocks = Plan.blocks

    def counting(plan, b):
        calls.append(b)
        return blocks(plan, b)

    monkeypatch.setattr(Plan, "blocks", counting)
    for fan in example_fans:
        index = bad_subsets(fan)
        for d in random_divisors(fan, 4, seed="h_p"):
            calls.clear()
            table = cohomology_dims(d)
            assert len(calls) == sum(map(len, index)), (fan.name, d.coeffs)
            assert table.dims == brute_force_cohomology(fan, d.coeffs), (fan.name, d.coeffs)


def degree_has_weight(d, p):
    """Is H^p(X, O(D)) nonzero? Does the region of some bad subset of degree
    p hold a point (``Plan.has_point``, the q-ample scan's query)?"""
    regions = d.fan.regions(sign_picks)
    return any(plan.has_point(rhs(index, d.plain_coeffs))
               for plan, index in (regions[s, ()] for s, _ in bad_subsets(d.fan)[p]))


def test_witness_weights_read_like_the_expanded_walk(example_fans):
    for fan in example_fans:
        for d in random_divisors(fan, 4, lo=-3, hi=3, seed="weight-runs"):
            kd = 3 * d
            box = certified_weight_box(fan, kd.coeffs)
            for subset, weights, _ in cohomology_dims(kd).witnesses:
                region = coeff_subset_region(fan, kd.plain_coeffs, subset)
                points = tuple(box_filter_lattice_points(region, box))
                assert isinstance(weights, Weights)
                assert weights == points and points == weights
                assert weights != points[:-1] and weights != points[:-1] + (points[-1] + (0,),)
                size = len(points)
                assert len(weights) == size
                for i in (0, -1, size // 2, size - 1, -size):
                    assert weights[i] == points[i], (fan.name, kd.coeffs, subset, i)
                for cut in (slice(None), slice(1, -1), slice(size // 2, None, 2), slice(None, None, -3)):
                    assert weights[cut] == points[cut] and type(weights[cut]) is tuple
                for i in (size, -size - 1):
                    with pytest.raises(IndexError):
                        weights[i]


def test_weight_blocks_read_like_the_box_filter(p1, p2, p1xp1, totaro):
    # per witness region in dimensions 1-4, the blocks Weights holds are the
    # walk's blocks of the oracle's region and count the points under each
    # parent (the first n - 2 coordinates), and every read of Weights
    # (length, indices, slices, iteration) agrees with the box filter; in
    # dimension 1 the one block stands for the weights (w,). The slivers with integer gaps
    # (``gap_regions``) give parents with empty children
    p1_4 = product_fan([(p1.rays, p1.max_cones)] * 4)
    rng = random.Random("weight-blocks")
    regions = []
    for fan, divisors in ((p1, 4), (p2, 3), (p1xp1, 3), (totaro, 3), (p1_4, 2)):
        for d in random_divisors(fan, divisors, lo=-2, hi=2, seed="weight-blocks"):
            kd = rng.randint(2, 4) * d
            box = certified_weight_box(fan, kd.coeffs)
            regions += [(coeff_subset_region(fan, kd.plain_coeffs, subset), weights, box)
                        for subset, weights, _ in cohomology_dims(kd).witnesses]
    for region, box in gap_regions():
        weights = Weights(_plan_of(region).blocks(_closure_rhs(region)), region.dim)
        if weights:
            regions.append((region, weights, box))
    seen = Counter()
    for region, weights, box in regions:
        rank = region.dim
        points = tuple(box_filter_lattice_points(region, box))
        per_parent = Counter(m[: max(rank - 2, 0)] for m in points)
        blocks = tuple(_plan_of(region).blocks(_closure_rhs(region)))
        assert weights.blocks == blocks
        assert [(prefix, count) for prefix, *_, count in blocks] == list(per_parent.items())
        size = len(points)
        assert len(weights) == size > 0
        for i in (0, -1, size // 2, -size):
            assert weights[i] == points[i], (region, i)
        # steps 1, -1, 3 and -3, from either end and the middle, then
        # empty and reversed bounds
        cuts = (slice(None), slice(1, -1), slice(size // 2, None, 2), slice(None, None, -3),
                slice(None, None, -1), slice(size // 2, 0, -1), slice(1, None, 3),
                slice(-2, None, -3), slice(size // 3, -1, 3), slice(size // 2, size // 2),
                slice(-1, 0), slice(0, -1, -1), slice(size, None), slice(-1, 1, 3))
        for cut in cuts:
            read = weights[cut]
            assert read == tuple(weights)[cut] == points[cut] and type(read) is tuple, (region, cut)
            seen["empty slice"] += not read
        for i in (size, -size - 1):
            with pytest.raises(IndexError):
                weights[i]
        assert tuple(weights) == points
        seen[rank] += 1
        children = (v_hi - v_lo + 1 for _, v_lo, v_hi, *_ in blocks)
        seen["children", rank] = max(seen["children", rank], *children)
        seen["empty children"] += sum(h + neg_lo < 0 for _, v_lo, v_hi, terms, _ in blocks
                                      for h, neg_lo in zip(*folds(terms, v_lo, v_hi)))
    assert all(seen[n] for n in range(1, 5)) and seen["empty children"] and seen["empty slice"], seen
    assert all(seen["children", n] > 1 for n in range(2, 5)), seen


def test_folds_are_built_only_for_the_blocks_a_reader_opens(monkeypatch, totaro):
    # a count reads each parent's terms in closed form and an existence query
    # reads the counts, so neither builds a fold; an index builds the folds
    # of the one block it enters and keeps them for the next index there
    import toricpos.polyhedra

    built = []
    fold = toricpos.polyhedra.folds

    def counting(terms, v_lo, v_hi):
        built.append((terms, v_lo, v_hi))
        return fold(terms, v_lo, v_hi)

    monkeypatch.setattr(toricpos.polyhedra, "folds", counting)
    opened = 0
    for d in random_divisors(totaro, 4, lo=-2, hi=2, seed="lazy-folds"):
        kd = 12 * d
        table = cohomology_dims(kd)
        assert [degree_has_weight(kd, p) for p in range(totaro.rank + 1)] == [h > 0 for h in table.dims]
        assert built == [], kd.coeffs
        for _, weights, _ in table.witnesses:
            points = tuple(weights)  # folds every block once, keeping none
            weights, first = Weights(weights.blocks, totaro.rank), 0
            for _, v_lo, v_hi, terms, n in weights.blocks:
                built.clear()
                assert weights[first + n // 2] == points[first + n // 2]
                assert built == [(terms, v_lo, v_hi)], (kd.coeffs, first)
                built.clear()
                assert weights[first] == points[first] and weights[first + n - 1] == points[first + n - 1]
                assert built == [], (kd.coeffs, first)
                first += n
                opened += 1
    assert opened > 10, opened


def test_counts_build_no_weight(monkeypatch, example_fans):
    def no_points(*args, **kwargs):
        raise AssertionError("a count expanded the lattice walk")

    expected = {}
    for fan in example_fans:
        for d in random_divisors(fan, 6, lo=-3, hi=3, seed="oracle"):
            expected[fan.name, d] = brute_force_cohomology(fan, d.coeffs)
    p2 = example_fans[1]
    expected["p2", ToricDivisor(p2, (-4, 0, 0))] = (0, 0, 3)
    expected["p2", ToricDivisor(p2, (3, 0, 0))] = (10, 0, 0)
    for name, module in list(sys.modules.items()):
        if name.startswith("toricpos") and hasattr(module, "lattice_points"):
            monkeypatch.setattr(module, "lattice_points", no_points)
    for (name, d), dims in expected.items():
        assert cohomology_dims(d).dims == dims, (name, d.coeffs)
        for p, h in enumerate(dims):
            assert degree_has_weight(d, p) is (h > 0), (name, d.coeffs, p)


def test_degree_outside_zero_to_n_is_rejected(p2):
    h = ToricDivisor(p2, (1, 1, 1))
    for p in (-1, 3):
        with pytest.raises(ToricError, match="degree"):
            asymptotic_nonvanishing(-1 * h, p)


def test_asymptotic_nonvanishing_on_p1(p1):
    assert asymptotic_nonvanishing(ToricDivisor(p1, (1, 0)), 1) == (False, None)
    verdict, witness = asymptotic_nonvanishing(ToricDivisor(p1, (-1, 0)), 1)
    assert verdict and witness.subset == (0, 1)


def test_asymptotic_nonvanishing_of_perturbed_example(totaro, totaro_L, totaro_H):
    eps = Fraction(1, 100)
    verdict, witness = asymptotic_nonvanishing(totaro_L - eps * totaro_H, 2)
    assert verdict and witness.subset == (2, 3, 4, 5)
    verdict_up, witness_up = asymptotic_nonvanishing(totaro_L + eps * totaro_H, 2)
    assert verdict_up and witness_up.subset == (2, 3, 4, 5)
    # far enough along the ample direction the obstruction dies
    assert asymptotic_nonvanishing(totaro_L + 2 * totaro_H, 2)[0] is False


def test_witness_totals_match_dims(totaro):
    for d in random_divisors(totaro, 6, seed="witness"):
        table = cohomology_dims(d)
        index = bad_subsets(totaro)
        by_subset = {s: p for p in range(4) for s, _ in index[p]}
        totals = [0, 0, 0, 0]
        for s, pts, dim in table.witnesses:
            totals[by_subset[s]] += dim * len(pts)
        assert tuple(totals) == table.dims
