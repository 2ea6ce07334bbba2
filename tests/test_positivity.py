import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

import toricpos.divisor
import toricpos.fan
import toricpos.polyhedra
import toricpos.positivity
from toricpos import (
    Fan,
    ModeDisagreement,
    NotComplete,
    NotEffectiveSupport,
    ToricDivisor,
    ToricError,
    asymptotic_nonvanishing,
    augmented_base_locus,
    augmented_base_locus_exact,
    base_locus,
    chamber_scan,
    check_mode_agreement,
    classify_cones,
    cohomology_dims,
    decide_qample,
    disconnected_section_criterion,
    is_qnef,
    prime_divisor,
    realization_search,
    restrict,
    scan_qample,
    smallest_qample,
    stable_base_locus,
    star_quotient,
    stable_base_locus_exact,
    zero_divisor,
)

from toricpos.cohomology import bad_subsets, sign_picks
from toricpos.divisor import divisor_of_character, section_polyhedron
from toricpos.errors import NoStabilizationDetected, UnboundedRegion
from toricpos.polyhedra import (
    Plan,
    Twists,
    Weights,
    _closure_rhs,
    _plan_of,
    lattice_points,
    polyhedron,
    rhs,
)
from toricpos.positivity import (
    _big_picks,
    _joint_picks,
    _persists,
    _Window,
    _primitive_integral,
    default_ample,
    is_big,
)

from .conftest import product_fan, random_divisors, run_cli, unimodular
from .oracles import (
    coeff_big_region,
    coeff_joint_region,
    coeff_section_polyhedron,
    coeff_sign_region,
    coeff_subset_region,
    lp_persists,
    plan_polyhedron,
    reference_augmented_chain,
    reference_augmented_cones,
    reference_base_locus_cones,
    reference_minimal,
    reference_stable_chain,
    reference_stable_cones,
)
from .test_golden_cli import CASES as GOLDEN_CASES


def test_classify_ample_anticanonical(totaro, totaro_H):
    flags = classify_cones(totaro_H)
    assert flags.ample and flags.nef and flags.big and flags.effective


def test_classify_zero_divisor(totaro):
    flags = classify_cones(zero_divisor(totaro))
    assert flags.nef and not flags.ample
    assert flags.pseudoeffective and not flags.big
    assert flags.effective


def test_classify_example_class_not_pseudoeffective(totaro_L):
    flags = classify_cones(totaro_L)
    assert not flags.pseudoeffective and not flags.big
    assert not flags.nef and flags.negative_wall is not None


def test_bidegree_one_minus_three_on_p1xp1(p1xp1):
    d = ToricDivisor(p1xp1, (1, -3, 0, 0))
    assert not classify_cones(d).pseudoeffective
    assert not classify_cones(-d).big


def test_base_locus_basic(p1):
    assert base_locus(ToricDivisor(p1, (1, 0))).is_empty
    report = base_locus(ToricDivisor(p1, (-1, 0)))
    assert report.no_sections and report.is_everything


def test_stable_base_locus_chain_matches_exact(totaro, totaro_L, totaro_H, p1):
    for d in (totaro_H, zero_divisor(totaro), totaro_L,
              ToricDivisor(p1, (0, 0)), ToricDivisor(p1, (2, 1))):
        chain = stable_base_locus(d)
        exact = stable_base_locus_exact(d)
        assert set(chain.minimal_cones) == set(exact.minimal_cones)
        assert chain.multiple is not None


def test_augmented_base_locus_examples(totaro, totaro_L, totaro_H, p1xp1):
    assert augmented_base_locus(totaro_H).is_empty
    nef_not_big = ToricDivisor(p1xp1, (1, 0, 0, 0))
    assert augmented_base_locus(nef_not_big).is_everything
    report = augmented_base_locus(totaro_L)
    assert report.is_everything  # the example class is not big
    # stable locus sits inside the augmented one
    stable = stable_base_locus_exact(totaro_L)
    assert set(stable.cone_set(totaro)) <= set(report.cone_set(totaro))


def test_base_locus_contains_stable_locus(p1xp1, totaro):
    for fan in (p1xp1, totaro):
        for d in random_divisors(fan, 40, seed="bs-vs-b"):
            bs = base_locus(d).cone_set(fan)
            stable = stable_base_locus_exact(d).cone_set(fan)
            assert stable <= bs, (fan.name, d.coeffs)


def test_augmented_base_locus_ample_independence(totaro, totaro_L, totaro_H):
    second = 2 * totaro_H + prime_divisor(totaro, 2)
    assert classify_cones(second).ample
    d = totaro_H + prime_divisor(totaro, 0)
    first_locus = augmented_base_locus_exact(d, totaro_H)
    second_locus = augmented_base_locus_exact(d, second)
    assert first_locus.minimal_cones == second_locus.minimal_cones


def _locus_fans(p1, p2, p1xp1, totaro):
    """The built-in fans of rank 2 and 3, P1^3 and P1^4, and a seeded
    GL(n,Z) image of each power."""
    rng = random.Random("locus-fans")
    powers = [product_fan([(p1.rays, p1.max_cones)] * k, matrix) for k in (3, 4)
              for matrix in (None, unimodular(rng, k))]
    return (p2, p1xp1, totaro, *powers)


def _kind(d) -> str:
    flags = classify_cones(d)
    if flags.ample or flags.nef:
        return "ample" if flags.ample else "nef, not ample"
    if flags.big:
        return "big, not nef"
    return "not big" if flags.pseudoeffective else "not pseudoeffective"


def _chain(search, *args):
    """(minimal cones, multiple) of a chain, or None when it raises
    NoStabilizationDetected."""
    try:
        report = search(*args)
    except NoStabilizationDetected:
        return None
    return report.minimal_cones, report.multiple


def test_base_loci_on_the_cone_poset_match_the_cone_by_cone_loops(p1, p2, p1xp1, totaro):
    # the loci ask only the cones no face or facet settles, yet report what
    # asking every cone does: the same minimal cones in the same order, the
    # same no-sections flag, and the chains stop at the same multiple
    kinds = Counter()
    for fan in _locus_fans(p1, p2, p1xp1, totaro):
        h = default_ample(fan)
        second = 2 * h + prime_divisor(fan, 0)
        assert classify_cones(second).ample, fan.rays
        divisors = [h, zero_divisor(fan), prime_divisor(fan, 0), -h,
                    *random_divisors(fan, 6, -3, 3, seed="poset")]
        for d in divisors:
            kinds[_kind(d)] += 1
            assert stable_base_locus_exact(d).minimal_cones == \
                reference_minimal(reference_stable_cones(d)), (fan.rays, d.coeffs)
            for ample in (h, second):
                assert augmented_base_locus_exact(d, ample).minimal_cones == \
                    reference_minimal(reference_augmented_cones(d, ample)), (d.coeffs, ample)
            bs = reference_base_locus_cones(d)
            report = base_locus(d)
            assert (report.minimal_cones, report.no_sections) == (reference_minimal(bs), () in bs)
            assert _chain(stable_base_locus, d) == reference_stable_chain(d), d.coeffs
            assert _chain(augmented_base_locus, d) == reference_augmented_chain(d, h), d.coeffs
    assert len(kinds) == 5, kinds


def test_the_loci_ask_only_the_cones_no_face_or_facet_settles(
        monkeypatch, p1, p2, p1xp1, totaro, totaro_L):
    asked = []

    def counting(name):
        question = getattr(toricpos.positivity, name)

        def count(d, *args):
            asked.append((name, args[-1]))
            return question(d, *args)
        return count

    for name in ("_face_nonempty", "_face_has_point", "_persists"):
        monkeypatch.setattr(toricpos.positivity, name, counting(name))

    def questions(locus, d):
        asked.clear()
        locus(d)
        assert len(set(asked)) == len(asked), asked  # no cone is asked twice
        return len(asked)

    h = default_ample(totaro)
    # L is not pseudoeffective and 0 is not big: the empty cone settles
    # every cone
    assert not classify_cones(totaro_L).pseudoeffective
    assert questions(stable_base_locus_exact, totaro_L) == 1
    assert questions(augmented_base_locus_exact, zero_divisor(totaro)) == 1
    # -K is ample: the empty cone and the 8 maximal cones settle all 27
    assert len(totaro.cones) == 27 and len(totaro.max_cones) == 8
    for locus in (stable_base_locus_exact, augmented_base_locus_exact, base_locus):
        assert questions(locus, h) == 1 + 8, locus.__name__
    # B(D) = V(f0) + V(f1) holds every maximal cone: the six rays are asked,
    # and of the 2-cones only the four free of rays 0 and 1, which escape
    d = ToricDivisor(totaro, (1, 3, 3, -2, -1, 2))
    assert stable_base_locus_exact(d).minimal_cones == ((0,), (1,))
    assert questions(stable_base_locus_exact, d) == 1 + 8 + 6 + 4
    assert [tau for _, tau in asked[-4:]] == [(2, 3), (2, 5), (3, 4), (4, 5)]
    for fan in _locus_fans(p1, p2, p1xp1, totaro):
        for d in random_divisors(fan, 6, -3, 3, seed="asked-once"):
            for locus in (stable_base_locus_exact, augmented_base_locus_exact, base_locus):
                assert questions(locus, d) <= len(fan.cones), (locus.__name__, d.coeffs)


def test_qnef_example_class(totaro, totaro_L):
    res = is_qnef(totaro_L, 1)
    assert res.verdict and res.scope == "torus-invariant"
    assert len(res.restrictions) == 6
    assert all(not big for _, big in res.restrictions)


def test_qnef_trivial_and_failing_cases(totaro, totaro_H):
    assert is_qnef(totaro_H, 0).verdict
    assert is_qnef(totaro_H, 1).verdict
    assert is_qnef(totaro_H, 2).verdict
    res = is_qnef(-totaro_H, 2)
    assert not res.verdict and res.witness_tau == ()


# weighted projective spaces: restricting to a ray's orbit closure maps
# another ray to twice a primitive vector (multiplicity 2)
P112 = Fan(2, ((1, 0), (-1, -2), (0, 1)), ((0, 1), (1, 2), (0, 2)), name="P(1,1,2)")
P1112 = Fan(
    3,
    ((1, 0, 0), (0, 1, 0), (-1, -1, -2), (0, 0, 1)),
    ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)),
    name="P(1,1,1,2)",
)


def test_restricted_bigness_matches_the_quotient_fan(example_fans):
    """is_big(D, tau) on the fan's own rows agrees with bigness of the
    restriction built on the quotient fan of V(tau), the reference path."""
    rng = random.Random(20263)
    for fan in (*example_fans, P112, P1112):
        assert fan.properties.complete, fan.name
        cones = [tau for tau in fan.cones if len(tau) < fan.rank]  # dim V(tau) >= 1
        for _ in range(12):
            d = ToricDivisor(
                fan,
                tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in fan.rays),
            )
            for tau in cones:
                expected = is_big(-restrict(d, tau).divisor)
                assert is_big(-d, tau) == expected, (fan.name, d.coeffs, tau)


def test_qnef_builds_no_quotient_fan(totaro):
    divisors = random_divisors(totaro, 8, seed="qnef-no-quotient")
    expected = [
        [(tau, is_big(-restrict(d, tau).divisor)) for tau in totaro.cones if len(tau) == 2 - q]
        for d in divisors
        for q in range(3)
    ]

    def forbidden(*args, **kwargs):
        raise AssertionError("is_qnef built a quotient fan")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(toricpos.fan, "star_quotient", forbidden)
        mp.setattr(toricpos.divisor, "star_quotient", forbidden)
        mp.setattr(toricpos.fan, "_check_structure", forbidden)  # every Fan build
        answered = [list(is_qnef(d, q).restrictions) for d in divisors for q in range(3)]
    assert answered == expected


def test_qnef_and_cone_flags_read_the_constants_alone(example_fans):
    # is_qnef negates D's plain constants, with no divisor -D, and
    # classify_cones reads wall signs from their numerators, with no
    # wall_degree Fraction
    divisors = [d for fan in example_fans for d in random_divisors(fan, 6, seed="constants")]
    divisors += [Fraction(1, 1 + k % 3) * d for k, d in enumerate(divisors)]

    def answers():
        return [
            (classify_cones(d), [is_qnef(d, q).restrictions for q in range(d.fan.rank)])
            for d in divisors
        ]

    expected = answers()

    def forbidden(*args, **kwargs):
        raise AssertionError("a cone question left the constants path")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ToricDivisor, "__neg__", forbidden)
        mp.setattr(toricpos.divisor, "wall_degree", forbidden)
        mp.setattr(toricpos.positivity, "wall_degree", forbidden, raising=False)
        assert answers() == expected


def test_qnef_zero_matches_nef(totaro):
    for d in random_divisors(totaro, 20, seed="qnef0"):
        assert is_qnef(d, 0).verdict == classify_cones(d).nef


def test_decide_qample_example(totaro, totaro_L, totaro_H):
    res = decide_qample(totaro_L, 1)
    assert not res.verdict
    assert res.certificate.degree == 2
    assert res.certificate.subset == (2, 3, 4, 5)
    assert decide_qample(totaro_L, 2).verdict
    assert decide_qample(totaro_H, 0).verdict
    # the dual of an ample class is pseudoeffective, so no q < n works
    assert not decide_qample(-totaro_H, 2).verdict
    assert smallest_qample(-totaro_H) == 3


def test_qample_scale_invariance(totaro):
    for d in random_divisors(totaro, 8, seed="scale"):
        for q in range(3):
            base = decide_qample(d, q).verdict
            for k in (2, 3):
                assert decide_qample(k * d, q).verdict == base


def test_qample_monotone_and_kleiman(example_fans):
    for fan in example_fans:
        n = fan.rank
        for d in random_divisors(fan, 25, seed="mono"):
            verdicts = [decide_qample(d, q).verdict for q in range(n)]
            for a, b in zip(verdicts, verdicts[1:]):
                assert (not a) or b  # monotone in q
            assert verdicts[0] == classify_cones(d).ample
            # the top cone is the negatives of non-pseudoeffective classes
            assert verdicts[n - 1] == (not classify_cones(-d).pseudoeffective)


def test_qample_implies_qnef(totaro):
    for d in random_divisors(totaro, 12, seed="imp"):
        for q in range(3):
            if decide_qample(d, q).verdict:
                assert is_qnef(d, q).verdict, (d.coeffs, q)


def test_kuronya_dimension_bound(totaro):
    for d in random_divisors(totaro, 12, seed="kur"):
        dim = augmented_base_locus_exact(d).dimension(totaro)
        for q in range(3):
            if dim <= q:
                assert decide_qample(d, q).verdict, (d.coeffs, q, dim)


def test_disconnected_section_criterion(totaro):
    f1, f2, f3 = (prime_divisor(totaro, i) for i in (0, 1, 2))
    res = disconnected_section_criterion(f1 + f2)
    assert res.applies and res.conclusion == "not 1-ample"
    assert all(h >= 1 for h in res.h1_of_negatives)
    assert not decide_qample(f1 + f2, 1).verdict
    assert not disconnected_section_criterion(f1).applies
    assert not disconnected_section_criterion(f1 + f3).applies
    with pytest.raises(NotEffectiveSupport):
        disconnected_section_criterion(-f1)
    with pytest.raises(NotEffectiveSupport):
        disconnected_section_criterion(zero_divisor(totaro))


def test_chamber_labels_at_key_classes(totaro, totaro_L, totaro_H):
    cmap = chamber_scan(zero_divisor(totaro), totaro_H, totaro_L, resolution=1)
    assert cmap.at(1, 0).smallest_q == 0  # the ample class
    assert cmap.at(0, 1).smallest_q == 2  # the example class
    assert cmap.at(-1, 0).smallest_q == 3  # minus ample: no q below dim works
    assert cmap.at(1, 0).pseudoeffective
    assert not cmap.at(0, 1).pseudoeffective
    assert not cmap.at(-1, 0).pseudoeffective
    # labels are invariant under positive scaling
    doubled = chamber_scan(zero_divisor(totaro), 2 * totaro_H, 2 * totaro_L, resolution=1)
    for s, t in zip(cmap.samples, doubled.samples):
        assert (s.smallest_q, s.pseudoeffective, s.big) == (
            t.smallest_q,
            t.pseudoeffective,
            t.big,
        )


def test_positivity_decisions_keep_their_invariants(totaro, totaro_L, totaro_H):
    # ample implies nef, big implies pseudoeffective, q-ample is monotone in
    # q and implies q-nef
    for d in (totaro_L, totaro_H, -totaro_H, zero_divisor(totaro)):
        flags = classify_cones(d)
        q_ample = [decide_qample(d, q).verdict for q in range(totaro.rank)]
        q_nef = [is_qnef(d, q).verdict for q in range(totaro.rank)]
        assert (not flags.ample) or flags.nef
        assert (not flags.big) or flags.pseudoeffective
        for a, b in zip(q_ample, q_ample[1:]):
            assert (not a) or b
        for qa, qn in zip(q_ample, q_nef):
            assert (not qa) or qn
        if d is totaro_L:
            assert (q_ample, q_nef) == ([False, False, True], [False, True, True])


def test_mode_agreement_on_key_divisors(totaro, totaro_L, totaro_H):
    f12 = prime_divisor(totaro, 0) + prime_divisor(totaro, 1)
    for d, q in ((totaro_L, 1), (totaro_L, 2), (totaro_H, 0), (-totaro_H, 2), (f12, 1)):
        res = check_mode_agreement(d, q)
        if not res["asymptotic"].verdict:
            assert res["scan"].obstructed
            assert res["realized"] is not None
        else:
            assert not res["scan"].obstructed


def test_scan_mode_reports_pattern(totaro, totaro_L):
    scan = scan_qample(totaro_L, 1)
    assert scan.obstructed and scan.clean_n is None
    assert realization_search(totaro_L, 1) == (1, 1, 2)
    clean = scan_qample(totaro_L, 2)
    assert not clean.obstructed and clean.clean_n == 12


def test_qample_searches_agree_on_seeded_corpus(example_fans):
    for fan in example_fans:
        n = fan.rank
        for d in random_divisors(fan, 10, seed="searches"):
            least = next((q for q in range(n) if decide_qample(d, q).verdict), n)
            assert smallest_qample(d) == least, (fan.name, d.coeffs)
            for q in range(n):
                scan = scan_qample(d, q)
                if scan.obstructed:
                    first = min(scan.nonvanishing)[:3]
                    assert realization_search(d, q) == first, (fan.name, d.coeffs, q)


def _walk_finds_a_point(region):
    """Does the count walk of the region yield a block? The scan asks
    ``Plan.has_point``, which dives first."""
    return next(_plan_of(region).blocks(_closure_rhs(region)), None) is not None


def test_scan_twists_match_divisor_arithmetic_on_seeded_corpus(example_fans):
    # the scan forms each twist N*D - j*H from plain coefficients; the
    # reference builds it through ToricDivisor arithmetic, and reads every
    # (N, j, p) of the window. The second ample class has one true fraction,
    # so its plain coefficients mix int and Fraction.
    outcomes = Counter()
    for fan in example_fans:
        index = bad_subsets(fan)
        h = default_ample(fan)
        halved = h + Fraction(1, 2) * prime_divisor(fan, 0)
        assert {type(c) for c in halved.plain_coeffs} == {int, Fraction}
        for ample in (h, halved):
            for divisor in random_divisors(fan, 4, seed="scan-twists"):
                d = _primitive_integral(divisor)
                for q in range(fan.rank):
                    hits = {
                        n_mult: [
                            (n_mult, j, p)
                            for j in range(1, 5)
                            for p in range(q + 1, fan.rank + 1)
                            if any(
                                _walk_finds_a_point(
                                    coeff_subset_region(fan, (n_mult * d - j * ample).plain_coeffs, s)
                                )
                                for s, _ in index[p]
                            )
                        ]
                        for n_mult in range(1, 13)
                    }
                    clean_n = next((n for n in range(12, 0, -1) if not hits[n]), None)
                    seen = [(*hit, 1) for n in range(12, clean_n or 0, -1) for hit in hits[n]]
                    first = next((hits[n][0] for n in range(1, 13) if hits[n]), None)
                    scan = scan_qample(divisor, q, ample)
                    assert (scan.obstructed, scan.clean_n) == (clean_n is None, clean_n)
                    assert scan.nonvanishing == tuple(sorted(seen)), (fan.name, d.coeffs, q)
                    assert realization_search(divisor, q, ample) == first, (fan.name, d.coeffs, q)
                    outcomes[scan.obstructed, first is None] += 1
    assert len(outcomes) == 3, outcomes  # obstructed, clean with a hit, clean with none


def test_the_window_answers_as_has_point_per_region_on_seeded_corpus(example_fans):
    # every (N <= 12, j <= 4, p, S): the scan's window for the region of S
    # against Plan.has_point on the twist's own constants, and where it
    # reads level 0 from its sums, y_0's integers against Plan.start's.
    # P(1,1,2) comes in both orders of its coordinates: with y_0 and y_1
    # swapped its ray (-2, -1) gives level 0 rows with a = 2, so the
    # rounding of both ends shows. The halved reference class has a
    # Fraction constant, so its window asks has_point per twist
    swapped = Fan(2, tuple(ray[::-1] for ray in P112.rays), P112.max_cones, name="P(1,1,2) swapped")
    outcomes = Counter()
    wide = set()
    for fan in (*example_fans, P112, swapped):
        index = bad_subsets(fan)
        regions = fan.regions(sign_picks)
        h = default_ample(fan)
        halved = h + Fraction(1, 2) * prime_divisor(fan, 0)
        for ample in (h, halved):
            for divisor in random_divisors(fan, 4, seed="window"):
                d = _primitive_integral(divisor)
                window = _Window(d, ample)
                for p in range(1, fan.rank + 1):
                    for subset, _ in index[p]:
                        plan, signed = regions[subset, ()]
                        twists = window[subset]
                        if any(a > 1 for side in plan.top[1:] for a, _ in side):
                            wide.add(fan.name)
                        for n_mult in range(1, 13):
                            for j in range(1, 5):
                                b = rhs(signed, [n_mult * a - j * x for a, x in zip(d.plain_coeffs, ample.plain_coeffs)])
                                where = (fan.name, d.coeffs, ample.coeffs, subset, n_mult, j)
                                found = plan.has_point(b)
                                assert twists.has_point(n_mult, j) == found, where
                                if twists.rows is None:
                                    outcomes["has_point", found] += 1
                                    continue
                                start = plan.start(b)
                                assert twists.integers(n_mult, j) == (start and start[:2]), where
                                outcomes["y_0 integer" if start else "level 0", found] += 1
    assert set(outcomes) == {("has_point", True), ("has_point", False), ("y_0 integer", True),
                             ("level 0", False)}, outcomes
    assert wide == {"P(1,1,2) swapped"}


def test_qample_entry_points_reject_negative_q(p2):
    h = ToricDivisor(p2, (1, 1, 1))
    for search in (decide_qample, scan_qample, realization_search):
        with pytest.raises(ToricError, match="nonnegative"):
            search(h, -1)


def test_qample_entry_points_reject_an_ample_class_on_another_fan(p2, p1xp1):
    d = ToricDivisor(p1xp1, (1, 0, 1, 0))
    rebuilt = Fan(2, p1xp1.rays, p1xp1.max_cones, name=p1xp1.name)
    assert scan_qample(d, 0, ToricDivisor(rebuilt, (1, 1, 1, 1))) == scan_qample(d, 0)
    f1 = Fan(2, ((1, 0), (0, 1), (-1, 1), (0, -1)), ((0, 1), (1, 2), (2, 3), (0, 3)))
    for ample in (ToricDivisor(p2, (1, 1, 1)), ToricDivisor(f1, (1, 1, 1, 1))):
        for search in (decide_qample, scan_qample, realization_search,
                       lambda d, q, h: augmented_base_locus_exact(d, h)):
            with pytest.raises(ValueError, match="different fans"):
                search(d, 0, ample)


def test_qample_entry_points_reject_a_reference_class_that_is_not_ample(p2):
    d = ToricDivisor(p2, (0, 0, 0))
    searches = (decide_qample, scan_qample, realization_search, check_mode_agreement,
                lambda d, q, h: smallest_qample(d, h))
    for ample in (zero_divisor(p2), -prime_divisor(p2, 0)):
        for search in searches:
            with pytest.raises(ToricError, match="ample reference divisor"):
                search(d, 0, ample)
    # the default class, passed on explicitly, and another ample class pass
    assert decide_qample(d, 0, default_ample(p2)) == decide_qample(d, 0)
    assert smallest_qample(d, ToricDivisor(p2, (2, 0, 0))) == smallest_qample(d)


def test_qample_entry_points_reject_an_incomplete_fan(totaro):
    partial = Fan(3, totaro.rays, tuple(c for c in totaro.max_cones if c != (0, 2, 3)))
    d = ToricDivisor(partial, (1,) * partial.n_rays)
    searches = (decide_qample, scan_qample, realization_search, check_mode_agreement,
                lambda d, q: smallest_qample(d))
    for search in searches:
        with pytest.raises(NotComplete):
            search(d, 1)


def test_decisions_solve_no_lp(monkeypatch, example_fans):
    # the projections decide every cone question and the chain of levels
    # writes every witness: no decision, certificate or CLI report, the
    # golden cases included, reaches the simplex
    def no_lp(*args):
        raise AssertionError("a library path solved an LP")

    solve = toricpos.polyhedra.simplex_max
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "toricpos" and getattr(module, "simplex_max", None) is solve:
            monkeypatch.setattr(module, "simplex_max", no_lp)
    for argv in GOLDEN_CASES.values():
        assert run_cli(*argv).exit_code == 0, argv
    witnesses = Counter()
    for fan in example_fans:
        assert fan.properties.complete
        h = default_ample(fan)
        divisors = random_divisors(fan, 6, seed="no-lp")
        for d in divisors:
            classify_cones(d)
            for q in range(fan.rank):
                is_qnef(d, q)
                witnesses["qample", decide_qample(d, q).certificate is not None] += 1
                try:
                    check_mode_agreement(d, q)
                except ModeDisagreement:
                    pass  # the scan's known false failures; only LPs are checked here
            for p in range(fan.rank + 1):
                for e in (d, d - Fraction(1, 100) * h):
                    witnesses["nonvanishing", asymptotic_nonvanishing(e, p)[1] is not None] += 1
            augmented_base_locus_exact(d)
            stable_base_locus_exact(d)
            smallest_qample(d)
        chamber_scan(divisors[0], divisors[1], divisors[2], resolution=1)
    assert len(witnesses) == 4, witnesses  # both searches with and without a witness


def test_persists_matches_the_lp_on_acceptance_classes(example_fans):
    # criterion 5's seeded classes: every q-ample obstruction pattern (a bad
    # subset strict) and every B+ escape pattern (a cone tight)
    outcomes = set()
    for fan in example_fans:
        ample = default_ample(fan)
        patterns = [(s, ()) for entries in bad_subsets(fan) for s, _ in entries]
        patterns += [((), tau) for tau in fan.cones]
        joint = fan.regions(_joint_picks, ample.plain_coeffs)
        for d in random_divisors(fan, 200, seed="acceptance5"):
            for strict, tight in patterns:
                fm = _persists(d, joint, (strict, tight))
                assert fm == lp_persists(d, ample, strict, tight), (fan.name, d.coeffs, strict, tight)
                outcomes.add(fm)
    assert outcomes == {True, False}


def _region(fan, picks, selection, coeffs, ample=None):
    """A selection table's region for the coefficients, as a Polyhedron."""
    plan, index = fan.regions(picks, ample and ample.plain_coeffs)[selection]
    return plan_polyhedron(plan, rhs(index, coeffs))


def test_region_builders_pick_the_rows_polyhedron_stores(example_fans):
    # every region of every selection table, read as a Polyhedron for the
    # divisor's constants, equals, row for row and in the same order, the
    # region built by normalizing each row again (tests/oracles.py keeps
    # those builders): integral and rational classes, an ample class with a
    # true fraction, and tight and strict selections of every cone and bad
    # subset, alone and together
    rng = random.Random(20265)
    for fan in (*example_fans, P112):
        h = default_ample(fan)
        subsets = [s for entries in bad_subsets(fan) for s, _ in entries]
        rational = [
            ToricDivisor(fan, tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in fan.rays))
            for _ in range(3)
        ]
        integral = random_divisors(fan, 3, seed="stored-rows")
        mixed = h + Fraction(1, 2) * prime_divisor(fan, 0)  # -K + F1/2
        for d in (*integral, *rational, Fraction(1, 2) * integral[0], mixed):
            a = d.plain_coeffs
            section = _region(fan, sign_picks, ((), ()), a)
            assert section_polyhedron(d) == coeff_section_polyhedron(d) == section, d.coeffs
            for ample in (h, mixed):
                for s in subsets:
                    expected = coeff_joint_region(d, ample, strict=s)
                    assert _region(fan, _joint_picks, (s, ()), a, ample) == expected
                for tau in fan.cones:
                    expected = coeff_joint_region(d, ample, tight=tau)
                    assert _region(fan, _joint_picks, ((), tau), a, ample) == expected
            for s in subsets:
                assert _region(fan, sign_picks, (s, ()), a) == coeff_subset_region(fan, a, s)
                for tau in fan.cones:
                    expected = coeff_sign_region(fan, a, s, tau)
                    assert _region(fan, sign_picks, (s, tau), a) == expected, (d.coeffs, s, tau)
            for tau in fan.cones:
                assert _region(fan, sign_picks, ((), tau), a) == coeff_sign_region(fan, a, (), tau)
                assert _region(fan, _big_picks, tau, a) == coeff_big_region(d, tau), (fan.name, d.coeffs, tau)
        twisted = tuple(3 * a - b for a, b in zip(rational[0].plain_coeffs, mixed.plain_coeffs))
        for s in subsets:
            assert _region(fan, sign_picks, (s, ()), twisted) == coeff_subset_region(fan, twisted, s)
    # int and Fraction constants on a table's primitive normals give what
    # polyhedron() stores for the coefficients, for the ray rows and the
    # joint rows, on the built-in fans, P(1,1,2) and quotient fans whose rays
    # are images of the original rays
    totaro = example_fans[-1]
    quotients = [star_quotient(totaro, tau)[0] for tau in ((0,), (2,), (3, 4))]
    for fan in (*example_fans, P112, *quotients):
        h = default_ample(fan)
        joint = [u + (-a,) for u, a in zip(fan.rays, h.plain_coeffs)]
        eps = [((0,) * fan.rank + (-1,), 0)]
        for d in (*random_divisors(fan, 3, seed="int-rows"), h, -h):
            assert all(type(a) is int for a in d.plain_coeffs)
            rays = polyhedron(fan.rank, weak=tuple(zip(fan.rays, d.coeffs)))
            joints = polyhedron(fan.rank + 1, strict=eps, weak=tuple(zip(joint, d.coeffs)))
            for a in (d.plain_coeffs, d.coeffs):
                assert _region(fan, sign_picks, ((), ()), a) == rays, (fan.rays, d.coeffs)
                assert _region(fan, _joint_picks, ((), ()), a, h) == joints, (fan.rays, d.coeffs)


def _walked(plan, b):
    """(first point, per-parent (prefix, count)) of a walk, or "unbounded"."""
    try:
        weights = Weights(plan.blocks(b), plan.dim)
    except UnboundedRegion:
        return "unbounded"
    return weights[0] if weights else None, [(block[0], block[-1]) for block in weights.blocks]


def test_selection_queries_answer_as_the_oracle_regions(p1, p2, p1xp1, totaro):
    # each kind of region read as (plan, b) from the fan's tables against the
    # Polyhedron tests/oracles.py builds with every row normalized: both
    # Q-decisions, the first lattice point and the points per parent node.
    # The decisions read rational constants exactly and the walk floors
    # them; on an unbounded region a floored walk may find no point where the
    # oracle's walk, on the rational closure, reports the unboundedness.
    # has_point answers as the walk does, raising where the walk raises
    gl = product_fan([(p1.rays, p1.max_cones), (p2.rays, p2.max_cones)], ((1, 1, 0), (0, 1, 1), (0, 0, 1)))
    seen = Counter()
    for fan in (p1, p2, p1xp1, totaro, P112, gl):
        h = default_ample(fan)
        subsets = [s for entries in bad_subsets(fan) for s, _ in entries]
        mixed = h + Fraction(1, 2) * prime_divisor(fan, 0)
        integral = random_divisors(fan, 2, seed="selections")
        for d in (*integral, Fraction(1, 2) * integral[0], mixed):
            a = d.plain_coeffs
            queries = [(sign_picks, None, (s, ()), coeff_subset_region(fan, a, s)) for s in subsets]
            for tau in fan.cones:
                queries.append((sign_picks, None, ((), tau), coeff_sign_region(fan, a, (), tau)))
                queries.append((_big_picks, None, tau, coeff_big_region(d, tau)))
            for ample in (h, mixed):
                queries += [(_joint_picks, ample, (s, ()), coeff_joint_region(d, ample, strict=s))
                            for s in subsets]
                queries += [(_joint_picks, ample, ((), tau), coeff_joint_region(d, ample, tight=tau))
                            for tau in fan.cones]
            for picks, ample, selection, oracle in queries:
                plan, index = fan.regions(picks, ample and ample.plain_coeffs)[selection]
                b = rhs(index, a)
                where = (fan.rays, d.coeffs, picks.__name__, selection)
                oracle_plan, oracle_b = _plan_of(oracle), _closure_rhs(oracle)
                assert plan.closure_nonempty(b) == oracle_plan.closure_nonempty(oracle_b), where
                assert plan.strictly_feasible(b) == oracle_plan.strictly_feasible(oracle_b), where
                got, want = _walked(plan, b), _walked(oracle_plan, oracle_b)
                rational = any(type(x) is not int for x in b)
                if want == "unbounded" and rational:
                    assert got in ("unbounded", (None, [])), where
                else:
                    assert got == want, where
                if got == "unbounded":
                    with pytest.raises(UnboundedRegion):
                        plan.has_point(b)
                else:
                    assert plan.has_point(b) == (got[0] is not None), where
                    if want != "unbounded":
                        assert got[0] == (lattice_points(oracle) or [None])[0], where
                seen[picks.__name__, rational, got == "unbounded" or bool(got[0])] += 1
    assert len(seen) == 12, seen  # every kind, int and rational constants, hit and miss


def test_rows_are_normalized_a_fixed_number_of_times_per_divisor(monkeypatch, totaro):
    # a divisor's regions build no row: their normals come from the fan's
    # selection tables and an integral class supplies int constants, so a
    # positivity profile and both exact base loci call polyhedron(), the
    # normalizer, no time at all, whatever the number of cones and subsets,
    # for primitive classes and for multiples (whose q-ample searches run on
    # the primitive class)
    assert totaro.properties.complete
    normalized = []
    normalize = toricpos.polyhedra.polyhedron

    def counting_normalize(*args, **kwargs):
        normalized.append(args)
        return normalize(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "toricpos" and getattr(module, "polyhedron", None) is normalize:
            monkeypatch.setattr(module, "polyhedron", counting_normalize)
    divisors = random_divisors(totaro, 6, seed="rows-once")
    kinds = Counter()
    for d in (*divisors, 2 * divisors[0]):
        classify_cones(d)
        for q in range(totaro.rank):
            decide_qample(d, q)
            is_qnef(d, q)
        augmented_base_locus_exact(d)
        stable_base_locus_exact(d)
        assert not normalized, (d.coeffs, normalized)
        kinds[_primitive_integral(d) is d] += 1
    assert kinds[True] and kinds[False]
    assert len(totaro.cones) > 11 and sum(map(len, bad_subsets(totaro))) > 3


def test_a_linearly_equivalent_representative_reuses_every_plan(monkeypatch, totaro):
    # D + div(chi^m) changes the constants of every region of the check (the
    # scan's twists, the joint region, the section polytope) but no normal,
    # so its check adds no entry to the fan's selection tables and eliminates
    # nothing, and answers as D does
    projected = []
    project = toricpos.polyhedra._projection

    def counting(*args):
        projected.append(args)
        return project(*args)

    monkeypatch.setattr(toricpos.polyhedra, "_projection", counting)
    for coeffs, q in (((0, 2, -4, -3, 0, -3), 1), ((4, 0, -2, 0, 3, 3), 1)):
        d = ToricDivisor(totaro, coeffs)
        first = check_mode_agreement(d, q)
        entries = sum(map(len, totaro._regions.values()))
        projected.clear()
        shifted = d + divisor_of_character(totaro, (1, -2, 1))
        second = check_mode_agreement(shifted, q)
        assert sum(map(len, totaro._regions.values())) == entries, coeffs
        assert not projected, (coeffs, len(projected))
        assert second["scan"] == first["scan"] and second["realized"] == first["realized"]
        asym, shifted_asym = first["asymptotic"], second["asymptotic"]
        assert (shifted_asym.verdict, shifted_asym.checked) == (asym.verdict, asym.checked)
        # the witness point moves with the representative; the rest stays
        cert, shifted_cert = asym.certificate, shifted_asym.certificate
        assert (cert is None) == (shifted_cert is None) == asym.verdict, coeffs
        if cert is not None:
            assert (shifted_cert.degree, shifted_cert.subset, shifted_cert.epsilon) == (
                cert.degree, cert.subset, cert.epsilon)


def test_a_profile_search_and_cohomology_build_one_plan_per_region(totaro):
    # the section polytope's faces, the q-ample closures and the weight
    # regions share the fan's sign-pattern table, so no two plans of the
    # fan's tables eliminate the same rows
    fan = Fan(totaro.rank, totaro.rays, totaro.max_cones)
    d = ToricDivisor(fan, (3, 3, -1, -1, -1, -1))
    classify_cones(d)
    decide_qample(d, 1)
    cohomology_dims(d)
    plans = [plan for table in fan._regions.values() for plan, _ in table.values()]
    assert len({(plan.dim, plan.strict, plan.weak) for plan in plans}) == len(plans) == 10


def test_the_q_ample_closures_read_the_plans_the_scan_walks(monkeypatch, totaro):
    # decide_qample reads a bad subset's eps = 0 closure from the plan of
    # the subset's own region, the one the scan asks for lattice points: for
    # the ample -K at q = 0 every subset of degree 1..3 is read both ways.
    # The scan reads a region's plan once per search, in its window's
    # per-region read (``Twists``)
    closures, walked = [], []
    closure_nonempty, window_read = Plan.closure_nonempty, Twists.__init__

    def closure(plan, b):
        closures.append(plan)
        return closure_nonempty(plan, b)

    def read(twists, plan, *constants):
        walked.append(plan)
        window_read(twists, plan, *constants)

    monkeypatch.setattr(Plan, "closure_nonempty", closure)
    monkeypatch.setattr(Twists, "__init__", read)
    for coeffs, q in (((1,) * 6, 0), ((3, 3, -1, -1, -1, -1), 1)):
        fan = Fan(totaro.rank, totaro.rays, totaro.max_cones)
        closures.clear()
        walked.clear()
        check_mode_agreement(ToricDivisor(fan, coeffs), q)
        table = fan.regions(sign_picks)
        subsets = [s for p in range(q + 1, fan.rank + 1) for s, _ in bad_subsets(fan)[p]]
        shared = [table[s, ()][0] for s in subsets]
        assert closures and all(any(plan is c for plan in shared) for c in closures), coeffs
        assert all(any(c is w for w in walked) for c in closures), coeffs
        if q == 0:
            assert all(any(plan is c for c in closures) for plan in shared)
