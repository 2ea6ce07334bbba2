import random
import sys
from fractions import Fraction

import pytest

import toricpos.divisor
import toricpos.fan
import toricpos.polyhedra
from toricpos import (
    Fan,
    NotComplete,
    NotEffectiveSupport,
    ToricDivisor,
    ToricError,
    augmented_base_locus,
    augmented_base_locus_exact,
    base_locus,
    chamber_scan,
    check_mode_agreement,
    classify_cones,
    decide_qample,
    disconnected_section_criterion,
    is_qnef,
    prime_divisor,
    realization_search,
    restrict,
    scan_qample,
    smallest_qample,
    stable_base_locus,
    stable_base_locus_exact,
    zero_divisor,
)

from toricpos.cohomology import bad_subsets
from toricpos.positivity import _persists, default_ample, is_big

from .conftest import random_divisors
from .oracles import lp_persists


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


def test_positivity_report_invariants(totaro, totaro_L, totaro_H):
    from toricpos import positivity_report

    for d in (totaro_L, totaro_H, -totaro_H, zero_divisor(totaro)):
        rep = positivity_report(d)
        assert (not rep.flags.ample) or rep.flags.nef
        assert (not rep.flags.big) or rep.flags.pseudoeffective
        for a, b in zip(rep.q_ample, rep.q_ample[1:]):
            assert (not a) or b
        for qa, qn in zip(rep.q_ample, rep.q_nef):
            assert (not qa) or qn
    rep = positivity_report(totaro_L)
    assert rep.q_ample == (False, False, True)
    assert rep.q_nef == (False, True, True)


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


def test_qample_entry_points_reject_negative_q(p2):
    h = ToricDivisor(p2, (1, 1, 1))
    for search in (decide_qample, scan_qample, realization_search):
        with pytest.raises(ToricError, match="nonnegative"):
            search(h, -1)


def test_qample_entry_points_reject_an_incomplete_fan(totaro):
    partial = Fan(3, totaro.rays, tuple(c for c in totaro.max_cones if c != (0, 2, 3)))
    d = ToricDivisor(partial, (1,) * partial.n_rays)
    searches = (decide_qample, scan_qample, realization_search, check_mode_agreement,
                lambda d, q: smallest_qample(d))
    for search in searches:
        with pytest.raises(NotComplete):
            search(d, 1)


def test_decisions_solve_no_lp(monkeypatch, example_fans):
    # the projections decide every cone question; fan validation's LPs run
    # before the simplex is taken away
    for fan in example_fans:
        assert fan.properties.complete

    def no_lp(*args):
        raise AssertionError("a decision solved an LP")

    solve = toricpos.polyhedra.simplex_max
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "toricpos" and getattr(module, "simplex_max", None) is solve:
            monkeypatch.setattr(module, "simplex_max", no_lp)
    for fan in example_fans:
        divisors = random_divisors(fan, 6, seed="no-lp")
        for d in divisors:
            classify_cones(d)
            for q in range(fan.rank):
                is_qnef(d, q)
            augmented_base_locus_exact(d)
            stable_base_locus_exact(d)
            smallest_qample(d)
        chamber_scan(divisors[0], divisors[1], divisors[2], resolution=1)


def test_decide_qample_solves_one_lp_per_printed_certificate(monkeypatch, example_fans):
    for fan in example_fans:
        assert fan.properties.complete
    calls = []
    solve = toricpos.polyhedra.simplex_max

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(toricpos.polyhedra, "simplex_max", counting)
    verdicts = set()
    for fan in example_fans:
        for d in random_divisors(fan, 12, seed="one-lp"):
            for q in range(fan.rank):
                calls.clear()
                result = decide_qample(d, q)
                assert len(calls) == (0 if result.verdict else 1), (fan.name, d.coeffs, q)
                verdicts.add(result.verdict)
    assert verdicts == {True, False}


def test_persists_matches_the_lp_on_acceptance_classes(example_fans):
    # criterion 5's seeded classes: every q-ample obstruction pattern (a bad
    # subset strict) and every B+ escape pattern (a cone tight)
    outcomes = set()
    for fan in example_fans:
        ample = default_ample(fan)
        patterns = [(s, ()) for entries in bad_subsets(fan) for s, _ in entries]
        patterns += [((), tau) for tau in fan.cones]
        for d in random_divisors(fan, 200, seed="acceptance5"):
            for strict, tight in patterns:
                fm = _persists(d, ample, strict, tight)
                assert fm == lp_persists(d, ample, strict, tight), (fan.name, d.coeffs, strict, tight)
                outcomes.add(fm)
    assert outcomes == {True, False}
