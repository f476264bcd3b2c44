"""Verdict cascade, degree regimes, bundle-side helpers."""

import itertools
from fractions import Fraction

import pytest

from fanoslope.blowup import CurveScenario
from fanoslope.classify import (
    BundleSplitting,
    ClassifyFlags,
    VerdictStatus,
    admissible_normal_bundle,
    classify_curve,
    degree_regime_verdict,
    fano_bundle_check,
    non_stable_shape_filter,
)
from fanoslope.errors import (
    DimensionTooSmall,
    NonRationalCurve,
    NotAnticanonical,
    ScenarioInconsistent,
    TooFewSummands,
    WrongRank,
)
from fanoslope.exactnum import Surd, compare
from fanoslope.seshadri import SeshadriEstimate
from fanoslope.slope import destabilizing_quadratic

from generators import make_rng


def anticanonical(n, degree, ln=60, genus=0):
    return CurveScenario.anticanonical_curve(n, genus, degree, ln)


def exact(value):
    return SeshadriEstimate.exactly(value)


# -- bundle splittings -----------------------------------------------------


def test_splitting_sorts_and_normalizes():
    b = BundleSplitting([3, -1, 2])
    assert b.twists == (-1, 2, 3)
    assert b.rank == 3
    assert b.normalized().twists == (0, 3, 4)


def test_fano_bundle_check_small_cases():
    assert fano_bundle_check(BundleSplitting([0, 0])).is_fano_projectivization
    report = fano_bundle_check(BundleSplitting([5, 6]))
    assert report.is_fano_projectivization  # normalizes to (0, 1)
    assert report.minus_k_dot_section == 1
    assert not fano_bundle_check(BundleSplitting([0, 2])).is_fano_projectivization
    with pytest.raises(TooFewSummands):
        fano_bundle_check(BundleSplitting([3]))


def test_fano_bundle_check_exhaustive_ranks():
    for k in range(2, 7):
        trivial = BundleSplitting([0] * k)
        assert fano_bundle_check(trivial).is_fano_projectivization
        assert fano_bundle_check(trivial).minus_k_dot_section == 2
        step = BundleSplitting([0] * (k - 1) + [1])
        assert fano_bundle_check(step).is_fano_projectivization
        assert fano_bundle_check(step).minus_k_dot_section == 1
        for twists in itertools.product(range(0, 3), repeat=k):
            b = BundleSplitting(twists)
            d = sum(b.normalized().twists)
            if d >= 2:
                assert not fano_bundle_check(b).is_fano_projectivization


def _admissible_oracle(twists):
    # alternative formulation: all differences from the minimum are zero,
    # or they sum to one with a single step of height one
    diffs = [t - min(twists) for t in twists]
    return sum(diffs) == 0 or (sum(diffs) == 1 and max(diffs) == 1)


def test_admissible_normal_bundle_exhaustive():
    for n in (3, 4, 5):
        for twists in itertools.product(range(-2, 3), repeat=n - 1):
            b = BundleSplitting(twists)
            assert admissible_normal_bundle(n, b) == _admissible_oracle(
                b.twists
            )


def test_admissible_normal_bundle_rank_check():
    with pytest.raises(WrongRank):
        admissible_normal_bundle(4, BundleSplitting([0, 0]))


def test_shape_filter():
    assert non_stable_shape_filter(5, BundleSplitting([0, 0, 0, 0])).passes
    assert not non_stable_shape_filter(
        5, BundleSplitting([-1, -1, -1, 0])
    ).passes
    assert non_stable_shape_filter(
        5, BundleSplitting([1, 1, 1, 1]), is_pn_line=True
    ).passes
    assert non_stable_shape_filter(3, BundleSplitting([-1, 0])).passes
    assert non_stable_shape_filter(3, BundleSplitting([0, 0])).passes
    assert not non_stable_shape_filter(3, BundleSplitting([-2, 0])).passes
    assert "O+O(-1)" in non_stable_shape_filter(3, BundleSplitting([0, 0])).allowed
    assert "O+O(-1)" not in non_stable_shape_filter(
        4, BundleSplitting([0, 0, 0])
    ).allowed
    with pytest.raises(DimensionTooSmall):
        non_stable_shape_filter(2, BundleSplitting([0]))
    with pytest.raises(WrongRank):
        non_stable_shape_filter(4, BundleSplitting([0, 0]))


# -- degree regimes --------------------------------------------------------


def test_degree_two_regime_trichotomy():
    for n in (3, 4, 5):
        s = anticanonical(n, 2)
        below = degree_regime_verdict(s, exact(Fraction(n) - Fraction(1, 1000)))
        assert below.status is VerdictStatus.STABLE
        at = degree_regime_verdict(s, exact(Fraction(n)))
        assert at.status is VerdictStatus.SEMISTABLE_NOT_STABLE
        assert at.witness_lambda == n
        above = degree_regime_verdict(s, exact(Fraction(n) + Fraction(1, 1000)))
        assert above.status is VerdictStatus.STRICTLY_DESTABILIZED
        assert destabilizing_quadratic(s)(above.witness_lambda) < 0


def test_degree_one_regime_surd_threshold():
    for n in (3, 4, 5):
        s = anticanonical(n, 1)
        t = Surd(0, 1, n * n - 1)
        at = degree_regime_verdict(s, exact(t))
        assert at.status is VerdictStatus.SEMISTABLE_NOT_STABLE
        assert at.witness_lambda == t
        assert compare(destabilizing_quadratic(s)(t), 0) == 0
        below = degree_regime_verdict(s, exact(t - Fraction(1, 1000)))
        assert below.status is VerdictStatus.STABLE
        above = degree_regime_verdict(s, exact(t + Fraction(1, 1000)))
        assert above.status is VerdictStatus.STRICTLY_DESTABILIZED
        assert compare(destabilizing_quadratic(s)(above.witness_lambda), 0) < 0


def test_degree_three_and_up_regime():
    line = anticanonical(3, 4, ln=64)  # d = n + 1
    at = degree_regime_verdict(line, exact(Fraction(4)))
    assert at.status is VerdictStatus.SEMISTABLE_NOT_STABLE
    assert at.witness_lambda == 4
    below = degree_regime_verdict(line, exact(Fraction(7, 2)))
    assert below.status is VerdictStatus.STABLE
    with pytest.raises(ScenarioInconsistent):
        degree_regime_verdict(line, exact(Fraction(5)))
    other = anticanonical(4, 4)  # d = 4 != n + 1 = 5
    assert (
        degree_regime_verdict(other, exact(Fraction(4))).status
        is VerdictStatus.STABLE
    )


def test_degree_regime_interval_estimates():
    s = anticanonical(3, 2)
    straddling = SeshadriEstimate(lower=Fraction(2), upper=Fraction(4))
    verdict = degree_regime_verdict(s, straddling)
    assert verdict.status is VerdictStatus.CONDITIONAL
    assert "epsilon < 3" in verdict.condition
    line = anticanonical(3, 4, ln=64)
    loose = SeshadriEstimate(lower=Fraction(3), upper=None)
    verdict = degree_regime_verdict(line, loose)
    assert verdict.status is VerdictStatus.CONDITIONAL
    assert "epsilon < 4" in verdict.condition
    certain = SeshadriEstimate(lower=Fraction(0), upper=Fraction(5, 2))
    assert (
        degree_regime_verdict(s, certain).status is VerdictStatus.STABLE
    )


def test_degree_regime_open_interval_convention():
    for n in (3, 4):
        s = anticanonical(n, 2)
        tie = degree_regime_verdict(s, exact(Fraction(n)), include_endpoint=False)
        assert tie.status is VerdictStatus.STABLE
        above = degree_regime_verdict(
            s, exact(Fraction(n + 1)), include_endpoint=False
        )
        assert above.status is VerdictStatus.STRICTLY_DESTABILIZED
        # the witness must sit strictly inside the open interval
        assert compare(above.witness_lambda, n + 1) < 0
        assert destabilizing_quadratic(s)(above.witness_lambda) < 0
    line = anticanonical(3, 4, ln=64)
    tie = degree_regime_verdict(line, exact(Fraction(4)), include_endpoint=False)
    assert tie.status is VerdictStatus.STABLE


def test_degree_regime_preconditions():
    with pytest.raises(NotAnticanonical):
        degree_regime_verdict(
            CurveScenario(3, 0, 2, 0, Fraction(10), Fraction(-4)),
            exact(Fraction(1)),
        )
    with pytest.raises(NonRationalCurve):
        degree_regime_verdict(anticanonical(3, 1, genus=1), exact(Fraction(1)))
    with pytest.raises(DimensionTooSmall):
        degree_regime_verdict(
            CurveScenario(2, 0, 2, 0, Fraction(8), Fraction(-8),
                          anticanonical=True),
            exact(Fraction(1)),
        )


def test_degree_regime_rejects_inconsistent_lower_bound():
    s = anticanonical(3, 4, ln=64)  # p = 2, cap at 4
    with pytest.raises(ScenarioInconsistent):
        degree_regime_verdict(s, SeshadriEstimate(lower=Fraction(9, 2)))


# -- the full cascade ------------------------------------------------------


def test_cascade_high_genus_first():
    s = anticanonical(3, 3, genus=2)
    verdict = classify_curve(s, SeshadriEstimate())
    assert verdict.status is VerdictStatus.STABLE
    assert verdict.rule.startswith("high-genus")


def test_cascade_codimension_cap():
    s = anticanonical(4, 2)
    verdict = classify_curve(s, SeshadriEstimate.at_most(Fraction(3)))
    assert verdict.status is VerdictStatus.STABLE
    assert verdict.rule.startswith("codimension-cap")


def test_cascade_picard_rank_one_excludes_projective_line():
    quintic_line = anticanonical(3, 1, ln=5)
    flags = ClassifyFlags(picard_rank_one=True)
    verdict = classify_curve(quintic_line, SeshadriEstimate(), flags)
    assert verdict.status is VerdictStatus.STABLE
    assert verdict.rule.startswith("picard-rank-one")

    line = anticanonical(3, 4, ln=64)
    flags = ClassifyFlags(is_pn=True, picard_rank_one=True)
    verdict = classify_curve(line, exact(Fraction(4)), flags)
    assert verdict.status is VerdictStatus.SEMISTABLE_NOT_STABLE
    assert verdict.witness_lambda == 4


def test_cascade_fano_index():
    s4 = anticanonical(4, 2)
    verdict = classify_curve(
        s4, SeshadriEstimate(), ClassifyFlags(fano_index=3)
    )
    assert verdict.status is VerdictStatus.STABLE
    assert verdict.rule.startswith("fano-index")
    # a threefold of index 3 qualifies as well
    s3 = anticanonical(3, 6, ln=54)
    verdict = classify_curve(
        s3, SeshadriEstimate(upper=Fraction(6)), ClassifyFlags(fano_index=3)
    )
    assert verdict.status is VerdictStatus.STABLE
    # index 2 certifies nothing; the regime rules take over
    s = anticanonical(3, 2)
    verdict = classify_curve(
        s, exact(Fraction(3)), ClassifyFlags(fano_index=2)
    )
    assert verdict.status is VerdictStatus.SEMISTABLE_NOT_STABLE


@pytest.mark.parametrize(
    "scenario, flags",
    [
        # genus 1, degree 3: p = 3 caps epsilon at (n-1)*d/p = 2
        (anticanonical(3, 3, genus=1), ClassifyFlags()),
        # degree 4 in a threefold: p = 2 caps epsilon at 4
        (anticanonical(3, 4, ln=64), ClassifyFlags(picard_rank_one=True)),
        # degree 3 in a fourfold: p = 1 caps epsilon at 9
        (anticanonical(4, 3), ClassifyFlags(fano_index=3)),
    ],
)
def test_cascade_rejects_inconsistent_data_before_any_rule(scenario, flags):
    with pytest.raises(ScenarioInconsistent):
        classify_curve(scenario, exact(Fraction(100)), flags)


def test_cascade_requires_anticanonical():
    with pytest.raises(NotAnticanonical):
        classify_curve(
            CurveScenario(3, 0, 2, 0, Fraction(10), Fraction(-4)),
            SeshadriEstimate(),
        )


def test_verdict_witness_coherence_randomized():
    rng = make_rng(211)
    checked = 0
    for _ in range(200):
        n = rng.randint(3, 7)
        d = rng.randint(1, 6)
        s = anticanonical(n, d, ln=rng.randint(2, 90))
        p = s.normal_degree
        if p > 0:
            cap = min(Fraction(d), Fraction((n - 1) * d, p))
        else:
            cap = Fraction(n + 2)
        eps = cap * Fraction(rng.randint(1, 14), 14)
        verdict = classify_curve(s, exact(eps))
        quadratic = destabilizing_quadratic(s)
        if verdict.status is VerdictStatus.STRICTLY_DESTABILIZED:
            assert compare(quadratic(verdict.witness_lambda), 0) < 0
            assert compare(verdict.witness_lambda, eps) <= 0
            checked += 1
        elif verdict.status is VerdictStatus.SEMISTABLE_NOT_STABLE:
            assert compare(quadratic(verdict.witness_lambda), 0) == 0
            checked += 1
        elif verdict.status is VerdictStatus.STABLE:
            for k in range(1, 8):
                assert quadratic(eps * Fraction(k, 7)) > 0
            checked += 1
    assert checked >= 150


def test_enlarging_epsilon_never_restores_stability():
    order = {
        VerdictStatus.STABLE: 0,
        VerdictStatus.SEMISTABLE_NOT_STABLE: 1,
        VerdictStatus.STRICTLY_DESTABILIZED: 2,
    }
    for n in (3, 4, 5):
        for d in (1, 2):
            s = anticanonical(n, d)
            if d == 1:
                t = Surd(0, 1, n * n - 1)
                ladder = [t - Fraction(1, 2), t, t + Fraction(1, 2)]
            else:
                ladder = [Fraction(n) - 1, Fraction(n), Fraction(n) + 1]
            ranks = [
                order[classify_curve(s, exact(eps)).status] for eps in ladder
            ]
            assert ranks == sorted(ranks)
