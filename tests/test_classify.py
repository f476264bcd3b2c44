"""Verdict cascade, degree regimes, bundle-side helpers."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from fanoslope.blowup import CurveScenario, check_epsilon_consistency
from fanoslope.classify import (
    BundleSplitting,
    ClassifyFlags,
    Verdict,
    VerdictStatus,
    _stable,
    admissible_normal_bundle,
    classify_curve,
    fano_bundle_check,
    non_stable_shape_filter,
)
from fanoslope.errors import (
    DimensionTooSmall,
    FanoslopeError,
    InvalidScenario,
    NotAnticanonical,
    ScenarioInconsistent,
    TooFewSummands,
    WrongRank,
)
from fanoslope.exactnum import Surd, compare, render_value
from fanoslope.seshadri import SeshadriEstimate, point_upper_bound
from fanoslope.slope import destabilizing_quadratic

import verdict_oracle
from generators import make_rng
from paper_formulas import fano_quadratic_at_degree


def anticanonical(n, degree, ln=60, genus=0):
    return CurveScenario.anticanonical_curve(n, genus, degree, ln)


def exact(value):
    return SeshadriEstimate(value, value)


# -- bundle splittings -----------------------------------------------------


def test_splitting_sorts_and_normalizes():
    b = BundleSplitting([3, -1, 2])
    assert b.twists == (-1, 2, 3)
    assert b.rank == 3
    assert b.normalized().twists == (0, 3, 4)
    with pytest.raises(ValueError, match="at least one summand"):
        BundleSplitting([])


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


@pytest.mark.parametrize(
    "build",
    [
        lambda: BundleSplitting([1.7]),
        lambda: BundleSplitting(["2"]),
        lambda: BundleSplitting([True]),
        lambda: BundleSplitting([Fraction(2)]),
        lambda: non_stable_shape_filter(4, BundleSplitting([0, 0, 0]), is_pn_line="no"),
        lambda: non_stable_shape_filter(4, BundleSplitting([0, 0, 0]), is_pn_line=1),
        lambda: non_stable_shape_filter(4.0, BundleSplitting([0, 0, 0])),
        lambda: admissible_normal_bundle(4.0, BundleSplitting([0, 0, 0])),
        lambda: admissible_normal_bundle(True, BundleSplitting([0])),
        lambda: fano_quadratic_at_degree(3, 0.5),
        lambda: fano_quadratic_at_degree(3.0, 1),
        lambda: point_upper_bound(3, "false"),
        lambda: point_upper_bound(3, 1),
        lambda: classify_curve(
            anticanonical(3, 4), exact(Fraction(4)), include_endpoint="false"
        ),
    ],
)
def test_bundle_helpers_refuse_what_they_would_reinterpret(build):
    # int() would read 1.7 as 1 and "2" as 2; "no" would pass as a true flag
    with pytest.raises(TypeError, match="must be"):
        build()


def test_classify_flags_refuse_truthy_strings_and_non_integers():
    line = anticanonical(4, 5)  # the line in P4, epsilon = d = n + 1
    flags = ClassifyFlags(is_pn=False, picard_rank_one=True)
    verdict = classify_curve(line, exact(Fraction(5)), flags)
    assert verdict.status is VerdictStatus.STABLE
    assert verdict.rule.startswith("picard-rank-one")
    for bad in (
        {"is_pn": "false", "picard_rank_one": True},
        {"picard_rank_one": 1},
        {"fano_index": 3.5},
        {"fano_index": True},
        {"fano_index": "3"},
    ):
        with pytest.raises(InvalidScenario):
            ClassifyFlags(**bad)


# -- degree regimes --------------------------------------------------------


def regime_verdict(scenario, estimate, include_endpoint=True):
    """classify_curve on an estimate that no structural rule decides."""
    verdict = classify_curve(scenario, estimate, include_endpoint=include_endpoint)
    assert verdict.rule.startswith("degree-regime"), verdict.rule
    return verdict


def test_degree_two_regime_trichotomy():
    for n in (3, 4, 5):
        s = anticanonical(n, 2)
        below = regime_verdict(s, exact(Fraction(n) - Fraction(1, 1000)))
        assert below.status is VerdictStatus.STABLE
        at = regime_verdict(s, exact(Fraction(n)))
        assert at.status is VerdictStatus.SEMISTABLE_NOT_STABLE
        assert at.witness_lambda == n
        above = regime_verdict(s, exact(Fraction(n) + Fraction(1, 1000)))
        assert above.status is VerdictStatus.STRICTLY_DESTABILIZED
        assert destabilizing_quadratic(s)(above.witness_lambda) < 0


def test_degree_one_regime_surd_threshold():
    for n in (3, 4, 5):
        s = anticanonical(n, 1)
        t = Surd(0, 1, n * n - 1)
        at = regime_verdict(s, exact(t))
        assert at.status is VerdictStatus.SEMISTABLE_NOT_STABLE
        assert at.witness_lambda == t
        assert compare(destabilizing_quadratic(s)(t), 0) == 0
        below = regime_verdict(s, exact(t - Fraction(1, 1000)))
        assert below.status is VerdictStatus.STABLE
        above = regime_verdict(s, exact(t + Fraction(1, 1000)))
        assert above.status is VerdictStatus.STRICTLY_DESTABILIZED
        assert compare(destabilizing_quadratic(s)(above.witness_lambda), 0) < 0


def test_degree_three_and_up_regime():
    line = anticanonical(3, 4, ln=64)  # d = n + 1
    at = regime_verdict(line, exact(Fraction(4)))
    assert at.status is VerdictStatus.SEMISTABLE_NOT_STABLE
    assert at.witness_lambda == 4
    below = regime_verdict(line, exact(Fraction(7, 2)))
    assert below.status is VerdictStatus.STABLE
    with pytest.raises(ScenarioInconsistent):
        regime_verdict(line, exact(Fraction(5)))
    other = anticanonical(4, 4)  # d = 4 != n + 1 = 5
    assert (
        regime_verdict(other, exact(Fraction(4))).status
        is VerdictStatus.STABLE
    )


def test_degree_regime_interval_estimates():
    s = anticanonical(3, 2)
    straddling = SeshadriEstimate(lower=Fraction(2), upper=Fraction(4))
    verdict = regime_verdict(s, straddling)
    assert verdict.status is VerdictStatus.CONDITIONAL
    assert "epsilon < 3" in verdict.condition
    line = anticanonical(3, 4, ln=64)
    loose = SeshadriEstimate(lower=Fraction(3), upper=None)
    verdict = regime_verdict(line, loose)
    assert verdict.status is VerdictStatus.CONDITIONAL
    assert "epsilon < 4" in verdict.condition
    certain = SeshadriEstimate(lower=Fraction(0), upper=Fraction(5, 2))
    assert (
        regime_verdict(s, certain).status is VerdictStatus.STABLE
    )


def test_degree_regime_open_interval_convention():
    for n in (3, 4):
        s = anticanonical(n, 2)
        tie = regime_verdict(s, exact(Fraction(n)), include_endpoint=False)
        assert tie.status is VerdictStatus.STABLE
        above = regime_verdict(
            s, exact(Fraction(n + 1)), include_endpoint=False
        )
        assert above.status is VerdictStatus.STRICTLY_DESTABILIZED
        # the witness must sit strictly inside the open interval
        assert compare(above.witness_lambda, n + 1) < 0
        assert destabilizing_quadratic(s)(above.witness_lambda) < 0
    line = anticanonical(3, 4, ln=64)
    tie = regime_verdict(line, exact(Fraction(4)), include_endpoint=False)
    assert tie.status is VerdictStatus.STABLE


def test_degree_regime_preconditions():
    with pytest.raises(NotAnticanonical):
        regime_verdict(
            CurveScenario(3, 0, 2, 0, Fraction(10), Fraction(-4)),
            exact(Fraction(3)),
        )
    # exact(2) passes the codimension cap n - 1 = 1, so the dimension decides
    with pytest.raises(DimensionTooSmall, match="ambient dimension >= 3"):
        regime_verdict(
            CurveScenario(2, 0, 2, 0, Fraction(8), Fraction(-8),
                          anticanonical=True),
            exact(Fraction(2)),
        )


def test_degree_regime_rejects_inconsistent_lower_bound():
    s = anticanonical(3, 4, ln=64)  # p = 2, cap at 4
    with pytest.raises(ScenarioInconsistent):
        regime_verdict(s, SeshadriEstimate(lower=Fraction(9, 2)))


# -- the full cascade ------------------------------------------------------


def test_cascade_high_genus_first():
    s = anticanonical(3, 3, genus=2)
    verdict = classify_curve(s, SeshadriEstimate())
    assert verdict.status is VerdictStatus.STABLE
    assert verdict.rule.startswith("high-genus")


def test_cascade_codimension_cap():
    s = anticanonical(4, 2)
    verdict = classify_curve(s, SeshadriEstimate(upper=Fraction(3)))
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


def test_cascade_reports_inconsistency_before_the_polarization():
    # p = 5 caps epsilon at (n-1)*d/p = 9/5: the data contradict themselves,
    # which is the graver fault, whatever the polarization
    general = CurveScenario(4, 2, 3, 5, Fraction(7, 2), Fraction(-9, 4))
    with pytest.raises(NotAnticanonical):
        classify_curve(general, exact(Fraction(9, 5)))
    with pytest.raises(ScenarioInconsistent):
        classify_curve(general, exact(Fraction(2)))


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


def test_the_moving_curve_bound_is_part_of_the_gate():
    s = anticanonical(6, 3)  # p = 1: the ampleness cap is 15, the degree 3
    check_epsilon_consistency(s, Fraction(3))
    with pytest.raises(ScenarioInconsistent) as error:
        check_epsilon_consistency(s, Fraction(4))
    assert str(error.value) == (
        "a rational curve of anticanonical degree 3 has epsilon <= 3; the "
        "declared lower bound exceeds that"
    )
    # a value past both bounds gets the ampleness message
    with pytest.raises(ScenarioInconsistent, match="no ample class"):
        check_epsilon_consistency(s, Fraction(16))
    # the bound needs a rational anticanonical curve of degree at least 3
    for other in (
        anticanonical(6, 2),
        anticanonical(6, 3, genus=1),
        CurveScenario(6, 0, 3, 1, Fraction(10), Fraction(-4)),
    ):
        check_epsilon_consistency(other, Fraction(4))


@pytest.mark.parametrize(
    "estimate, flags",
    [
        # the codimension cap n - 1 = 5 would certify [4, 5]
        (SeshadriEstimate(Fraction(4), Fraction(5)), ClassifyFlags()),
        (SeshadriEstimate(Fraction(4)), ClassifyFlags(picard_rank_one=True)),
        (SeshadriEstimate(Fraction(4)), ClassifyFlags(fano_index=4)),
        (SeshadriEstimate(Fraction(4)), ClassifyFlags()),
    ],
)
def test_no_rule_certifies_an_epsilon_beyond_the_degree(estimate, flags):
    with pytest.raises(ScenarioInconsistent, match="degree 3 has epsilon <= 3"):
        classify_curve(anticanonical(6, 3), estimate, flags)


# -- the cascade against its predecessor -----------------------------------
#
# Until the moving-curve bound joined check_epsilon_consistency, the regime
# rules tested it on their own, after the structural rules, so those could
# certify an epsilon beyond the degree. That cascade is kept here as the
# oracle, with its own copy of the single-threshold routine it used for
# degrees 1 and 2: it agrees with classify_curve everywhere else.


def _oracle_gate(s, epsilon):
    p = s.normal_degree
    if p and compare(epsilon, Fraction((s.n - 1) * s.degree, p)) * p > 0:
        raise ScenarioInconsistent(
            "declared Seshadri value "
            f"{epsilon} makes (n-1)*d - epsilon*p negative; "
            "no ample class restricts that way"
        )


def _oracle_threshold_verdict(threshold, estimate, rule, include_endpoint):
    lo, hi = estimate.lower, estimate.upper
    t = threshold
    if include_endpoint:
        if hi is not None and compare(hi, t) < 0:
            return _stable(rule + ": epsilon stays below the threshold")
        exact = estimate.exact
        if exact is not None and compare(exact, t) == 0:
            return Verdict(
                status=VerdictStatus.SEMISTABLE_NOT_STABLE,
                rule=rule + ": epsilon equals the threshold",
                witness_lambda=t,
            )
        if compare(lo, t) > 0:
            return Verdict(
                status=VerdictStatus.STRICTLY_DESTABILIZED,
                rule=rule + ": epsilon exceeds the threshold",
                witness_lambda=lo,
            )
    else:
        if hi is not None and compare(hi, t) <= 0:
            return _stable(rule + ": open interval stops before the threshold")
        if compare(lo, t) > 0:
            return Verdict(
                status=VerdictStatus.STRICTLY_DESTABILIZED,
                rule=rule + ": epsilon exceeds the threshold",
                witness_lambda=(t + lo) / 2,
            )
    if include_endpoint:
        condition = (
            f"stable iff epsilon < {render_value(t)}; "
            f"semistable but not stable iff epsilon = {render_value(t)}; "
            f"strictly destabilized iff epsilon > {render_value(t)}"
        )
    else:
        condition = (
            f"stable iff epsilon <= {render_value(t)}; "
            f"strictly destabilized iff epsilon > {render_value(t)}"
        )
    return Verdict(
        status=VerdictStatus.CONDITIONAL,
        rule=rule + ": the estimate straddles the threshold",
        condition=condition,
    )


def _oracle_regime_verdict(s, estimate, include_endpoint):
    n, d, p = s.n, s.degree, s.normal_degree
    if p == 0:
        return _oracle_threshold_verdict(
            Fraction(n), estimate, "degree-regime(d=2)", include_endpoint
        )
    if p == -1:
        return _oracle_threshold_verdict(
            Surd(0, 1, n * n - 1), estimate, "degree-regime(d=1)", include_endpoint
        )
    if compare(estimate.lower, d) > 0:
        raise ScenarioInconsistent(
            f"a rational curve of anticanonical degree {d} has "
            f"epsilon <= {d}; the declared lower bound exceeds that"
        )
    rule = f"degree-regime(d>=3, d={d})"
    if d != n + 1:
        return _stable(rule + ": the quadratic is positive on (0, d]")
    if not include_endpoint:
        return _stable(rule + ": the only zero sits at the excluded endpoint")
    if estimate.upper is not None and compare(estimate.upper, d) < 0:
        return _stable(rule + ": epsilon stays below d = n + 1")
    if compare(estimate.lower, d) == 0:
        return Verdict(
            status=VerdictStatus.SEMISTABLE_NOT_STABLE,
            rule=rule + ": epsilon = d = n + 1",
            witness_lambda=Fraction(d),
        )
    return Verdict(
        status=VerdictStatus.CONDITIONAL,
        rule=rule + ": the estimate straddles d = n + 1",
        condition=(
            f"stable iff epsilon < {d}; "
            f"semistable but not stable iff epsilon = {d}"
        ),
    )


def _oracle_classify(s, estimate, flags, include_endpoint):
    _oracle_gate(s, estimate.lower)
    if not s.anticanonical:
        raise NotAnticanonical("stability verdicts assume L = -K_X")
    if s.genus >= 1:
        return _stable("high-genus: only rational curves can destabilize")
    if estimate.upper is not None and compare(estimate.upper, s.n - 1) <= 0:
        return _stable(
            "codimension-cap: epsilon <= n - 1 makes the stability margin "
            "positive"
        )
    if (
        flags.picard_rank_one
        and s.n >= 3
        and not (flags.is_pn and s.degree == s.n + 1)
    ):
        return _stable(
            "picard-rank-one: curves in Picard-rank-one Fanos are stable "
            "except the line in projective space " + flags.echo()
        )
    idx = flags.fano_index
    if idx is not None and (
        (s.n >= 4 and 3 <= idx <= s.n) or (s.n == 3 and idx == 3)
    ):
        return _stable(
            "fano-index: index between 3 and n certifies stability "
            + flags.echo()
        )
    if s.n < 3:
        raise DimensionTooSmall("degree regimes assume ambient dimension >= 3")
    return _oracle_regime_verdict(s, estimate, include_endpoint)


def _outcome(classify, *args):
    try:
        return classify(*args)
    except FanoslopeError as error:
        return type(error), str(error)


@st.composite
def _bounds(draw, n, degree):
    """A non-negative rational up to about n + d, or a surd on the radicand
    n*n - 1 near a multiple of sqrt(n*n - 1)."""
    if draw(st.booleans()):
        return Fraction((n + degree) * draw(st.integers(0, 16)), 12)
    coef = Fraction(draw(st.integers(1, 4)), 2)
    value = Surd(Fraction(draw(st.integers(-4 * n, 4 * n)), 4), coef, n * n - 1)
    return value if compare(value, 0) >= 0 else -value


@st.composite
def _anticanonical_cases(draw):
    n, degree = draw(st.integers(2, 9)), draw(st.integers(1, 10))
    s = anticanonical(
        n, degree, ln=draw(st.integers(1, 90)),
        genus=draw(st.sampled_from((0, 0, 0, 1, 2, 3))),
    )
    first = draw(_bounds(n, degree))
    second = draw(st.none() | _bounds(n, degree))
    if second is not None and compare(first, second) > 0:
        first, second = second, first
    flags = ClassifyFlags(
        draw(st.booleans()),
        draw(st.booleans()),
        draw(st.none() | st.integers(1, n + 1)),
    )
    return s, SeshadriEstimate(first, second), flags, draw(st.booleans())


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(_anticanonical_cases())
@example((anticanonical(6, 3), SeshadriEstimate(4, 5), ClassifyFlags(), True))
def test_classify_agrees_with_the_cascade_it_replaced(case):
    s, estimate, flags, include_endpoint = case
    got = _outcome(classify_curve, s, estimate, flags, include_endpoint)
    want = _outcome(_oracle_classify, s, estimate, flags, include_endpoint)
    d = s.degree
    beyond = s.genus == 0 and d >= 3 and compare(estimate.lower, d) > 0
    if not beyond or "no ample class" in str(want):
        assert got == want
    else:
        assert got == (
            ScenarioInconsistent,
            f"a rational curve of anticanonical degree {d} has epsilon <= {d}; "
            "the declared lower bound exceeds that",
        )


# -- the verdict against first principles ----------------------------------


@st.composite
def _consistent_cases(draw):
    """Flag-free anticanonical scenarios with a lower bound the caps allow;
    bounds are rational or lie in Q(sqrt(n*n - 1)), and are often exact."""
    n = draw(st.integers(3, 9))
    degree = draw(st.sampled_from((1, 2, n + 1)) | st.integers(1, n + 2))
    s = anticanonical(
        n, degree, ln=draw(st.sampled_from((1, 60))),
        genus=draw(st.just(0) | st.integers(0, 2)),
    )
    first = draw(st.one_of(
        _bounds(n, degree),
        st.integers(0, n + 2).map(Fraction),
        st.just(Surd(0, 1, n * n - 1)),
    ))
    second = draw(st.none() | st.just(first) | _bounds(n, degree))
    if second is not None and compare(first, second) > 0:
        first, second = second, first
    cap = verdict_oracle.epsilon_cap(s)
    if cap is not None and compare(first, Fraction(str(cap))) > 0:
        first = Fraction(str(cap)) * Fraction(draw(st.integers(0, 12)), 12)
    return s, SeshadriEstimate(first, second), draw(st.booleans())


@settings(max_examples=250, derandomize=True, database=None, deadline=None)
@given(_consistent_cases())
@example((anticanonical(3, 4, ln=64), exact(Fraction(4)), True))
@example((anticanonical(3, 4, ln=64), exact(Fraction(4)), False))
@example((anticanonical(3, 4, ln=64), SeshadriEstimate(Fraction(3)), True))
@example((anticanonical(4, 1), exact(Surd(0, 1, 15)), True))
@example((anticanonical(4, 1), SeshadriEstimate(Surd(0, 1, 15)), False))
@example((anticanonical(5, 2), SeshadriEstimate(Fraction(6)), False))
def test_classify_agrees_with_the_first_principles_oracle(case):
    s, estimate, include_endpoint = case
    verdict = classify_curve(s, estimate, include_endpoint=include_endpoint)
    assert verdict.status is verdict_oracle.oracle_status(
        s, estimate, include_endpoint
    )
    witness = verdict.witness_lambda
    if verdict.status is VerdictStatus.STRICTLY_DESTABILIZED:
        edge = compare(witness, estimate.lower)
        assert compare(witness, 0) > 0
        assert edge <= 0 if include_endpoint else edge < 0
        assert verdict_oracle.sign_at(s, witness) < 0
    elif verdict.status is VerdictStatus.SEMISTABLE_NOT_STABLE:
        assert verdict_oracle.sign_at(s, witness) == 0
    elif verdict.status is VerdictStatus.CONDITIONAL:
        threshold = verdict_oracle.condition_threshold(verdict.condition)
        assert verdict_oracle.sign_at(s, threshold) == 0
