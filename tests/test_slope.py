"""Slopes, quotient slopes, destabilizing quadratic, margin identity."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from fanoslope import slope
from fanoslope.blowup import (
    CurveScenario,
    hilbert_leading_poly,
    hilbert_subleading_poly,
)
from fanoslope.errors import (
    DimensionTooSmall,
    FanoslopeError,
    NotAnticanonical,
    ZeroDenominator,
)
from fanoslope.exactnum import Polynomial
from fanoslope.slope import (
    destabilizing_quadratic,
    manifold_slope,
    quotient_slope,
    quotient_slope_via_integrals,
)

from generators import (
    consistency_cap,
    consistent_lambda,
    make_rng,
    random_anticanonical_scenario,
    random_general_scenario,
)
from paper_formulas import (
    fano_quadratic_at_degree,
    leading_deficit_poly,
    margin_factorization_residual,
    subleading_deficit_poly,
)
import polynomial_oracle


# -- manifold slope --------------------------------------------------------


def test_slope_general_polarization():
    s = CurveScenario(3, 0, 1, -1, Fraction(2), Fraction(-4))
    assert manifold_slope(s) == 3


def test_slope_is_half_dimension_for_anticanonical():
    for n in range(2, 11):
        s = CurveScenario.anticanonical_curve(n, 0, 1, 7 * n)
        assert manifold_slope(s) == Fraction(n, 2)


def test_slope_del_pezzo_surface():
    # degree-4 del Pezzo: n = 2, so the slope is 1 like any anticanonical
    # surface; the formula leaves no room for anything else
    s = CurveScenario(2, 0, 1, 0, Fraction(4), Fraction(-4), anticanonical=False)
    assert manifold_slope(s) == 1


# -- quotient slope, both routes -------------------------------------------


def test_quotient_slope_isolated_values():
    s = CurveScenario.anticanonical_curve(3, 0, 1, 22)
    report = quotient_slope(s, Fraction(1), cross_check=True)
    assert report.value == Fraction(18, 5)
    assert report.via_integral == Fraction(18, 5)

    t = CurveScenario.anticanonical_curve(3, 0, 2, 48)
    assert quotient_slope(t, Fraction(3)).value == Fraction(3, 2)


def test_quotient_slope_at_dimension_for_degree_two():
    # p = 0, d = 2: the value at lambda = n is exactly the manifold slope
    for n in range(3, 9):
        s = CurveScenario.anticanonical_curve(n, 0, 2, 100)
        assert quotient_slope(s, Fraction(n)).value == Fraction(n, 2)


def test_quotient_slope_rejects_small_dimension_and_bad_lambda():
    flat = CurveScenario(2, 0, 1, 0, Fraction(8), Fraction(-6))
    with pytest.raises(DimensionTooSmall):
        quotient_slope(flat, Fraction(1))
    s = CurveScenario.anticanonical_curve(3, 0, 1, 22)
    with pytest.raises(ValueError):
        quotient_slope(s, Fraction(0))
    with pytest.raises(ValueError):
        quotient_slope(s, Fraction(-2))


@pytest.mark.parametrize("lam", [0.5, 0.1, "1/2", "2"])
def test_quotient_slope_refuses_non_rational_twists(lam):
    s = CurveScenario.anticanonical_curve(3, 0, 1, 22)
    with pytest.raises(TypeError):
        quotient_slope(s, lam)
    with pytest.raises(TypeError):
        quotient_slope_via_integrals(s, lam)


def test_quotient_slope_takes_ints_and_fractions_alike():
    s = CurveScenario.anticanonical_curve(3, 0, 1, 22)
    assert quotient_slope(s, 1, cross_check=True) == quotient_slope(
        s, Fraction(1), cross_check=True
    )


def test_cross_check_raises_when_the_routes_disagree(monkeypatch):
    s = CurveScenario.anticanonical_curve(3, 0, 1, 22)
    monkeypatch.setattr(
        slope, "quotient_slope_via_integrals", lambda scenario, lam: Fraction(7)
    )
    assert quotient_slope(s, Fraction(1)).value == Fraction(18, 5)
    with pytest.raises(ArithmeticError, match=r"lambda = 1: .*18/5.* 7$") as raised:
        quotient_slope(s, Fraction(1), cross_check=True)
    assert not isinstance(raised.value, FanoslopeError)


class FractionSubclass(Fraction):
    """Not exactly a Fraction: the routes read it as the Fraction it equals."""


class IntSubclass(int):
    """Not exactly an int."""


@pytest.mark.parametrize(
    "n, genus, degree, ln, lam",
    [(3, 0, 1, 22, Fraction(1)), (5, 1, 3, 3125, Fraction(3, 7)), (4, 0, 2, 100, 4)],
)
def test_every_exact_form_of_a_twist_gives_the_same_report(n, genus, degree, ln, lam):
    s = CurveScenario.anticanonical_curve(n, genus, degree, ln)
    quadratic = destabilizing_quadratic(s)
    want = quotient_slope(s, Fraction(lam), cross_check=True)
    forms = [FractionSubclass(lam)]
    if Fraction(lam).denominator == 1:
        forms += [int(lam), IntSubclass(lam)]
    for form in forms:
        report = quotient_slope(s, form, cross_check=True)
        assert report == want and type(report.lam) is Fraction
        assert [type(field) for field in report] == [Fraction] * 3
        assert quotient_slope_via_integrals(s, form) == want.via_integral
        assert quadratic(form) == quadratic(Fraction(lam))
        assert type(quadratic(form)) is Fraction


def test_an_equal_route_value_of_another_type_agrees(monkeypatch):
    s = CurveScenario.anticanonical_curve(4, 0, 2, 100)
    assert quotient_slope(s, Fraction(4)).value == 2  # an integer mu_lambda
    monkeypatch.setattr(slope, "quotient_slope_via_integrals", lambda scenario, lam: 2)
    report = quotient_slope(s, Fraction(4), cross_check=True)
    assert report.via_integral == 2 and type(report.via_integral) is int


@pytest.mark.parametrize("route", [3, Fraction(5, 2), Fraction(2, 3), Fraction(3, 1)])
def test_any_unequal_route_value_raises_in_the_same_words(monkeypatch, route):
    # Fraction(5, 2) differs from 2 in both integers, 2/3 and 3 in one each
    s = CurveScenario.anticanonical_curve(4, 0, 2, 100)
    monkeypatch.setattr(
        slope, "quotient_slope_via_integrals", lambda scenario, lam: route
    )
    words = f"quotient slope at lambda = 4: closed form 2 but integral route {route}"
    with pytest.raises(ArithmeticError) as raised:
        quotient_slope(s, Fraction(4), cross_check=True)
    assert str(raised.value) == words


def test_a_report_is_the_record_its_constructor_builds():
    s = CurveScenario.anticanonical_curve(3, 0, 1, 22)
    for cross_check in (False, True):
        report = quotient_slope(s, Fraction(1), cross_check=cross_check)
        built = slope.QuotientSlopeReport(*report)
        assert type(report) is slope.QuotientSlopeReport
        assert report == built and hash(report) == hash(built)
        assert repr(report) == repr(built)
        assert report._replace(value=Fraction(2)) == built._replace(value=Fraction(2))
        assert report._asdict() == built._asdict()
    assert repr(report) == (
        "QuotientSlopeReport(lam=Fraction(1, 1), value=Fraction(18, 5), "
        "via_integral=Fraction(18, 5))"
    )


def test_quotient_slope_zero_denominator():
    s = CurveScenario(3, 0, 1, 4, Fraction(5), Fraction(-3))
    # (n+1)d - lambda*p = 4 - 4*lambda vanishes at lambda = 1
    with pytest.raises(ZeroDenominator):
        quotient_slope(s, Fraction(1))
    with pytest.raises(ZeroDenominator):
        quotient_slope_via_integrals(s, Fraction(1))


def _closed_form_oracle(scenario, lam):
    """The closed form as a chain of Fraction operations, as first written."""
    s = scenario
    n, d, p, g = s.n, s.degree, s.normal_degree, s.genus
    numerator = Fraction(
        n * n * (n * n - 1) * d
    ) - lam * n * (n + 1) * ((n - 2) * p + 2 * (g - 1))
    denominator = 2 * n * lam * (Fraction((n + 1) * d) - lam * p)
    if denominator == 0:
        raise ZeroDenominator(
            f"quotient-slope denominator vanishes at lambda = {lam}; "
            "the declared Seshadri range is inconsistent"
        )
    return numerator / denominator


@st.composite
def scenarios_and_twists(draw, max_n=12):
    """General and anticanonical scenarios with n from 3 to max_n, and a
    positive rational twist; sometimes the pole lambda = (n+1)d/p."""
    n = draw(st.integers(3, max_n))
    genus, degree = draw(st.integers(0, 6)), draw(st.integers(1, 40))
    ln = Fraction(draw(st.integers(1, 500)), draw(st.integers(1, 7)))
    if draw(st.booleans()):
        s = CurveScenario.anticanonical_curve(n, genus, degree, ln)
    else:
        k_ln1 = Fraction(draw(st.integers(-500, 500)), draw(st.integers(1, 7)))
        s = CurveScenario(n, genus, degree, draw(st.integers(-20, 40)), ln, k_ln1)
    if s.normal_degree > 0 and draw(st.booleans()):
        return s, Fraction((n + 1) * degree, s.normal_degree)
    return s, Fraction(draw(st.integers(1, 10**6)), draw(st.integers(1, 10**6)))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(scenarios_and_twists())
@example((CurveScenario(3, 0, 1, 4, Fraction(5), Fraction(-3)), Fraction(1)))
@example((CurveScenario.anticanonical_curve(12, 3, 7, 9), Fraction(65, 11)))
def test_integer_closed_form_matches_the_fraction_chain(case):
    s, lam = case
    try:
        expected = _closed_form_oracle(s, lam)
    except ZeroDenominator as oracle_error:
        with pytest.raises(ZeroDenominator) as raised:
            quotient_slope(s, lam)
        assert str(raised.value) == str(oracle_error)
        return
    report = quotient_slope(s, lam)
    assert report.value == expected
    assert type(report.value) is Fraction


def _fresh_integral_route(scenario, lam):
    """The integral route with every polynomial built anew for this call,
    from the package's deficits read into the oracle class."""
    ring = polynomial_oracle.Polynomial
    atilde0 = ring(leading_deficit_poly(scenario).coeffs)
    half_derivative = atilde0.differentiate() * Fraction(1, 2)
    integrand = ring(subleading_deficit_poly(scenario).coeffs) + half_derivative
    return integrand.integrate_from_zero()(lam) / atilde0.integrate_from_zero()(lam)


def test_cached_integral_route_matches_a_fresh_build_interleaved(route_builds):
    base = CurveScenario(4, 1, 3, 3, Fraction(7), Fraction(-7))
    twins = [  # each differs from base in the one field named
        CurveScenario(4, 1, 3, 3, Fraction(9), Fraction(-7)),  # ln
        CurveScenario(4, 1, 3, 3, Fraction(7, 2), Fraction(-7)),  # ln's denominator
        CurveScenario(4, 1, 3, 3, Fraction(7), Fraction(-5)),  # k_ln1
        CurveScenario(4, 1, 3, 3, Fraction(7), Fraction(-7, 2)),  # k_ln1's denominator
        CurveScenario(4, 1, 3, 3, Fraction(7), Fraction(-7), anticanonical=True),
        CurveScenario(5, 1, 3, 3, Fraction(7), Fraction(-7)),  # n
        CurveScenario(4, 0, 3, 3, Fraction(7), Fraction(-7)),  # genus
        CurveScenario(4, 1, 2, 3, Fraction(7), Fraction(-7)),  # degree
        CurveScenario(4, 1, 3, 2, Fraction(7), Fraction(-7)),  # normal_degree
    ]
    lams = (Fraction(1, 3), Fraction(1), Fraction(5, 4))
    expected = {
        (s, lam): _fresh_integral_route(s, lam) for s in [base, *twins] for lam in lams
    }
    for twin in twins:
        route_builds.clear()
        for lam in lams:
            for s in (base, twin):
                value = expected[s, lam]
                assert quotient_slope_via_integrals(s, lam) == value
                assert quotient_slope(s, lam, cross_check=True).via_integral == value
        # only the last scenario is kept: each switch builds again
        assert route_builds == [base, twin] * len(lams)


def test_small_dimension_raises_on_every_call():
    flat = CurveScenario(2, 0, 1, 0, Fraction(8), Fraction(-6))
    for _ in range(3):
        with pytest.raises(DimensionTooSmall):
            quotient_slope_via_integrals(flat, Fraction(1))
        with pytest.raises(DimensionTooSmall):
            slope._cached_deficit_integrals(flat)  # a failed build is not remembered
        with pytest.raises(DimensionTooSmall):
            quotient_slope(flat, Fraction(1), cross_check=True)


def test_the_integral_cache_keeps_the_last_scenario_only(route_builds):
    scenarios = [
        CurveScenario(3 + i % 7, i % 3, 1 + i, 2, Fraction(7 + i, 1 + i % 4), -5)
        for i in range(10)
    ]
    for s in scenarios:
        quotient_slope_via_integrals(s, Fraction(1, 3))
    assert route_builds == scenarios  # the count sees each build
    route_builds.clear()
    last = scenarios[-1]
    kept = slope._last_integrals
    assert kept[0] is last
    flat = CurveScenario(2, 0, 1, 0, Fraction(8), Fraction(-6))
    with pytest.raises(DimensionTooSmall):
        slope._cached_deficit_integrals(flat)
    assert slope._last_integrals is kept  # a failed build is not stored
    route_builds.clear()
    for lam in (Fraction(1, 3), Fraction(1), Fraction(5, 2)):
        quotient_slope_via_integrals(last, lam)
    assert route_builds == []
    # an equal scenario that is another object is built again, and then kept
    twin = CurveScenario(*last)
    assert twin == last and twin is not last
    for _ in range(2):
        assert quotient_slope_via_integrals(twin, Fraction(1, 3)) == (
            _fresh_integral_route(last, Fraction(1, 3))
        )
    assert route_builds == [twin]
    quotient_slope_via_integrals(scenarios[-2], Fraction(1, 3))
    assert route_builds == [twin, scenarios[-2]]
    assert slope._last_integrals[0] is scenarios[-2]


def test_closed_form_equals_integral_route_randomized():
    rng = make_rng(101)
    for _ in range(120):
        s = random_general_scenario(rng, n_hi=12)
        lam = consistent_lambda(rng, s)
        assert quotient_slope(s, lam).value == quotient_slope_via_integrals(s, lam)


def test_deficit_polys_vanish_at_zero():
    rng = make_rng(103)
    for _ in range(20):
        s = random_general_scenario(rng, n_hi=12)
        assert leading_deficit_poly(s)(Fraction(0)) == 0
        assert subleading_deficit_poly(s)(Fraction(0)) == 0


def test_leading_deficit_positive_on_consistent_range():
    rng = make_rng(107)
    for _ in range(100):
        s = random_general_scenario(rng, n_hi=12)
        x = consistent_lambda(rng, s)
        assert leading_deficit_poly(s)(x) > 0


# -- destabilizing quadratic -----------------------------------------------


def test_quadratic_specializations_anticanonical_genus_zero():
    for n in range(3, 8):
        degree_two = CurveScenario.anticanonical_curve(n, 0, 2, 10)
        m = n * n - 1
        assert destabilizing_quadratic(degree_two) == Polynomial(
            [2 * n * m, -2 * m]
        )
        degree_one = CurveScenario.anticanonical_curve(n, 0, 1, 10)
        assert destabilizing_quadratic(degree_one) == Polynomial([n * m, 0, -n])


def test_quadratic_sign_matches_slope_comparison():
    rng = make_rng(109)
    for _ in range(150):
        s = random_general_scenario(rng)
        lam = consistent_lambda(rng, s)
        f = destabilizing_quadratic(s)(lam)
        gap = quotient_slope(s, lam).value - manifold_slope(s)
        assert (f > 0) == (gap > 0)
        assert (f == 0) == (gap == 0)


def test_boundary_value_matches_quadratic_and_vanishing():
    for n in range(3, 11):
        for p in range(-1, n + 1):
            s = CurveScenario.anticanonical_curve(n, 0, p + 2, 9)
            direct = destabilizing_quadratic(s)(Fraction(p + 2))
            assert fano_quadratic_at_degree(n, p) == direct
            assert (direct == 0) == (p == n - 1)
    with pytest.raises(DimensionTooSmall):
        fano_quadratic_at_degree(2, 0)


def test_boundary_value_isolated_examples():
    assert fano_quadratic_at_degree(4, 1) == 36
    assert fano_quadratic_at_degree(3, 3) == 25
    assert fano_quadratic_at_degree(5, 4) == 0


# -- margin factorization --------------------------------------------------


def test_margin_residual_is_zero_for_anticanonical():
    rng = make_rng(113)
    for _ in range(60):
        s = random_anticanonical_scenario(rng)
        for k in range(s.n + 2):  # enough points to pin the polynomial
            assert margin_factorization_residual(s, Fraction(k, 3)) == 0


@pytest.mark.parametrize("genus, degree", [(0, 2), (0, 13), (1, 5)])
def test_both_routes_agree_at_a_twist_of_four_hundred_digits(genus, degree):
    # far outside the hypothesis ranges: a 12-fold's deficit integrals
    # evaluated at a/b with a and b of about 400 digits each
    s = CurveScenario.anticanonical_curve(12, genus, degree, 1000)
    lam = Fraction(2 * 10**399 + 1, 3**839 + 2)
    assert len(str(lam.numerator)) == 400 and len(str(lam.denominator)) == 401
    report = quotient_slope(s, lam, cross_check=True)
    assert report.via_integral == report.value == _closed_form_oracle(s, lam)
    assert margin_factorization_residual(s, lam) == 0


@pytest.mark.parametrize("x", [0.1, 1.0, "1/3"])
def test_margin_residual_refuses_non_rational_points(x):
    s = CurveScenario.anticanonical_curve(3, 0, 1, 22)
    with pytest.raises(TypeError):
        margin_factorization_residual(s, x)


def test_margin_residual_requires_anticanonical():
    s = CurveScenario(3, 0, 1, -1, Fraction(2), Fraction(-4))
    with pytest.raises(NotAnticanonical):
        margin_factorization_residual(s, Fraction(1))


def test_high_genus_curves_never_destabilize_on_consistent_range():
    # the factored margin keeps the quadratic positive up to the
    # consistency cap whenever the genus is positive
    rng = make_rng(127)
    for _ in range(80):
        s = random_anticanonical_scenario(rng)
        if s.genus == 0:
            continue
        cap = consistency_cap(s)
        quadratic = destabilizing_quadratic(s)
        for k in range(1, 11):
            assert quadratic(cap * Fraction(k, 10)) > 0


# -- the integral route against the rational-coefficient polynomials --------
#
# tests/polynomial_oracle.py keeps the integral route as it was built on a
# Polynomial with Fraction coefficients; the route on integer numerators
# must give the same polynomials, values, types and messages.


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(scenarios_and_twists(max_n=40))  # the route alone: n beyond the benchmark's 12
@example((CurveScenario(3, 0, 1, 4, Fraction(5), Fraction(-3)), Fraction(1)))
@example((CurveScenario.anticanonical_curve(12, 3, 7, 9), Fraction(65, 11)))
@example((CurveScenario.anticanonical_curve(3, 0, 4, 64), Fraction(8)))  # the pole
# p = 0: int atilde0 is one term
@example((CurveScenario.anticanonical_curve(5, 0, 2, 7776), Fraction(3, 7)))
# 2g - 2 + (n-2)p = 0 cancels the integrand's x**(n-1) term: the line in
# projective 3-space, and a rational curve with p = 1 in projective 4-space
@example((CurveScenario.anticanonical_curve(3, 0, 4, 64), Fraction(3)))
@example((CurveScenario.anticanonical_curve(4, 0, 3, 625), Fraction(2)))
@example((CurveScenario.anticanonical_curve(40, 2, 9, 10**60), Fraction(10**30 + 1, 7)))
def test_integral_route_matches_the_rational_coefficient_route(case):
    s, lam = case
    try:
        expected = polynomial_oracle.quotient_slope_via_integrals(s, lam)
    except ZeroDenominator as oracle_error:
        with pytest.raises(ZeroDenominator) as raised:
            quotient_slope_via_integrals(s, lam)
        assert str(raised.value) == str(oracle_error)
        return
    value = quotient_slope_via_integrals(s, lam)
    assert value == expected and type(value) is Fraction


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(scenarios_and_twists())
def test_route_polynomials_match_the_rational_coefficient_ones(case):
    s, _ = case
    integrals = slope._deficit_integrals(s)
    # each antiderivative is x**low * band / den, its band starting and
    # ending at a non-zero term
    assert all(band[0] and band[-1] for _, band, _ in integrals)
    built = [
        hilbert_leading_poly(s),
        hilbert_subleading_poly(s),
        leading_deficit_poly(s),
        subleading_deficit_poly(s),
        *[Polynomial([0] * low + list(band), den) for low, band, den in integrals],
        destabilizing_quadratic(s),
    ]
    oracle = polynomial_oracle
    expected = [
        oracle.hilbert_leading_poly(s),
        oracle.hilbert_subleading_poly(s),
        oracle.leading_deficit_poly(s),
        oracle.subleading_deficit_poly(s),
        *oracle._deficit_integrals.__wrapped__(s),
        oracle.destabilizing_quadratic(s),
    ]
    assert [p.coeffs for p in built] == [p.coeffs for p in expected]
    assert all(type(c) is Fraction for p in built for c in p.coeffs)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(scenarios_and_twists(max_n=30))
def test_the_antiderivatives_start_one_power_apart(case):
    # the integral route divides the top band by lam**(bottom_low - top_low)
    # alone: int (atilde1 + atilde0'/2) starts at d*x**(n-1)/(2*(n-2)!), and
    # int atilde0 at d*x**n/n!, whatever the genus, normal degree and L
    s, _ = case
    n, d = s.n, s.degree
    (top_low, top_band, top_den), (bottom_low, bottom_band, bottom_den) = (
        slope._deficit_integrals(s)
    )
    assert (top_low, bottom_low) == (n - 1, n)
    assert Fraction(top_band[0], top_den) == Fraction(d, 2 * math.factorial(n - 2))
    assert Fraction(bottom_band[0], bottom_den) == Fraction(d, math.factorial(n))


def test_one_scenario_builds_one_polynomial(monkeypatch, route_builds):
    # the benchmark counts Polynomial.__init__ calls: on the sweep path a
    # scenario builds the quadratic through it, and the integral route reads
    # blowup's terms of a0 and a1, so neither it nor its antiderivatives
    # build one
    built = []
    real_init = Polynomial.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Polynomial, "__init__", counting_init)
    for s in (
        CurveScenario.anticanonical_curve(3, 0, 4, Fraction(64)),
        CurveScenario.anticanonical_curve(12, 3, 7, Fraction(9, 2)),
        CurveScenario(5, 2, 3, -4, Fraction(7, 3), Fraction(-5, 6)),
    ):
        built.clear()
        route_builds.clear()
        quadratic = destabilizing_quadratic(s)  # as perfbench's sweep runs it
        for lam in (Fraction(1, 3), Fraction(1, 2), Fraction(1)):
            quotient_slope(s, lam, cross_check=True)
            quadratic(lam)
        assert route_builds == [s]  # the route was built, once
        assert len(built) == 1 and built[0] is quadratic
