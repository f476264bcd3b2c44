"""Slopes, quotient slopes, destabilizing quadratic, margin identity."""

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
    leading_deficit_poly,
    manifold_slope,
    quotient_slope,
    quotient_slope_via_integrals,
    subleading_deficit_poly,
)

from generators import (
    consistency_cap,
    consistent_lambda,
    make_rng,
    random_anticanonical_scenario,
    random_general_scenario,
)
from paper_formulas import fano_quadratic_at_degree, margin_factorization_residual
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
def scenarios_and_twists(draw):
    """General and anticanonical scenarios with n from 3 to 12, and a
    positive rational twist; sometimes the pole lambda = (n+1)d/p."""
    n = draw(st.integers(3, 12))
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
    """The integral route with every polynomial built anew for this call."""
    atilde0 = leading_deficit_poly(scenario)
    half_derivative = atilde0.differentiate() * Fraction(1, 2)
    integrand = subleading_deficit_poly(scenario) + half_derivative
    return integrand.integrate_from_zero()(lam) / atilde0.integrate_from_zero()(lam)


def test_cached_integral_route_matches_a_fresh_build_interleaved(monkeypatch):
    base = CurveScenario(4, 1, 3, 3, Fraction(7), Fraction(-7))
    twins = [  # each differs from base in the one field named
        CurveScenario(4, 1, 3, 3, Fraction(9), Fraction(-7)),  # ln
        CurveScenario(4, 1, 3, 3, Fraction(7), Fraction(-5)),  # k_ln1
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
    builds = []
    real_leading = slope.hilbert_leading_poly
    monkeypatch.setattr(
        slope, "hilbert_leading_poly", lambda s: builds.append(s) or real_leading(s)
    )
    for twin in twins:
        slope._deficit_integrals.cache_clear()
        builds.clear()
        for lam in lams:
            for s in (base, twin):
                value = expected[s, lam]
                assert quotient_slope_via_integrals(s, lam) == value
                assert quotient_slope(s, lam, cross_check=True).via_integral == value
        # one build for each of the two: the cache key tells them apart
        assert builds == [base, twin]


def test_small_dimension_raises_on_every_call():
    flat = CurveScenario(2, 0, 1, 0, Fraction(8), Fraction(-6))
    for _ in range(3):
        with pytest.raises(DimensionTooSmall):
            quotient_slope_via_integrals(flat, Fraction(1))
        with pytest.raises(DimensionTooSmall):
            slope._deficit_integrals(flat)  # a failed build is not remembered
        with pytest.raises(DimensionTooSmall):
            quotient_slope(flat, Fraction(1), cross_check=True)


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
@given(scenarios_and_twists())
@example((CurveScenario(3, 0, 1, 4, Fraction(5), Fraction(-3)), Fraction(1)))
@example((CurveScenario.anticanonical_curve(12, 3, 7, 9), Fraction(65, 11)))
@example((CurveScenario.anticanonical_curve(3, 0, 4, 64), Fraction(8)))  # the pole
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
    built = [
        hilbert_leading_poly(s),
        hilbert_subleading_poly(s),
        leading_deficit_poly(s),
        subleading_deficit_poly(s),
        *slope._deficit_integrals.__wrapped__(s),
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


def test_one_scenario_builds_ten_polynomials(monkeypatch):
    # the benchmark counts Polynomial.__init__ calls; every polynomial of the
    # route must be built through it, ten per scenario as before
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
        slope._deficit_integrals.__wrapped__(s)
        destabilizing_quadratic(s)
        assert len(built) == 10
