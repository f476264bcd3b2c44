"""Slopes, quotient slopes, destabilizing quadratic, margin identity."""

from fractions import Fraction

import pytest

from fanoslope import slope
from fanoslope.blowup import CurveScenario
from fanoslope.errors import (
    DimensionTooSmall,
    FanoslopeError,
    NotAnticanonical,
    ZeroDenominator,
)
from fanoslope.exactnum import Polynomial
from fanoslope.slope import (
    destabilizing_quadratic,
    fano_quadratic_at_degree,
    leading_deficit_poly,
    manifold_slope,
    margin_factorization_residual,
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
    assert report.numerator == 108
    assert report.denominator == 30
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
