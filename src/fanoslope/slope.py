"""Slopes and quotient slopes for polarized manifolds blown up along curves.

The slope of (X, L) is mu = -n * K.L**(n-1) / (2 * L**n); for an
anticanonical polarization this is always n/2, but it is recomputed from the
scenario every time rather than special-cased, so the two paths can be checked
against each other.

The quotient slope mu_lam compares the ideal-sheaf quotient against mu up to
the twist lam. Writing atilde_i(x) = a_i(0) - a_i(x) for the Hilbert
coefficient deficits, it is

    mu_lam = int_0^lam (atilde1 + atilde0'/2) dx / int_0^lam atilde0 dx

and the integrals collapse to the closed form

    mu_lam = (n**2*(n**2-1)*d - lam*n*(n+1)*((n-2)*p + 2*(g-1)))
             / (2*n*lam*((n+1)*d - lam*p)).

Both routes are implemented; the integral route exists purely so the closed
form never has to be trusted on its own.

Z destabilizes at lam exactly when mu_lam <= mu, which after clearing the
(positive) denominator is the sign condition on a single quadratic in lam,
:func:`destabilizing_quadratic`.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .blowup import (
    exceptional_restriction_poly,
    hilbert_leading_poly,
    hilbert_subleading_poly,
)
from .errors import DimensionTooSmall, NotAnticanonical, ZeroDenominator
from .exactnum import Polynomial, _require_int, _require_rational

__all__ = [
    "manifold_slope",
    "QuotientSlopeReport",
    "quotient_slope",
    "quotient_slope_via_integrals",
    "leading_deficit_poly",
    "subleading_deficit_poly",
    "destabilizing_quadratic",
    "fano_quadratic_at_degree",
    "margin_factorization_residual",
]


def manifold_slope(scenario):
    """mu(X, L) = -n * K.L**(n-1) / (2 * L**n)."""
    s = scenario
    return Fraction(-s.n) * s.k_ln1 / (2 * s.ln)


class QuotientSlopeReport(namedtuple(
    "QuotientSlopeReport",
    "lam value numerator denominator via_integral",
    defaults=(None,),
)):
    """Exact record of one quotient-slope evaluation, every field a Fraction.

    via_integral, when populated, holds the independently computed integral
    route value and must coincide with value.
    """

    __slots__ = ()


def _require_dimension(scenario):
    if scenario.n < 3:
        raise DimensionTooSmall(
            "quotient slopes for curves need ambient dimension >= 3"
        )


def _require_positive(lam):
    lam = _require_rational(lam, "the twist lambda")
    if lam <= 0:
        raise ValueError("the twist lambda must be positive")
    return lam


def quotient_slope(scenario, lam, cross_check=False):
    """Closed-form quotient slope at a rational twist lam > 0.

    Returns a QuotientSlopeReport. With cross_check=True the integral route
    is evaluated as well, compared with the closed form and stored in
    via_integral; a disagreement is a fault in the program, not in the
    scenario, and raises ArithmeticError.
    """
    s = scenario
    _require_dimension(s)
    lam = _require_positive(lam)
    n, d, p, g = s.n, s.degree, s.normal_degree, s.genus
    a, b = lam.numerator, lam.denominator  # lam = a/b; clear b in integers
    top = n * n * (n * n - 1) * d * b - a * n * (n + 1) * ((n - 2) * p + 2 * (g - 1))
    bottom = 2 * n * a * ((n + 1) * d * b - a * p)
    if not bottom:
        raise ZeroDenominator(
            f"quotient-slope denominator vanishes at lambda = {lam}; "
            "the declared Seshadri range is inconsistent"
        )
    numerator = Fraction(top, b)
    denominator = Fraction(bottom, b * b)
    value = Fraction(top * b, bottom)
    via_integral = None
    if cross_check:
        via_integral = quotient_slope_via_integrals(s, lam)
        if via_integral != value:
            raise ArithmeticError(
                f"quotient slope at lambda = {lam}: closed form {value} "
                f"but integral route {via_integral}"
            )
    return QuotientSlopeReport(
        lam=lam,
        value=value,
        numerator=numerator,
        denominator=denominator,
        via_integral=via_integral,
    )


def _deficit(poly):
    """a(0) - a(x): the non-constant coefficients of a(x), negated."""
    return Polynomial([Fraction(0)] + [-c if c else c for c in poly.coeffs[1:]])


def leading_deficit_poly(scenario):
    """atilde0(x) = a0(0) - a0(x) = (n*d*x**(n-1) - p*x**n) / n!"""
    return _deficit(hilbert_leading_poly(scenario))


def subleading_deficit_poly(scenario):
    """atilde1(x) = a1(0) - a1(x)."""
    return _deficit(hilbert_subleading_poly(scenario))


@lru_cache(maxsize=4)
def _deficit_integrals(scenario):
    """int_0^x (atilde1 + atilde0'/2) and int_0^x atilde0, as polynomials.

    Built once per scenario: a loop over lambda reuses them. The cache holds
    a few scenarios only, far fewer than a batch, so a second pass over a
    batch builds every scenario's polynomials again.
    """
    s = scenario
    atilde0 = leading_deficit_poly(s)
    integrand = subleading_deficit_poly(s) + atilde0.differentiate() * Fraction(1, 2)
    return integrand.integrate_from_zero(), atilde0.integrate_from_zero()


def quotient_slope_via_integrals(scenario, lam):
    """Quotient slope computed from the Hilbert-coefficient deficits.

    This is the defining ratio of integrals, kept as an independent oracle
    for the closed form. The two antiderivatives are built from the Hilbert
    polynomials once per scenario; each call evaluates them at lam.
    """
    s = scenario
    _require_dimension(s)
    lam = _require_positive(lam)
    numerator_poly, denominator_poly = _deficit_integrals(s)
    denominator = denominator_poly(lam)
    if denominator == 0:
        raise ZeroDenominator(
            f"deficit integral vanishes at lambda = {lam}; "
            "the declared Seshadri range is inconsistent"
        )
    return numerator_poly(lam) / denominator


def destabilizing_quadratic(scenario):
    """The quadratic in lam whose non-positivity detects destabilization.

    With mu = manifold_slope this is

        2*p*mu*lam**2 - (n+1)*((n-2)*p + 2*(g-1) + 2*d*mu)*lam
        + n*(n**2-1)*d

    and for lam in the consistent range, mu_lam <= mu exactly when the
    quadratic is <= 0 (strictly, for strict inequality). Returned as a
    Polynomial in lam.
    """
    s = scenario
    _require_dimension(s)
    mu = manifold_slope(s)
    n, d, p, g = s.n, s.degree, s.normal_degree, s.genus
    return Polynomial(
        [
            Fraction(n * (n * n - 1) * d),
            -(n + 1) * (Fraction((n - 2) * p + 2 * (g - 1)) + 2 * d * mu),
            2 * p * mu,
        ]
    )


def fano_quadratic_at_degree(n, p):
    """Value of the anticanonical genus-zero quadratic at lam = p + 2.

    For an anticanonical scenario with g = 0 the curve degree is d = p + 2,
    and the destabilizing quadratic evaluated there factors as

        (p + 2) * (p - n + 1) * (n*(p - n + 1) + 2).

    It vanishes exactly when p = n - 1 (the middle factor), because the last
    factor would need p = n - 1 - 2/n, never an integer for n >= 3.
    """
    if _require_int(n, "n") < 3:
        raise DimensionTooSmall("the factored boundary value needs n >= 3")
    _require_int(p, "p")
    return Fraction((p + 2) * (p - n + 1) * (n * (p - n + 1) + 2))


def margin_factorization_residual(scenario, x):
    """Residual of the stability-margin factorization at a rational x.

    For anticanonical scenarios the combination

        -mu * atilde0(x) + atilde1(x) + atilde0'(x)/2

    factors as (r - x) * (sigma*L - x*E)**(n-1).E / (2*(n-1)!) with
    r = n - 1 the codimension of the curve. This function returns the
    difference of the two sides, which must be identically zero; it is the
    reason a curve with Seshadri constant at most its codimension can never
    destabilize.
    """
    s = scenario
    if not s.anticanonical:
        raise NotAnticanonical(
            "the margin factorization holds for anticanonical polarizations"
        )
    _require_dimension(s)
    mu = manifold_slope(s)
    atilde0 = leading_deficit_poly(s)
    lhs = (
        atilde0 * (-mu)
        + subleading_deficit_poly(s)
        + atilde0.differentiate() * Fraction(1, 2)
    )
    rhs = (
        Polynomial([s.n - 1, -1])
        * exceptional_restriction_poly(s)
        * Fraction(1, 2 * factorial(s.n - 1))
    )
    return (lhs - rhs)(_require_rational(x, "x"))
