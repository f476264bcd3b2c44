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

import math
from collections import namedtuple
from fractions import Fraction

from .blowup import _hilbert_terms
from .blowup import (  # not called here; perfbench's tracer patches them
    exceptional_restriction_poly, hilbert_leading_poly, hilbert_subleading_poly,
)
from .errors import DimensionTooSmall, ZeroDenominator
from .exactnum import Polynomial, _require_rational, _value_at

__all__ = [
    "manifold_slope",
    "QuotientSlopeReport",
    "quotient_slope",
    "quotient_slope_via_integrals",
    "destabilizing_quadratic",
]


def manifold_slope(scenario):
    """mu(X, L) = -n * K.L**(n-1) / (2 * L**n)."""
    s = scenario
    return Fraction(-s.n) * s.k_ln1 / (2 * s.ln)


class QuotientSlopeReport(namedtuple(
    "QuotientSlopeReport",
    "lam value via_integral",
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


def _require_positive(lam):  # an exact Fraction: the routes read its slots
    lam = _require_rational(lam, "the twist lambda")
    if lam._numerator <= 0:
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
    a, b = lam._numerator, lam._denominator  # lam = a/b; clear b in integers
    top = n * n * (n * n - 1) * d * b - a * n * (n + 1) * ((n - 2) * p + 2 * (g - 1))
    bottom = 2 * n * a * ((n + 1) * d * b - a * p)
    if not bottom:
        raise ZeroDenominator(
            f"quotient-slope denominator vanishes at lambda = {lam}; "
            "the declared Seshadri range is inconsistent"
        )
    value = Fraction(top * b, bottom)
    via_integral = None
    if cross_check:
        via_integral = quotient_slope_via_integrals(s, lam)
        if (  # two Fractions in lowest terms are equal exactly when their slots are
            via_integral._numerator != value._numerator
            or via_integral._denominator != value._denominator
        ) if type(via_integral) is Fraction else via_integral != value:
            raise ArithmeticError(
                f"quotient slope at lambda = {lam}: closed form {value} "
                f"but integral route {via_integral}"
            )
    # tuple.__new__ skips QuotientSlopeReport's Python-level __new__
    return tuple.__new__(QuotientSlopeReport, (lam, value, via_integral))


def _antiderivative(terms, den):
    """int_0^x sum(c * x**k for k, c in terms) / den, terms the non-zero
    (power, numerator) pairs, ascending, as (low, band, den'): x**low *
    sum(band[i] * x**i) / den', low the power of the first term plus one."""
    low = terms[0][0] + 1
    common = math.lcm(*[k + 1 for k, _ in terms])
    band = [0] * (terms[-1][0] + 2 - low)
    for k, c in terms:
        band[k + 1 - low] = c * (common // (k + 1))
    return low, tuple(band), den * common


def _deficit_integrals(scenario):
    """int_0^x (atilde1 + atilde0'/2) and int_0^x atilde0, each as
    (low, band, den), meaning x**low * sum(band[i] * x**i) / den.

    Read from blowup's non-zero terms of a0 and a1 (a curve's degree is
    positive, so neither deficit is zero): a deficit a(0) - a(x) is the
    non-constant terms negated, and the negation, the derivative, the half
    and the sum run over one common denominator. No Polynomial is built.
    The integrand's x**(n-2) coefficient is (n-1)**2*d/(2*(n-1)!), not 0,
    and atilde0 starts at n*d*x**(n-1)/n!, so the top's low is n - 1 and
    the bottom's n, for every scenario.
    """
    s = scenario
    (terms0, den0), (terms1, den1) = _hilbert_terms(s, 0), _hilbert_terms(s, 1)
    den = math.lcm(2 * den0, den1)
    half, whole = den // (2 * den0), den // den1
    integrand = {k: -c * whole for k, c in terms1 if k}  # atilde1
    for k, c in terms0[1:]:  # atilde0'/2; a0's first term is L**n > 0
        integrand[k - 1] = integrand.get(k - 1, 0) - k * c * half
    integrand = sorted([term for term in integrand.items() if term[1]])
    atilde0 = [(k, -c) for k, c in terms0[1:]]
    return _antiderivative(integrand, den), _antiderivative(atilde0, den0)


# The last scenario's antiderivatives, with the scenario itself: a lambda
# loop over one scenario object builds them once, and holding the object
# keeps its id from being reused.
_last_integrals = (None, None)


def _cached_deficit_integrals(scenario):
    """_deficit_integrals(scenario), built again unless scenario is the
    object of the last build. A build that raises is not stored."""
    global _last_integrals
    kept, integrals = _last_integrals
    if kept is not scenario:
        integrals = _deficit_integrals(scenario)
        _last_integrals = scenario, integrals
    return integrals


def quotient_slope_via_integrals(scenario, lam):
    """Quotient slope computed from the Hilbert-coefficient deficits.

    This is the defining ratio of integrals, kept as an independent oracle
    for the closed form. The two antiderivatives are built from the terms of
    a0 and a1 as x**low times a short band and kept for the last scenario
    object only; each call evaluates both bands at lam = a/b by integer
    Horner, cancels lam**(bottom_low - top_low) as powers of a and b, and
    builds one Fraction, their quotient.
    """
    s = scenario
    _require_dimension(s)
    lam = _require_positive(lam)
    (top_low, top_band, top_den), (bottom_low, bottom_band, bottom_den) = (
        _cached_deficit_integrals(s)
    )
    a, b = lam._numerator, lam._denominator
    top, top_scale = _value_at(top_band, a, b)
    bottom, bottom_scale = _value_at(bottom_band, a, b)
    if not bottom:  # lam > 0, so only the band can vanish
        raise ZeroDenominator(
            f"deficit integral vanishes at lambda = {lam}; "
            "the declared Seshadri range is inconsistent"
        )
    gap = bottom_low - top_low  # top / (bottom * lam**gap), lam = a/b
    top, bottom = top * b**gap, bottom * a**gap
    return Fraction(top * bottom_den * bottom_scale, bottom * top_den * top_scale)


def destabilizing_quadratic(scenario):
    """The quadratic in lam whose non-positivity detects destabilization.

    With mu = manifold_slope this is

        2*p*mu*lam**2 - (n+1)*((n-2)*p + 2*(g-1) + 2*d*mu)*lam
        + n*(n**2-1)*d

    and for lam in the consistent range, mu_lam <= mu exactly when the
    quadratic is <= 0 (strictly, for strict inequality). Returned as a
    Polynomial in lam with integer numerators: writing K.L**(n-1) = k/k'
    and L**n = l/l', they are taken over D = k'*l > 0, where 2*mu*D is the
    integer -n*k*l'.
    """
    s = scenario
    _require_dimension(s)
    n, d, p, g = s.n, s.degree, s.normal_degree, s.genus
    den = s.k_ln1.denominator * s.ln.numerator
    scaled_mu = -n * s.k_ln1.numerator * s.ln.denominator  # 2*mu*D
    return Polynomial(
        [
            n * (n * n - 1) * d * den,
            -(n + 1) * (((n - 2) * p + 2 * (g - 1)) * den + d * scaled_mu),
            p * scaled_mu,
        ],
        den,
    )

