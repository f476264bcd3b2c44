"""Closed-form identities from the paper, kept as test oracles.

Each function states one formula of the paper in exact arithmetic; the tests
check it against the package's own polynomials. No command needs them: the
verdicts come from the destabilizing quadratic and the Seshadri pipeline, so
they live here rather than in the package's public API.
"""

from fractions import Fraction
from math import factorial

from fanoslope.blowup import exceptional_restriction_poly
from fanoslope.errors import DimensionTooSmall, InvalidScenario, NotAnticanonical
from fanoslope.exactnum import Polynomial, _require_int, _require_rational
from fanoslope.slope import (
    _require_dimension,
    leading_deficit_poly,
    manifold_slope,
    subleading_deficit_poly,
)


def exceptional_power_table(scenario):
    """Intersection numbers (sigma*L)**i . (-E)**(n-1-i) . E for i = 0..n-1.

    Only the first two entries survive: -p at i = 0 and d at i = 1; two or
    more pullback factors from the curve kill everything else.
    """
    s = scenario
    table = [Fraction(0)] * s.n
    table[0] = Fraction(-s.normal_degree)
    table[1] = Fraction(s.degree)
    return tuple(table)


def anticanonical_square_exceptional(deg_kc, genus):
    """(-K_Xhat)**2 . E for the blowup of a Fano threefold along a smooth curve.

    Here deg_kc = (-K_X).C and the answer is deg_kc + 2 - 2*genus, obtained by
    expanding (sigma*(-K_X) - E)**2 . E with the threefold power table.
    """
    deg_kc = _require_rational(deg_kc, "deg_kc")
    if _require_int(genus, "genus") < 0:
        raise InvalidScenario("genus must be a non-negative integer")
    return deg_kc + 2 - 2 * genus


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
