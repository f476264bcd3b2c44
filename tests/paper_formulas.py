"""Closed-form identities from the paper, kept as test oracles.

Each function states one formula of the paper in exact arithmetic; the tests
check it against the package's own polynomials and records. No command needs
them: the verdicts come from the destabilizing quadratic and the Seshadri
pipeline, so they live here rather than in the package's public API. That
holds for the Hilbert-coefficient deficits, which the integral route builds
from the Hilbert numerators without them, for the exact roots of a
quadratic and for the bundle-side helpers, which answer the converse
question: which normal-bundle splittings are even allowed for a curve that
fails to be stable.
"""

from collections import namedtuple
from fractions import Fraction
from math import factorial

from fanoslope.blowup import (
    exceptional_restriction_poly, hilbert_leading_poly, hilbert_subleading_poly,
)
from fanoslope.classify import BundleSplitting
from fanoslope.errors import (
    DimensionTooSmall, FanoslopeError, InvalidScenario, NotAnticanonical,
)
from fanoslope.exactnum import (
    Polynomial, Surd, _require_bool, _require_int, _require_rational,
)
from fanoslope.slope import _require_dimension, manifold_slope
import polynomial_oracle


def _deficit(poly):
    """a(0) - a(x): the non-constant coefficients of a(x), negated."""
    return Polynomial([0] + [-c for c in poly._nums[1:]], poly._den)


def leading_deficit_poly(scenario):
    """atilde0(x) = a0(0) - a0(x) = (n*d*x**(n-1) - p*x**n) / n!"""
    return _deficit(hilbert_leading_poly(scenario))


def subleading_deficit_poly(scenario):
    """atilde1(x) = a1(0) - a1(x)."""
    return _deficit(hilbert_subleading_poly(scenario))


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
    # the package's polynomials, read into the oracle class, which has arithmetic
    ring = polynomial_oracle.Polynomial
    atilde0 = ring(leading_deficit_poly(s).coeffs)
    lhs = (
        atilde0 * (-mu)
        + ring(subleading_deficit_poly(s).coeffs)
        + atilde0.differentiate() * Fraction(1, 2)
    )
    rhs = (
        ring([s.n - 1, -1])
        * ring(exceptional_restriction_poly(s).coeffs)
        * Fraction(1, 2 * factorial(s.n - 1))
    )
    return (lhs - rhs)(_require_rational(x, "x"))


class AllCoefficientsZero(FanoslopeError):
    """The zero quadratic has every number as a root; refuse to pick."""


class TooFewSummands(FanoslopeError):
    """A splitting needs at least two line-bundle summands here."""


class WrongRank(FanoslopeError):
    """A normal-bundle splitting has the wrong number of summands for the ambient."""


def surd_sqrt(value):
    """Exact square root of a non-negative rational p/q in lowest terms,
    as a Surd; p*q must be below 10**12 unless it is a perfect square."""
    v = _require_rational(value, "the radicand")
    if v < 0:
        raise ValueError("cannot take the square root of a negative number")
    # sqrt(p/q) = sqrt(p*q)/q
    return Surd(0, Fraction(1, v.denominator), v.numerator * v.denominator)


def quadratic_roots(a, b, c):
    """Exact real roots of a*x**2 + b*x + c, ascending, as Surds.

    Returns a tuple of zero, one, or two roots. Degenerate cases follow the
    usual conventions: a linear equation has its single root, a non-zero
    constant has none, and the identically zero equation raises
    AllCoefficientsZero because every number would qualify. Irrational roots
    need the discriminant p/q to have p*q below 10**12, as in surd_sqrt.
    """
    a, b, c = (_require_rational(x, "a coefficient") for x in (a, b, c))
    if a == 0:
        if b == 0:
            if c == 0:
                raise AllCoefficientsZero("every number solves 0 = 0")
            return ()
        return (Surd(-c / b),)
    disc = b * b - 4 * a * c
    if disc < 0:
        return ()
    if disc == 0:
        return (Surd(-b / (2 * a)),)
    # (-b -+ sqrt(disc)) / (2a) is centre -+ radius, ascending for either sign of a
    centre = -b / (2 * a)
    radius = surd_sqrt(disc) / (2 * abs(a))
    return (centre - radius, centre + radius)


def normalized(splitting):
    """Twists shifted so the smallest is zero."""
    low = splitting.twists[0]
    return BundleSplitting(t - low for t in splitting.twists)


class FanoBundleReport(namedtuple(
    "FanoBundleReport", "is_fano_projectivization normalized minus_k_dot_section"
)):
    __slots__ = ()


def fano_bundle_check(splitting):
    """Is the projectivization of O(a1) + ... + O(ak) over P1 a Fano manifold?

    Normalizing so the smallest twist is zero, write d for the sum of the
    normalized twists. The anticanonical degree of the minimal section is
    2 - d, and the projectivization is Fano exactly when d < 2, i.e. the
    splitting is trivial or trivial plus a single O(1).
    """
    if splitting.rank < 2:
        raise TooFewSummands("a projectivized bundle needs rank at least 2")
    shifted = normalized(splitting)
    d = sum(shifted.twists)
    return FanoBundleReport(
        is_fano_projectivization=d < 2,
        normalized=shifted,
        minus_k_dot_section=2 - d,
    )


def admissible_normal_bundle(n, splitting):
    """Can this rank-(n-1) splitting be the normal bundle of a rational curve
    whose blowup is Fano? The only shapes are O(a)**(n-1) and
    O(a)**(n-2) + O(a+1)."""
    if splitting.rank != _require_int(n, "n") - 1:
        raise WrongRank(
            f"a curve in an {n}-fold has normal bundle of rank {n - 1}"
        )
    t = splitting.twists
    a = t[0]
    uniform = all(x == a for x in t)
    step = all(x == a for x in t[:-1]) and t[-1] == a + 1
    return uniform or step


class ShapeFilterResult(namedtuple("ShapeFilterResult", "allowed passes")):
    __slots__ = ()


def non_stable_shape_filter(n, splitting, is_pn_line=False):
    """Normal-bundle shapes a non-stable anticanonical curve can have.

    For n >= 4 only the trivial bundle or a line in projective n-space
    survive; for n = 3 the split bundle O + O(-1) joins the list. The
    splitting passes the filter when it matches one of the allowed shapes or
    the line flag is set.
    """
    _require_bool(is_pn_line, "is_pn_line")
    if _require_int(n, "n") < 3:
        raise DimensionTooSmall("the shape filter is stated for n >= 3")
    if splitting.rank != n - 1:
        raise WrongRank(
            f"a curve in an {n}-fold has normal bundle of rank {n - 1}"
        )
    if n >= 4:
        allowed = ("trivial", "line-in-projective-space")
        passes = is_pn_line or splitting.twists == (0,) * (n - 1)
    else:
        allowed = ("trivial", "O+O(-1)", "line-in-projective-space")
        passes = (
            is_pn_line
            or splitting.twists == (0, 0)
            or splitting.twists == (-1, 0)
        )
    return ShapeFilterResult(allowed=allowed, passes=passes)
