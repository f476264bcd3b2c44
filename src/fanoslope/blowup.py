"""Intersection theory on the blowup of a polarized manifold along a curve.

Conventions used throughout: X is a smooth projective n-fold with ample
divisor L, Z is a smooth curve in X of genus g with L.Z = d and normal bundle
of degree p, and sigma: Xhat -> X is the blowup along Z with exceptional
divisor E. The twisted class sigma*L - x*E is the one whose positivity (in x)
the Seshadri constant measures. The canonical class of the blowup is
sigma*K_X + (n-2)*E, and K_X.Z is never a user input: adjunction forces
K_X.Z = 2g - 2 - p.

The two Hilbert-coefficient polynomials exposed here are

    a0(x) = (sigma*L - x*E)**n / n!
    a1(x) = -K_Xhat . (sigma*L - x*E)**(n-1) / (2*(n-1)!)

both closed forms obtained by pushing powers of E down to Z. Of the
intersection numbers (sigma*L)**i . (-E)**(n-1-i) . E, i = 0..n-1, only -p
at i = 0 and d at i = 1 survive (two or more pullback factors from the curve
kill the rest), and _hilbert_terms, the non-zero terms of a0 and a1, is the
one place they are written down.
"""

from collections import namedtuple
from fractions import Fraction
from math import factorial

from .errors import DimensionTooSmall, InvalidScenario, ScenarioInconsistent
from .exactnum import (
    _MAX_RADICAND, Polynomial, _fraction, _ints, _require_rational, _sign, compare,
    render_value,
)

__all__ = [
    "CurveScenario",
    "exceptional_restriction_poly",
    "hilbert_leading_poly",
    "hilbert_subleading_poly",
    "check_epsilon_consistency",
]


class CurveScenario(namedtuple(
    "CurveScenario", "n genus degree normal_degree ln k_ln1 anticanonical"
)):
    """Numerical data of a smooth curve Z inside a polarized n-fold (X, L).

    Fields:
        n: ambient dimension, at least 2
        genus: genus of Z
        degree: L.Z, a positive integer
        normal_degree: degree of the normal bundle of Z in X
        ln: top self-intersection L**n, positive
        k_ln1: mixed number K_X . L**(n-1)
        anticanonical: whether L = -K_X; when set, k_ln1 = -ln is forced and
            adjunction pins normal_degree = degree - 2 + 2*genus, and each of
            the two may be None to be filled in. No other module has the rules.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # _replace checks too

    def __new__(cls, n, genus, degree, normal_degree, ln, k_ln1, anticanonical=False):
        if type(n) is not int:  # a plain int, never a bool
            raise InvalidScenario("n must be an integer")
        if type(genus) is not int:
            raise InvalidScenario("genus must be an integer")
        if type(degree) is not int:
            raise InvalidScenario("degree must be an integer")
        if type(anticanonical) is not bool:  # "no" would read as true
            raise InvalidScenario("anticanonical must be true or false")
        adjunction = degree - 2 + 2 * genus
        if normal_degree is None and anticanonical:
            normal_degree = adjunction
        if type(normal_degree) is not int:
            raise InvalidScenario("normal_degree must be an integer")
        if type(ln) is not Fraction:
            ln = _require_rational(ln, "ln")
        if k_ln1 is None and anticanonical:
            k_ln1 = _fraction(-ln._numerator, ln._denominator)  # -ln
        else:
            if type(k_ln1) is not Fraction:
                k_ln1 = _require_rational(k_ln1, "k_ln1")
            # before the ranges, so a scenario file reports this fault first
            if anticanonical and k_ln1 != -ln:
                raise InvalidScenario("anticanonical scenarios have KLn1 = -Ln")
        if n < 2:
            raise InvalidScenario("ambient dimension must be at least 2")
        if n * n - 1 >= _MAX_RADICAND:
            raise InvalidScenario(
                f"ambient dimension {render_value(n)} is too large: the threshold "
                f"radicand n*n - 1 must be below {_MAX_RADICAND}"
            )
        if genus < 0:
            raise InvalidScenario("genus must be non-negative")
        if degree < 1:
            raise InvalidScenario("curve degree L.Z must be a positive integer")
        if ln.numerator <= 0:  # a Fraction's denominator is positive
            raise InvalidScenario("L**n must be positive for an ample class")
        if anticanonical and normal_degree != adjunction:
            raise InvalidScenario(
                "anticanonical adjunction forces normal bundle degree "
                f"{render_value(adjunction)}, got {render_value(normal_degree)}"
            )
        return super().__new__(
            cls, n, genus, degree, normal_degree, ln, k_ln1, anticanonical
        )

    @classmethod
    def anticanonical_curve(cls, n, genus, degree, ln):
        """Build an anticanonically polarized scenario; adjunction fills in
        the normal bundle degree and the mixed intersection number."""
        return cls(n, genus, degree, None, ln, None, True)

    @property
    def canonical_degree(self):
        """K_X.Z, derived from adjunction: 2g - 2 - p."""
        return 2 * self.genus - 2 - self.normal_degree


def exceptional_restriction_poly(scenario):
    """(sigma*L - x*E)**(n-1) . E as a polynomial in x.

    Equals x**(n-2) * ((n-1)*d - p*x). Its positivity for 0 < x < epsilon is
    what makes a declared Seshadri bound consistent.
    """
    s = scenario
    return Polynomial([0] * (s.n - 2) + [(s.n - 1) * s.degree, -s.normal_degree])


def _hilbert_terms(scenario, index):
    """a0 (index 0) or a1 (index 1) as (terms, den): the (power, integer
    numerator) pairs of its non-zero terms, ascending and at most three, over
    den = n!*den(L**n) or 2*(n-1)!*den(K.L**(n-1))."""
    s = scenario
    n, e0, e1 = s.n, -s.normal_degree, s.degree  # the numbers at i = 0 and 1
    if not index:  # (L**n - n*e1*x**(n-1) - e0*x**n) / n!
        value, den = s.ln, factorial(n)
        num, terms = value.numerator, ((n - 1, -n * e1), (n, -e0))
    elif n < 3:  # K_Xhat = sigma*K + m*E with m = n - 2 has no E at n = 2
        raise DimensionTooSmall(
            "subleading Hilbert coefficient needs ambient dimension >= 3"
        )
    else:  # -(K.L**(n-1) - K.Z*x**(n-1) + m*x**(n-2)*((n-1)*e1 + e0*x)) / ...
        value, den, m, kz = s.k_ln1, 2 * factorial(n - 1), n - 2, s.canonical_degree
        num, terms = -value.numerator, ((m, -m * (n - 1) * e1), (n - 1, kz - m * e0))
    scale = value.denominator
    terms = [(k, c * scale) for k, c in terms if c]
    return ([(0, num)] + terms if num else terms), den * scale


def _polynomial(terms, den):  # _hilbert_terms' result, laid out densely
    nums = dict(terms)
    return Polynomial([nums.get(k, 0) for k in range(terms[-1][0] + 1)], den)


def hilbert_leading_poly(scenario):
    """a0(x) = (L**n - n*d*x**(n-1) + p*x**n) / n!"""
    return _polynomial(*_hilbert_terms(scenario, 0))


def hilbert_subleading_poly(scenario):
    """a1(x) = -K_Xhat . (sigma*L - x*E)**(n-1) / (2*(n-1)!), for n >= 3."""
    return _polynomial(*_hilbert_terms(scenario, 1))


def check_epsilon_consistency(scenario, epsilon):
    """Reject a certified Seshadri value that contradicts the scenario.

    For 0 < x < epsilon the class sigma*L - x*E is ample, so its (n-1)-st
    power meets the effective divisor E positively: (n-1)*d - x*p > 0 on the
    open interval, hence (n-1)*d - epsilon*p >= 0 in the limit. A declared
    exact value or lower bound violating that is rejected. Equality at the
    endpoint itself is fine (it happens for a line in projective 3-space).
    With epsilon read as (x + y*sqrt(m))/q, that margin times q is one
    integer sign, the same for p of either sign or zero.
    Second, a rational curve of anticanonical degree d >= 3 moves to meet
    itself, so epsilon <= d; a value breaking both bounds fails the cap.
    """
    s = scenario
    p = s.normal_degree
    x, y, q, m = _ints(epsilon)
    if _sign((s.n - 1) * s.degree * q - p * x, -p * y, m) < 0:
        raise ScenarioInconsistent(
            "declared Seshadri value "
            f"{render_value(epsilon)} makes (n-1)*d - epsilon*p negative; "
            "no ample class restricts that way"
        )
    d = s.degree
    if s.anticanonical and not s.genus and d >= 3 and compare(epsilon, d) > 0:
        raise ScenarioInconsistent(
            f"a rational curve of anticanonical degree {d} has "
            f"epsilon <= {d}; the declared lower bound exceeds that"
        )
