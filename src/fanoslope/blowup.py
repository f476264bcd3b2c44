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

both closed forms obtained by pushing powers of E down to Z; the only
non-vanishing pure intersections against E are recorded by
:func:`exceptional_power_table`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import DimensionTooSmall, InvalidScenario, ScenarioInconsistent
from .exactnum import (
    _MAX_RADICAND, Polynomial, _require_int, _require_rational, compare,
)

__all__ = [
    "CurveScenario",
    "exceptional_power_table",
    "exceptional_restriction_poly",
    "hilbert_leading_poly",
    "hilbert_subleading_poly",
    "anticanonical_square_exceptional",
    "check_epsilon_consistency",
]


@dataclass(frozen=True)
class CurveScenario:
    """Numerical data of a smooth curve Z inside a polarized n-fold (X, L).

    Fields:
        n: ambient dimension, at least 2
        genus: genus of Z
        degree: L.Z, a positive integer
        normal_degree: degree of the normal bundle of Z in X
        ln: top self-intersection L**n, positive
        k_ln1: mixed number K_X . L**(n-1)
        anticanonical: whether L = -K_X; when set, k_ln1 = -ln is forced and
            adjunction pins normal_degree = degree - 2 + 2*genus
    """

    n: int
    genus: int
    degree: int
    normal_degree: int
    ln: Fraction
    k_ln1: Fraction
    anticanonical: bool = False

    def __post_init__(self):
        for name in ("n", "genus", "degree", "normal_degree"):
            if type(getattr(self, name)) is not int:  # a plain int, never a bool
                raise InvalidScenario(f"{name} must be an integer")
        if type(self.anticanonical) is not bool:  # "no" would read as true
            raise InvalidScenario("anticanonical must be true or false")
        for name in ("ln", "k_ln1"):
            value = getattr(self, name)
            if type(value) is not Fraction:
                object.__setattr__(self, name, _require_rational(value, name))
        if self.n < 2:
            raise InvalidScenario("ambient dimension must be at least 2")
        if self.n * self.n - 1 >= _MAX_RADICAND:
            raise InvalidScenario(
                f"ambient dimension {self.n} is too large: the threshold "
                f"radicand n*n - 1 must be below {_MAX_RADICAND}"
            )
        if self.genus < 0:
            raise InvalidScenario("genus must be non-negative")
        if self.degree < 1:
            raise InvalidScenario("curve degree L.Z must be a positive integer")
        if self.ln <= 0:
            raise InvalidScenario("L**n must be positive for an ample class")
        if self.anticanonical:
            if self.k_ln1 != -self.ln:
                raise InvalidScenario(
                    "anticanonical scenario requires K.L**(n-1) = -L**n"
                )
            expected = self.degree - 2 + 2 * self.genus
            if self.normal_degree != expected:
                raise InvalidScenario(
                    "anticanonical adjunction forces normal bundle degree "
                    f"{expected}, got {self.normal_degree}"
                )

    @classmethod
    def anticanonical_curve(cls, n, genus, degree, ln):
        """Build an anticanonically polarized scenario; adjunction fills in
        the normal bundle degree and the mixed intersection number."""
        ln = _require_rational(ln, "ln")
        return cls(
            n=n,
            genus=genus,
            degree=degree,
            normal_degree=degree - 2 + 2 * genus,
            ln=ln,
            k_ln1=-ln,
            anticanonical=True,
        )

    @property
    def canonical_degree(self):
        """K_X.Z, derived from adjunction: 2g - 2 - p."""
        return 2 * self.genus - 2 - self.normal_degree

    @property
    def codimension(self):
        return self.n - 1


def exceptional_power_table(scenario):
    """Intersection numbers (sigma*L)**i . (-E)**(n-1-i) . E for i = 0..n-1.

    Only the first two entries survive: -p at i = 0 and d at i = 1; two or
    more pullback factors from the curve kill everything else.
    """
    s = scenario
    table = [Fraction(0)] * s.n
    table[0] = Fraction(-s.normal_degree)
    if s.n >= 2:
        table[1] = Fraction(s.degree)
    return tuple(table)


def exceptional_restriction_poly(scenario):
    """(sigma*L - x*E)**(n-1) . E as a polynomial in x.

    Equals x**(n-2) * ((n-1)*d - p*x). Its positivity for 0 < x < epsilon is
    what makes a declared Seshadri bound consistent.
    """
    s = scenario
    base = Polynomial.monomial(s.n - 2)
    return base * Polynomial([(s.n - 1) * s.degree, -s.normal_degree])


def hilbert_leading_poly(scenario):
    """a0(x) = (L**n - n*d*x**(n-1) + p*x**n) / n!"""
    s = scenario
    coeffs = [Fraction(0)] * (s.n + 1)
    coeffs[0] = s.ln
    coeffs[s.n - 1] += Fraction(-s.n * s.degree)
    coeffs[s.n] += Fraction(s.normal_degree)
    scale = Fraction(1, factorial(s.n))
    return Polynomial([c * scale if c else c for c in coeffs])


def hilbert_subleading_poly(scenario):
    """a1(x) = -K_Xhat . (sigma*L - x*E)**(n-1) / (2*(n-1)!)

    Expanded: -(K.L**(n-1) - (2g-2-p)*x**(n-1)
               + (n-2)*x**(n-2)*((n-1)*d - p*x)) / (2*(n-1)!).
    Needs n >= 3; in dimension 2 the blowup canonical has no exceptional
    multiple and the whole slope setup is different.
    """
    s = scenario
    if s.n < 3:
        raise DimensionTooSmall(
            "subleading Hilbert coefficient needs ambient dimension >= 3"
        )
    coeffs = [Fraction(0)] * s.n
    coeffs[0] = -s.k_ln1
    coeffs[s.n - 2] += Fraction(-(s.n - 2) * (s.n - 1) * s.degree)
    coeffs[s.n - 1] += Fraction(s.canonical_degree + (s.n - 2) * s.normal_degree)
    scale = Fraction(1, 2 * factorial(s.n - 1))
    return Polynomial([c * scale if c else c for c in coeffs])


def anticanonical_square_exceptional(deg_kc, genus):
    """(-K_Xhat)**2 . E for the blowup of a Fano threefold along a smooth curve.

    Here deg_kc = (-K_X).C and the answer is deg_kc + 2 - 2*genus, obtained by
    expanding (sigma*(-K_X) - E)**2 . E with the threefold power table.
    """
    deg_kc = _require_rational(deg_kc, "deg_kc")
    if _require_int(genus, "genus") < 0:
        raise InvalidScenario("genus must be a non-negative integer")
    return deg_kc + 2 - 2 * genus


def check_epsilon_consistency(scenario, epsilon):
    """Reject a certified Seshadri value that contradicts ampleness.

    For 0 < x < epsilon the class sigma*L - x*E is ample, so its (n-1)-st
    power meets the effective divisor E positively: (n-1)*d - x*p > 0 on the
    open interval, hence (n-1)*d - epsilon*p >= 0 in the limit. A declared
    exact value or lower bound violating that is rejected. Equality at the
    endpoint itself is fine (it happens for a line in projective 3-space).
    """
    s = scenario
    margin = Fraction((s.n - 1) * s.degree) + epsilon * (-s.normal_degree)
    if compare(margin, 0) < 0:
        raise ScenarioInconsistent(
            "declared Seshadri value "
            f"{epsilon} makes (n-1)*d - epsilon*p negative; "
            "no ample class restricts that way"
        )
