"""The rational-coefficient Polynomial and the integral route built on it,
as the package had them before polynomials were kept in integers.

``Polynomial`` below is the earlier class, with its tuple of Fraction
coefficients and the integer form it computed on its first rational
evaluation; the functions after it are the earlier Hilbert polynomials,
deficits, ``_deficit_integrals``, ``quotient_slope_via_integrals`` and
``destabilizing_quadratic``, built from that class. A test evaluates both
versions on the same input and compares results, types and messages.
"""

import math
from fractions import Fraction
from functools import lru_cache
from math import factorial

from fanoslope.errors import DimensionTooSmall, ZeroDenominator
from fanoslope.exactnum import Surd, _require_rational

_ZERO = Fraction(0)


class Polynomial:
    """Univariate polynomial over Fraction, dense ascending coefficients.

    The zero polynomial is the empty coefficient tuple and reports degree -1.
    Instances are immutable; arithmetic returns new objects. Evaluation uses
    Horner's scheme at an int, Fraction or Surd point (anything else raises
    TypeError) and returns the type the point arithmetic produces. At a
    rational point a/b the scheme runs in integers, on the numerators of the
    coefficients over their common denominator D, and builds one Fraction:
    an integer over D * b**degree. D and the numerators are computed on the
    first rational evaluation and kept with the instance. At a Surd point
    zero coefficients are passed through without arithmetic.
    """

    __slots__ = ("coeffs", "_scaled")

    def __init__(self, coefficients=()):
        coeffs = [
            c if type(c) is Fraction else _require_rational(c, "a coefficient")
            for c in coefficients
        ]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value=None):
        raise AttributeError("Polynomial instances are immutable")

    __delattr__ = __setattr__

    @classmethod
    def monomial(cls, power, coefficient=1):
        if power < 0:
            raise ValueError("power must be non-negative")
        return cls([_ZERO] * power + [coefficient])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def coefficient(self, power):
        """Coefficient of x**power (zero beyond the degree)."""
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial(_sum_coeffs(self.coeffs, other.coeffs, subtract=False))

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial(_sum_coeffs(self.coeffs, other.coeffs, subtract=True))

    def __neg__(self):
        return Polynomial([-c if c else c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if not self.coeffs or not other.coeffs:
                return Polynomial()
            terms = [(j, b) for j, b in enumerate(other.coeffs) if b]
            out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in terms:
                    term = a * b
                    out[i + j] = out[i + j] + term if out[i + j] else term
            return Polynomial(out)
        if isinstance(other, (int, Fraction)) and type(other) is not bool:
            return Polynomial([c * other if c else c for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __call__(self, point):
        coeffs = self.coeffs
        if type(point) is not int and type(point) is not Fraction:
            if not isinstance(point, Surd):
                raise TypeError(
                    "a point must be a Surd, an int or a Fraction, "
                    f"got {type(point).__name__}"
                )
            # Horner step by step, so a Surd point needs no Surd power.
            acc = _ZERO
            for c in reversed(coeffs):
                acc = acc * point
                if c:
                    acc = acc + c
            return acc
        if not coeffs:
            return _ZERO
        try:
            denominator, numerators = self._scaled
        except AttributeError:
            denominator = math.lcm(*[c.denominator for c in coeffs])
            numerators = tuple(
                c.numerator * (denominator // c.denominator) for c in reversed(coeffs)
            )
            object.__setattr__(self, "_scaled", (denominator, numerators))
        # Horner at a/b in homogeneous form: at the end acc is the sum of
        # c_i * a**i * b**(degree - i) and b_power is b**(degree + 1).
        a, b = point.numerator, point.denominator
        acc = 0
        b_power = 1
        for c in numerators:
            acc *= a
            if c:
                acc += c * b_power
            b_power *= b
        return Fraction(acc, denominator * (b_power // b))

    def differentiate(self):
        return Polynomial([c * i if c else c for i, c in enumerate(self.coeffs)][1:])

    def integrate_from_zero(self):
        """The antiderivative with zero constant term."""
        return Polynomial(
            [_ZERO] + [c / (i + 1) if c else c for i, c in enumerate(self.coeffs)]
        )

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"


def _sum_coeffs(left, right, subtract):
    """Coefficients of left + right (left - right when subtract is set).

    Only the non-zero coefficients of right take part in any arithmetic.
    """
    out = list(left)
    out.extend([_ZERO] * (len(right) - len(left)))
    for i, c in enumerate(right):
        if c:
            if subtract:
                c = -c
            out[i] = out[i] + c if out[i] else c
    return out


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


def manifold_slope(scenario):
    """mu(X, L) = -n * K.L**(n-1) / (2 * L**n)."""
    s = scenario
    return Fraction(-s.n) * s.k_ln1 / (2 * s.ln)


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
