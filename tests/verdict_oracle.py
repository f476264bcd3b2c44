"""A first-principles verdict oracle for anticanonical curve scenarios.

From the symbolic Hilbert-coefficient expansions of test_blowup it builds

    G(lam) = int_0^lam (atilde1 + atilde0'/2) dx - mu * int_0^lam atilde0 dx,

where atilde_i(x) = a_i(0) - a_i(x) and mu = -n*K.L**(n-1) / (2*L**n). On the
interval the consistency caps allow, int_0^lam atilde0 is positive, so G has
the sign of mu_lam - mu: G < 0 somewhere on (0, epsilon] destabilizes
strictly, a zero of G with no negative value is semistability that is not
stability, and G > 0 throughout is stability. Nothing here calls the
package's slope formulas, its destabilizing quadratic or its regime rules.
"""

import functools
import re

import sympy

from fanoslope.classify import VerdictStatus

from test_blowup import X, symbolic_leading, symbolic_subleading


def as_sympy(value):
    """A Fraction, an int or a Surd rat + coef*sqrt(rad), as a sympy number."""
    if isinstance(value, sympy.Basic):
        return value
    if hasattr(value, "rad"):
        return as_sympy(value.rat) + as_sympy(value.coef) * sympy.sqrt(value.rad)
    return sympy.Rational(value.numerator, value.denominator)


def _sign(value):
    """Exact sign of a real algebraic number; zero only when it expands to 0."""
    value = sympy.expand(value)
    if value == 0:
        return 0
    positive = value.is_positive
    assert positive is not None, f"sympy cannot decide the sign of {value}"
    return 1 if positive else -1


@functools.lru_cache(maxsize=None)
def deficit_function(scenario):
    """G as a sympy polynomial in X, and its distinct positive real roots in
    ascending order."""
    s = scenario
    leading = sympy.Poly(symbolic_leading(s), X)
    subleading = sympy.Poly(symbolic_subleading(s), X)
    deficit0 = leading.eval(0) - leading
    deficit1 = subleading.eval(0) - subleading
    mu = -s.n * as_sympy(s.k_ln1) / (2 * as_sympy(s.ln))
    g = (deficit1 + deficit0.diff(X) / 2).integrate() - mu * deficit0.integrate()
    found = sympy.roots(g)
    assert sum(found.values()) == g.degree(), "every root must be explicit"
    positive = [r for r in found if r.is_real and _sign(r) > 0]
    return g, tuple(sorted(positive, key=lambda r: float(r)))


def epsilon_cap(scenario):
    """What a consistent scenario allows epsilon to be at most, or None.

    sigma*L - x*E ample for x < epsilon meets E positively, so
    (n-1)*d - epsilon*p >= 0; and a rational curve of degree d >= 3 moves to
    meet itself, so epsilon <= d.
    """
    s = scenario
    caps = []
    if s.normal_degree > 0:
        caps.append(sympy.Rational((s.n - 1) * s.degree, s.normal_degree))
    if s.genus == 0 and s.degree >= 3:
        caps.append(sympy.Integer(s.degree))
    return min(caps, default=None)


def value_at(g, point):
    """G at a point a + b*sqrt(r) with a, b rational, exactly. The point is a
    root of (x - a)**2 - b**2*r, so G is reduced modulo that first."""
    rational, radical = point.as_coeff_Add()
    if radical == 0:
        return g.eval(rational)
    minimal = sympy.Poly((X - rational) ** 2 - radical**2, X, domain="QQ")
    remainder = g.rem(minimal).all_coeffs()
    return sum(c * point**k for k, c in enumerate(reversed(remainder)))


def _rational_between(low, high):
    """A rational strictly between two real numbers, checked exactly."""
    point = sympy.Rational((float(low) + float(high)) / 2)
    assert _sign(point - low) > 0 and _sign(high - point) > 0
    return point


def status_up_to(scenario, epsilon, include_endpoint):
    """The stability status from the signs of G on (0, epsilon], or on the
    open interval (0, epsilon) when include_endpoint is false.

    G is sampled once between consecutive zeros, at a rational point, where
    its sign is that of the whole stretch."""
    g, roots = deficit_function(scenario)
    if _sign(epsilon) == 0:
        return VerdictStatus.STABLE  # the interval is empty
    inside = [r for r in roots if _sign(r - epsilon) < 0]
    marks = [sympy.Integer(0), *inside, epsilon]
    negative = any(
        g.eval(_rational_between(a, b)) < 0 for a, b in zip(marks, marks[1:])
    )
    at_end = _sign(value_at(g, epsilon)) if include_endpoint else 1
    if negative or at_end < 0:
        return VerdictStatus.STRICTLY_DESTABILIZED
    if inside or at_end == 0:
        return VerdictStatus.SEMISTABLE_NOT_STABLE
    return VerdictStatus.STABLE


def oracle_status(scenario, estimate, include_endpoint):
    """The verdict status the signs of G force on a certified interval: the
    status at the lower bound and at the largest epsilon the upper bound and
    the caps allow, or conditional-on-seshadri when the two differ."""
    lower = as_sympy(estimate.lower)
    upper = None if estimate.upper is None else as_sympy(estimate.upper)
    cap = epsilon_cap(scenario)
    if cap is not None and (upper is None or _sign(upper - cap) > 0):
        upper = cap
    if upper is None:  # past every zero of G the status no longer changes
        _, roots = deficit_function(scenario)
        upper = max([lower, *roots], key=float) + 1
    low = status_up_to(scenario, lower, include_endpoint)
    high = status_up_to(scenario, upper, include_endpoint)
    return low if low is high else VerdictStatus.CONDITIONAL


def sign_at(scenario, value):
    """The exact sign of G at a rational or quadratic-irrational value."""
    g, _ = deficit_function(scenario)
    return _sign(value_at(g, as_sympy(value)))


def condition_threshold(condition):
    """The threshold a conditional verdict's residual inequality names."""
    match = re.match(r"stable iff epsilon <=? ([^;]+);", condition)
    assert match, condition
    return sympy.sympify(match.group(1))
