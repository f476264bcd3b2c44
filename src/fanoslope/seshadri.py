"""Certified interval estimates for Seshadri constants of subvarieties.

The Seshadri constant epsilon(Z, X, L) is the nef threshold of sigma*L - x*E
on the blowup along Z. Nothing here searches the nef cone; instead each rule
turns an already-proved geometric fact into an interval bound, and estimates
compose by intersecting intervals. Every application appends a provenance
entry, so a finished estimate carries the full chain of facts that justify
it. Rules whose hypotheses cannot be verified from the available bounds
refuse to fire (HypothesisNotCertified) rather than silently weaken.
"""

from collections import namedtuple
from fractions import Fraction

from .errors import (
    HypothesisFails,
    HypothesisNotCertified,
    NonPositiveDegree,
    NonPositiveMultiplicity,
    ScenarioInconsistent,
    ShiftBelowZero,
    DimensionTooSmall,
)
from .exactnum import (
    _require_bool, _require_int, _require_rational, compare, render_value,
)

__all__ = [
    "ProvenanceEntry",
    "SeshadriEstimate",
    "linear_subspace_exact",
    "witness_curve_upper",
    "proper_transform_upper",
    "intersection_min_lower",
    "product_fiber_estimate",
    "blowup_exceptional_shift",
    "nested_restriction",
    "moving_curve_upper",
    "point_upper_bound",
    "certify_exact_by_restriction",
]


class ProvenanceEntry(namedtuple("ProvenanceEntry", "rule statement")):
    __slots__ = ()


class SeshadriEstimate(namedtuple("SeshadriEstimate", "lower upper provenance")):
    """An interval certificate lower <= epsilon <= upper.

    The bounds are Fractions or Surds; upper is None when no upper bound is
    known. The provenance tuple of ProvenanceEntry records every rule that
    contributed, oldest first.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # _replace checks too

    def __new__(cls, lower=Fraction(0), upper=None, provenance=()):
        if compare(lower, 0) < 0:
            raise ValueError("Seshadri lower bound cannot be negative")
        if upper is not None and compare(lower, upper) > 0:
            raise ScenarioInconsistent(
                f"lower bound {render_value(lower)} exceeds "
                f"upper bound {render_value(upper)}"
            )
        return super().__new__(cls, lower, upper, provenance)

    @property
    def exact(self):
        """The exact value when both bounds agree, else None."""
        if self.upper is not None and compare(self.lower, self.upper) == 0:
            return self.upper
        return None

    @property
    def is_exact(self):
        return self.exact is not None

    def merge(self, other):
        """Intersect two certificates for the same subvariety.

        The result keeps the larger lower bound and the smaller upper bound;
        crossing bounds mean the two certificates contradict each other.
        """
        lower = self.lower if compare(self.lower, other.lower) >= 0 else other.lower
        if self.upper is None:
            upper = other.upper
        elif other.upper is None:
            upper = self.upper
        else:
            upper = self.upper if compare(self.upper, other.upper) <= 0 else other.upper
        return SeshadriEstimate(
            lower=lower,
            upper=upper,
            provenance=self.provenance + other.provenance,
        )

    def describe(self):
        exact = self.exact
        if exact is not None:
            return f"exact {render_value(exact)}"
        hi = "unbounded" if self.upper is None else render_value(self.upper)
        return f"[{render_value(self.lower)}, {hi}]"


def _certificate(rule, statement, lower=Fraction(0), upper=None, sources=()):
    """The interval [lower, upper] certified by one rule: its provenance is
    each source estimate's chain, in argument order, then the rule's entry."""
    provenance = ()
    for source in sources:
        provenance += source.provenance
    return SeshadriEstimate(
        lower, upper, provenance + (ProvenanceEntry(rule, statement),)
    )


def linear_subspace_exact(n):
    """epsilon of a proper linear subspace of projective n-space is n + 1.

    Holds for the anticanonical polarization -K = O(n+1): a line through the
    subspace gives the upper bound and restricting to hyperplane sections
    gives the matching lower bound. A point counts as the 0-dimensional
    linear subspace, so this also covers epsilon of a point.
    """
    if _require_int(n, "n") < 1:
        raise DimensionTooSmall("projective space needs dimension >= 1")
    value = Fraction(n + 1)
    return _certificate(
        "linear-subspace",
        f"a linear subspace of projective {n}-space has Seshadri "
        f"constant {render_value(value)} in the anticanonical polarization",
        value,
        value,
    )


def witness_curve_upper(degree):
    """A curve C meeting Z gives the upper bound epsilon <= L.C.

    The proper transform of C has non-negative degree against any nef class,
    and it meets E at least once.
    """
    degree = _require_rational(degree, "degree")
    if degree <= 0:
        raise NonPositiveDegree("witness curve must have positive L-degree")
    return _certificate(
        "witness-curve",
        f"a curve of degree {render_value(degree)} meeting the subvariety caps "
        f"epsilon at {render_value(degree)}",
        upper=degree,
    )


def proper_transform_upper(degree, multiplicity):
    """Refined witness bound epsilon <= L.C / mult for a curve meeting Z with
    multiplicity mult (the proper transform meets E at least mult times)."""
    degree = _require_rational(degree, "degree")
    multiplicity = _require_rational(multiplicity, "multiplicity")
    if degree <= 0:
        raise NonPositiveDegree("witness curve must have positive L-degree")
    if multiplicity <= 0:
        raise NonPositiveMultiplicity("contact multiplicity must be positive")
    value = degree / multiplicity
    return _certificate(
        "proper-transform",
        f"a degree-{render_value(degree)} curve meeting the subvariety with "
        f"multiplicity {render_value(multiplicity)} caps epsilon at "
        f"{render_value(value)}",
        upper=value,
    )


def intersection_min_lower(first, second):
    """For Z contained in both Z1 and Z2 (e.g. their intersection),
    epsilon(Z) >= min(epsilon(Z1), epsilon(Z2)); only a lower bound."""
    lower = (
        first.lower if compare(first.lower, second.lower) <= 0 else second.lower
    )
    return _certificate(
        "intersection-min",
        "a subvariety of two others inherits the smaller of their "
        f"Seshadri lower bounds, here {render_value(lower)}",
        lower,
        sources=(first, second),
    )


def product_fiber_estimate(estimate):
    """On a product X1 x X2 with the split polarization, the Seshadri
    constant of X1 x Z equals that of Z in X2; bounds carry over unchanged."""
    return _certificate(
        "product-fiber",
        "for a product with split polarization, epsilon of fiber-type "
        "subvarieties is computed on the second factor",
        estimate.lower,
        estimate.upper,
        (estimate,),
    )


def blowup_exceptional_shift(estimate):
    """Pass from Z in X to the exceptional divisor E of the blowup along Z,
    polarized by sigma*L - E: every bound drops by exactly 1."""
    one = Fraction(1)
    if compare(estimate.lower, one) < 0:
        raise ShiftBelowZero(
            "cannot shift a lower bound below zero across the blowup"
        )
    upper = None if estimate.upper is None else estimate.upper - one
    return _certificate(
        "blowup-exceptional-shift",
        "on the blowup along the subvariety, polarized by "
        "sigma*L - E, the Seshadri constant of E is exactly one "
        "less than that of the center",
        estimate.lower - one,
        upper,
        (estimate,),
    )


def nested_restriction(inner, ambient):
    """For Z inside Y inside X with epsilon(Z, X) < epsilon(Y, X), the
    constant of Z can be computed after restricting the polarization to Y.

    The strict hypothesis must be certified from the available bounds:
    inner.upper < ambient.lower. Otherwise the rule refuses to fire.
    """
    if inner.upper is None or compare(inner.upper, ambient.lower) >= 0:
        raise HypothesisNotCertified(
            "nested restriction needs a certified strict inequality "
            "epsilon(Z, X) < epsilon(Y, X)"
        )
    return _certificate(
        "nested-restriction",
        "epsilon(Z, X) below epsilon(Y, X) is computed from the "
        "restricted polarization on Y",
        inner.lower,
        inner.upper,
        (inner, ambient),
    )


def moving_curve_upper(scenario):
    """Anticanonical genus-zero curves of degree d >= 3 move enough to give
    the self-bound epsilon(Z) <= d = (-K).Z."""
    s = scenario
    if not s.anticanonical or s.genus != 0 or s.degree < 3:
        raise HypothesisFails(
            "the moving-curve bound needs an anticanonical rational curve "
            "of degree at least 3"
        )
    return _certificate(
        "moving-curve",
        f"a rational curve of anticanonical degree {s.degree} >= 3 "
        "deforms to a curve meeting itself, capping epsilon at its "
        "own degree",
        upper=Fraction(s.degree),
    )


def point_upper_bound(n, is_projective_space=False):
    """epsilon of a point of a Fano n-fold, n >= 3: at most n in general,
    exactly n + 1 on projective n-space."""
    if _require_int(n, "n") < 3:
        raise DimensionTooSmall("the point bound is stated for n >= 3")
    if _require_bool(is_projective_space, "is_projective_space"):
        value = Fraction(n + 1)
        return _certificate(
            "point-cap",
            f"a point of projective {n}-space has Seshadri constant "
            f"{render_value(value)}",
            value,
            value,
        )
    return _certificate(
        "point-cap",
        f"a point of a Fano {n}-fold other than projective space "
        f"has Seshadri constant at most {n}",
        upper=Fraction(n),
    )


def certify_exact_by_restriction(upper_for_z, ambient, restricted_value):
    """Upgrade an upper bound to an exact value by a restriction contradiction.

    Setup: Z sits inside a divisor Y inside X, upper_for_z certifies
    epsilon(Z, X) <= u, ambient certifies epsilon(Y, X) >= u, and a direct
    computation on Y gives epsilon(Z, Y) = restricted_value >= u. If
    epsilon(Z, X) were strictly below u it would be strictly below
    epsilon(Y, X), so the nested-restriction rule would equate it with
    epsilon(Z, Y) >= u, a contradiction. Hence epsilon(Z, X) = u.
    """
    u = upper_for_z.upper
    if u is None:
        raise HypothesisNotCertified(
            "the contradiction argument needs a finite upper bound for Z"
        )
    if compare(ambient.lower, u) < 0:
        raise HypothesisNotCertified(
            "the contradiction argument needs epsilon(Y, X) >= the upper "
            "bound being certified"
        )
    if compare(restricted_value, u) < 0:
        raise HypothesisNotCertified(
            "the restricted Seshadri constant must be at least the bound "
            "being certified"
        )
    return _certificate(
        "restriction-contradiction",
        f"epsilon(Z) < {render_value(u)} would force computing it "
        "on the intermediate divisor, where it equals "
        f"{render_value(restricted_value)} >= {render_value(u)}; "
        f"so epsilon(Z) = {render_value(u)} exactly",
        u,
        u,
        (upper_for_z, ambient),
    )
