"""Certified interval estimates for Seshadri constants of subvarieties.

The Seshadri constant epsilon(Z, X, L) is the nef threshold of sigma*L - x*E
on the blowup along Z. Nothing here searches the nef cone; instead each rule
turns an already-proved geometric fact into an interval bound, and estimates
compose by intersecting intervals. Every application appends a provenance
entry, so a finished estimate carries the full chain of facts that justify
it. Rules whose hypotheses cannot be verified from the available bounds
refuse to fire (HypothesisNotCertified) rather than silently weaken.

``RULES`` is the rule table, each rule's slots in call order, ``STEP_KEYS``
the keys a step of each rule may carry, and ``run_pipeline(steps,
scenario)`` runs rule steps into one estimate. A rule's effect is the first
line of its docstring.
"""

from collections import namedtuple
from fractions import Fraction
from functools import reduce

from .errors import (
    DimensionTooSmall, HypothesisFails, HypothesisNotCertified, InvalidScenario,
    NonPositiveDegree, NonPositiveMultiplicity, ScenarioInconsistent,
    ShiftBelowZero,
)
from .exactnum import (
    _read_bool, _read_int, _require_bool, _require_int, _require_rational,
    compare, parse_rational, render_value,
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
    "combine",
    "run_pipeline",
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
    """A curve meeting Z with multiplicity mult gives epsilon <= L.C / mult.

    Its proper transform meets E at least mult times."""
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
    """Z inside Z1 and Z2 has epsilon(Z) >= min(epsilon(Z1), epsilon(Z2))."""
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
    """In a split product X1 x X2, X1 x Z has the epsilon of Z in X2."""
    return _certificate(
        "product-fiber",
        "for a product with split polarization, epsilon of fiber-type "
        "subvarieties is computed on the second factor",
        estimate.lower,
        estimate.upper,
        (estimate,),
    )


def blowup_exceptional_shift(estimate):
    """On the blowup along Z, polarized by sigma*L - E, E has epsilon(Z) - 1."""
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
    """For Z in Y in X with epsilon(Z, X) < epsilon(Y, X), compute it on Y.

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
    """An anticanonical rational curve of degree d >= 3 moves: epsilon <= d."""
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
    """A point of a Fano n-fold, n >= 3, has epsilon <= n, and n + 1 on P^n."""
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


def combine(estimates):
    """Merge estimates of one subvariety: largest lower, smallest upper bound."""
    return reduce(SeshadriEstimate.merge, estimates)


# -- the rule pipeline -------------------------------------------------------

# Each rule's slots in call order, as (key, kind); the rule is the function of
# that name here. A "value" is a rational or a Surd, a "ref" an earlier step's
# name, "refs" two or more names; the "scenario" slot has no key.
RULES = {
    "linear_subspace_exact": (("n", "int"),),
    "witness_curve_upper": (("degree", "rational"),),
    "proper_transform_upper": (("degree", "rational"), ("multiplicity", "rational")),
    "intersection_min_lower": (("first", "ref"), ("second", "ref")),
    "product_fiber_estimate": (("of", "ref"),),
    "blowup_exceptional_shift": (("of", "ref"),),
    "nested_restriction": (("inner", "ref"), ("ambient", "ref")),
    "moving_curve_upper": ((None, "scenario"),),
    "point_upper_bound": (("n", "int"), ("isPn", "bool")),
    "certify_exact_by_restriction": (
        ("upper", "ref"), ("ambient", "ref"), ("restricted", "value"),
    ),
    "combine": (("of", "refs"),),
}
# The keys a step of each rule may carry: "rule", "as" and its slots' keys.
STEP_KEYS = {
    rule: frozenset(["rule", "as", *(key for key, _ in slots if key)])
    for rule, slots in RULES.items()
}


def step_rule(step, context):
    """The rule a pipeline step names, once the step is a dict with a rule in
    RULES and no key but that rule's; anything else raises InvalidScenario
    naming ``context``. The file loader and run_pipeline share these words."""
    if not isinstance(step, dict) or "rule" not in step:
        raise InvalidScenario(f"{context}: each pipeline step needs a rule")
    rule = step["rule"]
    if not isinstance(rule, str) or rule not in RULES:
        raise InvalidScenario(f"{context}: unknown rule {rule!r}")
    if not step.keys() <= STEP_KEYS[rule]:
        extra = sorted(step.keys() - STEP_KEYS[rule], key=str)
        raise InvalidScenario(f"{context}: rule {rule} has no slots {extra}")
    return rule


def run_pipeline(steps, scenario):
    """Run rule steps, in order, into one estimate: the last step's.

    A step is a dict of "rule", a name in RULES, an optional "as" naming its
    result, and the rule's slots. A rational or value slot holds a Fraction
    or a Surd; any other slot is checked as its step runs, and a bad one
    raises InvalidScenario. An estimate slot left out takes the previous
    step's result, and a bool slot left out is false. An empty pipeline, a
    step without a rule, a rule not in RULES, a key the rule has no slot
    for or a null estimate name (in a slot or in combine's list) raises
    InvalidScenario.
    """
    if not steps:
        raise InvalidScenario("seshadri pipeline: empty rule pipeline")
    named = {}  # each estimate by its "as" name, and the last one under None

    def error(problem, slot=""):  # the step's context is built only to raise
        return InvalidScenario(f"seshadri rule {rule}{slot}: {problem}")

    def fetch(ref, key):
        if ref is None:  # never read as "the previous estimate"
            raise error("null is not an estimate name", f".{key}")
        if not isinstance(ref, str) or ref not in named:
            raise error(f"unknown estimate name {ref!r}")
        return named[ref]

    def read(step, key, kind):
        if kind == "scenario":
            return scenario
        if kind == "ref":
            if key in step:
                return fetch(step[key], key)
            if None not in named:
                raise error("no previous estimate to use")
            return named[None]
        if kind == "refs":
            refs = step.get(key)
            if not isinstance(refs, list) or len(refs) < 2:
                raise error("needs a list of names")
            return [fetch(ref, key) for ref in refs]
        if kind in ("rational", "value") and key in step:
            return step[key]  # already read
        # an absent bool slot is false; any other absent slot fails to read.
        # A bool in a bool slot or an int in an int slot is returned as its
        # reader would return it, so only a slot to refuse builds a context.
        raw = step.get(key, False) if kind == "bool" else step.get(key)
        if type(raw) is (bool if kind == "bool" else int):
            return raw
        reader = {"bool": _read_bool, "int": _read_int}.get(kind, parse_rational)
        return reader(raw, f"seshadri rule {rule}.{key}")

    for step in steps:
        rule = step_rule(step, "seshadri pipeline")
        args = [read(step, key, kind) for key, kind in RULES[rule]]
        # looked up when the step runs, so a patched rule is the one called
        estimate = globals()[rule](*args)
        if "as" in step:
            label = step["as"]
            if not isinstance(label, str) or not label:
                raise error(f'"as" must be a non-empty name, got {label!r}')
            named[label] = estimate
        named[None] = estimate
    return named.get(None)
