"""Certified interval estimates for Seshadri constants of subvarieties.

The Seshadri constant epsilon(Z, X, L) is the nef threshold of sigma*L - x*E
on the blowup along Z. Nothing here searches the nef cone; instead each rule
turns an already-proved geometric fact into an interval bound, and estimates
compose by intersecting intervals. Every application appends a provenance
entry, so a finished estimate carries the full chain of facts that justify
it. Rules whose hypotheses cannot be verified from the available bounds
refuse to fire (HypothesisNotCertified) rather than silently weaken.

``RULES`` is the rule table, each rule's slots in call order, ``STEP_KEYS``
the keys a step of each rule may carry, ``read_pipeline`` checks steps once
into ``Step`` records and ``run_pipeline(steps, scenario)`` reads and runs
them into one estimate. A rule's effect is the first line of its docstring.
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
    Surd, _ZERO, _fraction, _ints, _read_bool, _read_int, _require_bool, _require_int,
    _require_rational, _sign, compare, parse_rational, parse_value, render_value,
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

    def __new__(cls, lower=_ZERO, upper=None, provenance=()):
        if compare(lower, 0) < 0:
            raise ValueError("Seshadri lower bound cannot be negative")
        if upper is not None and compare(lower, upper) > 0:
            raise ScenarioInconsistent(
                f"lower bound {render_value(lower)} exceeds "
                f"upper bound {render_value(upper)}"
            )
        return tuple.__new__(cls, (lower, upper, provenance))

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


def _certificate(rule, statement, lower=_ZERO, upper=None, sources=()):
    """The interval [lower, upper] certified by one rule: its provenance is
    each source estimate's chain, in argument order, then the rule's entry."""
    provenance = ()
    for source in sources:
        provenance += source.provenance
    entry = tuple.__new__(ProvenanceEntry, (rule, statement))  # nothing to check
    return SeshadriEstimate(lower, upper, provenance + (entry,))


def _declared(context, statement, lower, upper):
    """The certificate of a declared interval, upper None when unbounded, or
    of an exact value, ``upper is lower``, which is checked once. Seshadri
    constants are positive, so a negative bound raises InvalidScenario
    naming ``context``."""
    for bound in (lower,) if upper is None or upper is lower else (lower, upper):
        x, y, _, m = _ints(bound)  # the sign of (x + y*sqrt(m))/q, q > 0
        if _sign(x, y, m) < 0:
            raise InvalidScenario(
                f"{context}: a Seshadri bound cannot be negative, "
                f"got {render_value(bound)}"
            )
    return _certificate("declared", statement, lower, upper)


def linear_subspace_exact(n):
    """epsilon of a proper linear subspace of projective n-space is n + 1.

    Holds for the anticanonical polarization -K = O(n+1): a line through the
    subspace gives the upper bound and restricting to hyperplane sections
    gives the matching lower bound. A point counts as the 0-dimensional
    linear subspace, so this also covers epsilon of a point.
    """
    if _require_int(n, "n") < 1:
        raise DimensionTooSmall("projective space needs dimension >= 1")
    value = _fraction(n + 1, 1)
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
    one = _fraction(1, 1)
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
        upper=_fraction(s.degree, 1),
    )


def point_upper_bound(n, is_projective_space=False):
    """A point of a Fano n-fold, n >= 3, has epsilon <= n, and n + 1 on P^n."""
    if _require_int(n, "n") < 3:
        raise DimensionTooSmall("the point bound is stated for n >= 3")
    if _require_bool(is_projective_space, "is_projective_space"):
        value = _fraction(n + 1, 1)
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
        upper=_fraction(n, 1),
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


# A step read: its rule, the arguments in call order, its "as" name or None.
# An estimate slot holds a name (None: the previous step's), combine's a tuple.
Step = namedtuple("Step", "rule args label")
_new_step = tuple.__new__  # read_pipeline's Step(...), without the Python-level __new__


def _read_value(raw, context):  # a Surd is already read, as the row's Fraction is
    return raw if type(raw) is Surd else parse_value(raw, context)


# Each kind of value slot as (the one type taken as it is, reader): a value of
# that type, a library caller's Fraction say, is already read; the file
# loader's field readers extend this table.
_SLOT_READERS = {
    "int": (int, _read_int),
    "bool": (bool, _read_bool),
    "rational": (Fraction, parse_rational),
    "value": (Fraction, _read_value),
}
# The rules with an estimate or scenario slot, which is bound as the step runs
_INPUTS = {rule for rule, slots in RULES.items()
           if any(kind not in _SLOT_READERS for _, kind in slots)}


def _error(rule, tail):  # the words are built only to raise
    return InvalidScenario(f"seshadri rule {rule}{tail}")


def _name_fault(rule, key, ref):  # for a name that no earlier step bound
    if ref is None:  # never read as "the previous estimate"
        return _error(rule, f".{key}: null is not an estimate name")
    return _error(rule, f": unknown estimate name {ref!r}")


def read_pipeline(steps, context):
    """A pipeline's steps, dicts as a scenario file holds them, checked once
    into a tuple of Step records. A fault of the pipeline's shape raises
    InvalidScenario naming ``context``, any other names the rule. An estimate
    name must be an earlier "as"; absent, it is the previous step's result."""
    records, bound = [], set()  # bound: the "as" names of the steps read
    for step in steps:
        if not isinstance(step, dict) or "rule" not in step:
            raise InvalidScenario(f"{context}: each pipeline step needs a rule")
        rule = step["rule"]
        if not isinstance(rule, str) or rule not in RULES:
            raise InvalidScenario(f"{context}: unknown rule {rule!r}")
        if not step.keys() <= STEP_KEYS[rule]:
            extra = sorted(step.keys() - STEP_KEYS[rule], key=str)
            raise InvalidScenario(f"{context}: rule {rule} has no slots {extra}")
        args = []
        for key, kind in RULES[rule]:  # the scenario slot's None is its arg
            arg = step.get(key, False) if kind == "bool" else step.get(key)
            read = _SLOT_READERS.get(kind)
            if read:  # a reader's words start with the key it is given
                taken, reader = read
                if type(arg) is not taken:
                    try:
                        arg = reader(arg, key)
                    except InvalidScenario as fault:
                        raise _error(rule, f".{fault}") from None
            elif kind == "ref":
                if key not in step and not records:
                    raise _error(rule, ": no previous estimate to use")
                if key in step and (not isinstance(arg, str) or arg not in bound):
                    raise _name_fault(rule, key, arg)
            elif kind == "refs":
                if not isinstance(arg, list) or len(arg) < 2:
                    raise _error(rule, ": needs a list of names")
                for ref in arg:
                    if not isinstance(ref, str) or ref not in bound:
                        raise _name_fault(rule, key, ref)
                arg = tuple(arg)
            args.append(arg)
        label = step.get("as")
        if "as" in step and not (isinstance(label, str) and label):
            raise _error(rule, f': "as" must be a non-empty name, got {label!r}')
        bound.add(label)  # None without "as", which no name is
        records.append(_new_step(Step, (rule, tuple(args), label)))
    if not records:
        raise InvalidScenario(f"{context}: empty rule pipeline")
    return tuple(records)


def run_pipeline(steps, scenario):
    """Run a pipeline, its steps as a scenario file holds them, into one
    estimate, the last step's; every step is read by read_pipeline first."""
    return _run(read_pipeline(steps, "seshadri pipeline"), scenario)


def _run(steps, scenario):
    """The estimate of read_pipeline's Step records, run as they are."""
    named = {}  # each estimate by its "as" name, and the last one under None
    for rule, args, label in steps:
        if rule in _INPUTS:
            args = [
                scenario if kind == "scenario" else named[arg] if kind == "ref"
                else [named[ref] for ref in arg] if kind == "refs" else arg
                for (_, kind), arg in zip(RULES[rule], args)
            ]
        # looked up when the step runs, so a patched rule is the one called;
        # a step with no "as" has the label None, the last estimate's key
        estimate = named[None] = named[label] = globals()[rule](*args)
    return estimate
