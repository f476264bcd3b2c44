"""Seshadri certificate rules and their composition."""

from fractions import Fraction

import pytest

from fanoslope.blowup import CurveScenario
from fanoslope.classify import classify_curve
from fanoslope.errors import (
    DimensionTooSmall,
    HypothesisFails,
    HypothesisNotCertified,
    InvalidScenario,
    NonPositiveDegree,
    NonPositiveMultiplicity,
    ScenarioInconsistent,
    ShiftBelowZero,
)
from fanoslope.exactnum import Surd
from fanoslope.seshadri import (
    SeshadriEstimate,
    blowup_exceptional_shift,
    certify_exact_by_restriction,
    intersection_min_lower,
    linear_subspace_exact,
    moving_curve_upper,
    nested_restriction,
    point_upper_bound,
    product_fiber_estimate,
    proper_transform_upper,
    run_pipeline,
    witness_curve_upper,
)


def test_estimate_invariants():
    with pytest.raises(ValueError):
        SeshadriEstimate(lower=Fraction(-1))
    with pytest.raises(ScenarioInconsistent):
        SeshadriEstimate(lower=Fraction(5), upper=Fraction(4))
    e = SeshadriEstimate(Fraction(3), Fraction(3))
    assert e.exact == 3 and e.is_exact
    assert SeshadriEstimate(upper=Fraction(2)).exact is None
    assert SeshadriEstimate(lower=Fraction(2)).upper is None


@pytest.mark.parametrize("bad", [True, False, 0.5, 3.0, "3"])
def test_estimates_and_verdicts_refuse_bool_float_and_string_bounds(bad):
    # a bool is an int to isinstance: compare's fast path for exact ints and
    # Fractions must not take it, nor the checks on either side of it
    line = CurveScenario.anticanonical_curve(3, 0, 4, 64)  # epsilon = 4
    good = SeshadriEstimate(Fraction(1), Fraction(4))
    unbounded = SeshadriEstimate(Fraction(1))
    # a certificate that skipped its own checks, as only a caller can build one
    smuggled_lower = tuple.__new__(SeshadriEstimate, (bad, None, ()))
    smuggled_upper = tuple.__new__(SeshadriEstimate, (Fraction(1), bad, ()))
    for build in (
        lambda: SeshadriEstimate(bad),
        lambda: SeshadriEstimate(Fraction(1), bad),
        lambda: SeshadriEstimate(lower=Fraction(0), upper=bad),
        lambda: good.merge(smuggled_lower),
        lambda: smuggled_lower.merge(good),
        lambda: good.merge(smuggled_upper),
        lambda: unbounded.merge(smuggled_upper),
        lambda: classify_curve(line, smuggled_lower),
        lambda: classify_curve(line, smuggled_upper),
    ):
        with pytest.raises(TypeError, match="an int or a Fraction"):
            build()


def test_estimate_describe():
    assert SeshadriEstimate(Fraction(3), Fraction(3)).describe() == "exact 3"
    assert SeshadriEstimate(upper=Fraction(7, 2)).describe() == "[0, 7/2]"
    assert SeshadriEstimate(lower=Fraction(1)).describe() == "[1, unbounded]"


def test_merge_narrows_and_never_widens():
    a = SeshadriEstimate(lower=Fraction(1), upper=Fraction(5))
    b = SeshadriEstimate(lower=Fraction(2), upper=Fraction(7))
    merged = a.merge(b)
    assert merged.lower == 2 and merged.upper == 5
    with pytest.raises(ScenarioInconsistent):
        SeshadriEstimate(upper=Fraction(1)).merge(
            SeshadriEstimate(lower=Fraction(2))
        )


def test_linear_subspace_rule():
    e = linear_subspace_exact(3)
    assert e.exact == 4
    assert e.provenance[0].rule == "linear-subspace"
    assert linear_subspace_exact(1).exact == 2
    with pytest.raises(DimensionTooSmall):
        linear_subspace_exact(0)


def test_witness_curve_rule():
    e = witness_curve_upper(Fraction(3))
    assert e.upper == 3 and e.lower == 0
    with pytest.raises(NonPositiveDegree):
        witness_curve_upper(Fraction(0))


def test_proper_transform_rule():
    assert proper_transform_upper(Fraction(4), Fraction(1)).upper == 4
    assert proper_transform_upper(Fraction(3), Fraction(3)).upper == 1
    with pytest.raises(NonPositiveDegree):
        proper_transform_upper(Fraction(-1), Fraction(2))
    with pytest.raises(NonPositiveMultiplicity):
        proper_transform_upper(Fraction(3), Fraction(0))


def test_intersection_min_rule():
    a = SeshadriEstimate(lower=Fraction(2), upper=Fraction(3))
    b = SeshadriEstimate(lower=Fraction(1), upper=Fraction(9))
    e = intersection_min_lower(a, b)
    assert e.lower == 1
    assert e.upper is None  # only a lower bound is inherited
    assert e.provenance[-1].rule == "intersection-min"


def test_product_fiber_keeps_bounds():
    base = linear_subspace_exact(3)
    e = product_fiber_estimate(base)
    assert (e.lower, e.upper) == (base.lower, base.upper)
    assert e.provenance[-1].rule == "product-fiber"
    assert len(e.provenance) == len(base.provenance) + 1


def test_blowup_shift_drops_by_one():
    e = blowup_exceptional_shift(linear_subspace_exact(3))
    assert e.exact == 3
    bounded = SeshadriEstimate(lower=Fraction(2), upper=Fraction(5))
    shifted = blowup_exceptional_shift(bounded)
    assert (shifted.lower, shifted.upper) == (1, 4)
    with pytest.raises(ShiftBelowZero):
        blowup_exceptional_shift(SeshadriEstimate(lower=Fraction(1, 2)))


def test_nested_restriction_needs_certified_strict_gap():
    inner = SeshadriEstimate(lower=Fraction(1), upper=Fraction(2))
    ambient = SeshadriEstimate(lower=Fraction(3), upper=Fraction(4))
    e = nested_restriction(inner, ambient)
    assert (e.lower, e.upper) == (1, 2)
    assert e.provenance[-1].rule == "nested-restriction"
    with pytest.raises(HypothesisNotCertified):
        nested_restriction(SeshadriEstimate(lower=Fraction(1)), ambient)
    with pytest.raises(HypothesisNotCertified):
        nested_restriction(
            SeshadriEstimate(lower=Fraction(1), upper=Fraction(3)), ambient
        )


def test_moving_curve_rule():
    s = CurveScenario.anticanonical_curve(3, 0, 4, 64)
    assert moving_curve_upper(s).upper == 4
    with pytest.raises(HypothesisFails):
        moving_curve_upper(CurveScenario.anticanonical_curve(3, 0, 2, 10))
    with pytest.raises(HypothesisFails):
        moving_curve_upper(CurveScenario.anticanonical_curve(3, 1, 3, 10))
    with pytest.raises(HypothesisFails):
        moving_curve_upper(CurveScenario(3, 0, 4, 2, Fraction(64), Fraction(-64)))


def test_point_bound():
    assert point_upper_bound(4, is_projective_space=True).exact == 5
    capped = point_upper_bound(4)
    assert capped.upper == 4 and capped.exact is None
    with pytest.raises(DimensionTooSmall):
        point_upper_bound(2)


def test_restriction_contradiction_certifies_blowup_fiber():
    # fiber of the exceptional divisor over the blowup of P3 along a line
    center = linear_subspace_exact(3)              # epsilon(line, P3) = 4
    exceptional = blowup_exceptional_shift(center)  # epsilon(E) = 3
    section_cap = witness_curve_upper(Fraction(3))  # epsilon(Z) <= 3
    e = certify_exact_by_restriction(section_cap, exceptional, Fraction(3))
    assert e.exact == 3
    rules = [p.rule for p in e.provenance]
    assert "blowup-exceptional-shift" in rules
    assert rules[-1] == "restriction-contradiction"


def test_restriction_contradiction_hypotheses():
    ambient = SeshadriEstimate(Fraction(3), Fraction(3))
    with pytest.raises(HypothesisNotCertified):
        certify_exact_by_restriction(
            SeshadriEstimate(lower=Fraction(1)), ambient, Fraction(3)
        )
    with pytest.raises(HypothesisNotCertified):
        certify_exact_by_restriction(
            SeshadriEstimate(upper=Fraction(4)), ambient, Fraction(4)
        )
    with pytest.raises(HypothesisNotCertified):
        certify_exact_by_restriction(
            SeshadriEstimate(upper=Fraction(3)), ambient, Fraction(2)
        )


def test_surd_bounds_flow_through_rules():
    t = Surd(0, 1, 8)
    e = SeshadriEstimate(lower=t, upper=Fraction(3))
    shifted = blowup_exceptional_shift(e)
    assert shifted.lower == Surd(-1, 2, 2)
    assert shifted.upper == 2


def test_every_rule_leaves_provenance():
    s = CurveScenario.anticanonical_curve(3, 0, 4, 64)
    estimates = [
        linear_subspace_exact(3),
        witness_curve_upper(Fraction(2)),
        proper_transform_upper(Fraction(3), Fraction(2)),
        moving_curve_upper(s),
        point_upper_bound(5),
        product_fiber_estimate(linear_subspace_exact(2)),
        blowup_exceptional_shift(linear_subspace_exact(2)),
    ]
    for e in estimates:
        assert e.provenance
        assert all(entry.rule and entry.statement for entry in e.provenance)


_LINE_IN_P3 = (
    "linear-subspace",
    "a linear subspace of projective 3-space has Seshadri constant 4 in the "
    "anticanonical polarization",
)
_SHIFT = (
    "blowup-exceptional-shift",
    "on the blowup along the subvariety, polarized by sigma*L - E, the "
    "Seshadri constant of E is exactly one less than that of the center",
)

# Each rule on fixed inputs, chained through other rules where it takes
# estimates: (call, lower, upper, full provenance, oldest first).
RULE_CERTIFICATES = {
    "linear_subspace_exact": (
        lambda: linear_subspace_exact(3), 4, 4, (_LINE_IN_P3,),
    ),
    "witness_curve_upper": (
        lambda: witness_curve_upper(Fraction(5, 2)), 0, Fraction(5, 2),
        (("witness-curve", "a curve of degree 5/2 meeting the subvariety caps "
          "epsilon at 5/2"),),
    ),
    "proper_transform_upper": (
        lambda: proper_transform_upper(Fraction(4), Fraction(3)),
        0, Fraction(4, 3),
        (("proper-transform", "a degree-4 curve meeting the subvariety with "
          "multiplicity 3 caps epsilon at 4/3"),),
    ),
    "intersection_min_lower": (
        lambda: intersection_min_lower(
            linear_subspace_exact(3),
            blowup_exceptional_shift(SeshadriEstimate(lower=Surd(0, 1, 15))),
        ),
        Surd(-1, 1, 15), None,
        (_LINE_IN_P3, _SHIFT,
         ("intersection-min", "a subvariety of two others inherits the smaller "
          "of their Seshadri lower bounds, here -1 + sqrt(15)")),
    ),
    "product_fiber_estimate": (
        lambda: product_fiber_estimate(linear_subspace_exact(2)), 3, 3,
        (("linear-subspace", "a linear subspace of projective 2-space has "
          "Seshadri constant 3 in the anticanonical polarization"),
         ("product-fiber", "for a product with split polarization, epsilon of "
          "fiber-type subvarieties is computed on the second factor")),
    ),
    "blowup_exceptional_shift": (
        lambda: blowup_exceptional_shift(linear_subspace_exact(3)), 3, 3,
        (_LINE_IN_P3, _SHIFT),
    ),
    "nested_restriction": (
        lambda: nested_restriction(witness_curve_upper(2), linear_subspace_exact(3)),
        0, 2,
        (("witness-curve", "a curve of degree 2 meeting the subvariety caps "
          "epsilon at 2"),
         _LINE_IN_P3,
         ("nested-restriction", "epsilon(Z, X) below epsilon(Y, X) is computed "
          "from the restricted polarization on Y")),
    ),
    "moving_curve_upper": (
        lambda: moving_curve_upper(CurveScenario.anticanonical_curve(3, 0, 4, 64)),
        0, 4,
        (("moving-curve", "a rational curve of anticanonical degree 4 >= 3 "
          "deforms to a curve meeting itself, capping epsilon at its own "
          "degree"),),
    ),
    "point_upper_bound": (
        lambda: point_upper_bound(4), 0, 4,
        (("point-cap", "a point of a Fano 4-fold other than projective space "
          "has Seshadri constant at most 4"),),
    ),
    "point_upper_bound-projective-space": (
        lambda: point_upper_bound(4, is_projective_space=True), 5, 5,
        (("point-cap", "a point of projective 4-space has Seshadri constant 5"),),
    ),
    "certify_exact_by_restriction": (
        lambda: certify_exact_by_restriction(
            witness_curve_upper(3),
            blowup_exceptional_shift(linear_subspace_exact(3)),
            Surd(0, 1, 10),
        ),
        3, 3,
        (("witness-curve", "a curve of degree 3 meeting the subvariety caps "
          "epsilon at 3"),
         _LINE_IN_P3, _SHIFT,
         ("restriction-contradiction", "epsilon(Z) < 3 would force computing it "
          "on the intermediate divisor, where it equals sqrt(10) >= 3; so "
          "epsilon(Z) = 3 exactly")),
    ),
}


@pytest.mark.parametrize("case", sorted(RULE_CERTIFICATES))
def test_rule_certificate_is_pinned(case):
    call, lower, upper, provenance = RULE_CERTIFICATES[case]
    e = call()
    assert (e.lower, e.upper, e.provenance) == (lower, upper, provenance)


@pytest.mark.parametrize("steps, message", [
    ([], "empty rule pipeline"),
    ([{"n": 3}], "each pipeline step needs a rule"),
    (["x"], "each pipeline step needs a rule"),
    ([{"rule": "nope"}], "unknown rule 'nope'"),
    ([{"rule": ["nope"]}], "unknown rule ['nope']"),
    ([{"rule": "linear_subspace_exact", "n": 3}, {"n": 3}],
     "each pipeline step needs a rule"),
    # a key the rule has no slot for is refused, not ignored
    ([{"rule": "linear_subspace_exact", "n": 3, "nn": 4}],
     "rule linear_subspace_exact has no slots ['nn']"),
    ([{"rule": "linear_subspace_exact", "n": 3, "as": "a"},
      {"rule": "witness_curve_upper", "degree": Fraction(5), "of": "a"}],
     "rule witness_curve_upper has no slots ['of']"),
    ([{"rule": "moving_curve_upper", None: 1}],
     "rule moving_curve_upper has no slots [None]"),
    ([{"rule": "moving_curve_upper", "z": 1, 2: 0}],
     "rule moving_curve_upper has no slots [2, 'z']"),
])
def test_a_malformed_pipeline_raises_a_typed_error(steps, message):
    # the command line refuses these when a file loads; a library caller
    # gets the same words as an InvalidScenario
    line = CurveScenario.anticanonical_curve(3, 0, 4, 64)
    with pytest.raises(InvalidScenario) as raised:
        run_pipeline(steps, line)
    assert str(raised.value) == f"seshadri pipeline: {message}"


@pytest.mark.parametrize("step, slot", [
    ({"rule": "product_fiber_estimate", "of": None}, "product_fiber_estimate.of"),
    ({"rule": "intersection_min_lower", "first": None, "second": "a"},
     "intersection_min_lower.first"),
    ({"rule": "combine", "of": ["a", None]}, "combine.of"),
])
def test_a_null_estimate_name_is_refused_not_read_as_the_previous_one(step, slot):
    # the witness step before it would be there to fall back on
    line = CurveScenario.anticanonical_curve(3, 0, 4, 64)
    bind = {"rule": "linear_subspace_exact", "n": 3, "as": "a"}
    witness = {"rule": "witness_curve_upper", "degree": Fraction(9, 2)}
    with pytest.raises(InvalidScenario) as raised:
        run_pipeline([bind, witness, step], line)
    assert str(raised.value) == f"seshadri rule {slot}: null is not an estimate name"
