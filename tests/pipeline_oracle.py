"""The Seshadri pipeline interpreter as the command line used to hold it.

``_RULES`` and ``_run_pipeline`` are kept verbatim from the command line,
before the rule table and the interpreter moved into ``fanoslope.seshadri``
as ``RULES`` and ``run_pipeline``, so a differential test in ``test_cli.py``
can run each generated pipeline through both. ``_read_int`` and
``_read_bool`` are the readers the old interpreter called, verbatim;
``parse_rational`` and ``parse_value`` moved into ``fanoslope.exactnum``
unchanged and are imported from there. The rules themselves are the
library's.
"""

from functools import reduce

from fanoslope import seshadri as _seshadri
from fanoslope.errors import InvalidScenario
from fanoslope.exactnum import parse_rational, parse_value


def _read_int(raw, context):
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise InvalidScenario(f"{context}: expected an integer, got {raw!r}")
    return raw


def _read_bool(raw, context):
    if not isinstance(raw, bool):
        raise InvalidScenario(f"{context}: expected true or false, got {raw!r}")
    return raw


# the kinds the old interpreter could still read when a step ran
_READERS = {
    "int": _read_int,
    "bool": _read_bool,
    "rational": parse_rational,
    "value": parse_value,
}


# Every rule with its slots in call order, as (key, kind) pairs. Rational and
# value slots are read when the file is read, so a bad one fails the whole
# file; the other kinds, and a missing rational or value slot, are checked
# when the step runs and fail only their scenario. The scenario kind has no
# key. A step may carry only "rule", "as" and its rule's slot keys.
_RULES = {
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


def _run_pipeline(steps, scenario):
    """Interpret a list of rule invocations into a single estimate.

    Steps run in order; each may bind its result with "as" and refer to
    earlier results by name. Where a step needs an input estimate ("of",
    or rule-specific slots) the default is the previous step's result.
    """
    named = {}
    previous = None

    def fetch(ref, context):
        if ref is None:
            if previous is None:
                raise InvalidScenario(f"{context}: no previous estimate to use")
            return previous
        if not isinstance(ref, str) or ref not in named:
            raise InvalidScenario(f"{context}: unknown estimate name {ref!r}")
        return named[ref]

    def read(step, key, kind, context):
        if kind == "scenario":
            return scenario
        if kind == "ref":
            return fetch(step.get(key), context)
        if kind == "refs":
            refs = step.get(key)
            if not isinstance(refs, list) or len(refs) < 2:
                raise InvalidScenario(f"{context}: needs a list of names")
            return [fetch(ref, context) for ref in refs]
        if kind in ("rational", "value") and key in step:
            return step[key]  # read when the file loaded
        # an absent bool slot is false; any other absent slot fails to read
        raw = step.get(key, False if kind == "bool" else None)
        return _READERS[kind](raw, f"{context}.{key}")

    for step in steps:
        rule = step["rule"]
        context = f"seshadri rule {rule}"
        args = [read(step, key, kind, context) for key, kind in _RULES[rule]]
        if rule == "combine":
            estimate = reduce(_seshadri.SeshadriEstimate.merge, args[0])
        else:
            # looked up when the step runs, so a patched rule is the one called
            estimate = getattr(_seshadri, rule)(*args)
        if "as" in step:
            label = step["as"]
            if not isinstance(label, str) or not label:
                raise InvalidScenario(
                    f'{context}: "as" must be a non-empty name, got {label!r}'
                )
            named[label] = estimate
        previous = estimate
    return previous
