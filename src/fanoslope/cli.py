"""Batch command-line interface.

Three subcommands operate on JSON scenario files:

* ``classify FILE`` -- one stability verdict block per scenario;
* ``sweep FILE --scenario NAME --grid 1,3/2,2`` -- exact quotient-slope table
  over a rational grid;
* ``seshadri FILE --scenario NAME`` -- evaluate the Seshadri rule pipeline
  and print the provenance chain.

Scenario files carry exact numbers only: rationals as strings like "18/5"
(plain JSON integers are also fine), quadratic surds as objects
{"rat": "a/b", "coef": "c/d", "rad": k}. Floats are rejected rather than
silently rounded. A file is read once, when it loads, into exact values:
resolving and rendering a scenario never parse JSON again. Exit codes: 0 on
success, 1 when any scenario fails validation, 2 on an internal invariant
violation.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce

from . import seshadri as _seshadri
from .blowup import CurveScenario, check_epsilon_consistency
from .classify import BundleSplitting, ClassifyFlags, classify_curve
from .errors import FanoslopeError, GridOutOfRange, InvalidScenario
from .exactnum import (
    _MAX_RADICAND, Surd, _require_rational, compare, render_value,
)
from .slope import destabilizing_quadratic, quotient_slope

__all__ = [
    "main",
    "NamedScenario",
    "ScenarioFile",
    "load_scenario_file",
    "resolve_estimate",
    "format_fixed",
]


# -- exact number (de)serialization ----------------------------------------

# ASCII digits only: \d would also admit other scripts' digits such as "٣"
_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def parse_rational(value, context="value"):
    if isinstance(value, bool):
        raise InvalidScenario(f"{context}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise InvalidScenario(
            f"{context}: floats are not exact; write the rational as a "
            'string like "18/5"'
        )
    if not isinstance(value, str):
        raise InvalidScenario(f"{context}: cannot read a rational from {value!r}")
    if _RATIONAL.fullmatch(value):
        numerator, _, denominator = value.partition("/")
        try:  # int() refuses more than 4300 digits with a ValueError
            return Fraction(int(numerator), int(denominator or 1))
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidScenario(f"{context}: bad rational {value!r}") from exc
    raise InvalidScenario(f"{context}: bad rational {value!r}")


def parse_value(value, context="value"):
    """A rational or a surd object; a surd that turns out rational is
    returned as its Fraction."""
    if isinstance(value, dict):
        extra = set(value) - {"rat", "coef", "rad"}
        if extra:
            raise InvalidScenario(f"{context}: unknown surd fields {sorted(extra)}")
        rad = value.get("rad", 0)
        if (
            not isinstance(rad, int) or isinstance(rad, bool)
            or not 0 <= rad < _MAX_RADICAND
        ):
            raise InvalidScenario(
                f"{context}: surd radicand must be a non-negative integer "
                f"below {_MAX_RADICAND}"
            )
        surd = Surd(
            parse_rational(value.get("rat", 0), context),
            parse_rational(value.get("coef", 0), context),
            rad,
        )
        return surd.rat if surd.is_rational else surd
    return parse_rational(value, context)


def dump_value(value):
    """The JSON spelling of an exact value in command output: a string, or
    for an irrational Surd an object of its parts. Any other object raises
    TypeError."""
    if isinstance(value, Surd):
        if value.is_rational:
            return str(value.rat)
        return {"rat": str(value.rat), "coef": str(value.coef), "rad": value.rad}
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"{type(value).__name__} is not an exact value")


# -- scenario files --------------------------------------------------------


@dataclass(frozen=True)
class NamedScenario:
    """One scenario as read from a file. ``seshadri_spec`` is
    ``{"exact": v}``, ``{"lower": v, "upper": v or None}`` or a tuple of
    pipeline steps whose rational and value slots are already read; every
    value is a Fraction or a Surd."""

    name: str
    scenario: CurveScenario
    seshadri_spec: object
    flags: ClassifyFlags
    splitting: BundleSplitting | None = None
    description: str | None = None


@dataclass(frozen=True)
class ScenarioFile:
    entries: tuple[NamedScenario, ...]


_FLAG_KEYS = {"isPn", "picardRankOne", "fanoIndex"}
_ENTRY_KEYS = {
    "name",
    "description",
    "n",
    "genus",
    "degree",
    "normalBundleDegree",
    "splitting",
    "Ln",
    "KLn1",
    "anticanonical",
    "seshadri",
    "flags",
}


def _parse_int(raw, context):
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise InvalidScenario(f"{context}: expected an integer, got {raw!r}")
    return raw


def _parse_bool(raw, context):
    if not isinstance(raw, bool):
        raise InvalidScenario(f"{context}: expected true or false, got {raw!r}")
    return raw


def _parse_flags(raw, context):
    if not isinstance(raw, dict):
        raise InvalidScenario(f"{context}: flags must be an object")
    extra = set(raw) - _FLAG_KEYS
    if extra:
        raise InvalidScenario(f"{context}: unknown flags {sorted(extra)}")
    index = None
    if "fanoIndex" in raw:
        index = _parse_int(raw["fanoIndex"], context + ".fanoIndex")
    return ClassifyFlags(
        is_pn=_parse_bool(raw.get("isPn", False), context + ".isPn"),
        picard_rank_one=_parse_bool(
            raw.get("picardRankOne", False), context + ".picardRankOne"
        ),
        fano_index=index,
    )


def _parse_entry(raw):
    if not isinstance(raw, dict):
        raise InvalidScenario("each scenario must be a JSON object")
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise InvalidScenario("each scenario needs a non-empty name")
    extra = set(raw) - _ENTRY_KEYS
    if extra:
        raise InvalidScenario(f"{name}: unknown fields {sorted(extra)}")
    n = _parse_int(raw.get("n"), f"{name}.n")
    genus = _parse_int(raw.get("genus"), f"{name}.genus")
    degree = _parse_int(raw.get("degree"), f"{name}.degree")
    anticanonical = _parse_bool(
        raw.get("anticanonical", False), f"{name}.anticanonical"
    )
    description = raw.get("description")
    if "description" in raw and not isinstance(description, str):
        raise InvalidScenario(f"{name}.description: expected a string")
    ln = parse_rational(raw.get("Ln"), f"{name}.Ln")

    splitting = None
    if "splitting" in raw:
        twists = raw["splitting"]
        if not isinstance(twists, list) or not twists:
            raise InvalidScenario(f"{name}: splitting must be a non-empty list")
        splitting = BundleSplitting(
            _parse_int(t, f"{name}.splitting") for t in twists
        )

    if "normalBundleDegree" in raw:
        normal_degree = _parse_int(
            raw["normalBundleDegree"], f"{name}.normalBundleDegree"
        )
    elif splitting is not None:
        normal_degree = sum(splitting.twists)
    elif anticanonical:
        normal_degree = degree - 2 + 2 * genus
    else:
        raise InvalidScenario(
            f"{name}: need normalBundleDegree or a splitting"
        )
    if splitting is not None and splitting.rank != n - 1:
        raise InvalidScenario(
            f"{name}: splitting has rank {splitting.rank}, but a curve in an "
            f"{n}-fold has normal bundle of rank {n - 1}"
        )
    if splitting is not None and sum(splitting.twists) != normal_degree:
        raise InvalidScenario(
            f"{name}: splitting twists sum to {sum(splitting.twists)}, "
            f"but normalBundleDegree is {normal_degree}"
        )

    if anticanonical:
        k_ln1 = -ln
        if "KLn1" in raw and parse_rational(raw["KLn1"], f"{name}.KLn1") != k_ln1:
            raise InvalidScenario(
                f"{name}: anticanonical scenarios have KLn1 = -Ln"
            )
    elif "KLn1" in raw:
        k_ln1 = parse_rational(raw["KLn1"], f"{name}.KLn1")
    else:
        raise InvalidScenario(
            f"{name}: need KLn1 unless the scenario is anticanonical"
        )

    if "seshadri" not in raw:
        raise InvalidScenario(f"{name}: every scenario needs a seshadri entry")

    scenario = CurveScenario(
        n=n,
        genus=genus,
        degree=degree,
        normal_degree=normal_degree,
        ln=ln,
        k_ln1=k_ln1,
        anticanonical=anticanonical,
    )
    return NamedScenario(
        name=name,
        scenario=scenario,
        seshadri_spec=_read_seshadri_spec(raw["seshadri"], name),
        flags=_parse_flags(raw["flags"], name) if "flags" in raw else ClassifyFlags(),
        splitting=splitting,
        description=description,
    )


def parse_scenario_file(data):
    if not isinstance(data, dict) or "scenarios" not in data:
        raise InvalidScenario('a scenario file is {"scenarios": [...]}')
    extra = set(data) - {"scenarios"}
    if extra:
        raise InvalidScenario(f"unknown top-level fields {sorted(extra)}")
    entries = data["scenarios"]
    if not isinstance(entries, list):
        raise InvalidScenario("scenarios must be a list")
    parsed = tuple(_parse_entry(e) for e in entries)
    names = [e.name for e in parsed]
    if len(set(names)) != len(names):
        raise InvalidScenario("scenario names must be unique within a file")
    return ScenarioFile(entries=parsed)


def _object_without_repeats(pairs):
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for key in keys if keys.count(key) > 1)
        raise InvalidScenario(f"repeated key {repeated!r} in a JSON object")
    return obj


def load_scenario_file(path):
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle, object_pairs_hook=_object_without_repeats)
        # bad JSON or UTF-8, an over-long integer, nesting too deep to decode
        except (ValueError, RecursionError) as exc:
            raise InvalidScenario(f"{path}: not valid JSON ({exc})") from exc
    return parse_scenario_file(data)


# -- the seshadri rule pipeline --------------------------------------------

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
_LOAD_PARSERS = {"rational": parse_rational, "value": parse_value}


def _read_seshadri_spec(spec, name):
    """The seshadri entry in the form ``NamedScenario.seshadri_spec`` holds."""
    context = f"{name}.seshadri"
    if isinstance(spec, dict) and "rule" in spec:
        spec = [spec]
    if isinstance(spec, list):
        if not spec:
            raise InvalidScenario(f"{context}: empty rule pipeline")
        return tuple(_read_step(step, context) for step in spec)
    if isinstance(spec, dict) and spec.keys() & {"exact", "lower", "upper"}:
        extra = set(spec) - ({"exact"} if "exact" in spec else {"lower", "upper"})
        if extra:
            raise InvalidScenario(f"{context}: unknown fields {sorted(extra)}")
        if "exact" in spec:
            return {"exact": parse_value(spec["exact"], context)}
        return {
            "lower": parse_value(spec.get("lower", 0), context),
            "upper": parse_value(spec["upper"], context) if "upper" in spec else None,
        }
    if isinstance(spec, (str, int)) or (isinstance(spec, dict) and spec):
        # a literal or a bare surd object, whose fields parse_value checks
        return {"exact": parse_value(spec, context)}
    raise InvalidScenario(f"{context}: unreadable seshadri entry {spec!r}")


def _read_step(step, context):
    if not isinstance(step, dict) or "rule" not in step:
        raise InvalidScenario(f"{context}: each pipeline step needs a rule")
    rule = step["rule"]
    if not isinstance(rule, str) or rule not in _RULES:
        raise InvalidScenario(f"{context}: unknown rule {rule!r}")
    slots = _RULES[rule]
    extra = set(step) - {"rule", "as"} - {key for key, _ in slots}
    if extra:
        raise InvalidScenario(
            f"{context}: rule {rule} has no slots {sorted(extra)}"
        )
    out = dict(step)
    for key, kind in slots:
        if key in out and kind in _LOAD_PARSERS:
            out[key] = _LOAD_PARSERS[kind](out[key], f"{context}.{key}")
    return out


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
        if kind == "bool":
            return _parse_bool(step.get(key, False), f"{context}.{key}")
        if kind == "int":
            return _parse_int(step.get(key), f"{context}.{key}")
        if key not in step:  # a present rational or value slot was read at load
            raise InvalidScenario(
                f"{context}.{key}: cannot read a rational from None"
            )
        return step[key]

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


def _declared_value(value, context):
    """A declared Seshadri value, or None for no upper bound. Seshadri
    constants are positive, so a negative one is an error of this scenario."""
    if value is None:
        return None
    if (value.sign() if isinstance(value, Surd) else value) < 0:
        raise InvalidScenario(
            f"{context}: a Seshadri bound cannot be negative, "
            f"got {render_value(value)}"
        )
    return value


def resolve_estimate(entry):
    """Evaluate a NamedScenario's seshadri spec into a SeshadriEstimate."""
    spec = entry.seshadri_spec
    context = f"{entry.name}.seshadri"
    if isinstance(spec, tuple):
        estimate = _run_pipeline(spec, entry.scenario)
    elif "exact" not in spec:
        estimate = _seshadri.SeshadriEstimate(
            lower=_declared_value(spec["lower"], context),
            upper=_declared_value(spec["upper"], context),
            provenance=(
                _seshadri.ProvenanceEntry("declared", "declared interval"),
            ),
        )
    else:
        value = _declared_value(spec["exact"], context)
        estimate = _seshadri.SeshadriEstimate.exactly(
            value,
            (
                _seshadri.ProvenanceEntry(
                    "declared", f"declared exact value {render_value(value)}"
                ),
            ),
        )
    check_epsilon_consistency(entry.scenario, estimate.lower)
    return estimate


# -- deterministic decimal rendering ---------------------------------------


def format_fixed(value, places=6):
    """Exact half-even fixed-point rendering of a rational, e.g. '3.600000'."""
    value = _require_rational(value, "value")
    negative = value < 0
    scaled = abs(value) * 10**places
    q, r = divmod(scaled.numerator, scaled.denominator)
    double = 2 * r
    if double > scaled.denominator or (double == scaled.denominator and q % 2):
        q += 1
    digits = str(q).rjust(places + 1, "0")
    text = f"{digits[:-places]}.{digits[-places:]}"
    return f"-{text}" if negative and q else text


# -- rendering -------------------------------------------------------------


# Each command writes one JSON document in the layout and escaping of
# json.dumps(document, indent=2). Line breaks with indents are constants: an
# f-string replacement field may hold no backslash before Python 3.12.
_text = json.encoder.encode_basestring_ascii
_N1, _N2, _N3, _N4 = ("\n" + "  " * depth for depth in range(1, 5))
_SWEEP_COLUMNS = ("lambda", "mu_lambda", "mu_lambda_decimal", "f_lambda", "sign")
_SWEEP_ROW = (  # a str.format template with one {} per column
    _N2 + "{{" + ",".join(f'{_N3}"{key}": {{}}' for key in _SWEEP_COLUMNS) + _N2 + "}}"
)


def _json_array(items, close):
    """Encoded items, each led by a line break, as an array closing after ``close``."""
    return "[" + ",".join(items) + close + "]" if items else "[]"


def _json_value(value, close):
    """An exact value or None as JSON; a surd object closes after ``close``."""
    if value is None:
        return "null"
    spelled = dump_value(value)
    if type(spelled) is str:
        return _text(spelled)
    rat, coef, rad = _text(spelled["rat"]), _text(spelled["coef"]), spelled["rad"]
    i = close + "  "
    return f'{{{i}"rat": {rat},{i}"coef": {coef},{i}"rad": {rad}{close}}}'


def _json_provenance(provenance, close):
    """A provenance chain as a JSON array closing after ``close``."""
    step, item = close + "  ", close + "    "
    items = [f"{step}[{item}{_text(r)},{item}{_text(s)}{step}]" for r, s in provenance]
    return _json_array(items, close)


def _json_verdict(entry, estimate, verdict, error):
    head = f'{_N2}{{{_N3}"name": {_text(entry.name)},{_N3}'
    if error is not None:
        kind = _text(type(error).__name__)
        return f'{head}"error": {_text(str(error))},{_N3}"error_type": {kind}{_N2}}}'
    condition = "null" if verdict.condition is None else _text(verdict.condition)
    return (
        f'{head}"status": {_text(verdict.status.value)},'
        f'{_N3}"witness_lambda": {_json_value(verdict.witness_lambda, _N3)},'
        f'{_N3}"rule": {_text(verdict.rule)},{_N3}"condition": {condition},'
        f'{_N3}"seshadri": {{{_N4}"lower": {_json_value(estimate.lower, _N4)},'
        f'{_N4}"upper": {_json_value(estimate.upper, _N4)},{_N4}"provenance": '
        f"{_json_provenance(estimate.provenance, _N4)}{_N3}}}{_N2}}}"
    )


def _classify_json(results):
    records = _json_array([_json_verdict(*result) for result in results], _N1)
    return f'{{{_N1}"verdicts": {records}\n}}\n'


def _sweep_json(name, rows):
    records = _json_array([_SWEEP_ROW.format(*map(_text, row)) for row in rows], _N1)
    return f'{{{_N1}"scenario": {_text(name)},{_N1}"rows": {records}\n}}\n'


def _seshadri_json(name, estimate):
    return (
        f'{{{_N1}"scenario": {_text(name)},'
        f'{_N1}"lower": {_json_value(estimate.lower, _N1)},'
        f'{_N1}"upper": {_json_value(estimate.upper, _N1)},'
        f'{_N1}"exact": {_json_value(estimate.exact, _N1)},'
        f'{_N1}"provenance": {_json_provenance(estimate.provenance, _N1)}\n}}\n'
    )


def _csv_row(entry, estimate, verdict, error):
    if error is not None:
        return f"{_csv_field(entry.name)},error,,{type(error).__name__}"
    return (
        f"{_csv_field(entry.name)},{verdict.status.value},"
        f"{_csv_value(verdict.witness_lambda)},{_csv_quoted(verdict.rule)}"
    )


def _print_block(out, entry, estimate, verdict, error):
    print(f"scenario: {entry.name}", file=out)
    if error is not None:
        print(f"  error: {type(error).__name__}: {error}", file=out)
        return
    if entry.description:
        print(f"  about: {entry.description}", file=out)
    print(f"  status: {verdict.status.value}", file=out)
    if verdict.witness_lambda is not None:
        print(
            f"  witness lambda: {render_value(verdict.witness_lambda)}",
            file=out,
        )
    if verdict.condition:
        print(f"  condition: {verdict.condition}", file=out)
    print(f"  rule: {verdict.rule}", file=out)
    _print_estimate(out, estimate)


def _print_estimate(out, estimate):
    print(f"  seshadri: {estimate.describe()}", file=out)
    for rule, statement in estimate.provenance:
        print(f"    - {rule}: {statement}", file=out)


def _csv_value(value):
    """An exact value, or None, as a CSV field."""
    return "" if value is None else render_value(value)


def _csv_field(text):
    """One CSV field per RFC 4180: quoted, with inner quotes doubled, when
    it holds a comma, a quote or a line break."""
    if any(ch in text for ch in ',"\r\n'):
        return _csv_quoted(text)
    return text


def _csv_quoted(text):
    return '"' + text.replace('"', '""') + '"'


# -- subcommands -----------------------------------------------------------


def cmd_classify(args, out=None):
    out = out if out is not None else sys.stdout
    scenario_file = load_scenario_file(args.file)
    include_endpoint = not args.open_interval
    results = []  # (entry, estimate, verdict, error), error None on success
    for entry in scenario_file.entries:
        try:
            estimate = resolve_estimate(entry)
            verdict = classify_curve(
                entry.scenario,
                estimate,
                entry.flags,
                include_endpoint=include_endpoint,
            )
            result = (entry, estimate, verdict, None)
        except FanoslopeError as error:
            result = (entry, None, None, error)
        results.append(result)
        if args.format == "text":
            _print_block(out, *result)
    if args.format == "json":
        out.write(_classify_json(results))
    elif args.format == "csv":
        print("name,status,witness_lambda,rule", file=out)
        for result in results:
            print(_csv_row(*result), file=out)
    return 1 if any(error is not None for _, _, _, error in results) else 0


def _entry_named(args):
    for entry in load_scenario_file(args.file).entries:
        if entry.name == args.scenario:
            return entry
    raise InvalidScenario(f"{args.file}: no scenario named {args.scenario!r}")


def _parse_grid(text):
    points = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        points.append(parse_rational(piece, "grid"))
    if not points:
        raise InvalidScenario("the sweep grid is empty")
    return points


def cmd_sweep(args, out=None):
    out = out if out is not None else sys.stdout
    entry = _entry_named(args)
    estimate = resolve_estimate(entry)
    scenario = entry.scenario
    grid = _parse_grid(args.grid)
    ceiling = estimate.exact if estimate.is_exact else estimate.lower
    quadratic = destabilizing_quadratic(scenario)
    rows = []
    for lam in grid:
        if lam <= 0:
            raise GridOutOfRange(f"grid point {lam} is not positive")
        edge = compare(lam, ceiling)
        if edge > 0 or (args.open_interval and edge == 0):
            raise GridOutOfRange(
                f"grid point {lam} lies outside the certified interval "
                f"(0, {render_value(ceiling)}"
                + (")" if args.open_interval else "]")
            )
        mu = quotient_slope(scenario, lam).value
        f_value = quadratic(lam)
        sign = "+" if f_value > 0 else ("-" if f_value < 0 else "0")
        rows.append((str(lam), str(mu), format_fixed(mu), str(f_value), sign))
    if args.format == "json":
        out.write(_sweep_json(entry.name, rows))
    else:
        print(",".join(_SWEEP_COLUMNS), file=out)
        for row in rows:
            print(",".join(row), file=out)
    return 0


def cmd_seshadri(args, out=None):
    out = out if out is not None else sys.stdout
    entry = _entry_named(args)
    estimate = resolve_estimate(entry)
    if args.format == "json":
        out.write(_seshadri_json(entry.name, estimate))
    elif args.format == "csv":
        print("name,lower,upper,exact", file=out)
        print(
            f"{_csv_field(entry.name)},{render_value(estimate.lower)},"
            f"{_csv_value(estimate.upper)},{_csv_value(estimate.exact)}",
            file=out,
        )
    else:
        print(f"scenario: {entry.name}", file=out)
        _print_estimate(out, estimate)
    return 0


@cache
def build_parser():
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="fanoslope",
        description=(
            "Exact slope-stability verdicts, quotient-slope sweeps, and "
            "Seshadri certificates for curve scenarios"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--open-interval",
        action="store_true",
        help="use the open interval (0, epsilon); ties at the endpoint no "
        "longer destabilize",
    )
    common.add_argument(
        "--format",
        choices=("text", "csv", "json"),
        default="text",
        help="output format (default: text)",
    )

    p_classify = sub.add_parser(
        "classify", parents=[common], help="stability verdict per scenario"
    )
    p_classify.add_argument("file", help="JSON scenario file")

    p_sweep = sub.add_parser(
        "sweep", parents=[common], help="quotient-slope table over a grid"
    )
    p_sweep.add_argument("file", help="JSON scenario file")
    p_sweep.add_argument("--scenario", required=True, help="scenario name")
    p_sweep.add_argument(
        "--grid", required=True, help="comma-separated rational lambda values"
    )

    p_sesh = sub.add_parser(
        "seshadri",
        parents=[common],
        help="evaluate the Seshadri rule pipeline for one scenario",
    )
    p_sesh.add_argument("file", help="JSON scenario file")
    p_sesh.add_argument("--scenario", required=True, help="scenario name")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    # looked up when main runs, so a patched cmd_* is the one called
    command = globals()[f"cmd_{args.command}"]
    try:
        code = command(args)
    except FanoslopeError as error:
        print(f"error: {error}", file=sys.stderr)
        code = 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        code = 1
    except Exception as error:  # internal invariant violation
        print(f"internal error: {type(error).__name__}: {error}", file=sys.stderr)
        code = 2
    return code


if __name__ == "__main__":
    sys.exit(main())
