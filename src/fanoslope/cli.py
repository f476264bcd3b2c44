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
success, 1 when any scenario fails validation or the command line is
malformed, 2 on an internal invariant violation.

It reads files into scenarios, each seshadri entry once into its pipeline's
Step records or its declared value's certificate; an entry with a field that
fails to read keeps its fault, which fails that scenario only. Each command
returns its exit code and its whole output as one document, which ``main``
writes to stdout once.
"""

import json
import re
import sys
from collections import namedtuple
from fractions import Fraction
from functools import cache
from types import SimpleNamespace

from .blowup import CurveScenario, check_epsilon_consistency
from .classify import BundleSplitting, ClassifyFlags, classify_curve
from .errors import FanoslopeError, GridOutOfRange, InvalidScenario
from .exactnum import (
    Surd, _ZERO, _read_int, _require_rational, compare, parse_rational, parse_value,
    render_value,
)
from .seshadri import _SLOT_READERS, _declared, _run, read_pipeline
from .slope import destabilizing_quadratic, quotient_slope

__all__ = [
    "main",
    "NamedScenario",
    "ScenarioFile",
    "load_scenario_file",
    "resolve_estimate",
    "format_fixed",
]


# -- scenario files --------------------------------------------------------


class NamedScenario(namedtuple(
    "NamedScenario",
    "name scenario seshadri_spec flags splitting description",
    defaults=(None, None),
)):
    """One scenario as read from a file. ``seshadri_spec`` holds a pipeline's
    ``seshadri.Step`` records or a declared value's ``SeshadriEstimate``; for
    an entry that failed to read, it holds the FanoslopeError, which
    resolve_estimate raises, and ``scenario`` and ``flags`` are None. Every
    value is a Fraction or a Surd."""

    __slots__ = ()


class ScenarioFile(namedtuple("ScenarioFile", "entries")):
    __slots__ = ()


def _read_text(raw, context):
    if not isinstance(raw, str):
        raise InvalidScenario(f"{context}: expected a string")
    return raw


def _read_twists(raw, context):
    if not isinstance(raw, list) or not raw:
        # a key has no dot, so this finds the owner even when a name holds one
        owner, _, key = context.rpartition(".")
        raise InvalidScenario(f"{owner}: {key} must be a non-empty list")
    for twist in raw:
        if type(twist) is not int:
            _read_int(twist, context)
    return BundleSplitting(raw)


def _read_flags(raw, context):
    owner = context.rpartition(".")[0]
    if not isinstance(raw, dict):
        raise InvalidScenario(f"{owner}: flags must be an object")
    if not raw:
        return _NO_FLAGS
    index, is_pn, picard_rank_one = _read_fields(raw, _FLAG_READERS, owner, "flags")
    return ClassifyFlags(is_pn, picard_rank_one, index)


_REQUIRED = object()  # the default of a key every entry must carry
_NO_FLAGS = ClassifyFlags()

# Every field of a scenario entry and of its flags, as key: (kind, default),
# read in this order by the reader of that kind; an absent key takes its
# default unread. The rules across fields are _parse_entry's code.
_ENTRY_FIELDS = {
    "name": ("text", _REQUIRED),
    "n": ("int", _REQUIRED),
    "genus": ("int", _REQUIRED),
    "degree": ("int", _REQUIRED),
    "anticanonical": ("bool", False),
    "description": ("text", None),
    "Ln": ("rational", _REQUIRED),
    "splitting": ("twists", None),
    "normalBundleDegree": ("int", None),
    "KLn1": ("rational", None),
    "seshadri": ("seshadri", _REQUIRED),
    "flags": ("flags", _NO_FLAGS),
}
_FLAG_FIELDS = {
    "fanoIndex": ("int", None),
    "isPn": ("bool", False),
    "picardRankOne": ("bool", False),
}


def _read_fields(raw, readers, context, what):
    """The values of a compiled field table's keys in the object ``raw``,
    in table order."""
    keys, rows = readers
    if not raw.keys() <= keys:
        extra = sorted(raw.keys() - keys)
        raise InvalidScenario(f"{context}: unknown {what} {extra}")
    values = []
    get, append = raw.get, values.append
    for key, taken, reader, default in rows:
        value = get(key, _REQUIRED)
        if type(value) is not taken:  # always for an absent key: no kind takes object
            if value is not _REQUIRED:
                value = reader(value, f"{context}.{key}")
            elif default is _REQUIRED:
                raise InvalidScenario(f"{context}: every scenario needs a {key} entry")
            else:
                value = default
        append(value)
    return values


def _parse_entry(raw):
    if not isinstance(raw, dict):
        raise InvalidScenario("each scenario must be a JSON object")
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise InvalidScenario("each scenario needs a non-empty name")
    (
        _, n, genus, degree, anticanonical, description, ln, splitting,
        normal_degree, k_ln1, spec, flags,
    ) = _read_fields(raw, _ENTRY_READERS, name, "fields")

    # Each message below gets the entry's name in front. A number computed
    # here can pass Python's limit on printing an int: render_value prints it.
    try:
        if splitting is not None:
            twist_sum = sum(splitting.twists)
            if splitting.rank != n - 1:
                raise InvalidScenario(
                    f"splitting has rank {splitting.rank}, but a curve in an "
                    f"{render_value(n)}-fold has normal bundle of rank "
                    f"{render_value(n - 1)}"
                )
            if normal_degree is None:
                normal_degree = twist_sum
            elif twist_sum != normal_degree:
                raise InvalidScenario(
                    f"splitting twists sum to {render_value(twist_sum)}, "
                    f"but normalBundleDegree is {render_value(normal_degree)}"
                )
        elif normal_degree is None and not anticanonical:
            raise InvalidScenario("need normalBundleDegree or a splitting")
        if k_ln1 is None and not anticanonical:
            raise InvalidScenario("need KLn1 unless the scenario is anticanonical")
        scenario = CurveScenario(
            n, genus, degree, normal_degree, ln, k_ln1, anticanonical
        )
    except InvalidScenario as exc:
        raise InvalidScenario(f"{name}: {exc}") from exc
    # a Fano n-fold has index 1..n+1 (Kobayashi-Ochiai)
    if flags.fano_index is not None and not 1 <= flags.fano_index <= n + 1:
        raise InvalidScenario(
            f"{name}.fanoIndex: a Fano {n}-fold has index 1 to {n + 1}, "
            f"got {flags.fano_index}"
        )
    return NamedScenario(name, scenario, spec, flags, splitting, description)


def parse_scenario_file(data):
    if not isinstance(data, dict) or "scenarios" not in data:
        raise InvalidScenario('a scenario file is {"scenarios": [...]}')
    extra = set(data) - {"scenarios"}
    if extra:
        raise InvalidScenario(f"unknown top-level fields {sorted(extra)}")
    entries = data["scenarios"]
    if not isinstance(entries, list):
        raise InvalidScenario("scenarios must be a list")
    parsed = []
    for position, raw in enumerate(entries, 1):
        try:
            parsed.append(_parse_entry(raw))
        except FanoslopeError as fault:  # costs this scenario only
            name = raw.get("name") if isinstance(raw, dict) else None
            label = name if isinstance(name, str) and name else f"#{position}"
            fault = type(fault)(*fault.args)  # no traceback holding the file
            parsed.append(NamedScenario(label, None, fault, None))
    if len({entry.name for entry in parsed}) != len(parsed):
        raise InvalidScenario("scenario names must be unique within a file")
    return ScenarioFile(entries=tuple(parsed))


def _object_without_repeats(pairs):
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for key in keys if keys.count(key) > 1)
        raise InvalidScenario(f"repeated key {repeated!r} in a JSON object")
    return obj


# json.load given a hook builds a decoder on every call; this one keeps no
# state between calls
_DECODER = json.JSONDecoder(object_pairs_hook=_object_without_repeats)


def load_scenario_file(path):
    with open(path, "rb") as handle:
        try:
            # text mode's reading by hand, universal newlines included: a text
            # file object costs more to set up than the file takes to decode
            text = handle.read().decode("utf-8")
            text = text.replace("\r\n", "\n").replace("\r", "\n")
            if text.startswith("\ufeff"):  # refused as json.load refuses it
                raise json.JSONDecodeError(
                    "Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0
                )
            data = _DECODER.decode(text)
        # bad JSON or UTF-8, an over-long integer, nesting too deep to decode
        except (ValueError, RecursionError) as exc:
            raise InvalidScenario(f"{path}: not valid JSON ({exc})") from exc
    return parse_scenario_file(data)


def _read_seshadri_spec(spec, context):
    """A readable seshadri entry's Step records or declared certificate."""
    if isinstance(spec, dict) and "rule" in spec:
        spec = [spec]
    if isinstance(spec, list):
        return read_pipeline(spec, context)
    if isinstance(spec, dict) and not spec.keys().isdisjoint(_DECLARED_KEYS):
        if "exact" not in spec:
            lower, upper = _read_fields(spec, _INTERVAL_READERS, context, "fields")
            return _declared(context, "declared interval", lower, upper)
        (value,) = _read_fields(spec, _EXACT_READERS, context, "fields")
    elif not (isinstance(spec, (str, int)) or (isinstance(spec, dict) and spec)):
        raise InvalidScenario(f"{context}: unreadable seshadri entry {spec!r}")
    else:  # an exact value: a literal, or a bare surd whose fields parse_value checks
        value = parse_value(spec, context)
    statement = f"declared exact value {render_value(value)}"
    return _declared(context, statement, value, value)


# Each field kind as (the one type a JSON value of that kind has when it
# needs no reading, or None, reader): such a value is taken as it is, without
# a reader call or a context string, and no value's type is None. A reader
# checks a raw JSON value and returns what the scenario holds, or raises
# InvalidScenario naming ``context``. The int, bool, rational and value kinds
# are read as a pipeline step's slots are.
_READERS = {
    **_SLOT_READERS,
    "text": (str, _read_text),
    "twists": (None, _read_twists),
    "seshadri": (None, _read_seshadri_spec),
    "flags": (None, _read_flags),
}


def _compile_fields(fields):
    """A field table as _read_fields reads it: its key set, and a row (key,
    taken, reader, default) per key in table order."""
    return frozenset(fields), tuple(
        (key, *_READERS[kind], default) for key, (kind, default) in fields.items()
    )


_ENTRY_READERS = _compile_fields(_ENTRY_FIELDS)
_FLAG_READERS = _compile_fields(_FLAG_FIELDS)
# a declared seshadri value: exact, or an interval with no upper bound if absent
_EXACT_READERS = _compile_fields({"exact": ("value", _REQUIRED)})
_INTERVAL_READERS = _compile_fields(
    {"lower": ("value", _ZERO), "upper": ("value", None)}
)
_DECLARED_KEYS = _EXACT_READERS[0] | _INTERVAL_READERS[0]


def resolve_estimate(entry):
    """A NamedScenario's SeshadriEstimate, unchecked: each command runs
    check_epsilon_consistency on it once. A pipeline's records run; a kept
    certificate is returned and a kept fault raised as they are."""
    spec = entry.seshadri_spec
    if type(spec) is tuple:  # Step records; a certificate is a tuple subclass
        return _run(spec, entry.scenario)
    if isinstance(spec, FanoslopeError):  # an entry that failed to read
        raise spec.with_traceback(None)  # not the last raise's traceback too
    return spec


# -- rendering -------------------------------------------------------------


_PLACES = 6  # the decimal places of sweep's mu_lambda_decimal column


def format_fixed(value):
    """Exact half-even fixed-point rendering of a rational, e.g. '3.600000'."""
    value = _require_rational(value, "value")
    negative = value < 0
    scaled = abs(value) * 10**_PLACES
    q, r = divmod(scaled.numerator, scaled.denominator)
    double = 2 * r
    if double > scaled.denominator or (double == scaled.denominator and q % 2):
        q += 1
    digits = render_value(q).rjust(_PLACES + 1, "0")
    text = f"{digits[:-_PLACES]}.{digits[-_PLACES:]}"
    return f"-{text}" if negative and q else text


# Each command's JSON document has the layout and escaping of
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
    """An exact value or None as JSON: a rational as a string, an irrational
    Surd as an object of its parts closing after ``close``. Any other object
    raises TypeError."""
    if value is None:
        return "null"
    if not isinstance(value, (Fraction, Surd)):
        raise TypeError(f"{type(value).__name__} is not an exact value")
    if isinstance(value, Fraction) or value.is_rational:
        return _text(render_value(value))
    rat, coef = _text(render_value(value.rat)), _text(render_value(value.coef))
    i = close + "  "
    return f'{{{i}"rat": {rat},{i}"coef": {coef},{i}"rad": {value.rad}{close}}}'


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


def _classify_json(records):
    """The classify document around records encoded by _json_verdict."""
    return f'{{{_N1}"verdicts": {_json_array(records, _N1)}\n}}\n'


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


def _text_block(entry, estimate, verdict, error):
    lines = [f"scenario: {entry.name}"]
    if error is not None:
        lines.append(f"  error: {type(error).__name__}: {error}")
        return "\n".join(lines) + "\n"
    if entry.description:
        lines.append(f"  about: {entry.description}")
    lines.append(f"  status: {verdict.status.value}")
    if verdict.witness_lambda is not None:
        lines.append(f"  witness lambda: {render_value(verdict.witness_lambda)}")
    if verdict.condition:
        lines.append(f"  condition: {verdict.condition}")
    lines.append(f"  rule: {verdict.rule}")
    return "\n".join(lines) + "\n" + _text_estimate(estimate)


def _text_estimate(estimate):
    lines = [f"  seshadri: {estimate.describe()}"]
    lines += [f"    - {rule}: {statement}" for rule, statement in estimate.provenance]
    return "\n".join(lines) + "\n"


def _csv_document(header, rows):
    """A CSV document: the header line, then one line per row."""
    return "".join(f"{line}\n" for line in (header, *rows))


def _classify_csv(records):
    return _csv_document("name,status,witness_lambda,rule", records)


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


# Each format's renderer of one scenario's record, and its document of them all
_CLASSIFY_FORMATS = {
    "text": (_text_block, "".join),
    "csv": (_csv_row, _classify_csv),
    "json": (_json_verdict, _classify_json),
}


def cmd_classify(args):
    scenario_file = load_scenario_file(args.file)
    include_endpoint = not args.open_interval
    render, document = _CLASSIFY_FORMATS[args.format]
    records, code = [], 0
    for entry in scenario_file.entries:
        try:
            estimate = resolve_estimate(entry)
            verdict = classify_curve(
                entry.scenario,
                estimate,
                entry.flags,
                include_endpoint=include_endpoint,
            )
            # rendered here, so a value too long to print fails this entry only
            record = render(entry, estimate, verdict, None)
        except FanoslopeError as error:
            record = render(entry, None, None, error)
            code = max(code, 1)
        except Exception as error:  # a program fault costs this entry only
            print(f"internal error: {type(error).__name__}: {error}", file=sys.stderr)
            record = render(entry, None, None, error)
            code = 2
        records.append(record)
    return code, document(records)


def _entry_named(args):
    for entry in load_scenario_file(args.file).entries:
        if entry.name == args.scenario:
            return entry
    raise InvalidScenario(f"{args.file}: no scenario named {args.scenario!r}")


def _checked_estimate(args):
    """The entry --scenario names and its estimate, checked for consistency."""
    entry = _entry_named(args)
    estimate = resolve_estimate(entry)
    check_epsilon_consistency(entry.scenario, estimate.lower)
    return entry, estimate


def cmd_sweep(args):
    entry, estimate = _checked_estimate(args)
    scenario = entry.scenario
    grid = [parse_rational(piece, "grid") for piece in args.grid.split(",")]
    ceiling = estimate.lower
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
        mu = quotient_slope(scenario, lam, cross_check=True).value
        f_value = quadratic(lam)
        sign = "+" if f_value > 0 else ("-" if f_value < 0 else "0")
        rows.append((render_value(lam), render_value(mu), format_fixed(mu),
                     render_value(f_value), sign))
    if args.format == "json":
        return 0, _sweep_json(entry.name, rows)
    return 0, _csv_document(",".join(_SWEEP_COLUMNS), map(",".join, rows))


def cmd_seshadri(args):
    entry, estimate = _checked_estimate(args)
    if args.format == "json":
        return 0, _seshadri_json(entry.name, estimate)
    if args.format == "csv":
        return 0, _csv_document("name,lower,upper,exact", [
            f"{_csv_field(entry.name)},{render_value(estimate.lower)},"
            f"{_csv_value(estimate.upper)},{_csv_value(estimate.exact)}"
        ])
    return 0, f"scenario: {entry.name}\n" + _text_estimate(estimate)


# -- command line ----------------------------------------------------------

# Each command: its help line and its options in help order, as (kind, help).
# A kind is a tuple of choices, the first the default; _FLAG, off unless given;
# or _TEXT, a value that must be given. Each also takes -h/--help and a file.
_FLAG, _TEXT = "flag", "text"
_FORMAT = (("text", "csv", "json"), "output format")
_OPEN_INTERVAL = (_FLAG, "use the open interval (0, epsilon); ties at the "
                  "endpoint no longer destabilize")
_SCENARIO = (_TEXT, "scenario name")
_COMMANDS = {
    "classify": ("stability verdict per scenario",
                 {"--format": _FORMAT, "--open-interval": _OPEN_INTERVAL}),
    "sweep": ("quotient-slope table over a grid", {
        "--format": (("csv", "json"), "output format"), "--scenario": _SCENARIO,
        "--grid": (_TEXT, "comma-separated rational lambda values"),
        "--open-interval": _OPEN_INTERVAL}),
    "seshadri": ("evaluate the Seshadri rule pipeline for one scenario",
                 {"--format": _FORMAT, "--scenario": _SCENARIO}),
}
_HELP = {"-h": (None, _FLAG), "--help": (None, _FLAG)}
# argparse reads a word that looks like a negative number as a positional
_NEGATIVE_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$")


@cache
def build_parser():
    """_COMMANDS compiled once per process: per command (None before it), its
    options by name as (attribute, kind) and its namespace's defaults; help's
    attribute is None."""
    table = {None: (_HELP, None)}
    for command, (_, options) in _COMMANDS.items():
        readers, defaults = dict(_HELP), {"command": command}
        for name, (kind, _) in options.items():
            attribute = name[2:].replace("-", "_")
            readers[name] = (attribute, kind)
            if kind is not _TEXT:
                defaults[attribute] = False if kind is _FLAG else kind[0]
        table[command] = (readers, defaults)
    return table


def _invocation(name, kind):
    if kind is _FLAG:
        return name
    return f"{name} " + (name[2:].upper() if kind is _TEXT else "{%s}" % ",".join(kind))


def _usage(command):
    if command is None:
        return "usage: fanoslope [-h] {%s} ...\n" % ",".join(_COMMANDS)
    words = ["usage: fanoslope", command, "[-h]"]
    for name, (kind, _) in _COMMANDS[command][1].items():
        word = _invocation(name, kind)
        words.append(word if kind is _TEXT else f"[{word}]")
    return " ".join(words) + " file\n"


def _help(command):
    """The help argparse printed, unwrapped: each text starts at one column,
    at most 24, or on the next line when its invocation is too long."""
    options = [("  -h, --help", "show this help message and exit")]
    if command is None:
        text = _usage(None) + ("\nExact slope-stability verdicts, quotient-slope "
                               "sweeps, and Seshadri certificates for curve "
                               "scenarios\n")
        positionals = [("  {%s}" % ",".join(_COMMANDS), "")]
        positionals += [("    " + name, row[0]) for name, row in _COMMANDS.items()]
    else:
        text, positionals = _usage(command), [("  file", "JSON scenario file")]
        for name, (kind, about) in _COMMANDS[command][1].items():
            default = f" (default: {kind[0]})" if type(kind) is tuple else ""
            options.append(("  " + _invocation(name, kind), about + default))
    column = min(max(len(row) for row, _ in positionals + options) + 2, 24)
    for title, rows in (("positional arguments", positionals), ("options", options)):
        text += f"\n{title}:\n"
        for row, about in rows:
            fits = len(row) + 2 <= column
            gap = " " * (column - len(row)) if fits else "\n" + " " * column
            text += (row + gap + about).rstrip() + "\n"
    return text


def _usage_error(command, message):
    prog = "fanoslope" if command is None else f"fanoslope {command}"
    sys.stderr.write(f"{_usage(command)}{prog}: error: {message}\n")
    raise SystemExit(1)


def _is_positional(word, options):
    """Whether argparse read ``word`` as a positional: it names no option,
    even before an "=", and it does not start with "-", is "-" alone, looks
    like a negative number or holds a space."""
    return word.partition("=")[0] not in options and (
        not word.startswith("-") or word == "-" or " " in word
        or _NEGATIVE_NUMBER.match(word) is not None)


def _read_argv(argv):
    """Read argv once, left to right, against build_parser()'s table into the
    namespace argparse gave: command, file and one attribute per option.
    README gives the grammar. Help exits 0 and a usage error exits 1."""
    table = build_parser()
    command, (options, values) = None, table[None]
    extras, dashed, words = [], False, iter(argv)
    for word in words:
        if not dashed:
            if word == "--":
                dashed = True
                continue
            name, equals, explicit = word.partition("=")  # no name holds "="
            if name in options:
                explicit = explicit if equals else None
                attribute, kind = options[name]
                if kind is _FLAG and explicit is not None:
                    name = name if attribute else "-h/--help"
                    _usage_error(command, f"argument {name}: ignored explicit "
                                 f"argument {explicit!r}")
                if attribute is None:
                    sys.stdout.write(_help(command))
                    raise SystemExit(0)
                if kind is not _FLAG and explicit is None:
                    explicit = next(words, None)
                    if explicit is None or not _is_positional(explicit, options):
                        _usage_error(command, f"argument {name}: expected one "
                                     "argument")
                if type(kind) is tuple and explicit not in kind:
                    choices = ", ".join(map(repr, kind))
                    _usage_error(command, f"argument {name}: invalid choice: "
                                 f"{explicit!r} (choose from {choices})")
                values[attribute] = True if kind is _FLAG else explicit
                continue
            if not _is_positional(word, options):
                extras.append(word)
                continue
        if command is None:
            if word not in _COMMANDS:
                _usage_error(None, f"argument command: invalid choice: {word!r} "
                             f"(choose from {', '.join(map(repr, _COMMANDS))})")
            command, (options, values) = word, table[word]
            values = dict(values)
        elif "file" not in values:
            values["file"] = word
        else:
            extras.append(word)
    if command is None:
        _usage_error(None, "the following arguments are required: command")
    missing = ["file"] * ("file" not in values) + [
        name for name, (attribute, kind) in options.items()
        if kind is _TEXT and attribute not in values]
    if missing:
        _usage_error(command, "the following arguments are required: "
                     + ", ".join(missing))
    if extras:
        _usage_error(command, "unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(**values)


def main(argv=None):
    args = _read_argv(sys.argv[1:] if argv is None else argv)
    # looked up when main runs, so a patched cmd_* is the one called
    command = globals()[f"cmd_{args.command}"]
    try:
        code, document = command(args)
        sys.stdout.write(document)  # the command's one write
    except (FanoslopeError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        code = 1
    except Exception as error:  # internal invariant violation
        print(f"internal error: {type(error).__name__}: {error}", file=sys.stderr)
        code = 2
    return code


if __name__ == "__main__":
    sys.exit(main())
