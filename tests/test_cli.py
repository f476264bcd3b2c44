"""Command-line interface: parsing, output formats, exit codes."""

import ast
import contextlib
import copy
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from types import SimpleNamespace
from importlib.resources import files
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import argparse_oracle
import surd_oracle
import fanoslope.classify
import fanoslope.cli as cli
import fanoslope.exactnum as exactnum
import fanoslope.seshadri as seshadri
import fanoslope.slope
import pipeline_oracle
from fanoslope.cli import format_fixed, main, parse_scenario_file
from fanoslope.blowup import CurveScenario
from fanoslope.classify import (
    BundleSplitting, ClassifyFlags, Verdict, VerdictStatus,
)
from fanoslope.errors import FanoslopeError, GridOutOfRange, InvalidScenario
from fanoslope.exactnum import _MAX_RADICAND, Surd, parse_rational, parse_value
from fanoslope.seshadri import (
    RULES, STEP_KEYS, ProvenanceEntry, SeshadriEstimate, Step,
)

FIXTURES = files("fanoslope") / "fixtures"
GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def fixture(name):
    return str(FIXTURES / name)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- value parsing ---------------------------------------------------------


def test_parse_rational_accepts_ints_and_fraction_strings():
    assert parse_rational(5) == Fraction(5)
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)


def test_parse_rational_rejects_floats_and_garbage():
    with pytest.raises(InvalidScenario, match="floats are not exact"):
        parse_rational(0.5)
    with pytest.raises(InvalidScenario):
        parse_rational("three")


@pytest.mark.parametrize(
    "text",
    ["1e5", "1e5000", "1e4000000", "0.1", " 3", "3 ", "3\n", "+3", "1_000",
     "\u0663", "3/\u0664", "1/0", "0/0", "3/", "/3", "-", "--3", "3/-4",
     "1" * 5000, "1/" + "1" * 5000],
)
def test_parse_rational_takes_only_ascii_digits_and_one_slash(text):
    # exactly -?[0-9]+(/[0-9]+)?, with int()'s 4300-digit limit as the only cap
    with pytest.raises(InvalidScenario, match="bad rational"):
        parse_rational(text, "grid")


def test_parse_rational_reads_the_grammar_exactly():
    assert parse_rational("-0") == 0
    assert parse_rational("007/014") == Fraction(1, 2)
    assert parse_rational("-18/5") == Fraction(-18, 5)
    assert parse_rational("9" * 4300) == int("9" * 4300)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.from_regex(exactnum._RATIONAL, fullmatch=True))
@example("0")
@example("-0")
@example("0123")
@example("-45/06")
def test_every_string_of_the_grammar_reads_as_fraction_reads_it(text):
    _, slash, denominator = text.partition("/")
    if slash and int(denominator) == 0:
        with pytest.raises(InvalidScenario, match="bad rational"):
            parse_rational(text)
        return
    value = parse_rational(text)
    assert type(value) is Fraction and value == Fraction(text)


@pytest.mark.parametrize(
    "text", ["1" * 4301, "-" + "1" * 4301, "1/" + "1" * 4301, "1" * 4301 + "/2"]
)
def test_a_4301_digit_part_is_a_bad_rational(text):
    with pytest.raises(InvalidScenario, match="bad rational"):
        parse_rational(text, "Ln")


def test_parse_value_surd_round_trip():
    value = parse_value({"rat": "-1", "coef": "2", "rad": 2}, "test")
    assert value == Surd(-1, 2, 2)
    assert parse_value(json.loads(cli._json_value(value, "")), "test") == value
    assert cli._json_value(Fraction(3, 4), "") == '"3/4"'


@pytest.mark.parametrize("value", [3, "3"], ids=["int", "str"])
def test_dump_value_refuses_anything_but_an_exact_value(value):
    # the JSON writer spells every value through _json_value, so an
    # unexpected object fails loudly; None is the writer's null
    with pytest.raises(TypeError):
        cli._json_value(value, "")


# -- fixed-point rendering -------------------------------------------------


def test_format_fixed_basics():
    assert format_fixed(Fraction(18, 5)) == "3.600000"
    assert format_fixed(Fraction(10, 7)) == "1.428571"
    assert format_fixed(Fraction(-3, 2)) == "-1.500000"
    assert format_fixed(Fraction(0)) == "0.000000"


def test_format_fixed_half_even_ties():
    assert format_fixed(Fraction(25, 10**7)) == "0.000002"
    assert format_fixed(Fraction(35, 10**7)) == "0.000004"
    assert format_fixed(Fraction(-25, 10**7)) == "-0.000002"


def test_format_fixed_never_prints_negative_zero():
    assert format_fixed(Fraction(-1, 10**9)) == "0.000000"


# -- scenario files --------------------------------------------------------

ALL_FIXTURES = ["pn_line.json", "p1xpn.json", "blp3_fiber.json", "gallery.json"]


def minimal_entry(**overrides):
    entry = {
        "name": "x",
        "n": 3,
        "genus": 0,
        "degree": 4,
        "anticanonical": True,
        "Ln": "64",
        "seshadri": "4",
    }
    entry.update(overrides)
    return {"scenarios": [entry]}


def _kept_fault(data):
    """The words of the fault the one entry of ``data`` failed to read with:
    the file loads, and the entry keeps the fault in place of its scenario."""
    (entry,) = parse_scenario_file(data).entries
    assert (entry.scenario, entry.flags) == (None, None)
    assert type(entry.seshadri_spec) is InvalidScenario
    assert entry.seshadri_spec.__traceback__ is None  # holding no frame of the load
    return str(entry.seshadri_spec)


def test_scenario_file_rejects_unknown_fields():
    fault = _kept_fault(minimal_entry(bogus=1))
    assert fault == "x: unknown fields ['bogus']"


def test_scenario_file_rejects_float_literals():
    fault = _kept_fault(minimal_entry(Ln=64.0))
    assert fault.startswith("x.Ln: floats are not exact")


def test_scenario_file_rejects_inconsistent_kln1():
    fault = _kept_fault(minimal_entry(KLn1="-60"))
    assert fault == "x: anticanonical scenarios have KLn1 = -Ln"


def test_scenario_file_rejects_splitting_degree_mismatch():
    fault = _kept_fault(minimal_entry(splitting=[0, 0], normalBundleDegree=2))
    assert fault == "x: splitting twists sum to 0, but normalBundleDegree is 2"


def test_scenario_file_rejects_duplicate_names():
    data = minimal_entry()
    data["scenarios"].append(copy.deepcopy(data["scenarios"][0]))
    with pytest.raises(InvalidScenario, match="unique"):
        parse_scenario_file(data)


def test_normal_bundle_degree_fallbacks():
    parsed = parse_scenario_file(minimal_entry())
    assert parsed.entries[0].scenario.normal_degree == 2  # adjunction
    parsed = parse_scenario_file(minimal_entry(splitting=[1, 1]))
    assert parsed.entries[0].scenario.normal_degree == 2  # splitting sum


# -- classify subcommand ---------------------------------------------------


def test_classify_text_pn_line(capsys):
    code, out, err = run_cli(capsys, "classify", fixture("pn_line.json"))
    assert code == 0
    assert "status: semistable-not-stable" in out
    assert "witness lambda: 4" in out
    assert err == ""


def test_classify_open_interval_flips_the_borderline_case(capsys):
    code, out, _ = run_cli(
        capsys, "classify", fixture("pn_line.json"), "--open-interval"
    )
    assert code == 0
    assert "status: stable" in out


def test_classify_json_gallery(capsys):
    code, out, _ = run_cli(
        capsys, "classify", fixture("gallery.json"), "--format", "json"
    )
    assert code == 0
    verdicts = {v["name"]: v for v in json.loads(out)["verdicts"]}
    assert verdicts["quartic_line"]["status"] == "stable"
    assert verdicts["quartic_line"]["rule"].startswith("codimension-cap")
    assert verdicts["cubic_elliptic"]["rule"].startswith("high-genus")
    assert verdicts["quadric_conic"]["rule"].startswith("fano-index")


def test_classify_json_p1xpn(capsys):
    code, out, _ = run_cli(
        capsys, "classify", fixture("p1xpn.json"), "--format", "json"
    )
    assert code == 0
    record = json.loads(out)["verdicts"][0]
    assert record["status"] == "semistable-not-stable"
    assert record["witness_lambda"] == "4"
    rules = [p[0] for p in record["seshadri"]["provenance"]]
    assert "product-fiber" in " ".join(rules)


def test_classify_csv_header(capsys):
    code, out, _ = run_cli(
        capsys, "classify", fixture("pn_line.json"), "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name,status,witness_lambda,rule"
    assert lines[1].startswith("pn_line,semistable-not-stable,4,")


# -- sweep subcommand ------------------------------------------------------

BLP3_SWEEP = (
    "lambda,mu_lambda,mu_lambda_decimal,f_lambda,sign\n"
    "1,18/5,3.600000,21,+\n"
    "2,2,2.000000,12,+\n"
    "3,10/7,1.428571,-3,-\n"
)


def test_sweep_csv_exact_output(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", fixture("blp3_fiber.json"), "--scenario", "blp3_fiber", "--grid", "1,2,3",
    )
    assert code == 0
    assert out == BLP3_SWEEP


def test_sweep_checks_every_row_against_the_integral_route(capsys, monkeypatch):
    slope = fanoslope.slope
    route, points = slope.quotient_slope_via_integrals, []

    def counted(scenario, lam):
        points.append(lam)
        return route(scenario, lam)

    argv = ["sweep", fixture("blp3_fiber.json"), "--scenario", "blp3_fiber",
            "--grid", "1,2,3"]
    monkeypatch.setattr(slope, "quotient_slope_via_integrals", counted)
    assert run_cli(capsys, *argv) == (0, BLP3_SWEEP, "")
    assert points == [1, 2, 3]

    # a broken route is a fault of the program: exit 2, the point named, and
    # no table printed
    monkeypatch.setattr(
        slope, "quotient_slope_via_integrals", lambda scenario, lam: Fraction(-1)
    )
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (
        "internal error: ArithmeticError: quotient slope at lambda = 1: "
        "closed form 18/5 but integral route -1\n"
    )


def test_sweep_builds_the_integral_route_once(capsys, route_builds):
    # every point of a grid reuses one scenario's antiderivatives
    code, out, _ = run_cli(
        capsys, "sweep", fixture("blp3_fiber.json"), "--scenario", "blp3_fiber",
        "--grid", "1/2,1,3/2,2,3",
    )
    assert code == 0 and len(out.splitlines()) == 6
    assert len(route_builds) == 1


def test_sweep_is_byte_deterministic(capsys):
    argv = ["sweep", fixture("blp3_fiber.json"), "--scenario", "blp3_fiber",
            "--grid", "1,2,3"]
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first == second


def test_sweep_vanishes_at_the_borderline(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", fixture("pn_line.json"), "--scenario", "pn_line", "--grid", "4"
    )
    assert code == 0
    assert out.splitlines()[1] == "4,3/2,1.500000,0,0"


def test_sweep_rejects_grid_beyond_certified_interval(capsys):
    code, _, err = run_cli(
        capsys, "sweep", fixture("blp3_fiber.json"), "--scenario", "blp3_fiber",
        "--grid", "4",
    )
    assert code == 1
    assert "outside the certified interval" in err


def test_sweep_stops_at_the_certified_lower_bound(capsys, tmp_path):
    # epsilon may be anywhere in [2, 3], so only (0, 2] is certified
    path = tmp_path / "interval.json"
    entry = conic(seshadri={"lower": "2", "upper": "3"})
    path.write_text(json.dumps({"scenarios": [entry]}), encoding="utf-8")
    argv = ("sweep", str(path), "--scenario", "conic", "--grid")
    assert run_cli(capsys, *argv, "1,2")[0] == 0
    code, out, err = run_cli(capsys, *argv, "5/2")
    assert (code, out) == (1, "")
    assert err == (
        "error: grid point 5/2 lies outside the certified interval (0, 2]\n"
    )


@pytest.mark.parametrize("point", ["1e0", "0.5", "+1", "1_0", "\u0661", "", " 1"])
def test_sweep_grid_follows_the_rational_grammar(capsys, point):
    code, out, err = run_cli(
        capsys, "sweep", fixture("blp3_fiber.json"), "--scenario", "blp3_fiber",
        "--grid", f"1/2,{point}",
    )
    assert code == 1 and out == ""
    assert err == f"error: grid: bad rational {point!r}\n"


def test_sweep_rejects_nonpositive_grid(capsys):
    code, _, err = run_cli(
        capsys, "sweep", fixture("blp3_fiber.json"), "--scenario", "blp3_fiber",
        "--grid", "0",
    )
    assert code == 1
    assert "not positive" in err


def test_sweep_open_interval_excludes_the_endpoint(capsys):
    code, _, err = run_cli(
        capsys, "sweep", fixture("blp3_fiber.json"), "--scenario", "blp3_fiber",
        "--grid", "3", "--open-interval",
    )
    assert code == 1
    assert "outside" in err


def test_sweep_unknown_scenario_name(capsys):
    code, _, err = run_cli(
        capsys, "sweep", fixture("blp3_fiber.json"), "--scenario", "nope", "--grid", "1"
    )
    assert code == 1
    assert "no scenario named" in err


# -- seshadri subcommand ---------------------------------------------------


def test_seshadri_text_shows_certificate_chain(capsys):
    code, out, _ = run_cli(
        capsys, "seshadri", fixture("blp3_fiber.json"), "--scenario", "blp3_fiber"
    )
    assert code == 0
    assert "seshadri: exact 3" in out
    assert "blowup-exceptional-shift" in out
    assert "restriction" in out


def test_seshadri_json(capsys):
    code, out, _ = run_cli(
        capsys, "seshadri", fixture("blp3_fiber.json"), "--scenario", "blp3_fiber",
        "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["exact"] == "3"
    assert record["lower"] == "3"
    assert record["upper"] == "3"
    assert len(record["provenance"]) >= 3


# -- JSON output against json.dumps ----------------------------------------


def _json_record(entry, estimate, verdict, error):
    """A classify record as a dict: with json.dumps(indent=2), the oracle
    for the fixed-shape writer."""
    if error is not None:
        return {"name": entry.name, "error": str(error),
                "error_type": type(error).__name__}
    return {
        "name": entry.name,
        "status": verdict.status.value,
        "witness_lambda": verdict.witness_lambda,
        "rule": verdict.rule,
        "condition": verdict.condition,
        "seshadri": {
            "lower": estimate.lower,
            "upper": estimate.upper,
            "provenance": estimate.provenance,
        },
    }


def _json_spelling(value):
    """An exact value as the JSON documents spell it: a rational as its
    string, an irrational surd as an object of its parts."""
    if isinstance(value, Surd) and not value.is_rational:
        return {"rat": str(value.rat), "coef": str(value.coef), "rad": value.rad}
    return str(value.rat if isinstance(value, Surd) else value)


def _dumps(document):
    return json.dumps(document, indent=2, default=_json_spelling) + "\n"


# every code point, lone surrogates included, and a bias towards the
# characters JSON escapes
json_texts = st.text(
    st.characters(exclude_categories=())
    | st.sampled_from('"\\/\x00\x1f\x7f\u2028\xe9\U0001f600\ud800\udfff'),
    max_size=8,
)
exact_values = st.one_of(
    st.none(),
    st.fractions(max_denominator=50),
    st.builds(
        Surd,
        st.fractions(max_denominator=9),
        st.fractions(max_denominator=9),
        st.sampled_from([0, 1, 4, 2, 3, 12, 1_000_003]),
    ),
)
estimates = st.builds(
    SimpleNamespace,
    lower=exact_values,
    upper=exact_values,
    exact=exact_values,
    provenance=st.lists(
        st.builds(ProvenanceEntry, json_texts, json_texts), max_size=3
    ).map(tuple),
)
entries = st.builds(SimpleNamespace, name=json_texts)
verdicts = st.builds(
    Verdict,
    status=st.sampled_from(VerdictStatus),
    rule=json_texts,
    witness_lambda=exact_values,
    condition=st.none() | json_texts,
)
errors = st.builds(
    lambda kind, message: kind(message),
    st.sampled_from([InvalidScenario, GridOutOfRange, FanoslopeError]),
    json_texts,
)
results = st.one_of(
    st.tuples(entries, estimates, verdicts, st.none()),
    st.tuples(entries, st.none(), st.none(), errors),
)


_EDGE_ESTIMATE = SimpleNamespace(
    lower=Surd(1, 2, 3), upper=Surd(5, 0, 7), exact=None,
    provenance=(ProvenanceEntry('r\u00e9gle "\\', "\ud800\x00\n\U0001f600"),),
)
_EDGE_RESULTS = [
    (SimpleNamespace(name="\udfff\t"), _EDGE_ESTIMATE,
     Verdict(VerdictStatus.STABLE, "rule", Fraction(-7, 3), "\u2028"), None),
    (SimpleNamespace(name='"'), None, None, InvalidScenario("\x7f\\")),
]


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    st.lists(results, max_size=4),
    json_texts,
    st.lists(st.tuples(*[json_texts] * 5), max_size=3),
    estimates,
)
@example([], "", [], SimpleNamespace(lower=None, upper=None, exact=None, provenance=()))
@example(_EDGE_RESULTS, "\ud800", [("1/2", "-3", "0.5", "\u00e9", "+")], _EDGE_ESTIMATE)
def test_json_writer_matches_json_dumps(results, name, rows, estimate):
    assert cli._classify_json([cli._json_verdict(*r) for r in results]) == _dumps(
        {"verdicts": [_json_record(*result) for result in results]}
    )
    columns = ("lambda", "mu_lambda", "mu_lambda_decimal", "f_lambda", "sign")
    assert cli._sweep_json(name, rows) == _dumps(
        {"scenario": name, "rows": [dict(zip(columns, row)) for row in rows]}
    )
    assert cli._seshadri_json(name, estimate) == _dumps({
        "scenario": name,
        "lower": estimate.lower,
        "upper": estimate.upper,
        "exact": estimate.exact,
        "provenance": estimate.provenance,
    })


def test_an_empty_scenario_list_gives_no_verdicts(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"scenarios": []}', encoding="utf-8")
    code, out, err = run_cli(capsys, "classify", str(path), "--format", "json")
    assert (code, err) == (0, "")
    assert out == '{\n  "verdicts": []\n}\n' == _dumps({"verdicts": []})


# -- strict input boundary -------------------------------------------------


def conic(**overrides):
    """A degree-2 rational curve with epsilon = n: semistable, not stable."""
    entry = {
        "name": "conic",
        "n": 3,
        "genus": 0,
        "degree": 2,
        "anticanonical": True,
        "Ln": "54",
        "seshadri": "3",
    }
    entry.update(overrides)
    return entry


def classify_json(capsys, tmp_path, *entries):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps({"scenarios": list(entries)}), encoding="utf-8")
    code, out, err = run_cli(capsys, "classify", str(path), "--format", "json")
    verdicts = json.loads(out)["verdicts"] if out else []
    return code, {v["name"]: v for v in verdicts}, err


def test_picard_rank_one_flag_false_keeps_the_verdict(capsys, tmp_path):
    code, records, _ = classify_json(
        capsys, tmp_path, conic(flags={"picardRankOne": False})
    )
    assert code == 0
    assert records["conic"]["status"] == "semistable-not-stable"


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"flags": {"picardRankOne": "false"}}, "picardRankOne"),
        ({"flags": {"picardRankOne": 0}}, "picardRankOne"),
        ({"flags": {"isPn": "true"}}, "isPn"),
        ({"anticanonical": "true"}, "anticanonical"),
        ({"anticanonical": 1}, "anticanonical"),
        ({"description": 5}, "description"),
        ({"description": None}, "description"),
        ({"description": ["a"]}, "description"),
        ({"seshadri": [{"rule": "witness_curve_upper",
                        "degree": {"rat": "1", "coef": "1", "rad": 2}}]},
         "degree"),
        ({"seshadri": [{"rule": "proper_transform_upper", "degree": "3",
                        "multiplicity": {"coef": "1", "rad": 3}}]},
         "multiplicity"),
        # a step carries only "rule", "as" and its rule's slots
        ({"seshadri": [{"rule": "linear_subspace_exact", "n": 3, "as": "a"},
                       {"rule": "product_fiber_estimate", "off": "a"}]},
         "off"),
        ({"seshadri": [{"rule": "witness_curve_upper", "degree": "3",
                        "note": "typed by hand"}]},
         "note"),
        ({"seshadri": [{"rule": "moving_curve_upper", "n": 3}]},
         "moving_curve_upper has no slots"),
        ({"seshadri": [{"rule": "linear_subspace_exact", "n": 3, "exact": "9"}]},
         "exact"),
        ({"seshadri": {"rule": "linear_subspace_exact", "n": 3, "exact": "9"}},
         "exact"),
        ({"seshadri": [{"rule": ["x"]}]}, "unknown rule"),
        # an entry takes exactly one of the seshadri forms
        ({"seshadri": {}}, "unreadable"),
        ({"seshadri": {"exact": "4", "upper": "3"}}, "upper"),
        ({"seshadri": {"lower": "2", "exact": "3"}}, "lower"),
        ({"seshadri": {"rat": "1", "coef": "1", "rad": -3}}, "radicand"),
        ({"seshadri": {"lower": {"rat": "1", "coef": "1", "rad": -2}}}, "radicand"),
        # null is a value, not an absent key
        ({"flags": None}, "flags"),
        ({"flags": {"fanoIndex": None}}, "fanoIndex"),
        # a Fano n-fold has index 1..n+1 (Kobayashi-Ochiai); the conic's n is 3
        ({"flags": {"fanoIndex": 0}}, "fanoIndex"),
        ({"flags": {"fanoIndex": -3}}, "fanoIndex"),
        ({"flags": {"fanoIndex": 5}}, "fanoIndex"),
        ({"flags": {"fanoIndex": 99}}, "fanoIndex"),
        ({"n": 4, "flags": {"fanoIndex": 0}}, "fanoIndex"),
        ({"n": 4, "flags": {"fanoIndex": 99}}, "fanoIndex"),
    ],
)
def test_non_exact_field_types_are_rejected(capsys, tmp_path, overrides, field):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"scenarios": [conic(**overrides)]}), encoding="utf-8"
    )
    code, out, err = run_cli(capsys, "classify", str(path))
    assert code == 1 and "internal error" not in err
    # any field's fault is its scenario's, read once when the file loads
    fault = _kept_fault({"scenarios": [conic(**overrides)]})
    assert field in fault
    assert "seshadri" in overrides or fault.startswith("conic")
    assert err == "" and out == f"scenario: conic\n  error: InvalidScenario: {fault}\n"


def test_every_fano_index_a_fano_manifold_can_have_loads():
    for n in (3, 4):
        for index in range(1, n + 2):
            entry = conic(n=n, flags={"fanoIndex": index})
            parsed = parse_scenario_file({"scenarios": [entry]}).entries[0]
            assert parsed.flags.fano_index == index
    assert _kept_fault({"scenarios": [conic(flags={"fanoIndex": 0})]}) == (
        "conic.fanoIndex: a Fano 3-fold has index 1 to 4, got 0"
    )


@pytest.mark.parametrize("twists", [[0], [0, 0, 0]])
def test_splitting_of_the_wrong_rank_is_rejected_at_load(
    capsys, tmp_path, twists
):
    # a curve in a 3-fold has a normal bundle of rank 2
    fault = _kept_fault({"scenarios": [conic(splitting=twists)]})
    assert fault == (
        f"conic: splitting has rank {len(twists)}, but a curve in an 3-fold "
        "has normal bundle of rank 2"
    )
    path = tmp_path / "rank.json"
    path.write_text(
        json.dumps({"scenarios": [conic(name="ok"), conic(splitting=twists)]}),
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "classify", str(path), "--format", "csv")
    assert (code, err) == (1, "")
    assert out.splitlines()[1:] == [
        'ok,semistable-not-stable,3,"degree-regime(d=2): epsilon equals the '
        'threshold"',
        "conic,error,,InvalidScenario",
    ]


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"seshadri": {"lower": {"rat": 0, "coef": 1, "rad": 10**30}}},
         "radicand"),
        # a step before it, so that the slots before "restricted" read
        ({"seshadri": [{"rule": "linear_subspace_exact", "n": 3},
                       {"rule": "certify_exact_by_restriction",
                        "restricted": {"coef": 1, "rad": 10**12}}]},
         "radicand"),
        # the threshold radicand n*n - 1 is past the bound
        ({"n": 10**7, "degree": 1, "seshadri": {"lower": "1"}},
         "ambient dimension"),
    ],
)
def test_oversized_radicands_are_rejected_at_load(
    capsys, tmp_path, overrides, message
):
    path = tmp_path / "huge.json"
    path.write_text(
        json.dumps({"scenarios": [conic(name="ok"), conic(**overrides)]}),
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "classify", str(path), "--format", "csv")
    # refused at load, for its scenario only
    assert (code, err) == (1, "") and out.splitlines()[1:] == [
        'ok,semistable-not-stable,3,"degree-regime(d=2): epsilon equals the '
        'threshold"',
        "conic,error,,InvalidScenario",
    ]
    (_, entry) = cli.load_scenario_file(str(path)).entries
    assert message in str(entry.seshadri_spec)


@pytest.mark.parametrize(
    "scenarios, command, message",
    [
        # an error CurveScenario finds names the scenario it belongs to, and
        # is the error of a command that names that scenario
        ([conic(n=1)], ["seshadri", "--scenario", "conic"],
         "error: conic: ambient dimension must be"),
        ([conic(genus=-1)], ["seshadri", "--scenario", "conic"],
         "error: conic: genus must be non-negative"),
        ([conic(normalBundleDegree=5)], ["sweep", "--scenario", "conic", "--grid", "1"],
         "error: conic: anticanonical adjunction forces normal bundle degree 0, got 5"),
        ([conic(seshadri=[])], ["classify"], "conic.seshadri: empty rule pipeline"),
        ([conic(seshadri={"rat": "1", "root": 2})], ["classify"],
         "unknown surd fields ['root']"),
        ([3], ["classify"], "each scenario must be a JSON object"),
        ([{k: v for k, v in conic().items() if k != "seshadri"}], ["classify"],
         "conic: every scenario needs a seshadri entry"),
        ([conic(anticanonical=False, normalBundleDegree=0)], ["classify"],
         "conic: need KLn1 unless the scenario is anticanonical"),
        ([conic(anticanonical=False, KLn1="-54")], ["classify"],
         "conic: need normalBundleDegree or a splitting"),
        ([conic()], ["sweep", "--scenario", "conic", "--grid", " , "],
         "error: grid: bad rational ' '"),
        # slots read when the step runs fail only their scenario
        ([conic(seshadri=[{"rule": "product_fiber_estimate"}])], ["classify"],
         "seshadri rule product_fiber_estimate: no previous estimate to use"),
        ([conic(seshadri=[{"rule": "combine", "of": "a"}])], ["classify"],
         "seshadri rule combine: needs a list of names"),
    ],
)
def test_each_input_error_exits_one_with_its_message(
    capsys, tmp_path, scenarios, command, message
):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"scenarios": scenarios}), encoding="utf-8")
    code, out, err = run_cli(capsys, command[0], str(path), *command[1:])
    assert code == 1 and message in out + err
    assert "internal error" not in err


def test_seshadri_takes_no_open_interval(capsys):
    argv = ("seshadri", fixture("pn_line.json"), "--scenario", "pn_line")
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--open-interval"])
    assert exit_info.value.code == 1  # a usage error is a domain error
    assert "unrecognized arguments: --open-interval" in capsys.readouterr().err


def test_sweep_prints_csv_and_refuses_text(capsys):
    argv = ("sweep", fixture("blp3_fiber.json"), "--scenario", "blp3_fiber",
            "--grid", "1,2,3")
    assert run_cli(capsys, *argv, "--format", "csv") == (0, BLP3_SWEEP, "")
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--format", "text"])
    assert exit_info.value.code == 1  # a usage error is a domain error
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --format: invalid choice: 'text'" in captured.err


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["classify", "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: fanoslope classify")


def test_each_command_checks_consistency_once_per_scenario(capsys, monkeypatch):
    # classify checks through classify_curve, sweep and seshadri by
    # themselves; resolve_estimate alone checks nothing
    calls = []
    check = cli.check_epsilon_consistency

    def counted(scenario, epsilon):
        calls.append(epsilon)
        return check(scenario, epsilon)

    for module in (cli, fanoslope.classify):
        monkeypatch.setattr(module, "check_epsilon_consistency", counted)
    path = str(GOLDEN_INPUTS / "consistency.json")
    entries = cli.load_scenario_file(path).entries
    for entry in entries:
        cli.resolve_estimate(entry)
    assert calls == []
    assert run_cli(capsys, "classify", path)[0] == 1
    assert len(calls) == len(entries)
    message = (
        "error: declared Seshadri value 2 makes (n-1)*d - epsilon*p negative; "
        "no ample class restricts that way\n"
    )
    for argv in (("seshadri",), ("sweep", "--grid", "1")):
        calls.clear()
        code, out, err = run_cli(
            capsys, argv[0], path, "--scenario", "not_anticanonical_inconsistent",
            *argv[1:],
        )
        assert (code, out, err, calls) == (1, "", message, [2])


def test_radicands_just_below_the_bound_still_classify(capsys, tmp_path):
    largest_prime = {"rat": 0, "coef": 1, "rad": 999999999989}
    code, records, err = classify_json(
        capsys, tmp_path,
        conic(name="prime", seshadri={"lower": largest_prime}),
        conic(name="wide", n=10**6, degree=1, seshadri={"lower": "1"}),
    )
    assert code == 0 and err == ""
    assert records["prime"]["status"] == "strictly-destabilized"
    assert records["wide"]["status"] == "conditional-on-seshadri"
    assert "sqrt(111111111111)" in records["wide"]["condition"]


def test_empty_description_is_a_string(capsys, tmp_path):
    code, records, _ = classify_json(capsys, tmp_path, conic(description=""))
    assert code == 0 and records["conic"]["status"] == "semistable-not-stable"


@pytest.mark.parametrize(
    "step",
    [
        {"rule": "linear_subspace_exact", "n": 3, "as": [1]},
        {"rule": "linear_subspace_exact", "n": 3, "as": ""},
        {"rule": "linear_subspace_exact", "n": 3, "as": 7},
        {"rule": "point_upper_bound", "n": 3, "isPn": "false"},
        {"rule": "point_upper_bound", "n": 3, "isPn": 1},
        # an estimate name must be a string
        {"rule": "product_fiber_estimate", "of": ["a"]},
        {"rule": "combine", "of": ["a", ["a"]]},
        {"rule": "nested_restriction", "inner": {"x": 1}, "ambient": "a"},
        # a rational slot left out is missed when the step runs
        {"rule": "witness_curve_upper"},
    ],
)
def test_bad_pipeline_step_fails_its_scenario_only(capsys, tmp_path, step):
    bind = {"rule": "linear_subspace_exact", "n": 3, "as": "a"}
    code, records, err = classify_json(
        capsys, tmp_path, conic(), conic(name="bad", seshadri=[bind, step]),
        conic(name="after"),
    )
    assert code == 1
    assert "internal error" not in err
    assert records["conic"]["status"] == "semistable-not-stable"
    assert records["after"]["status"] == "semistable-not-stable"
    assert records["bad"]["error_type"] == "InvalidScenario"
    field = (
        "as" if "as" in step else "isPn" if "isPn" in step
        else "degree" if step["rule"] == "witness_curve_upper"
        else "estimate name"
    )
    assert field in records["bad"]["error"]


# One step of the middle scenario's pipeline, at a place in it, that fails to
# read, and the words of its fault
@pytest.mark.parametrize("step, at, message", [
    ({"rule": "nope"}, 1, "bad.seshadri: unknown rule 'nope'"),
    ({"rule": "linear_subspace_exact", "n": 3, "note": "x"}, 1,
     "bad.seshadri: rule linear_subspace_exact has no slots ['note']"),
    ({"rule": "linear_subspace_exact", "n": "3"}, 1,
     "seshadri rule linear_subspace_exact.n: expected an integer, got '3'"),
    ({"rule": "point_upper_bound", "n": 3, "isPn": "yes"}, 1,
     "seshadri rule point_upper_bound.isPn: expected true or false, got 'yes'"),
    ({"rule": "witness_curve_upper", "degree": "x"}, 1,
     "seshadri rule witness_curve_upper.degree: bad rational 'x'"),
    ({"rule": "certify_exact_by_restriction", "upper": "a", "ambient": "a",
      "restricted": {"rat": "1", "coef": "w", "rad": 2}}, 1,
     "seshadri rule certify_exact_by_restriction.restricted.coef: "
     "bad rational 'w'"),
    ({"rule": "product_fiber_estimate", "of": "b"}, 1,
     "seshadri rule product_fiber_estimate: unknown estimate name 'b'"),
    ({"rule": "product_fiber_estimate", "of": None}, 1,
     "seshadri rule product_fiber_estimate.of: null is not an estimate name"),
    ({"rule": "combine", "of": "a"}, 1, "seshadri rule combine: needs a list of names"),
    ({"rule": "linear_subspace_exact", "n": 3, "as": ""}, 1,
     'seshadri rule linear_subspace_exact: "as" must be a non-empty name, got \'\''),
    ({"rule": "blowup_exceptional_shift"}, 0,
     "seshadri rule blowup_exceptional_shift: no previous estimate to use"),
], ids=["unknown-rule", "extra-key", "string-int", "string-bool", "bad-rational",
        "bad-surd-part", "unknown-name", "null-name", "combine-of-one-name",
        "empty-as", "no-previous-estimate"])
def test_a_pipeline_fault_costs_only_its_scenario(tmp_path, step, at, message):
    clean = [{"rule": "linear_subspace_exact", "n": 3, "as": "a"},
             {"rule": "product_fiber_estimate", "of": "a"}]
    faulty = clean[:at] + [step] + clean[at:]
    _costs_only_its_scenario(
        tmp_path, {"seshadri": clean}, {"seshadri": faulty}, message
    )


# A malformed declared value of each kind in the middle scenario, and the
# words the loader once failed the whole file with
@pytest.mark.parametrize("spec, message", [
    ({"lower": "1", "upper": "x"}, "bad.seshadri.upper: bad rational 'x'"),
    ({"exact": "4", "upper": "3"}, "bad.seshadri: unknown fields ['upper']"),
    ({}, "bad.seshadri: unreadable seshadri entry {}"),
    ({"lower": {"rat": "1", "coef": "1", "rad": -2}},
     "bad.seshadri.lower: surd radicand must be a non-negative integer below "
     f"{_MAX_RADICAND}"),
    ({"rat": "0", "coef": "1", "rad": 10**12},
     f"bad.seshadri: surd radicand must be a non-negative integer below "
     f"{_MAX_RADICAND}"),
], ids=["bad-rational", "unknown-key", "empty", "negative-radicand",
        "huge-radicand"])
def test_a_declared_value_fault_costs_only_its_scenario(tmp_path, spec, message):
    _costs_only_its_scenario(
        tmp_path, {"seshadri": {"lower": "1", "upper": "3"}}, {"seshadri": spec},
        message,
    )


_ABSENT = object()  # an override that drops its key from the entry


def _middle(override):
    """conic(name="bad") with ``override``'s fields, a field set to _ABSENT
    dropped; an override that is not an object is the whole entry."""
    if not isinstance(override, dict):
        return override
    entry = conic(**{"name": "bad", **override})
    return {key: value for key, value in entry.items() if value is not _ABSENT}


def _costs_only_its_scenario(tmp_path, clean, faulty, message, label="bad"):
    """A file whose middle entry is _middle(faulty) gives the output of the
    one where it is _middle(clean), but for that entry's record, which holds
    ``message`` under ``label``; the other scenarios' commands do not see it."""
    paths = {}
    for version, override in (("clean", clean), ("faulty", faulty)):
        paths[version] = str(tmp_path / f"{version}.json")
        Path(paths[version]).write_text(json.dumps({"scenarios": [
            conic(name="first"), _middle(override), conic(name="last"),
        ]}), encoding="utf-8")
    (_, bad, _) = cli.load_scenario_file(paths["faulty"]).entries
    assert (bad.name, type(bad.seshadri_spec)) == (label, InvalidScenario)
    assert str(bad.seshadri_spec) == message
    assert (bad.scenario, bad.flags) == (None, None)
    error = {"name": label, "error": message, "error_type": "InvalidScenario"}
    for fmt in ("text", "csv", "json"):
        clean_code, clean_out, _ = _run_quietly(
            ["classify", paths["clean"], "--format", fmt]
        )
        code, out, err = _run_quietly(["classify", paths["faulty"], "--format", fmt])
        assert (clean_code, code, err) == (0, 1, "")
        # the faulty file's output is the clean one's, the middle record swapped
        bad = _classify_records(fmt, out)[1]
        assert out == clean_out.replace(_classify_records(fmt, clean_out)[1], bad)
        if fmt == "json":
            assert json.loads(out)["verdicts"][1] == error
        else:
            assert bad == {
                "text": f"scenario: {label}\n  error: InvalidScenario: {message}\n",
                "csv": f"{label},error,,InvalidScenario",
            }[fmt]
    # seshadri and sweep fail only for the scenario that holds the fault
    for argv in (["seshadri", "--scenario", "first", "--format", "json"],
                 ["sweep", "--scenario", "last", "--grid", "1,2"]):
        clean_run = _run_quietly([argv[0], paths["clean"], *argv[1:]])
        assert clean_run[0] == 0
        assert _run_quietly([argv[0], paths["faulty"], *argv[1:]]) == clean_run
    for command in (["seshadri"], ["sweep", "--grid", "1"]):
        assert _run_quietly([command[0], paths["faulty"], "--scenario", label,
                             *command[1:]]) == (1, "", f"error: {message}\n")


# An entry without a readable name, in the middle of three: its record is
# labelled by its position in the file, counted from 1
@pytest.mark.parametrize("faulty, message", [
    (3, "each scenario must be a JSON object"),
    ([conic()], "each scenario must be a JSON object"),
    ({"name": _ABSENT}, "each scenario needs a non-empty name"),
    ({"name": ""}, "each scenario needs a non-empty name"),
    ({"name": 5}, "each scenario needs a non-empty name"),
], ids=["number", "list", "no-name", "empty-name", "number-name"])
def test_an_entry_without_a_readable_name_is_labelled_by_its_position(
    tmp_path, faulty, message
):
    _costs_only_its_scenario(tmp_path, {}, faulty, message, label="#2")


# Faults that still fail the whole file: two entries that declare the same
# name, whether or not either entry fails to read
@pytest.mark.parametrize("scenarios", [
    [conic(name="first"), conic(name="first", n="four"), conic(name="last")],
    [conic(name="first", n="four"), conic(name="first"), conic(name="last")],
    [conic(name="first", n="four"), conic(name="first", genus=-1),
     conic(name="last")],
], ids=["faulty-second", "faulty-first", "both-faulty"])
def test_a_name_shared_with_a_faulty_entry_fails_the_file(
    capsys, tmp_path, scenarios
):
    path = tmp_path / "shared.json"
    path.write_text(json.dumps({"scenarios": scenarios}), encoding="utf-8")
    message = "scenario names must be unique within a file"
    with pytest.raises(InvalidScenario, match=message):
        cli.load_scenario_file(str(path))
    for argv in (["classify", "--format", "csv"], ["seshadri", "--scenario", "last"]):
        assert run_cli(capsys, argv[0], str(path), *argv[1:]) == (
            1, "", f"error: {message}\n"
        )


# A positional label is no declared name: an entry that declares "#2" and
# the nameless second entry labelled "#2" both load, and each file's records
# come out in file order, the nameless entry's as its fault
@pytest.mark.parametrize("scenarios, statuses", [
    ([conic(name="#2"), {k: v for k, v in conic().items() if k != "name"},
      conic(name="last")], ["semistable-not-stable", "error"]),
    ([conic(name="#2"), conic(name=""), conic(name="last")],
     ["semistable-not-stable", "error"]),
    ([conic(name="#2", genus=-1), 3, conic(name="last")], ["error", "error"]),
], ids=["nameless", "label-of-a-clean-entry", "label-of-a-faulty-entry"])
def test_a_positional_label_never_fails_the_file(capsys, tmp_path, scenarios, statuses):
    path = tmp_path / "labels.json"
    path.write_text(json.dumps({"scenarios": scenarios}), encoding="utf-8")
    entries = cli.load_scenario_file(str(path)).entries
    assert [entry.name for entry in entries] == ["#2", "#2", "last"]
    code, out, err = run_cli(capsys, "classify", str(path), "--format", "csv")
    assert (code, err) == (1, "")
    rows = [row.split(",")[:2] for row in out.splitlines()[1:]]
    assert rows == [["#2", statuses[0]], ["#2", statuses[1]],
                    ["last", "semistable-not-stable"]]
    assert run_cli(capsys, "seshadri", str(path), "--scenario", "last")[0] == 0


def test_a_program_fault_while_loading_fails_the_file(capsys, monkeypatch):
    # only a FanoslopeError is an entry's fault; any other is the program's
    parse_entry = cli._parse_entry

    def explode(raw):
        if raw["name"] == "cubic_elliptic":
            raise RuntimeError("simulated")
        return parse_entry(raw)

    monkeypatch.setattr(cli, "_parse_entry", explode)
    for argv in (["classify"], ["seshadri", "--scenario", "quartic_line"]):
        assert run_cli(capsys, argv[0], fixture("gallery.json"), *argv[1:]) == (
            2, "", "internal error: RuntimeError: simulated\n"
        )


@pytest.mark.parametrize("step", [
    {"rule": "product_fiber_estimate", "of": None},
    {"rule": "combine", "of": ["a", None]},
])
def test_seshadri_refuses_a_null_estimate_name(capsys, tmp_path, step):
    bind = {"rule": "linear_subspace_exact", "n": 3, "as": "a"}
    witness = {"rule": "witness_curve_upper", "degree": "9/2"}
    path = tmp_path / "null.json"
    path.write_text(json.dumps({"scenarios": [
        conic(seshadri=[bind, witness, step]),
    ]}), encoding="utf-8")
    code, out, err = run_cli(capsys, "seshadri", str(path), "--scenario", "conic")
    assert (code, out) == (1, "")
    assert err == (
        f"error: seshadri rule {step['rule']}.of: null is not an estimate name\n"
    )


def test_an_absent_bool_slot_reads_as_false():
    step = {"rule": "point_upper_bound", "n": 3}
    absent, false, true = parse_scenario_file({"scenarios": [
        conic(name="absent", seshadri=[step]),
        conic(name="false", seshadri=[{**step, "isPn": False}]),
        conic(name="true", seshadri=[{**step, "isPn": True}]),
    ]}).entries
    estimates = [cli.resolve_estimate(entry) for entry in (absent, false, true)]
    got, want, other = [(e.lower, e.upper, e.provenance) for e in estimates]
    assert got == want != other


@pytest.mark.parametrize(
    "spec",
    [
        "-1",
        -1,
        {"lower": "-1"},
        {"lower": "-1", "upper": "3"},
        {"upper": "-1/2"},
        {"exact": "-1"},
        {"rat": "-2", "coef": "1", "rad": 2},
        {"exact": {"rat": "1", "coef": "-1", "rad": 15}},
    ],
)
def test_negative_declared_seshadri_value_fails_its_scenario_only(
    capsys, tmp_path, spec
):
    path = tmp_path / "negative.json"
    path.write_text(
        json.dumps({"scenarios": [conic(name="bad", seshadri=spec), conic()]}),
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "classify", str(path), "--format", "json")
    records = {v["name"]: v for v in json.loads(out)["verdicts"]}
    assert code == 1 and "internal error" not in err
    assert records["bad"]["error_type"] == "InvalidScenario"
    assert "negative" in records["bad"]["error"]
    assert records["conic"]["status"] == "semistable-not-stable"
    for argv in (["seshadri"], ["sweep", "--grid", "1"]):
        code, out, err = run_cli(capsys, *argv, str(path), "--scenario", "bad")
        assert code == 1 and out == ""
        assert err.startswith("error: bad.seshadri") and "negative" in err
        code, out, err = run_cli(capsys, *argv, str(path), "--scenario", "conic")
        assert code == 0 and out and err == ""


@given(
    st.fractions(0, 10, max_denominator=6),
    st.fractions(0, 10, max_denominator=6),
    st.integers(0, 30),
)
def test_bare_surd_spec_resolves_like_an_exact_one(rat, coef, rad):
    surd = {"rat": str(rat), "coef": str(coef), "rad": rad}
    bare, exact = parse_scenario_file({"scenarios": [
        conic(name="bare", seshadri=surd),
        conic(name="exact", seshadri={"exact": surd}),
    ]}).entries
    got, want = cli.resolve_estimate(bare), cli.resolve_estimate(exact)
    assert got.is_exact and got.exact == Surd(rat, coef, rad)
    assert (got.lower, got.upper, got.provenance) == (
        want.lower, want.upper, want.provenance
    )


# how README's rule table names each kind of slot
_KIND_WORDS = {
    "int": "integer",
    "bool": "boolean",
    "rational": "rational",
    "value": "rational or surd",
    "ref": "estimate name",
    "refs": "list of names",
}


def test_readme_rule_table_matches_the_rule_table():
    # README's table is the rule table's one description: the slots come from
    # seshadri.RULES and each effect from its rule's docstring
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = text.split("Available rules and their slots:", 1)[1]
    rows = []
    for line in table.strip().splitlines()[2:]:
        if not line.startswith("|"):
            break
        rows.append(tuple(cell.strip() for cell in line.split("|")[1:-1]))
    expected = []
    for rule, slots in RULES.items():
        cells = ", ".join(
            "(scenario)" if key is None else f"`{key}` ({_KIND_WORDS[kind]})"
            for key, kind in slots
        )
        effect = getattr(seshadri, rule).__doc__.splitlines()[0]
        expected.append((f"`{rule}`", cells, effect))
    assert rows == expected


def _shown(default):
    """A field default as README's field table shows it."""
    if default is cli._REQUIRED:
        return "required"
    if default is False:
        return "`false`"
    assert default is None or default == ClassifyFlags()
    return "optional"


def test_readme_field_table_matches_the_field_tables():
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = text.split("| key | kind | required / default |", 1)[1]
    rows = []
    for line in table.strip().splitlines()[1:]:
        if not line.startswith("|"):
            break
        key, kind, default = (cell.strip() for cell in line.split("|")[1:4])
        rows.append((key.strip("`"), kind, default))
    assert rows == [
        (key, kind, _shown(default))
        for key, (kind, default) in cli._ENTRY_FIELDS.items()
    ] + [
        (f"flags.{key}", kind, _shown(default))
        for key, (kind, default) in cli._FLAG_FIELDS.items()
    ]


def test_a_declared_seshadri_value_already_read_is_taken_as_it_is():
    # a library caller's Fraction or Surd loads as its JSON spelling does
    root2 = Surd(0, 1, 2)
    for read, spelled in (
        ({"exact": Fraction(3, 2)}, {"exact": "3/2"}),
        ({"exact": root2}, {"exact": {"coef": "1", "rad": 2}}),
        ({"lower": Fraction(1), "upper": root2},
         {"lower": "1", "upper": {"coef": "1", "rad": 2}}),
    ):
        (entry,), (want,) = (
            parse_scenario_file({"scenarios": [conic(seshadri=spec)]}).entries
            for spec in (read, spelled)
        )
        assert entry.seshadri_spec == want.seshadri_spec
    (entry,) = parse_scenario_file(
        {"scenarios": [conic(seshadri={"exact": root2})]}
    ).entries
    assert entry.seshadri_spec.lower is root2 and entry.seshadri_spec.upper is root2
    (entry,) = parse_scenario_file(
        {"scenarios": [conic(seshadri={"lower": Fraction(1), "upper": root2})]}
    ).entries
    assert entry.seshadri_spec.upper is root2
    # a rational field takes no Surd: it is refused in parse_rational's words
    (entry,) = parse_scenario_file({"scenarios": [conic(Ln=root2)]}).entries
    assert str(entry.seshadri_spec) == (
        "conic.Ln: cannot read a rational from Surd(Fraction(0, 1), Fraction(1, 1), 2)"
    )


def test_the_compiled_readers_follow_the_tables():
    # README's table tests read the tables; this ties what the loader runs to them
    kind_of = {reader: kind for kind, (_, reader) in cli._READERS.items()}
    for table, (keys, rows) in (
        (cli._ENTRY_FIELDS, cli._ENTRY_READERS),
        (cli._FLAG_FIELDS, cli._FLAG_READERS),
        ({"exact": ("value", cli._REQUIRED)}, cli._EXACT_READERS),
        ({"lower": ("value", Fraction(0)), "upper": ("value", None)},
         cli._INTERVAL_READERS),
    ):
        assert keys == frozenset(table)
        # each row is its key, its kind's row as it stands, and its default
        assert list(rows) == [
            (key, *cli._READERS[kind], default) for key, (kind, default) in table.items()
        ]
        read = [(key, kind_of[reader], default) for key, _, reader, default in rows]
        assert read == [(key, kind, default) for key, (kind, default) in table.items()]
    # one row shape for every kind: the one type taken as it is, or None
    # for a kind that takes none, and the reader
    assert all(
        (taken is None or isinstance(taken, type)) and callable(reader)
        for taken, reader in cli._READERS.values()
    )
    assert seshadri._SLOT_READERS["value"] == (Fraction, seshadri._read_value)
    assert not hasattr(cli, "_read_value")
    surd = Surd(1, 1, 2)
    assert seshadri._read_value(surd, "x") is surd
    assert seshadri._read_value("3/4", "x") == Fraction(3, 4)
    with pytest.raises(InvalidScenario, match=r"^x: bad rational 'y'$"):
        seshadri._read_value("y", "x")
    # the loader's table extends the pipeline's: one row per kind, stated once
    for kind, row in seshadri._SLOT_READERS.items():
        assert cli._READERS[kind] is row
    # a value taken as it is is what its reader would have returned; the
    # other kinds are always read
    for kind, sample in (("int", 3), ("bool", True), ("text", "x")):
        taken, reader = cli._READERS[kind]
        assert taken is type(sample) and reader(sample, "x") is sample
    for kind in ("twists", "seshadri", "flags"):
        assert cli._READERS[kind][0] is None
    assert list(STEP_KEYS) == list(RULES)
    for rule, slots in RULES.items():
        # the scenario slot has no key
        assert STEP_KEYS[rule] == {"rule", "as"} | {key for key, _ in slots if key}
    # a pipeline reads each kind of value slot by its own reader, and takes as
    # it is only a value of a type that reader returns
    kinds = {kind for slots in RULES.values() for _, kind in slots}
    assert set(seshadri._SLOT_READERS) == kinds - {"ref", "refs", "scenario"}
    for kind, sample, returned in (
        ("int", 3, int), ("bool", True, bool), ("rational", "3/4", Fraction),
        ("value", "3/4", Fraction), ("value", {"coef": "1", "rad": 2}, Surd),
    ):
        taken, reader = seshadri._SLOT_READERS[kind]
        assert type(reader(sample, "x")) is returned
        # the row's type, or a Surd, which the value kind's reader returns as it is
        assert returned is taken or (kind, returned) == ("value", Surd)


def test_readme_library_example_shows_what_it_computes():
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    lines = block.splitlines()
    namespace = {}
    shown = []
    for node in ast.parse(block).body:
        # "expression  # value" shows the value's repr, before any ": remark"
        comment = lines[node.end_lineno - 1].partition("  # ")[2]
        if isinstance(node, ast.Expr) and comment:
            value = eval(compile(ast.Expression(node.value), "README", "eval"), namespace)
            shown.append((repr(value), comment.split(": ")[0]))
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    assert len(shown) == 9
    for got, want in shown:
        assert got == want


def test_csv_names_are_quoted_per_rfc_4180(capsys, tmp_path):
    names = ['a,"b', "plain", 'say "hi"', "two\nlines", "too,big"]
    entries = [conic(name=name) for name in names[:-1]]
    # a degree-4 curve in a threefold has epsilon <= 4, so this one fails
    entries.append(conic(name=names[-1], degree=4, Ln="64", seshadri="5"))
    path = tmp_path / "names.json"
    path.write_text(json.dumps({"scenarios": entries}), encoding="utf-8")
    code, out, _ = run_cli(capsys, "classify", str(path), "--format", "csv")
    assert code == 1
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["name", "status", "witness_lambda", "rule"]
    assert [row[0] for row in rows[1:]] == names
    assert all(len(row) == 4 for row in rows)
    assert rows[1][1:3] == ["semistable-not-stable", "3"]
    assert rows[-1][1:] == ["error", "", "ScenarioInconsistent"]

    code, out, _ = run_cli(
        capsys, "seshadri", str(path), "--scenario", 'a,"b', "--format", "csv"
    )
    assert code == 0
    assert list(csv.reader(io.StringIO(out))) == [
        ["name", "lower", "upper", "exact"],
        ['a,"b', "3", "3", "3"],
    ]


# -- fuzzed input boundary -------------------------------------------------
#
# One field of a fixture scenario is replaced by malformed JSON. Whatever the
# value, each subcommand answers with exit 0 or 1 and a typed error, never an
# internal error (exit 2) or a traceback.

_SURD = {"rat": "1", "coef": "1", "rad": 2}
MALFORMED = [
    -1, -3, 0, "-1", "-7/2", "1/0", "0/0", "", "x", 0.5, -2.0, 1e300,
    "1e5000", "0.1", " 3", "+3", "1_000", "\u0663",
    True, False, None, [], [1, "a"], {}, {"x": 1},
    {"rat": "-2", "coef": "1", "rad": 2},
    {"rat": "-9", "coef": "2", "rad": 3},
    {"rat": "1", "coef": "1", "rad": -3},
    {"rat": 0.5, "coef": "1", "rad": 2},
    {"rat": "1", "coef": "1", "rad": True},
    {"rat": "1", "coef": "1", "rad": "2"},
    {"exact": "-1"},
    {"exact": {"rat": "-2", "coef": "1", "rad": 2}},
    {"exact": None},
    {"lower": "-1"},
    {"lower": "-1", "upper": "3"},
    {"upper": "-1"},
    {"lower": "3", "upper": "2"},
    {"lower": {"rat": "1", "coef": "1", "rad": -2}},
    {"lower": _SURD, "upper": {"rat": "1", "coef": "1", "rad": 3}},
    {"rule": "nope"},
    {"rule": None},
    [{"rule": "witness_curve_upper", "degree": "-3"}],
    [{"rule": "witness_curve_upper", "degree": "1/0"}],
    [{"rule": "proper_transform_upper", "degree": "3", "multiplicity": "-1"}],
    [{"rule": "linear_subspace_exact", "n": -1}],
    [{"rule": "linear_subspace_exact", "n": "3"}],
    [{"rule": "point_upper_bound", "n": 2}],
    [{"rule": "point_upper_bound", "n": 3, "isPn": None}],
    [{"rule": "blowup_exceptional_shift"}],
    [{"rule": "linear_subspace_exact", "n": 1},
     {"rule": "blowup_exceptional_shift"},
     {"rule": "blowup_exceptional_shift"}],
    [{"rule": "combine", "of": "a"}],
    [{"rule": "combine", "of": ["a", "a"]}],
    [{"rule": "linear_subspace_exact", "n": 3, "as": "a"},
     {"rule": "certify_exact_by_restriction", "upper": "a", "ambient": "a",
      "restricted": "-1"}],
    [{"rule": "linear_subspace_exact", "n": 3, "as": "a"},
     {"rule": "certify_exact_by_restriction", "upper": "a", "ambient": "a",
      "restricted": _SURD}],
    [{"rule": "nested_restriction", "inner": "a", "ambient": None}],
    [{"rule": "moving_curve_upper"}, {"rule": "moving_curve_upper"}],
    [],
    [{}],
]


def _fields(entry):
    """Paths of the fields one can replace in a scenario entry."""
    paths = [(key,) for key in entry] + [
        (key,) for key in ("KLn1", "normalBundleDegree", "splitting", "flags")
        if key not in entry
    ]
    paths += [("flags", key) for key in ("isPn", "picardRankOne", "fanoIndex")]
    steps = entry["seshadri"]
    if isinstance(steps, dict) and "rule" in steps:
        steps = [steps]
    if isinstance(steps, list):
        paths += [("seshadri", i, key) for i, step in enumerate(steps) for key in step]
    return paths


def _replaced(entry, path, value):
    entry = copy.deepcopy(entry)
    target = entry
    for key in path[:-1]:
        if key == "seshadri" and isinstance(target[key], dict):
            target[key] = [target[key]]
        elif key == "flags" and not isinstance(target.get(key), dict):
            target[key] = {}
        target = target[key]
    target[path[-1]] = value
    return entry


@st.composite
def fuzz_cases(draw):
    """(fixture, scenario index, field path, malformed value)."""
    name = draw(st.sampled_from(ALL_FIXTURES))
    with open(fixture(name), encoding="utf-8") as handle:
        scenarios = json.load(handle)["scenarios"]
    index = draw(st.integers(0, len(scenarios) - 1))
    path = draw(st.sampled_from(_fields(scenarios[index])))
    return name, index, path, draw(st.sampled_from(MALFORMED))


# The fields of a scenario entry outside its seshadri entry that a malformed
# value can break
_OUTSIDE_SESHADRI = [
    "n", "genus", "degree", "Ln", "KLn1", "splitting", "flags", "description",
]


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(_OUTSIDE_SESHADRI), st.sampled_from(MALFORMED))
@example("n", "four")
@example("flags", {"fanoIndex": 9})
@example("splitting", [0])
def test_a_malformed_field_outside_seshadri_costs_only_its_scenario(field, value):
    message = _read_with(cli._parse_entry, _middle({field: value}))
    assume(isinstance(message, str))  # not a value this field takes
    with tempfile.TemporaryDirectory() as folder:
        _costs_only_its_scenario(Path(folder), {}, {field: value}, message)


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# Exact arithmetic on accepted input can outgrow the interpreter's limit on
# printable ints (4300 digits by default): a quotient of two 4000-digit
# rationals, the successor of a 4300-digit dimension.
_TOO_LONG_TO_PRINT = [
    [{"rule": "proper_transform_upper", "degree": "7" * 4000,
      "multiplicity": "1/" + "1" * 4000}],
    [{"rule": "linear_subspace_exact", "n": int("9" * 4300)}],
]


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(fuzz_cases())
@example(("pn_line.json", 0, ("seshadri",), _TOO_LONG_TO_PRINT[0]))
@example(("gallery.json", 2, ("seshadri",), _TOO_LONG_TO_PRINT[1]))
@example(("pn_line.json", 0, ("seshadri",), "-1"))
@example(("gallery.json", 1, ("seshadri",), {"rat": "1", "coef": "1", "rad": -3}))
@example(("pn_line.json", 0, ("seshadri",), "1e5000"))
def test_malformed_field_never_escapes_as_internal_error(case):
    name, index, path, value = case
    with open(fixture(name), encoding="utf-8") as handle:
        scenarios = json.load(handle)["scenarios"]
    scenario_name = scenarios[index]["name"]
    scenarios[index] = _replaced(scenarios[index], path, value)
    with tempfile.TemporaryDirectory() as folder:
        target = str(Path(folder) / "fuzzed.json")
        Path(target).write_text(
            json.dumps({"scenarios": scenarios}), encoding="utf-8"
        )
        for argv in (
            ["classify", target],
            ["classify", target, "--format", "csv", "--open-interval"],
            ["seshadri", target, "--scenario", scenario_name],
            ["sweep", target, "--scenario", scenario_name, "--grid", "1/2,1"],
        ):
            code, _, err = _run_quietly(argv)
            assert code in (0, 1), (argv[0], path, value, err)
            assert "internal error" not in err and "Traceback" not in err


@pytest.mark.parametrize("spec", _TOO_LONG_TO_PRINT)
def test_a_number_too_long_to_print_fails_its_scenario_only(tmp_path, spec):
    path = tmp_path / "long.json"
    entries = [conic(), conic(name="long", seshadri=spec), conic(name="after")]
    path.write_text(json.dumps({"scenarios": entries}), encoding="utf-8")
    message = (
        "cannot print an exact value with a numerator or denominator of more "
        f"than {sys.get_int_max_str_digits()} digits"
    )
    code, out, err = _run_quietly(["classify", str(path), "--format", "csv"])
    assert (code, err) == (1, "")
    tie = 'semistable-not-stable,3,"degree-regime(d=2): epsilon equals the threshold"'
    assert out.splitlines()[1:] == [
        f"conic,{tie}", "long,error,,InvalidScenario", f"after,{tie}",
    ]
    code, out, err = _run_quietly(["seshadri", str(path), "--scenario", "long"])
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_a_sweep_value_too_long_to_print_is_an_error(tmp_path):
    # F at a point with a 2500-digit denominator has a 5000-digit one
    path = tmp_path / "line.json"
    entry = conic(name="line", degree=1, seshadri="2")
    path.write_text(json.dumps({"scenarios": [entry]}), encoding="utf-8")
    argv = ["sweep", str(path), "--scenario", "line", "--grid", "1/" + "7" * 2500]
    code, out, err = _run_quietly(argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot print an exact value")


def test_a_witness_too_long_to_print_fails_its_scenario_only(tmp_path):
    # the witness is the lower bound 3 + sqrt(2)/5*10**4299; printing it fails
    path = tmp_path / "witness.json"
    big = conic(name="big", degree=1, seshadri={
        "lower": {"rat": "3", "coef": "1/5" + "0" * 4299, "rad": 2},
    })
    path.write_text(json.dumps({"scenarios": [big, conic()]}), encoding="utf-8")
    message = (
        "cannot print an exact value with a numerator or denominator of more "
        f"than {sys.get_int_max_str_digits()} digits"
    )
    argv = ["classify", str(path), "--open-interval", "--format"]
    code, text, err = _run_quietly(argv + ["text"])
    assert (code, err) == (1, "")
    assert text.startswith(f"scenario: big\n  error: InvalidScenario: {message}\n")
    assert text.splitlines()[2:4] == ["scenario: conic", "  status: stable"]
    code, out, err = _run_quietly(argv + ["csv"])
    assert (code, err) == (1, "")
    assert out.splitlines()[1] == "big,error,,InvalidScenario"
    assert out.splitlines()[2].startswith("conic,stable,")
    code, out, err = _run_quietly(argv + ["json"])
    assert (code, err) == (1, "")
    first, second = json.loads(out)["verdicts"]
    assert first == {"name": "big", "error": message, "error_type": "InvalidScenario"}
    assert (second["name"], second["status"]) == ("conic", "stable")


_NINES = int("9" * 4300)  # the longest int a scenario file may hold


@pytest.mark.parametrize(
    "overrides",
    [
        # the twist sum has 4301 digits
        {"splitting": [_NINES, _NINES], "normalBundleDegree": 0},
        # n - 1 has 4301 digits, in the rank message
        {"n": -_NINES, "splitting": [0]},
        # the adjunction degree - 2 + 2*genus has 4301 digits
        {"genus": _NINES, "normalBundleDegree": 0},
    ],
)
def test_a_load_message_too_long_to_print_is_an_error(tmp_path, overrides):
    path = tmp_path / "long.json"
    path.write_text(
        json.dumps({"scenarios": [conic(**overrides), conic(name="after")]}),
        encoding="utf-8",
    )
    code, out, err = _run_quietly(["classify", str(path)])
    assert (code, err) == (1, "")
    fault, after = out.split("scenario: after\n")
    assert fault == (
        "scenario: conic\n  error: InvalidScenario: conic: cannot print an exact "
        "value with a numerator or denominator of more than "
        f"{sys.get_int_max_str_digits()} digits\n"
    )
    assert after.startswith("  status: semistable-not-stable\n")


# -- the entry reader against its hand-written predecessor -----------------
#
# The field table replaced a hand-written chain of reads, kept here as the
# oracle: every malformed field must meet the same message, and every entry
# that still parses must parse to the same NamedScenario. The oracle also
# keeps the Seshadri-spec reader that named the whole spec in each error; the
# messages that differ from it must name the part of the spec that fails.


def _oracle_int(raw, context):
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise InvalidScenario(f"{context}: expected an integer, got {raw!r}")
    return raw


def _oracle_bool(raw, context):
    if not isinstance(raw, bool):
        raise InvalidScenario(f"{context}: expected true or false, got {raw!r}")
    return raw


def _oracle_flags(raw, context):
    if not isinstance(raw, dict):
        raise InvalidScenario(f"{context}: flags must be an object")
    extra = set(raw) - {"isPn", "picardRankOne", "fanoIndex"}
    if extra:
        raise InvalidScenario(f"{context}: unknown flags {sorted(extra)}")
    index = None
    if "fanoIndex" in raw:
        index = _oracle_int(raw["fanoIndex"], context + ".fanoIndex")
    return ClassifyFlags(
        is_pn=_oracle_bool(raw.get("isPn", False), context + ".isPn"),
        picard_rank_one=_oracle_bool(
            raw.get("picardRankOne", False), context + ".picardRankOne"
        ),
        fano_index=index,
    )


def _oracle_value(value, context):
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


def _oracle_seshadri_spec(spec, context):
    """The spec reader that named the whole spec in each of its errors."""
    if isinstance(spec, dict) and "rule" in spec:
        spec = [spec]
    if isinstance(spec, list):
        if not spec:
            raise InvalidScenario(f"{context}: empty rule pipeline")
        return tuple(_oracle_step(step, context) for step in spec)
    if isinstance(spec, dict) and spec.keys() & {"exact", "lower", "upper"}:
        extra = set(spec) - ({"exact"} if "exact" in spec else {"lower", "upper"})
        if extra:
            raise InvalidScenario(f"{context}: unknown fields {sorted(extra)}")
        if "exact" not in spec:
            lower = _oracle_value(spec.get("lower", 0), context)
            upper = _oracle_value(spec["upper"], context) if "upper" in spec else None
            return {"lower": lower, "upper": upper, "statement": "declared interval"}
        spec = spec["exact"]
    elif not (isinstance(spec, (str, int)) or (isinstance(spec, dict) and spec)):
        raise InvalidScenario(f"{context}: unreadable seshadri entry {spec!r}")
    value = _oracle_value(spec, context)
    statement = f"declared exact value {value}"
    return {"lower": value, "upper": value, "statement": statement}


def _oracle_step(step, context):
    if not isinstance(step, dict) or "rule" not in step:
        raise InvalidScenario(f"{context}: each pipeline step needs a rule")
    rule = step["rule"]
    if not isinstance(rule, str) or rule not in RULES:
        raise InvalidScenario(f"{context}: unknown rule {rule!r}")
    slots = RULES[rule]
    extra = set(step) - {"rule", "as"} - {key for key, _ in slots}
    if extra:
        raise InvalidScenario(f"{context}: rule {rule} has no slots {sorted(extra)}")
    out = dict(step)
    for key, kind in slots:
        if key in out and kind in ("rational", "value"):
            read = parse_rational if kind == "rational" else _oracle_value
            out[key] = read(out[key], f"{context}.{key}")
    return out


def _oracle_entry(raw):
    if not isinstance(raw, dict):
        raise InvalidScenario("each scenario must be a JSON object")
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise InvalidScenario("each scenario needs a non-empty name")
    extra = set(raw) - {
        "name", "description", "n", "genus", "degree", "normalBundleDegree",
        "splitting", "Ln", "KLn1", "anticanonical", "seshadri", "flags",
    }
    if extra:
        raise InvalidScenario(f"{name}: unknown fields {sorted(extra)}")
    n = _oracle_int(raw.get("n"), f"{name}.n")
    genus = _oracle_int(raw.get("genus"), f"{name}.genus")
    degree = _oracle_int(raw.get("degree"), f"{name}.degree")
    anticanonical = _oracle_bool(
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
            _oracle_int(t, f"{name}.splitting") for t in twists
        )

    if "normalBundleDegree" in raw:
        normal_degree = _oracle_int(
            raw["normalBundleDegree"], f"{name}.normalBundleDegree"
        )
    elif splitting is not None:
        normal_degree = sum(splitting.twists)
    elif anticanonical:
        normal_degree = degree - 2 + 2 * genus
    else:
        raise InvalidScenario(f"{name}: need normalBundleDegree or a splitting")
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
            raise InvalidScenario(f"{name}: anticanonical scenarios have KLn1 = -Ln")
    elif "KLn1" in raw:
        k_ln1 = parse_rational(raw["KLn1"], f"{name}.KLn1")
    else:
        raise InvalidScenario(
            f"{name}: need KLn1 unless the scenario is anticanonical"
        )

    if "seshadri" not in raw:
        raise InvalidScenario(f"{name}: every scenario needs a seshadri entry")

    try:
        scenario = CurveScenario(
            n=n, genus=genus, degree=degree, normal_degree=normal_degree,
            ln=ln, k_ln1=k_ln1, anticanonical=anticanonical,
        )
    except InvalidScenario as exc:
        raise InvalidScenario(f"{name}: {exc}") from exc
    return cli.NamedScenario(
        name=name,
        scenario=scenario,
        seshadri_spec=_oracle_seshadri_spec(raw["seshadri"], f"{name}.seshadri"),
        flags=(
            _oracle_flags(raw["flags"], name) if "flags" in raw
            else ClassifyFlags()
        ),
        splitting=splitting,
        description=description,
    )


def _read_with(reader, raw):
    """What ``reader`` makes of an entry: a NamedScenario, or its message."""
    try:
        return reader(raw)
    except InvalidScenario as error:
        return str(error)


def _as_loaded(raw):
    """The entry ``raw`` as a one-entry file loads it, or for an entry that
    failed to read, the words of the fault it keeps."""
    (entry,) = parse_scenario_file({"scenarios": [raw]}).entries
    if isinstance(entry.seshadri_spec, FanoslopeError):
        return str(entry.seshadri_spec)
    return entry


def _old_certificate(spec, context):
    """A declared ``{"lower", "upper", "statement"}`` as the old
    resolve_estimate made it a certificate, or the words of its fault."""
    try:
        for bound in (spec["lower"], spec["upper"]):
            if bound is not None and bound < 0:
                raise InvalidScenario(
                    f"{context}: a Seshadri bound cannot be negative, got {bound}"
                )
        return SeshadriEstimate(
            spec["lower"], spec["upper"],
            (ProvenanceEntry("declared", spec["statement"]),),
        )
    except FanoslopeError as fault:
        return str(fault)


def _as_loaded_now(entry):
    """An entry the old loader read, or its message, as the loader keeps it
    now. A declared value becomes the certificate the old resolve_estimate
    built from it; a pipeline becomes the Step records of its steps. Where
    the old resolve_estimate refused the value, or the old interpreter met a
    fault in reading a step, the entry becomes that fault's words."""
    if not isinstance(entry, cli.NamedScenario):
        return entry
    steps = entry.seshadri_spec
    if isinstance(steps, dict):
        certificate = _old_certificate(steps, f"{entry.name}.seshadri")
        if isinstance(certificate, str):
            return certificate
        return entry._replace(seshadri_spec=certificate)
    if not isinstance(steps, tuple):
        return entry
    fault = _reading_fault(steps, entry.scenario)
    if fault is not None:
        return fault
    return entry._replace(seshadri_spec=tuple(
        Step(step["rule"], tuple(
            tuple(step[key]) if kind == "refs"
            else step.get(key, False if kind == "bool" else None)
            for key, kind in RULES[step["rule"]]
        ), step.get("as"))
        for step in steps
    ))


def _entries_to_break():
    """Every scenario entry of the fixtures and the golden inputs."""
    paths = [fixture(name) for name in ALL_FIXTURES]
    paths += sorted(str(path) for path in GOLDEN_INPUTS.glob("*.json"))
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            yield from json.load(handle)["scenarios"]


def _names_the_failing_part(value, got, want):
    """Is ``got`` the oracle's message ``want`` with its context extended by
    the path to the part of the inserted ``value`` that fails to read?"""
    context, _, fault = want.partition(": ")
    longer, _, got_fault = got.partition(": ")
    if got_fault != fault or not longer.startswith(context + "."):
        return False
    part = value
    for key in longer[len(context) + 1:].split("."):
        if not isinstance(part, dict) or key not in part:
            return False
        part = part[key]
    read = parse_rational if key in ("rat", "coef") else _oracle_value
    return _read_with(lambda raw: read(raw, "x"), part) == f"x: {fault}"


def _in_the_old_loaders_words(name, message):
    """The message of entry ``name``'s pipeline fault as the old loader
    worded it: a slot it read named by the entry's context, not by the rule."""
    if not message.startswith("seshadri rule "):
        return message
    context, _, fault = message.partition(": ")
    return f"{name}.seshadri.{context.partition('.')[2]}: {fault}"


def test_the_field_table_reads_every_malformed_field_as_the_oracle_did():
    compared = named = moved = 0
    for entry in _entries_to_break():
        for path in _fields(entry):
            for value in MALFORMED:
                raw = _replaced(entry, path, value)
                old = _read_with(_oracle_entry, raw)
                got, want = _as_loaded(raw), _as_loaded_now(old)
                compared += 1
                # a seshadri entry's fault the old loader refused the whole
                # file for, in the words it refused it with
                refused = path[0] == "seshadri" and isinstance(old, str)
                if refused and isinstance(got, str):
                    got = _in_the_old_loaders_words(raw["name"], got)
                    moved += 1
                if got == want:
                    continue
                # a Seshadri-spec error names the failing part of the spec
                if isinstance(want, str) and path[0] == "seshadri":
                    assert _names_the_failing_part(value, got, want), (got, want)
                    named += 1
                    continue
                # the one refusal the oracle lacks: a Fano n-fold's index is 1..n+1
                assert isinstance(want, cli.NamedScenario), (path, value, got, want)
                index, n = want.flags.fano_index, want.scenario.n
                assert not 1 <= index <= n + 1, (path, value, got)
                assert got == (
                    f"{want.name}.fanoIndex: a Fano {n}-fold has index 1 to "
                    f"{n + 1}, got {index}"
                )
    assert compared > 20_000 and named > 50 and moved > 1000


# -- the surd loader against the route through Fractions ---------------------
#
# parse_value reads a surd's parts as integers and builds the Surd once. The
# route it replaced read each part with parse_rational and built the
# Fraction-based Surd from them; both must give the same value or message.


def _surd_via_fractions(value, context):
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
        surd = surd_oracle.Surd(
            parse_rational(value.get("rat", 0), f"{context}.rat"),
            parse_rational(value.get("coef", 0), f"{context}.coef"),
            rad,
        )
        return surd.rat if surd.is_rational else surd
    return parse_rational(value, context)


def _loads_as_via_fractions(raw):
    got = _read_with(lambda value: parse_value(value, "s.lower"), raw)
    want = _read_with(lambda value: _surd_via_fractions(value, "s.lower"), raw)
    if isinstance(want, surd_oracle.Surd):
        return isinstance(got, Surd) and (got.rat, got.coef, got.rad) == (
            want.rat, want.coef, want.rad
        )
    return type(got) is type(want) and got == want


def _dicts_in(value):
    if isinstance(value, dict):
        yield value
        for inner in value.values():
            yield from _dicts_in(inner)
    elif isinstance(value, list):
        for inner in value:
            yield from _dicts_in(inner)


def test_every_malformed_object_loads_as_the_fraction_route_loaded_it():
    objects = [d for value in MALFORMED for d in _dicts_in(value)]
    assert sum(1 for d in objects if "rad" in d) >= 8
    for raw in objects:
        assert _loads_as_via_fractions(raw), raw


_LONG = "9" * 4301
surd_part_st = st.one_of(
    st.sampled_from([
        "1/0", "0/0", "\u0663", "-0/5", "", "x", " 3", "+3", "1e3", "6/4", "-7/3",
        "0", "007/014", _LONG, "1/" + _LONG, "-" + _LONG + "/7", 10**4400,
        True, None, 0.5, [], {},
    ]),
    st.integers(-50, 50),
    st.integers(-10**6, 10**6).map(str),
    st.fractions(min_value=-30, max_value=30, max_denominator=40).map(str),
)
surd_rad_st = st.one_of(
    st.sampled_from(
        [0, 1, 2, 3, 4, 8, 12, 18, 99, 10**12 - 1, 10**12, -1, True, 2.0, "2"]
    ),
    st.integers(0, 10**6),
)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(st.fixed_dictionaries({}, optional={
    "rat": surd_part_st, "coef": surd_part_st, "rad": surd_rad_st,
    "x": st.just(1),
}))
@example({"rat": "1/0", "coef": "1", "rad": 2})
@example({"rat": "1", "coef": "\u0663", "rad": 2})
@example({"rat": "-0/5", "coef": "-0/5", "rad": 8})
@example({"rat": _LONG, "coef": "1", "rad": 2})
@example({"rat": "1", "coef": 10**4400, "rad": 3})
@example({"rat": "3/4", "coef": "-1/2", "rad": 16})
def test_generated_surd_parts_load_as_the_fraction_route_loaded_them(raw):
    assert _loads_as_via_fractions(raw)


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"lower": "1", "upper": "x"}, "conic.seshadri.upper: bad rational 'x'"),
        ({"lower": "y"}, "conic.seshadri.lower: bad rational 'y'"),
        ({"exact": None}, "conic.seshadri.exact: cannot read a rational from None"),
        ({"lower": {"rat": "1", "coef": "q", "rad": 2}},
         "conic.seshadri.lower.coef: bad rational 'q'"),
        ({"exact": {"rat": "1/0", "coef": "1", "rad": 2}},
         "conic.seshadri.exact.rat: bad rational '1/0'"),
        ({"rat": "x", "coef": "1", "rad": 2}, "conic.seshadri.rat: bad rational 'x'"),
        ({"upper": {"coef": "1", "rad": -2}},
         "conic.seshadri.upper: surd radicand must be a non-negative integer "
         f"below {_MAX_RADICAND}"),
        # a pipeline's fault is its scenario's, and names the rule's slot
        ([{"rule": "linear_subspace_exact", "n": 3, "as": "a"},
          {"rule": "certify_exact_by_restriction", "upper": "a", "ambient": "a",
           "restricted": {"rat": "1", "coef": "w", "rad": 2}}],
         "seshadri rule certify_exact_by_restriction.restricted.coef: "
         "bad rational 'w'"),
        # a literal is the whole spec, so the whole spec is named
        ("x", "conic.seshadri: bad rational 'x'"),
    ],
)
def test_a_seshadri_spec_error_names_the_failing_part(spec, message):
    assert _as_loaded(conic(seshadri=spec)) == message


def test_a_type_fault_is_reported_before_a_fault_across_fields():
    # n = -1 breaks the splitting's rank, flags = -1 breaks a type; the field
    # table reads every type first, where the hand-written chain read flags last
    with open(fixture("pn_line.json"), encoding="utf-8") as handle:
        entry = json.load(handle)["scenarios"][0]
    raw = _replaced(_replaced(entry, ("n",), -1), ("flags",), -1)
    assert _read_with(cli._parse_entry, raw) == "pn_line: flags must be an object"
    assert _read_with(_oracle_entry, raw) == (
        "pn_line: splitting has rank 2, but a curve in an -1-fold has normal "
        "bundle of rank -2"
    )


@pytest.mark.parametrize(
    "key, old",
    [
        ("n", "conic.n: expected an integer, got None"),
        ("genus", "conic.genus: expected an integer, got None"),
        ("degree", "conic.degree: expected an integer, got None"),
        ("Ln", "conic.Ln: cannot read a rational from None"),
        ("seshadri", "conic: every scenario needs a seshadri entry"),
    ],
)
def test_a_missing_required_field_is_named(key, old):
    raw = {k: v for k, v in conic().items() if k != key}
    assert _read_with(_oracle_entry, raw) == old
    assert _read_with(cli._parse_entry, raw) == (
        f"conic: every scenario needs a {key} entry"
    )


# Valid entries of every shape: the field table must read each one to the
# oracle's NamedScenario, with the same type in every slot, so a reader that
# takes a value as it is or a faster rational path cannot change what loads.


def _spellings(value):
    """The JSON spellings of a rational: "a/b", reduced or not, and for a
    whole number also "a" and the JSON integer."""
    forms = [
        st.integers(1, 3).map(
            lambda k: f"{value.numerator * k}/{value.denominator * k}"
        )
    ]
    if value.denominator == 1:
        forms += [st.just(str(value.numerator)), st.just(value.numerator)]
    return st.one_of(forms)


_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=9)
_spelled = _rationals.flatmap(_spellings)
# every part optional; a square or zero radicand, or a zero coefficient, gives
# a surd that is rational and loads as its Fraction
_surds = st.fixed_dictionaries(
    {}, optional={"rat": _spelled, "coef": _spelled, "rad": st.integers(0, 30)}
)
_values = st.one_of(_spelled, _surds)
_SLOT_VALUES = {
    "int": st.integers(0, 9),
    "bool": st.booleans(),
    "rational": _spelled,
    "value": _values,
    "ref": st.sampled_from(["a", "b"]),
    "refs": st.lists(st.sampled_from(["a", "b"]), min_size=2, max_size=3),
}
# Values the file loads but a step refuses when it runs, as in
# test_bad_pipeline_step_fails_its_scenario_only, plus an unknown name and a
# null name, which run_pipeline refuses
_RUN_TIME_FAULTS = {
    "int": st.sampled_from(["3", 2.5, True, None]),
    "bool": st.sampled_from(["false", 1, None]),
    "ref": st.sampled_from(["c", ["a"], {"x": 1}, 7, None]),
    "refs": st.sampled_from(["a", [], ["a"], ["a", ["a"]], ["a", "c"], ["a", None]]),
    "as": st.sampled_from(["", 7, [1], None]),
}


def _slot(draw, kind, valid):
    """A slot's value: one time in five a fault of its kind, if it has one."""
    if kind in _RUN_TIME_FAULTS and draw(st.integers(0, 4)) == 0:
        return draw(_RUN_TIME_FAULTS[kind])
    return draw(valid)


@st.composite
def _steps(draw):
    """One pipeline step: a rule, some of its slots, and perhaps a name. A
    slot is left out one time in four."""
    rule = draw(st.sampled_from(list(RULES)))
    step = {"rule": rule}
    for key, kind in RULES[rule]:
        if key is not None and draw(st.integers(0, 3)):
            step[key] = _slot(draw, kind, _SLOT_VALUES[kind])
    if draw(st.booleans()):
        step["as"] = _slot(draw, "as", st.sampled_from(["a", "b"]))
    return step


_seshadri_specs = st.one_of(  # drawn most often first
    st.lists(_steps(), min_size=1, max_size=4),
    _steps(),
    _surds.filter(bool),  # a bare surd object
    st.builds(lambda v: {"exact": v}, _values),
    st.builds(lambda v: {"lower": v}, _values),
    st.builds(lambda v: {"upper": v}, _values),
    st.builds(lambda v, w: {"lower": v, "upper": w}, _values, _values),
    _spelled,  # a string or int literal
)


@st.composite
def valid_entries(draw):
    n = draw(st.integers(2, 6))
    genus, degree = draw(st.integers(0, 3)), draw(st.integers(1, 8))
    anticanonical = draw(st.booleans())
    ln = draw(st.fractions(min_value=Fraction(1, 9), max_value=90, max_denominator=9))
    raw = {
        "name": draw(st.text(min_size=1, max_size=6)),
        "n": n,
        "genus": genus,
        "degree": degree,
        "Ln": draw(_spellings(ln)),
        "seshadri": draw(_seshadri_specs),
    }
    if anticanonical or draw(st.booleans()):
        raw["anticanonical"] = anticanonical
    if draw(st.booleans()):
        raw["description"] = draw(st.text(max_size=6))
    # adjunction pins the normal degree of an anticanonical curve
    p = degree - 2 + 2 * genus if anticanonical else draw(st.integers(-6, 9))
    if draw(st.booleans()):
        twists = draw(st.lists(st.integers(-3, 3), min_size=n - 2, max_size=n - 2))
        raw["splitting"] = draw(st.permutations(twists + [p - sum(twists)]))
    if draw(st.booleans()) or not (anticanonical or "splitting" in raw):
        raw["normalBundleDegree"] = p
    if not anticanonical:
        raw["KLn1"] = draw(_spelled)
    elif draw(st.booleans()):
        raw["KLn1"] = draw(_spellings(-ln))
    flags = draw(st.none() | st.fixed_dictionaries({}, optional={
        "fanoIndex": st.integers(1, n + 1),
        "isPn": st.booleans(),
        "picardRankOne": st.booleans(),
    }))
    if flags is not None:
        raw["flags"] = flags
    return raw


def _leaf_types(value):
    """The type of every value a parsed entry holds, in order."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (tuple, list)):
        return [leaf for item in value for leaf in _leaf_types(item)]
    return [type(value)]


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(valid_entries())
@example({"name": "c", "n": 3, "genus": 0, "degree": 2, "Ln": "54",
          "anticanonical": True, "flags": {},
          "seshadri": [{"rule": "witness_curve_upper", "degree": "6/2", "as": "a"},
                       {"rule": "linear_subspace_exact", "n": 3, "as": "b"},
                       {"rule": "certify_exact_by_restriction", "upper": "a",
                        "ambient": "b", "restricted": {"rat": "3", "rad": 4}}]})
def test_every_valid_entry_loads_as_the_oracle_reads_it(raw):
    got, want = _as_loaded(raw), _as_loaded_now(_oracle_entry(raw))
    assert got == want
    assert repr(got) == repr(want)
    assert _leaf_types(got) == _leaf_types(want)


# The pipeline interpreter moved from the command line into the library; the
# old one, kept verbatim in pipeline_oracle, must give every pipeline that
# reads the same estimate, or the same error in the same words. A pipeline
# is now read whole before any rule runs: it must fail to read exactly when
# the old one, its rules stubbed, met a fault, and with the same words. The
# old one read a null estimate name as the previous estimate, which
# run_pipeline refuses, so pipelines holding one are left out here.

_LINE = conic(name="line", degree=4, Ln="64")  # moving_curve_upper fires here
# steps that bind "a" and "b" first, so later steps find the names they use
_BOUND = [
    {"rule": "linear_subspace_exact", "n": 3, "as": "a"},
    {"rule": "point_upper_bound", "n": 3, "as": "b"},
]


def _null_name_slot(step):
    """The first estimate slot of the step that is null, or holds a null in
    its list, or None."""
    for key, kind in RULES.get(step.get("rule"), ()):
        value = step.get(key, ())
        if (kind == "ref" and value is None) or (
            kind == "refs" and isinstance(value, list) and None in value
        ):
            return key
    return None


_ANY_ESTIMATE = SeshadriEstimate(Fraction(1), Fraction(1))
_NULL = "\0null"  # a name no step binds, standing in for a null one


def _reading_fault(steps, scenario):
    """The words of the first fault the old interpreter met in reading steps
    as the old loader kept them, with every rule stubbed to succeed so that
    no rule's refusal comes first; None if it read every step. A null name
    is refused where it stands, as run_pipeline has refused it since it
    stopped reading it as the previous estimate."""
    with pytest.MonkeyPatch.context() as patch:
        for rule in RULES:  # the old interpreter merged for combine itself
            patch.setattr(seshadri, rule, lambda *args: _ANY_ESTIMATE)
        for i, step in enumerate(steps):
            key = _null_name_slot(step)
            if key is not None:
                names = step[key]
                step = {**step, key: _NULL if names is None else [
                    _NULL if name is None else name for name in names
                ]}
            try:
                pipeline_oracle._run_pipeline([*steps[:i], step], scenario)
            except InvalidScenario as fault:
                where = f"seshadri rule {step['rule']}"
                if str(fault) != f"{where}: unknown estimate name {_NULL!r}":
                    return str(fault)
                return f"{where}.{key}: null is not an estimate name"
    return None


def _outcome(run):
    try:
        estimate = run()
    except Exception as error:  # the type and the words of any fault
        return type(error), str(error)
    return repr(estimate.lower), repr(estimate.upper), estimate.provenance


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from([[], _BOUND[:1], _BOUND]),
    st.lists(_steps(), min_size=1, max_size=4),
    st.sampled_from([conic(), _LINE]),
)
@example(_BOUND[:1], [{"rule": "witness_curve_upper", "degree": "7/2", "as": "b"},
                      {"rule": "combine", "of": ["a", "b"]},
                      {"rule": "blowup_exceptional_shift"}], _LINE)
def test_a_pipeline_runs_as_the_old_interpreter_ran_it(bound, steps, raw):
    spec = bound + steps
    assume(not any(_null_name_slot(step) is not None for step in spec))
    entry = parse_scenario_file({"scenarios": [{**raw, "seshadri": spec}]}).entries[0]
    scenario = _as_loaded(raw).scenario  # an entry that failed to read keeps none
    old = _oracle_seshadri_spec(spec, "line.seshadri")  # as the old loader kept it
    got = _outcome(lambda: cli.resolve_estimate(entry))
    want = _outcome(lambda: pipeline_oracle._run_pipeline(old, scenario))
    fault = _reading_fault(old, scenario)
    read = isinstance(entry.seshadri_spec, tuple)
    assert read == (fault is None)
    if read or want[0] is InvalidScenario:
        assert got == want
    else:
        # every step is read before any rule runs, where the old interpreter
        # ran each step's rule before it read the next step: a rule it ran
        # first refused
        assert got == (InvalidScenario, fault)
        assert isinstance(want[0], type) and issubclass(want[0], FanoslopeError)


# -- parse once ------------------------------------------------------------


def test_a_loaded_scenario_is_never_parsed_again(monkeypatch):
    paths = [fixture(name) for name in ALL_FIXTURES]
    paths += sorted(str(path) for path in GOLDEN_INPUTS.glob("*.json"))
    loaded = {path: cli.load_scenario_file(path) for path in paths}
    monkeypatch.setattr(cli, "load_scenario_file", loaded.__getitem__)

    def outcomes():
        seen = []
        for path, scenario_file in loaded.items():
            for entry in scenario_file.entries:
                try:
                    estimate = cli.resolve_estimate(entry)
                    seen.append(
                        (estimate.lower, estimate.upper, estimate.provenance)
                    )
                except FanoslopeError as error:
                    seen.append(repr(error))
                for fmt in ("text", "json", "csv"):
                    seen.append(_run_quietly(["seshadri", path, "--scenario",
                                              entry.name, "--format", fmt]))
            for fmt in ("text", "json", "csv"):
                seen.append(_run_quietly(["classify", path, "--format", fmt]))
        return seen

    before = outcomes()

    def refuse(value, context="value"):
        raise AssertionError(f"{context}: {value!r} parsed again")

    # a read goes through a module's name for the function, or through a row
    # of the one reader table, which holds the function it was built with
    for module in (cli, exactnum):
        monkeypatch.setattr(module, "parse_rational", refuse)
        monkeypatch.setattr(module, "parse_value", refuse)
    for kind in ("rational", "value"):
        taken, _ = seshadri._SLOT_READERS[kind]
        monkeypatch.setitem(seshadri._SLOT_READERS, kind, (taken, refuse))
    assert outcomes() == before


# -- error handling and exit codes -----------------------------------------


def test_missing_file_exits_one(capsys, tmp_path):
    code, _, err = run_cli(capsys, "classify", str(tmp_path / "absent.json"))
    assert code == 1
    assert "error:" in err


class _BrokenPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [
    ("classify", fixture("gallery.json")),
    ("classify", fixture("gallery.json"), "--format", "json"),
    ("sweep", fixture("blp3_fiber.json"), "--scenario", "blp3_fiber", "--grid", "1"),
    ("seshadri", fixture("blp3_fiber.json"), "--scenario", "blp3_fiber"),
], ids=["classify-text", "classify-json", "sweep", "seshadri"])
def test_a_failed_write_to_stdout_exits_one(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdout", _BrokenPipe())
    code = main(list(argv))
    # the write fault's words alone: no internal error, no traceback
    assert (code, capsys.readouterr().err) == (1, "error: [Errno 32] Broken pipe\n")


def test_invalid_json_exits_one(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "classify", str(path))
    assert code == 1
    assert "not valid JSON" in err


def _conic_file(tail):
    """A one-scenario file, as bytes, with ``tail`` spliced into the end of
    the scenario object."""
    head = json.dumps({"scenarios": [conic()]}).encode("utf-8")
    return head[: -len(b"}]}")] + tail + b"}]}"


def _conic_with(key, value):
    """A one-scenario file, as bytes, whose ``key`` holds the JSON ``value``."""
    content = json.dumps({"scenarios": [conic(**{key: "@"})]}).encode("utf-8")
    return content.replace(b'"@"', value)


@pytest.mark.parametrize(
    "content, message",
    [
        (_conic_file(b', "normalBundleDegree": 1' + b"0" * 5000),
         "not valid JSON"),
        (_conic_file(b', "description": "\xff"'), "not valid JSON"),
        (_conic_file(b', "seshadri": "2"'), "repeated key 'seshadri'"),
        (b'{"scenarios": [], "scenarios": []}', "repeated key 'scenarios'"),
        (b'{"scenarios": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
         "not valid JSON"),
        (json.dumps({"scenarios": [conic(seshadri="@")]}).encode("utf-8").replace(
            b'"@"', b'{"a": ' * 50_000 + b"1" + b"}" * 50_000), "not valid JSON"),
        # a key repeated in a nested object: a cheaper check must still see these
        (_conic_with("seshadri", b'[{"rule": "linear_subspace_exact", "n": 3, '
                                 b'"n": 4}]'),
         "repeated key 'n' in a JSON object"),
        (_conic_with("seshadri", b'{"lower": {"rat": "1", "coef": "1", "rad": 2, '
                     b'"rat": "2"}}'), "repeated key 'rat' in a JSON object"),
        (_conic_with("flags", b'{"isPn": false, "isPn": true}'),
         "repeated key 'isPn' in a JSON object"),
        # a key repeated in one entry fails the file, not that entry alone
        (json.dumps({"scenarios": [conic(), conic(name="@"), conic(name="last")]})
         .encode("utf-8").replace(b'"@"', b'"bad", "name": "bad"'),
         "repeated key 'name' in a JSON object"),
    ],
    ids=["oversized-integer", "invalid-utf8", "repeated-key", "repeated-top-key",
         "deeply-nested-arrays", "deeply-nested-seshadri", "repeated-key-in-a-step",
         "repeated-key-in-a-surd", "repeated-key-in-flags",
         "repeated-key-in-one-of-three-entries"],
)
def test_undecodable_file_exits_one(capsys, tmp_path, content, message):
    path = tmp_path / "undecodable.json"
    path.write_bytes(content)
    with pytest.raises(InvalidScenario, match=message):
        cli.load_scenario_file(str(path))
    for argv in (
        ["classify", str(path)],
        ["seshadri", str(path), "--scenario", "conic"],
        ["sweep", str(path), "--scenario", "conic", "--grid", "1"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and message in err
        assert "internal error" not in err


def _load_with_json_load(path):
    """load_scenario_file as it read a file through json.load."""
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle, object_pairs_hook=cli._object_without_repeats)
        except (ValueError, RecursionError) as exc:
            raise InvalidScenario(f"{path}: not valid JSON ({exc})") from exc
    return parse_scenario_file(data)


@pytest.mark.parametrize(
    "content",
    [
        _conic_file(b""),
        b"\xef\xbb\xbf" + _conic_file(b""),  # a UTF-8 byte order mark
        _conic_file(b', "description": "\xff"'),
        _conic_file(b', "seshadri": "2"'),
        _conic_file(b', "normalBundleDegree": 1' + b"0" * 5000),
        _conic_file(b"").replace(b", ", b",\r\n ")[:-2],  # cut short, CRLF lines
        _conic_file(b"").replace(b", ", b",\r ")[:-2],  # cut short, CR lines
        _conic_file(b', "description": "a\rb"'),  # a raw CR inside a string
        b"",
    ],
    ids=["valid", "bom", "invalid-utf8", "repeated-key", "oversized-integer",
         "truncated-crlf", "truncated-cr", "cr-in-string", "empty"],
)
def test_the_decoder_reads_a_file_as_json_load_did(tmp_path, content):
    path = tmp_path / "scenarios.json"
    path.write_bytes(content)
    assert _read_with(cli.load_scenario_file, str(path)) == _read_with(
        _load_with_json_load, str(path)
    )


def test_unknown_top_level_field_exits_one(capsys, tmp_path):
    data = {"scenarios": [conic()], "senarios": []}
    with pytest.raises(InvalidScenario, match="senarios"):
        parse_scenario_file(data)
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    for argv in (
        ["classify", str(path)],
        ["seshadri", str(path), "--scenario", "conic"],
        ["sweep", str(path), "--scenario", "conic", "--grid", "1"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err == "error: unknown top-level fields ['senarios']\n"


@pytest.mark.parametrize(
    "data, message",
    [
        ([], 'a scenario file is {"scenarios": [...]}'),
        ({"senarios": []}, 'a scenario file is {"scenarios": [...]}'),
        ({"scenarios": {}}, "scenarios must be a list"),
    ],
    ids=["top-level-list", "no-scenarios-key", "scenarios-not-a-list"],
)
def test_file_of_the_wrong_shape_exits_one(capsys, tmp_path, data, message):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    for argv in (
        ["classify", str(path)],
        ["seshadri", str(path), "--scenario", "conic"],
        ["sweep", str(path), "--scenario", "conic", "--grid", "1"],
    ):
        assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


def test_bad_scenario_inside_file_reports_and_continues(capsys, tmp_path):
    data = minimal_entry()
    bad = {
        "name": "too_big",
        "n": 3,
        "genus": 0,
        "degree": 4,
        "anticanonical": True,
        "Ln": "64",
        "seshadri": "5",  # exceeds the consistency cap (n-1)d/p = 4
    }
    data["scenarios"].append(bad)
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, _ = run_cli(capsys, "classify", str(path))
    assert code == 1
    assert "scenario: x" in out and "status:" in out
    assert "scenario: too_big" in out and "error:" in out


def test_unexpected_internal_error_exits_two(capsys, monkeypatch):
    def explode(path):
        raise RuntimeError("simulated")

    monkeypatch.setattr(cli, "load_scenario_file", explode)
    code, _, err = run_cli(capsys, "classify", "anything.json")
    assert code == 2
    assert "internal error" in err


def _classify_records(fmt, out):
    """classify's stdout cut into one chunk per scenario, in file order."""
    if fmt == "text":
        return re.split(r"(?m)^(?=scenario: )", out)[1:]
    if fmt == "csv":
        return out.splitlines()[1:]
    return re.split(r"(?m)^    \{$", out)[1:]


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_a_program_fault_in_one_scenario_costs_that_scenario_only(
    capsys, monkeypatch, fmt
):
    path = fixture("gallery.json")
    names = [entry.name for entry in cli.load_scenario_file(path).entries]
    assert names == ["quartic_line", "cubic_elliptic", "quadric_conic"]
    clean_code, clean, _ = run_cli(capsys, "classify", path, "--format", fmt)
    assert clean_code == 0
    faulty = cli.load_scenario_file(path).entries[1].scenario
    classify_curve = cli.classify_curve

    def explode(scenario, *args, **kwargs):
        if scenario == faulty:
            raise RuntimeError("simulated")
        return classify_curve(scenario, *args, **kwargs)

    monkeypatch.setattr(cli, "classify_curve", explode)
    code, out, err = run_cli(capsys, "classify", path, "--format", fmt)
    assert code == 2
    assert err == "internal error: RuntimeError: simulated\n"
    got, want = _classify_records(fmt, out), _classify_records(fmt, clean)
    assert len(got) == len(want) == 3
    assert (got[0], got[2]) == (want[0], want[2])
    if fmt == "text":
        assert got[1] == "scenario: cubic_elliptic\n  error: RuntimeError: simulated\n"
    elif fmt == "csv":
        assert out.splitlines()[0] == clean.splitlines()[0]
        assert got[1] == "cubic_elliptic,error,,RuntimeError"
    else:
        assert json.loads(out)["verdicts"][1] == {
            "name": "cubic_elliptic",
            "error": "simulated",
            "error_type": "RuntimeError",
        }


def test_module_entry_point_via_subprocess():
    # -S leaves site-packages out, so a third-party import in src/ fails here
    src = str(Path(__file__).parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-S", "-m", "fanoslope", "classify",
         fixture("gallery.json"), "--format", "json"],
        capture_output=True,
        text=True,
        check=False,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0
    names = {v["name"] for v in json.loads(result.stdout)["verdicts"]}
    assert names == {"quartic_line", "cubic_elliptic", "quadric_conic"}


# -- the parser, built once per process ------------------------------------


def test_the_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_repeated_calls_construct_no_parser(capsys, monkeypatch):
    constructed = []
    original = argparse_oracle.argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(
        argparse_oracle.argparse.ArgumentParser, "__init__", counting_init
    )
    cli.build_parser.cache_clear()
    argv = ("classify", fixture("gallery.json"))
    assert [run_cli(capsys, *argv)[0] for _ in range(3)] == [0, 0, 0]
    # the command table is compiled on the first call only, and no
    # argparse parser is ever built
    assert cli.build_parser.cache_info().misses == 1
    assert constructed == []


def test_a_command_patched_after_the_first_call_is_the_one_run(
    capsys, monkeypatch
):
    # a profiler may wrap cmd_classify only once the parser already exists
    argv = ("classify", fixture("gallery.json"), "--format", "json")
    expected = run_cli(capsys, *argv)
    seen = []
    original = cli.cmd_classify

    def wrapped(args):
        seen.append(args.file)
        return original(args)

    monkeypatch.setattr(cli, "cmd_classify", wrapped)
    assert run_cli(capsys, *argv) == expected
    assert seen == [fixture("gallery.json")]


def test_a_usage_error_leaves_the_parser_as_fresh(capsys):
    valid = ("classify", fixture("p1xpn.json"), "--open-interval")
    cli.build_parser.cache_clear()
    fresh = run_cli(capsys, *valid)
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exit_info:
            main(["classify", fixture("p1xpn.json"), "--format", "yaml"])
        assert exit_info.value.code == 1
        errors.append(capsys.readouterr())
    assert errors[0] == errors[1] and "invalid choice: 'yaml'" in errors[0].err
    assert run_cli(capsys, *valid) == fresh


# -- the command line, read against one table -----------------------------

# argv drawn in pieces: a command word, every option in both spellings,
# --format choices valid and not, a file word, stray words and help. Each
# valid piece is listed three times, so that many argv are accepted. "--"
# is left out, because argparse's reading of it changed between Python 3.10
# and 3.13.
_VALID_PIECES = [
    ("--open-interval",),
    ("--format", "text"), ("--format", "csv"), ("--format", "json"),
    ("--format=text",), ("--format=csv",), ("--format=json",),
    ("--scenario", "pn_line"), ("--scenario=pn_line",), ("--scenario", "-1"),
    ("--grid", "1,2"), ("--grid=1,2",),
]
_STRAY_PIECES = [
    ("--format", "yaml"), ("--format=yaml",), ("--format",), ("--scenario",),
    ("--grid",), ("--open-interval=yes",), ("classify",), ("extra",),
    ("--bogus",), ("-x",), ("-1",), ("-h",), ("--help",),
]
_COMMAND_PIECES = [("classify",), ("sweep",), ("seshadri",)]


@st.composite
def _argv(draw):
    first = draw(st.sampled_from(_COMMAND_PIECES * 6 + _STRAY_PIECES + [()]))
    pieces = draw(st.lists(st.sampled_from(_VALID_PIECES * 3 + _STRAY_PIECES),
                           max_size=5))
    if draw(st.sampled_from([True, True, True, False])):
        pieces.insert(draw(st.integers(0, len(pieces))),
                      (draw(st.sampled_from(["f.json", "-1"])),))
    return [*first, *(word for piece in pieces for word in piece)]


def _exit_or_namespace(read, argv):
    """(exit code, None) or (None, the namespace's attributes), output muted."""
    muted = io.StringIO()
    with contextlib.redirect_stdout(muted), contextlib.redirect_stderr(muted):
        try:
            return None, vars(read(argv))
        except SystemExit as exit_:  # argparse exits 2 where main exits 1
            return (1 if exit_.code == 2 else exit_.code), None


_REFERENCE = argparse_oracle.reference_parser()


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(_argv())
@example(["classify", "f.json"])
@example(["classify", "--format=csv", "f.json", "--open-interval"])
@example(["sweep", "f.json", "--grid", "1,2", "--scenario", "pn_line"])
@example(["seshadri", "--scenario=pn_line", "-1", "--format", "json"])
@example(["classify", "f.json", "--format", "json", "--format=csv"])
@example(["--bogus", "classify", "f.json", "-h"])
def test_the_table_reads_argv_as_the_reference_parser_did(argv):
    ours = _exit_or_namespace(cli._read_argv, argv)
    assert ours == _exit_or_namespace(_REFERENCE.parse_args, argv)
    assert ours[0] in (None, 0, 1)


def test_a_word_after_double_dash_is_a_positional(capsys, tmp_path, monkeypatch):
    (tmp_path / "-f.json").write_bytes(Path(fixture("pn_line.json")).read_bytes())
    monkeypatch.chdir(tmp_path)
    expected = run_cli(capsys, "classify", fixture("pn_line.json"))
    assert run_cli(capsys, "classify", "--", "-f.json") == expected
    with pytest.raises(SystemExit) as exit_info:
        main(["classify", "-f.json"])
    assert exit_info.value.code == 1
    # without "--", -f.json reads as an unknown option, so no file is given
    assert "required: file" in capsys.readouterr().err


@pytest.mark.parametrize("argv, file", [
    (["classify", "f.json", "--"], "f.json"),
    (["classify", "-1", "--"], "-1"),
    (["--", "classify", "f.json"], "f.json"),
    (["classify", "--", "--"], "--"),
])
def test_double_dash_reads_every_later_word_as_a_positional(argv, file):
    args = cli._read_argv(argv)
    assert (args.command, args.file) == ("classify", file)


@pytest.mark.parametrize("argv, unrecognized", [
    (["classify", "--", "a", "b"], "b"),
    (["classify", "--", "f.json", "--format", "csv"], "--format csv"),
    (["classify", "f.json", "--format", "csv", "--", "--"], "--"),
    (["classify", "f.json", "-hh"], "-hh"),
])
def test_words_past_the_file_and_combined_short_options_are_unrecognized(
    capsys, argv, unrecognized
):
    with pytest.raises(SystemExit) as exit_info:
        cli._read_argv(argv)
    assert exit_info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"fanoslope classify: error: unrecognized arguments: {unrecognized}"
    )


def test_an_option_value_may_follow_an_equals_sign_and_the_last_wins(capsys):
    argv = ("classify", fixture("gallery.json"))
    csv_out = run_cli(capsys, *argv, "--format", "csv")
    assert csv_out[0] == 0 and csv_out[1].startswith("name,status")
    assert run_cli(capsys, *argv, "--format=csv") == csv_out
    assert run_cli(capsys, *argv, "--format", "json", "--format=csv") == csv_out


@pytest.mark.parametrize("argv", [
    ("classify", "FILE", "--format=json", "--open-interval"),
    ("sweep", "FILE", "--scenario=pn_line", "--grid=1,2", "--format=json",
     "--open-interval"),
    ("seshadri", "FILE", "--scenario=pn_line", "--format=csv"),
])
def test_help_anywhere_after_the_command_exits_zero(capsys, argv):
    argv = [fixture("pn_line.json") if word == "FILE" else word for word in argv]
    for at in range(1, len(argv) + 1):
        with pytest.raises(SystemExit) as exit_info:
            main([*argv[:at], "--help", *argv[at:]])
        assert exit_info.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(f"usage: fanoslope {argv[0]} ")
        assert captured.err == ""


@pytest.mark.parametrize("argv, prog, message", [
    ([], "fanoslope", "the following arguments are required: command"),
    (["nosuch"], "fanoslope", "argument command: invalid choice: 'nosuch'"),
    (["classify"], "fanoslope classify",
     "the following arguments are required: file"),
    (["sweep", "f.json", "--grid", "1"], "fanoslope sweep",
     "the following arguments are required: --scenario"),
    (["classify", "f.json", "--form", "json"], "fanoslope classify",
     "unrecognized arguments: --form json"),
    (["classify", "f.json", "--format"], "fanoslope classify",
     "argument --format: expected one argument"),
    (["classify", "f.json", "--open-interval=yes"], "fanoslope classify",
     "argument --open-interval: ignored explicit argument 'yes'"),
])
def test_a_usage_error_names_its_command_and_exits_one(capsys, argv, prog, message):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 1
    captured = capsys.readouterr()
    usage, error = captured.err.splitlines()
    assert usage.startswith(f"usage: {prog} [-h] ")
    assert error.startswith(f"{prog}: error: {message}")
    assert captured.out == ""


@pytest.mark.parametrize("words", [[], ["classify"], ["sweep"], ["seshadri"]])
def test_help_and_usage_errors_print_what_the_reference_parser_printed(
    capsys, monkeypatch, words
):
    # argparse wraps to the terminal; the table's help is never wrapped
    monkeypatch.setenv("COLUMNS", "200")
    for argv in ([*words, "--help"], words):  # help, then a missing argument
        with pytest.raises(SystemExit) as ours:
            main(argv)
        printed = capsys.readouterr()
        with pytest.raises(SystemExit) as reference:
            argparse_oracle.reference_parser().parse_args(argv)
        assert capsys.readouterr() == printed
        assert (ours.value.code, reference.value.code) in ((0, 0), (1, 2))
