"""Command-line interface: parsing, output formats, exit codes."""

import argparse
import contextlib
import copy
import csv
import io
import json
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from types import SimpleNamespace
from importlib.resources import files
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import fanoslope.cli as cli
from fanoslope.cli import (
    dump_value,
    format_fixed,
    main,
    parse_rational,
    parse_scenario_file,
    parse_value,
)
from fanoslope.classify import Verdict, VerdictStatus
from fanoslope.errors import FanoslopeError, GridOutOfRange, InvalidScenario
from fanoslope.exactnum import Surd
from fanoslope.seshadri import ProvenanceEntry

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


def test_parse_value_surd_round_trip():
    value = parse_value({"rat": "-1", "coef": "2", "rad": 2}, "test")
    assert value == Surd(-1, 2, 2)
    assert parse_value(dump_value(value), "test") == value
    assert dump_value(Fraction(3, 4)) == "3/4"


@pytest.mark.parametrize("value", [3, "3", None], ids=["int", "str", "None"])
def test_dump_value_refuses_anything_but_an_exact_value(value):
    # the JSON writer spells every value through it, so an unexpected object
    # fails loudly
    with pytest.raises(TypeError):
        dump_value(value)


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


def test_scenario_file_rejects_unknown_fields():
    with pytest.raises(InvalidScenario, match="bogus"):
        parse_scenario_file(minimal_entry(bogus=1))


def test_scenario_file_rejects_float_literals():
    with pytest.raises(InvalidScenario, match="floats are not exact"):
        parse_scenario_file(minimal_entry(Ln=64.0))


def test_scenario_file_rejects_inconsistent_kln1():
    with pytest.raises(InvalidScenario, match="KLn1 = -Ln"):
        parse_scenario_file(minimal_entry(KLn1="-60"))


def test_scenario_file_rejects_splitting_degree_mismatch():
    with pytest.raises(InvalidScenario, match="sum"):
        parse_scenario_file(
            minimal_entry(splitting=[0, 0], normalBundleDegree=2)
        )


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


@pytest.mark.parametrize("point", ["1e0", "0.5", "+1", "1_0", "\u0661"])
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


def _dumps(document):
    return json.dumps(document, indent=2, default=dump_value) + "\n"


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
    assert cli._classify_json(results) == _dumps(
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
    ],
)
def test_non_exact_field_types_are_rejected(capsys, tmp_path, overrides, field):
    with pytest.raises(InvalidScenario, match=field):
        parse_scenario_file({"scenarios": [conic(**overrides)]})
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"scenarios": [conic(**overrides)]}), encoding="utf-8"
    )
    code, out, err = run_cli(capsys, "classify", str(path))
    assert code == 1
    assert err.startswith("error: conic") and field in err
    assert "internal error" not in err and out == ""


@pytest.mark.parametrize("twists", [[0], [0, 0, 0]])
def test_splitting_of_the_wrong_rank_is_rejected_at_load(
    capsys, tmp_path, twists
):
    # a curve in a 3-fold has a normal bundle of rank 2
    with pytest.raises(InvalidScenario, match=f"rank {len(twists)}.*rank 2"):
        parse_scenario_file({"scenarios": [conic(splitting=twists)]})
    path = tmp_path / "rank.json"
    path.write_text(
        json.dumps({"scenarios": [conic(name="ok"), conic(splitting=twists)]}),
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "classify", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: conic: splitting has rank")


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"seshadri": {"lower": {"rat": 0, "coef": 1, "rad": 10**30}}},
         "radicand"),
        ({"seshadri": [{"rule": "certify_exact_by_restriction",
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
    code, out, err = run_cli(capsys, "classify", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err
    assert "internal error" not in err


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


def test_readme_rule_table_matches_the_rule_table():
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = text.split("Available rules and their slots:", 1)[1]
    rows = []
    for line in table.strip().splitlines()[2:]:
        if not line.startswith("|"):
            break
        rule, slots = line.split("|")[1:3]
        keys = re.findall(r"`(\w+)`", slots)
        if slots.strip() == "(scenario)":
            keys = [None]  # the scenario slot has no JSON key
        rows.append((rule.strip().strip("`"), keys))
    assert rows == [
        (rule, [key for key, _ in slots]) for rule, slots in cli._RULES.items()
    ]


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


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(fuzz_cases())
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

    monkeypatch.setattr(cli, "parse_value", refuse)
    monkeypatch.setattr(cli, "parse_rational", refuse)
    for kind in ("rational", "value"):
        monkeypatch.setitem(cli._LOAD_PARSERS, kind, refuse)
    assert outcomes() == before


# -- error handling and exit codes -----------------------------------------


def test_missing_file_exits_one(capsys, tmp_path):
    code, _, err = run_cli(capsys, "classify", str(tmp_path / "absent.json"))
    assert code == 1
    assert "error:" in err


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
    ],
    ids=["oversized-integer", "invalid-utf8", "repeated-key", "repeated-top-key",
         "deeply-nested-arrays", "deeply-nested-seshadri"],
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


def test_module_entry_point_via_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "fanoslope", "classify",
         fixture("gallery.json"), "--format", "json"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0
    names = {v["name"] for v in json.loads(result.stdout)["verdicts"]}
    assert names == {"quartic_line", "cubic_elliptic", "quadric_conic"}


# -- the parser, built once per process ------------------------------------


def test_the_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_repeated_calls_construct_no_parser(capsys, monkeypatch):
    constructed = []
    original = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    argv = ("classify", fixture("gallery.json"))
    assert run_cli(capsys, *argv)[0] == 0
    first = len(constructed)
    assert first > 0
    assert [run_cli(capsys, *argv)[0] for _ in range(2)] == [0, 0]
    assert len(constructed) == first


def test_a_command_patched_after_the_first_call_is_the_one_run(
    capsys, monkeypatch
):
    # a profiler may wrap cmd_classify only once the parser already exists
    argv = ("classify", fixture("gallery.json"), "--format", "json")
    expected = run_cli(capsys, *argv)
    seen = []
    original = cli.cmd_classify

    def wrapped(args, out=None):
        seen.append(args.file)
        return original(args, out)

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
        assert exit_info.value.code == 2
        errors.append(capsys.readouterr())
    assert errors[0] == errors[1] and "invalid choice: 'yaml'" in errors[0].err
    assert run_cli(capsys, *valid) == fresh
