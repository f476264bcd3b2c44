"""The record classes: immutable named tuples whose constructors check.

Every record (a scenario, flags, a splitting, a verdict, an estimate and
its provenance, a quotient-slope report, the bundle reports, and the loaded
scenario file) is a ``collections.namedtuple`` subclass with no instance
dictionary. The classes that validate do so in ``__new__``, and their
``_make``, so ``_replace`` too, goes through it. Loading the command line
imports no ``dataclasses``, ``typing`` or the introspection modules they
pull in, which would be a large share of a one-file run's set-up.
"""

import os
import subprocess
import sys
from fractions import Fraction
from importlib.resources import files
from pathlib import Path

import pytest

from fanoslope.blowup import CurveScenario
from fanoslope.classify import (
    BundleSplitting, ClassifyFlags, Verdict, VerdictStatus,
)
from fanoslope.cli import load_scenario_file
from fanoslope.errors import InvalidScenario, ScenarioInconsistent
from fanoslope.seshadri import SeshadriEstimate, linear_subspace_exact
from fanoslope.slope import quotient_slope

from paper_formulas import fano_bundle_check, non_stable_shape_filter

SCENARIO = CurveScenario.anticanonical_curve(3, 0, 4, Fraction(64))
ESTIMATE = linear_subspace_exact(3)
LOADED = load_scenario_file(str(files("fanoslope") / "fixtures" / "pn_line.json"))

RECORDS = {
    "CurveScenario": SCENARIO,
    "ClassifyFlags": ClassifyFlags(is_pn=True, picard_rank_one=True),
    "BundleSplitting": BundleSplitting([1, 0]),
    "Verdict": Verdict(VerdictStatus.STABLE, "high-genus"),
    "FanoBundleReport": fano_bundle_check(BundleSplitting([0, 1])),
    "ShapeFilterResult": non_stable_shape_filter(3, BundleSplitting([0, 0])),
    "SeshadriEstimate": ESTIMATE,
    "ProvenanceEntry": ESTIMATE.provenance[0],
    "QuotientSlopeReport": quotient_slope(SCENARIO, 1, cross_check=True),
    "NamedScenario": LOADED.entries[0],
    "ScenarioFile": LOADED,
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_can_be_neither_changed_nor_extended(name):
    record = RECORDS[name]
    assert type(record).__name__ == name
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_hashes_and_compares_as_its_fields(name):
    record = RECORDS[name]
    copy = type(record)._make(record)
    assert copy == record and copy is not record
    if name not in ("NamedScenario", "ScenarioFile"):  # a spec may be a dict
        assert hash(copy) == hash(record) == hash(tuple(record))
    assert repr(copy) == repr(record)


@pytest.mark.parametrize(
    "record, change, error, message",
    [
        (SCENARIO, {"n": 1}, InvalidScenario, "ambient dimension must be at least 2"),
        (SCENARIO, {"genus": True}, InvalidScenario, "genus must be an integer"),
        (SCENARIO, {"normal_degree": 3}, InvalidScenario,
         "anticanonical adjunction forces normal bundle degree 2, got 3"),
        (SCENARIO, {"k_ln1": Fraction(-1)}, InvalidScenario,
         "anticanonical scenarios have KLn1 = -Ln"),
        (SCENARIO, {"anticanonical": "no"}, InvalidScenario,
         "anticanonical must be true or false"),
        (ClassifyFlags(), {"is_pn": "false"}, InvalidScenario,
         "isPn and picardRankOne must be true or false"),
        (ClassifyFlags(), {"fano_index": 3.5}, InvalidScenario,
         "fanoIndex must be an integer or None"),
        (BundleSplitting([0]), {"twists": ()}, ValueError,
         "a splitting needs at least one summand"),
        (ESTIMATE, {"lower": Fraction(5)}, ScenarioInconsistent,
         "lower bound 5 exceeds upper bound 4"),
        (ESTIMATE, {"lower": Fraction(-1)}, ValueError,
         "Seshadri lower bound cannot be negative"),
    ],
)
def test_replace_goes_through_the_constructor_checks(record, change, error, message):
    with pytest.raises(error) as raised:
        record._replace(**change)
    assert str(raised.value) == message
    values = [change.get(field, value) for field, value in zip(record._fields, record)]
    with pytest.raises(error, match=message):
        type(record)._make(values)


def test_replace_fills_in_and_normalizes_as_the_constructor_does():
    assert BundleSplitting([0])._replace(twists=(2, -1)).twists == (-1, 2)
    wider = SCENARIO._replace(n=4, normal_degree=None, k_ln1=None)
    assert wider == CurveScenario.anticanonical_curve(4, 0, 4, 64)
    assert type(wider.ln) is Fraction
    assert ESTIMATE._replace(upper=None).upper is None


def test_the_scenario_repr_is_the_field_listing():
    assert repr(SCENARIO) == (
        "CurveScenario(n=3, genus=0, degree=4, normal_degree=2, "
        "ln=Fraction(64, 1), k_ln1=Fraction(-64, 1), anticanonical=True)"
    )


def test_loading_the_command_line_imports_no_introspection_machinery():
    # -S keeps site's .pth files, which may import typing, out of the count;
    # a whole classify call reads its argv without argparse and what it
    # brings (gettext, and shutil for the help formatter)
    heavy = ("dataclasses", "inspect", "typing", "dis", "ast", "tokenize",
             "argparse", "gettext", "shutil")
    gallery = Path(__file__).parents[1] / "src" / "fanoslope" / "fixtures" / "gallery.json"
    code = (
        "import sys, fanoslope.cli; fanoslope.cli.build_parser(); "
        f"code = fanoslope.cli.main(['classify', {str(gallery)!r}, '--format', 'json']); "
        f"print(code, *sorted(set({heavy!r}) & sys.modules.keys()), file=sys.stderr)"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
    )
    assert result.stdout.startswith('{\n  "verdicts": [')
    assert result.stderr.split() == ["0"]


def test_a_library_caller_runs_a_pipeline_without_the_command_line():
    # pn_line's pipeline with typed steps: the rule table and the interpreter
    # are the library's, so neither fanoslope.cli nor json is loaded
    code = (
        "import sys; from fanoslope.seshadri import run_pipeline; "
        "from fanoslope.blowup import CurveScenario; "
        "line = CurveScenario.anticanonical_curve(3, 0, 4, 64); "
        "e = run_pipeline([{'rule': 'linear_subspace_exact', 'n': 3}], line); "
        "print(e.describe(), *e.provenance[0]); "
        "print(*sorted({'fanoslope.cli', 'json'} & sys.modules.keys()), file=sys.stderr)"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
    )
    assert result.stdout == (
        "exact 4 linear-subspace a linear subspace of projective 3-space has "
        "Seshadri constant 4 in the anticanonical polarization\n"
    )
    assert result.stderr == "\n"
