"""The record classes: immutable named tuples whose constructors check.

Every record (a scenario, flags, a splitting, a verdict, an estimate and
its provenance, a quotient-slope report, the bundle reports, and the loaded
scenario file) is a ``collections.namedtuple`` subclass with no instance
dictionary. The classes that validate do so in ``__new__``, and their
``_make``, so ``_replace`` too, goes through it. Loading the command line
imports no ``dataclasses``, ``typing`` or the introspection modules they
pull in, which would be a large share of a one-file run's set-up.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from importlib.resources import files
from pathlib import Path

import pytest

from fanoslope.blowup import CurveScenario
from fanoslope.classify import (
    BundleSplitting, ClassifyFlags, Verdict, VerdictStatus, classify_curve,
)
from fanoslope.cli import (
    NamedScenario, ScenarioFile, load_scenario_file, resolve_estimate,
)
from fanoslope.errors import FanoslopeError, InvalidScenario, ScenarioInconsistent
from fanoslope.exactnum import parse_rational
from fanoslope.seshadri import (
    ProvenanceEntry, SeshadriEstimate, linear_subspace_exact,
)
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


# -- records the engine fills directly equal the checked constructor's -------

# Every bundled fixture, then the golden inputs, which reach the verdicts the
# fixtures do not (a conditional one among them)
SCENARIO_FILES = [
    *sorted(Path(str(files("fanoslope") / "fixtures")).glob("*.json")),
    *sorted((Path(__file__).parent / "golden" / "inputs").glob("*.json")),
]


def _assert_twins(record, twin):
    """``record`` is exactly of ``twin``'s class and equals it field by
    field, each field of the same type, a record field compared so too."""
    assert type(record) is type(twin)
    assert record._fields == twin._fields
    for field, mine, theirs in zip(record._fields, record, twin):
        assert type(mine) is type(theirs), field
        assert mine == theirs, field
        if isinstance(theirs, tuple) and hasattr(theirs, "_fields"):
            _assert_twins(mine, theirs)
    assert record == twin


def _estimate_twin(estimate):
    return SeshadriEstimate(
        lower=estimate.lower,
        upper=estimate.upper,
        provenance=tuple(
            ProvenanceEntry(rule=rule, statement=statement)
            for rule, statement in estimate.provenance
        ),
    )


def _entry_twin(raw, entry):
    """The NamedScenario of the JSON entry ``raw``, every record in it built
    by keyword through its public constructor from the raw fields; the
    seshadri entry is the loaded one, a declared certificate rebuilt so."""
    spec = entry.seshadri_spec
    if isinstance(spec, SeshadriEstimate):
        spec = _estimate_twin(spec)
    if entry.scenario is None:  # an entry that failed to read keeps its fault
        return NamedScenario(name=entry.name, scenario=None, seshadri_spec=spec, flags=None)
    twists = raw.get("splitting")
    flags = raw.get("flags", {})
    return NamedScenario(
        name=raw["name"],
        scenario=CurveScenario(
            n=raw["n"],
            genus=raw["genus"],
            degree=raw["degree"],
            normal_degree=raw.get(
                "normalBundleDegree", None if twists is None else sum(twists)
            ),
            ln=parse_rational(raw["Ln"]),
            k_ln1=None if "KLn1" not in raw else parse_rational(raw["KLn1"]),
            anticanonical=raw.get("anticanonical", False),
        ),
        seshadri_spec=spec,
        flags=ClassifyFlags(
            is_pn=flags.get("isPn", False),
            picard_rank_one=flags.get("picardRankOne", False),
            fano_index=flags.get("fanoIndex"),
        ),
        splitting=None if twists is None else BundleSplitting(twists=twists),
        description=raw.get("description"),
    )


@pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda path: path.stem)
def test_each_loaded_record_equals_its_checked_twin(path):
    raws = json.loads(path.read_text(encoding="utf-8"))["scenarios"]
    loaded = load_scenario_file(str(path))
    assert type(loaded) is ScenarioFile and type(loaded.entries) is tuple
    assert len(loaded.entries) == len(raws) > 0
    for raw, entry in zip(raws, loaded.entries):
        _assert_twins(entry, _entry_twin(raw, entry))


def _estimate_and_verdicts(entry):
    """An entry's estimate and its verdict under each convention, a fault
    in place of what raised it."""
    try:
        estimate = resolve_estimate(entry)
    except FanoslopeError as fault:
        return fault, []
    verdicts = []
    for include_endpoint in (True, False):
        try:
            verdicts.append(classify_curve(
                entry.scenario, estimate, entry.flags,
                include_endpoint=include_endpoint,
            ))
        except FanoslopeError as fault:
            verdicts.append(fault)
    return estimate, verdicts


@pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda path: path.stem)
def test_each_estimate_and_verdict_equals_its_checked_twin(path):
    for entry in load_scenario_file(str(path)).entries:
        estimate, verdicts = _estimate_and_verdicts(entry)
        if isinstance(estimate, SeshadriEstimate):
            assert all(type(item) is ProvenanceEntry for item in estimate.provenance)
            assert all(type(text) is str for item in estimate.provenance for text in item)
            _assert_twins(estimate, _estimate_twin(estimate))
        for verdict in verdicts:
            if isinstance(verdict, Verdict):
                _assert_twins(verdict, Verdict(
                    status=verdict.status, rule=verdict.rule,
                    witness_lambda=verdict.witness_lambda,
                    condition=verdict.condition,
                ))
                # each field where the status puts it
                status = verdict.status
                assert type(status) is VerdictStatus and type(verdict.rule) is str
                assert (verdict.witness_lambda is not None) == (status in (
                    VerdictStatus.SEMISTABLE_NOT_STABLE,
                    VerdictStatus.STRICTLY_DESTABILIZED,
                ))
                assert (type(verdict.condition) is str) == (
                    status is VerdictStatus.CONDITIONAL
                )


def test_the_scenario_files_reach_every_verdict_status():
    statuses = {
        verdict.status
        for path in SCENARIO_FILES
        for entry in load_scenario_file(str(path)).entries
        for verdict in _estimate_and_verdicts(entry)[1]
        if isinstance(verdict, Verdict)
    }
    assert statuses == set(VerdictStatus)


@pytest.mark.parametrize(
    "cls, values, error, message",
    [
        (CurveScenario, (True, 0, 4, 2, Fraction(64), Fraction(-64), True),
         InvalidScenario, "n must be an integer"),
        (CurveScenario, (3, 0, 4, 2, Fraction(64), Fraction(-64), "yes"),
         InvalidScenario, "anticanonical must be true or false"),
        (ClassifyFlags, (1, False, None), InvalidScenario,
         "isPn and picardRankOne must be true or false"),
        (BundleSplitting, ((0, True),), TypeError, "a twist must be an int, got bool"),
        (SeshadriEstimate, (Fraction(5), Fraction(4), ()), ScenarioInconsistent,
         "lower bound 5 exceeds upper bound 4"),
    ],
)
def test_make_raises_each_check_s_words(cls, values, error, message):
    with pytest.raises(error) as raised:
        cls._make(values)
    assert str(raised.value) == message
