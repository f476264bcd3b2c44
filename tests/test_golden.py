"""Byte-identity gate: the CLI's outputs must not change by a single byte.

Each case runs ``fanoslope.cli.main`` in-process on a bundled fixture (or on
``tests/golden/inputs/``) and compares its stdout and exit code with the
files recorded under ``tests/golden/``, and its stderr with
``tests/golden/stderr.json``. Performance work must leave every one of them
untouched. After an output change that is intended, rewrite the
files and review the diff:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import io
import json
import sys
from importlib.resources import files
from pathlib import Path

import pytest

from fanoslope.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"
EXIT_CODES = GOLDEN / "exit_codes.json"
STDERR = GOLDEN / "stderr.json"
FIXTURES = files("fanoslope") / "fixtures"

# file stem -> scenario name -> sweep grid inside its certified interval
# (None: the certified interval is (0, 0], so no grid fits)
SCENARIOS = {
    "blp3_fiber": {"blp3_fiber": "1/2,1,2,5/2,3"},
    "gallery": {"quartic_line": None, "cubic_elliptic": None, "quadric_conic": None},
    "p1xpn": {"p1xp3_fiber": "1/3,1,2,7/2,4"},
    "pn_line": {"pn_line": "1/4,1,3,7/2,4"},
    "surd_bounds": {"d1_above": "1,2,3,4,9/2"},
    "high_dimension": {"n12_general": "1/3,1,2,9/2,6"},
    "pipelines": {"chain": "1/2,1,2,3", "declared_pinned": "1,2,3"},
    "consistency": {
        "p_negative_surd": "1,2",
        "p_zero": "1,3,5",
        "p_positive_at_cap": "1,2,4",
        "p_positive_above_cap": "1",
        "surd_below_cap": "1,2,2999/1000",
        "surd_above_cap": "1",
        "not_anticanonical_inconsistent": "1",
    },
    "moving_curve": {
        "cap_certified": "1,2,4",
        "flag_certified": "1,2,4",
        "no_flags": "1,2,4",
        "d_is_n_plus_one": "1,7/2,7",
    },
}


def _path(stem):
    if (INPUTS / f"{stem}.json").exists():
        return str(INPUTS / f"{stem}.json")
    return str(FIXTURES / f"{stem}.json")


def _cases():
    cases = {}
    for stem, scenarios in SCENARIOS.items():
        path = _path(stem)
        for fmt in ("text", "json", "csv"):
            cases[f"{stem}.classify.{fmt}"] = ["classify", path, "--format", fmt]
            cases[f"{stem}.classify.{fmt}.open"] = [
                "classify", path, "--format", fmt, "--open-interval",
            ]
        for name, grid in scenarios.items():
            for fmt in ("text", "json", "csv"):
                cases[f"{stem}.seshadri.{name}.{fmt}"] = [
                    "seshadri", path, "--scenario", name, "--format", fmt,
                ]
            if grid is None:
                continue
            for fmt in ("csv", "json"):
                cases[f"{stem}.sweep.{name}.{fmt}"] = [
                    "sweep", path, "--scenario", name, "--grid", grid,
                    "--format", fmt,
                ]
    return cases


CASES = _cases()


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return out.getvalue(), err.getvalue(), code


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_is_byte_identical(case):
    stdout, stderr, code = _run(CASES[case])
    expected = (GOLDEN / f"{case}.out").read_bytes()
    assert stdout.encode("utf-8") == expected
    assert code == json.loads(EXIT_CODES.read_text(encoding="utf-8"))[case]
    assert stderr == json.loads(STDERR.read_text(encoding="utf-8"))[case]


class _CountingWriter(io.StringIO):
    """A stdout that counts its write calls."""

    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def _counted_run(argv):
    out, err = _CountingWriter(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out


@pytest.mark.parametrize("case", [
    *(f"gallery.classify.{fmt}" for fmt in ("text", "csv", "json")),
    *(f"blp3_fiber.sweep.blp3_fiber.{fmt}" for fmt in ("csv", "json")),
    *(f"blp3_fiber.seshadri.blp3_fiber.{fmt}" for fmt in ("text", "csv", "json")),
])
def test_a_command_writes_its_output_in_one_call(case):
    code, out = _counted_run(CASES[case])
    assert (code, out.writes) == (0, 1)
    assert out.getvalue().encode("utf-8") == (GOLDEN / f"{case}.out").read_bytes()


def test_a_command_that_fails_writes_nothing(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    blp3 = _path("blp3_fiber")
    for argv in (
        ["classify", str(bad)],
        ["seshadri", blp3, "--scenario", "absent"],
        ["sweep", blp3, "--scenario", "blp3_fiber", "--grid", "100"],
    ):
        code, out = _counted_run(argv)
        assert (code, out.writes) == (1, 0), argv


def test_every_golden_file_has_a_case():
    recorded = {p.name[: -len(".out")] for p in GOLDEN.glob("*.out")}
    assert recorded == set(CASES)
    for table in (EXIT_CODES, STDERR):
        assert set(json.loads(table.read_text(encoding="utf-8"))) == set(CASES)


def record():
    for stale in GOLDEN.glob("*.out"):
        stale.unlink()
    codes, stderr = {}, {}
    for case, argv in sorted(CASES.items()):
        stdout, stderr[case], codes[case] = _run(argv)
        (GOLDEN / f"{case}.out").write_bytes(stdout.encode("utf-8"))
    for table, recorded in ((EXIT_CODES, codes), (STDERR, stderr)):
        table.write_text(json.dumps(recorded, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    record()
