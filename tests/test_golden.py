"""Byte-identity gate: the CLI's outputs must not change by a single byte.

Each case runs ``fanoslope.cli.main`` in-process on a bundled fixture (or on
``tests/golden/inputs/``) and compares its stdout and exit code with the
files recorded under ``tests/golden/``. Performance work must leave every
one of them untouched. After an output change that is intended, rewrite the
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
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return out.getvalue(), code


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_is_byte_identical(case):
    stdout, code = _run(CASES[case])
    expected = (GOLDEN / f"{case}.out").read_bytes()
    assert stdout.encode("utf-8") == expected
    assert code == json.loads(EXIT_CODES.read_text(encoding="utf-8"))[case]


def test_every_golden_file_has_a_case():
    recorded = {p.name[: -len(".out")] for p in GOLDEN.glob("*.out")}
    assert recorded == set(CASES)


def record():
    for stale in GOLDEN.glob("*.out"):
        stale.unlink()
    codes = {}
    for case, argv in sorted(CASES.items()):
        stdout, codes[case] = _run(argv)
        (GOLDEN / f"{case}.out").write_bytes(stdout.encode("utf-8"))
    EXIT_CODES.write_text(json.dumps(codes, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    record()
