"""The benchmark's own checks: seeded inputs, exact counts, tracer, oracles.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import fanoslope  # noqa: E402
import gen  # noqa: E402
import oracles  # noqa: E402
import worker  # noqa: E402
from run import FORMATS, write_inputs  # noqa: E402
from tracer import Tracer  # noqa: E402

SMALL = {"size": 60, "file_size": 20}
CLASSIFY_BATCH, SWEEP_BATCH = gen.classify_batch, gen.sweep_batch


def small_inputs(workload, seed, tmp_path, monkeypatch):
    if workload == "sweep-crosscheck":
        monkeypatch.setattr(gen, "sweep_batch", lambda s: SWEEP_BATCH(s, scenarios=12))
    else:
        monkeypatch.setattr(
            gen, "classify_batch", lambda s, w: CLASSIFY_BATCH(s, w, **SMALL)
        )
    plan, state = write_inputs(workload, seed, tmp_path)
    runner_type = (
        worker.SweepRunner if workload == "sweep-crosscheck" else worker.ClassifyRunner
    )
    return runner_type(plan), state


def traced_pass(runner):
    tracer = Tracer(fanoslope)
    outputs = []
    with tracer.installed():
        _, printed = worker.run_pass(runner, [], sink=outputs.append)
    counts = tracer.layer_counts()
    counts["cli.render.bytes"] = printed
    return counts, outputs


@pytest.mark.parametrize("workload", ["classify-mixed", "classify-surd", "sweep-crosscheck"])
def test_counts_and_mix_repeat_exactly_for_a_seed(workload, tmp_path, monkeypatch):
    runner, state = small_inputs(workload, 7, tmp_path, monkeypatch)
    first_counts, first_outputs = traced_pass(runner)
    second_counts, second_outputs = traced_pass(runner)
    assert first_counts == second_counts
    items, mix = oracles.check_outputs(workload, state, first_outputs, FORMATS.get(workload))
    again, mix_again = oracles.check_outputs(
        workload, state, second_outputs, FORMATS.get(workload)
    )
    assert mix == mix_again
    assert [i.digest for i in items] == [i.digest for i in again]
    assert not [i.problem for i in items if i.problem]


def test_bypass_properties_are_measured(tmp_path, monkeypatch):
    counts = {}
    for workload in ("classify-mixed", "classify-surd", "sweep-crosscheck"):
        (tmp_path / workload).mkdir()
        runner, _ = small_inputs(workload, 3, tmp_path / workload, monkeypatch)
        counts[workload] = traced_pass(runner)[0]
    assert counts["classify-mixed"]["exactnum.compare.rational_share"] > 0.8
    assert counts["classify-surd"]["exactnum.compare.rational_share"] < 0.5
    for workload in ("classify-mixed", "classify-surd"):
        assert counts[workload]["slope.integrals.calls"] == 0
    assert counts["sweep-crosscheck"]["exactnum.compare.calls"] == 0
    assert counts["sweep-crosscheck"]["slope.integrals.repeat_share"] >= 0.75


def test_inputs_depend_only_on_the_seed():
    assert gen.classify_batch(5, "classify-mixed", **SMALL) == gen.classify_batch(
        5, "classify-mixed", **SMALL
    )
    assert gen.classify_batch(5, "classify-mixed", **SMALL) != gen.classify_batch(
        6, "classify-mixed", **SMALL
    )
    assert gen.sweep_batch(5, scenarios=4) == gen.sweep_batch(5, scenarios=4)


def test_mixed_batch_covers_every_rule_family_and_spec_form():
    files = gen.classify_batch(1, "classify-mixed")
    families = {e.family for _, _, expects in files for e in expects}
    assert families == set(gen.FAMILIES) | {"inconsistent"}
    specs = [r["seshadri"] for records, _, _ in files for r in records]
    assert any(isinstance(s, str) for s in specs)
    assert any(isinstance(s, list) for s in specs)
    assert any(isinstance(s, dict) and "exact" in s for s in specs)
    assert any(isinstance(s, dict) and "exact" not in s for s in specs)


def test_tracer_fails_loudly_when_a_name_is_gone(monkeypatch):
    monkeypatch.delattr(fanoslope.cli, "resolve_estimate")
    with pytest.raises(RuntimeError, match="resolve_estimate"):
        with Tracer(fanoslope).installed():
            pass
    assert not hasattr(fanoslope.cli.load_scenario_file, "__wrapped__")


def test_tracer_restores_every_name():
    before = dict(vars(fanoslope.cli)), dict(vars(fanoslope.exactnum.Surd))
    with Tracer(fanoslope).installed():
        assert hasattr(fanoslope.cli.compare, "__wrapped__")
    assert (dict(vars(fanoslope.cli)), dict(vars(fanoslope.exactnum.Surd))) == before


def test_oracle_rejects_a_wrong_witness(tmp_path, monkeypatch):
    runner, state = small_inputs("classify-mixed", 1, tmp_path, monkeypatch)
    outputs = []
    worker.run_pass(runner, [], sink=outputs.append)
    records, _, expects = state[0]
    code, stdout, stderr = outputs[0]
    data = json.loads(stdout)
    destabilized = [
        v for v in data["verdicts"]
        if v.get("status") in ("semistable-not-stable", "strictly-destabilized")
    ]
    assert destabilized, "the first file should hold a destabilizing verdict"
    destabilized[0]["witness_lambda"] = "1/1000"
    items, _ = oracles.check_classify_call(
        records, expects, "json", code, json.dumps(data), stderr
    )
    assert [i.problem for i in items if i.problem]


def test_oracle_rejects_disagreeing_routes():
    record, = gen.sweep_batch(2, scenarios=1)[0]
    lam = Fraction(1, 3)
    item = oracles.check_sweep_point(record, lam, Fraction(1), Fraction(2), Fraction(1))
    assert item.problem == "closed form and integral route differ"


def test_render_parser_inverts_render_value():
    surd = fanoslope.Surd
    for value in (Fraction(-3, 2), surd(0, 1, 15), surd(1, Fraction(-3, 4), 15),
                  surd(Fraction(-1, 2), 2, 2), surd(0, -1, 3)):
        assert oracles.parse_rendered(fanoslope.render_value(value)) == value


@pytest.mark.xfail(strict=True, reason="resolve_estimate reads a bare surd object "
                   "as an unbounded interval, so classify-surd spells surds as "
                   "exact or interval specs")
def test_bare_surd_spec_is_an_exact_value():
    data = {"scenarios": [{
        "name": "s", "n": 3, "genus": 0, "degree": 1, "anticanonical": True,
        "Ln": "54", "seshadri": {"rat": "0", "coef": "1", "rad": 8},
    }]}
    entry = fanoslope.cli.parse_scenario_file(data).entries[0]
    assert fanoslope.cli.resolve_estimate(entry).is_exact


def test_design_record_covers_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    design = json.loads((HERE / "design.json").read_text(encoding="utf-8"))
    assert list(design["per_layer"]) == [m["name"] for m in spec["per_layer"]]
    assert set(design["workloads"]) == {w["name"] for w in spec["workloads"]}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classify-mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert done.returncode != 0
    assert done.stdout == ""
