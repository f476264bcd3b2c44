"""Layered benchmark for fanoslope.

Usage (from the repository root):

    python3 perfbench/run.py --workload classify-mixed --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``classify-mixed``: ``fanoslope classify --format json`` over a seeded batch
  of anticanonical scenarios split into equal files;
* ``classify-surd``: ``fanoslope classify --format text`` over genus-0 degree
  1 and 2 scenarios with quadratic-surd Seshadri bounds, every other file
  with ``--open-interval``;
* ``sweep-crosscheck``: ``quotient_slope(s, lam, cross_check=True)`` plus
  F(lam) over general and anticanonical scenarios with n up to 12.

The inputs are generated from ``--seed`` and written to files before anything
is timed; a child process (``worker.py``) that holds only those inputs runs
the workload single-threaded in a closed loop for ``--seconds``. Every
output is then checked by the exact oracles in ``oracles.py`` and, on the
seed recorded in ``reference/``, against the per-item reference and the digest
of the full output. ``--trace 1`` reports the per-layer metrics instead of
the end-to-end ones. The last line of output is one JSON object; the exit
code is 1 when any check fails.

``--record`` rewrites ``reference/<workload>.json`` from this run's outputs,
for the seed given; it refuses when an oracle fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
import calibrate
import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("classify-mixed", "classify-surd", "sweep-crosscheck")
FORMATS = {"classify-mixed": "json", "classify-surd": "text"}
SETUP_REPEATS = 9
# Timed inside the fresh interpreter: interpreter start-up itself does not
# depend on fanoslope, so it is left out. Calibration chunks in the same
# interpreter right after (the first one warms up) scale the time to the
# reference host speed.
SETUP_CODE = """
import time
start = time.perf_counter()
import fanoslope.cli
fanoslope.cli.build_parser()
elapsed = time.perf_counter() - start
import statistics, calibrate
calibrate.chunk()
print(elapsed, statistics.median(calibrate.chunk() for _ in range(3)))
"""
TAIL_PERCENTILES = (99, 95, 90, 75)  # the tail is the highest with >= 10 beyond
WORKER_GRACE_S = 150


def measure_setup():
    """Median time for a fresh interpreter to import fanoslope.cli and
    build its parser, raw and scaled to the reference host speed; one
    unmeasured run first writes the bytecode caches."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), env.get("PYTHONPATH")) if p
    )
    command = [sys.executable, "-c", SETUP_CODE]
    subprocess.run(command, env=env, check=True, cwd=ROOT, capture_output=True)
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            command, env=env, check=True, cwd=ROOT, capture_output=True, text=True
        ).stdout
        elapsed, chunk = map(float, out.split())
        raw.append(elapsed)
        scaled.append(elapsed * calibrate.REFERENCE_CHUNK_S / chunk)
    return statistics.median(scaled), statistics.median(raw)


def per_call(latencies, passes):
    """Each call's latency as its median over the timed passes.

    On a shared host, interference bursts add up to about 70% to single
    calls at random; the median over passes keeps what the inputs cost."""
    calls = len(latencies) // passes
    return [statistics.median(latencies[i::calls]) for i in range(calls)]


def tail(latencies):
    """(percentile, value, samples beyond) for the highest listed percentile
    with at least ten samples beyond it (nearest-rank)."""
    ordered = sorted(latencies)
    count = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100 * count)
        if count - rank >= 10:
            return pct, ordered[rank - 1], count - rank
    return 50, statistics.median(ordered), count // 2


# -- inputs -------------------------------------------------------------------


def write_inputs(workload, seed, workdir):
    """Generate and write the inputs; return (plan, checker state)."""
    if workload == "sweep-crosscheck":
        records, lambdas = gen.sweep_batch(seed)
        scenarios = workdir / "scenarios.json"
        points = workdir / "points.json"
        scenarios.write_text(json.dumps({"scenarios": records}), encoding="utf-8")
        points.write_text(
            json.dumps([[str(lam) for lam in lams] for lams in lambdas]),
            encoding="utf-8",
        )
        plan = {"workload": workload, "scenarios": str(scenarios), "points": str(points)}
        return plan, (records, lambdas)
    fmt = FORMATS[workload]
    files = gen.classify_batch(seed, workload)
    calls = []
    for index, (records, open_interval, _) in enumerate(files):
        path = workdir / f"batch{index:03d}.json"
        path.write_text(json.dumps({"scenarios": records}), encoding="utf-8")
        argv = ["classify", str(path), "--format", fmt]
        if open_interval:
            argv.append("--open-interval")
        calls.append({"argv": argv, "items": len(records)})
    return {"workload": workload, "calls": calls}, files


# -- reference -----------------------------------------------------------------


def reference_path(workload):
    return HERE / "reference" / f"{workload}.json"


def compare_reference(workload, seed, items, digest):
    """Per-item and full-output comparison on the recorded seed.

    Returns (applies, digest_matches); a differing item gets a problem."""
    path = reference_path(workload)
    if not path.is_file():
        return False, True
    reference = json.loads(path.read_text(encoding="utf-8"))
    if reference["seed"] != seed:
        return False, True
    expected = reference["items"]
    if len(expected) != len(items):
        for item in items:
            item.problem = item.problem or "batch size differs from the reference"
        return True, False
    for item, want in zip(items, expected):
        if item.digest != want and item.problem is None:
            item.problem = "output differs from the recorded reference"
    return True, digest == reference["digest"]


def record_reference(workload, seed, items, digest):
    path = reference_path(workload)
    path.parent.mkdir(exist_ok=True)
    path.write_text(
        json.dumps(
            {"seed": seed, "digest": digest, "items": [i.digest for i in items]},
            indent=0,
        )
        + "\n",
        encoding="utf-8",
    )


# -- one workload -------------------------------------------------------------


def run_worker(plan_path, seconds, trace):
    command = [
        sys.executable, str(HERE / "worker.py"), str(plan_path),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    completed = subprocess.run(
        command, cwd=ROOT, timeout=seconds + WORKER_GRACE_S, check=False
    )
    if completed.returncode != 0:
        raise RuntimeError(f"worker exited with code {completed.returncode}")
    return json.loads((plan_path.parent / "result.json").read_text(encoding="utf-8"))


def end_to_end(result, setup):
    """Timings come scaled to the reference host speed (calibrate.py); the
    note gives raw throughput and set-up time, and the measured speed."""
    setup_s, raw_setup_s = setup
    passes = len(result["pass_rates"])
    latencies = per_call(result["latencies"], passes)
    pct, value, beyond = tail(latencies)
    metrics = {
        "setup_s": setup_s,
        "items_per_s": statistics.median(result["pass_rates"]),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": value * 1e3,
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }
    note = (
        f"latencies are per-call medians over {passes} timed passes; tail is "
        f"p{pct} of {len(latencies)} calls ({beyond} beyond); host speed "
        f"{result['speed']:.3f} of the reference; raw items_per_s "
        f"{statistics.median(result['raw_pass_rates']):.6g}, raw setup_s "
        f"{raw_setup_s:.6g}"
    )
    return metrics, note


def per_layer(result):
    metrics = dict(result["counts"])
    for layer, seconds in result["self_s"].items():
        metrics[f"{layer}.self_s"] = seconds
    metrics["trace.overhead_share"] = 1 - result["traced_rate"] / result["untraced_rate"]
    return metrics


def src_lines():
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((SRC / "fanoslope").glob("*.py"))
    )


def run_workload(spec, workload, seed, seconds, trace, record):
    workdir = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        plan, state = write_inputs(workload, seed, workdir)
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        setup = None if trace else measure_setup()
        result = run_worker(plan_path, seconds, trace)
        with open(workdir / "outputs.jsonl", encoding="utf-8") as handle:
            outputs = [json.loads(line) for line in handle]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import oracles  # imports fanoslope, so only once main() found the sources

    items, mix = oracles.check_outputs(workload, state, outputs, FORMATS.get(workload))
    digest = hashlib.sha256(json.dumps(outputs).encode()).hexdigest()
    sizes = [call["items"] for call in plan["calls"]] if "calls" in plan else None
    for index in result["repeat_mismatches"]:
        # for classify-* a call covers every scenario of one file
        first = sum(sizes[:index]) if sizes else index
        for item in items[first:first + (sizes[index] if sizes else 1)]:
            item.problem = item.problem or "output changed on repetition"
    if record and not any(item.problem for item in items):
        record_reference(workload, seed, items, digest)
    applies, digest_ok = compare_reference(workload, seed, items, digest)
    failures = [i for i in items if i.problem]

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        measured = per_layer(result)
        note = "counts from the first traced pass; self times are per-pass medians"
    else:
        measured, note = end_to_end(result, setup)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise RuntimeError(f"metrics not measured: {', '.join(missing)}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}

    size = result["items_per_pass"]
    unit = "points" if workload == "sweep-crosscheck" else "scenarios"
    print(f"workload {workload} seed {seed}: {size} {unit} per pass; "
          f"src/fanoslope is {src_lines()} lines")
    for name, metric in metrics.items():
        print(f"  {name:38s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_share':38s} {len(failures) / len(items):.6g} share "
          f"({len(failures)} of {len(items)} items)")
    print(f"  note: {note}")
    if trace:
        counts = result["counts"]
        mix["rational_share"] = round(counts["exactnum.compare.rational_share"], 6)
        mix["repeat_share"] = round(counts["slope.integrals.repeat_share"], 6)
    print("  mix: " + json.dumps(mix, sort_keys=True))
    reference_note = "matches" if digest_ok else "DIFFERS from"
    if applies:
        print(f"  full-output digest {digest[:16]} {reference_note} the reference")
    for item in failures[:10]:
        print(f"  FAILED {item.ident}: {item.problem}")
    return {
        "correct": not failures and digest_ok,
        "attempted": len(items),
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="Layered benchmark for fanoslope")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference/<workload>.json for this seed")
    args = parser.parse_args(argv)

    if not (SRC / "fanoslope" / "__init__.py").is_file():
        print(f"error: no fanoslope sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import fanoslope

    if not Path(fanoslope.__file__).resolve().is_relative_to(SRC):
        print("error: fanoslope was not imported from this checkout", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for workload in workloads:
        summary = run_workload(
            spec, workload, args.seed, args.seconds, args.trace, args.record
        )
        ok = ok and summary["correct"]
        print(json.dumps(summary), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
