"""Timed child process of the benchmark.

It holds only the workload's generated inputs and fanoslope, so its peak
resident memory reflects the program and not the benchmark. Steps:

1. reference pass: one pass over the batch, each output written to
   ``outputs.jsonl`` for the oracles; it also warms the interpreter. The peak
   resident memory is read right after it.
2. timed passes until ``--seconds`` have elapsed (closed loop, one thread),
   with a calibration chunk between segments of a pass (``calibrate.py``).
   With ``--trace 1`` traced and untraced passes alternate instead; counters
   come from the first traced pass, self times are per-pass medians.
3. check pass: one more pass whose outputs must match the reference pass
   item for item, so a result that changes on repetition is caught.

Usage: python3 perfbench/worker.py PLAN.json --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import fanoslope  # noqa: E402
import fanoslope.cli  # noqa: E402

import calibrate  # noqa: E402
from tracer import Tracer  # noqa: E402


def _fingerprint(*parts):
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()


class ClassifyRunner:
    """One pass = one ``fanoslope classify`` call per batch file."""

    SEGMENT_CALLS = 100

    def __init__(self, plan):
        calls = [(call["argv"], call["items"]) for call in plan["calls"]]
        self.items = sum(items for _, items in calls)
        self.segments = _split(calls, self.SEGMENT_CALLS)

    def run_segment(self, calls, latencies, sink=None):
        """Returns the number of bytes the calls printed."""
        main = fanoslope.cli.main
        printed = 0
        real_out, real_err = sys.stdout, sys.stderr
        try:
            for argv, _ in calls:
                out, err = io.StringIO(), io.StringIO()
                sys.stdout, sys.stderr = out, err
                start = perf_counter()
                code = main(argv)
                latencies.append(perf_counter() - start)
                printed += len(out.getvalue().encode())
                if sink is not None:
                    sink((code, out.getvalue(), err.getvalue()))
        finally:
            sys.stdout, sys.stderr = real_out, real_err
        return printed


class SweepRunner:
    """One pass = every (scenario, lambda) point of the batch, through
    ``quotient_slope(..., cross_check=True)`` and F(lambda) from a quadratic
    built once per scenario."""

    SEGMENT_SCENARIOS = 50

    def __init__(self, plan):
        scenario_file = fanoslope.cli.load_scenario_file(plan["scenarios"])
        with open(plan["points"], encoding="utf-8") as handle:
            points = json.load(handle)
        batch = [
            (entry.scenario, [Fraction(lam) for lam in lams])
            for entry, lams in zip(scenario_file.entries, points, strict=True)
        ]
        self.items = sum(len(lams) for _, lams in batch)
        self.segments = _split(batch, self.SEGMENT_SCENARIOS)

    def run_segment(self, batch, latencies, sink=None):
        slope = fanoslope.slope  # looked up per call so tracing applies
        for scenario, lams in batch:
            quadratic = slope.destabilizing_quadratic(scenario)
            for lam in lams:
                start = perf_counter()
                report = slope.quotient_slope(scenario, lam, cross_check=True)
                f_value = quadratic(lam)
                latencies.append(perf_counter() - start)
                if sink is not None:
                    sink((str(report.value), str(report.via_integral), str(f_value)))
        return 0


def _split(work, size):
    return [work[i:i + size] for i in range(0, len(work), size)]


def run_pass(runner, latencies, sink=None):
    """One pass over the batch; returns (items per second, bytes printed)."""
    start = perf_counter()
    printed = sum(runner.run_segment(s, latencies, sink) for s in runner.segments)
    return runner.items / (perf_counter() - start), printed


def timed_passes(runner, seconds):
    """Passes until ``seconds`` have elapsed, with a calibration chunk
    between segments. Each segment's times are scaled by the mean of the
    chunks on either side of it (see calibrate.py)."""
    latencies, rates, raw_rates, speeds = [], [], [], []
    before = calibrate.chunk()
    deadline = perf_counter() + seconds
    while not rates or perf_counter() < deadline:
        scaled = raw = 0.0
        for segment in runner.segments:
            first = len(latencies)
            start = perf_counter()
            runner.run_segment(segment, latencies)
            elapsed = perf_counter() - start
            after = calibrate.chunk()
            slowdown = (before + after) / (2 * calibrate.REFERENCE_CHUNK_S)
            latencies[first:] = [t / slowdown for t in latencies[first:]]
            scaled += elapsed / slowdown
            raw += elapsed
            speeds.append(1 / slowdown)
            before = after
        rates.append(runner.items / scaled)
        raw_rates.append(runner.items / raw)
    return {
        "latencies": latencies,
        "pass_rates": rates,
        "raw_pass_rates": raw_rates,
        "speed": statistics.median(speeds),
    }


def traced_passes(runner, seconds):
    """A traced pass for the exact counts, then untraced and traced passes
    alternating until ``seconds`` have elapsed, for self times and the
    tracing overhead."""
    deadline = perf_counter() + seconds
    tracer = Tracer(fanoslope)
    with tracer.installed():
        rate, printed = run_pass(runner, [])
    tracer.counts["cli.render.bytes"] = printed
    counts = tracer.layer_counts()
    traced, untraced, self_times = [rate], [], [dict(tracer.self_time)]
    while not untraced or perf_counter() < deadline:
        untraced.append(run_pass(runner, [])[0])
        tracer.reset()
        with tracer.installed():
            traced.append(run_pass(runner, [])[0])
        self_times.append(dict(tracer.self_time))
    return {
        "counts": counts,
        "self_s": {
            layer: statistics.median(times[layer] for times in self_times)
            for layer in self_times[0]
        },
        "traced_rate": statistics.median(traced),
        "untraced_rate": statistics.median(untraced),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("plan")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    plan_path = Path(args.plan)
    plan = json.loads(plan_path.read_text(encoding="utf-8"))
    runner = (SweepRunner if plan["workload"] == "sweep-crosscheck" else ClassifyRunner)(plan)

    reference = []

    def keep(record):
        out.write(json.dumps(record) + "\n")
        reference.append(_fingerprint(*record))

    with open(plan_path.parent / "outputs.jsonl", "w", encoding="utf-8") as out:
        run_pass(runner, [], sink=keep)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"peak_rss_kb": peak_rss_kb, "items_per_pass": runner.items}
    result.update((traced_passes if args.trace else timed_passes)(runner, args.seconds))
    check = []
    run_pass(runner, [], sink=lambda record: check.append(_fingerprint(*record)))
    result["repeat_mismatches"] = [
        i for i, (ref, again) in enumerate(zip(reference, check)) if ref != again
    ]
    (plan_path.parent / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
