"""Benchmark of the csemigroups library: enumerate, member and translate.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src``.
The run makes its seeded inputs once, then repeats passes of its workload,
each after the library's set-up, until ``--seconds`` would be exceeded;
every timing is scaled by a speed gauge (``gauge.py``).  With ``--trace 0``
it prints the end-to-end metrics.  With ``--trace 1`` it runs one pass
untraced, then sets up and runs the same pass again with spans around
every public function of the library, and prints the per-layer metrics;
the spans are written to ``perfbench-out/``.  A workload's once-per-run op
(the undecided input of ``translate``) comes before the passes in both
modes.  The last line of
standard output is a JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when any answer was wrong
or crashed, 2 when the library is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / "perfbench-out"

# end-to-end metrics and their units, as BENCHMARK.json lists them
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# set-up runs before every pass, and at least this often; its median is
# reported, so that a single slow repetition does not move the figure
SETUP_REPEATS = 9


def tail(samples):
    """The highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, samples beyond it).  With 10 samples or
    fewer no percentile qualifies, and the maximum is returned with 0
    samples beyond it.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    k = n - 11
    return xs[k], 100.0 * (k + 1) / n, n - k - 1


def run_once(workload, outcome, tracer=None):
    """Run the workload's once-per-run op, if it has one; its seconds."""
    once = getattr(workload, "run_once", None)
    return once(outcome, tracer) if once else 0.0


def timing_metrics(times, gauge):
    """Timing metrics from every item's median scaled time over the passes.

    ``times`` maps an item to (operations in it, [(seconds, gauge mark)]
    over the passes); each timing is scaled by the gauge's factor at its
    mark, and each operation of an item gets the item's scaled time over
    its operation count as its latency.  Returns {name: (value, note)}.
    """
    scaled = [
        (ops, statistics.median(s * gauge.factor(mark) for s, mark in timings))
        for ops, timings in times.values()
    ]
    wall = sum(seconds for _, seconds in scaled)
    samples = [1000 * seconds / ops for ops, seconds in scaled for _ in range(ops)]
    n = len(samples)
    value, pct, beyond = tail(samples)
    return {
        "wall_s": (wall, ""),
        "ops_per_s": (n / wall, f"{n} ops per pass"),
        "op_p50_ms": (statistics.median(samples), f"n={n} per pass"),
        "op_tail_ms": (value, f"p{pct:.2f}, n={n} per pass, {beyond} beyond"),
    }


def timed_run(workload, seconds):
    """Run passes until the deadline, each after a timed set-up; end-to-end metrics.

    Every pass runs the same operations.  Each timing, set-ups included, is
    scaled by the speed gauge's factor beside it (see ``gauge.py``), and
    every operation is given its median scaled time over the passes.
    """
    from gauge import REF_NOMINAL_S, Gauge
    from workloads import Outcome

    gauge = Gauge()
    setups = []

    def setup():
        gauge.sample()
        mark = gauge.mark
        start = time.perf_counter()
        workload.setup()
        seconds = time.perf_counter() - start
        gauge.sample()
        setups.append(seconds * gauge.factor(mark))

    outcome = Outcome(gauge=gauge)
    once_s = run_once(workload, outcome)
    passes = []
    start = time.perf_counter()
    # stop before a pass that would end past the deadline; at least one pass
    while True:
        setup()
        passes.append(workload.run_pass(len(passes), outcome))
        if time.perf_counter() - start + statistics.median(passes) > seconds:
            break
    while len(setups) < SETUP_REPEATS:
        setup()
    factors = [REF_NOMINAL_S / s for s in gauge.samples]
    if once_s:
        print(f"# once-per-run op: {once_s:.3f} s, in no timing metric")
    print(f"# pass time: median {statistics.median(passes):.4g} s unscaled over {len(passes)} passes")
    print(
        f"# speed factor: median {statistics.median(factors):.4g}, from {min(factors):.4g}"
        f" to {max(factors):.4g} over {len(factors)} reference samples"
    )
    unscaled = sum(statistics.median(s for s, _ in timings) for _, timings in outcome.times.values())
    print(f"# wall time unscaled: {unscaled:.4g} s")
    measured = {
        "setup_s": (statistics.median(setups), f"median of {len(setups)} scaled set-ups"),
        "peak_rss_mb": (peak_rss_mb(), "whole process"),
    }
    for name, (value, note) in timing_metrics(outcome.times, gauge).items():
        note = f"median of {len(passes)} scaled passes per op; {note}"
        measured[name] = (value, note.rstrip("; "))
    metrics = {name: (measured[name][0], unit, measured[name][1]) for name, unit in END_TO_END}
    return outcome, metrics


def traced_run(workload, workload_name, seed):
    """One set-up and pass untraced, then the same set-up and pass traced.

    A workload's once-per-run op is part of both, but not of the pass
    times, which are scaled by the speed gauge as in ``timed_run``.
    """
    import tracing
    from gauge import Gauge
    from workloads import Outcome

    gauge = Gauge()

    def run(workload, outcome, tracer=None):
        run_once(workload, outcome, tracer)
        workload.run_pass(0, outcome, tracer)
        timings = [timing for _, pass_timings in outcome.times.values() for timing in pass_timings]
        return sum(seconds * gauge.factor(mark) for seconds, mark in timings)

    workload.setup()
    untraced = run(workload, Outcome(gauge=gauge))

    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    outcome = Outcome(gauge=gauge)
    try:
        start = time.perf_counter()
        workload.setup()
        traced = run(workload, outcome, tracer)
        traced_s = time.perf_counter() - start
    finally:
        uninstall()
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload_name}-{seed}.jsonl"
    tracer.write(spans_path)

    units = tracing.metric_units()
    values = tracer.metrics()
    values.update(
        {
            "trace.overhead_s": traced - untraced,
            "trace.traced_s": traced_s,
            "trace.self_s_total": tracer.self_s_total(),
            "trace.spans": tracer.span_count,
        }
    )
    if values["trace.self_s_total"] > traced_s:
        raise RuntimeError("self times exceed the traced wall time")
    metrics = {name: (values[name], units[name], "") for name in units}
    print(f"# spans: {tracer.span_count} recorded, {len(tracer.spans)} kept in {spans_path}")
    print(f"# scaled pass time: untraced {untraced:.3f} s, traced {traced:.3f} s")
    return outcome, metrics


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("enumerate", "member", "translate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "csemigroups" / "__init__.py").is_file():
        print(f"no library at {ROOT / 'src' / 'csemigroups'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    # the undecided translate input must meet the library's default budget
    os.environ.pop("SEMIGROUP_BUDGET", None)
    golden = json.loads((HERE / "golden.json").read_text())
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)

    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, golden)
        workload.prepare()
        if args.trace:
            outcome, metrics = traced_run(workload, args.workload, args.seed)
        else:
            outcome, metrics = timed_run(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = outcome.ops
    attempted = outcome.attempted
    # failed_frac counts inconclusive answers as failures; the "failed" field
    # of the result counts only wrong answers and crashes
    failed = ops["wrong"] + ops["crashed"]
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for status in ops:
        print(f"# {status}: {ops[status]} of {attempted} ops")
    print(f"failed_frac {(failed + ops['inconclusive']) / attempted:.6f} (n={attempted})")
    print(f"inconclusive_frac {ops['inconclusive'] / attempted:.6f} (n={attempted})")
    for note in outcome.notes:
        print(f"# {note}")
    for name, (value, unit, detail) in metrics.items():
        print(f"{name} {value} {unit} {detail}".rstrip())
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
