"""Benchmark for isoact: time the registered suites as users run them.

Run from the root of a checkout:

    python3 perfbench/run.py --workload words --seed 3 --seconds 28 --trace 0

One run is one fresh interpreter.  It builds the program (byte-compiles
``src/isoact``), times the set-up of several fresh processes, then runs
whole passes over the workload's suites for as long as the next pass is
expected to end within ``--seconds`` of the run's start, build and set-up
included (at least one pass), and checks every report row of every pass
against the recorded references.

With ``--trace 0`` it prints the end-to-end metrics (medians over the
passes), in the reference seconds of ``hostclock``, which factor out the
swings of a shared host's speed; with ``--trace 1`` it makes one untraced and one traced pass and
prints the per-layer metrics of the traced one.  Each metric is printed on
its own line with its unit; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import resource
import statistics
import subprocess
import sys
import time

import harness
import hostclock
import tracer as tracing
from harness import BenchError

SETUP_SAMPLES = 7
SETUP_PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import isoact.cli\n"
    "print(time.perf_counter() - start)\n"
)

LAYER_SELF = [
    "groups",
    "rtree",
    "fock",
    "cocycles",
    "mobius",
    "harmonic",
    "treeball",
    "traintrack",
    "report",
    "cli",
    "suites",
]
ALL_SUITES = harness.WORKLOADS["small"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds() -> list:
    """Fresh-process time from before ``import isoact.cli`` to the first suite call."""
    clock = hostclock.HostClock()
    samples = []
    for _ in range(SETUP_SAMPLES):
        clock.burst()
        began = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(harness.SRC_DIR)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        ended = time.perf_counter()
        clock.burst()
        samples.append(clock.scaled(began, ended, busy=float(done.stdout)))
    return samples


def measure(cli_main, workload, seed, deadline, refs, setup_s, clock):
    """Untraced passes until ``deadline``; returns end-to-end metrics and (attempted, failed)."""
    mains = dict.fromkeys(harness.WORKLOADS[workload], cli_main)
    walls, slowest, raw = [], [], []
    attempted = failed = 0
    while True:
        began = time.perf_counter()
        wall, times = harness.run_pass(mains, workload, seed, clock)
        raw.append(time.perf_counter() - began)
        walls.append(wall)
        slowest.append(max(times.values()))
        a, f = harness.count_failures(refs, workload)
        attempted, failed = attempted + a, failed + f
        if time.perf_counter() + statistics.median(raw) > deadline:
            break
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (setup_s, "s"),
        "max_suite_s": (statistics.median(slowest), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(
        f"passes {len(walls)}: wall_s {' '.join(f'{w:.3f}' for w in walls)}"
        f" max_suite_s {' '.join(f'{w:.3f}' for w in slowest)}"
        f" unscaled wall {' '.join(f'{w:.3f}' for w in raw)}",
        file=sys.stderr,
    )
    return metrics, attempted, failed


def traced_pass(cli_main, workload, seed):
    """One traced pass; returns (tracer, wall seconds)."""
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        mains = {
            suite: tracer.wrap("cli", f"run {suite}", cli_main)
            for suite in harness.WORKLOADS[workload]
        }
        wall, _ = harness.run_pass(mains, workload, seed)
    finally:
        restore()
    return tracer, wall


def layer_metrics(tracer, traced_wall, plain_wall):
    """The per-layer metrics of BENCHMARK.json from one traced pass."""
    m = {}
    for layer in LAYER_SELF:
        m[f"{layer}.self_s"] = (tracer.self_s.get(layer, 0.0), "s")
    m["groups.word_mul_calls"] = (tracer.calls("groups", "FreeWord.__mul__"), "count")
    m["groups.word_mul_s"] = (tracer.inclusive_s("groups", "FreeWord.__mul__"), "s")
    m["rtree.calls"] = (tracer.calls("rtree"), "count")
    m["fock.exp_matrix_calls"] = (tracer.calls("fock", "exp_matrix"), "count")
    m["fock.exp_matrix_s"] = (tracer.inclusive_s("fock", "exp_matrix"), "s")
    m["cocycles.tau_attempts"] = (tracer.calls("cocycles", "tau_cocycle_residual"), "count")
    m["cocycles.tau_rejects"] = (tracer.raised("cocycles", "tau_cocycle_residual"), "count")
    m["mobius.calls"] = (tracer.calls("mobius"), "count")
    m["harmonic.decompose_calls"] = (tracer.calls("harmonic", "harmonic_decompose"), "count")
    m["harmonic.decompose_s"] = (tracer.inclusive_s("harmonic", "harmonic_decompose"), "s")
    m["harmonic.flow_norms_s"] = (tracer.inclusive_s("harmonic", "subtree_flow_norms"), "s")
    m["traintrack.metric_s"] = (
        tracer.inclusive_s("traintrack", "TrackMetric")
        + tracer.inclusive_s("traintrack", "TrackMetric.distance"),
        "s",
    )
    m["traintrack.grid_s"] = (tracer.inclusive_s("traintrack", "grid_metric"), "s")
    m["report.rows"] = (
        tracer.calls("report", "check_row") + tracer.calls("report", "unresolved_row"),
        "count",
    )
    for suite in ALL_SUITES:
        m[f"suites.{suite}_s"] = (tracer.inclusive_s("cli", f"run {suite}"), "s")
    m["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    return m


def main(argv=None) -> int:
    start = time.perf_counter()
    args = parse_args(argv)
    harness.pin_environment()
    try:
        harness.check_checkout()
        compileall.compile_dir(str(harness.SRC_DIR / "isoact"), quiet=1)
        seed = harness.suite_seed(args.seed)
        refs = harness.load_refs(args.workload, seed)
        cli_main = harness.import_cli()
    except (BenchError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        mains = dict.fromkeys(harness.WORKLOADS[args.workload], cli_main)
        plain_wall, _ = harness.run_pass(mains, args.workload, seed)
        attempted, failed = harness.count_failures(refs, args.workload)
        tracer, traced_wall = traced_pass(cli_main, args.workload, seed)
        a, f = harness.count_failures(refs, args.workload)
        attempted, failed = attempted + a, failed + f
        metrics = layer_metrics(tracer, traced_wall, plain_wall)
        self_total = sum(tracer.self_s.values())
        print(f"traced wall_s {traced_wall:.4f} s, layer self time sum {self_total:.4f} s")
    else:
        try:
            setup_s = statistics.median(setup_seconds())
        except (subprocess.SubprocessError, ValueError) as exc:
            print(f"perfbench: set-up probe failed: {exc}", file=sys.stderr)
            return 2
        with hostclock.HostClock() as clock:
            metrics, attempted, failed = measure(
                cli_main, args.workload, seed, start + args.seconds, refs, setup_s, clock
            )

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value} {unit}")
    print(f"{args.workload} failed_frac {failed / attempted} rows/rows ({failed} of {attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
