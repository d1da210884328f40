"""Self-test of the benchmark itself; run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that words, operators and trees together cover each registered
suite exactly once (and small covers all of them), that a run emits
exactly the metrics BENCHMARK.json names, and that on a traced pass of
the small workload the layers' self times add up to the traced wall time
while every report row still matches its reference.  Exits 1 on failure.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter

import harness
import hostclock
import run


def main() -> int:
    harness.pin_environment()
    harness.check_checkout()
    cli_main = harness.import_cli()
    from isoact.suites import suite_names

    with open(harness.ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = []

    registered = sorted(suite_names())
    split = Counter(s for w in ("words", "operators", "trees") for s in harness.WORKLOADS[w])
    if sorted(split) != registered or set(split.values()) != {1}:
        problems.append(f"words+operators+trees cover {dict(split)}, not {registered} once each")
    if sorted(harness.WORKLOADS["small"]) != registered:
        problems.append("small does not run every registered suite once")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(harness.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from harness.WORKLOADS")

    seed = 0
    refs = harness.load_refs("small", seed)
    with hostclock.HostClock() as clock:
        metrics, attempted, failed = run.measure(cli_main, "small", seed, 0, refs, 0.5, clock)
    if sorted(metrics) != sorted(m["name"] for m in spec["end_to_end"]):
        problems.append(f"end-to-end metrics {sorted(metrics)} differ from BENCHMARK.json")
    if failed:
        problems.append(f"untraced pass: {failed} of {attempted} rows failed")

    tracer, wall = run.traced_pass(cli_main, "small", seed)
    attempted, failed = harness.count_failures(refs, "small")
    if failed:
        problems.append(f"traced pass: {failed} of {attempted} rows failed")
    layers = run.layer_metrics(tracer, wall, wall)
    if sorted(layers) != sorted(m["name"] for m in spec["per_layer"]):
        missing = {m["name"] for m in spec["per_layer"]} ^ set(layers)
        problems.append(f"per-layer metrics differ from BENCHMARK.json: {sorted(missing)}")
    self_total = sum(tracer.self_s.values())
    if not math.isclose(self_total, wall, rel_tol=1e-3):
        problems.append(f"layer self times sum to {self_total:.6f} s, traced wall_s is {wall:.6f} s")
    print(f"traced wall_s {wall:.4f} s, layer self time sum {self_total:.4f} s")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
