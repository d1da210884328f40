"""Record the reference rows the benchmark checks its reports against.

Run from the root of a checkout, on code whose reports are known good:

    python3 perfbench/record.py

For each workload and each suite seed ``0 .. SUITE_SEEDS - 1`` it runs the
workload's suites once and stores, per row id, the token that
``harness.row_token`` derives from the row.  It refuses to record a row
that does not pass, and prints for each suite the largest share of its
tolerance that any float row used, so margins can be read off.
"""

from __future__ import annotations

import argparse
import gzip
import json
import sys
from fractions import Fraction

import harness


def headroom(row: dict) -> float:
    """Residual as a share of tolerance, for float rows with a positive tolerance."""
    try:
        tolerance = float(row["tolerance"])
        residual = float(Fraction(row["residual"]))
    except ValueError:
        return 0.0
    return residual / tolerance if tolerance > 0 else 0.0


def record(cli_main, workload: str) -> None:
    mains = dict.fromkeys(harness.WORKLOADS[workload], cli_main)
    data = {suite: {"ids": None, "tokens": {}} for suite in harness.WORKLOADS[workload]}
    worst = dict.fromkeys(data, 0.0)
    for seed in range(harness.SUITE_SEEDS):
        harness.run_pass(mains, workload, seed)
        for suite, entry in data.items():
            rows = harness.read_rows(workload, suite)
            bad = [row["id"] for row in rows if row["verdict"] != "pass"]
            if not rows or bad:
                raise SystemExit(f"{workload}/{suite} seed {seed}: rows not passing: {bad[:5]}")
            ids = [row["id"] for row in rows]
            if entry["ids"] is None:
                entry["ids"] = ids
            elif entry["ids"] != ids:
                raise SystemExit(f"{workload}/{suite}: row ids depend on the seed")
            entry["tokens"][str(seed)] = [harness.row_token(row) for row in rows]
            worst[suite] = max([worst[suite]] + [headroom(row) for row in rows])
    harness.REF_DIR.mkdir(exist_ok=True)
    # mtime=0 keeps the file byte-identical when the rows are.
    with open(harness.ref_path(workload), "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as handle:
            handle.write(json.dumps(data, sort_keys=True).encode("utf-8"))
    for suite in data:
        count = len(data[suite]["ids"])
        print(f"{workload} {suite}: {count} rows, worst residual/tolerance {worst[suite]:.3g}")


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    harness.pin_environment()
    harness.check_checkout()
    cli_main = harness.import_cli()
    for workload in harness.WORKLOADS:
        record(cli_main, workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
