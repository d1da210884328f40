"""Shared parts of the isoact benchmark: workloads, the suite driver and the oracle.

The benchmark drives the registered suites the way users do, through
``isoact run --config ... --seed ... --out ...``, called in-process via
the click entry point.  Each workload is a fixed list of suites with one
config file per suite under ``configs/<workload>/``.

Correctness is checked against reference rows recorded by ``record.py``
for suite seeds ``0 .. SUITE_SEEDS - 1``; the benchmark seed selects one
of them.  A row fails when its verdict is not ``pass``, when it is
missing or extra, when it is exact (tolerance ``0``) and any field
differs, or when it is a float row whose verdict differs.  The report's
config digest is not compared.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import os
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
CONFIG_DIR = BENCH_DIR / "configs"
REF_DIR = BENCH_DIR / "refs"
OUT_DIR = BENCH_DIR / "out"

# Why each workload exists is recorded in BENCHMARK.json.  words, operators
# and trees split the 13 suites at their registered defaults by the layer
# that dominates them; small runs all 13 at cheap sizes with many rows.
WORKLOADS = {
    "words": [
        "translation-length",
        "length-recovery",
        "cocycle-law",
        "measure-cocycle",
        "triangle",
    ],
    "operators": ["fock-mult", "sp-tau", "bergman", "cpd-gns", "asymptotic"],
    "trees": ["tree-identities", "h1", "traintrack"],
    "small": [
        "tree-identities",
        "bergman",
        "asymptotic",
        "cocycle-law",
        "translation-length",
        "length-recovery",
        "sp-tau",
        "measure-cocycle",
        "cpd-gns",
        "h1",
        "traintrack",
        "fock-mult",
        "triangle",
    ],
}

# Reference rows exist for these suite seeds only; see suite_seed().
SUITE_SEEDS = 10

# A default-sized OpenBLAS pool made cocycle-law vary between 0.065 s and
# 0.46 s on a 2-core machine; one thread keeps it within 0.07-0.09 s.
# ISOACT_THREADS is left unset so suites take their default of one thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The checkout cannot be benchmarked (missing sources or references)."""


def suite_seed(seed: int) -> int:
    return seed % SUITE_SEEDS


def pin_environment() -> None:
    """Pin native thread pools; must run before numpy is imported."""
    for name in THREAD_VARS:
        os.environ[name] = "1"
    os.environ.pop("ISOACT_THREADS", None)


def check_checkout() -> None:
    if not (SRC_DIR / "isoact" / "cli.py").is_file():
        raise BenchError(f"no isoact sources under {SRC_DIR}; run from the root of a checkout")
    for workload, suites in WORKLOADS.items():
        for suite in suites:
            if not config_path(workload, suite).is_file():
                raise BenchError(f"missing config {config_path(workload, suite)}")


def import_cli():
    """Import ``isoact.cli`` from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC_DIR))
    import isoact
    import isoact.cli

    if Path(isoact.__file__).resolve().parent != SRC_DIR / "isoact":
        raise BenchError(f"imported isoact from {isoact.__file__}, not from {SRC_DIR}")
    return isoact.cli.main


def config_path(workload: str, suite: str) -> Path:
    return CONFIG_DIR / workload / f"{suite}.json"


def report_path(workload: str, suite: str) -> Path:
    return OUT_DIR / workload / f"{suite}.json"


def run_pass(mains: dict, workload: str, seed: int, clock=None):
    """Run every suite of a workload once; return (wall seconds, {suite: seconds}).

    ``mains`` maps each suite to the CLI entry point to call for it, so a
    tracer can wrap each call.  Wall time runs from the first
    ``isoact run`` call to the last report written.  With a running
    ``hostclock.HostClock`` the times are in its reference seconds.
    """
    out = OUT_DIR / workload
    out.mkdir(parents=True, exist_ok=True)
    for suite in WORKLOADS[workload]:
        report_path(workload, suite).unlink(missing_ok=True)
    argvs = [
        [
            "run",
            "--config",
            str(config_path(workload, suite)),
            "--seed",
            str(seed),
            "--out",
            str(report_path(workload, suite)),
        ]
        for suite in WORKLOADS[workload]
    ]
    spans = {}
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        for suite, argv in zip(WORKLOADS[workload], argvs):
            began = time.perf_counter()
            try:
                mains[suite](argv, standalone_mode=False)
            except Exception:
                # The oracle counts the rows this suite failed to write.
                traceback.print_exc(file=sys.stderr)
            spans[suite] = (began, time.perf_counter())
    end = time.perf_counter()
    if clock is None:
        return end - start, {suite: b - a for suite, (a, b) in spans.items()}
    return clock.scaled(start, end), {suite: clock.scaled(*span) for suite, span in spans.items()}


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def row_token(row: dict) -> str:
    """What must match the reference: every field of an exact row, else the verdict."""
    if row["tolerance"] == "0":
        text = json.dumps(row, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:8]
    return row["verdict"]


def ref_path(workload: str) -> Path:
    return REF_DIR / f"{workload}.json.gz"


def load_refs(workload: str, seed: int) -> dict:
    """Reference rows of one workload and suite seed as ``{suite: {id: token}}``."""
    path = ref_path(workload)
    if not path.is_file():
        raise BenchError(f"no reference rows at {path}; run perfbench/record.py")
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        data = json.load(handle)
    out = {}
    for suite in WORKLOADS[workload]:
        entry = data[suite]
        tokens = entry["tokens"][str(seed)]
        out[suite] = dict(zip(entry["ids"], tokens))
    return out


def read_rows(workload: str, suite: str) -> list:
    try:
        with open(report_path(workload, suite), "r", encoding="utf-8") as handle:
            return json.load(handle)["rows"]
    except (OSError, ValueError, KeyError):
        return []


def count_failures(refs: dict, workload: str) -> tuple:
    """Compare the reports just written with the references: (reference rows, failed rows)."""
    attempted = failed = 0
    for suite, expected in refs.items():
        attempted += len(expected)
        seen = set()
        for row in read_rows(workload, suite):
            token = expected.get(row["id"])
            if token is None or row["verdict"] != "pass" or row_token(row) != token:
                failed += 1
            if token is not None:
                seen.add(row["id"])
        failed += len(expected) - len(seen)
    return attempted, failed
