"""Suite configuration, check rows, and byte-stable report emission.

A report is a flat list of check rows, each reduced to the same shape:
something was computed, its deviation from the required value is the
residual, and the row passes when the residual does not exceed the row's
tolerance.  Exact checks carry tolerance 0 and a residual printed from
rational arithmetic, so "0" really means zero.

Emission is deterministic byte for byte: numbers are formatted once
(shortest round-trip for floats, ``p/q`` for rationals), rows are sorted
by id, JSON keys are sorted, and no timestamps or environment details
are recorded.  Two runs with the same resolved configuration produce
identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .errors import ConfigError

PASS = "pass"
FAIL = "fail"
UNRESOLVED = "unresolved"

# cap on every trial count, so no run asks for unbounded work
MAX_TRIALS = 10000


def format_number(x) -> str:
    """Stable text form: rationals exactly, floats shortest round-trip."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, bool):
        raise ConfigError("booleans are not report values")
    if isinstance(x, int):
        return str(x)
    if isinstance(x, complex):
        return repr(x)
    return repr(float(x))


def format_value(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (tuple, list)):
        return "; ".join(format_value(v) for v in x)
    return format_number(x)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest_of(obj) -> str:
    """First 16 hex digits of the sha256 of the canonical JSON form."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class CheckRow:
    """One verified fact, fully formatted for emission."""

    id: str
    inputs: str
    value: str
    residual: str
    tolerance: str
    verdict: str


def check_row(row_id: str, inputs, value, residual, tolerance) -> CheckRow:
    """Build a row and decide its verdict from ``residual <= tolerance``.

    ``inputs`` is any JSON-serialisable description of what was sampled;
    only its digest is stored.  Residual and tolerance may be exact
    (int or Fraction) or floats; mixed comparisons go through float.
    """
    exact = isinstance(residual, (int, Fraction)) and isinstance(tolerance, (int, Fraction))
    ok = residual <= tolerance if exact else float(residual) <= float(tolerance)
    return CheckRow(
        id=row_id,
        inputs=digest_of(inputs),
        value=format_value(value),
        residual=format_number(residual),
        tolerance=format_number(tolerance),
        verdict=PASS if ok else FAIL,
    )


def unresolved_row(row_id: str, inputs, note: str) -> CheckRow:
    """Row for a check that could not be carried out (guards exhausted)."""
    return CheckRow(
        id=row_id,
        inputs=digest_of(inputs),
        value=note,
        residual="",
        tolerance="",
        verdict=UNRESOLVED,
    )


@dataclass(frozen=True)
class SuiteConfig:
    """What to run: suite name, seeding, tolerance, and suite parameters.

    ``trials`` and ``tolerance`` may be left unset, in which case the
    suite's registered defaults apply; set trials lie in ``1..MAX_TRIALS``
    and a set tolerance is a positive finite number.  ``params`` carries
    the suite's own keys; when the suite runs they are checked against its
    declared table (type and range), unknown keys are rejected, and missing
    ones take their declared defaults.
    """

    suite: str
    seed: int = 0
    trials: Optional[int] = None
    tolerance: Optional[float] = None
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self):
        if not isinstance(self.suite, str):
            raise ConfigError(f"suite must be a suite name, got {self.suite!r}")
        # bool subclasses int, and JSON true is no seed or trial count
        if (
            isinstance(self.seed, bool)
            or not isinstance(self.seed, int)
            or not 0 <= self.seed < 2**64
        ):
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if self.trials is not None and (
            isinstance(self.trials, bool)
            or not isinstance(self.trials, int)
            or not 1 <= self.trials <= MAX_TRIALS
        ):
            raise ConfigError(f"trials must be an integer in 1..{MAX_TRIALS}, got {self.trials!r}")
        if self.tolerance is not None and not (
            isinstance(self.tolerance, (int, float))
            and not isinstance(self.tolerance, bool)
            and 0 < self.tolerance <= sys.float_info.max
        ):
            raise ConfigError(f"tolerance must be a positive finite number, got {self.tolerance!r}")

    @staticmethod
    def make(
        suite: str,
        seed: int = 0,
        trials: Optional[int] = None,
        tolerance: Optional[float] = None,
        params: Optional[Mapping[str, object]] = None,
    ) -> "SuiteConfig":
        if params is not None and not isinstance(params, Mapping):
            raise ConfigError(f"params must be an object of suite parameters, got {params!r}")
        items = tuple(sorted((params or {}).items()))
        return SuiteConfig(suite, seed, trials, tolerance, items)


@dataclass(frozen=True)
class Report:
    suite: str
    digest: str
    rows: Tuple[CheckRow, ...]

    def summary(self) -> Dict[str, int]:
        counts = {PASS: 0, FAIL: 0, UNRESOLVED: 0}
        for row in self.rows:
            counts[row.verdict] += 1
        return counts

    def exit_status(self) -> int:
        return 0 if self.summary()[FAIL] == 0 else 1


def make_report(suite: str, config_digest: str, rows: Sequence[CheckRow]) -> Report:
    ordered = tuple(sorted(rows, key=lambda r: r.id))
    ids = [r.id for r in ordered]
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate row ids in report")
    return Report(suite=suite, digest=config_digest, rows=ordered)


def report_to_dict(report: Report) -> dict:
    return {
        "suite": report.suite,
        "digest": report.digest,
        "rows": [vars(row).copy() for row in report.rows],
        "summary": report.summary(),
    }


def render_report(report: Report, fmt: str = "json") -> str:
    """Serialise a report; identical reports render to identical bytes."""
    if fmt == "json":
        return json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["id", "inputs", "value", "residual", "tolerance", "verdict"])
        for row in report.rows:
            writer.writerow([row.id, row.inputs, row.value, row.residual, row.tolerance, row.verdict])
        return buf.getvalue()
    raise ConfigError(f"unknown report format {fmt!r}")


def emit_report(report: Report, fmt: str, path: str) -> None:
    text = render_report(report, fmt)
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write report to {path}: {exc}") from exc
