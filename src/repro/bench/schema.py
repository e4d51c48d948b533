"""Benchmark report schema, persistence, and diffing.

Every ``repro.cli bench`` topic produces one *report*: a small
machine-readable JSON document written to ``BENCH_<topic>.json``.  The
schema is deliberately flat so two runs diff metric-by-metric::

    {
      "schema_version": 1,
      "topic": "hotpath",
      "created_unix": 1723100000,
      "config": {"dims": [16384, ...], "repeats": 3, ...},
      "metrics": {
        "prg_expand_d1048576_fast_s": {"value": 0.153, "unit": "s"},
        ...
      }
    }

Units are plain strings: ``s`` (seconds), ``bytes``, ``x`` (speedup
ratio), ``count``, ``flag`` (0/1), ``per_s`` (events per second).  :func:`validate_report` is the
contract the tier-1 smoke test enforces; :func:`diff_bench` compares two
persisted reports per metric.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any

SCHEMA_VERSION = 1

#: Units a metric may carry; anything else fails validation.
KNOWN_UNITS = frozenset({"s", "us", "bytes", "x", "count", "flag", "per_s"})


def metric(value: float, unit: str) -> dict[str, Any]:
    """One metric entry: a number and its unit."""
    if unit not in KNOWN_UNITS:
        raise ValueError(f"unknown metric unit {unit!r}")
    return {"value": float(value), "unit": unit}


def make_report(
    topic: str, config: dict[str, Any], metrics: dict[str, dict[str, Any]]
) -> dict[str, Any]:
    """Assemble a schema-valid report for one bench topic."""
    report = {
        "schema_version": SCHEMA_VERSION,
        "topic": topic,
        "created_unix": int(time.time()),
        "config": config,
        "metrics": metrics,
    }
    validate_report(report)
    return report


def validate_report(report: Any) -> None:
    """Raise ``ValueError`` unless ``report`` matches the bench schema."""
    if not isinstance(report, dict):
        raise ValueError("report must be a JSON object")
    for key in ("schema_version", "topic", "created_unix", "config", "metrics"):
        if key not in report:
            raise ValueError(f"report missing required key {key!r}")
    if report["schema_version"] != SCHEMA_VERSION:
        raise ValueError(
            f"schema_version {report['schema_version']!r} != {SCHEMA_VERSION}"
        )
    if not isinstance(report["topic"], str) or not report["topic"]:
        raise ValueError("topic must be a non-empty string")
    if not isinstance(report["created_unix"], (int, float)):
        raise ValueError("created_unix must be a number")
    if not isinstance(report["config"], dict):
        raise ValueError("config must be an object")
    metrics = report["metrics"]
    if not isinstance(metrics, dict) or not metrics:
        raise ValueError("metrics must be a non-empty object")
    for name, entry in metrics.items():
        if not isinstance(entry, dict):
            raise ValueError(f"metric {name!r} must be an object")
        if not isinstance(entry.get("value"), (int, float)):
            raise ValueError(f"metric {name!r} has a non-numeric value")
        if entry.get("unit") not in KNOWN_UNITS:
            raise ValueError(
                f"metric {name!r} has unknown unit {entry.get('unit')!r}"
            )


def bench_path(out_dir: str | Path, topic: str) -> Path:
    """Where a topic's report lives: ``<out_dir>/BENCH_<topic>.json``."""
    return Path(out_dir) / f"BENCH_{topic}.json"


def write_bench(report: dict[str, Any], out_dir: str | Path = ".") -> Path:
    """Persist one report; returns the path written.

    Creates ``out_dir`` if needed (CI points ``--out`` at a fresh
    directory).
    """
    validate_report(report)
    path = bench_path(out_dir, report["topic"])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def load_bench(path: str | Path) -> dict[str, Any]:
    """Load and validate one persisted report."""
    report = json.loads(Path(path).read_text())
    validate_report(report)
    return report


def diff_bench(
    path_a: str | Path, path_b: str | Path
) -> list[dict[str, Any]]:
    """Per-metric comparison of two persisted reports (A = old, B = new).

    Each row carries the metric name, both values, the absolute delta
    ``b − a``, and the ratio ``b / a`` (``None`` when A is 0 or the
    metric exists on only one side).
    """
    a, b = load_bench(path_a), load_bench(path_b)
    rows: list[dict[str, Any]] = []
    for name in sorted(set(a["metrics"]) | set(b["metrics"])):
        ma, mb = a["metrics"].get(name), b["metrics"].get(name)
        va = ma["value"] if ma else None
        vb = mb["value"] if mb else None
        delta = vb - va if ma and mb else None
        ratio = vb / va if ma and mb and va else None
        rows.append(
            {
                "metric": name,
                "unit": (ma or mb)["unit"],
                "a": va,
                "b": vb,
                "delta": delta,
                "ratio": ratio,
            }
        )
    return rows


def format_diff(rows: list[dict[str, Any]]) -> str:
    """Render :func:`diff_bench` rows as an aligned text table."""
    def fmt(v: Any) -> str:
        if v is None:
            return "-"
        if isinstance(v, float):
            return f"{v:.6g}"
        return str(v)

    width = max([len(r["metric"]) for r in rows] + [len("metric")])
    lines = [
        f"{'metric':{width}s} {'a':>12s} {'b':>12s} {'delta':>12s} {'b/a':>8s}"
    ]
    for r in rows:
        lines.append(
            f"{r['metric']:{width}s} {fmt(r['a']):>12s} {fmt(r['b']):>12s} "
            f"{fmt(r['delta']):>12s} {fmt(r['ratio']):>8s}"
        )
    return "\n".join(lines)
