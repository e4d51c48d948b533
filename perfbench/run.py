"""Run one benchmark workload, check its outputs, and print its metrics.

    python3 perfbench/run.py --workload large-cohort --seed 1 --seconds 55 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with no instrumentation; ``--trace 1`` alternates untraced and
traced rounds and reports the per-layer metrics, including the tracing
overhead, and writes the spans as Chrome trace-event JSON.  Metric names
and units come from ``BENCHMARK.json``.  Every line but the last is for
people (host fingerprint, each metric with its unit, sample counts); the
last line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``, where a round is one attempt and ``failed / attempted`` is
the failed-round share.  A full record of the run (per-round samples,
exact counters, checks, fingerprint) goes to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# Set-up is measured in fresh processes, several times, and reported as
# the median: imports and native-kernel loading only happen once per
# process.  The probes run before and after the rounds, so the median
# spans the run rather than one moment of a host whose speed drifts.
SETUP_PROBES_BEFORE, SETUP_PROBES_AFTER = 2, 3


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(name: str, seed: int) -> None:
    """Time import, native-kernel load and construction in this process."""
    t0 = time.perf_counter()
    import workloads
    from repro import native

    native.load()
    workloads.make_workload(name, seed).construct()
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def measure_setup(name: str, seed: int, probes: int) -> list[float]:
    samples = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=150, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def tail_percentile(samples: list[float]):
    """The highest percentile with at least 10 samples beyond it, if any."""
    for p in (99, 95, 90, 75):
        if len(samples) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100)[p - 1]
    return None


def run_workload(name: str, seed: int, seconds: float, trace_path=None, tiny: bool = False) -> dict:
    """Set up, run the closed loop, and summarize; shared with the self-test.

    With a ``trace_path`` the run is traced and its spans are written there.
    """
    import spans
    import workloads

    workload = workloads.make_workload(name, seed, tiny=tiny)
    recorder = spans.Recorder(name) if trace_path is not None else None
    if recorder is not None:
        recorder.install()
    try:
        workload.construct()
    finally:
        if recorder is not None:
            recorder.uninstall()
    workload.prepare()
    loop = workloads.ClosedLoop(seconds, recorder)
    workload.run(loop)
    summary = summarize(workload, loop.records, recorder)
    if recorder is not None:
        summary["trace_events"] = recorder.write_chrome_trace(trace_path)
    return summary


def summarize(workload, records, recorder) -> dict:
    import spans
    import workloads

    rows = []
    for r in records:
        view = workloads.engine_round_view(workload.engine.trace, r)
        survivors = max(r.survivors, 1)
        rows.append({
            "index": r.index, "warmup": r.warmup, "traced": r.traced,
            "wall_s": r.wall_s, "ok": r.ok, "error": r.error,
            "survivors": r.survivors, "sampled": r.sampled, "chunks": r.chunks,
            "modeled_s": view["modeled_s"],
            "up_bytes": view["up_bytes"], "down_bytes": view["down_bytes"],
            "up_bytes_per_client": view["up_bytes"] / survivors,
            "down_bytes_per_client": view["down_bytes"] / max(r.sampled, 1),
            "up_bytes_per_elem": view["masked_up_bytes"] / (survivors * max(r.dimension, 1)),
            "idle_share": view["idle_share"],
            "stage_bytes": view["stage_bytes"],
        })

    def med(key, chosen):
        values = [row[key] for row in chosen]
        return statistics.median(values) if values else math.nan

    measured = [row for row in rows if row["ok"] and not row["warmup"] and not row["traced"]]
    walls = [row["wall_s"] for row in measured]
    e2e = {
        "round_s": med("wall_s", measured),
        "up_bytes_per_client": med("up_bytes_per_client", measured),
        "down_bytes_per_client": med("down_bytes_per_client", measured),
    }
    checks = {}
    layers = {}
    if recorder is not None:
        traced = [row for row in rows if row["ok"] and row["traced"]]
        per_round = []
        for row in traced:
            m = recorder.round_metrics(row["index"])
            checks[f"round {row['index']} wire bytes equal engine-trace bytes"] = (
                m["wire.up_bytes"] == row["up_bytes"]
                and m["wire.down_bytes"] == row["down_bytes"]
            )
            m["pipeline.chunks"] = row["chunks"]
            m["pipeline.modeled_round_s"] = row["modeled_s"]
            m["pipeline.idle_share"] = row["idle_share"]
            m["wire.up_bytes_per_elem"] = row["up_bytes_per_elem"]
            per_round.append(m)
            row["counters"] = {k: m[k] for k in spans.EXACT_COUNTERS}
        layers = spans.median_metrics(per_round)
        layers["fleet.build_s"] = recorder.setup_seconds("fleet.build")
        layers["trace.overhead"] = (
            med("wall_s", traced) / statistics.median(walls) - 1 if walls else math.nan
        )
    if isinstance(workload, workloads.XNoiseRounds):
        # Every measured round repeats one shape, seed and dropout, so its
        # exact counters must repeat exactly.
        repeat = [row for row in rows if row["ok"] and not row["warmup"]]
        checks["stage bytes repeat across rounds"] = all(
            row["stage_bytes"] == repeat[0]["stage_bytes"] for row in repeat
        )
        counted = [row["counters"] for row in repeat if "counters" in row]
        checks["exact counters repeat across traced rounds"] = all(
            c == counted[0] for c in counted
        )
    failed = sum(not r.ok for r in records)
    return {
        "rows": rows, "e2e": e2e, "layers": layers, "checks": checks,
        "attempted": len(records), "failed": failed, "samples": len(walls),
        "tail": tail_percentile(walls),
    }


def emit(trace: bool, spec: dict, summary: dict, setup: list[float]) -> dict:
    metrics = {}
    if trace:
        catalog, values = spec["per_layer"], summary["layers"]
    else:
        catalog = spec["end_to_end"]
        values = dict(summary["e2e"])
        values["setup_s"] = statistics.median(setup)
        values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for entry in catalog:
        value = values.get(entry["name"], math.nan)
        # A metric with no successful round to measure it is reported as
        # null, never as a made-up number; such a run is not correct.
        metrics[entry["name"]] = {
            "value": value if math.isfinite(value) else None, "unit": entry["unit"],
        }
    return metrics


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import host
    import workloads
    from repro import native

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    native.load()  # builds the kernel on the first run in a checkout
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_path = OUT / f"{stem}.chrome-trace.json" if args.trace else None
    setup = []
    if not args.trace:
        setup += measure_setup(args.workload, args.seed, SETUP_PROBES_BEFORE)
    summary = run_workload(args.workload, args.seed, args.seconds, trace_path)
    if not args.trace:
        setup += measure_setup(args.workload, args.seed, SETUP_PROBES_AFTER)
    fp = host.fingerprint(SRC)
    metrics = emit(bool(args.trace), spec, summary, setup)
    correct = (
        summary["failed"] == 0
        and all(summary["checks"].values())
        and all(m["value"] is not None for m in metrics.values())
    )
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": fp, "metrics": metrics, "correct": correct,
        "attempted": summary["attempted"], "failed": summary["failed"],
        "failed_round_share": summary["failed"] / summary["attempted"],
        "round_s_samples": summary["samples"], "round_s_tail": summary["tail"],
        "setup_samples": setup, "checks": summary["checks"], "rounds": summary["rows"],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))

    print("host " + json.dumps(fp))
    for name, m in metrics.items():
        print(f"{name} {m['value'] if m['value'] is None else format(m['value'], '.6g')} "
              f"{m['unit']}")
    print(f"round_s samples {summary['samples']}; tail percentile "
          + (f"p{summary['tail'][0]} {summary['tail'][1]:.6g} s" if summary["tail"]
             else "not reported (fewer than 10 samples beyond any percentile)"))
    print(f"failed_round_share {record['failed_round_share']:.6g} "
          f"({summary['failed']} of {summary['attempted']} rounds)")
    for row in summary["rows"]:
        if row["error"]:
            print(f"round {row['index']} failed: {row['error']}")
    for check, passed in summary["checks"].items():
        if not passed:
            print(f"check failed: {check}")
    print(f"record {OUT / (stem + '.json')}")
    if trace_path is not None:
        print(f"trace {trace_path} ({summary['trace_events']} events; open in Perfetto)")
    print(json.dumps({
        "correct": correct, "attempted": summary["attempted"],
        "failed": summary["failed"], "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Exception:
        traceback.print_exc()
        sys.exit(1)
