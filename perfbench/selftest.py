"""Smoke self-test of the benchmark at tiny shapes.

    python3 perfbench/selftest.py

For every workload, at small shapes: each round passes its correctness
gate, untraced and traced; a deliberately corrupted expected outcome
trips the gate; a second traced run with the same seed repeats every
exact counter and every per-stage byte count; and the Chrome trace loads
with the cross-layer key on each span.  Last, the entry point must exit
non-zero without a result line in a directory that holds only the
benchmark.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok    " if condition else "FAIL  ") + what)
    if not condition:
        FAILURES.append(what)


def tiny_loop(name: str, seed: int, corrupt=None):
    """Run a tiny closed loop, optionally corrupting the expected outcome."""
    import workloads

    workload = workloads.make_workload(name, seed, tiny=True)
    workload.construct()
    workload.prepare()
    if corrupt is not None:
        corrupt(workload)
    loop = workloads.ClosedLoop(0.0)
    workload.run(loop)
    return loop.records


def corrupt_expected(workload) -> None:
    import workloads

    if isinstance(workload, workloads.XNoiseRounds):
        expected = workload.case.expected.copy()
        expected[0] ^= 1
        workload.case.expected = expected
    else:
        workload.target_variance *= 2  # the Theorem-1 value the gate expects


def repeatable(summary: dict) -> list:
    return [(row.get("counters"), row["stage_bytes"]) for row in summary["rows"]]


def check_workload(name: str, out) -> None:
    seed = 5
    records = tiny_loop(name, seed)
    expect(len(records) >= 2 and all(r.ok for r in records),
           f"{name}: every untraced round passes its gate")

    bad = tiny_loop(name, seed, corrupt=corrupt_expected)
    measured = [r for r in bad if not r.warmup]
    expect(bool(measured) and all(not r.ok for r in measured),
           f"{name}: a corrupted expected outcome trips the gate")

    first = run.run_workload(name, seed, 0.0, trace_path=out / f"{name}-1.json", tiny=True)
    second = run.run_workload(name, seed, 0.0, trace_path=out / f"{name}-2.json", tiny=True)
    expect(first["failed"] == 0 and all(first["checks"].values()),
           f"{name}: traced rounds pass their gate and checks")
    expect(any(row.get("counters") for row in first["rows"])
           and repeatable(first) == repeatable(second),
           f"{name}: exact counters and stage bytes repeat across runs with one seed")
    expect(set(first["layers"]) >= {"engine.self_s", "crypto.dh_s", "trace.overhead"},
           f"{name}: the traced run reports per-layer metrics")

    with open(out / f"{name}-1.json") as fh:
        events = [e for e in json.load(fh)["traceEvents"] if e["ph"] == "X"]
    keyed = all(
        {"workload", "round", "chunk", "stage", "client"} <= set(e["args"]) for e in events
    )
    layers = {e["cat"] for e in events}
    want = {"engine", "wire", "secagg", "crypto", "xnoise"}
    if name == "pipelined-session":
        want |= {"core", "fl", "dp", "fleet"}
    expect(bool(events) and keyed and want <= layers,
           f"{name}: the Chrome trace loads, keyed, with spans of {sorted(want)}")


def check_missing_program(out) -> None:
    bare = out / "bare"
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "large-model",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the program the benchmark exits non-zero and prints no result")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    import workloads

    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        out = Path(tmp)
        for name in workloads.WORKLOADS:
            check_workload(name, out)
        check_missing_program(out)
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
