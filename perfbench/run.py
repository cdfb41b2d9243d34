"""Benchmark of the quandles library: one workload per run, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload classify --seed 1 --trace 0

Workloads: classify and census-verify (workloads.py says why each exists).
The seed makes the inputs: seeded relabellings of fixed tables, handed to the
library as .qnd text.  Each run starts fresh worker processes (worker.py), so
imports and set-up are paid as a user pays them.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  wall_s       median wall time of one pass over the workload's operations
  cpu_s        median process CPU time of one pass
  setup_s      median, over 12 to 30 fresh processes, of the time from
               starting the process to the first timed call (import, .qnd
               parsing, building the verify corpus)
  peak_rss_mb  ru_maxrss of the measuring worker process
--trace 1 alternates untraced and traced passes (tracing.py) and reports the
per-layer metrics of BENCHMARK.json: per-function self time and calls for
one set-up plus one pass, per-operation untraced wall times (ops.*), the
tracing overhead (median over pairs of traced minus untraced pass time) and
fail_frac.

--seconds defaults to run_seconds of BENCHMARK.json.

Every operation's output is checked (expected.py); a wrong or raising
operation is counted in "failed" and in fail_frac, never fatal.  Human
readable lines come first; the last line of standard output is the JSON
result.  Spans of a traced run go to .perfbench_out/.

See steady.py for repeated runs and selftest.py for a fast self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Set-up samples per untraced run: fresh processes, at least 12, more while
#: their total stays under SETUP_BUDGET_S, never more than 30.
SETUP_BUDGET_S = 5.0
#: A run must end within this many seconds of starting.
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text())


def check_program() -> None:
    if not (SRC / "quandles" / "__init__.py").is_file():
        raise BenchError(f"the quandles package is missing under {SRC}")


def reference_loop_s() -> float:
    """Median time of a fixed pure-Python loop: the machine's speed right now."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def metadata(job: dict) -> dict:
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "quandles").glob("*.py")))
    return {"workload": job["workload"], "seed": job["seed"],
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "src_quandles_lines": src_lines, "ref_loop_s": reference_loop_s(),
            "input_orders": workloads.input_orders(job)}


def spawn(job: dict, mode: str, seconds: float, deadline: float) -> dict:
    """Run worker.py once; returns its JSON plus setup_s measured from here."""
    payload = dict(job, mode=mode, seconds=seconds, src=str(SRC))
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")], input=json.dumps(payload),
            capture_output=True, text=True, cwd=ROOT,
            timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish before the run limit") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - t0
    return result


def measure(job: dict, seconds: float, trace: bool, spans_path: Path | None = None) -> dict:
    """Run one workload job; returns every metric the run can give.

    Keys: attempted, failed, errors and values (metric name -> number).
    """
    deadline = time.monotonic() + RUN_LIMIT_S
    if spans_path is not None:
        job = dict(job, spans_path=str(spans_path))
    # Half the set-up samples come before the measured run and half after,
    # so that a slow spell of the machine does not cover all of them.
    setups: list[float] = []

    def sample_setups(at_least: int, at_most: int, budget: float) -> None:
        while len(setups) < at_most and (len(setups) < at_least
                                         or sum(setups) < budget):
            setups.append(spawn(job, "setup", 0, deadline)["setup_s"])

    if not trace:
        sample_setups(6, 15, SETUP_BUDGET_S / 2)
    main = spawn(job, "trace" if trace else "run", seconds, deadline)
    setups.append(main["setup_s"])
    if not trace:
        sample_setups(12, 30, SETUP_BUDGET_S)
    walls = [w for w, _ in main["passes"]]
    values = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(c for _, c in main["passes"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["maxrss_kib"] / 1024,
        "fail_frac": main["failed"] / main["attempted"],
        "passes": len(walls),
    }
    for name, times in main["op_times"].items():
        values[f"ops.{name}.wall_s"] = statistics.median(times)
    if trace:
        traced = main["trace"]
        if traced["leftover"]:
            raise BenchError(f"span wrappers left installed: {traced['leftover']}")
        values.update(traced["metrics"])
        values["trace.wall_s"] = traced["wall_s"]
        values["trace.overhead_s"] = traced["overhead_s"]
        values["trace.spans"] = traced["spans"]
        values["trace.passes"] = traced["passes"]
    return {"attempted": main["attempted"], "failed": main["failed"],
            "errors": main["errors"], "values": values}


def report(spec: dict, measured: dict, trace: bool, meta: dict) -> dict:
    """Print the human-readable lines and return the JSON result."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values = measured["values"]
    metrics, absent = {}, []
    for m in wanted:
        # ops.* of another workload are zero, not absent: only a function
        # that no longer exists makes a per-layer metric absent.
        if m["name"] not in values and not m["name"].startswith("ops."):
            absent.append(m["name"])
        value = values.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<48} {value:>14.6g} {m['unit']}")
    if not trace:
        print(f"{'fail_frac':<48} {values['fail_frac']:>14.6g} ratio "
              f"({measured['failed']}/{measured['attempted']})")
    for error in measured["errors"]:
        print(f"FAILED {error}")
    meta = dict(meta, passes=values["passes"], absent=absent)
    if trace:
        meta["traced_passes"] = values["trace.passes"]
    print("meta " + json.dumps(meta))
    return {"correct": measured["failed"] == 0, "attempted": measured["attempted"],
            "failed": measured["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        check_program()
        sys.path.insert(0, str(SRC))
        job = workloads.make_job(args.workload, args.seed)
        meta = metadata(job)
        spans_path = None
        if args.trace:
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        measured = measure(job, seconds, bool(args.trace), spans_path)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    result = report(spec, measured, bool(args.trace), meta)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
