"""Steadiness check: run one workload repeatedly and summarise each metric.

    python3 perfbench/steady.py --workload classify --runs 10 --first-seed 1
    python3 perfbench/steady.py --workload classify --runs 10 --first-seed 11 \
        --compare .perfbench_out/steady-classify-1.json

Each run is a fresh untraced `run.py` process with its own seed (first-seed,
first-seed + 1, ...) and BENCHMARK.json's run_seconds.  For every end-to-end
metric it prints the sample count, median, quartiles
(statistics.quantiles, n=4) and spread = (Q3 - Q1) / median, next to the
metric's bound from BENCHMARK.json.  The raw values are saved under
.perfbench_out/.  With --compare, it also prints how far each median moved
from the saved set, as a share of the saved median, and whether that stays
within the bound: this is how two sets of runs of the same code are shown to
agree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import HERE, OUT, ROOT, load_spec


def run_once(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed (seed {seed}):\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    meta = json.loads(next(x for x in lines if x.startswith("meta "))[5:])
    return {"seed": seed, "meta": meta, "result": json.loads(lines[-1])}


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args(argv)
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        runs.append(run_once(args.workload, seed))
        res = runs[-1]["result"]
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/"
              f"{res['attempted']} passes={runs[-1]['meta']['passes']} "
              f"ref_loop_s={runs[-1]['meta']['ref_loop_s']:.4f} " + " ".join(
                  f"{k}={v['value']:.4f}" for k, v in res["metrics"].items()),
              flush=True)
    OUT.mkdir(exist_ok=True)
    saved = OUT / f"steady-{args.workload}-{args.first_seed}.json"
    saved.write_text(json.dumps(runs, indent=1))

    older = None
    if args.compare:
        older = json.loads(args.compare.read_text())
    names = list(runs[0]["result"]["metrics"])
    ok = all(r["result"]["correct"] for r in runs)
    print(f"\n{args.workload}: {len(runs)} runs, all correct: {ok}, saved {saved}")
    print(f"{'metric':<40} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}" + ("  shift" if older else ""))
    for name in names:
        s = summary([r["result"]["metrics"][name]["value"] for r in runs])
        bound = bounds[name]
        line = (f"{name:<40} {s['n']:>3} {s['median']:>12.6g} {s['q1']:>12.6g} "
                f"{s['q3']:>12.6g} {s['spread']:>8.4f} {bound:>6}")
        if older:
            base = summary([r["result"]["metrics"][name]["value"] for r in older])
            shift = (s["median"] - base["median"]) / base["median"] if base["median"] else 0.0
            worse = shift if lower_better[name] else -shift
            line += f"  {shift:+.4f} {'ok' if worse <= bound else 'WORSE'}"
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
