"""Fast self-test of the benchmark itself, on tiny inputs (a few seconds).

    python3 perfbench/selftest.py

Checks that every metric of BENCHMARK.json is emitted with its unit, in
plain and traced runs of each workload; that a wrong expected value or a
raising operation is counted in fail_frac instead of aborting; that the span
wrappers are gone after a traced run; and that run.py, started where only
BENCHMARK.json and perfbench/ exist, exits non-zero without a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys

import run
import tracing
import worker
import workloads

DIHEDRAL_4 = {
    "order": 4, "orbit_sizes": [2, 2], "connected": False, "faithful": False,
    "medial": True, "abelian": True, "nilpotent_quandle": True,
    "solvable_quandle": True, "trans_derived_length": 1, "reductive_degree": 2,
    "locally_reductive_degree": 2, "os_degree": 2, "tos_degree": 2, "ncs": True,
    "inn_order": 4, "trans_order": 2, "inn_nilpotency_class": 1,
}

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def tiny_job(workload: str) -> dict:
    import quandles as q

    rng = random.Random(workload)
    d4 = workloads.to_qnd(workloads.relabel(q.dihedral(4).table, rng))
    if workload == "classify":
        inputs = [{"name": "dihedral-4", "qnd": d4, "expect": DIHEDRAL_4}]
    else:
        inputs = [{"name": f"census-{n}", "n": n, "expect": workloads.A181769[n]}
                  for n in (1, 2, 3, 4)]
        inputs.append({"name": "verify", "census_up_to": 3, "expect": None,
                       "extras": [{"name": "extra-00", "qnd": d4}]})
    return {"workload": workload, "seed": 0, "inputs": inputs}


def emitted(job: dict, trace: bool) -> tuple[dict, dict]:
    """measure() + report() on a job; returns the JSON result and the meta."""
    measured = run.measure(job, 0.2, trace)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.report(run.load_spec(), measured, trace, {})
    meta = json.loads(next(line for line in out.getvalue().splitlines()
                           if line.startswith("meta "))[5:])
    return result, meta


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    spec = run.load_spec()
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        units = {m["name"]: m["unit"] for m in spec[key]}
        for workload in workloads.WORKLOADS:
            result, meta = emitted(tiny_job(workload), trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == units, f"{workload} trace={int(trace)}: every {key} metric "
                                f"emitted with its unit")
            check(result["correct"] and result["failed"] == 0,
                  f"{workload} trace={int(trace)}: outputs correct")
            check(not meta["absent"], f"{workload} trace={int(trace)}: no metric "
                                      f"absent ({meta['absent']})")
            if not trace:
                check(all(v["value"] > 0 for v in result["metrics"].values()),
                      f"{workload}: end-to-end metrics are never 0")

    job = tiny_job("census-verify")
    job["inputs"][3]["expect"] += 1
    result, _ = emitted(job, False)
    check(not result["correct"] and result["failed"] >= 1
          and result["attempted"] > result["failed"],
          "a wrong expected value is counted as failed, the run still completes")

    def boom():
        raise ValueError("deliberate")

    counted = worker.run_passes([("boom", boom, lambda out: None)], 0.0)
    check(counted["failed"] == 1 and counted["attempted"] == 1,
          "a raising operation is counted as failed, not fatal")

    import quandles
    from quandles import classify, core

    originals = (classify.classify, classify.verify_suite)
    tracer = tracing.Tracer()
    spanned = tracer.install()
    try:
        installed = (quandles.verify_suite is not originals[1]
                     and classify.classify is not originals[0]
                     and tracing.leftover_wrappers())
        classify.classify(core.dihedral(4))
    finally:
        tracer.remove()
    check(bool(installed) and "classify.classify" in spanned,
          "tracing wraps the package's functions in every namespace while installed")
    check(not tracing.leftover_wrappers()
          and (classify.classify, quandles.verify_suite) == originals,
          "tracing wrappers removed afterwards")
    check(tracer.metrics(1)["classify.classify.calls"] == 1,
          "a traced call is counted once")

    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, *spec["command"][1:], "--workload", "census-verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and "{" not in proc.stdout,
          "without the library, run.py exits non-zero and prints no result")

    print(f"\n{len(failures)} check(s) failed" if failures else "\nall checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
