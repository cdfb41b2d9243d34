"""One workload in a fresh process: set up, run the timed phase, print JSON.

run.py starts this script and writes the job (see workloads.make_job) to its
standard input.  Modes:

setup   set up only and report the moment the first timed call could start;
run     set up, then repeat passes over the operations for job["seconds"];
trace   set up, then set up again with every layer spanned (tracing.py),
        then for job["seconds"] alternate an untraced pass with a traced
        one, so that a change of the machine's speed hits both alike.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
import traceback


class Tally:
    """Pass times, per-operation times and failures of a series of passes."""

    def __init__(self, ops):
        self.passes: list[tuple[float, float]] = []
        self.op_times: dict[str, list[float]] = {name: [] for name, _, _ in ops}
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def run_pass(self, ops, tracer=None) -> float:
        """One pass over ops; returns its wall time.

        An operation fails when it raises or when its check returns a
        message; failures are counted, never fatal.
        """
        gc.collect()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for name, call, check in ops:
            if tracer is not None:
                tracer.op = self.attempted
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = call()
                self.op_times[name].append(time.perf_counter() - t0)
                problem = check(out)
            except Exception as exc:  # a failing operation is data, not an abort
                self.op_times[name].append(time.perf_counter() - t0)
                problem = f"raised {type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
            if problem is not None:
                self.failed += 1
                self.errors.append(f"{name}: {problem}")
        self.passes.append((time.perf_counter() - wall0, time.process_time() - cpu0))
        return self.passes[-1][0]

    def result(self) -> dict:
        return {"passes": self.passes, "op_times": self.op_times,
                "attempted": self.attempted, "failed": self.failed,
                "errors": self.errors[:20]}


def run_passes(ops, seconds: float) -> dict:
    """Whole passes over ops until another pass would overrun seconds (at least one)."""
    tally = Tally(ops)
    began = time.perf_counter()
    while True:
        wall = tally.run_pass(ops)
        if time.perf_counter() - began + wall > seconds:
            return tally.result()


def run_paired(job: dict, ops, seconds: float) -> dict:
    """Untraced passes, each followed by a traced pass, until seconds are used.

    Traced passes stop once another one would take the span store past
    tracing.SPAN_LIMIT; untraced passes go on.  The tracing overhead is the
    median over pairs of traced minus untraced pass wall time.
    """
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = tracing.SETUP_OP
        traced_ops = workloads.build_ops(job)
    finally:
        tracer.remove()
    plain, traced = Tally(ops), Tally(traced_ops)
    began = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.run_pass(ops)
        before = len(tracer.start)
        if not traced.passes or before + per_pass <= tracing.SPAN_LIMIT:
            tracer.install()
            try:
                traced.run_pass(traced_ops, tracer)
            finally:
                tracer.remove()
            per_pass = len(tracer.start) - before
        if time.perf_counter() - began + (time.perf_counter() - t0) > seconds:
            break
    result = plain.result()
    pairs = zip(traced.passes, plain.passes)
    result["trace"] = {
        "leftover": tracing.leftover_wrappers(),
        "metrics": tracer.metrics(len(traced.passes)),
        "wall_s": statistics.median(w for w, _ in traced.passes),
        "overhead_s": statistics.median(t[0] - p[0] for t, p in pairs),
        "passes": len(traced.passes),
        "spans": len(tracer.start),
    }
    result["attempted"] += traced.attempted
    result["failed"] += traced.failed
    result["errors"] += traced.errors[:20]
    if job.get("spans_path"):
        tracer.write(job["spans_path"])
    return result


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    import workloads

    ops = workloads.build_ops(job)
    ready = time.monotonic()
    result: dict = {"ready": ready}
    if job["mode"] == "run":
        result.update(run_passes(ops, job["seconds"]))
    elif job["mode"] == "trace":
        result.update(run_paired(job, ops, job["seconds"]))
    result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
