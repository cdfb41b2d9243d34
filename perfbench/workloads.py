"""Seeded inputs, operations and output checks for the two workloads.

A job is a plain JSON-able dict built by make_job() in the harness process.
It carries the generated .qnd texts and the expected outputs, so the worker
process that runs it receives only tables and never the seed.

Why each workload exists (see also BENCHMARK.json):

classify       classify() on few big inputs, in two groups of operations.
               Big tables with small groups: time goes to table scans
               (congruence witnesses inside o_chain, is_medial, the
               composite layers of _first_constant_layer).  Tiny tables
               with big inner groups: time and memory go to the
               permutation group closures.
census-verify  many small inputs.  The exhaustive order 1..5 enumeration
               (row search, isomorph rejection, validation), then the fact
               suite over builtins, that census and 40 unions and products:
               thousands of small congruence, quotient, subquandle and
               Engel calls, where per-call overhead shows.

Two workloads, not one per kind of input: the host's speed drifts by a
quarter within a minute, so a steady run must be long, and the run budget
allows long runs for two workloads only.  The per-operation wall times of a
traced run (ops.*) still separate every input.
"""

from __future__ import annotations

import random

from expected import A181769, CLASSIFY_REPORTS, VERIFY_FACT_COUNTS

WORKLOADS = ("classify", "census-verify")

CENSUS_ORDERS = (1, 2, 3, 4, 5)

# Extra verify members: (kind, piece names).  The recipes are fixed so that
# the cost of a verify pass and the checked count of every fact do not depend
# on the seed; the seed only relabels each member and orders union parts.
# Pieces name builtin quandles or affine(n, t) as "affine:n:t".
VERIFY_EXTRAS = (
    ("union", ("d3", "d4")), ("union", ("d3", "d5")), ("union", ("d4", "d5")),
    ("union", ("d5", "d6")), ("union", ("d3", "affine-7-3")),
    ("union", ("t2", "d8")), ("union", ("affine-5-2", "d6")),
    ("union", ("d4", "d8")), ("union", ("t3", "conj-s3")),
    ("union", ("d5", "affine-7-3")), ("union", ("s3-transpositions", "d8")),
    ("union", ("affine:5:3", "affine:7:2")), ("union", ("conj-s3", "d6")),
    ("union", ("s3-3cycles", "conj-q8")), ("union", ("affine:4:3", "affine:8:5")),
    ("union", ("d3", "affine:9:2")),
    ("union", ("t1", "d3", "d4")), ("union", ("t2", "d3", "d5")),
    ("union", ("d3", "d3", "d3")), ("union", ("d3", "d4", "d5")),
    ("union", ("t2", "d4", "d6")), ("union", ("s3-3cycles", "d5", "affine-5-2")),
    ("union", ("d4", "d4", "d4")), ("union", ("t1", "d5", "affine:5:3")),
    ("union", ("t3", "d3", "s3-transpositions")), ("union", ("d3", "conj-s3", "t2")),
    ("union", ("t1", "affine-7-3", "d4")), ("union", ("d5", "d5", "t2")),
    ("product", ("t2", "d3")), ("product", ("t2", "d4")), ("product", ("t2", "d5")),
    ("product", ("t2", "d6")), ("product", ("t3", "d3")), ("product", ("t3", "d4")),
    ("product", ("d3", "d4")), ("product", ("t2", "affine-5-2")),
    ("product", ("t2", "conj-s3")), ("product", ("s3-3cycles", "d5")),
    ("product", ("s3-3cycles", "d6")), ("product", ("s3-3cycles", "affine:5:3")),
)


def _classify_inputs(q) -> list[tuple[str, object]]:
    s3 = q.grouptables.symmetric_group(3)
    d3, d5 = q.dihedral(3), q.dihedral(5)
    return [
        # big tables, small groups
        ("dihedral-32", q.dihedral(32)), ("dihedral-48", q.dihedral(48)),
        ("dihedral-64", q.dihedral(64)), ("affine-43-3", q.affine(43, 3)),
        ("conj-s3xs3", q.conj(q.grouptables.direct_product(s3, s3))),
        # tiny tables, inner groups of 10^3 to 10^4 elements
        ("3xdihedral-5", q.disjoint_union(d5, d5, d5)),
        ("4xdihedral-5", q.disjoint_union(d5, d5, d5, d5)),
        ("dihedral-3-plus-3xdihedral-5", q.disjoint_union(d3, d5, d5, d5)),
        ("affine-7-3-plus-2xdihedral-5", q.disjoint_union(q.affine(7, 3), d5, d5)),
    ]


def relabel(table, rng: random.Random) -> list[list[int]]:
    """An isomorphic copy of the table under a random permutation of 0..n-1."""
    n = len(table)
    perm = list(range(n))
    rng.shuffle(perm)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        pa, row = perm[a], table[a]
        for b in range(n):
            out[pa][perm[b]] = perm[row[b]]
    return out


def to_qnd(table) -> str:
    """The .qnd normal form: the order, then 1-based rows."""
    lines = [str(len(table))]
    lines.extend(" ".join(str(v + 1) for v in row) for row in table)
    return "\n".join(lines) + "\n"


def _piece(q, name: str):
    if name.startswith("affine:"):
        _, n, t = name.split(":")
        return q.affine(int(n), int(t))
    return q.builtin_quandle(name)


def _extra(q, kind: str, names, rng: random.Random):
    pieces = [_piece(q, name) for name in names]
    if kind == "union":
        rng.shuffle(pieces)
        return q.disjoint_union(*pieces)
    return q.direct_product(*pieces)


def make_job(workload: str, seed: int) -> dict:
    """Generate the inputs and expected outputs of one run of a workload.

    Needs the quandles package importable; only its constructors run here.
    """
    import quandles as q

    job: dict = {"workload": workload, "seed": seed, "inputs": []}
    if workload == "classify":
        for name, base in _classify_inputs(q):
            rng = random.Random(f"classify/{name}/{seed}")
            job["inputs"].append({"name": name, "qnd": to_qnd(relabel(base.table, rng)),
                                  "expect": CLASSIFY_REPORTS[name]})
    elif workload == "census-verify":
        job["inputs"] = [{"name": f"census-{n}", "n": n, "expect": A181769[n]}
                         for n in CENSUS_ORDERS]
        extras = []
        for i, (kind, names) in enumerate(VERIFY_EXTRAS):
            rng = random.Random(f"verify/{i}/{seed}")
            member = _extra(q, kind, names, rng)
            extras.append({"name": f"extra-{i:02d}", "qnd": to_qnd(relabel(member.table, rng))})
        job["inputs"].append({"name": "verify", "census_up_to": 5, "extras": extras,
                              "expect": VERIFY_FACT_COUNTS})
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return job


def input_orders(job: dict) -> dict[str, int]:
    """Order of every generated table, for the run's metadata."""
    orders = {}
    for item in job["inputs"]:
        if "qnd" in item:
            orders[item["name"]] = int(item["qnd"].split("\n", 1)[0])
        for extra in item.get("extras", ()):
            orders[extra["name"]] = int(extra["qnd"].split("\n", 1)[0])
    return orders


# ---- run inside the worker: set-up builds the operations, checks judge outputs


def _check_report(report, expect: dict) -> str | None:
    got = {k: getattr(report, k, "<missing>") for k in expect}
    got = {k: list(v) if isinstance(v, tuple) else v for k, v in got.items()}
    wrong = {k: (got[k], v) for k, v in expect.items() if got[k] != v}
    return f"report fields differ (got, expected): {wrong}" if wrong else None


def _check_census(classes, expect: int) -> str | None:
    return None if len(classes) == expect else f"{len(classes)} classes, expected {expect}"


def _check_suite(report, corpus_size: int, expect: dict | None) -> str | None:
    if not report.ok:
        failing = [r.name for r in report.results if not r.passed]
        return f"suite not ok: {failing}"
    counts = {r.name: r.checked for r in report.results}
    if counts.get("classification-completes") != corpus_size:
        return (f"classification-completes checked "
                f"{counts.get('classification-completes')}, corpus has {corpus_size}")
    if expect is not None and counts != expect:
        wrong = {k: (counts.get(k), v) for k, v in expect.items() if counts.get(k) != v}
        extra = sorted(set(counts) - set(expect))
        return f"fact counts differ (got, expected): {wrong} unexpected: {extra}"
    return None


def build_ops(job: dict):
    """Parse the job's tables and return [(name, call, check)] for the timed phase.

    Everything here is set-up: importing the package, parsing every .qnd
    text (which validates it) and building the verify corpus.
    """
    from quandles import classify, corpus, qndfile

    ops = []
    for item in job["inputs"]:
        name, expect = item["name"], item["expect"]
        if "qnd" in item:
            quandle = qndfile.parse(item["qnd"], label=name)
            ops.append((name, lambda x=quandle: classify.classify(x),
                        lambda out, e=expect: _check_report(out, e)))
        elif "n" in item:
            ops.append((name, lambda n=item["n"]: corpus.enumerate_quandles(n),
                        lambda out, e=expect: _check_census(out, e)))
        else:
            members = corpus.default_corpus(
                corpus.CorpusSpec(exhaustive_up_to=item["census_up_to"]))
            members += [qndfile.parse(x["qnd"], label=x["name"]) for x in item["extras"]]
            groups = corpus.builtin_groups()
            ops.append((name, lambda m=members, g=groups: classify.verify_suite(m, g),
                        lambda out, n=len(members), e=expect: _check_suite(out, n, e)))
    return ops
