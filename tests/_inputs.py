"""Larger quandles shared by the tests that compare a route with an oracle.

The nine inputs of the benchmark's classify workload (big tables with small
groups, and tiny tables with inner groups of 10^3 to 10^4 elements), built
here without relabelling, and the dihedral quandles of order 2^k.  Also a
patch that makes core.validate raise, for the tests that check a builder
returns a quandle without validating the table it built.  And the members
of the benchmark's census-verify pass, read from its own job generator,
with the fact counts the benchmark expects of them.
"""

import sys
from pathlib import Path

from quandles import core, corpus, grouptables, qndfile

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def classify_workload_inputs() -> list[tuple[str, core.Quandle]]:
    s3 = grouptables.symmetric_group(3)
    d3, d5 = core.dihedral(3), core.dihedral(5)
    return [
        ("dihedral-32", core.dihedral(32)), ("dihedral-48", core.dihedral(48)),
        ("dihedral-64", core.dihedral(64)), ("affine-43-3", core.affine(43, 3)),
        ("conj-s3xs3", core.conj(grouptables.direct_product(s3, s3))),
        ("3xdihedral-5", core.disjoint_union(d5, d5, d5)),
        ("4xdihedral-5", core.disjoint_union(d5, d5, d5, d5)),
        ("dihedral-3-plus-3xdihedral-5", core.disjoint_union(d3, d5, d5, d5)),
        ("affine-7-3-plus-2xdihedral-5", core.disjoint_union(core.affine(7, 3), d5, d5)),
    ]


def dihedral_powers_of_two(max_k: int) -> list[tuple[str, core.Quandle]]:
    return [(f"dihedral-{2 ** k}", core.dihedral(2 ** k)) for k in range(1, max_k + 1)]


def refuse_validate(monkeypatch):
    """Make core.validate raise, so a builder that still calls it fails."""
    def refuse(table, label=None):
        raise AssertionError("validate called on a table built by construction")

    monkeypatch.setattr(core, "validate", refuse)


def _perfbench_workloads():
    """The benchmark's workloads module, imported without changing perfbench/."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


def census_verify_fact_counts() -> dict[str, int]:
    """The {fact: checked} counts the census-verify workload expects."""
    return dict(_perfbench_workloads().VERIFY_FACT_COUNTS)


def census_verify_members(seed: int) -> list[core.Quandle]:
    """The verify corpus of the census-verify workload for a seed.

    The builtins, the census up to order 5, and the workload's unions and
    products as relabelled by the seed, parsed from their .qnd text.
    """
    workloads = _perfbench_workloads()
    job = workloads.make_job("census-verify", seed)
    (verify,) = [item for item in job["inputs"] if "extras" in item]
    members = corpus.default_corpus(
        corpus.CorpusSpec(exhaustive_up_to=verify["census_up_to"]))
    return members + [qndfile.parse(x["qnd"], label=x["name"])
                      for x in verify["extras"]]
