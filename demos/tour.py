"""A guided walk through the main constructions.

Run with: python3 demos/tour.py
"""

import dataclasses

from quandles import classify, core, corpus, orbitseries, qndfile


def show_report(q):
    report = classify.classify(q)
    print(f"-- {q.label or 'unlabeled'} (order {q.order})")
    for field in dataclasses.fields(report):
        print(f"   {field.name}: {getattr(report, field.name)}")
    print()


def show_tree(q, indent="   "):
    for node in orbitseries.orbit_tree(q).nodes():
        members = "{" + ",".join(str(x + 1) for x in node.subset) + "}"
        print(f"{indent}{'  ' * node.depth}{members} size {node.size}")
    print()


def main():
    print("Three small quandles and what the classifier sees in them.\n")

    d4 = core.dihedral(4)
    show_report(d4)
    print("   The orbit tree behind tos_degree = 2:")
    show_tree(d4)

    affine = core.affine(5, 2)
    show_report(affine)
    print("   Connected and nontrivial, so no orbit ever splits:")
    show_tree(affine)

    witness = corpus.builtin_quandle("paper-example-16")
    show_report(witness)
    print("   Its table in the .qnd exchange format:")
    for line in qndfile.serialize(witness).splitlines():
        print(f"   {line}")
    print()
    print("   The degrees separate here: locally reductive at 2, tree depth 3,")
    print("   reductive only at 4. On medial quandles all three collapse.")


if __name__ == "__main__":
    main()
