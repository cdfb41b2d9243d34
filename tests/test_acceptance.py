"""Acceptance gate: ten exact criteria, one test and one verdict line each.

Every criterion is checked with tolerance zero. Each test prints a single
PASS line on success (visible with pytest -s; pytest -v shows one PASSED or
FAILED line per criterion either way). The timed criteria assert their wall
clock budgets with time.monotonic.
"""

import time

import pytest

import _oracles
from quandles import classify, congruence, core, corpus, grouptables
from quandles import orbitseries, permgroup, qndfile
from quandles.errors import AxiomViolation


def _census_plus_builtins():
    members = []
    for n in range(1, 6):
        members.extend(corpus.enumerate_quandles(n))
    members.extend(corpus.default_corpus())
    return members


@pytest.fixture(scope="module")
def full_corpus():
    return _census_plus_builtins()


def _identity_route_degree(q):
    """Minimal n with the n-fold product independent of the leading factor."""
    for n in range(q.order + 1):
        if classify.is_n_reductive(q, n):
            return n
    return None


def test_criterion_01_sixteen_element_witness():
    q = corpus.builtin_quandle("paper-example-16")
    orbits = sorted(permgroup.orbits(q.table), key=len, reverse=True)
    assert [len(o) for o in orbits] == [8, 4, 4]
    big = core.induced_subquandle(q, orbits[0])
    twin = core.disjoint_union(core.dihedral(4), core.dihedral(4))
    assert core.is_isomorphic(big, twin) is not None
    sd = orbitseries.degrees(q)
    assert sd.tos_degree == 3
    assert classify.is_n_locally_reductive(q, 2)
    assert classify.locally_reductive_degree(q) == 2
    assert classify.is_n_reductive(q, 5)
    assert not classify.is_n_reductive(q, 3)
    print("PASS criterion 1: 16-element witness classifies exactly")


def test_criterion_02_dihedral_tower():
    start = time.monotonic()
    for k in range(5):
        q = core.dihedral(2 ** k)
        assert orbitseries.degrees(q).tos_degree == k, k
        if k >= 1:
            root = orbitseries.orbit_tree(q)
            previous = core.dihedral(2 ** (k - 1))
            assert len(root.children) == 2
            for child in root.children:
                induced = core.induced_subquandle(q, child.subset)
                assert core.is_isomorphic(induced, previous) is not None, k
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"tower took {elapsed:.2f}s"
    print("PASS criterion 2: dihedral tower reaches tOS degree k at order 2^k")


def test_criterion_03_dihedral_four_tree_shape():
    root = orbitseries.orbit_tree(core.dihedral(4))
    nodes = list(root.nodes())
    assert len(nodes) == 7
    leaves = [node for node in nodes if not node.children]
    assert all(node.size == 1 for node in leaves)

    def depth_of(node, target, level=0):
        if node is target:
            return level
        for child in node.children:
            found = depth_of(child, target, level + 1)
            if found is not None:
                return found
        return None

    assert max(depth_of(root, leaf) for leaf in leaves) == 2
    print("PASS criterion 3: dihedral(4) orbit tree has 7 nodes, depth 2, "
          "singleton leaves")


def test_criterion_04_reductivity_routes_agree(full_corpus):
    start = time.monotonic()
    counts = [len(corpus.enumerate_quandles(n)) for n in range(1, 6)]
    assert counts == [1, 1, 3, 7, 22]
    for q in full_corpus:
        chain = congruence.o_chain(q)
        chain_deg = next(
            (i for i, term in enumerate(chain) if term.is_zero), None)
        ident_deg = _identity_route_degree(q)
        inn_cls = permgroup.nilpotency_class(congruence.inn(q))
        collapse = congruence.l_chain(q)
        steps = len(collapse) - 1 if collapse[-1].order == 1 else None
        label = q.label or f"order {q.order}"
        assert ident_deg == chain_deg, label
        expected_cls = None if chain_deg is None else max(chain_deg - 1, 0)
        assert inn_cls == expected_cls, label
        assert steps == chain_deg, label
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"routes took {elapsed:.2f}s"
    print("PASS criterion 4: four reductivity routes agree on all "
          f"{len(full_corpus)} corpus members")


def test_criterion_05_reductive_iff_locally_reductive(full_corpus):
    for q in full_corpus:
        red = classify.reductive_degree(q)
        lr = classify.locally_reductive_degree(q)
        assert (red is None) == (lr is None), q.label or q.order
    print("PASS criterion 5: reductive degree exists exactly when the local "
          "degree does")


def test_criterion_06_inclusion_chain(full_corpus):
    for q in full_corpus:
        red = classify.reductive_degree(q)
        if red is None:
            continue
        lr = classify.locally_reductive_degree(q)
        tos = orbitseries.degrees(q).tos_degree
        label = q.label or f"order {q.order}"
        assert lr is not None and tos is not None, label
        assert lr <= tos <= red, label
        if classify.is_medial(q):
            assert lr == tos == red, label
    print("PASS criterion 6: degree chain lr <= tos <= red holds, with "
          "equality on medial members")


def test_criterion_07_ncs_oracle_equivalence(full_corpus):
    start = time.monotonic()
    checked = 0
    for q in full_corpus:
        if q.order > 10:
            continue
        tos_exists = orbitseries.degrees(q).tos_degree is not None
        assert tos_exists == orbitseries.is_ncs(q), q.label or q.order
        checked += 1
    assert checked > 40
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"ncs sweep took {elapsed:.2f}s"
    print(f"PASS criterion 7: tOS existence matches the subquandle scan on "
          f"{checked} members")


def test_criterion_08_conjugation_engel_bridge():
    checked = 0
    for name, table in corpus.builtin_groups():
        if len(table) > 16:
            continue
        checked += 1
        cls = permgroup.nilpotency_class(permgroup.closure(table))
        red = classify.reductive_degree(core.conj(table))
        assert (cls is None) == (red is None), name
        if cls is not None:
            assert red == cls, name
        everything = tuple(range(len(table)))
        two_engel = grouptables.is_n_engel_subset(table, everything, 2)
        tos = orbitseries.degrees(core.conj(table)).tos_degree
        assert (tos is not None and tos <= 2) == two_engel, name
        if two_engel:
            assert red is not None and red <= 3, name
    assert checked == 14
    print("PASS criterion 8: conjugation quandles track nilpotency class and "
          "the 2-Engel law")


def test_criterion_09_quotient_series_lemma(full_corpus):
    def project(series, proj):
        return [tuple(sorted({proj[x] for x in subset})) for subset in series]

    def padded_equal(left, right):
        for i in range(max(len(left), len(right))):
            if left[min(i, len(left) - 1)] != right[min(i, len(right) - 1)]:
                return False
        return True

    members = [q for q in full_corpus if q.order <= 5]
    assert len(members) > 40
    for q in members:
        label = q.label or f"order {q.order}"
        found = congruence.all_congruences(q)
        by_join = {frozenset(frozenset(c) for c in cong.classes)
                   for cong in found}
        by_scan = _oracles.congruence_class_sets(q.table)
        assert by_join == by_scan, label
        for cong in found:
            quotient, proj = core.quotient(q, cong.classes)
            for x in range(q.order):
                image = project(orbitseries.principal_series(q, x), proj)
                direct = orbitseries.principal_series(quotient, proj[x])
                assert padded_equal(image, direct), (label, x)
    print(f"PASS criterion 9: projected principal series match quotient "
          f"series on {len(members)} members")


def test_criterion_10_round_trip_and_axiom_gate(full_corpus):
    for q in full_corpus:
        text = qndfile.serialize(q)
        again = qndfile.parse(text, label=q.label)
        assert again.table == q.table
        assert qndfile.serialize(again) == text
    base = [list(row) for row in core.dihedral(4).table]
    mutations = 0
    for a in range(4):
        for b in range(4):
            for value in range(4):
                if value == base[a][b]:
                    continue
                mutated = [row[:] for row in base]
                mutated[a][b] = value
                mutations += 1
                with pytest.raises(AxiomViolation) as info:
                    core.validate(tuple(tuple(row) for row in mutated))
                assert info.value.axiom in (1, 2, 3)
                assert len(info.value.witness) >= 1
    assert mutations == 48
    print("PASS criterion 10: serialization round-trips and all 48 single "
          "entry mutations are rejected")
