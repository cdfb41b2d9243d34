"""Orbit trees, principal series, degree extraction, and subquandle enumeration."""

import pytest

import _oracles
from quandles import core, corpus, grouptables, orbitseries
from quandles.errors import CapExceeded


def test_tree_of_dihedral_four():
    root = orbitseries.orbit_tree(core.dihedral(4))
    nodes = list(root.nodes())
    assert len(nodes) == 7
    assert root.subset == (0, 1, 2, 3)
    assert [child.subset for child in root.children] == [(0, 2), (1, 3)]
    leaves = list(root.leaves())
    assert all(leaf.size == 1 for leaf in leaves)
    assert max(node.depth for node in nodes) == 2


def test_tree_of_trivial_is_one_level():
    root = orbitseries.orbit_tree(core.trivial(4))
    assert [child.subset for child in root.children] == [(0,), (1,), (2,), (3,)]
    assert all(not child.children for child in root.children)


def test_tree_of_connected_quandle_is_a_point():
    root = orbitseries.orbit_tree(core.affine(5, 2))
    assert not root.children
    assert list(root.nodes()) == [root]


def test_leaf_iff_one_orbit():
    for q in (core.dihedral(8), core.conj(grouptables.symmetric_group(3)),
              corpus.builtin_quandle("paper-example-16")):
        for node in orbitseries.orbit_tree(q).nodes():
            induced = core.induced_subquandle(q, node.subset)
            one_orbit = len(_oracles._orbit_partition(
                induced.table, frozenset(range(induced.order)))) == 1
            assert (not node.children) == one_orbit


def test_orbits_within_every_tree_node_match_the_sweep_oracle():
    census = [q for n in range(1, 6) for q in corpus.enumerate_quandles(n)]
    for q in corpus.default_corpus() + census:
        for node in orbitseries.orbit_tree(q).nodes():
            want = _oracles._orbit_partition(q.table, frozenset(node.subset))
            assert (orbitseries._orbits_within(q.table, node.subset)
                    == tuple(tuple(sorted(o)) for o in want)), (q.label, node.subset)


def test_degrees_of_dihedral_powers_of_two():
    for k in range(5):
        sd = orbitseries.degrees(core.dihedral(2 ** k))
        assert sd.tos_degree == k


def test_degrees_of_trivial():
    for n in (2, 3, 6):
        sd = orbitseries.degrees(core.trivial(n))
        assert (sd.os_degree, sd.tos_degree) == (1, 1)
    sd = orbitseries.degrees(core.trivial(1))
    assert (sd.os_degree, sd.tos_degree) == (0, 0)


def test_degrees_of_conj_s3():
    sd = orbitseries.degrees(core.conj(grouptables.symmetric_group(3)))
    assert sd.os_degree == 2
    assert sd.tos_degree is None


def test_degrees_match_recursive_oracle():
    quandles = [core.dihedral(n) for n in range(1, 9)]
    quandles += [core.trivial(4), core.affine(5, 2),
                 core.conj(grouptables.quaternion_8()),
                 corpus.builtin_quandle("paper-example-16")]
    for q in quandles:
        sd = orbitseries.degrees(q)
        assert (sd.os_degree, sd.tos_degree) == \
            _oracles.series_degrees_recursive(q.table)


def test_degrees_are_isomorphism_invariant():
    q = core.dihedral(6)
    relabel = (3, 5, 1, 0, 4, 2)
    inverse = [0] * 6
    for i, v in enumerate(relabel):
        inverse[v] = i
    table = tuple(
        tuple(relabel[q.table[inverse[a]][inverse[b]]] for b in range(6))
        for a in range(6)
    )
    other = core.validate(table)
    assert orbitseries.degrees(q) == orbitseries.degrees(other)


def test_tree_nodes_are_distinct_and_children_partition_their_parent():
    census = [q for n in range(1, 6) for q in corpus.enumerate_quandles(n)]
    for q in corpus.default_corpus() + census:
        nodes = list(orbitseries.orbit_tree(q).nodes())
        assert len({node.subset for node in nodes}) == len(nodes), q.label
        for node in nodes:
            if node.children:
                parts = [x for child in node.children for x in child.subset]
                assert sorted(parts) == list(node.subset), q.label
                assert all(child.size < node.size
                           for child in node.children), q.label


def test_principal_series_in_trivial():
    assert orbitseries.principal_series(core.trivial(3), 1) == [(0, 1, 2), (1,)]


def test_principal_series_in_dihedral_four():
    assert orbitseries.principal_series(core.dihedral(4), 0) == \
        [(0, 1, 2, 3), (0, 2), (0,)]


def test_principal_series_rejects_foreign_points():
    with pytest.raises(ValueError):
        orbitseries.principal_series(core.trivial(3), 3)


def test_branches_realize_principal_series():
    for q in (core.dihedral(8), core.trivial(3),
              core.conj(grouptables.symmetric_group(3))):
        root = orbitseries.orbit_tree(q)
        for branch in root.branches():
            subsets = [node.subset for node in branch]
            tail = branch[-1].subset
            intersection = set(branch[0].subset)
            for node in branch:
                intersection &= set(node.subset)
            assert tuple(sorted(intersection)) == tail
            for x in tail:
                assert orbitseries.principal_series(q, x) == subsets


def test_all_subquandles_of_the_point():
    assert orbitseries.all_subquandles(core.trivial(1)) == [(0,)]


def test_all_subquandles_of_trivial_three():
    assert len(orbitseries.all_subquandles(core.trivial(3))) == 7


def test_all_subquandles_of_dihedral_three():
    subs = orbitseries.all_subquandles(core.dihedral(3))
    assert subs == [(0,), (1,), (2,), (0, 1, 2)]


def test_all_subquandles_cap(monkeypatch):
    # Every nonempty subset of a trivial quandle is closed: 2**6 - 1 of them.
    monkeypatch.setattr(orbitseries, "DEFAULT_SUBSET_CAP", 62)
    with pytest.raises(CapExceeded, match="number of subquandles found exceeded cap 62"):
        orbitseries.all_subquandles(core.trivial(6))
    monkeypatch.setattr(orbitseries, "DEFAULT_SUBSET_CAP", 63)
    assert len(orbitseries.all_subquandles(core.trivial(6))) == 63


def _mask_scan_inputs():
    members = [q for q in corpus.default_corpus() if q.order <= 12]
    members += [q for n in range(1, 6) for q in corpus.enumerate_quandles(n)]
    d3, d4, d5 = core.dihedral(3), core.dihedral(4), core.dihedral(5)
    members += [core.disjoint_union(d3, core.trivial(2), d4),
                core.disjoint_union(core.affine(5, 2), d5),
                core.direct_product(d3, core.trivial(3)),
                core.direct_product(core.trivial(2), d5),
                core.direct_product(d4, core.trivial(3))]
    return members


def test_subquandles_match_mask_scan_oracle():
    for q in _mask_scan_inputs():
        assert orbitseries.all_subquandles(q) == \
            _oracles.closed_subsets_by_mask(q.table), q.label
        assert orbitseries.is_ncs(q) == _oracles.is_ncs_by_mask(q.table), q.label


def test_subquandles_past_the_old_mask_cap_are_exact():
    # The subquandles of dihedral(2**k) are the cosets of its subgroups,
    # 2**k + 2**(k - 1) + ... + 1 of them; affine(43, 3) has its points
    # and itself.
    assert len(orbitseries.all_subquandles(core.dihedral(16))) == 31
    assert len(orbitseries.all_subquandles(core.dihedral(64))) == 127
    assert len(orbitseries.all_subquandles(core.affine(43, 3))) == 44
    assert not orbitseries.is_ncs(core.affine(43, 3))
    assert not orbitseries.is_ncs(core.conj(grouptables.symmetric_group(4)))


def test_is_ncs_stops_at_the_first_connected_subquandle(monkeypatch):
    # {0, 1} generates the connected dihedral(3) block, the third set found.
    q = core.disjoint_union(core.dihedral(3), core.trivial(17))
    monkeypatch.setattr(orbitseries, "DEFAULT_SUBSET_CAP", 10)
    assert not orbitseries.is_ncs(q)


def test_is_ncs_values():
    assert orbitseries.is_ncs(core.trivial(5))
    assert not orbitseries.is_ncs(core.dihedral(3))
    for k in range(5):
        assert orbitseries.is_ncs(core.dihedral(2 ** k))


def test_is_ncs_spots_buried_connected_subquandles():
    # the union hides a connected dihedral(3) inside a disconnected whole
    q = core.disjoint_union(core.dihedral(3), core.trivial(2))
    assert not orbitseries.is_ncs(q)
