"""Permutation arithmetic, closures, and structural group predicates."""

import pytest

import _oracles
from quandles import congruence, core, corpus, grouptables, permgroup
from quandles.errors import CapExceeded


def test_compose_and_inverse():
    p = (1, 2, 0)
    q = (0, 2, 1)
    assert permgroup.compose(p, q) == tuple(p[q[i]] for i in range(3))
    assert permgroup.compose(p, permgroup.inverse(p)) == (0, 1, 2)
    assert permgroup.inverse((2, 0, 1)) == (1, 2, 0)


def test_closure_without_generators():
    g = permgroup.closure([], degree=4)
    assert g.order == 1
    assert g.elements == ((0, 1, 2, 3),)


def test_closure_of_inner_dihedral_three():
    assert congruence.inn(core.dihedral(3)).order == 6


def test_closure_of_single_four_cycle():
    g = permgroup.closure([(1, 2, 3, 0)])
    assert g.order == 4


def test_closure_matches_naive_fixpoint():
    gens = [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]
    g = permgroup.closure(gens)
    assert g.order == _oracles.closure_order(gens) == 120


def test_closure_contains_inverses_and_products():
    g = permgroup.closure([(1, 2, 0, 3), (0, 1, 3, 2)])
    for x in g:
        assert permgroup.inverse(x) in g
        for y in g.elements[:5]:
            assert permgroup.compose(x, y) in g


def test_closure_cap():
    with pytest.raises(CapExceeded):
        permgroup.closure([(1, 2, 3, 4, 0)], cap=3)


def test_orbits_of_trivial_group():
    g = permgroup.trivial_group(3)
    assert permgroup.orbits(g) == ((0,), (1,), (2,))


def test_orbits_of_inner_dihedral_four():
    q = core.dihedral(4)
    assert permgroup.orbits(congruence.inn(q)) == ((0, 2), (1, 3))


def test_inner_and_transvection_orbits_coincide():
    for q in (core.dihedral(4), core.dihedral(6), core.trivial(4),
              core.affine(5, 2), core.conj(grouptables.symmetric_group(3))):
        assert permgroup.orbits(congruence.inn(q)) == permgroup.orbits(congruence.trans(q))


def test_orbits_from_generators_match_group_action():
    # union-find over generator edges against the full closure action
    q = core.conj(grouptables.quaternion_8())
    gens = list(q.table)
    by_gens = permgroup.orbits(gens)
    group = permgroup.closure(gens)
    seen = set()
    by_action = []
    for a in range(group.degree):
        if a in seen:
            continue
        orbit = tuple(sorted({p[a] for p in group}))
        seen.update(orbit)
        by_action.append(orbit)
    assert by_gens == tuple(by_action)


def test_nilpotency_class_of_trivial_group():
    assert permgroup.nilpotency_class(permgroup.trivial_group(2)) == 0


def test_nilpotency_class_of_s3_is_absent():
    g = permgroup.closure([(1, 0, 2), (1, 2, 0)])
    assert g.order == 6
    assert permgroup.nilpotency_class(g) is None


def test_nilpotency_class_of_q8_regular_representation():
    g = grouptables.regular_representation(grouptables.quaternion_8())
    assert permgroup.nilpotency_class(g) == 2


def test_derived_length_of_trivial_group():
    assert permgroup.derived_length(permgroup.trivial_group(1)) == 0


def test_derived_length_of_s3():
    g = permgroup.closure([(1, 0, 2), (1, 2, 0)])
    assert permgroup.derived_length(g) == 2


def test_derived_length_of_a5_is_absent():
    g = permgroup.closure([(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)])
    assert g.order == 60
    assert permgroup.derived_length(g) is None


def test_derived_series_orders_match_oracle():
    for gens in ([(1, 0, 2), (1, 2, 0)],
                 [(1, 2, 3, 0), (1, 0, 3, 2)],
                 [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]):
        series = permgroup.derived_series(permgroup.closure(gens))
        assert [g.order for g in series] == _oracles.derived_chain_orders(gens)


def test_nilpotent_implies_solvable_with_smaller_length():
    g = grouptables.regular_representation(grouptables.dihedral_group(4))
    cls = permgroup.nilpotency_class(g)
    length = permgroup.derived_length(g)
    assert cls == 2
    assert length is not None and length <= cls


def test_semiregular_groups():
    assert permgroup.is_semiregular(permgroup.trivial_group(5))
    d3 = core.dihedral(3)
    assert permgroup.is_semiregular(congruence.trans(d3))
    assert not permgroup.is_semiregular(congruence.inn(d3))


def test_cycle_type():
    assert permgroup.cycle_type((1, 0, 3, 2)) == (2, 2)
    assert permgroup.cycle_type((0, 1, 2)) == (1, 1, 1)
    assert permgroup.cycle_type((1, 2, 0, 4, 3)) == (3, 2)


def test_is_abelian_matches_all_element_pairs():
    verdicts = set()
    s3 = permgroup.closure([(1, 0, 2), (1, 2, 0)])
    groups = [s3] + [group for q in corpus.default_corpus()
                     for group in (congruence.inn(q), congruence.trans(q))]
    for group in groups:
        want = _oracles.is_abelian_by_elements(list(group.elements))
        assert group.is_abelian() == want, group
        verdicts.add(want)
    assert verdicts == {True, False}
