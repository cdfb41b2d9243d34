"""Finite group tables: validation, structure constants, and presets."""

import hashlib
from itertools import combinations

import pytest

import _oracles
from quandles import core, corpus, grouptables, permgroup
from quandles.errors import NotAGroup, NotClosed


def test_validate_group_accepts_presets():
    for table in (grouptables.cyclic(1), grouptables.cyclic(5),
                  grouptables.symmetric_group(3), grouptables.quaternion_8(),
                  grouptables.alternating_group_4(), grouptables.heisenberg_3()):
        assert grouptables.validate_group(table) == tuple(tuple(r) for r in table)


def test_validate_group_rejects_broken_tables():
    with pytest.raises(NotAGroup):
        grouptables.validate_group([[0, 1], [1, 1]])
    # latin square without associativity: the smallest loop that is not a group
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(NotAGroup):
        grouptables.validate_group(loop)


def test_identity_and_inverses():
    q8 = grouptables.quaternion_8()
    e = grouptables.identity_of(q8)
    inv = grouptables.inverses_of(q8)
    for x in range(8):
        assert q8[x][inv[x]] == e
        assert q8[inv[x]][x] == e


def test_power():
    c6 = grouptables.cyclic(6)
    assert grouptables.power(c6, 1, 0) == 0
    assert grouptables.power(c6, 1, 4) == 4
    assert grouptables.power(c6, 2, 3) == 0
    assert grouptables.power(c6, 1, -1) == 5


def test_power_matches_the_naive_loop():
    for name, table in corpus.builtin_groups():
        e = grouptables.identity_of(table)
        inv = grouptables.inverses_of(table)
        for a in range(len(table)):
            for k in range(-20, 21):
                acc = e
                for _ in range(abs(k)):
                    acc = table[acc][a if k > 0 else inv[a]]
                assert grouptables.power(table, a, k) == acc, (name, a, k)


def test_commutator_in_abelian_groups_is_identity():
    c12 = grouptables.direct_product(grouptables.cyclic(3), grouptables.cyclic(4))
    e = grouptables.identity_of(c12)
    for x in range(12):
        for y in range(12):
            assert grouptables.commutator(c12, x, y) == e


def test_engel_bracket_matches_direct_recomputation():
    for table in (grouptables.symmetric_group(3), grouptables.quaternion_8(),
                  grouptables.dihedral_group(8)):
        size = len(table)
        inv = grouptables.inverses_of(table)
        for a in range(size):
            for b in range(0, size, 3):
                for n in (0, 1, 2, 3):
                    want = _oracles.engel_bracket_direct(table, a, b, n)
                    assert grouptables.engel_bracket(table, a, b, n) == want
                    assert grouptables.engel_bracket(table, a, b, n, inv) == want


def test_engel_bracket_depth_zero_returns_first_argument():
    s3 = grouptables.symmetric_group(3)
    for a in range(6):
        assert grouptables.engel_bracket(s3, a, 2, 0) == a


def test_two_engel_groups():
    # class <= 2 makes the whole group a 2-Engel subset
    for table in (grouptables.quaternion_8(), grouptables.dihedral_group(4),
                  grouptables.heisenberg_3()):
        assert grouptables.is_n_engel_subset(table, range(len(table)), 2)
    # the order-16 dihedral group has class 3 and fails at 2
    d16 = grouptables.dihedral_group(8)
    assert not grouptables.is_n_engel_subset(d16, range(16), 2)
    assert grouptables.is_n_engel_subset(d16, range(16), 3)


def test_non_nilpotent_groups_are_never_engel():
    s3 = grouptables.symmetric_group(3)
    for n in range(1, 7):
        assert not grouptables.is_n_engel_subset(s3, range(6), n)


def test_conjugacy_classes_of_s3():
    s3 = grouptables.symmetric_group(3)
    assert grouptables.conjugacy_classes(s3) == ((0,), (1, 3, 4), (2, 5))


def test_conjugacy_class_sizes_of_q8():
    q8 = grouptables.quaternion_8()
    sizes = sorted(len(c) for c in grouptables.conjugacy_classes(q8))
    assert sizes == [1, 1, 2, 2, 2]


def test_regular_representation_is_faithful_and_regular():
    table = grouptables.dihedral_group(6)
    rep = permgroup.closure(table)
    group = permgroup.closure(rep.generators)
    assert group.order == 12
    # transitive of order equal to the degree: every point's stabilizer is 1
    assert permgroup.orbits(group.generators) == (tuple(range(12)),)


def test_nilpotency_class_values():
    cases = [
        (grouptables.cyclic(1), 0),
        (grouptables.cyclic(8), 1),
        (grouptables.direct_product(grouptables.cyclic(2), grouptables.cyclic(2)), 1),
        (grouptables.dihedral_group(4), 2),
        (grouptables.quaternion_8(), 2),
        (grouptables.heisenberg_3(), 2),
        (grouptables.dihedral_group(8), 3),
        (grouptables.symmetric_group(3), None),
        (grouptables.alternating_group_4(), None),
    ]
    for table, expected in cases:
        assert permgroup.nilpotency_class(permgroup.closure(table)) == expected


def test_derived_length_values():
    cases = [
        (grouptables.cyclic(1), 0),
        (grouptables.cyclic(7), 1),
        (grouptables.symmetric_group(3), 2),
        (grouptables.alternating_group_4(), 2),
        (grouptables.quaternion_8(), 2),
        (grouptables.symmetric_group(4), 3),
    ]
    for table, expected in cases:
        assert permgroup.derived_length(permgroup.closure(table)) == expected


def _first_escaping_pair(table, subset):
    m = len(table)
    e = next(x for x in range(m) if all(table[x][y] == y for y in range(m)))
    inv = {a: b for a in range(m) for b in range(m) if table[a][b] == e}
    members = sorted(subset)
    for a in members:
        for b in members:
            if table[table[inv[a]][b]][a] not in subset:
                return (a, b)
    return None


def test_conj_subset_not_closed_witness_is_first_escaping_pair():
    s3 = grouptables.symmetric_group(3)
    assert core.conj_subset(s3, (1, 3, 4)).order == 3
    with pytest.raises(NotClosed) as info:
        core.conj_subset(s3, (1, 2))
    assert info.value.witness == _first_escaping_pair(s3, {1, 2})
    # per non-abelian group, the first triple whose escaping pair is not
    # simply its two smallest members
    for name in ("s3-group", "d8-group", "q8-group", "a4-group", "d12-group"):
        table = corpus.builtin_group(name)
        subset = next(set(s) for s in combinations(range(len(table)), 3)
                      if _first_escaping_pair(table, set(s)) not in (None, s[:2]))
        with pytest.raises(NotClosed) as info:
            core.conj_subset(table, subset)
        a, b = info.value.witness
        assert (a, b) == _first_escaping_pair(table, subset), name
        assert str(info.value) == f"conjugate of {b} by element {a} leaves the subset"


def test_class_quandles_are_induced_from_the_whole_group():
    # verify_suite takes each conjugacy class quandle from conj(table)
    for name, table in corpus.builtin_groups():
        whole = core.conj(table)
        for cls in grouptables.conjugacy_classes(table):
            assert (core.induced_subquandle(whole, cls).table
                    == core.conj_subset(table, cls).table), (name, cls)


def test_from_perm_generators_roundtrip():
    table = grouptables.quaternion_8()
    rep = permgroup.closure(table)
    rebuilt = grouptables.from_perm_generators(rep.generators)
    assert len(rebuilt) == 8
    assert permgroup.nilpotency_class(permgroup.closure(rebuilt)) == 2


# Element labels of the builtin permutation-generated groups.  Quandles built
# on them (conj, gen and tree output) read these labels, so they must not
# follow permgroup.closure's insertion order.
S3_TABLE = (
    (0, 1, 2, 3, 4, 5), (1, 0, 4, 5, 2, 3), (2, 3, 5, 4, 1, 0),
    (3, 2, 1, 0, 5, 4), (4, 5, 3, 2, 0, 1), (5, 4, 0, 1, 3, 2),
)
A4_TABLE = (
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11),
    (1, 3, 5, 0, 7, 8, 10, 11, 2, 6, 9, 4),
    (2, 4, 0, 6, 1, 9, 3, 8, 7, 5, 11, 10),
    (3, 0, 8, 1, 11, 2, 9, 4, 5, 10, 6, 7),
    (4, 6, 9, 2, 8, 7, 11, 10, 0, 3, 5, 1),
    (5, 7, 1, 10, 3, 6, 0, 2, 11, 8, 4, 9),
    (6, 2, 7, 4, 10, 0, 5, 1, 9, 11, 3, 8),
    (7, 10, 6, 5, 2, 11, 4, 9, 1, 0, 8, 3),
    (8, 11, 3, 9, 0, 10, 1, 5, 4, 2, 7, 6),
    (9, 8, 4, 11, 6, 3, 2, 0, 10, 7, 1, 5),
    (10, 5, 11, 7, 9, 1, 8, 3, 6, 4, 0, 2),
    (11, 9, 10, 8, 5, 4, 7, 6, 3, 1, 2, 0),
)
# sha256 of repr(symmetric_group(4)).
S4_SHA256 = "7bea5514af9f3fddd3bd3f988b21b31074b74eda75a4edd284da29d6e35ccc6e"


def test_from_perm_generators_labels_are_pinned():
    assert grouptables.symmetric_group(3) == S3_TABLE
    assert grouptables.alternating_group_4() == A4_TABLE
    s4 = repr(grouptables.symmetric_group(4)).encode()
    assert hashlib.sha256(s4).hexdigest() == S4_SHA256


def test_preset_orders():
    assert len(grouptables.symmetric_group(4)) == 24
    assert len(grouptables.alternating_group_4()) == 12
    assert len(grouptables.quaternion_8()) == 8
    assert len(grouptables.heisenberg_3()) == 27
    assert len(grouptables.dihedral_group(2)) == 4
    assert len(grouptables.dihedral_group(3)) == 6
