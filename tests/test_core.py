"""Constructors, validation, quotients, and isomorphism search."""

import inspect
import math
import sys
import time
from itertools import combinations_with_replacement, permutations, product

import pytest

import _inputs
import _oracles
from quandles import congruence, core, corpus, grouptables, permgroup
from quandles.errors import (
    AxiomViolation,
    NotACongruence,
    NotAGroup,
    NotAUnit,
    NotClosed,
)

S3 = grouptables.symmetric_group(3)


def test_validate_one_element():
    q = core.validate([[0]])
    assert q.order == 1
    assert q.table == ((0,),)


def test_validate_rejects_constant_rows():
    with pytest.raises(AxiomViolation) as info:
        core.validate([[0, 0], [1, 1]])
    assert info.value.axiom == 2
    assert info.value.witness == (0,)


def test_validate_rejects_broken_idempotence():
    with pytest.raises(AxiomViolation) as info:
        core.validate([[1, 0], [1, 0]])
    assert info.value.axiom == 1
    assert info.value.witness == (0,)


def test_validate_rejects_broken_distributivity():
    # idempotent, rows bijective, yet 0>(1>0) = 1 while (0>1)>(0>0) = 0
    table = [
        [0, 2, 1],
        [2, 1, 0],
        [0, 1, 2],
    ]
    with pytest.raises(AxiomViolation) as info:
        core.validate(table)
    assert info.value.axiom == 3
    assert len(info.value.witness) == 3


def test_validate_rejects_ragged_and_out_of_range_as_axiom_two():
    with pytest.raises(AxiomViolation) as info:
        core.validate([[0, 1], [1]])
    assert info.value.axiom == 2
    with pytest.raises(AxiomViolation) as info:
        core.validate([[0, 2], [1, 1]])
    assert info.value.axiom == 2


def test_validate_rejects_non_integer_entries_as_axiom_two():
    # 0.0 == 0 and {0.0, 1.0} == {0, 1}, so floats would pass the
    # idempotence and bijectivity checks and then fail as tuple indices.
    with pytest.raises(AxiomViolation) as info:
        core.validate([[0.0, 1.0], [0.0, 1.0]])
    assert info.value.axiom == 2
    assert info.value.witness == (0,)
    with pytest.raises(AxiomViolation) as info:
        core.validate([[0, 1], [0, "1"]])
    assert info.value.witness == (1,)


def _verdict(table):
    try:
        core.validate(table)
    except AxiomViolation as exc:
        return exc.axiom, exc.witness
    return None


def _diagonal_fixing_rows(n):
    return [[p for p in permutations(range(n)) if p[a] == a] for a in range(n)]


def test_validate_on_a_generating_set_keeps_verdicts_and_witnesses():
    # distributivity is checked only for the rows of a generating set; the
    # verdict and the witness must still be those of the full ordered scan
    census = [q.table for n in range(1, 6) for q in corpus.enumerate_quandles(n)]
    tables = [q.table for q in corpus.default_corpus()] + census
    for table in census:
        n = len(table)
        for a in range(n):
            for b in range(n):
                # every single-entry change, which breaks a row's bijectivity
                # or its idempotence, and every swap of two entries of a row
                # off the diagonal, which keeps both and so reaches the
                # distributivity check
                for v in range(n):
                    if v != table[a][b]:
                        tables.append(_with_row(table, a, b, v))
                for c in range(b + 1, n):
                    if a not in (b, c):
                        row = list(table[a])
                        row[b], row[c] = row[c], row[b]
                        tables.append(table[:a] + (tuple(row),) + table[a + 1:])
    # every table of order up to 4 whose rows are permutations fixing the
    # diagonal: all pass axioms 1 and 2, few pass 3
    for n in range(1, 5):
        tables.extend(product(*_diagonal_fixing_rows(n)))
    verdicts = set()
    for table in tables:
        want = _oracles.first_axiom_violation(table)
        assert _verdict(table) == want, table
        verdicts.add(None if want is None else want[0])
    assert verdicts == {None, 1, 2, 3}


def _with_row(table, a, b, v):
    row = list(table[a])
    row[b] = v
    return table[:a] + (tuple(row),) + table[a + 1:]


def test_generating_set_generates():
    for q in corpus.default_corpus() + [core.trivial(5), core.dihedral(64)]:
        gens = core._generating_set(q.table)
        assert core.subquandle_closure(q, gens) == tuple(range(q.order)), q.label
        for i in range(1, len(gens)):
            assert gens[i] not in core.subquandle_closure(q, gens[:i]), q.label
    assert core._generating_set(core.trivial(5).table) == [0, 1, 2, 3, 4]
    assert core._generating_set(core.dihedral(64).table) == [0, 1]


def test_trivial_rows_are_identity():
    q = core.trivial(3)
    for row in q.table:
        assert row == (0, 1, 2)


def test_trivial_inner_group_is_trivial():
    assert congruence.inn(core.trivial(4)).order == 1


def test_affine_matches_dihedral_at_minus_one():
    for n in (2, 3, 4, 5, 7, 9):
        assert core.affine(n, n - 1).table == core.dihedral(n).table


def test_affine_identity_multiplier_is_trivial():
    assert core.affine(5, 1).table == core.trivial(5).table


def test_affine_five_two_is_connected():
    q = core.affine(5, 2)
    assert len(permgroup.orbits(q.table)) == 1


def test_affine_rejects_non_units():
    with pytest.raises(NotAUnit):
        core.affine(6, 2)
    with pytest.raises(NotAUnit):
        core.affine(6, 3)


def test_dihedral_two_is_trivial():
    assert core.is_isomorphic(core.dihedral(2), core.trivial(2)) is not None


def test_dihedral_four_orbits_and_halves():
    q = core.dihedral(4)
    parts = permgroup.orbits(q.table)
    assert parts == ((0, 2), (1, 3))
    for part in parts:
        half = core.induced_subquandle(q, part)
        assert core.is_isomorphic(half, core.dihedral(2)) is not None


def test_dihedral_three_is_connected():
    assert len(permgroup.orbits(core.dihedral(3).table)) == 1


def test_conj_exponent_zero_is_trivial():
    q = core.conj(S3, 0)
    assert q.table == core.trivial(6).table


def test_conj_s3_orbits_are_conjugacy_classes():
    q = core.conj(S3, 1)
    parts = permgroup.orbits(q.table)
    assert tuple(sorted(len(p) for p in parts)) == (1, 2, 3)
    assert tuple(sorted(parts)) == tuple(sorted(grouptables.conjugacy_classes(S3)))


def test_conj_abelian_group_is_trivial():
    c2 = grouptables.cyclic(2)
    assert core.conj(c2, 1).table == core.trivial(2).table


def test_conj_rejects_non_groups():
    with pytest.raises(NotAGroup):
        core.conj([[0, 1], [1, 1]], 1)


def test_conj_subset_transpositions_of_s3():
    classes = grouptables.conjugacy_classes(S3)
    transpositions = next(c for c in classes if len(c) == 3)
    q = core.conj_subset(S3, transpositions)
    assert core.is_isomorphic(q, core.dihedral(3)) is not None


def test_conj_subset_identity_singleton():
    q = core.conj_subset(S3, (grouptables.identity_of(S3),))
    assert q.order == 1


def test_conj_subset_three_cycles_commute():
    classes = grouptables.conjugacy_classes(S3)
    cycles = next(c for c in classes if len(c) == 2)
    q = core.conj_subset(S3, cycles)
    assert q.table == core.trivial(2).table


def test_conj_subset_rejects_open_subsets():
    classes = grouptables.conjugacy_classes(S3)
    transpositions = next(c for c in classes if len(c) == 3)
    cycles = next(c for c in classes if len(c) == 2)
    mixed = (transpositions[0], cycles[0])
    with pytest.raises(NotClosed):
        core.conj_subset(S3, mixed)


def test_conj_subset_rejects_empty_and_foreign_subsets():
    for subset in ((), (6,), (-1, 1)):
        with pytest.raises(ValueError):
            core.conj_subset(S3, subset)


@pytest.mark.parametrize("subset", [[-1, 1], [2], []])
def test_induced_subquandle_rejects_empty_and_foreign_subsets(subset):
    with pytest.raises(ValueError):
        core.induced_subquandle(core.trivial(2), subset)


def test_conj_exponent_is_read_modulo_element_orders():
    q8 = grouptables.quaternion_8()
    start = time.perf_counter()
    big = core.conj(q8, 10**12 + 1)
    assert time.perf_counter() - start < 1.0
    assert big.table == core.conj(q8, 1).table


def test_disjoint_union_of_points():
    q = core.disjoint_union(core.trivial(1), core.trivial(1))
    assert q.table == core.trivial(2).table


def test_disjoint_union_cross_terms():
    q = core.disjoint_union(core.dihedral(3), core.dihedral(4))
    for a in range(3):
        for b in range(3, 7):
            assert q.table[a][b] == b
            assert q.table[b][a] == a
    assert q.order == 7


def test_disjoint_union_orbits_concatenate():
    q1, q2 = core.dihedral(4), core.dihedral(4)
    q = core.disjoint_union(q1, q2)
    parts = permgroup.orbits(q.table)
    shifted = tuple(tuple(x + 4 for x in p) for p in permgroup.orbits(q2.table))
    assert parts == permgroup.orbits(q1.table) + shifted


def test_direct_product_with_point_is_identity():
    q = core.dihedral(5)
    prod = core.direct_product(core.trivial(1), q)
    assert core.is_isomorphic(prod, q) is not None


def test_direct_product_of_connected_is_connected():
    prod = core.direct_product(core.dihedral(3), core.dihedral(3))
    assert len(permgroup.orbits(prod.table)) == 1


def test_direct_product_componentwise():
    q1, q2 = core.dihedral(3), core.trivial(2)
    prod = core.direct_product(q1, q2)
    for a1 in range(3):
        for a2 in range(2):
            for b1 in range(3):
                for b2 in range(2):
                    left = prod.table[a1 * 2 + a2][b1 * 2 + b2]
                    assert left == q1.table[a1][b1] * 2 + q2.table[a2][b2]


def test_subquandle_closure_of_singleton():
    q = core.dihedral(6)
    for a in range(6):
        assert core.subquandle_closure(q, (a,)) == (a,)


def test_subquandle_closure_spans_dihedral_four():
    assert core.subquandle_closure(core.dihedral(4), (0, 1)) == (0, 1, 2, 3)


def test_subquandle_closure_in_trivial_is_identity():
    q = core.trivial(5)
    assert core.subquandle_closure(q, (1, 3)) == (1, 3)


def test_quotient_by_identity_partition():
    q = core.dihedral(4)
    image, proj = core.quotient(q, [[0], [1], [2], [3]])
    assert image.order == 4
    assert core.is_isomorphic(image, q) is not None
    assert proj == (0, 1, 2, 3)


def test_quotient_by_full_partition():
    image, proj = core.quotient(core.dihedral(4), [[0, 1, 2, 3]])
    assert image.order == 1
    assert proj == (0, 0, 0, 0)


def test_quotient_by_orbit_partition():
    q = core.dihedral(4)
    image, proj = core.quotient(q, permgroup.orbits(q.table))
    assert image.table == core.trivial(2).table
    assert proj == (0, 1, 0, 1)


def test_quotient_projection_is_homomorphism():
    q = core.dihedral(8)
    partition = permgroup.orbits(q.table)
    image, proj = core.quotient(q, partition)
    for a in range(q.order):
        for b in range(q.order):
            assert proj[q.table[a][b]] == image.table[proj[a]][proj[b]]


def test_quotient_rejects_non_congruences():
    with pytest.raises(NotACongruence) as info:
        core.quotient(core.dihedral(3), [[0, 1], [2]])
    assert info.value.witness is not None


def test_is_isomorphic_finds_relabelings():
    q = core.dihedral(5)
    relabel = (2, 0, 4, 1, 3)
    inverse = [0] * 5
    for i, v in enumerate(relabel):
        inverse[v] = i
    table = tuple(
        tuple(relabel[q.table[inverse[a]][inverse[b]]] for b in range(5))
        for a in range(5)
    )
    other = core.validate(table)
    mapping = core.is_isomorphic(q, other)
    assert mapping is not None
    for a in range(5):
        for b in range(5):
            assert mapping[q.table[a][b]] == other.table[mapping[a]][mapping[b]]


def test_is_isomorphic_distinguishes_trivial_from_dihedral():
    assert core.is_isomorphic(core.trivial(3), core.dihedral(3)) is None


def test_is_isomorphic_is_reflexive_and_symmetric():
    quandles = [core.dihedral(4), core.trivial(4), core.affine(5, 2)]
    for q in quandles:
        assert core.is_isomorphic(q, q) is not None
    for q1 in quandles:
        for q2 in quandles:
            forward = core.is_isomorphic(q1, q2)
            backward = core.is_isomorphic(q2, q1)
            assert (forward is None) == (backward is None)


def test_is_isomorphic_depth_is_not_bounded_by_recursion():
    # 128 positions to fill, 50 frames to spare
    q = core.dihedral(128)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        mapping = core.is_isomorphic(q, q)
    finally:
        sys.setrecursionlimit(limit)
    assert mapping is not None


class TestConstructorsBuildQuandles:
    """Every constructor returns a quandle without calling validate.

    Each table is pinned against the independent three-axiom scan instead.
    """

    def test_families(self, monkeypatch):
        _inputs.refuse_validate(monkeypatch)
        built = [core.trivial(n) for n in range(1, 7)]
        built += [core.affine(n, t) for n in range(1, 13)
                  for t in range(n) if math.gcd(t, n) == 1]
        built += [core.dihedral(n) for n in range(1, 17)]
        for q in built:
            assert _oracles.is_quandle_table(q.table), q.label

    def test_conjugation_quandles(self, monkeypatch):
        _inputs.refuse_validate(monkeypatch)
        for name, group in corpus.builtin_groups():
            for k in range(-1, 4):
                q = core.conj(group, k)
                assert _oracles.is_quandle_table(q.table), (name, k)
                for cls in grouptables.conjugacy_classes(group):
                    q = core.conj_subset(group, cls, k)
                    assert _oracles.is_quandle_table(q.table), (name, cls, k)

    def test_unions_and_products(self, monkeypatch):
        small = [q for q in map(corpus.builtin_quandle, corpus.builtin_quandle_names())
                 if q.order <= 6]
        _inputs.refuse_validate(monkeypatch)
        for q1, q2 in combinations_with_replacement(small, 2):
            for q in (core.disjoint_union(q1, q2), core.direct_product(q1, q2)):
                assert _oracles.is_quandle_table(q.table), q.label

    def test_the_patch_reaches_outside_tables(self, monkeypatch):
        _inputs.refuse_validate(monkeypatch)
        with pytest.raises(AssertionError):
            corpus.builtin_quandle("paper-example-16")
