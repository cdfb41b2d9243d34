"""Tests for the builtin registry and the exhaustive census."""

import hashlib
from itertools import permutations

import pytest

import _inputs
import _oracles
from quandles import congruence, core, corpus, grouptables, permgroup
from quandles.errors import CapExceeded, UnknownName


class TestBuiltinRegistry:
    def test_quandle_names_are_stable(self):
        names = corpus.builtin_quandle_names()
        assert len(names) == 24
        assert len(set(names)) == 24
        for expected in ["t1", "d3", "d16", "affine-5-2", "conj-q8",
                         "s3-transpositions", "d4-plus-d4", "d3-times-d3",
                         "paper-example-16"]:
            assert expected in names

    def test_group_names_carry_suffix(self):
        names = corpus.builtin_group_names()
        assert len(names) == 16
        assert all(name.endswith("-group") for name in names)
        for expected in ["s3-group", "q8-group", "h27-group", "s4-group"]:
            assert expected in names

    def test_labels_match_registry_names(self):
        for name in corpus.builtin_quandle_names():
            assert corpus.builtin_quandle(name).label == name

    def test_unknown_names_rejected_with_listing(self):
        with pytest.raises(UnknownName) as info:
            corpus.builtin_quandle("not-a-thing")
        message = str(info.value)
        assert "not-a-thing" in message
        assert "d3" in message

    def test_quandle_lookup_rejects_group_names(self):
        with pytest.raises(UnknownName):
            corpus.builtin_quandle("q8-group")
        with pytest.raises(UnknownName):
            corpus.builtin_group("d3")

    def test_every_builtin_quandle_passes_validation(self):
        for name in corpus.builtin_quandle_names():
            q = corpus.builtin_quandle(name)
            assert core.validate(q.table).table == q.table, name

    def test_every_builtin_group_passes_validation(self):
        for name, table in corpus.builtin_groups():
            assert grouptables.validate_group(table) == table, name

    def test_group_pairs_align_with_names(self):
        pairs = corpus.builtin_groups()
        assert [name for name, _ in pairs] == list(corpus.builtin_group_names())

    def test_sixteen_element_member_shape(self):
        q = corpus.builtin_quandle("paper-example-16")
        assert q.order == 16
        sizes = sorted((len(o) for o in permgroup.orbits(q.table)),
                       reverse=True)
        assert sizes == [8, 4, 4]

    def test_dihedral_entries_match_family_builders(self):
        assert corpus.builtin_quandle("d6").table == core.dihedral(6).table
        assert corpus.builtin_quandle("t4").table == core.trivial(4).table
        assert (corpus.builtin_quandle("affine-7-3").table
                == core.affine(7, 3).table)


class TestDefaultCorpus:
    def test_default_is_the_builtin_registry(self):
        members = corpus.default_corpus()
        assert [q.label for q in members] == list(corpus.builtin_quandle_names())

    def test_exhaustive_block_appends_census(self):
        spec = corpus.CorpusSpec(exhaustive_up_to=3)
        members = corpus.default_corpus(spec)
        builtins = len(corpus.builtin_quandle_names())
        assert [q.label for q in members[:builtins]] == list(corpus.builtin_quandle_names())
        assert [q.order for q in members[builtins:]] == [1, 2, 3, 3, 3]

    def test_spec_defaults(self):
        spec = corpus.CorpusSpec()
        assert spec.exhaustive_up_to == 0
        assert spec.enumeration_cap == corpus.DEFAULT_ENUMERATION_CAP


@pytest.fixture(scope="module")
def order_six():
    """The order-6 census, enumerated once with validate refused."""
    with pytest.MonkeyPatch.context() as patch:
        _inputs.refuse_validate(patch)
        return corpus.enumerate_quandles(6)


def _digest(members):
    text = repr([(q.label, q.table) for q in members])
    return hashlib.sha256(text.encode()).hexdigest()


class TestEnumerateQuandles:
    def test_census_counts_through_order_five(self):
        assert [len(corpus.enumerate_quandles(n))
                for n in range(1, 6)] == [1, 1, 3, 7, 22]

    def test_order_six_has_73_classes_two_connected(self, order_six):
        # OEIS A181769 and A181771
        assert len(order_six) == 73
        assert sum(len(permgroup.orbits(q.table)) == 1 for q in order_six) == 2

    def test_census_is_byte_identical_to_the_scanning_search(self, order_six):
        # Digests of the tables, labels and order that the earlier search,
        # which re-scanned distributivity after every row, produced.
        assert _digest(corpus.enumerate_quandles(5)) == (
            "a88ceeebaae452a4e771c8df3238bec66b2a3541ee8e9bdb443319191f74699a")
        assert _digest(order_six) == (
            "a06cd6c09d179fe1a346720ee175249727bdf1173e452097361814881b6c6145")

    def test_complete_and_irredundant_up_to_order_four(self):
        for n in range(1, 5):
            found = corpus.enumerate_quandles(n)
            canon = {_oracles.canonical_form(q.table) for q in found}
            assert len(canon) == len(found), n
            everything = {_oracles.canonical_form(t)
                          for t in _oracles.all_quandle_tables(n)}
            assert canon == everything, n

    def test_census_keeps_the_first_table_of_each_class(self):
        # Rows are tried in the order all_quandle_tables uses, so each class
        # is represented by its first table, and classes come in that order.
        for n in range(1, 5):
            first: dict = {}
            for table in _oracles.all_quandle_tables(n):
                first.setdefault(_oracles.canonical_form(table), table)
            found = corpus.enumerate_quandles(n)
            assert [q.table for q in found] == list(first.values()), n
            assert [q.label for q in found] == [
                f"enum{n}-{i}" for i in range(len(found))], n

    def test_search_yields_the_quandle_tables_with_a_representative_row_0(
            self):
        for n in range(1, 5):
            reps = corpus._row0_representatives(n)
            assert list(corpus._quandle_tables(n)) == [
                t for t in _oracles.all_quandle_tables(n) if t[0] in reps], n

    def test_row_0_representatives_are_the_least_of_their_classes(self):
        # one per cycle type on the other n - 1 points: partitions of n - 1
        for n, count in zip(range(1, 7), [1, 1, 2, 3, 5, 7]):
            reps = corpus._row0_representatives(n)
            assert len(reps) == count and reps == sorted(reps), n
            stabiliser = [s for s in permutations(range(n)) if s[0] == 0]
            for p in stabiliser:
                conjugates = {permgroup.compose(permgroup.compose(s, p),
                                                permgroup.inverse(s))
                              for s in stabiliser}
                (rep,) = conjugates.intersection(reps)
                assert rep == min(conjugates), (n, p)

    def test_order_three_classes_include_the_familiar_pair(self):
        found = corpus.enumerate_quandles(3)
        assert any(core.is_isomorphic(q, core.trivial(3)) is not None
                   for q in found)
        assert any(core.is_isomorphic(q, core.dihedral(3)) is not None
                   for q in found)

    def test_members_carry_census_labels(self):
        labels = [q.label for q in corpus.enumerate_quandles(3)]
        assert labels == ["enum3-0", "enum3-1", "enum3-2"]

    def test_nonpositive_order_rejected(self):
        with pytest.raises(ValueError):
            corpus.enumerate_quandles(0)
        with pytest.raises(ValueError):
            corpus.enumerate_quandles(-2)

    def test_orders_beyond_the_cap_rejected(self):
        with pytest.raises(CapExceeded):
            corpus.enumerate_quandles(7)
        assert len(corpus.enumerate_quandles(3, cap=3)) == 3
        with pytest.raises(CapExceeded):
            corpus.enumerate_quandles(4, cap=3)


class TestBuiltByConstruction:
    """Quotients and the census are quandles without calling validate.

    Each table is pinned against the independent three-axiom scan, and each
    quotient table is also one that validate accepts unchanged.
    """

    def test_quotients_by_every_congruence(self, monkeypatch):
        members = corpus.default_corpus(corpus.CorpusSpec(exhaustive_up_to=5))
        lattices = [(q, congruence.all_congruences(q))
                    for q in members if q.order <= 8]
        _inputs.refuse_validate(monkeypatch)
        quotients = [core.quotient(q, cong.classes)[0]
                     for q, lattice in lattices for cong in lattice]
        assert all(_oracles.is_quandle_table(qq.table) for qq in quotients)
        monkeypatch.undo()
        for qq in quotients:
            assert core.validate(qq.table).table == qq.table

    def test_census(self, monkeypatch, order_six):
        # order_six is enumerated with validate refused as well
        _inputs.refuse_validate(monkeypatch)
        members = [q for n in range(1, 6) for q in corpus.enumerate_quandles(n)]
        for q in members + order_six:
            assert _oracles.is_quandle_table(q.table), q.label
