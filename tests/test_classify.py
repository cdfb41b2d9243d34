"""Tests for the predicate layer: degrees, structure flags, and the suite."""

import hashlib
import math
import random
import time
from collections import Counter

import pytest

import _inputs
import _oracles
from quandles import (
    classify, congruence, core, corpus, grouptables, orbitseries, permgroup)
from quandles.classify import ClassificationReport, CheckResult, SuiteReport
from quandles.errors import CapExceeded, InconsistentCharacterizations


def _builtin(name):
    return corpus.builtin_quandle(name)


class TestIsNReductive:
    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            classify.is_n_reductive(core.trivial(3), -1)

    def test_degree_zero_holds_only_for_singleton(self):
        assert classify.is_n_reductive(core.trivial(1), 0)
        assert not classify.is_n_reductive(core.trivial(2), 0)
        assert not classify.is_n_reductive(core.dihedral(4), 0)

    def test_trivial_quandles_are_one_reductive(self):
        for n in range(2, 6):
            assert classify.is_n_reductive(core.trivial(n), 1)

    def test_dihedral_four_needs_degree_two(self):
        d4 = core.dihedral(4)
        assert not classify.is_n_reductive(d4, 1)
        assert classify.is_n_reductive(d4, 2)

    def test_monotone_in_the_degree(self):
        d4 = core.dihedral(4)
        verdicts = [classify.is_n_reductive(d4, n) for n in range(6)]
        assert verdicts == [False, False, True, True, True, True]

    def test_sixteen_element_example_bounds(self):
        q = _builtin("paper-example-16")
        assert classify.is_n_reductive(q, 5)
        assert not classify.is_n_reductive(q, 3)
        assert classify.is_n_reductive(q, 4)

    def test_agrees_with_folded_product_oracle(self):
        for name in ["t1", "t3", "d3", "d4", "conj-q8", "s3-transpositions"]:
            q = _builtin(name)
            want = _oracles.reductive_degree_by_folds(q.table, 4)
            for n in range(1, 5):
                expected = want is not None and n >= want
                assert classify.is_n_reductive(q, n) == expected, (name, n)


class TestReductiveDegree:
    def test_singleton_has_degree_zero(self):
        assert classify.reductive_degree(core.trivial(1)) == 0

    def test_larger_trivial_quandles_have_degree_one(self):
        for n in range(2, 6):
            assert classify.reductive_degree(core.trivial(n)) == 1

    def test_dihedral_powers_of_two(self):
        for k in range(1, 5):
            assert classify.reductive_degree(core.dihedral(2 ** k)) == k

    def test_conjugation_on_quaternions(self):
        assert classify.reductive_degree(_builtin("conj-q8")) == 2

    def test_connected_nontrivial_quandles_have_no_degree(self):
        for name in ["d3", "affine-5-2", "s3-transpositions", "d3-times-d3"]:
            assert classify.reductive_degree(_builtin(name)) is None, name

    def test_sixteen_element_example_minimal_degree(self):
        assert classify.reductive_degree(_builtin("paper-example-16")) == 4

    def test_matches_folded_product_oracle(self):
        for name in ["t1", "t2", "t3", "d3", "d4", "d6", "conj-q8"]:
            q = _builtin(name)
            assert (classify.reductive_degree(q)
                    == _oracles.reductive_degree_by_folds(q.table, 6)), name

    def test_no_local_degree_settles_identity_route_without_layers(
            self, monkeypatch):
        # dihedral(3) is connected, so no R_b^k is ever constant and no
        # composite layer can be; the layers must not be built at all.
        def refuse(*args, **kwargs):
            raise AssertionError("composite layers built")

        monkeypatch.setattr(classify, "_first_constant_layer", refuse)
        assert classify.reductive_degree(core.dihedral(3)) is None


class TestAffineClosedForms:
    """affine(n, t) on Z_n, x > y = t(y - x) + x, against closed forms.

    Write s = 1 - t, so x > y = sx + ty.  The orbit of y is y + sZ_n, a
    coset of the subgroup generated by gcd(n, s); and a k-fold product
    (a > c_1) ... > c_k depends on a only through s^k a, so the reductive
    degree is the least k >= 1 with n | s^k (0 for the one-point quandle).
    """

    def test_every_unit_multiplier_up_to_forty(self):
        units = [(n, t) for n in range(1, 41) for t in range(n)
                 if math.gcd(n, t) == 1]
        assert len(units) == 490
        for n, t in units:
            rep = classify.classify(core.affine(n, t))
            degree = 0 if n == 1 else next(
                (k for k in range(1, n) if pow(1 - t, k, n) == 0), None)
            g = math.gcd(n, 1 - t)
            assert rep.reductive_degree == degree, (n, t)
            assert rep.orbit_sizes == (n // g,) * g, (n, t)


class TestFirstConstantLayer:
    def test_partition_refinement_matches_map_layers(self):
        members = [(q.label, q) for q in corpus.default_corpus(
            corpus.CorpusSpec(exhaustive_up_to=5))]
        members += _inputs.classify_workload_inputs() + _inputs.dihedral_powers_of_two(7)
        verdicts = set()
        for name, q in dict(members).items():
            want = _oracles.first_constant_layer_by_maps(q.table)
            assert classify._first_constant_layer(q) == want, name
            verdicts.add(want is None)
            for k in range(1, 5) if q.order <= 5 else ():
                assert (classify._first_constant_layer(q, max_layer=k)
                        == _oracles.first_constant_layer_by_maps(q.table, k)), (name, k)
        assert verdicts == {True, False}

    def test_dihedral_256_is_eight_reductive(self):
        assert classify.classify(core.dihedral(256)).reductive_degree == 8


class TestLocalReductivity:
    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            classify.is_n_locally_reductive(core.trivial(2), -2)

    def test_degree_zero_holds_only_for_singleton(self):
        assert classify.is_n_locally_reductive(core.trivial(1), 0)
        assert not classify.is_n_locally_reductive(core.trivial(3), 0)

    def test_trivial_quandles_have_degree_one(self):
        for n in range(2, 6):
            assert classify.locally_reductive_degree(core.trivial(n)) == 1

    def test_dihedral_powers_of_two(self):
        for k in range(1, 5):
            assert (classify.locally_reductive_degree(core.dihedral(2 ** k))
                    == k)

    def test_monotone_above_the_degree(self):
        d4 = core.dihedral(4)
        assert classify.locally_reductive_degree(d4) == 2
        assert classify.is_n_locally_reductive(d4, 3)
        assert classify.is_n_locally_reductive(d4, 7)
        assert not classify.is_n_locally_reductive(d4, 1)

    def test_odd_dihedral_never_collapses(self):
        assert classify.locally_reductive_degree(core.dihedral(3)) is None
        assert classify.locally_reductive_degree(core.dihedral(6)) is None

    def test_sixteen_element_example(self):
        q = _builtin("paper-example-16")
        assert classify.locally_reductive_degree(q) == 2
        assert classify.is_n_locally_reductive(q, 2)
        assert not classify.is_n_locally_reductive(q, 1)

    def test_matches_direct_oracle(self):
        # the census holds enum3-1, whose degree 2 is as large as an order-3
        # degree can be
        members = [_builtin(name) for name in [
            "t1", "t3", "d3", "d4", "d6", "d8", "conj-q8", "conj-s3"]]
        members += [q for n in range(1, 5) for q in corpus.enumerate_quandles(n)]
        for q in members:
            degree = classify.locally_reductive_degree(q)
            assert degree == _oracles.locally_reductive_degree_direct(q.table, 8), q.label
            for n in range(q.order + 3):
                expected = degree is not None and degree <= n
                assert classify.is_n_locally_reductive(q, n) == expected, (q.label, n)
                assert (_oracles.is_n_locally_reductive_direct(q.table, n)
                        == expected), (q.label, n)

    def test_huge_degree_is_answered_at_the_order(self):
        # past |Q| the answer no longer changes, so n is clamped to it; the
        # unclamped scan would take n |Q|^2 steps
        start = time.perf_counter()
        assert classify.is_n_locally_reductive(core.dihedral(4), 10 ** 9)
        assert not classify.is_n_locally_reductive(core.dihedral(3), 10 ** 9)
        assert time.perf_counter() - start < 1


class TestStructureFlags:
    def test_affine_is_medial(self):
        assert classify.is_medial(core.affine(5, 2))
        assert classify.is_medial(core.dihedral(7))

    def test_conjugation_on_s3_is_not_medial(self):
        assert not classify.is_medial(_builtin("conj-s3"))

    def test_medial_iff_transvection_group_abelian(self):
        # gather_facts reads medial off the transvection group; the
        # identity scan is the independent route
        s3 = grouptables.symmetric_group(3)
        extra = [core.dihedral(2 ** k) for k in range(7)]
        extra += [core.affine(43, 3),
                  core.conj(grouptables.direct_product(s3, s3))]
        spec = corpus.CorpusSpec(exhaustive_up_to=5)
        verdicts = set()
        for q in corpus.default_corpus(spec) + extra:
            medial = classify.is_medial(q)
            assert classify.gather_facts(q).medial == medial, q.label
            verdicts.add(medial)
        assert verdicts == {True, False}

    def test_identity_scan_matches_the_quadruple_oracle(self):
        # b < c suffices because swapping b and c swaps the two sides; that
        # holds for any square table, so perturbed ones are pinned too
        members = (_inputs.census_verify_members(0)
                   + _inputs.census_verify_members(1))
        rng = random.Random(0)
        perturbed = []
        for q in members:
            rows = [list(row) for row in q.table]
            a = rng.randrange(q.order)
            if q.order > 1:
                i, j = rng.sample(range(q.order), 2)
                rows[a][i], rows[a][j] = rows[a][j], rows[a][i]
            perturbed.append(core.Quandle(tuple(map(tuple, rows))))
        verdicts = Counter()
        for q in members + perturbed:
            medial = classify.is_medial(q)
            assert medial == _oracles.is_medial_by_quadruples(q.table), q
            verdicts[medial] += 1
        assert verdicts[True] > 100 and verdicts[False] > 100

    def test_classify_does_not_run_the_identity_scan(self, monkeypatch):
        def refuse(q):
            raise AssertionError("classify ran the O(n^4) medial scan")

        monkeypatch.setattr(classify, "is_medial", refuse)
        for q in (core.dihedral(16), core.affine(7, 3), _builtin("conj-s3")):
            assert classify.classify(q).order == q.order

    def test_classify_reads_ncs_off_the_orbit_tree(self, monkeypatch):
        def refuse(q):
            raise AssertionError("classify ran the subquandle scan")

        monkeypatch.setattr(orbitseries, "is_ncs", refuse)
        # the bound is 12, and the corpus has members of order 12 and 16
        members = corpus.default_corpus()
        assert {12, 16} <= {q.order for q in members}
        for q in members:
            rep = classify.classify(q)
            if q.order <= 12:
                assert rep.ncs == (rep.tos_degree is not None), q.label
            else:
                assert rep.ncs is None, q.label

    def test_orbit_fields_match_the_closed_groups(self):
        # gather_facts reads the Inn orbits off the orbit tree and the Trans
        # orbits off O^1; here both come from generators of the closed
        # groups.  A trivial group has no generators: its orbits are points.
        def group_orbits(group):
            if not group.generators:
                return tuple((x,) for x in range(group.degree))
            return permgroup.orbits(group.generators)

        members = [(q.label, q) for q in corpus.default_corpus()]
        for name, q in members + _inputs.classify_workload_inputs():
            inn, trans = congruence.inn(q), congruence.trans(q)
            inn_orbits, trans_orbits = group_orbits(inn), group_orbits(trans)
            facts = classify.gather_facts(q)
            assert facts.inn_orbits == inn_orbits, name
            assert facts.trans_orbits == trans_orbits, name
            assert facts.orbit_sizes == tuple(
                sorted(map(len, inn_orbits), reverse=True)), name
            assert facts.abelian == (trans.is_abelian() and all(
                len(o) == trans.order for o in trans_orbits)), name

    def test_connected_values(self):
        assert classify.is_connected(core.dihedral(3))
        assert classify.is_connected(core.affine(5, 2))
        assert not classify.is_connected(core.trivial(3))
        assert not classify.is_connected(_builtin("conj-s3"))

    def test_faithful_values(self):
        assert classify.classify(core.dihedral(3)).faithful
        assert classify.classify(core.dihedral(5)).faithful
        assert not classify.classify(core.trivial(2)).faithful
        assert not classify.classify(core.dihedral(4)).faithful

    def test_classify_builds_the_row_equality_congruence_once(self, monkeypatch):
        # faithfulness is read off the L-chain, whose first step is λ(Q)
        calls = Counter()
        lambda_congruence = congruence.lambda_congruence

        def counting(q):
            calls[q.table] += 1
            return lambda_congruence(q)

        monkeypatch.setattr(congruence, "lambda_congruence", counting)
        for q in (core.dihedral(8), core.dihedral(64), core.affine(43, 3)):
            calls.clear()
            congruence.l_chain(q)
            alone = sum(calls.values())
            calls.clear()
            classify.classify(q)
            assert sum(calls.values()) == alone, q.label
            assert calls[q.table] == 1, q.label

    def test_abelian_quandle_values(self):
        assert classify.classify(core.trivial(4)).abelian
        assert classify.classify(core.dihedral(3)).abelian
        assert not classify.classify(_builtin("conj-q8")).abelian
        assert not classify.classify(_builtin("conj-s3")).abelian

    def test_nilpotent_and_solvable_values(self):
        d3 = classify.classify(core.dihedral(3))
        assert d3.nilpotent_quandle
        assert d3.solvable_quandle
        cs3 = classify.classify(_builtin("conj-s3"))
        assert not cs3.nilpotent_quandle
        assert cs3.solvable_quandle

    def test_nilpotent_matches_transvection_group(self):
        for q in corpus.default_corpus():
            group = congruence.trans(q)
            assert (classify.classify(q).nilpotent_quandle
                    == (permgroup.nilpotency_class(group) is not None)), q.label

    def test_group_fields_agree_across_the_byte_table_limit(self):
        # groups of degree 256 are chained as byte tables, above as tuples;
        # a point that every translation fixes changes no group but Trans:
        # its own translation is the identity, so Trans reaches Inn
        fields = ["inn_order", "inn_nilpotency_class", "trans_derived_length",
                  "nilpotent_quandle", "solvable_quandle"]
        union = core.disjoint_union(core.dihedral(128), core.dihedral(128))
        tables = classify.classify(union)
        plus_point = classify.classify(core.disjoint_union(union, core.trivial(1)))
        doubled = classify.classify(core.direct_product(union, core.trivial(2)))
        assert plus_point.order == 257 and doubled.order == 512
        for report in (plus_point, doubled):
            assert ([getattr(report, f) for f in fields]
                    == [getattr(tables, f) for f in fields]), report.label
        assert doubled.trans_order == tables.trans_order
        assert plus_point.trans_order == plus_point.inn_order


def _two_engel(table):
    # the suite passes its Engel bridge's whole-group verdict at n = 2
    return classify._two_engel_verdict(
        grouptables.is_n_engel_subset(table, range(len(table)), 2,
                                      grouptables.inverses_of(table)),
        orbitseries.degrees(core.conj(table)).tos_degree, len(table))


class TestConjTwoEngelCheck:
    # The verdict is on whole groups; the subset cases are restated on the
    # subgroup each subset generates.
    def test_identity_only_subset_passes(self):
        assert _two_engel(grouptables.cyclic(1))

    def test_whole_quaternion_group_passes(self):
        q8 = grouptables.quaternion_8()
        assert _two_engel(q8)

    def test_transpositions_fail(self):
        # the transpositions of S3 generate S3
        assert not _two_engel(grouptables.symmetric_group(3))

    def test_three_cycles_pass(self):
        # the 3-cycles of S3 generate a cyclic group of order 3
        assert _two_engel(grouptables.cyclic(3))

    @pytest.mark.parametrize("name, verdict", [
        ("h27-group", True), ("d8-group", True),
        ("d16-group", False), ("a4-group", False)])
    def test_builtin_group_verdicts(self, name, verdict):
        assert _two_engel(corpus.builtin_group(name)) == verdict

    def test_bracket_and_tree_disagreeing_raise(self):
        with pytest.raises(InconsistentCharacterizations,
                           match="order 8: bracket=True tree=False"):
            classify._two_engel_verdict(True, 3, 8)
        with pytest.raises(InconsistentCharacterizations,
                           match="order 6: bracket=False tree=True"):
            classify._two_engel_verdict(False, 2, 6)


class TestClassifyReports:
    def test_singleton_report(self):
        rep = classify.classify(core.trivial(1))
        assert rep == ClassificationReport(
            order=1, label="trivial(1)", orbit_sizes=(1,), connected=True,
            faithful=True, medial=True, abelian=True, nilpotent_quandle=True,
            solvable_quandle=True, trans_derived_length=0, reductive_degree=0,
            locally_reductive_degree=0, os_degree=0, tos_degree=0, ncs=True,
            inn_order=1, trans_order=1, inn_nilpotency_class=0)

    def test_dihedral_three_report(self):
        rep = classify.classify(_builtin("d3"))
        assert rep.orbit_sizes == (3,)
        assert rep.connected and rep.faithful and rep.medial and rep.abelian
        assert rep.reductive_degree is None
        assert rep.locally_reductive_degree is None
        assert rep.tos_degree is None
        assert rep.os_degree == 0
        assert not rep.ncs
        assert rep.inn_order == 6 and rep.trans_order == 3
        assert rep.inn_nilpotency_class is None
        assert rep.trans_derived_length == 1

    def test_dihedral_six_medial_with_all_degrees_equal(self):
        rep = classify.classify(_builtin("d6"))
        assert rep.medial
        assert (rep.reductive_degree == rep.locally_reductive_degree
                == rep.tos_degree is None)
        assert rep.orbit_sizes == (3, 3)
        assert rep.os_degree == 1
        assert not rep.faithful

    def test_dihedral_eight_medial_with_all_degrees_equal(self):
        rep = classify.classify(_builtin("d8"))
        assert rep.medial
        assert (rep.reductive_degree == rep.locally_reductive_degree
                == rep.tos_degree == 3)
        assert rep.ncs
        assert rep.inn_nilpotency_class == 2

    def test_sixteen_element_example_report(self):
        rep = classify.classify(_builtin("paper-example-16"))
        assert rep.order == 16
        assert rep.orbit_sizes == (8, 4, 4)
        assert not rep.connected and not rep.faithful and not rep.medial
        assert not rep.abelian
        assert rep.nilpotent_quandle and rep.solvable_quandle
        assert rep.trans_derived_length == 2
        assert rep.reductive_degree == 4
        assert rep.locally_reductive_degree == 2
        assert rep.os_degree == 3 and rep.tos_degree == 3
        assert rep.ncs is None
        assert rep.inn_order == 64 and rep.trans_order == 32
        assert rep.inn_nilpotency_class == 3

    def test_conj_q8_report(self):
        rep = classify.classify(_builtin("conj-q8"))
        assert rep.orbit_sizes == (2, 2, 2, 1, 1)
        assert rep.medial and not rep.abelian
        assert rep.reductive_degree == 2 and rep.tos_degree == 2
        assert rep.inn_order == 4 and rep.trans_order == 4
        assert rep.inn_nilpotency_class == 1

    def test_conj_s3_report(self):
        rep = classify.classify(_builtin("conj-s3"))
        assert rep.orbit_sizes == (3, 2, 1)
        assert rep.faithful and not rep.medial
        assert not rep.nilpotent_quandle and rep.solvable_quandle
        assert rep.trans_derived_length == 2
        assert rep.reductive_degree is None
        assert rep.os_degree == 2 and rep.tos_degree is None
        assert not rep.ncs
        assert rep.inn_order == 6 and rep.trans_order == 6

    def test_affine_report(self):
        rep = classify.classify(_builtin("affine-5-2"))
        assert rep.connected and rep.faithful and rep.medial
        assert rep.reductive_degree is None
        assert rep.os_degree == 0
        assert rep.inn_order == 20 and rep.trans_order == 5

    def test_degree_fields_all_present_or_all_absent(self):
        for q in corpus.default_corpus():
            rep = classify.classify(q)
            degs = (rep.locally_reductive_degree, rep.tos_degree,
                    rep.reductive_degree)
            flags = {d is None for d in degs}
            assert len(flags) == 1, q.label
            if degs[0] is not None:
                assert degs[0] <= degs[1] <= degs[2], q.label
                assert rep.tos_degree == rep.os_degree, q.label

    def test_inner_class_tracks_reductive_degree(self):
        for name in ["t1", "t3", "d4", "d8", "conj-q8", "paper-example-16"]:
            rep = classify.classify(_builtin(name))
            assert (rep.inn_nilpotency_class
                    == max(rep.reductive_degree - 1, 0)), name

    def test_label_carried_through(self):
        assert classify.classify(_builtin("d4")).label == "d4"


class TestVerifySuite:
    def test_degrees_run_once_per_distinct_table_within_a_call(self, monkeypatch):
        # members, quotients, class blocks, subquandles, products and the
        # groups' conjugation quandles repeat tables; within one call each table's
        # orbit-tree degrees, lr and O-chain are computed once (the members'
        # own lr and O-chain by gather_facts, a group's conjugation quandle's
        # by the classify() behind the reductive-degree memo), as are the
        # principal series of each (table, x) and the product of each pair
        # of factor tables; a second call computes them again
        tos_calls, lr_calls, chain_calls = Counter(), Counter(), Counter()
        series_calls, product_calls = Counter(), Counter()
        degrees, lr = orbitseries.degrees, classify.locally_reductive_degree
        o_chain = congruence.o_chain
        principal_series = orbitseries.principal_series
        direct_product = core.direct_product

        def counting_degrees(q):
            tos_calls[q.table] += 1
            return degrees(q)

        def counting_lr(q):
            lr_calls[q.table] += 1
            return lr(q)

        def counting_o_chain(q):
            chain_calls[q.table] += 1
            return o_chain(q)

        def counting_series(q, x):
            series_calls[q.table, x] += 1
            return principal_series(q, x)

        def counting_product(*factors):
            product_calls[tuple(f.table for f in factors)] += 1
            return direct_product(*factors)

        members = corpus.default_corpus()  # t2 = d2 = s3-3cycles, d3 = s3-transpositions
        assert len(set(members)) < len(members)
        groups = corpus.builtin_groups()
        monkeypatch.setattr(orbitseries, "degrees", counting_degrees)
        monkeypatch.setattr(classify, "locally_reductive_degree", counting_lr)
        monkeypatch.setattr(congruence, "o_chain", counting_o_chain)
        monkeypatch.setattr(orbitseries, "principal_series", counting_series)
        monkeypatch.setattr(core, "direct_product", counting_product)
        assert classify.verify_suite(members, groups).ok
        assert len(tos_calls) > 50 and max(tos_calls.values()) == 1
        assert len(chain_calls) > 21 and max(chain_calls.values()) == 1
        assert len(series_calls) > 400 and max(series_calls.values()) == 1
        assert len(product_calls) > 30 and max(product_calls.values()) == 1
        # The one exception for lr: a group's conjugation quandle that is no
        # member but is a quotient too (trivial(5) = conj(C5), a quotient of
        # conj-q8) gets its lr from the lr memo and again inside classify().
        assert len(lr_calls) > 50
        assert {t for t, n in lr_calls.items() if n > 1} == {core.trivial(5).table}
        assert max(lr_calls.values()) == 2
        tos_calls.clear()
        lr_calls.clear()
        first = classify.verify_suite(members)
        assert len(tos_calls) > 50 and max(tos_calls.values()) == 1
        assert len(lr_calls) > 50 and max(lr_calls.values()) == 1
        assert classify.verify_suite(members) == first
        assert set(tos_calls.values()) == {2} and set(lr_calls.values()) == {2}

    def test_the_stage_builds_each_subquandle_and_row_congruence_once(
            self, monkeypatch):
        # One induced subquandle per (table, closed subset) serves both
        # subquandle-tos-bounded and the class blocks of the congruences,
        # and a member above CONGRUENCE_MAX_ORDER, which has no lattice to
        # compare λ with, builds λ once: gather_facts' L-chain always
        # builds it first, so one call is that one.  The ncs scan is the
        # mask oracle, so the count reads the stage alone, however the ncs
        # walk finds its orbits.  No groups are passed: the group facts
        # still rebuild the class subquandles of a conjugation quandle that
        # is a member table too, 20 of them on the builtin groups, which
        # this test leaves out of scope.
        builds, rows = Counter(), Counter()
        induced = core.induced_subquandle
        lambda_congruence = congruence.lambda_congruence

        def counting_induced(q, subset):
            builds[q.table, tuple(subset)] += 1
            return induced(q, subset)

        def counting_lambda(q):
            rows[q.table] += 1
            return lambda_congruence(q)

        monkeypatch.setattr(orbitseries, "is_ncs",
                            lambda q: _oracles.is_ncs_by_mask(q.table))
        monkeypatch.setattr(core, "induced_subquandle", counting_induced)
        monkeypatch.setattr(congruence, "lambda_congruence", counting_lambda)
        members = corpus.default_corpus()
        assert classify.verify_suite(members).ok
        assert len(builds) > 200 and sum(builds.values()) == len(builds)
        big = {m.table for m in members
               if m.order > classify.CONGRUENCE_MAX_ORDER}
        assert len(big) > 5 and {rows[t] for t in big} == {1}

    def test_small_corpus_passes_every_check(self):
        members = [_builtin(n)
                   for n in ["t1", "t2", "t3", "d3", "d4", "conj-q8"]]
        groups = [("s3", grouptables.symmetric_group(3)),
                  ("q8", grouptables.quaternion_8())]
        rep = classify.verify_suite(members, groups)
        assert rep.ok
        assert len(rep.results) == 21
        names = [r.name for r in rep.results]
        assert len(set(names)) == len(names)
        for r in rep.results:
            assert r.passed and r.witnesses == ()
            assert r.checked >= 1, r.name

    def test_summary_lines_carry_verdict_and_count(self):
        rep = classify.verify_suite([core.trivial(1), core.dihedral(3)])
        lines = rep.summary().splitlines()
        assert len(lines) == len(rep.results)
        for line, result in zip(lines, rep.results):
            assert line == f"PASS {result.name} (checked {result.checked})"

    def test_summary_renders_failures_with_witnesses(self):
        rep = SuiteReport(results=(
            CheckResult(name="sample-fact", passed=False,
                        witnesses=("order 4 table",), checked=3),))
        assert not rep.ok
        text = rep.summary()
        assert "FAIL sample-fact (checked 3)" in text
        assert "counterexample: order 4 table" in text

    def test_default_corpus_passes(self):
        rep = classify.verify_suite(corpus.default_corpus(),
                                    corpus.builtin_groups())
        assert rep.ok, rep.summary()

    def test_group_route_error_is_a_failing_fact(self, monkeypatch):
        # Q8 is 2-Engel, so the suite asks for the reductive degree of its
        # conjugation quandle; an error there is data, not an abort.
        def disagree(q):
            raise InconsistentCharacterizations("routes disagree")

        monkeypatch.setattr(classify, "reductive_degree", disagree)
        rep = classify.verify_suite([], [("q8-group", grouptables.quaternion_8())])
        fact = next(r for r in rep.results
                    if r.name == "two-engel-conjugation-reductive-by-3")
        assert not fact.passed
        assert fact.checked == 1
        assert fact.witnesses == ("q8-group: routes disagree",)
        assert not rep.ok

    def test_two_engel_cross_check_error_is_a_failing_fact(self, monkeypatch):
        # The bracket and orbit-tree verdicts disagreeing is data too.
        def disagree(by_bracket, whole_tos, order):
            raise InconsistentCharacterizations("verdicts disagree")

        monkeypatch.setattr(classify, "_two_engel_verdict", disagree)
        rep = classify.verify_suite([], [("q8-group", grouptables.quaternion_8())])
        fact = next(r for r in rep.results
                    if r.name == "two-engel-conjugation-reductive-by-3")
        assert not fact.passed
        assert fact.checked == 1
        assert fact.witnesses == ("q8-group: verdicts disagree",)
        assert not rep.ok

    @pytest.mark.parametrize("seed", [0, 1])
    def test_census_verify_fact_counts_are_the_benchmarks(self, seed):
        # the benchmark pins these counts; the per-table stage moves none
        rep = classify.verify_suite(_inputs.census_verify_members(seed),
                                    corpus.builtin_groups())
        assert rep.ok
        assert ({r.name: r.checked for r in rep.results}
                == _inputs.census_verify_fact_counts())

    #: sha256 of repr([(name, passed, checked, witnesses), ...]) of
    #: verify_suite(census_verify_members(0), builtin_groups()), clean and
    #: with a planted defect.  A refactor of the suite leaves all three as
    #: they are; a deliberate change of its output recomputes them.
    CENSUS_VERIFY_DIGESTS = {
        "clean":
            "4996ee0bdc4a34f411f594a79f7e847fa4615d62e8c8906c2224ea68cabdd15f",
        "tos-plus-one":
            "ff7cda2f0834a4e0d2df9e494e4d604c060aceaacff0032c4be3c3572b1867f2",
        "non-congruence":
            "f84776f47a2b74fe8779aa47cf60a23cc3516e7105340d789407382f579797ea",
    }

    @pytest.mark.parametrize("variant", sorted(CENSUS_VERIFY_DIGESTS))
    def test_census_verify_output_is_pinned(self, monkeypatch, variant):
        # The whole output, witnesses included, not just the counts: tos + 1
        # from orbitseries.degrees fails the quotient, subquandle, product
        # and 2-Engel facts; a non-congruence inserted mid-lattice cuts the
        # stage short on every member of order 3 to 8.
        degrees, lattice = orbitseries.degrees, congruence.all_congruences

        def tos_plus_one(q):
            d = degrees(q)
            return orbitseries.SeriesDegrees(
                d.os_degree, None if d.tos_degree is None else d.tos_degree + 1)

        def with_non_congruence(q):
            found = lattice(q)
            if q.order < 3:
                return found
            bad = congruence.Congruence.from_classes(
                q.order, [(0, 1)] + [(x,) for x in range(2, q.order)])
            return found[:2] + (bad,) + found[2:]

        if variant == "tos-plus-one":
            monkeypatch.setattr(orbitseries, "degrees", tos_plus_one)
        elif variant == "non-congruence":
            monkeypatch.setattr(congruence, "all_congruences",
                                with_non_congruence)
        rep = classify.verify_suite(_inputs.census_verify_members(0),
                                    corpus.builtin_groups())
        rows = [(r.name, r.passed, r.checked, r.witnesses) for r in rep.results]
        assert rep.ok == (variant == "clean")
        assert (hashlib.sha256(repr(rows).encode()).hexdigest()
                == self.CENSUS_VERIFY_DIGESTS[variant])

    @staticmethod
    def _plant_scan_and_stage_errors(monkeypatch):
        """is_ncs raises on order 4; a non-congruence ends every lattice."""
        scan, lattice = orbitseries.is_ncs, congruence.all_congruences

        def ncs(q):
            if q.order == 4:
                raise CapExceeded("number of subquandles found", 1)
            return scan(q)

        def with_non_congruence(q):
            bad = congruence.Congruence.from_classes(
                q.order, [(0, 1)] + [(x,) for x in range(2, q.order)])
            return lattice(q) + (bad,)

        monkeypatch.setattr(orbitseries, "is_ncs", ncs)
        monkeypatch.setattr(congruence, "all_congruences", with_non_congruence)

    def test_unlabelled_members_have_one_name_in_every_witness(
            self, monkeypatch):
        # A scan error and a stage error name an unlabelled member alike.
        self._plant_scan_and_stage_errors(monkeypatch)
        rep = classify.verify_suite([core.dihedral(3).relabel(None),
                                     core.dihedral(4).relabel(None)])
        assert rep.results[0].witnesses == (
            "order-3 table: partition is not a congruence, "
            "witness (0, 1, 0, 0, 1)",
            "order-4 table: number of subquandles found exceeded cap 1")
        witnesses = [w for r in rep.results for w in r.witnesses]
        assert len(witnesses) == 3
        assert {w.split(": ")[0] for w in witnesses} == {
            "order-3 table", "order-4 table"}
        # a member whose scans raised joins no product: only 3 x 3 is checked
        products = next(r for r in rep.results if r.name == "product-tos-is-max")
        assert products.checked == 1

    def test_completion_witnesses_follow_member_order(self, monkeypatch):
        # Members are sorted by order, then label: "b" of order 3 comes
        # before "a" of order 4, whichever kind of error each one hit.
        self._plant_scan_and_stage_errors(monkeypatch)
        rep = classify.verify_suite([core.dihedral(4).relabel("a"),
                                     core.dihedral(3).relabel("b")])
        assert rep.results[0] == CheckResult(
            "classification-completes", False,
            ("b: partition is not a congruence, witness (0, 1, 0, 0, 1)",
             "a: number of subquandles found exceeded cap 1"), 2)

    #: The facts of the table stage, which runs once per table: every
    #: corpus fact but classification-completes and product-tos-is-max.
    STAGE_FACTS = tuple(name for name in classify._CORPUS_FACTS if name not in (
        "classification-completes", "product-tos-is-max"))

    def test_members_sharing_a_table_are_scanned_once_under_their_labels(
            self, monkeypatch):
        # A negated ncs scan and quotient tos degrees one too high make every
        # member fail with witnesses naming it.  The facts, the scans, the
        # lattice, the subquandles and the table stage run once per table;
        # the stage's counts and failures are replayed for each member, in
        # member order.
        calls = Counter()

        def counting(fn, negate=False):
            def call(*args):
                calls[fn.__name__] += 1
                return not fn(*args) if negate else fn(*args)
            return call

        degrees = orbitseries.degrees

        def tos_plus_one(q):
            d = degrees(q)
            return orbitseries.SeriesDegrees(
                d.os_degree, None if d.tos_degree is None else d.tos_degree + 1)

        monkeypatch.setattr(classify, "gather_facts",
                            counting(classify.gather_facts))
        monkeypatch.setattr(orbitseries, "is_ncs",
                            counting(orbitseries.is_ncs, negate=True))
        monkeypatch.setattr(congruence, "all_congruences",
                            counting(congruence.all_congruences))
        monkeypatch.setattr(classify, "is_medial",
                            counting(classify.is_medial))
        monkeypatch.setattr(orbitseries, "all_subquandles",
                            counting(orbitseries.all_subquandles))
        monkeypatch.setattr(classify, "_table_stage",
                            counting(classify._table_stage))
        # the members' own tos comes from their facts, their quotients' from
        # orbitseries.degrees: dihedral(4)'s two quotients of order 3 fail
        monkeypatch.setattr(orbitseries, "degrees", tos_plus_one)
        d4 = core.dihedral(4)
        members = [d4, d4.relabel("copy"), d4.relabel(None)]
        names = ("order-4 table", "copy", "dihedral(4)")
        one = classify.verify_suite([d4])
        calls.clear()
        rep = classify.verify_suite(members)
        results = {r.name: r for r in rep.results}
        assert results["tos-existence-iff-ncs"].witnesses == tuple(
            f"{name}: tos=2 ncs=False" for name in names)
        assert results["quotient-tos-bounded"].witnesses == tuple(
            f"{name}: quotient tos 3 exceeds 2" for name in names for _ in "ab")
        medial = results["medial-iff-abelian-transvections"]
        assert medial.passed and medial.checked == 3
        for r in one.results:
            if r.name in self.STAGE_FACTS:
                assert results[r.name].checked == 3 * r.checked, r.name
        # dihedral(4) is neither faithful nor connected
        assert {r.name for r in one.results
                if r.name in self.STAGE_FACTS and r.checked == 0} == {
            "reductive-faithful-or-connected-is-trivial"}
        assert calls == {"gather_facts": 1, "is_ncs": 1, "all_congruences": 1,
                         "is_medial": 1, "all_subquandles": 1,
                         "_table_stage": 1}

        # A QuandleError in the middle of the stage: each member keeps the
        # counts recorded before it and gets its own completion witness.
        lattice = congruence.all_congruences

        def with_non_congruence(q):
            bad = congruence.Congruence.from_classes(
                q.order, [(0, 1)] + [(x,) for x in range(2, q.order)])
            found = lattice(q)
            return found[:2] + (bad,) + found[2:]

        monkeypatch.setattr(congruence, "all_congruences", with_non_congruence)
        one = classify.verify_suite([d4])
        calls.clear()
        rep = classify.verify_suite(members)
        results = {r.name: r for r in rep.results}
        error = "partition is not a congruence, witness (0, 1, 0, 0, 1)"
        assert one.results[0].witnesses == (f"dihedral(4): {error}",)
        assert results["classification-completes"] == CheckResult(
            "classification-completes", False,
            tuple(f"{name}: {error}" for name in names), 3)
        assert results["congruence-classes-are-subquandles"].witnesses == tuple(
            f"{name}: class (0, 1) is not closed" for name in names)
        for r in one.results:
            if r.name in self.STAGE_FACTS:
                assert results[r.name].checked == 3 * r.checked, r.name
        # two congruences' quotient facts ran before the raise, none after
        assert results["quotient-tos-bounded"].checked == 3 * 2
        assert calls["_table_stage"] == 1

    def test_negated_ncs_scan_fails_on_every_checked_member(
            self, monkeypatch):
        # The fact compares the subquandle scan with the orbit tree, so a
        # wrong scan shows on each member it runs on.
        scan = orbitseries.is_ncs
        monkeypatch.setattr(orbitseries, "is_ncs", lambda q: not scan(q))
        rep = classify.verify_suite(corpus.default_corpus())
        fact = next(r for r in rep.results
                    if r.name == "tos-existence-iff-ncs")
        assert not fact.passed
        assert fact.checked == 20
        assert len(fact.witnesses) == 20

    def test_ncs_walk_that_skips_the_last_orbit_fails(self, monkeypatch):
        # is_ncs walks one Inn(Q)-orbit at a time; a walk that drops the
        # last orbit misses the dihedral(3) block of the first member only.
        scan = orbitseries.is_ncs

        def skip_last_orbit(q):
            carrier = tuple(range(q.order))
            orbs = sorted({orbitseries._orbit_of(q.table, carrier, x)
                           for x in carrier})
            return all(scan(core.induced_subquandle(q, orbit))
                       for orbit in orbs[:-1])

        monkeypatch.setattr(orbitseries, "is_ncs", skip_last_orbit)
        d3, t2 = core.dihedral(3), core.trivial(2)
        rep = classify.verify_suite([
            core.disjoint_union(t2, d3).relabel("last"),
            core.disjoint_union(d3, t2).relabel("first")])
        fact = next(r for r in rep.results
                    if r.name == "tos-existence-iff-ncs")
        assert fact == CheckResult("tos-existence-iff-ncs", False,
                                   ("last: tos=None ncs=True",), 2)

    def test_ncs_scan_cap_is_a_failing_completion(self, monkeypatch):
        def cap(q):
            raise CapExceeded("number of subquandles found", 1)

        monkeypatch.setattr(orbitseries, "is_ncs", cap)
        d3 = core.dihedral(3)
        rep = classify.verify_suite([d3, d3.relabel("copy")])
        assert rep.results[0] == CheckResult(
            "classification-completes", False,
            ("copy: number of subquandles found exceeded cap 1",
             "dihedral(3): number of subquandles found exceeded cap 1"), 2)

    def test_defective_lattice_is_a_failing_completion(self, monkeypatch):
        # A partition that is not a congruence makes core.quotient raise
        # inside the per-congruence facts; the suite records the error.
        lattice = congruence.all_congruences

        def with_non_congruence(q):
            bad = congruence.Congruence.from_classes(
                q.order, [(0, 1)] + [(x,) for x in range(2, q.order)])
            return lattice(q) + (bad,)

        monkeypatch.setattr(congruence, "all_congruences", with_non_congruence)
        rep = classify.verify_suite([core.dihedral(3)])
        assert not rep.ok
        assert rep.results[0] == CheckResult(
            "classification-completes", False,
            ("dihedral(3): partition is not a congruence, "
             "witness (0, 1, 0, 0, 1)",), 1)
        assert {r.name for r in rep.results if not r.passed} == {
            "classification-completes", "congruence-classes-are-subquandles"}

    @staticmethod
    def _failing(rep):
        """{fact: witnesses} of the failing facts; each has a witness."""
        failing = {r.name: r.witnesses for r in rep.results if not r.passed}
        assert all(failing.values())
        return failing

    def test_swapped_quotient_labels_fail_only_the_memberwise_series(
            self, monkeypatch):
        # Every quotient table, the L-chain's too, conjugated by the swap
        # of its classes 0 and 1: an isomorphic table, so the tos and lr
        # facts still hold, but the projection onto it is wrong.
        quotient_table = core._quotient_table

        def swapped(q, blocks, class_of, label):
            t = quotient_table(q, blocks, class_of, label).table
            s = [1, 0, *range(2, len(t))] if len(t) > 1 else [0]
            rows = [[0] * len(t) for _ in t]
            for a, row in enumerate(t):
                for b, v in enumerate(row):
                    rows[s[a]][s[b]] = s[v]
            return core.Quandle(tuple(map(tuple, rows)), label)

        monkeypatch.setattr(core, "_quotient_table", swapped)
        failing = self._failing(classify.verify_suite(corpus.default_corpus()))
        assert set(failing) == {"quotient-series-memberwise"}
        witnesses = failing["quotient-series-memberwise"]
        assert "d4: projected series of 0 differs from the quotient series" in (
            witnesses)
        assert all(w.endswith(" differs from the quotient series")
                   for w in witnesses)

    def test_quotient_and_block_tos_one_too_low_fail_the_extension_bound(
            self, monkeypatch):
        # orbitseries.degrees serves only the memo: quotients, classes,
        # subquandles and products that are not corpus members.  Lowering
        # its tos passes the two upper bounds and fails the extension bound
        # and the product fact.
        degrees = orbitseries.degrees

        def tos_minus_one(q):
            d = degrees(q)
            t = d.tos_degree
            return orbitseries.SeriesDegrees(d.os_degree, t - 1 if t else t)

        monkeypatch.setattr(orbitseries, "degrees", tos_minus_one)
        failing = self._failing(classify.verify_suite(corpus.default_corpus()))
        assert set(failing) == {"tos-extension-bound", "product-tos-is-max"}
        assert failing["tos-extension-bound"] == (
            "conj-d8: tos 2 exceeds 0+1", "conj-q8: tos 2 exceeds 0+1")

    def test_quotient_and_block_lr_one_too_low_fail_the_extension_bound(
            self, monkeypatch):
        # The members' own lr stays right; only the memo's lr of the
        # quotients and classes that are not members is one too low.
        members = corpus.default_corpus()
        own = set(members)
        lr_degree = classify.locally_reductive_degree

        def lr_minus_one(q):
            lr = lr_degree(q)
            return lr - 1 if lr and q not in own else lr

        monkeypatch.setattr(classify, "locally_reductive_degree", lr_minus_one)
        failing = self._failing(classify.verify_suite(members))
        assert failing == {"locally-reductive-extension-bound": (
            "conj-d8: lr 2 exceeds 0+1", "conj-q8: lr 2 exceeds 0+1")}

    # One planted defect per quantity that no other test makes wrong; each
    # names the exact set of facts it fails, on the default corpus and the
    # builtin groups.
    @pytest.fixture
    def planted_failures(self, monkeypatch):
        def plant(module, name, wrap):
            monkeypatch.setattr(module, name, wrap(getattr(module, name)))
            return self._failing(classify.verify_suite(
                corpus.default_corpus(), corpus.builtin_groups()))
        return plant

    def test_o_chain_with_terms_one_and_two_swapped(self, planted_failures):
        # the reductive degree stays; the Trans orbits become O^2
        def swap(o_chain):
            def chain(q):
                c = o_chain(q)
                return (c[0], c[2], c[1], *c[3:]) if len(c) >= 4 else c
            return chain

        failing = planted_failures(congruence, "o_chain", swap)
        members = ("d8", "conj-d16", "d16", "paper-example-16")
        assert failing == {
            "orbits-inner-equal-transvection": tuple(
                f"{m}: inner and transvection orbits differ" for m in members),
            "orbit-chain-descends": (
                "d8: chain of 4 terms not descending",
                "conj-d16: chain of 4 terms not descending",
                "d16: chain of 5 terms not descending",
                "paper-example-16: chain of 5 terms not descending"),
        }

    def test_negated_medial_scan(self, planted_failures):
        failing = planted_failures(
            classify, "is_medial", lambda is_medial: lambda q: not is_medial(q))
        assert set(failing) == {"medial-iff-abelian-transvections"}
        witnesses = failing["medial-iff-abelian-transvections"]
        assert len(witnesses) == 24
        assert "d3: medial=False abelian transvections=True" in witnesses
        assert "conj-s3: medial=True abelian transvections=False" in witnesses

    def test_engel_brackets_one_step_short(self, planted_failures):
        # the bridge's whole-group verdict at n = 2 is also the 2-Engel
        # fact's bracket verdict
        failing = planted_failures(
            grouptables, "is_n_engel_subset",
            lambda engel: lambda table, subset, n, inv: engel(
                table, subset, n - 1, inv))
        assert set(failing) == {"conjugation-engel-subset-bridge",
                                "two-engel-conjugation-reductive-by-3"}
        assert ("c2-group, subset (0, 1), n=1: local reductivity True vs "
                "bracket False") in failing["conjugation-engel-subset-bridge"]
        assert failing["two-engel-conjugation-reductive-by-3"] == tuple(
            f"{name}: two-split verdicts disagree on a group of order "
            f"{order}: bracket=False tree=True"
            for name, order in (("d8-group", 8), ("q8-group", 8),
                                ("h27-group", 27)))

    def test_principal_series_missing_its_last_term(self, planted_failures):
        def short(principal_series):
            def series(q, x):
                s = principal_series(q, x)
                return s[:-1] if len(s) > 1 else s
            return series

        failing = planted_failures(orbitseries, "principal_series", short)
        assert set(failing) == {"branches-are-principal-series",
                                "quotient-series-memberwise"}
        assert ("d2: branch to (0,) is not the principal series of its members"
                in failing["branches-are-principal-series"])
        assert ("d4: projected series of 0 differs from the quotient series"
                in failing["quotient-series-memberwise"])

    def test_row_equality_congruence_always_zero(self, planted_failures):
        # every member reads as faithful and the L-chain never leaves it
        failing = planted_failures(
            congruence, "lambda_congruence",
            lambda _: lambda q: congruence.Congruence.zero(q.order))
        assert set(failing) == {
            "reductivity-routes-agree",
            "reductive-faithful-or-connected-is-trivial",
            "relative-transvections-trivial-iff-kernel",
            "two-engel-conjugation-reductive-by-3"}
        assert ("d4: chain=2 identity=2 inner-class=1 collapse=None"
                in failing["reductivity-routes-agree"])
        assert ("d4: reductive but order 4"
                in failing["reductive-faithful-or-connected-is-trivial"])
        assert ("t2: relative transvection triviality disagrees with "
                "translation-kernel refinement"
                in failing["relative-transvections-trivial-iff-kernel"])
        assert ("h27-group: reductivity routes disagree on conj(order 27, "
                "k=1): chain=2 identity=2 inner-class=1 collapse-steps=None"
                in failing["two-engel-conjugation-reductive-by-3"])

    def test_branch_leaving_its_subset(self, planted_failures):
        # on d4, the first depth-2 leaf under the first root child holds a
        # point of the other root child, so that branch's meet is not its
        # leaf; the tree's degrees stay as they are
        def stray(orbit_tree):
            def tree(q):
                root = orbit_tree(q)
                if q.label != "d4":
                    return root
                first, *rest = root.children
                outside = next(x for x in root.subset if x not in first.subset)
                leaf, *others = first.children
                leaf = orbitseries.OrbitTreeNode((outside,), leaf.depth, ())
                first = orbitseries.OrbitTreeNode(
                    first.subset, first.depth, (leaf, *others))
                return orbitseries.OrbitTreeNode(
                    root.subset, root.depth, (first, *rest))
            return tree

        failing = planted_failures(orbitseries, "orbit_tree", stray)
        assert failing == {"branches-are-principal-series": (
            "d4: branch meet is not the leaf",)}

    def test_two_engel_fact_checks_groups_of_every_order(self):
        rep = classify.verify_suite([], [("d34", grouptables.dihedral_group(17))])
        fact = next(r for r in rep.results
                    if r.name == "two-engel-conjugation-reductive-by-3")
        assert (fact.checked, fact.passed) == (1, True)

    def test_default_corpus_shape_is_pinned(self):
        rep = classify.verify_suite(corpus.default_corpus(),
                                    corpus.builtin_groups())
        assert [(r.name, r.checked) for r in rep.results] == [
            ("classification-completes", 24),
            ("reductivity-routes-agree", 24),
            ("reductive-faithful-or-connected-is-trivial", 1),
            ("degree-existence-and-ordering", 24),
            ("medial-degrees-equal", 13),
            ("medial-iff-abelian-transvections", 24),
            ("orbits-inner-equal-transvection", 24),
            ("tos-existence-iff-ncs", 20),
            ("solvable-tos-bound", 15),
            ("orbit-chain-descends", 24),
            ("branches-are-principal-series", 132),
            ("congruence-classes-are-subquandles", 848),
            ("relative-transvections-trivial-iff-kernel", 241),
            ("quotient-tos-bounded", 220),
            ("subquandle-tos-bounded", 227),
            ("product-tos-is-max", 65),
            ("locally-reductive-extension-bound", 220),
            ("tos-extension-bound", 220),
            ("quotient-series-memberwise", 1724),
            ("conjugation-engel-subset-bridge", 380),
            ("two-engel-conjugation-reductive-by-3", 16),
        ]


class TestRouteAgreement:
    def test_classify_checks_no_congruence(self, monkeypatch):
        # the O-chain's orbit partitions and the L-chain's row-equality
        # classes are congruences by construction
        def refuse(q, class_of):
            raise AssertionError("congruence_witness called")

        monkeypatch.setattr(core, "congruence_witness", refuse)
        for q in corpus.default_corpus() + [
                q for _, q in _inputs.classify_workload_inputs()]:
            classify.classify(q)

    def test_routes_cross_checked_on_every_default_member(self):
        for q in corpus.default_corpus():
            try:
                classify.reductive_degree(q)
            except InconsistentCharacterizations as exc:
                pytest.fail(f"route disagreement on {q.label}: {exc}")

    def test_injected_disagreement_caught_by_classify_and_suite(
            self, monkeypatch):
        # A stabilizer-collapse chain that never leaves dihedral(4) claims
        # no degree, while the other three routes give 2.
        monkeypatch.setattr(congruence, "l_chain", lambda q: [q])
        d4 = core.dihedral(4)
        with pytest.raises(InconsistentCharacterizations):
            classify.classify(d4)
        rep = classify.verify_suite([d4])
        routes = next(r for r in rep.results
                      if r.name == "reductivity-routes-agree")
        assert not routes.passed
        assert routes.checked == 1
        assert routes.witnesses == (
            "dihedral(4): chain=2 identity=2 inner-class=1 collapse=None",)

    @pytest.mark.parametrize("q, lr, fault", [
        (core.dihedral(4), 99, "degree ordering violated"),
        (core.dihedral(3), 1, "degree existence split"),
    ])
    def test_injected_degree_chain_fault_caught_by_classify_and_suite(
            self, monkeypatch, q, lr, fault):
        # The reductive and tos degrees stay as they are; only lr is wrong.
        monkeypatch.setattr(classify, "locally_reductive_degree", lambda q: lr)
        with pytest.raises(InconsistentCharacterizations, match=fault):
            classify.classify(q)
        rep = classify.verify_suite([q])
        chain = next(r for r in rep.results
                     if r.name == "degree-existence-and-ordering")
        assert not chain.passed
        assert chain.checked == 1
        assert chain.witnesses[0].startswith(f"{q.label}: lr={lr} ")

    @pytest.mark.parametrize("module, name, fake, message", [
        (congruence, "l_chain", lambda q: [q],
         "reductivity routes disagree on order 4: chain=2 identity=2 "
         "inner-class=1 collapse-steps=None"),
        (classify, "locally_reductive_degree", lambda q: 99,
         "degree ordering violated on order 4: lr=99 tos=2 red=2"),
    ])
    def test_both_faults_name_an_unlabelled_quandle_by_its_order(
            self, monkeypatch, module, name, fake, message):
        monkeypatch.setattr(module, name, fake)
        with pytest.raises(InconsistentCharacterizations) as caught:
            classify.classify(core.dihedral(4).relabel(None))
        assert str(caught.value) == message


class TestLargeInnerGroups:
    """Inner groups of astronomical order, built as stabilizer chains, uncapped."""

    def test_seven_copies_of_dihedral_five(self):
        q = core.disjoint_union(*[core.dihedral(5)] * 7)
        report = classify.classify(q)
        assert report.inn_order == 10**7
        assert report.trans_order == 5 * 10**6

    def test_ten_copies_of_dihedral_five(self):
        q = core.disjoint_union(*[core.dihedral(5)] * 10)
        assert classify.classify(q).inn_order == 10**10

    def test_twenty_copies_of_dihedral_five(self):
        q = core.disjoint_union(*[core.dihedral(5)] * 20)
        assert classify.classify(q).inn_order == 10**20
