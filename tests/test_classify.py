"""Tests for the predicate layer: degrees, structure flags, and the suite."""

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
        for name in ["t1", "t3", "d3", "d4", "d6", "d8", "conj-q8",
                     "conj-s3"]:
            q = _builtin(name)
            assert (classify.locally_reductive_degree(q)
                    == _oracles.locally_reductive_degree_direct(q.table, 8)), name
            for n in range(4):
                assert (classify.is_n_locally_reductive(q, n)
                        == _oracles.is_n_locally_reductive_direct(q.table, n)), (name, n)


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

    def test_classify_does_not_run_the_identity_scan(self, monkeypatch):
        def refuse(q):
            raise AssertionError("classify ran the O(n^4) medial scan")

        monkeypatch.setattr(classify, "is_medial", refuse)
        for q in (core.dihedral(16), core.affine(7, 3), _builtin("conj-s3")):
            assert classify.classify(q).order == q.order

    def test_classify_reads_ncs_off_the_orbit_tree(self, monkeypatch):
        def refuse(q, cap=None):
            raise AssertionError("classify ran the subquandle scan")

        monkeypatch.setattr(orbitseries, "is_ncs", refuse)
        for q in corpus.default_corpus():
            rep = classify.classify(q, ncs_max_order=16)
            assert rep.ncs == (rep.tos_degree is not None), q.label

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


def _two_engel(table):
    return classify._two_engel_verdict(
        table, orbitseries.degrees(core.conj(table)).tos_degree)


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

    def test_ncs_cap_can_be_lifted(self):
        q = _builtin("paper-example-16")
        rep = classify.classify(q, ncs_max_order=16)
        assert rep.ncs is True

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
        # quotients, class blocks, subquandles, products and the groups'
        # conjugation quandles repeat tables; within one call each table's
        # orbit-tree degrees and lr are computed once (the members' own lr
        # by gather_facts), and a second call computes them again
        tos_calls, lr_calls = Counter(), Counter()
        degrees, lr = orbitseries.degrees, classify.locally_reductive_degree

        def counting_degrees(q):
            tos_calls[q.table] += 1
            return degrees(q)

        def counting_lr(q):
            lr_calls[q.table] += 1
            return lr(q)

        monkeypatch.setattr(orbitseries, "degrees", counting_degrees)
        monkeypatch.setattr(classify, "locally_reductive_degree", counting_lr)
        members = list(dict.fromkeys(corpus.default_corpus()))  # distinct tables
        assert classify.verify_suite(members, corpus.builtin_groups()).ok
        assert len(tos_calls) > 50 and max(tos_calls.values()) == 1
        # the group facts' reductive_degree calls are not the suite's memo
        tos_calls.clear()
        lr_calls.clear()
        first = classify.verify_suite(members)
        assert len(tos_calls) > 50 and max(tos_calls.values()) == 1
        assert len(lr_calls) > 50 and max(lr_calls.values()) == 1
        assert classify.verify_suite(members) == first
        assert set(tos_calls.values()) == {2} and set(lr_calls.values()) == {2}

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
        def disagree(table, whole_tos):
            raise InconsistentCharacterizations("verdicts disagree")

        monkeypatch.setattr(classify, "_two_engel_verdict", disagree)
        rep = classify.verify_suite([], [("q8-group", grouptables.quaternion_8())])
        fact = next(r for r in rep.results
                    if r.name == "two-engel-conjugation-reductive-by-3")
        assert not fact.passed
        assert fact.checked == 1
        assert fact.witnesses == ("q8-group: verdicts disagree",)
        assert not rep.ok

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

    def test_ncs_scan_cap_is_a_failing_completion(self, monkeypatch):
        def cap(q):
            raise CapExceeded("number of subquandles found", 1)

        monkeypatch.setattr(orbitseries, "is_ncs", cap)
        rep = classify.verify_suite([core.dihedral(3)])
        assert rep.results[0] == CheckResult(
            "classification-completes", False,
            ("dihedral(3): number of subquandles found exceeded cap 1",), 1)

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
