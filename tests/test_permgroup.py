"""Permutation arithmetic, closures, and structural group predicates."""

import random

import pytest

import _inputs
import _oracles
from quandles import classify, congruence, core, corpus, grouptables, permgroup


def test_compose_and_inverse():
    p = (1, 2, 0)
    q = (0, 2, 1)
    assert permgroup.compose(p, q) == tuple(p[q[i]] for i in range(3))
    assert permgroup.compose(p, permgroup.inverse(p)) == (0, 1, 2)
    assert permgroup.inverse((2, 0, 1)) == (1, 2, 0)


def test_compose_is_the_plain_loop_at_every_degree():
    # itemgetter returns a scalar for one index and raises for none, so
    # degrees 0 and 1 must still come back as tuples
    pairs = [((), ()), ((0,), (0,)), ((0, 1), (0, 1)), ((1, 0), (1, 0)),
             ((1, 0), (0, 1))]
    rng = random.Random(13)
    for degree in [3, 4, 5, 8, 20, 33, 64] * 3:
        p, q = list(range(degree)), list(range(degree))
        rng.shuffle(p)
        rng.shuffle(q)
        pairs.append((tuple(p), tuple(q)))
    for p, q in pairs:
        out = permgroup.compose(p, q)
        assert type(out) is tuple
        assert out == tuple(p[x] for x in q)


def _rotations_on_blocks(rng, degree):
    """Blocks of a random partition of the points, each listed in a random order.

    A permutation that rotates every block along its listed order maps each
    block into itself, and such permutations generate an abelian group of
    order at most the product of the block sizes, which the closure oracle
    can afford at degree 12.
    """
    points = list(range(degree))
    rng.shuffle(points)
    blocks = []
    while points:
        size = rng.randint(1, len(points))
        blocks.append(points[:size])
        points = points[size:]
    return blocks


def _rotation(blocks, degree, shifts):
    image = [0] * degree
    for block, shift in zip(blocks, shifts):
        for i, x in enumerate(block):
            image[x] = block[(i + shift) % len(block)]
    return tuple(image)


def test_orbits_match_the_closure_oracle_on_random_generator_sets():
    # 1-5 generators, identities and duplicates among them: fully random
    # permutations up to degree 5, block rotations up to degree 12, with the
    # domain cut to a union of blocks, listed out of order
    rng = random.Random(2023)
    for case in range(300):
        degree = rng.randint(1, 12)
        blocks = _rotations_on_blocks(rng, degree)
        gens = []
        for _ in range(rng.randint(1, 5)):
            roll = rng.random()
            if roll < 0.15:
                gens.append(permgroup.identity(degree))
            elif roll < 0.3 and gens:
                gens.append(rng.choice(gens))
            elif degree <= 5:
                p = list(range(degree))
                rng.shuffle(p)
                gens.append(tuple(p))
            else:
                gens.append(_rotation(blocks, degree,
                                      [rng.randrange(len(b)) for b in blocks]))
        if degree <= 5:
            domain = tuple(range(degree))
        else:
            kept = [b for b in blocks if rng.random() < 0.7] or blocks
            domain = tuple(x for b in kept for x in b)
        want = _oracles.orbits_by_closure(gens, frozenset(domain))
        got = permgroup.orbits(gens, domain)
        assert got == tuple(tuple(sorted(o)) for o in want), (case, gens, domain)


def test_orbits_need_a_permutation():
    with pytest.raises(ValueError):
        permgroup.orbits([])


def _elements(group):
    """The group's elements by the closure oracle, sorted.

    Checked against the group itself first: the oracle closes the kept
    generators, so it must hold |G| elements, each a member.
    """
    oracle = _oracles.closure_elements(list(group.generators), group.degree)
    assert group.order == len(oracle)
    assert all(x in group for x in oracle)
    return sorted(oracle)


def test_closure_without_generators():
    g = permgroup.closure([], degree=4)
    assert g.order == 1
    assert _elements(g) == [(0, 1, 2, 3)]


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
    elements = _elements(g)
    for x in elements:
        assert permgroup.inverse(x) in g
        for y in elements[:5]:
            assert permgroup.compose(x, y) in g


def test_closure_keeps_only_generators_that_enlarge_the_group():
    for q in corpus.default_corpus():
        for given in (list(q.table), congruence.trans_rel_generators(
                q, congruence.Congruence.one(q.order))):
            group = permgroup.closure(given, q.order)
            kept = group.generators
            # a subsequence of the given generators ...
            rest = iter(given)
            assert all(any(g == h for h in rest) for g in kept), q.label
            # ... each outside the group generated by those kept before it
            for i, g in enumerate(kept):
                assert g not in permgroup.closure(kept[:i], q.order), q.label
            oracle = _oracles.closure_elements(given, q.order)
            assert group.order == len(oracle), q.label
            assert all(x in group for x in oracle), q.label


def test_orbits_of_trivial_group():
    g = permgroup.PermGroup(3)
    assert permgroup.orbits(_elements(g)) == ((0,), (1,), (2,))


def test_orbits_of_inner_dihedral_four():
    q = core.dihedral(4)
    assert permgroup.orbits(congruence.inn(q).generators) == ((0, 2), (1, 3))


def test_inner_and_transvection_orbits_coincide():
    for q in (core.dihedral(4), core.dihedral(6), core.trivial(4),
              core.affine(5, 2), core.conj(grouptables.symmetric_group(3))):
        # the elements, since Trans(trivial(4)) has no generators
        assert (permgroup.orbits(_elements(congruence.inn(q)))
                == permgroup.orbits(_elements(congruence.trans(q))))


def test_orbits_from_generators_match_group_action():
    # the search over generator images against the full closure action
    q = core.conj(grouptables.quaternion_8())
    gens = list(q.table)
    by_gens = permgroup.orbits(gens)
    group = permgroup.closure(gens)
    elements = _elements(group)
    seen = set()
    by_action = []
    for a in range(group.degree):
        if a in seen:
            continue
        orbit = tuple(sorted({p[a] for p in elements}))
        seen.update(orbit)
        by_action.append(orbit)
    assert by_gens == tuple(by_action)


def test_nilpotency_class_of_trivial_group():
    assert permgroup.nilpotency_class(permgroup.PermGroup(2)) == 0


def test_nilpotency_class_of_s3_is_absent():
    g = permgroup.closure([(1, 0, 2), (1, 2, 0)])
    assert g.order == 6
    assert permgroup.nilpotency_class(g) is None


def test_nilpotency_class_of_q8_regular_representation():
    g = permgroup.closure(grouptables.quaternion_8())
    assert permgroup.nilpotency_class(g) == 2


def test_derived_length_of_trivial_group():
    assert permgroup.derived_length(permgroup.PermGroup(1)) == 0


def test_derived_length_of_s3():
    g = permgroup.closure([(1, 0, 2), (1, 2, 0)])
    assert permgroup.derived_length(g) == 2


def test_derived_length_of_a5_is_absent():
    g = permgroup.closure([(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)])
    assert g.order == 60
    assert permgroup.derived_length(g) is None


def test_derived_series_orders_match_oracle():
    small = [gens for _, degree, gens in _oracle_generator_lists()
             if gens and permgroup.closure(gens, degree).order <= 60]
    assert len(small) > 20
    for gens in [[(1, 0, 2), (1, 2, 0)],
                 [(1, 2, 3, 0), (1, 0, 3, 2)],
                 [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]] + small:
        series = permgroup.derived_series(permgroup.closure(gens))
        assert [g.order for g in series] == _oracles.derived_chain_orders(gens)


def test_nilpotent_implies_solvable_with_smaller_length():
    g = permgroup.closure(grouptables.dihedral_group(4))
    cls = permgroup.nilpotency_class(g)
    length = permgroup.derived_length(g)
    assert cls == 2
    assert length is not None and length <= cls


def _orbits_have_group_order(group):
    # Semiregularity by orbit-stabilizer, as gather_facts reads it for the
    # abelian field: every orbit has |G| points.
    return all(len(orbit) == group.order
               for orbit in permgroup.orbits(_elements(group)))


def test_semiregular_groups():
    d3 = core.dihedral(3)
    # a 3-cycle moves 0, 1, 2 regularly and fixes 3
    cycle = permgroup.closure([(1, 2, 0, 3)])
    for group, want in ((permgroup.PermGroup(5), True),
                        (congruence.trans(d3), True),
                        (congruence.inn(d3), False),
                        (cycle, False)):
        assert _orbits_have_group_order(group) == want, group
        assert _oracles.is_semiregular_by_elements(
            _elements(group), range(group.degree)) == want, group


def test_semiregular_matches_element_scan():
    # abelian is medial with a semiregular transvection group
    verdicts = {}
    for q in corpus.default_corpus():
        report = classify.classify(q)
        gens = congruence.trans_rel_generators(q, congruence.Congruence.one(q.order))
        elements = _oracles.closure_elements(gens, q.order)
        want = report.medial and _oracles.is_semiregular_by_elements(
            list(elements), range(q.order))
        assert report.abelian == want, q.label
        if report.medial:
            verdicts.setdefault(want, q.label)
    assert set(verdicts) == {True, False}
    d4d4 = classify.classify(corpus.builtin_quandle("d4-plus-d4"))
    assert d4d4.medial and not d4d4.abelian


def test_equal_groups_from_different_generators():
    d3 = core.dihedral(3)
    assert permgroup.closure(d3.table) == permgroup.closure(d3.table[:2])
    assert permgroup.closure(d3.table[:2]) == congruence.inn(d3)
    # the two order-2 subgroups <(0 1)> and <(1 2)> of S3 differ
    assert permgroup.closure([(1, 0, 2)]) != permgroup.closure([(0, 2, 1)])
    assert permgroup.closure([(1, 2, 0)]) != permgroup.closure(d3.table)
    assert permgroup.PermGroup(3) != permgroup.PermGroup(4)


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
        want = _oracles.is_abelian_by_elements(_elements(group))
        assert group.is_abelian() == want, group
        verdicts.add(want)
    assert verdicts == {True, False}


def _oracle_members():
    return corpus.default_corpus() + [q for _, q in _inputs.classify_workload_inputs()]


def _oracle_generator_lists():
    """(label, degree, generators) of Inn and Trans of the default corpus and
    of the classify-workload inputs, as given to closure()."""
    for q in _oracle_members():
        yield f"inn {q.label}", q.order, list(q.table)
        yield (f"trans {q.label}", q.order, congruence.trans_rel_generators(
            q, congruence.Congruence.one(q.order)))


def test_chain_matches_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    Permutation, PermutationGroup = combinatorics.Permutation, combinatorics.PermutationGroup
    rng = random.Random(5)
    verdicts = set()
    for label, degree, given in _oracle_generator_lists():
        ours = permgroup.closure(given, degree)
        theirs = PermutationGroup([Permutation(list(g), size=degree) for g in given]
                                  or [Permutation(list(range(degree)))])
        assert ours.order == theirs.order(), label
        assert ([h.order for h in permgroup.lower_central_series(ours)]
                == [h.order() for h in theirs.lower_central_series()]), label
        assert ([h.order for h in permgroup.derived_series(ours)]
                == [h.order() for h in theirs.derived_series()]), label
        for _ in range(10):
            word = permgroup.identity(degree)
            for g in rng.choices(given, k=6) if given else ():
                word = permgroup.compose(g, word)
            assert word in ours and theirs.contains(Permutation(list(word))), label
            p = tuple(rng.sample(range(degree), degree))
            want = theirs.contains(Permutation(list(p)))
            assert (p in ours) == want, label
            verdicts.add(want)
    assert verdicts == {True, False}


def _sympy_group(gens, degree):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    return combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(g), size=degree) for g in gens]
        or [combinatorics.Permutation(list(range(degree)))])


def _steps_to_trivial(orders):
    return len(orders) - 1 if orders[-1] == 1 else None


def test_shared_groups_and_report_fields_match_sympy():
    # Inn extends Trans's chain, T' serves both series of Trans, and
    # [Inn, Inn] is the closure of T' and the brackets [t, L_e]; sympy
    # builds every group and term from scratch, unshared and unbounded
    s5 = grouptables.symmetric_group(5)
    transpositions = next(c for c in grouptables.conjugacy_classes(s5) if len(c) == 10)
    # Inn(Q) = S5 and Trans(Q) = A5 on the ten transpositions: not solvable
    extra = core.conj_subset(s5, transpositions, label="s5-transpositions")
    seen = {"cls": set(), "dl": set()}
    for q in _oracle_members() + [extra]:
        trans_gens = congruence.trans_rel_generators(q, congruence.Congruence.one(q.order))
        inn_theirs = _sympy_group(q.table, q.order)
        trans_theirs = _sympy_group(trans_gens, q.order)
        inn_lcs = [h.order() for h in inn_theirs.lower_central_series()]
        trans_lcs = [h.order() for h in trans_theirs.lower_central_series()]
        trans_ds = [h.order() for h in trans_theirs.derived_series()]

        groups = classify._groups(q)
        assert groups.inn == permgroup.closure(q.table, q.order), q.label
        assert groups.inn.generators[:len(groups.trans.generators)] == groups.trans.generators
        assert groups.inn_derived == permgroup.derived_subgroup(groups.inn), q.label
        assert groups.trans_derived == permgroup.derived_subgroup(groups.trans), q.label
        assert ([h.order for h in permgroup.lower_central_series(groups.inn, groups.inn_derived)]
                == inn_lcs), q.label
        assert ([h.order for h in permgroup.lower_central_series(groups.trans, groups.trans_derived)]
                == trans_lcs), q.label
        assert ([h.order for h in permgroup.derived_series(groups.trans, groups.trans_derived)]
                == trans_ds), q.label

        facts = classify.gather_facts(q)
        assert facts.inn_order == inn_theirs.order(), q.label
        assert facts.trans_order == trans_theirs.order(), q.label
        assert facts.inn_nilpotency_class == _steps_to_trivial(inn_lcs), q.label
        assert facts.trans_derived_length == _steps_to_trivial(trans_ds), q.label
        assert facts.nilpotent_quandle == (trans_lcs[-1] == 1), q.label
        seen["cls"].add(facts.inn_nilpotency_class is None)
        seen["dl"].add(facts.trans_derived_length is None)
    assert seen == {"cls": {True, False}, "dl": {True, False}}


def test_each_group_is_built_once_per_report():
    # Trans and Inn are closed once each; the only derived subgroup taken of
    # Trans is T', which serves both its series, and none is taken of Inn:
    # [Inn, Inn] is one plain closure over T', so _groups runs no normal
    # closure beyond the one inside derived_subgroup(Trans)
    for q in _oracle_members():
        with pytest.MonkeyPatch.context() as mp:
            derived, normal, trans, inn = [], [], [], []
            mp.setattr(permgroup, "derived_subgroup",
                       _recording(permgroup.derived_subgroup, derived))
            mp.setattr(permgroup, "normal_closure",
                       _recording(permgroup.normal_closure, normal))
            mp.setattr(congruence, "trans", _recording(congruence.trans, trans))
            mp.setattr(congruence, "inn", _recording(congruence.inn, inn))
            classify.gather_facts(q)
            assert len(trans) == len(inn) == 1, q.label
            built = [args[0] for args, _ in derived]
            assert sum(g is trans[0][1] for g in built) == 1, q.label
            assert all(g is not inn[0][1] for g in built), q.label
            assert len(set(map(id, built))) == len(built), q.label

            derived.clear()
            normal.clear()
            groups = classify._groups(q)
            assert len(derived) == 1 and derived[0][0][0] is groups.trans, q.label
            assert len(normal) == 1, q.label


def _recording(fn, log):
    def wrapped(*args, **kwargs):
        result = fn(*args, **kwargs)
        log.append((args, result))
        return result
    return wrapped


def test_bounded_and_resumed_chains_match_the_plain_closure():
    # A chain stopped once its order reaches a known bound, even inside the
    # Schreier-Sims loop, is complete: it sifts like the unbounded chain,
    # and extending it gives the unbounded closure of all the generators
    rng = random.Random(11)
    stopped_early = 0
    for label, degree, given in _oracle_generator_lists():
        if len(given) < 2:
            continue
        k = len(given) // 2
        plain = permgroup.closure(given, degree)
        head = permgroup.closure(given[:k], degree)
        bounded = permgroup.closure(given[:k], degree, bound=head.order)
        stopped_early += any(t < len(level.gens) for level in bounded._levels
                             for t in level.tested)
        resumed = permgroup.closure(given[k:], start=bounded)
        assert bounded == head and bounded.order == head.order, label
        assert resumed.order == plain.order, label
        for _ in range(5):
            word = permgroup.identity(degree)
            for g in rng.choices(given, k=6):
                word = permgroup.compose(g, word)
            p = tuple(rng.sample(range(degree), degree))
            for x in (word, p):
                assert (x in resumed) == (x in plain), label
                assert (x in bounded) == (x in head), label
    assert stopped_early > 0
