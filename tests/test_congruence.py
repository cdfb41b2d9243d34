"""Congruence lattice, Inn and Trans, lambda, and the two chains."""

import random

import pytest

import _inputs
import _oracles
from quandles import congruence, core, corpus, grouptables, permgroup
from quandles.congruence import Congruence
from quandles.errors import CapExceeded


def classes_as_sets(cong):
    return frozenset(frozenset(c) for c in cong.classes)


def _witness(q, classes):
    return core.congruence_witness(q, Congruence.from_classes(q.order, classes).class_of)


def test_is_congruence_accepts_bounds():
    q = core.dihedral(3)
    assert _witness(q, [[0], [1], [2]]) is None
    assert _witness(q, [[0, 1, 2]]) is None


def test_is_congruence_rejects_with_witness():
    q = core.dihedral(3)
    assert _witness(q, [[0, 1], [2]]) is not None


def test_congruence_generated_by_nothing():
    q = core.dihedral(4)
    assert congruence.congruence_generated(q, []).is_zero


@pytest.mark.parametrize("pair", [(-1, 0), (3, 0)])
def test_congruence_generated_rejects_foreign_elements(pair):
    with pytest.raises(ValueError):
        congruence.congruence_generated(core.trivial(3), [pair])


def test_congruence_generated_in_dihedral_four():
    # {0,2} need not drag 1 and 3 together: L_0 = L_2, and right
    # translations send the pair (0,2) to pairs already inside {0,2}
    q = core.dihedral(4)
    got = congruence.congruence_generated(q, [(0, 2)])
    assert classes_as_sets(got) == {frozenset({0, 2}), frozenset({1}), frozenset({3})}


def test_congruence_generated_in_dihedral_six():
    q = core.dihedral(6)
    got = congruence.congruence_generated(q, [(0, 3)])
    assert classes_as_sets(got) == {
        frozenset({0, 3}), frozenset({1, 4}), frozenset({2, 5})
    }


def test_congruence_generated_blows_up_in_connected_faithful():
    q = core.dihedral(3)
    assert congruence.congruence_generated(q, [(0, 1)]).num_classes == 1


def test_congruence_generated_is_smallest():
    # against every congruence from the exhaustive scan: the generated one
    # refines each one containing the seed pair
    q = core.dihedral(8)
    generated = congruence.congruence_generated(q, [(0, 4)])
    for other in congruence.all_congruences(q):
        if other.class_of[0] == other.class_of[4]:
            assert generated.refines(other)
    assert generated.class_of[0] == generated.class_of[4]


def test_all_congruences_of_the_point():
    cons = congruence.all_congruences(core.trivial(1))
    assert len(cons) == 1
    assert cons[0].is_zero and cons[0].num_classes == 1


def test_all_congruences_of_trivial_three():
    # every equivalence works: 5 partitions of a 3-set
    assert len(congruence.all_congruences(core.trivial(3))) == 5


def test_all_congruences_cap_counts_every_member(monkeypatch):
    # The principal congruences count against the cap as much as the joins.
    d3, t3 = core.dihedral(3), core.trivial(3)

    def with_cap(cap):
        monkeypatch.setattr(congruence, "DEFAULT_CONGRUENCE_CAP", cap)

    with_cap(1)
    with pytest.raises(CapExceeded, match="congruence enumeration exceeded cap 1"):
        congruence.all_congruences(d3)
    with_cap(2)
    assert len(congruence.all_congruences(d3)) == 2
    with_cap(5)
    assert len(congruence.all_congruences(t3)) == 5
    with_cap(4)
    with pytest.raises(CapExceeded):
        congruence.all_congruences(t3)


def test_all_congruences_match_partition_scan_oracle():
    for q in (core.trivial(3), core.dihedral(3), core.dihedral(4),
              core.dihedral(6), core.affine(5, 2),
              core.conj(grouptables.symmetric_group(3))):
        got = {classes_as_sets(c) for c in congruence.all_congruences(q)}
        want = _oracles.congruence_class_sets(q.table)
        assert got == want, q.label


def _census(max_order):
    return [q for n in range(1, max_order + 1)
            for q in corpus.enumerate_quandles(n)]


def _is_violation(q, labels, witness):
    a, b, c, d, direction = witness
    assert direction == 1
    return (labels[a] == labels[b] and labels[c] == labels[d]
            and labels[q.table[a][c]] != labels[q.table[b][d]])


def test_all_congruences_match_package_scan():
    for q in (core.dihedral(4), core.dihedral(8), core.trivial(4)):
        got = {classes_as_sets(c) for c in congruence.all_congruences(q)}
        assert got == _oracles.congruence_class_sets(q.table), q.label
    # the one-sided witness against the direct two-sided oracle, on every
    # set partition; each witness it returns must be a real violation
    partitions = 0
    for q in _census(5) + [core.dihedral(6), core.affine(7, 3),
                           core.conj(grouptables.symmetric_group(3))]:
        want = _oracles.congruence_class_sets(q.table)
        got = {classes_as_sets(c) for c in congruence.all_congruences(q)}
        assert got == want, q.label
        for labels in _oracles.set_partitions(q.order):
            partitions += 1
            witness = core.congruence_witness(q, labels)
            blocks = classes_as_sets(Congruence.from_class_of(labels))
            assert (witness is None) == (blocks in want), (q.label, labels)
            if witness is not None:
                assert _is_violation(q, labels, witness), (q.label, labels, witness)
    assert partitions == 2550


def test_lattice_members_are_canonical_and_hold_the_principal_ones():
    # members are built straight from canonical class ids; each must be
    # the partition from_class_of gives, with its classes in member order
    for q in _census(5) + corpus.default_corpus():
        n = q.order
        lattice = congruence.all_congruences(q)
        for c in lattice:
            assert c.n == n, q.label
            assert c.class_of == _oracles.canonical_labels(c.class_of), q.label
            assert c.classes == tuple(
                tuple(x for x in range(n) if c.class_of[x] == i)
                for i in range(len(c.classes))), q.label
            canonical = Congruence.from_class_of(c.class_of)
            assert (c.class_of, c.classes) == (canonical.class_of, canonical.classes)
        generated = {congruence.congruence_generated(q, [(a, b)])
                     for a in range(n) for b in range(a + 1, n)}
        assert {c for c in lattice if c in generated} == generated, q.label


def test_congruence_lattice_sizes_frozen():
    sizes = {}
    for name, q in (("t3", core.trivial(3)), ("d3", core.dihedral(3)),
                    ("d4", core.dihedral(4)), ("d6", core.dihedral(6)),
                    ("d8", core.dihedral(8)), ("t7", core.trivial(7))):
        sizes[name] = len(congruence.all_congruences(q))
    # every partition of a trivial quandle is a congruence: Bell(7) = 877
    assert sizes == {"t3": 5, "d3": 2, "d4": 5, "d6": 4, "d8": 8, "t7": 877}


def test_congruence_classes_are_subquandles():
    q = core.dihedral(8)
    for cong in congruence.all_congruences(q):
        for cls in cong.classes:
            core.validate(core.induced_subquandle(q, cls).table)


def test_carriers_of_different_sizes_are_rejected():
    four, three = Congruence.one(4), Congruence.one(3)
    with pytest.raises(ValueError, match="partitions of different carriers"):
        four.refines(three)
    with pytest.raises(ValueError,
                       match="congruence size differs from quandle order"):
        congruence.trans_rel_generators(core.dihedral(4), three)


def _kernel_inputs():
    """The census up to order 5 and every default-corpus member up to order 8."""
    return _census(5) + [q for q in corpus.default_corpus() if q.order <= 8]


def _lattice_oracle(q):
    """Every congruence as canonical labels, from the partition scan."""
    labels = []
    for classes in _oracles.congruence_class_sets(q.table):
        class_of = [0] * q.order
        for i, cls in enumerate(classes):
            for x in cls:
                class_of[x] = i
        labels.append(_oracles.canonical_labels(class_of))
    return labels


@pytest.fixture(scope="module")
def kernel_lattices():
    return [(q, _lattice_oracle(q)) for q in _kernel_inputs()]


def test_union_find_matches_a_relabelling_oracle():
    # batches of merges alone, with no find between them to flatten the
    # forest, build trees deep enough for merge's own path walks to matter;
    # each batch returns exactly the pairs that joined two classes, in order
    rng = random.Random(7)
    for n in (1, 2, 10, 60):
        find, merge = congruence.union_find(n)
        labels = list(range(n))
        for size in (0, 1, 2, n, 3 * n):
            batch = [(rng.randrange(n), rng.randrange(n)) for _ in range(size)]
            expected = []
            for x, y in batch:
                if labels[x] != labels[y]:
                    expected.append((x, y))
                    old, new = labels[y], labels[x]
                    labels = [new if v == old else v for v in labels]
            assert merge(batch) == expected
        assert (_oracles.canonical_labels(find(z) for z in range(n))
                == _oracles.canonical_labels(labels))


def test_worklist_closure_matches_the_pass_oracle():
    # the whole default corpus: a closure that skips the images of some
    # merged pairs first goes wrong on conj-a4 and conj-d16
    rng = random.Random(19)
    seeds = 0
    for q in _census(5) + corpus.default_corpus():
        n = q.order
        for a in range(n):
            for b in range(n):
                got = congruence.congruence_generated(q, [(a, b)]).class_of
                assert got == _oracles.congruence_generated_by_passes(
                    q.table, [(a, b)]), (q.label, a, b)
        for _ in range(8):
            pairs = [(rng.randrange(n), rng.randrange(n))
                     for _ in range(rng.randrange(4))]
            got = congruence.congruence_generated(q, pairs).class_of
            assert got == _oracles.congruence_generated_by_passes(
                q.table, pairs), (q.label, pairs)
            seeds += 1
    assert seeds == 8 * (len(_census(5)) + len(corpus.default_corpus()))


def test_principal_congruence_is_the_least_relating_its_pair(kernel_lattices):
    for q, lattice in kernel_lattices:
        for a in range(q.order):
            for b in range(a + 1, q.order):
                holding = [c for c in lattice if c[a] == c[b]]
                least = max(holding, key=lambda c: len(set(c)))
                # least refines every congruence relating a and b
                for other in holding:
                    assert all(other[x] == other[y]
                               for x in range(q.order) for y in range(q.order)
                               if least[x] == least[y]), (q.label, a, b)
                got = congruence.congruence_generated(q, [(a, b)]).class_of
                assert got == least, (q.label, a, b)


def test_all_congruences_in_exact_order(kernel_lattices):
    for q, lattice in kernel_lattices:
        want = sorted(lattice, key=lambda c: (-len(set(c)), c))
        got = [c.class_of for c in congruence.all_congruences(q)]
        assert got == want, q.label


def test_join_matches_the_union_of_both_partitions(kernel_lattices):
    # all_congruences joins a member with a principal congruence through
    # _joined, along links tying each point to the first of its class
    joins = 0
    for q, lattice in kernel_lattices:
        cons = [Congruence.from_class_of(c) for c in lattice]
        for x in cons:
            for y in cons:
                links = [(cls[0], z) for cls in y.classes for z in cls[1:]]
                got = congruence._joined(x.class_of, links)
                assert got == _oracles.partition_join(x.class_of, y.class_of)
                joins += 1
    assert joins == 16946


def test_congruences_compare_by_class_of_only():
    a = Congruence.from_classes(3, [[0, 2], [1]])
    assert a == Congruence(3, a.class_of, ())
    assert hash(a) == hash(Congruence(0, a.class_of, a.classes))
    assert a != Congruence.from_classes(3, [[0, 1], [2]])


def test_trans_of_trivial_quandles():
    for n in (1, 2, 5):
        assert congruence.trans(core.trivial(n)).order == 1


def test_inner_and_transvection_orders_of_dihedral_three():
    q = core.dihedral(3)
    assert congruence.inn(q).order == 6
    assert congruence.trans(q).order == 3


def _trans_rel(q, cong):
    return permgroup.closure(congruence.trans_rel_generators(q, cong),
                             degree=q.order)


def test_trans_rel_at_zero_is_trivial():
    q = core.dihedral(6)
    assert _trans_rel(q, Congruence.zero(6)).order == 1


def test_trans_rel_trivial_iff_inside_lambda():
    # dihedral(4) has proper nontrivial lambda, so both branches are hit
    q = core.dihedral(4)
    lam = congruence.lambda_congruence(q)
    seen = set()
    for cong in congruence.all_congruences(q):
        rel = _trans_rel(q, cong)
        assert rel.is_trivial() == cong.refines(lam)
        seen.add(rel.is_trivial())
    assert seen == {True, False}


def test_lambda_of_trivial_is_full():
    assert congruence.lambda_congruence(core.trivial(4)).num_classes == 1


def test_lambda_of_dihedral_three_is_zero():
    assert congruence.lambda_congruence(core.dihedral(3)).is_zero


def test_lambda_of_dihedral_four_merges_opposite_points():
    # rows 0 and 2 agree: -y and 4-y coincide mod 4
    lam = congruence.lambda_congruence(core.dihedral(4))
    assert classes_as_sets(lam) == {frozenset({0, 2}), frozenset({1, 3})}


def test_l_chain_of_trivial():
    chain = congruence.l_chain(core.trivial(5))
    assert [q.order for q in chain] == [5, 1]


def test_l_chain_of_dihedral_four():
    chain = congruence.l_chain(core.dihedral(4))
    assert [q.order for q in chain] == [4, 2, 1]


def test_l_chain_stalls_on_faithful_nontrivial():
    chain = congruence.l_chain(core.dihedral(3))
    assert chain[-1].order == 3


def _first_zero_index(chain):
    """Index of the chain's first zero term, the reductive degree, or None."""
    return next((i for i, term in enumerate(chain) if term.is_zero), None)


def test_o_chain_of_trivial():
    chain = congruence.o_chain(core.trivial(3))
    assert len(chain) == 2
    assert chain[0].num_classes == 1 and chain[1].is_zero
    assert _first_zero_index(chain) == 1


def test_o_chain_of_dihedral_four():
    chain = congruence.o_chain(core.dihedral(4))
    assert _first_zero_index(chain) == 2
    assert classes_as_sets(chain[1]) == {frozenset({0, 2}), frozenset({1, 3})}


def test_o_chain_of_dihedral_three_never_reaches_zero():
    chain = congruence.o_chain(core.dihedral(3))
    assert _first_zero_index(chain) is None
    assert chain[-1].num_classes == 1


def test_o_chain_terms_refine_downward():
    for q in (core.dihedral(8), core.dihedral(16), core.trivial(4)):
        terms = list(congruence.o_chain(q))
        for earlier, later in zip(terms, terms[1:]):
            assert later.refines(earlier)


def test_o_chain_degree_of_the_point_is_zero():
    chain = congruence.o_chain(core.trivial(1))
    assert _first_zero_index(chain) == 0


def test_o_chain_matches_checked_orbit_congruences():
    # the chain closes no group and checks neither that each relative
    # transvection group is normal in Inn(Q) nor that its orbit partition
    # is a congruence; both are checked here on the closed groups
    for q in corpus.default_corpus() + _census(5):
        terms = [Congruence.one(q.order)]
        while True:
            group = _trans_rel(q, terms[-1])
            for row in q.table:
                row_inv = permgroup.inverse(row)
                for gen in group.generators:
                    conjugate = permgroup.compose(row_inv, permgroup.compose(gen, row))
                    assert conjugate in group, q.label
            elements = _oracles.closure_elements(list(group.generators), q.order)
            assert group.order == len(elements), q.label
            nxt = Congruence.from_classes(q.order, permgroup.orbits(list(elements)))
            assert core.congruence_witness(q, nxt.class_of) is None, q.label
            if nxt == terms[-1]:
                break
            terms.append(nxt)
        assert congruence.o_chain(q) == tuple(terms), q.label


def _every_relative_transvection(q, cong):
    """L_a L_e^-1 for every a outside the first member e of its class, repeats kept."""
    return [permgroup.compose(q.table[a], permgroup.inverse(q.table[cls[0]]))
            for cls in cong.classes for a in cls[1:]]


def test_o_chain_without_repeated_generators_is_the_full_generator_chain():
    # trans_rel_generators drops repeats among the relative transvections;
    # a chain fed every one of them, orbits by the oracle's sweeps, must agree
    inputs = [(q.label, q) for q in corpus.default_corpus()]
    for label, q in inputs + _inputs.classify_workload_inputs():
        terms = [Congruence.one(q.order)]
        while not terms[-1].is_zero:
            gens = _every_relative_transvection(q, terms[-1])
            orbits = _oracles.orbits_by_sweeps(gens, frozenset(range(q.order)))
            nxt = Congruence.from_classes(q.order, [sorted(o) for o in orbits])
            if nxt == terms[-1]:
                break
            terms.append(nxt)
        assert congruence.o_chain(q) == tuple(terms), label


def test_trans_rel_generators_are_the_distinct_relative_transvections():
    inputs = [(q.label, q) for q in corpus.default_corpus() + _census(4)]
    repeats = 0
    for label, q in inputs + _inputs.classify_workload_inputs():
        for cong in {congruence.o_chain(q)[-1], Congruence.one(q.order),
                     congruence.lambda_congruence(q)}:
            every = _every_relative_transvection(q, cong)
            gens = congruence.trans_rel_generators(q, cong)
            assert gens == list(dict.fromkeys(every)), label
            assert len(set(gens)) == len(gens), label
            repeats += len(every) - len(gens)
    assert repeats > 0


def test_l_chain_is_the_chain_of_checked_quotients():
    # l_chain builds each quotient without core.quotient's congruence check
    inputs = corpus.default_corpus() + _census(4)
    inputs += [q for _, q in _inputs.classify_workload_inputs()]
    inputs.append(core.dihedral(8).relabel(None))
    collapsed = 0
    for q in inputs:
        want = [q]
        base = q.label or f"order{q.order}"
        while not (lam := congruence.lambda_congruence(want[-1])).is_zero:
            quot, _ = core.quotient(want[-1], lam.classes,
                                    label=f"L{len(want)}({base})")
            want.append(quot)
        got = congruence.l_chain(q)
        assert got == want, q.label
        assert [x.label for x in got] == [x.label for x in want], q.label
        collapsed += len(got) > 2
    assert collapsed > 0
