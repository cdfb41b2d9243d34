"""Congruences of finite quandles and the chains built from them.

A congruence is an equivalence relation compatible with the operation in
both directions: related arguments give related products, and related
products with related left factors force related right factors.  Quotients
by congruences are again quandles (see core.quotient).  This module also
builds the inner and transvection groups, the congruence identifying equal
rows, and the two descending chains derived from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Hashable, Iterable, Sequence

from . import core, permgroup
from .core import Quandle
from .errors import CapExceeded
from .permgroup import PermGroup

#: Most congruences all_congruences finds before raising CapExceeded.
DEFAULT_CONGRUENCE_CAP = 100_000


@dataclass(frozen=True)
class Congruence:
    """A partition of 0..n-1 in canonical form.

    Classes are sorted tuples ordered by smallest member, and class ids in
    class_of follow that order, so equal partitions compare equal.  Equality
    and hashing read class_of only: n and classes follow from it.
    """

    n: int = field(compare=False)
    class_of: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...] = field(compare=False)

    @staticmethod
    def from_class_of(labels: Sequence[Hashable]) -> "Congruence":
        return _congruence(_canonical(labels))

    @staticmethod
    def from_classes(n: int, classes: Iterable[Sequence[int]]) -> "Congruence":
        return Congruence.from_class_of(core.partition_labels(n, classes))

    @staticmethod
    def zero(n: int) -> "Congruence":
        """The identity relation: all classes singletons."""
        return Congruence.from_class_of(tuple(range(n)))

    @staticmethod
    def one(n: int) -> "Congruence":
        """The full relation: a single class."""
        return Congruence.from_class_of((0,) * n)

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def is_zero(self) -> bool:
        return len(self.classes) == self.n

    def refines(self, other: "Congruence") -> bool:
        """True when every class of self sits inside a class of other."""
        if self.n != other.n:
            raise ValueError("partitions of different carriers")
        oc = other.class_of
        return all(oc[cls[0]] == oc[x] for cls in self.classes for x in cls)


def union_find(n: int) -> tuple[Callable[[int], int],
                                Callable[[Iterable[tuple[int, int]]], list]]:
    """A disjoint-set forest on 0..n-1, as (find, merge) closures.

    find returns the root of a point's class.  merge takes a batch of
    pairs, merges their classes in turn, and returns the pairs that joined
    two distinct classes, in order.  Both halve the paths they walk, and
    merge walks them itself, so a batch is one call.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def merge(pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
        merged = []
        for pair in pairs:
            x, y = pair
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            while parent[y] != y:
                parent[y] = y = parent[parent[y]]
            if x != y:
                parent[y] = x
                merged.append(pair)
        return merged

    return find, merge


def _canonical(labels: Iterable[Hashable]) -> tuple[int, ...]:
    """Class ids numbered by first appearance, the canonical class_of."""
    ids: dict[Hashable, int] = {}
    return tuple([ids.setdefault(lab, len(ids)) for lab in labels])


def _congruence(class_of: tuple[int, ...]) -> Congruence:
    """The Congruence of canonical class ids, bucketed once."""
    classes: list[list[int]] = [[] for _ in range(max(class_of, default=-1) + 1)]
    for x, c in enumerate(class_of):
        classes[c].append(x)
    return Congruence(len(class_of), class_of, tuple(map(tuple, classes)))


def _joined(class_of: tuple[int, ...],
            links: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """Canonical ids of the join of a partition with the pairs in links.

    The classes of the partition are the points of the forest, merged
    along each linked pair's ids in one batch.
    """
    find, merge = union_find(len(class_of))
    merge((class_of[x], class_of[y]) for x, y in links)
    return _canonical(map(find, class_of))


def _generated(table: core.Table, columns: Sequence[tuple[int, ...]],
               pairs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """Canonical ids of the least congruence holding the pairs.

    columns is the transposed table, columns[x] = (c>x for each c).  One
    merge per queued pair multiplies it by every c on both sides.
    """
    find, merge = union_find(len(table))
    queue = merge(pairs)
    while queue:
        x, y = queue.pop()
        queue += merge(chain(zip(table[x], table[y]), zip(columns[x], columns[y])))
    return _canonical(map(find, range(len(table))))


def congruence_generated(q: Quandle, pairs: Iterable[tuple[int, int]]) -> Congruence:
    """Least congruence containing the given pairs, by a worklist closure.

    Each union that merges two classes queues its pair (x, y), and each
    queued pair is multiplied once by every c on both sides: x>c ~ y>c and
    c>x ~ c>y are unioned in turn.  A union that merges nothing adds no
    relation, so x ~ y at the end is a chain of queued pairs, and its
    images under c chain x>c to y>c and c>x to c>y: the relation is
    compatible one side at a time, hence both (a>c ~ b>c ~ b>d).  Every
    union is forced by a relation already made, so nothing smaller holds
    the seeds.  Left division needs no unions of its own on a finite
    quandle, by the argument of core.congruence_witness.  Each merge drops
    the class count, so at most n - 1 pairs are queued, at 2n unions each:
    O(n^2) unions (R. Freese, "Computing congruences efficiently", Algebra
    Universalis 59, 2008).  Raises ValueError when a pair holds an element
    outside the carrier.
    """
    n = q.order
    pairs = list(pairs)
    if not all(0 <= a < n and 0 <= b < n for a, b in pairs):
        raise ValueError("pair contains elements outside the carrier")
    return _congruence(_generated(q.table, tuple(zip(*q.table)), pairs))


def all_congruences(q: Quandle) -> tuple[Congruence, ...]:
    """The whole congruence lattice, as joins of principal congruences.

    Every congruence is the join of the principal congruences of its
    related pairs.  The equivalence join of two congruences, the
    transitive closure of their union, is again a congruence: any chain
    witnessing a join relation maps through the operation one step at a
    time.  Step k joins every member found so far with the k-th distinct
    principal congruence p, unless p refines it, by merging the member's
    classes along links tying each point to the first point of its class
    in p (_joined); so after k steps found holds the joins of every subset
    of the first k.  Each p is kept with the first pair (a, b) generating
    it, and refinement is read off that pair in O(1): Cg(a, b) <= theta
    exactly when a theta b, for every congruence theta, since Cg(a, b) is
    the least congruence relating a and b.  Cg(a, b) = Cg(c>a, c>b) for
    every c, since a congruence relating a and b relates c>a and c>b, and
    L_c^-1 is a power of L_c; so only the first pair of each Inn(Q)-orbit
    of pairs is closed, and the rest of its orbit is marked by a search
    through the columns.  Members are kept as canonical class ids, and a
    Congruence is built only for each final one.  Sorted finest first
    (descending class count breaks no refinement order).  Raises
    CapExceeded exactly when the lattice has more than
    DEFAULT_CONGRUENCE_CAP members.
    """
    n = q.order
    table = q.table
    columns = tuple(zip(*table))
    principal: dict[tuple[int, ...], tuple[int, int]] = {}
    seen: set[tuple[int, int]] = set()
    for a in range(n):
        for b in range(a + 1, n):
            if (a, b) in seen:
                continue
            principal.setdefault(_generated(table, columns, [(a, b)]), (a, b))
            stack = [(a, b)]
            while stack:
                x, y = stack.pop()
                for u, v in zip(columns[x], columns[y]):
                    pair = (u, v) if u < v else (v, u)
                    if pair not in seen:
                        seen.add(pair)
                        stack.append(pair)
    found = {tuple(range(n))}
    for p, (a, b) in principal.items():
        first: dict[int, int] = {}
        links = [(f, x) for x, c in enumerate(p)
                 if (f := first.setdefault(c, x)) != x]
        found |= {_joined(x, links) for x in found if x[a] != x[b]}
        if len(found) > DEFAULT_CONGRUENCE_CAP:
            raise CapExceeded("congruence enumeration", DEFAULT_CONGRUENCE_CAP)
    return tuple(sorted(map(_congruence, found),
                        key=lambda c: (-c.num_classes, c.class_of)))


def inn(q: Quandle, trans_group: PermGroup | None = None) -> PermGroup:
    """Inner group, the closure of all left translations, as Trans(Q) <L_e>.

    L_a = (L_a L_e^-1) L_e, so the transvections and one translation L_e
    (e = 0) generate Inn(Q) (Joyce 1982), and Trans(Q) is normal in it.
    The group is built by extending a copy of Trans(Q)'s chain by L_e, so
    its generators begin with Trans(Q)'s.  trans_group, when given, must be
    trans(q); it is built here otherwise.
    """
    if trans_group is None:
        trans_group = trans(q)
    return permgroup.closure([q.table[0]], start=trans_group)


def trans(q: Quandle) -> PermGroup:
    """Transvection group: closure of all L_a L_b^{-1}."""
    return permgroup.closure(trans_rel_generators(q, Congruence.one(q.order)),
                             degree=q.order)


def trans_rel_generators(q: Quandle, cong: Congruence) -> list[permgroup.Perm]:
    """Generators of <L_a L_b^{-1} : a ~ b>, the transvections relative to cong.

    They are the distinct L_a L_e^{-1}, e the first member of a's class,
    which suffice since L_a L_b^{-1} = (L_a L_e^{-1})(L_b L_e^{-1})^{-1}.
    L_a L_e^{-1} = L_b L_e^{-1} exactly when L_a = L_b, so repeated rows
    within a class are dropped before composing (on dihedral(n), L_a =
    L_(a + n/2)); repeats across classes are dropped after.
    """
    if cong.n != q.order:
        raise ValueError("congruence size differs from quandle order")
    gens = []
    for cls in cong.classes:
        rows = dict.fromkeys(q.table[a] for a in cls[1:])
        if rows:
            base_inv = permgroup.inverse(q.table[cls[0]])
            gens.extend(permgroup.compose(row, base_inv) for row in rows)
    return list(dict.fromkeys(gens))


def lambda_congruence(q: Quandle) -> Congruence:
    """The congruence relating elements whose rows coincide.

    Rows are the labels; Q is faithful exactly when every class is a point.
    """
    return Congruence.from_class_of(q.table)


def l_chain(q: Quandle) -> list[Quandle]:
    """Iterated quotients by the row-equality congruence.

    Stops when the congruence is trivial, i.e. when the order stabilizes;
    a faithful quandle returns just [q].  Equal rows always form a
    congruence (a > c and b > c agree when L_a = L_b, and L_(c>a) =
    L_c L_a L_c^{-1}), so each quotient is built without the check of
    core.quotient.
    """
    chain = [q]
    base = q.label or f"order{q.order}"
    while not (lam := lambda_congruence(chain[-1])).is_zero:
        chain.append(core._quotient_table(chain[-1], lam.classes, lam.class_of,
                                          f"L{len(chain)}({base})"))
    return chain


def o_chain(q: Quandle) -> tuple[Congruence, ...]:
    """The descending chain 1_Q = O^0, O^1, ... of orbit congruences.

    Each term is the orbit partition of the transvections relative to the
    previous term (trans_rel_generators); no group is closed.  The chain
    stops at its first zero term, which has no generators, or before its
    first repeat.  Reaching the zero term is exactly reductivity: it is then
    the last term, and its index, len(chain) - 1, is the reductive degree.
    """
    terms = [Congruence.one(q.order)]
    while not terms[-1].is_zero:
        gens = trans_rel_generators(q, terms[-1])
        nxt = Congruence.from_classes(q.order, permgroup.orbits(gens))
        if nxt == terms[-1]:
            break
        terms.append(nxt)
    return tuple(terms)
