"""Congruences of finite quandles and the chains built from them.

A congruence is an equivalence relation compatible with the operation in
both directions: related arguments give related products, and related
products with related left factors force related right factors.  Quotients
by congruences are again quandles (see core.quotient).  This module also
builds the inner and transvection groups, the congruence identifying equal
rows, and the two descending chains derived from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Optional, Sequence

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
    class_of follow that order, so equal partitions compare equal.
    """

    n: int
    class_of: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_class_of(labels: Sequence[Hashable]) -> "Congruence":
        n = len(labels)
        first_seen: dict[Hashable, int] = {}
        buckets: list[list[int]] = []
        for x, lab in enumerate(labels):
            if lab not in first_seen:
                first_seen[lab] = len(buckets)
                buckets.append([])
            buckets[first_seen[lab]].append(x)
        classes = tuple(tuple(b) for b in buckets)
        class_of = [0] * n
        for i, cls in enumerate(classes):
            for x in cls:
                class_of[x] = i
        return Congruence(n, tuple(class_of), classes)

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


def union_find(n: int) -> tuple[Callable[[int], int], Callable[[int, int], bool]]:
    """A disjoint-set forest on 0..n-1, as (find, union) closures.

    find returns the root of a point's class (with path halving); union
    merges two classes and reports whether they were distinct.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> bool:
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        parent[ry] = rx
        return True

    return find, union


def join(a: Congruence, b: Congruence) -> Congruence:
    """Smallest congruence containing both.

    For congruences the equivalence-relation join (transitive closure of the
    union) is already compatible both ways: any chain witnessing a join
    relation maps through the operation one step at a time.
    """
    if a.n != b.n:
        raise ValueError("partitions of different carriers")
    find, union = union_find(a.n)
    for cong in (a, b):
        for cls in cong.classes:
            for x in cls[1:]:
                union(cls[0], x)
    return Congruence.from_class_of(tuple(find(x) for x in range(a.n)))


def congruence_generated(q: Quandle, pairs: Iterable[tuple[int, int]]) -> Congruence:
    """Least congruence containing the given pairs.

    Fixed-point closure: merge the seed pairs, then repeatedly merge the
    one-sided images of every merged pair until a full pass stays clean.
    For a class pair (r, b) and every carrier element c, the instances
    r>c ~ b>c and c>r ~ c>b are unioned; the two-sided instances
    a>c ~ b>d then follow by transitivity through b>c, so the fixed point
    is compatible with the operation.  Left division needs no unions of its
    own on a finite quandle, by the argument of core.congruence_witness:
    L_c^{-1} is a power of L_c, so it maps classes into classes, and that
    in turn relates the left quotients of related elements.  Each merge
    drops the class count, so at most n - 1 passes run.  Raises ValueError
    when a pair holds an element outside the carrier.
    """
    n = q.order
    table = q.table
    find, union = union_find(n)
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError("pair contains elements outside the carrier")
        union(a, b)
    dirty = True
    while dirty:
        dirty = False
        roots = [find(x) for x in range(n)]
        members: dict[int, list[int]] = {}
        for x, r in enumerate(roots):
            members.setdefault(r, []).append(x)
        for cls in members.values():
            base = cls[0]
            for b in cls[1:]:
                for c in range(n):
                    if union(table[base][c], table[b][c]):
                        dirty = True
                    if union(table[c][base], table[c][b]):
                        dirty = True
    return Congruence.from_class_of(tuple(find(x) for x in range(n)))


def all_congruences(q: Quandle) -> tuple[Congruence, ...]:
    """The whole congruence lattice, as joins of principal congruences.

    Every congruence is the join of the principal congruences of its
    related pairs.  Step k joins every member found so far with the k-th
    distinct principal congruence p, unless p refines it, so after k steps
    found holds the joins of every subset of the first k.  Sorted finest
    first (descending class count breaks no refinement order).  Raises
    CapExceeded exactly when the lattice has more than
    DEFAULT_CONGRUENCE_CAP members.
    """
    n = q.order
    found = {Congruence.zero(n)}
    for p in dict.fromkeys(congruence_generated(q, [(a, b)])
                           for a in range(n) for b in range(a + 1, n)):
        found |= {join(x, p) for x in found if not p.refines(x)}
        if len(found) > DEFAULT_CONGRUENCE_CAP:
            raise CapExceeded("congruence enumeration", DEFAULT_CONGRUENCE_CAP)
    return tuple(sorted(found, key=lambda c: (-c.num_classes, c.class_of)))


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
        base_inv = permgroup.inverse(q.table[cls[0]])
        for row in dict.fromkeys(q.table[a] for a in cls[1:]):
            gens.append(permgroup.compose(row, base_inv))
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


@dataclass(frozen=True)
class OChain:
    """The descending chain 1_Q = O^0, O^1, ... up to its first repeat.

    Each term is the orbit congruence of the transvection group relative to
    the previous term; reaching the identity partition is exactly
    reductivity, and the index of that term is the reductive degree.
    """

    terms: tuple[Congruence, ...]

    def __len__(self) -> int:
        return len(self.terms)

    def __getitem__(self, i: int) -> Congruence:
        return self.terms[i]

    def __iter__(self):
        return iter(self.terms)

    @property
    def degree(self) -> Optional[int]:
        """Index of the first identity-partition term, if any."""
        for i, term in enumerate(self.terms):
            if term.is_zero:
                return i
        return None


def o_chain(q: Quandle) -> OChain:
    """Compute the O-chain of q, stopping at the first repeated term.

    Each term is the orbit partition of the previous term's
    trans_rel_generators; no group is closed.  The identity partition,
    which has no generators, ends the chain.
    """
    terms = [Congruence.one(q.order)]
    while not terms[-1].is_zero:
        gens = trans_rel_generators(q, terms[-1])
        nxt = Congruence.from_classes(q.order, permgroup.orbits(gens))
        if nxt == terms[-1]:
            break
        terms.append(nxt)
    return OChain(tuple(terms))
