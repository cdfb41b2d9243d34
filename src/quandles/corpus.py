"""Built-in quandles and groups, plus exhaustive small-order enumeration.

The registries hold every structure the verification suite and the
acceptance tests quantify over: parametric families at useful sizes, the
conjugation quandles of the small group tables, and one hand-transcribed
16-element table.  enumerate_quandles() produces the complete census of a
given order up to isomorphism, which is what makes "for every quandle of
order at most five" a checkable quantifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Iterator

from . import core, grouptables
from .core import Quandle, Table
from .errors import CapExceeded, UnknownName
from .grouptables import GroupTable
from .permgroup import compose, cycle_type, inverse

#: Largest order enumerate_quandles accepts by default.
DEFAULT_ENUMERATION_CAP = 6

# 16-element witness: three orbits, the first carrying two interleaved
# 4-element dihedral blocks, the other two trivial; the table is written
# 1-based, row a column b holding a > b.
_SIXTEEN = """
1 2 4 3 5 6 7 8 11 12 9 10 15 16 13 14
1 2 4 3 5 6 7 8 11 12 9 10 15 16 13 14
2 1 3 4 5 6 7 8 10 9 12 11 14 13 16 15
2 1 3 4 5 6 7 8 10 9 12 11 14 13 16 15
1 2 3 4 5 6 8 7 11 12 9 10 14 13 16 15
1 2 3 4 5 6 8 7 11 12 9 10 14 13 16 15
1 2 3 4 6 5 7 8 10 9 12 11 15 16 13 14
1 2 3 4 6 5 7 8 10 9 12 11 15 16 13 14
5 6 7 8 1 2 3 4 9 10 11 12 13 15 14 16
6 5 7 8 2 1 3 4 9 10 11 12 16 14 15 13
5 6 8 7 1 2 4 3 9 10 11 12 16 14 15 13
6 5 8 7 2 1 4 3 9 10 11 12 13 15 14 16
7 8 5 6 3 4 1 2 9 11 10 12 13 14 15 16
8 7 5 6 3 4 2 1 12 10 11 9 13 14 15 16
7 8 6 5 4 3 1 2 12 10 11 9 13 14 15 16
8 7 6 5 4 3 2 1 9 11 10 12 13 14 15 16
"""


def _one_based_table(text: str) -> tuple[tuple[int, ...], ...]:
    rows = [line.split() for line in text.strip().splitlines()]
    return tuple(tuple(int(v) - 1 for v in row) for row in rows)


def _sixteen() -> Quandle:
    return core.validate(_one_based_table(_SIXTEEN), label="paper-example-16")


def _s3_class(which: int, label: str) -> Quandle:
    table = grouptables.symmetric_group(3)
    cls = grouptables.conjugacy_classes(table)[which]
    return core.conj_subset(table, cls, label=label)


_GROUP_BUILDERS: dict[str, Callable[[], GroupTable]] = {
    "c1-group": lambda: grouptables.cyclic(1),
    "c2-group": lambda: grouptables.cyclic(2),
    "c3-group": lambda: grouptables.cyclic(3),
    "c4-group": lambda: grouptables.cyclic(4),
    "c5-group": lambda: grouptables.cyclic(5),
    "c6-group": lambda: grouptables.cyclic(6),
    "c8-group": lambda: grouptables.cyclic(8),
    "v4-group": lambda: grouptables.direct_product(
        grouptables.cyclic(2), grouptables.cyclic(2)),
    "s3-group": lambda: grouptables.symmetric_group(3),
    "d8-group": lambda: grouptables.dihedral_group(4),
    "q8-group": lambda: grouptables.quaternion_8(),
    "a4-group": lambda: grouptables.alternating_group_4(),
    "d12-group": lambda: grouptables.dihedral_group(6),
    "d16-group": lambda: grouptables.dihedral_group(8),
    "s4-group": lambda: grouptables.symmetric_group(4),
    "h27-group": lambda: grouptables.heisenberg_3(),
}

_QUANDLE_BUILDERS: dict[str, Callable[[], Quandle]] = {
    "t1": lambda: core.trivial(1),
    "t2": lambda: core.trivial(2),
    "t3": lambda: core.trivial(3),
    "t4": lambda: core.trivial(4),
    "d2": lambda: core.dihedral(2),
    "d3": lambda: core.dihedral(3),
    "d4": lambda: core.dihedral(4),
    "d5": lambda: core.dihedral(5),
    "d6": lambda: core.dihedral(6),
    "d8": lambda: core.dihedral(8),
    "d16": lambda: core.dihedral(16),
    "affine-5-2": lambda: core.affine(5, 2),
    "affine-7-3": lambda: core.affine(7, 3),
    "conj-s3": lambda: core.conj(grouptables.symmetric_group(3)),
    "conj-q8": lambda: core.conj(grouptables.quaternion_8()),
    "conj-d8": lambda: core.conj(grouptables.dihedral_group(4)),
    "conj-a4": lambda: core.conj(grouptables.alternating_group_4()),
    "conj-d16": lambda: core.conj(grouptables.dihedral_group(8)),
    "s3-transpositions": lambda: _s3_class(1, "s3-transpositions"),
    "s3-3cycles": lambda: _s3_class(2, "s3-3cycles"),
    "d4-plus-d4": lambda: core.disjoint_union(core.dihedral(4), core.dihedral(4)),
    "d3-times-d3": lambda: core.direct_product(core.dihedral(3), core.dihedral(3)),
    "d4-times-d4": lambda: core.direct_product(core.dihedral(4), core.dihedral(4)),
    "paper-example-16": _sixteen,
}


def builtin_quandle_names() -> tuple[str, ...]:
    return tuple(_QUANDLE_BUILDERS)


def builtin_group_names() -> tuple[str, ...]:
    return tuple(_GROUP_BUILDERS)


def builtin_quandle(name: str) -> Quandle:
    try:
        builder = _QUANDLE_BUILDERS[name]
    except KeyError:
        raise UnknownName(name, builtin_quandle_names()) from None
    return builder().relabel(name)


def builtin_group(name: str) -> GroupTable:
    try:
        builder = _GROUP_BUILDERS[name]
    except KeyError:
        raise UnknownName(name, builtin_group_names()) from None
    return builder()


def builtin_groups() -> list[tuple[str, GroupTable]]:
    """All built-in group tables as (name, table) pairs."""
    return [(name, builtin_group(name)) for name in builtin_group_names()]


@dataclass(frozen=True)
class CorpusSpec:
    """Recipe for assembling a verification corpus.

    The corpus is the builtin quandle registry, followed by the complete
    census of every order up to exhaustive_up_to (none by default), each
    order enumerated under enumeration_cap.
    """

    exhaustive_up_to: int = 0
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP


def default_corpus(spec: CorpusSpec | None = None) -> list[Quandle]:
    """Materialize a corpus from a spec (builtins only when spec is None)."""
    spec = spec or CorpusSpec()
    members = [builtin_quandle(name) for name in builtin_quandle_names()]
    for n in range(1, spec.exhaustive_up_to + 1):
        members.extend(enumerate_quandles(n, spec.enumeration_cap))
    return members


def _row0_representatives(n: int) -> list[tuple[int, ...]]:
    """The least permutation of 0..n-1 fixing 0 of each cycle type, sorted.

    Two permutations fixing 0 are conjugate under the stabiliser of 0
    exactly when their cycle types agree, so these are the least members
    of the stabiliser's conjugacy classes: one per partition of n - 1.
    permutations() runs in lexicographic order, so the first member met
    of each type is its least, and the types are met in that order too.
    """
    least: dict[tuple[int, ...], tuple[int, ...]] = {}
    for p in permutations(range(n)):
        if p[0] == 0:
            least.setdefault(cycle_type(p), p)
    return list(least.values())


def _quandle_tables(n: int) -> Iterator[Table]:
    """The quandle tables of order n with row 0 in _row0_representatives(n),
    in lexicographic order.

    Rows are placed top to bottom among the permutations fixing the
    diagonal entry.  Self-distributivity is L_(x>y) = L_x L_y L_x^-1 for
    all x, y, so when row r is placed each pair (x, y) = (a, r) or (r, a)
    with a < r names the row that c = x > y must have.  A placed row c is
    compared with it; a later row c records it as forced, a conflicting
    record prunes the branch, and a forced row is the only one tried
    there (it fixes c, since L_x L_y L_x^-1 (x>y) = x>y).  Each pair is
    settled once its larger member is placed, so a completed table is a
    quandle.
    """
    candidates = [_row0_representatives(n)] + [
        [p for p in permutations(range(n)) if p[a] == a] for a in range(1, n)]
    rows: list[tuple[int, ...]] = []
    inverses: list[tuple[int, ...]] = []
    forced: list[tuple[int, ...] | None] = [None] * n

    def propagate(r: int, new: list[int]) -> bool:
        """Check the rows forced by the pairs with r, or record them as
        forced, appending each row newly forced to new; False on a
        conflict."""
        for a in range(r):
            for x, y in ((a, r), (r, a)):
                c = rows[x][y]
                need = compose(compose(rows[x], rows[y]), inverses[x])
                known = rows[c] if c <= r else forced[c]
                if known is None:
                    forced[c] = need
                    new.append(c)
                elif known != need:
                    return False
        return True

    def extend(r: int) -> Iterator[Table]:
        if r == n:
            yield tuple(rows)
            return
        for p in candidates[r] if forced[r] is None else (forced[r],):
            rows.append(p)
            inverses.append(inverse(p))
            new: list[int] = []
            if propagate(r, new):
                yield from extend(r + 1)
            for c in new:
                forced[c] = None
            rows.pop()
            inverses.pop()

    return extend(0)


def enumerate_quandles(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> list[Quandle]:
    """All quandles of order n, one representative per isomorphism class.

    Each class is represented by its lexicographically least table, and
    the classes come in the order of those tables.  The search is
    _quandle_tables(): it builds the tables by propagating
    L_(a>b) = L_a L_b L_a^-1 row by row, so a finished table is a quandle
    and is not validated, and it restricts row 0 to one permutation per
    cycle type.  That restriction loses no class.  A relabelling sigma
    fixing 0 turns row 0 into sigma row0 sigma^-1, so the least table T
    of a class has row0(T) <= sigma row0(T) sigma^-1 for every such sigma:
    row0(T) is the least member of its conjugacy class under the
    stabiliser of 0, and T is still visited.  The tables left out are
    never the least of their class and propagation prunes only tables
    that are not quandles, so the tables still arrive in lexicographic
    order and the first one met of each class is its least.

    A finished table is compared only with the accepted classes of equal
    sorted element invariants, since no other is isomorphic to it, and is
    kept when new.  Its invariants are computed once, for the bucket key
    and every isomorphism test.
    """
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    if n > cap:
        raise CapExceeded("exhaustive enumeration order", cap)
    accepted: list[Quandle] = []
    by_invariants: dict[tuple, list[tuple[Quandle, list[tuple]]]] = {}
    for table in _quandle_tables(n):
        q = Quandle(table)
        invariants = core._element_invariants(q)
        alike = by_invariants.setdefault(tuple(sorted(invariants)), [])
        if all(core._isomorphism(q, invariants, seen, seen_invariants) is None
               for seen, seen_invariants in alike):
            accepted.append(q.relabel(f"enum{n}-{len(accepted)}"))
            alike.append((accepted[-1], invariants))
    return accepted
