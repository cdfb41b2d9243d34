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

from . import core, grouptables, qndfile
from .core import Quandle, Table
from .errors import CapExceeded, UnknownName
from .grouptables import GroupTable
from .permgroup import compose, inverse

#: Largest order enumerate_quandles accepts by default.
DEFAULT_ENUMERATION_CAP = 6

# 16-element witness: three orbits, the first carrying two interleaved
# 4-element dihedral blocks, the other two trivial; the table is a .qnd
# document (qndfile), 1-based, row a column b holding a > b.
_SIXTEEN = """
16
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


def _s3_class(which: int) -> Quandle:
    table = grouptables.symmetric_group(3)
    return core.conj_subset(table, grouptables.conjugacy_classes(table)[which])


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
    "s3-transpositions": lambda: _s3_class(1),
    "s3-3cycles": lambda: _s3_class(2),
    "d4-plus-d4": lambda: core.disjoint_union(core.dihedral(4), core.dihedral(4)),
    "d3-times-d3": lambda: core.direct_product(core.dihedral(3), core.dihedral(3)),
    "d4-times-d4": lambda: core.direct_product(core.dihedral(4), core.dihedral(4)),
    "paper-example-16": lambda: qndfile.parse(_SIXTEEN),
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


def _quandle_tables(n: int) -> Iterator[Table]:
    """The quandle tables of order n that survive the orderly pruning
    below, in lexicographic order.

    Rows are placed top to bottom among the permutations fixing the
    diagonal entry.  Self-distributivity is L_(x>y) = L_x L_y L_x^-1 for
    all x, y, so when row r is placed each pair (x, y) = (a, r) or (r, a)
    with a < r names the row that c = x > y must have.  A placed row c is
    compared with it; a later row c records it as forced, a conflicting
    record prunes the branch, and a forced row is the only one tried
    there (it fixes c, since L_x L_y L_x^-1 (x>y) = x>y).  Each pair is
    settled once its larger member is placed, so a completed table is a
    quandle.

    Orderly pruning (McKay, J. Algorithms 26, 1998): every relabelling
    sigma != 1 that fixes 0 is listed, and after each row is placed the
    prefix is compared with its image.  Row j of sigma T is
    sigma T[sigma^-1(j)] sigma^-1.  Let j be the first row where sigma T
    and T differ.  If rows j and sigma^-1(j) are both placed and sigma T
    is smaller there, then every completion T' of the prefix has
    sigma T' < T', so none is the least table of its class, and the
    branch is pruned.  The least table of a class is never pruned, and
    the tables still come in lexicographic order, so the first table met
    of each class is its least.  A sigma whose image is larger at a
    placed row can never prune below it and is dropped; one stopped at an
    unplaced row carries its j down to the next row.

    At row 0 this is the rule that row 0 be the least of its conjugates
    under the stabiliser of 0.  Since sigma fixes 0, sigma T has row 0
    equal to sigma p sigma^-1 when row 0 is p.  When p is not the least
    of its conjugates, some sigma makes it smaller and the branch is
    pruned; when it is, every sigma not commuting with p makes row 0
    larger and is dropped, and those commuting with p go on with j = 1.
    """
    candidates = [[p for p in permutations(range(n)) if p[a] == a]
                  for a in range(n)]
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

    def undecided(r: int, pending: list[tuple]) -> list[tuple] | None:
        """The (sigma, sigma^-1, j) of pending that rows 0..r leave open,
        each with j its first row not known equal; None when one of them
        makes the prefix smaller."""
        left = []
        for s, s_inv, j in pending:
            while j <= r and s_inv[j] <= r:
                image = compose(compose(s, rows[s_inv[j]]), s_inv)
                if image != rows[j]:
                    if image < rows[j]:
                        return None
                    break
                j += 1
            else:
                left.append((s, s_inv, j))
        return left

    def extend(r: int, pending: list[tuple]) -> Iterator[Table]:
        if r == n:
            yield tuple(rows)
            return
        for p in candidates[r] if forced[r] is None else (forced[r],):
            rows.append(p)
            inverses.append(inverse(p))
            new: list[int] = []
            if propagate(r, new):
                left = undecided(r, pending)
                if left is not None:
                    yield from extend(r + 1, left)
            for c in new:
                forced[c] = None
            rows.pop()
            inverses.pop()

    # candidates[0][0] is the identity
    return extend(0, [(s, inverse(s), 0) for s in candidates[0][1:]])


def enumerate_quandles(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> list[Quandle]:
    """All quandles of order n, one representative per isomorphism class.

    Each class is represented by its lexicographically least table, and
    the classes come in the order of those tables.  The search is
    _quandle_tables(): it builds the tables by propagating
    L_(a>b) = L_a L_b L_a^-1 row by row, so a finished table is a quandle
    and is not validated, and it prunes a partial table once a
    relabelling fixing 0 makes its placed rows smaller.  Its docstring
    shows that the least table of every class survives, in lexicographic
    order, so the first table met of each class is its least.  At orders
    5, 6 and 7 the search completes 46, 187 and 950 tables for 22, 73 and
    298 classes.

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
