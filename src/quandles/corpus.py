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
from typing import Callable

from . import core, grouptables
from .core import Quandle
from .errors import CapExceeded, UnknownName
from .grouptables import GroupTable

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


def _prefix_consistent(rows: list[tuple[int, ...]], r: int, n: int) -> bool:
    """Check the distributivity triples that completing row r makes decidable.

    A triple (a, b, c) is decidable once rows a, b and a>b all exist; the
    new ones after placing row r are those whose largest needed row is r.
    """
    for a in range(r + 1):
        row_a = rows[a]
        for b in range(r + 1):
            ab = row_a[b]
            if ab > r or (a != r and b != r and ab != r):
                continue
            row_b = rows[b]
            row_ab = rows[ab]
            for c in range(n):
                if row_a[row_b[c]] != row_ab[row_a[c]]:
                    return False
    return True


def enumerate_quandles(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> list[Quandle]:
    """All quandles of order n, one representative per isomorphism class.

    Rows are chosen top to bottom among the permutations fixing the
    diagonal entry, which settles idempotence and row bijectivity by
    construction; self-distributivity is enforced incrementally after each
    row so dead prefixes are cut early.  By the last row every triple has
    been checked, so a finished table is a quandle and is not re-validated.
    A finished table is compared only with the accepted classes of equal
    sorted element invariants, since no other is isomorphic to it, and is
    kept when new.
    """
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    if n > cap:
        raise CapExceeded("exhaustive enumeration order", cap)
    candidates = [
        [p for p in permutations(range(n)) if p[a] == a] for a in range(n)]
    accepted: list[Quandle] = []
    by_invariants: dict[tuple, list[Quandle]] = {}
    rows: list[tuple[int, ...]] = []

    def extend(r: int) -> None:
        if r == n:
            q = Quandle(tuple(rows))
            alike = by_invariants.setdefault(
                tuple(sorted(core._element_invariants(q))), [])
            if all(core.is_isomorphic(q, seen) is None for seen in alike):
                accepted.append(q.relabel(f"enum{n}-{len(accepted)}"))
                alike.append(accepted[-1])
            return
        for p in candidates[r]:
            rows.append(p)
            if _prefix_consistent(rows, r, n):
                extend(r + 1)
            rows.pop()

    extend(0)
    return accepted
