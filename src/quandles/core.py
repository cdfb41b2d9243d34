"""Finite quandles as immutable left-translation tables.

A quandle is stored as a square tuple-of-tuples: table[a][b] is a > b, so row
a is the left translation L_a.  validate() checks the three axioms (a > a =
a, every L_a is a permutation, a > (b > c) = (a > b) > (a > c)) on tables
that come from outside the program.  The constructors and quotient() build
quandles by construction, checking only their parameters, so each table is
checked once, where it enters.  Elements are 0-based indices; the file
format used by the command line shifts to 1-based on the way out.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from . import grouptables, permgroup
from .errors import AxiomViolation, NotACongruence, NotAUnit, NotClosed

Table = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Quandle:
    """An immutable quandle; equality and hashing look at the table only.

    Quandle(table) itself checks nothing: use it for tables that are quandles
    by construction, and validate() for tables from outside.
    """

    table: Table
    label: str | None = field(default=None, compare=False)

    @property
    def order(self) -> int:
        return len(self.table)

    def left(self, a: int, b: int) -> int:
        """a > b."""
        return self.table[a][b]

    def relabel(self, label: str | None) -> "Quandle":
        return Quandle(self.table, label)

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        return f"<Quandle{tag} of order {self.order}>"


def validate(table: Sequence[Sequence[int]], label: str | None = None) -> Quandle:
    """Build a Quandle after checking all three axioms.

    Axioms are checked in order (idempotence, row bijectivity, left
    self-distributivity) and the first failure is reported with its witness.
    This is the check for tables from outside the program (parsed files and
    hand-written tables); the constructors below do not call it.
    """
    t = tuple(tuple(row) for row in table)
    n = len(t)
    if n == 0:
        raise ValueError("a quandle needs at least one element")
    for a, row in enumerate(t):
        if len(row) != n or not all(isinstance(v, int) for v in row):
            raise AxiomViolation(2, (a,))
    for a in range(n):
        if not (0 <= t[a][a] < n) or t[a][a] != a:
            raise AxiomViolation(1, (a,))
    full = set(range(n))
    for a in range(n):
        if set(t[a]) != full:
            raise AxiomViolation(2, (a,))
    for a in range(n):
        ta = t[a]
        for b in range(n):
            tab = ta[b]
            tb = t[b]
            tabrow = t[tab]
            for c in range(n):
                if ta[tb[c]] != tabrow[ta[c]]:
                    raise AxiomViolation(3, (a, b, c))
    return Quandle(t, label)


def trivial(n: int) -> Quandle:
    """x > y = y on n elements."""
    if n < 1:
        raise ValueError("order must be positive")
    row = tuple(range(n))
    return Quandle(tuple(row for _ in range(n)), f"trivial({n})")


def affine(n: int, t: int) -> Quandle:
    """x > y = t(y - x) + x on Z_n; t must be a unit mod n."""
    if n < 1:
        raise ValueError("order must be positive")
    t %= n
    if math.gcd(t, n) != 1:
        raise NotAUnit(n, t)
    table = tuple(
        tuple((t * (b - a) + a) % n for b in range(n)) for a in range(n)
    )
    return Quandle(table, f"affine({n},{t})")


def dihedral(n: int) -> Quandle:
    """x > y = 2x - y on Z_n (the affine quandle with multiplier -1)."""
    return affine(n, n - 1).relabel(f"dihedral({n})")


def conj(group: Sequence[Sequence[int]], exponent: int = 1,
         label: str | None = None) -> Quandle:
    """Conjugation quandle x > y = x^{-k} y x^k on a whole group.

    This is conj_subset over every element, so the rows are built in one
    place.
    """
    return conj_subset(group, range(len(group)), exponent,
                       label or f"conj(order {len(group)}, k={exponent})")


def conj_subset(group: Sequence[Sequence[int]], subset: Sequence[int],
                exponent: int = 1, label: str | None = None) -> Quandle:
    """Conjugation quandle x > y = x^{-k} y x^k on a conjugation-closed subset.

    Elements are the members of the subset in increasing order.  Closure
    is checked while the rows are built: the first pair (x, y) in that
    order whose conjugate leaves the subset raises NotClosed with (x, y)
    as witness.
    """
    g = grouptables.validate_group(group)
    if not subset or not all(0 <= x < len(g) for x in subset):
        raise ValueError("subset must be a nonempty set of group elements")
    members = sorted(set(subset))
    index = {x: i for i, x in enumerate(members)}
    inv = grouptables.inverses_of(g)
    table = []
    for x in members:
        xk = grouptables.power(g, x, exponent)
        xki = inv[xk]
        row = tuple(index.get(g[g[xki][y]][xk], -1) for y in members)
        if -1 in row:
            y = members[row.index(-1)]
            raise NotClosed((x, y), f"conjugate of {y} by element {x} leaves the subset")
        table.append(row)
    return Quandle(tuple(table), label or f"conj-subset(order {len(members)})")


def disjoint_union(*quandles: Quandle) -> Quandle:
    """Disjoint union; across blocks x > y = y."""
    if not quandles:
        raise ValueError("need at least one quandle")
    if len(quandles) == 1:
        return quandles[0]
    offsets = []
    acc = 0
    for q in quandles:
        offsets.append(acc)
        acc += q.order
    table = []
    for qi, q in enumerate(quandles):
        oi = offsets[qi]
        for a in range(q.order):
            row = []
            for qj, r in enumerate(quandles):
                oj = offsets[qj]
                if qi == qj:
                    row.extend(oi + v for v in q.table[a])
                else:
                    row.extend(range(oj, oj + r.order))
            table.append(tuple(row))
    label = " + ".join(q.label or "?" for q in quandles)
    return Quandle(tuple(table), label)


def direct_product(*quandles: Quandle) -> Quandle:
    """Componentwise product: grouptables.direct_product folded, row-major."""
    if not quandles:
        raise ValueError("need at least one quandle")
    table = functools.reduce(grouptables.direct_product,
                             (q.table for q in quandles))
    return Quandle(table, " x ".join(q.label or "?" for q in quandles))


def _close(table: Table, members: list[int], done: int) -> list[int]:
    """Extend distinct members, the first done of them closed, to a closed set.

    Each later member is multiplied both ways with every member listed
    before it, and new products are appended, so each pair is multiplied once.
    """
    seen = set(members)
    i = done
    while i < len(members):
        x = members[i]
        row = table[x]
        for j in range(i):
            y = members[j]
            v = row[y]
            if v not in seen:
                seen.add(v)
                members.append(v)
            v = table[y][x]
            if v not in seen:
                seen.add(v)
                members.append(v)
        i += 1
    return members


def subquandle_closure(q: Quandle, seed: Sequence[int]) -> tuple[int, ...]:
    """Smallest subset containing the seed closed under >, returned sorted.

    In a finite quandle closure under > alone suffices: each L_a restricts to
    an injection of the closed set into itself, hence a bijection, so left
    division never escapes.
    """
    members = set(seed)
    if not members:
        raise ValueError("seed must be nonempty")
    if not all(0 <= x < q.order for x in members):
        raise ValueError("seed contains elements outside the carrier")
    return tuple(sorted(_close(q.table, list(members), 0)))


def induced_subquandle(q: Quandle, subset: Sequence[int]) -> Quandle:
    """The quandle structure on a closed subset, reindexed along sorted order.

    Raises ValueError unless the subset is a nonempty set of carrier
    elements, and NotClosed with the first pair whose product leaves it.
    """
    members = tuple(sorted(set(subset)))
    if not members or members[0] < 0 or members[-1] >= q.order:
        raise ValueError("subset must be a nonempty set of carrier elements")
    index = {x: i for i, x in enumerate(members)}
    table = []
    for a in members:
        row = []
        for b in members:
            v = q.table[a][b]
            if v not in index:
                raise NotClosed((a, b))
            row.append(index[v])
        table.append(tuple(row))
    return Quandle(tuple(table))


def congruence_witness(q: Quandle, class_of: Sequence[int]) -> Optional[tuple[int, ...]]:
    """A violation of the two congruence conditions, or None.

    A witness (a, b, c, d, 1) means (a>c, b>d) split although a ~ b and
    c ~ d; direction 1 (products) is the only one returned.  O(n^2): each
    x is checked against its class's first member r only, r>c ~ x>c and
    c>r ~ c>x, which suffices by transitivity: a>c ~ r>c ~ b>c ~ b>r' ~
    b>d, with r' the first member of c's class.  Left division needs no
    check of its own: each L_c has finite order, so L_c^-1 is a power of
    L_c and maps classes into classes; and for x ~ r and y = L_x^-1(c),
    r>y ~ x>y = c, so y ~ L_r^-1(c).
    """
    n = q.order
    if len(class_of) != n:
        raise ValueError("partition size differs from quandle order")
    table = q.table
    base_of: dict[int, int] = {}
    for x in range(n):
        r = base_of.setdefault(class_of[x], x)
        if r == x:
            continue
        row_r, row_x = table[r], table[x]
        for c in range(n):
            if class_of[row_r[c]] != class_of[row_x[c]]:
                return (r, x, c, c, 1)
            if class_of[table[c][r]] != class_of[table[c][x]]:
                return (c, c, r, x, 1)
    return None


def partition_labels(n: int, classes: Iterable[Sequence[int]]) -> list[int]:
    """Class index of every carrier element; ValueError unless a partition."""
    class_of = [-1] * n
    for i, cls in enumerate(classes):
        for x in cls:
            if not 0 <= x < n or class_of[x] != -1:
                raise ValueError("not a partition of the carrier")
            class_of[x] = i
    if -1 in class_of:
        raise ValueError("not a partition of the carrier")
    return class_of


def quotient(q: Quandle, partition: Sequence[Sequence[int]],
             label: str | None = None) -> tuple[Quandle, tuple[int, ...]]:
    """Quotient by a congruence partition, with the projection map.

    The partition is given as blocks; they are renumbered by smallest member.
    Raises NotACongruence if the partition fails either congruence condition.
    That check is the only one: the quotient of a quandle by a congruence is
    a quandle, so its table is not re-validated.
    """
    n = q.order
    blocks = sorted((tuple(sorted(cls)) for cls in partition), key=min)
    class_of = partition_labels(n, blocks)
    witness = congruence_witness(q, class_of)
    if witness is not None:
        raise NotACongruence(witness)
    reps = [cls[0] for cls in blocks]
    table = tuple(
        tuple(class_of[q.table[a][b]] for b in reps) for a in reps
    )
    return Quandle(table, label), tuple(class_of)


def _element_invariants(q: Quandle) -> list[tuple]:
    orbit_parts = permgroup.orbits(q.table)
    orbit_size = [0] * q.order
    for part in orbit_parts:
        for x in part:
            orbit_size[x] = len(part)
    return [
        (permgroup.cycle_type(q.table[a]), orbit_size[a]) for a in range(q.order)
    ]


def is_isomorphic(q1: Quandle, q2: Quandle) -> Optional[tuple[int, ...]]:
    """An isomorphism q1 -> q2 as an image tuple, or None.

    Backtracking over images, pruned by per-element invariants (cycle type of
    the translation, orbit size); a pair (x, y) is rechecked as soon as the
    last of x, y, x > y receives an image, so a completed map is a bijective
    homomorphism.
    """
    n = q1.order
    if n != q2.order:
        return None
    inv1 = _element_invariants(q1)
    inv2 = _element_invariants(q2)
    if sorted(inv1) != sorted(inv2):
        return None
    candidates = [
        tuple(b for b in range(n) if inv2[b] == inv1[a]) for a in range(n)
    ]
    # Positions where each value occurs, to finish deferred homomorphism checks.
    positions: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for x in range(n):
        for y in range(n):
            positions[q1.table[x][y]].append((x, y))
    order = sorted(range(n), key=lambda a: (len(candidates[a]), a))
    image = [-1] * n
    used = [False] * n
    t1, t2 = q1.table, q2.table

    def consistent(a: int, b: int) -> bool:
        # a's image is tentatively b while we check, so pairs whose value is
        # a itself are not silently skipped.
        def img(z: int) -> int:
            return b if z == a else image[z]

        for x in range(n):
            px = img(x)
            if px == -1:
                continue
            iv = img(t1[a][x])
            if iv != -1 and t2[b][px] != iv:
                return False
            iv = img(t1[x][a])
            if iv != -1 and t2[px][b] != iv:
                return False
        for (x, y) in positions[a]:
            ix, iy = img(x), img(y)
            if ix != -1 and iy != -1 and t2[ix][iy] != b:
                return False
        return True

    # Depth-first as a loop, so the recursion limit does not bound n;
    # tried[k] counts the candidates already tried at position k.
    tried = [0] * n
    k = 0
    while 0 <= k < n:
        a = order[k]
        if image[a] != -1:
            used[image[a]] = False
            image[a] = -1
        cands = candidates[a]
        i = tried[k]
        while i < len(cands) and (used[cands[i]] or not consistent(a, cands[i])):
            i += 1
        if i == len(cands):
            tried[k] = 0
            k -= 1
        else:
            image[a] = cands[i]
            used[cands[i]] = True
            tried[k] = i + 1
            k += 1
    return tuple(image) if k == n else None
