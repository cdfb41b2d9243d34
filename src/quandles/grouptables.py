"""Finite groups as raw multiplication tables.

A group table is a square tuple-of-tuples over 0..m-1 with table[a][b] the
product a*b.  Nothing here assumes which element is the identity; validation
finds it.  Tables double as their own left regular permutation representation
(row a is the permutation x -> a*x), so permgroup.closure(table) is the group
as a permutation group, with its nilpotency class and derived length.  The
closure of a subset under the operation, and the greedy generating set read
off it, serve quandle tables too.
"""

from __future__ import annotations

from typing import Sequence

from . import permgroup
from .errors import NotAGroup

GroupTable = tuple[tuple[int, ...], ...]


def validate_group(table: Sequence[Sequence[int]]) -> GroupTable:
    """Check the group axioms and return the table as nested tuples.

    Associativity is checked a row at a time for a in a generating set X
    only, taken greedily in element order by _generating_set.  That is
    enough: A = {a : (ab)c = a(bc) for all b, c} is closed under the
    product, since for a, a' in A, ((aa')b)c = (a(a'b))c = a((a'b)c) =
    a(a'(bc)) = (aa')(bc), and X generates everything under the product
    alone, so A holds every element.  Neither step needs an identity.  The
    cost is O(m^2 |X|) lookups.  A failure reruns the ordered scan over
    all (a, b, c), so the message names the first failing triple in that
    order.  The identity is identity_of's first left identity e, which is
    the two-sided one f when there is one (e = ef = f), so the table has
    an identity exactly when e is also a right identity.
    """
    t = tuple(tuple(row) for row in table)
    m = len(t)
    if m == 0:
        raise NotAGroup("empty table")
    for a, row in enumerate(t):
        if len(row) != m:
            raise NotAGroup(f"row {a} has length {len(row)}, expected {m}")
        for b, v in enumerate(row):
            if not isinstance(v, int) or not 0 <= v < m:
                raise NotAGroup(f"entry at ({a}, {b}) is not an element index")
    compose = permgroup.compose
    if not all(t[t[a][b]] == compose(t[a], t[b])
               for a in _generating_set(t) for b in range(m)):
        for a in range(m):
            for b in range(m):
                ab = t[a][b]
                for c in range(m):
                    if t[ab][c] != t[a][t[b][c]]:
                        raise NotAGroup(f"associativity fails at ({a}, {b}, {c})")
    e = identity_of(t)
    if any(t[x][e] != x for x in range(m)):
        raise NotAGroup("no identity element")
    for a in range(m):
        if e not in t[a]:
            raise NotAGroup(f"element {a} has no inverse")
    return t


def _close(table: GroupTable, members: list[int], done: int) -> list[int]:
    """Extend distinct members, the first done of them closed, to a closed set.

    Each later member is multiplied with itself and both ways with every
    member listed before it, and new products are appended, so each
    ordered pair of members is multiplied once.  Quandles share this
    closure: there a > a = a, so the square adds nothing, but a group
    needs it.
    """
    seen = set(members)
    i = done
    while i < len(members):
        x = members[i]
        row = table[x]
        for y in members[:i]:
            v = row[y]
            if v not in seen:
                seen.add(v)
                members.append(v)
            v = table[y][x]
            if v not in seen:
                seen.add(v)
                members.append(v)
        v = row[x]
        if v not in seen:
            seen.add(v)
            members.append(v)
        i += 1
    return members


def _generating_set(table: GroupTable) -> list[int]:
    """Elements, in order, each outside the closure (_close) of those before.

    Their closure is the whole carrier.  The operation need satisfy no
    axiom; core.validate and validate_group both read the set.
    """
    gens: list[int] = []
    members: list[int] = []
    seen: set[int] = set()
    for a in range(len(table)):
        if len(members) == len(table):
            break
        if a in seen:
            continue
        gens.append(a)
        done = len(members)
        members.append(a)
        _close(table, members, done)
        seen.update(members[done:])
    return gens


def identity_of(table: GroupTable) -> int:
    m = len(table)
    for e in range(m):
        if all(table[e][x] == x for x in range(m)):
            return e
    raise NotAGroup("no identity element")


def inverses_of(table: GroupTable) -> tuple[int, ...]:
    """inv[a] is the inverse of a."""
    m = len(table)
    e = identity_of(table)
    inv = [-1] * m
    for a in range(m):
        for b in range(m):
            if table[a][b] == e:
                inv[a] = b
                break
    return tuple(inv)


def power(table: GroupTable, a: int, k: int) -> int:
    """a**k, k may be negative; at most ord(a) steps, whatever k is.

    The walk a, a^2, ... returns to a after ord(a) steps, so a^k sits at
    index (k - 1) mod ord(a), and no identity is needed.
    """
    cycle = [a]
    while (x := table[cycle[-1]][a]) != a:
        cycle.append(x)
    return cycle[(k - 1) % len(cycle)]


def commutator(table: GroupTable, x: int, y: int, inv: tuple[int, ...]) -> int:
    """[x, y] = x^{-1} y^{-1} x y; inv is inverses_of(table)."""
    return table[table[table[inv[x]][inv[y]]][x]][y]


def engel_bracket(table: GroupTable, a: int, b: int, n: int,
                  inv: tuple[int, ...]) -> int:
    """[b,_n a] with [b,_0 a] = a and [b,_{k+1} a] = [b, [b,_k a]].

    inv is inverses_of(table), computed once by the caller.
    """
    c = a
    for _ in range(n):
        c = commutator(table, b, c, inv)
    return c


def is_n_engel_subset(table: GroupTable, subset: Sequence[int], n: int,
                      inv: tuple[int, ...]) -> bool:
    """Whether [b,_n a] = 1 for all a, b in the subset (brackets in the group).

    inv is inverses_of(table), computed once by the caller.  The identity
    is read off the inverses, as 0 * 0^-1.
    """
    e = table[0][inv[0]]
    return all(engel_bracket(table, a, b, n, inv) == e
               for a in subset for b in subset)


def conjugacy_classes(table: GroupTable) -> tuple[tuple[int, ...], ...]:
    """Classes as sorted tuples, ordered by smallest member."""
    m = len(table)
    inv = inverses_of(table)
    seen = [False] * m
    classes = []
    for a in range(m):
        if seen[a]:
            continue
        cls = set()
        for g in range(m):
            cls.add(table[table[inv[g]][a]][g])
        for x in cls:
            seen[x] = True
        classes.append(tuple(sorted(cls)))
    return tuple(sorted(classes, key=min))


# Builders for the small groups used throughout the test corpus.

def from_perm_generators(gens: Sequence[permgroup.Perm]) -> GroupTable:
    """Multiplication table of the group generated by the given permutations.

    Element labels are the order of a breadth-first walk from the identity,
    each element left-multiplied by every given generator in turn; the
    builtin group tables depend on these labels.
    """
    if not gens:
        raise ValueError("need at least one generator")
    elements = [permgroup.identity(len(gens[0]))]
    index = {elements[0]: 0}
    for w in elements:
        for g in gens:
            p = permgroup.compose(g, w)
            if p not in index:
                index[p] = len(elements)
                elements.append(p)
    return tuple(
        tuple(index[permgroup.compose(p, q)] for q in elements)
        for p in elements
    )


def cyclic(n: int) -> GroupTable:
    if n < 1:
        raise ValueError("order must be positive")
    return tuple(tuple((a + b) % n for b in range(n)) for a in range(n))


def direct_product(t1: GroupTable, t2: GroupTable) -> GroupTable:
    """Componentwise product, row-major: pair (a1, a2) is a1 * len(t2) + a2."""
    m2 = len(t2)
    values = tuple(range(len(t1) * m2))
    return tuple(permgroup.compose(values, [c * m2 + v for c in row1 for v in row2])
                 for row1 in t1 for row2 in t2)


def dihedral_group(m: int) -> GroupTable:
    """The dihedral group of order 2m: r of order m, s of order 2, s r s = r^{-1}.

    Element i < m is r^i, element m + i is s r^i.
    """
    if m < 1:
        raise ValueError("m must be positive")

    def mul(x: int, y: int) -> int:
        xs, xi = divmod(x, m)
        ys, yi = divmod(y, m)
        i = (yi - xi) % m if ys else (xi + yi) % m
        return ((xs + ys) % 2) * m + i

    return tuple(tuple(mul(x, y) for y in range(2 * m)) for x in range(2 * m))


def symmetric_group(n: int) -> GroupTable:
    if n == 1:
        return cyclic(1)
    transposition = (1, 0) + tuple(range(2, n))
    cycle = tuple(range(1, n)) + (0,)
    return from_perm_generators([transposition, cycle])


def alternating_group_4() -> GroupTable:
    return from_perm_generators([(1, 2, 0, 3), (1, 0, 3, 2)])


def quaternion_8() -> GroupTable:
    """The quaternion units; element 2k is the unit u_k, 2k+1 is -u_k."""
    unit_mul = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }

    def mul(x: int, y: int) -> int:
        sx, ux = (-1 if x % 2 else 1), x // 2
        sy, uy = (-1 if y % 2 else 1), y // 2
        s, u = unit_mul[(ux, uy)]
        s *= sx * sy
        return 2 * u + (0 if s == 1 else 1)

    return tuple(tuple(mul(x, y) for y in range(8)) for x in range(8))


def heisenberg_3() -> GroupTable:
    """Upper unitriangular 3x3 matrices over F_3; order 27, class 2, exponent 3."""
    elems = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    index = {x: i for i, x in enumerate(elems)}

    def mul(x: tuple[int, int, int], y: tuple[int, int, int]) -> int:
        a, b, c = x
        d, e, f = y
        return index[((a + d) % 3, (b + e) % 3, (c + f + a * e) % 3)]

    return tuple(tuple(mul(x, y) for y in elems) for x in elems)
