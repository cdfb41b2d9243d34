"""Small permutation groups with fully materialized element sets.

Permutations are image tuples: p[i] is the image of point i, and products
compose like functions, (p * q)(i) = p[q[i]].  Everything here is sized for
the groups that arise from quandles of a few dozen elements, so groups are
materialized by breadth-first closure instead of anything clever; the order
of insertion is deterministic (identity first, then words by length, the
frontier expanded generator by generator in index order via left
multiplication), which keeps every downstream computation reproducible.

The commutator convention is [x, y] = x^{-1} y^{-1} x y throughout.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from .errors import CapExceeded

Perm = tuple[int, ...]

DEFAULT_CLOSURE_CAP = 10**6


def identity(degree: int) -> Perm:
    return tuple(range(degree))


def compose(p: Perm, q: Perm) -> Perm:
    """Product p*q acting as p after q: (p*q)(i) = p[q[i]]."""
    return tuple(p[x] for x in q)


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def conjugate(p: Perm, t: Perm) -> Perm:
    """p conjugated by t, i.e. t^{-1} p t."""
    return compose(inverse(t), compose(p, t))


def commutator(x: Perm, y: Perm) -> Perm:
    """[x, y] = x^{-1} y^{-1} x y."""
    return compose(inverse(x), compose(inverse(y), compose(x, y)))


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Cycle lengths of p in decreasing order (fixed points included)."""
    seen = [False] * len(p)
    lengths = []
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


class PermGroup:
    """A permutation group with its elements materialized up front.

    Use closure() to build one; the constructor trusts its arguments.
    """

    def __init__(self, degree: int, generators: tuple[Perm, ...], elements: tuple[Perm, ...]):
        self.degree = degree
        self.generators = generators
        self.elements = elements
        self._element_set = frozenset(elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Perm]:
        return iter(self.elements)

    def __contains__(self, p: Perm) -> bool:
        return p in self._element_set

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PermGroup):
            return NotImplemented
        return self.degree == other.degree and self._element_set == other._element_set

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order})"

    def is_trivial(self) -> bool:
        return len(self.elements) == 1

    def is_abelian(self) -> bool:
        """True when the generators commute pairwise, which they generate."""
        gens = self.generators
        for i, x in enumerate(gens):
            for y in gens[i + 1:]:
                if compose(x, y) != compose(y, x):
                    return False
        return True


def _dedup(perms: Iterable[Perm]) -> list[Perm]:
    seen = set()
    out = []
    for p in perms:
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


def closure(generators: Sequence[Perm], degree: int | None = None,
            cap: int = DEFAULT_CLOSURE_CAP) -> PermGroup:
    """Generate the group, breadth first, raising CapExceeded past cap elements."""
    generators = list(generators)
    if degree is None:
        if not generators:
            raise ValueError("need a degree when there are no generators")
        degree = len(generators[0])
    if any(len(g) != degree for g in generators):
        raise ValueError("generators act on different point sets")
    gens = _dedup(g for g in generators if g != identity(degree))
    elements: list[Perm] = [identity(degree)]
    index = {elements[0]}
    at = 0
    while at < len(elements):
        w = elements[at]
        at += 1
        for g in gens:
            p = compose(g, w)
            if p not in index:
                if len(elements) >= cap:
                    raise CapExceeded("group closure", cap)
                index.add(p)
                elements.append(p)
    return PermGroup(degree, tuple(gens), tuple(elements))


def trivial_group(degree: int) -> PermGroup:
    return PermGroup(degree, (), (identity(degree),))


def normal_closure(seed: Sequence[Perm], ambient: PermGroup,
                   cap: int = DEFAULT_CLOSURE_CAP) -> PermGroup:
    """Smallest subgroup containing seed that ambient's generators normalize.

    Since everything is finite, closure under conjugation by each ambient
    generator already gives closure under conjugation by inverses.
    """
    gens = _dedup(p for p in seed if p != identity(ambient.degree))
    while True:
        group = closure(gens, ambient.degree, cap)
        new = [c for s in gens for t in ambient.generators
               if (c := conjugate(s, t)) not in group]
        if not new:
            return PermGroup(ambient.degree, tuple(gens), group.elements)
        gens.extend(_dedup(new))
        gens = _dedup(gens)


def _commutator_term(left: PermGroup, right: PermGroup, ambient: PermGroup,
                     cap: int) -> PermGroup:
    """[left, right] as a subgroup, both arguments normal in ambient.

    Generated by commutators of generators, then closed under conjugation by
    ambient's generators; for normal subgroups of ambient this normal closure
    is exactly the commutator subgroup.
    """
    seed = [commutator(a, b) for a in left.generators for b in right.generators]
    return normal_closure(seed, ambient, cap)


def lower_central_series(group: PermGroup, cap: int = DEFAULT_CLOSURE_CAP) -> tuple[PermGroup, ...]:
    """G = gamma_1 >= gamma_2 >= ..., stopping at the first repeated term."""
    terms = [group]
    while True:
        nxt = _commutator_term(terms[-1], group, group, cap)
        if nxt == terms[-1]:
            break
        terms.append(nxt)
    return tuple(terms)


def nilpotency_class(group: PermGroup, cap: int = DEFAULT_CLOSURE_CAP) -> int | None:
    """Nilpotency class, or None when the lower central series sticks above 1."""
    series = lower_central_series(group, cap)
    if series[-1].is_trivial():
        return len(series) - 1
    return None


def derived_series(group: PermGroup, cap: int = DEFAULT_CLOSURE_CAP) -> tuple[PermGroup, ...]:
    terms = [group]
    while True:
        prev = terms[-1]
        nxt = _commutator_term(prev, prev, prev, cap)
        if nxt == prev:
            break
        terms.append(nxt)
    return tuple(terms)


def derived_length(group: PermGroup, cap: int = DEFAULT_CLOSURE_CAP) -> int | None:
    """Derived length, or None for a group whose derived series sticks above 1."""
    series = derived_series(group, cap)
    if series[-1].is_trivial():
        return len(series) - 1
    return None


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


def orbits(group_or_gens: PermGroup | Sequence[Perm],
           domain: Sequence[int] | None = None) -> tuple[tuple[int, ...], ...]:
    """Orbit partition via union-find on generator images; no closure needed.

    Images outside the domain are ignored, so for a domain the generators
    map into itself this is the orbit partition of the restricted action.
    Orbits are returned as sorted tuples, ordered by smallest member.
    """
    if isinstance(group_or_gens, PermGroup):
        gens = group_or_gens.generators
        degree = group_or_gens.degree
    else:
        gens = list(group_or_gens)
        if not gens:
            raise ValueError("need at least one permutation or a PermGroup")
        degree = len(gens[0])
    if domain is None:
        domain = range(degree)
    inside = set(domain)
    find, union = union_find(degree)
    for g in gens:
        for x in domain:
            y = g[x]
            if y != x and y in inside:
                union(x, y)
    buckets: dict[int, list[int]] = {}
    for x in domain:
        buckets.setdefault(find(x), []).append(x)
    return tuple(tuple(sorted(b)) for b in sorted(buckets.values(), key=min))


def is_semiregular(group: PermGroup, domain: Sequence[int] | None = None) -> bool:
    """True when no element except the identity fixes a point of the domain."""
    if domain is None:
        domain = range(group.degree)
    e = identity(group.degree)
    for p in group.elements:
        if p == e:
            continue
        if any(p[x] == x for x in domain):
            return False
    return True
