"""Permutation groups held as stabilizer chains.

Permutations are image tuples: p[i] is the image of point i, and products
compose like functions, (p * q)(i) = p[q[i]].  A PermGroup is a base and
strong generating set, built by deterministic Schreier-Sims (Seress,
Permutation Group Algorithms, 2003, ch. 4-5; Holt, Eick & O'Brien,
Handbook of Computational Group Theory, 2005, section 4.4).  Each level of
the chain holds a base point, the strong generators that fix the earlier
base points, the basic orbit of its point under them, and a transversal
of that orbit with its inverses.  The order is the product of the basic
orbit lengths and membership is a sift, so no element set is ever built;
elements are enumerated from the transversals only on demand.

Everything is deterministic: generators are taken in the given order and
a new base point is the first point the sifted residue moves, which keeps
every downstream computation reproducible.

The commutator convention is [x, y] = x^{-1} y^{-1} x y throughout.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

Perm = tuple[int, ...]


def identity(degree: int) -> Perm:
    return tuple(range(degree))


def compose(p: Perm, q: Perm) -> Perm:
    """Product p*q acting as p after q: (p*q)(i) = p[q[i]].

    The images are gathered by one itemgetter call.  Below degree 2 that
    would return a scalar (degree 1) or raise (degree 0), so those take
    the plain loop.
    """
    if len(q) < 2:
        return tuple(p[x] for x in q)
    return itemgetter(*q)(p)


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


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


class _Level:
    """One level of a stabilizer chain.

    gens are the strong generators of this level, all fixing the earlier
    base points, and gens_inv their inverses, index for index; orbit is the
    basic orbit of point under them, in the order found; rep[x] maps point
    to x and rep_inv[x] is its inverse.  tested[i] counts the gens already
    paired with orbit[i] into a Schreier generator.
    """

    __slots__ = ("point", "gens", "gens_inv", "orbit", "rep", "rep_inv", "tested")

    def __init__(self, point: int, e: Perm):
        self.point = point
        self.gens: list[Perm] = []
        self.gens_inv: list[Perm] = []
        self.orbit = [point]
        self.rep = {point: e}
        self.rep_inv = {point: e}
        self.tested = [0]

    def copy(self) -> "_Level":
        level = _Level.__new__(_Level)
        level.point = self.point
        level.gens = self.gens.copy()
        level.gens_inv = self.gens_inv.copy()
        level.orbit = self.orbit.copy()
        level.rep = self.rep.copy()
        level.rep_inv = self.rep_inv.copy()
        level.tested = self.tested.copy()
        return level


class PermGroup:
    """A permutation group as a base and strong generating set.

    Build one with closure() or normal_closure(); the constructor makes the
    trivial group.  generators are the kept given generators: each one that
    did not sift to the identity, so each lies outside the group generated
    by those kept before it.  The order is exact once the builder returns.
    Elements are enumerated from the transversals on demand, |G| of them,
    so iterate only over small groups.
    """

    def __init__(self, degree: int):
        self.degree = degree
        self.generators: tuple[Perm, ...] = ()
        self._identity = identity(degree)
        self._levels: list[_Level] = []
        self._order = 1

    @property
    def order(self) -> int:
        return self._order

    def __len__(self) -> int:
        """The order; len() fails past sys.maxsize, where order still works."""
        return self._order

    def __iter__(self) -> Iterator[Perm]:
        """Every element once, identity first.

        The elements are the products u_0 u_1 ... of one transversal
        representative per level.
        """
        levels = self._levels

        def walk(i: int, prefix: Perm) -> Iterator[Perm]:
            if i == len(levels):
                yield prefix
                return
            for u in levels[i].rep.values():
                yield from walk(i + 1, compose(prefix, u))

        return walk(0, self._identity)

    def __contains__(self, p: Perm) -> bool:
        """Membership by sifting.

        p is in the group exactly when stripping it by the transversals,
        level by level, leaves the identity.
        """
        if len(p) != self.degree:
            return False
        p = tuple(p)
        for level in self._levels:
            x = p[level.point]
            if x != level.point:
                inv = level.rep_inv.get(x)
                if inv is None:
                    return False
                p = compose(inv, p)
        return p == self._identity

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PermGroup):
            return NotImplemented
        return (self.degree == other.degree and self._order == other._order
                and all(g in other for g in self.generators))

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order})"

    def is_trivial(self) -> bool:
        return self._order == 1

    def is_abelian(self) -> bool:
        """True when the generators commute pairwise, which they generate."""
        gens = self.generators
        for i, x in enumerate(gens):
            for y in gens[i + 1:]:
                if compose(x, y) != compose(y, x):
                    return False
        return True

    def _copy(self) -> "PermGroup":
        """The same group on a copy of the chain, to be extended on its own."""
        group = PermGroup(self.degree)
        group.generators = self.generators
        group._levels = [level.copy() for level in self._levels]
        group._order = self._order
        return group

    def _extend(self, candidates: Iterable[Perm], bound: int | None = None) -> None:
        """Add the candidates in order, keeping each that does not sift to 1.

        A kept candidate joins generators, and its residue becomes a strong
        generator of every level down to the one where its sift stopped.
        The Schreier-Sims loop then runs from that level up to the top.  A
        level is done when every (orbit point, generator) pair is tested:
        a pair whose image is new extends the orbit and the transversal,
        any other gives a Schreier generator that must sift to the identity
        through the levels below.  A residue that does not becomes a strong
        generator of the levels below, and the loop resumes at the deepest
        of them.  Pairs already tested stay tested, since transversals only
        grow.  A new representative's inverse is the old one's times the
        kept inverse of the strong generator, so inverse() runs once per
        strong generator, not once per orbit point.  The helpers are local:
        sift runs once per Schreier generator.

        bound, when given, is an order the group generated by the current
        generators and the candidates cannot exceed.  Building stops as
        soon as the order reaches it, even inside the Schreier-Sims loop:
        the strong generators of each level generate a group containing
        those of the next, which fix the level's point, so the product of
        the basic orbit lengths never exceeds the order they generate.  At
        equality every basic orbit is complete and every level's stabilizer
        is generated by the next level's strong generators, which is a base
        and strong generating set already.
        """
        levels, e = self._levels, self._identity

        def sift(g: Perm, start: int) -> tuple[Perm, int]:
            # The residue, and the first level whose orbit misses the image
            # of its point (len(levels) when g passed them all).
            for i in range(start, len(levels)):
                level = levels[i]
                x = g[level.point]
                if x != level.point:
                    inv = level.rep_inv.get(x)
                    if inv is None:
                        return g, i
                    g = compose(inv, g)
            return g, len(levels)

        def add_strong(h: Perm, first: int, last: int) -> None:
            # last may be one past the deepest level: a new level, based at
            # the first point h moves.
            if last == len(levels):
                levels.append(_Level(next(x for x in range(self.degree) if h[x] != x), e))
            h_inv = inverse(h)
            for level in levels[first:last + 1]:
                level.gens.append(h)
                level.gens_inv.append(h_inv)

        def grow(level: _Level, y: int, rep_y: Perm, rep_inv_y: Perm) -> None:
            size = len(level.orbit)
            level.orbit.append(y)
            level.rep[y] = rep_y
            level.rep_inv[y] = rep_inv_y
            level.tested.append(0)
            self._order = self._order // size * (size + 1)

        def schreier_residue(i: int) -> tuple[Perm, int] | None:
            level = levels[i]
            orbit, gens, tested = level.orbit, level.gens, level.tested
            rep, rep_inv = level.rep, level.rep_inv
            at = 0
            while at < len(orbit):
                x = orbit[at]
                while tested[at] < len(gens):
                    t = tested[at]
                    tested[at] = t + 1
                    s = gens[t]
                    y = s[x]
                    moved = compose(s, rep[x])
                    if y not in rep:
                        grow(level, y, moved, compose(rep_inv[x], level.gens_inv[t]))
                        if self._order == bound:
                            return None
                        continue
                    residue, stop = sift(compose(rep_inv[y], moved), i + 1)
                    if residue != e:
                        return residue, stop
                at += 1
            return None

        for g in candidates:
            if self._order == bound:
                return
            residue, stop = sift(g, 0)
            if residue == e:
                continue
            self.generators += (g,)
            add_strong(residue, 0, stop)
            i = stop
            while i >= 0 and self._order != bound:
                found = schreier_residue(i)
                if found is None:
                    i -= 1
                else:
                    residue, stop = found
                    add_strong(residue, i + 1, stop)
                    i = stop


def closure(generators: Sequence[Perm], degree: int | None = None, *,
            start: PermGroup | None = None, bound: int | None = None) -> PermGroup:
    """The group the generators generate, by Schreier-Sims.

    Generators are taken in order and each one that sifts to the identity
    is skipped: the result's generators are the kept ones, each outside the
    group generated by those before it.  The cost is polynomial in the
    degree and the number of generators, whatever the group's order.

    With start, the result is the group start and the generators generate,
    built on a copy of start's chain (start is unchanged); its generators
    are start's followed by the kept ones.  bound, when given, is an order
    the result is known not to exceed; see PermGroup._extend.
    """
    generators = list(generators)
    if degree is None:
        if start is not None:
            degree = start.degree
        elif not generators:
            raise ValueError("need a degree when there are no generators")
        else:
            degree = len(generators[0])
    if any(len(g) != degree for g in generators) or (
            start is not None and start.degree != degree):
        raise ValueError("generators act on different point sets")
    group = PermGroup(degree) if start is None else start._copy()
    group._extend((tuple(g) for g in generators), bound)
    return group


def normal_closure(seed: Sequence[Perm], ambient: PermGroup, *,
                   bound: int | None = None) -> PermGroup:
    """Smallest subgroup containing seed that ambient's generators normalize.

    One chain grows: the closure of seed, then each kept generator's
    conjugates t^-1 s t by the ambient generators t, in turn, added when
    they do not sift (and kept, so conjugated in their turn).  Since
    everything is finite, closure under conjugation by each ambient
    generator already gives closure under conjugation by inverses.  The
    ambient generators' inverses are computed once.  bound, when given, is
    an order the result is known not to exceed, and building stops once it
    is reached (see PermGroup._extend).
    """
    group = closure(seed, ambient.degree, bound=bound)
    ambient_inv = [(inverse(t), t) for t in ambient.generators]
    done = 0
    while done < len(group.generators) and group.order != bound:
        s = group.generators[done]
        group._extend((compose(t_inv, compose(s, t)) for t_inv, t in ambient_inv), bound)
        done += 1
    return group


def _commutators(pairs: Iterable[tuple[tuple[Perm, Perm], tuple[Perm, Perm]]]) -> list[Perm]:
    """[x, y] = x^-1 y^-1 x y for each ((x, x^-1), (y, y^-1))."""
    return [compose(x_inv, compose(y_inv, compose(x, y)))
            for (x, x_inv), (y, y_inv) in pairs]


def _with_inverses(group: PermGroup) -> list[tuple[Perm, Perm]]:
    return [(g, inverse(g)) for g in group.generators]


def _commutator_term(term: PermGroup, group: PermGroup) -> PermGroup:
    """[term, group] for term normal in group.

    Generated by the commutators of their generators, then closed under
    conjugation by group's generators; for a normal subgroup this normal
    closure is exactly the commutator subgroup.  [x, g] = x^-1 (g^-1 x g)
    lies in term, so [term, group] <= term and |term| bounds its order
    exactly: a term that reaches it is term itself.
    """
    gens = _with_inverses(group)
    pairs = ((x, g) for x in _with_inverses(term) for g in gens)
    return normal_closure(_commutators(pairs), group, bound=term.order)


def derived_subgroup(group: PermGroup) -> PermGroup:
    """[G, G], the normal closure of the commutators of G's generators.

    The pairs i < j of generators suffice, since [y, x] = [x, y]^-1 and
    [x, x] = 1, and |G| bounds the order as for every commutator term.
    """
    gens = _with_inverses(group)
    pairs = ((gens[i], gens[j]) for j in range(len(gens)) for i in range(j))
    return normal_closure(_commutators(pairs), group, bound=group.order)


def _commutator_series(group: PermGroup, second: PermGroup | None,
                       step: Callable[[PermGroup], PermGroup]) -> tuple[PermGroup, ...]:
    """group, second, step(second), ..., stopping at the first term of unchanged order.

    second is the derived subgroup, the second term of both series; it is
    built here unless given.  The terms are nested, so a term of the same
    order as the one before it is the same group.
    """
    terms = [group]
    nxt = derived_subgroup(group) if second is None else second
    while nxt.order != terms[-1].order:
        terms.append(nxt)
        nxt = step(nxt)
    return tuple(terms)


def _steps_to_trivial(series: tuple[PermGroup, ...]) -> int | None:
    """Steps from the first term to the last, or None when it is not trivial."""
    return len(series) - 1 if series[-1].is_trivial() else None


def lower_central_series(group: PermGroup,
                         second: PermGroup | None = None) -> tuple[PermGroup, ...]:
    """G = gamma_1 >= gamma_2 >= ..., gamma_{i+1} = [gamma_i, G].

    second, when given, is derived_subgroup(group), used as gamma_2.
    """
    return _commutator_series(group, second, lambda term: _commutator_term(term, group))


def nilpotency_class(group: PermGroup, second: PermGroup | None = None) -> int | None:
    """Nilpotency class, or None when the lower central series sticks above 1."""
    return _steps_to_trivial(lower_central_series(group, second))


def derived_series(group: PermGroup,
                   second: PermGroup | None = None) -> tuple[PermGroup, ...]:
    """G >= G' >= G'' >= ..., each term the commutator subgroup of the last.

    second, when given, is derived_subgroup(group), used as G'.
    """
    return _commutator_series(group, second, derived_subgroup)


def derived_length(group: PermGroup, second: PermGroup | None = None) -> int | None:
    """Derived length, or None for a group whose derived series sticks above 1."""
    return _steps_to_trivial(derived_series(group, second))


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


def orbits(gens: Sequence[Perm],
           domain: Sequence[int] | None = None) -> tuple[tuple[int, ...], ...]:
    """Orbit partition of the group the permutations generate; no closure needed.

    Takes at least one permutation.  They must map the domain (default:
    every point) into itself; the result is then the orbit partition of the
    restricted action of the group they generate.  Orbits are returned as
    sorted tuples, ordered by smallest member.

    Each orbit is a search from its first point: a popped point y adds the
    images g[y] the orbit lacks, gathered for all generators at once.  The
    search stops early once the orbit holds every point not yet placed.
    The orbit, the stack and the seen set are the only extra memory,
    O(|domain|); no |gens| x |domain| image table is built.
    """
    if not gens:
        raise ValueError("need at least one permutation")
    if domain is None:
        domain = range(len(gens[0]))
    seen: set[int] = set()
    unplaced = len(domain)
    found = []
    for x in domain:
        if x in seen:
            continue
        orbit, stack = {x}, [x]
        while stack and len(orbit) < unplaced:
            new = set(map(itemgetter(stack.pop()), gens))
            new -= orbit
            orbit |= new
            stack.extend(new)
        seen |= orbit
        unplaced -= len(orbit)
        found.append(tuple(sorted(orbit)))
    found.sort()
    return tuple(found)
