"""Permutation groups held as stabilizer chains.

Permutations are image tuples: p[i] is the image of point i, and products
compose like functions, (p * q)(i) = p[q[i]].  A PermGroup is a base and
strong generating set, built by deterministic Schreier-Sims (Seress,
Permutation Group Algorithms, 2003, ch. 4-5; Holt, Eick & O'Brien,
Handbook of Computational Group Theory, 2005, section 4.4).  Each level of
the chain holds a base point, the strong generators that fix the earlier
base points, the basic orbit of its point under them, and a transversal
of that orbit with its inverses.  The order is the product of the basic
orbit lengths and membership is a sift, so no element set is ever built.

Inside a chain, below degree 257, each permutation is a 256-byte
translation table that fixes every point from the degree on: p*q is
q.translate(p) and p^-1 is bytes.maketrans(p, range(256)), both in C.  A
byte holds only the points below 256 and translate takes a table of
exactly 256 entries, so larger degrees keep the tuples.  PermGroup picks
its kernel (_kernel) once from the degree and the chain code calls only
it, so no other module sees the table form: compose, inverse and identity
take and return tuples, and so do a group's generators.

Everything is deterministic: generators are taken in the given order and
a new base point is the first point the sifted residue moves, which keeps
every downstream computation reproducible.

The commutator convention is [x, y] = x^{-1} y^{-1} x y throughout.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from typing import Callable, Iterable, Sequence

Perm = tuple[int, ...]

_POINTS = bytes(range(256))


def identity(degree: int) -> Perm:
    return tuple(range(degree))


def compose(p: Perm, q: Perm) -> Perm:
    """Product p*q acting as p after q: (p*q)(i) = p[q[i]].

    The images are gathered by one itemgetter call.  Below degree 2 that
    would return a scalar (degree 1) or raise (degree 0), so those take
    the plain loop.  compose(values, row) is also how a table row gathers
    its entries from one shared tuple(range(n)).
    """
    if len(q) < 2:
        return tuple(p[x] for x in q)
    return itemgetter(*q)(p)


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def _kernel(degree: int) -> tuple[Callable, Callable, Callable, Sequence[int]]:
    """(to_chain, after, invert, identity) of a chain on degree points.

    to_chain takes a sequence of degree points to the chain form, in which
    after(q, p) is p*q and invert(p) is p^-1.  Up to 256 points the form is
    a translation table padded with the fixed points up to 256, and after
    is bytes.translate itself; above, it is the tuple.
    """
    if degree <= 256:
        pad = _POINTS[degree:]
        return (lambda p: bytes(p) + pad, bytes.translate,
                lambda p: bytes.maketrans(p, _POINTS), _POINTS)
    return tuple, lambda q, p: itemgetter(*q)(p), inverse, identity(degree)


def _row_signatures(rows: Sequence[Sequence[int]]) -> Callable[[Sequence[int]], Iterable]:
    """A function taking labels to compose(labels, row) for each row, in order.

    The rows are those of a square table, so labels has one entry per row.
    The images serve only as dict keys: up to 256 rows they are byte
    strings, the rows turned into bytes once, here, and translated through
    the labels padded to 256 entries on each call; above, they are tuples.
    """
    if len(rows) > 256:
        return lambda labels: map(compose, repeat(labels), rows)
    rows = [bytes(row) for row in rows]
    return lambda labels: map(bytes.translate, rows,
                              repeat(bytes(labels) + _POINTS[len(labels):]))


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


def _sift(levels: Sequence[_Level], g: Perm, start: int,
          after: Callable) -> tuple[Perm, int]:
    """Strip g by the transversals of levels[start:], level by level.

    g and the chain are in the chain form of the group's kernel (_kernel),
    and after(q, p) = p*q, so after(g, inv) strips g by the inverse
    representative inv.  Returns the residue and the first level whose
    orbit misses the image of its point, or len(levels) when g passed them
    all; g lies in the group of levels[start] exactly when the residue is
    the identity.
    """
    for i in range(start, len(levels)):
        level = levels[i]
        x = g[level.point]
        if x != level.point:
            inv = level.rep_inv.get(x)
            if inv is None:
                return g, i
            g = after(g, inv)
    return g, len(levels)


class PermGroup:
    """A permutation group as a base and strong generating set.

    Build one with closure() or normal_closure(); the constructor makes the
    trivial group.  generators are the kept given generators, as tuples:
    each one that did not sift to the identity, so each lies outside the
    group generated by those kept before it.  The chain holds its own copy
    in the kernel's form.  The order is exact once the builder returns.
    """

    def __init__(self, degree: int):
        self.degree = degree
        self.generators: tuple[Perm, ...] = ()
        self._to_chain, self._after, self._invert, self._identity = _kernel(degree)
        self._levels: list[_Level] = []
        self._order = 1
        self._generator_pairs: list[tuple[Perm, Perm]] | None = None

    @property
    def order(self) -> int:
        return self._order

    def __contains__(self, p: Sequence[int]) -> bool:
        """Membership: p is in the group exactly when _sift strips it to 1."""
        if len(p) != self.degree:
            return False
        return _sift(self._levels, self._to_chain(p), 0, self._after)[0] == self._identity

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
        gens, after = list(map(self._to_chain, self.generators)), self._after
        for i, x in enumerate(gens):
            for y in gens[i + 1:]:
                if after(y, x) != after(x, y):
                    return False
        return True

    def _copy(self) -> "PermGroup":
        """The same group on a copy of the chain, to be extended on its own."""
        group = PermGroup(self.degree)
        group.generators = self.generators
        group._levels = [level.copy() for level in self._levels]
        group._order = self._order
        return group

    def _extend(self, candidates: Iterable[Perm], bound: int | None) -> None:
        """Add the candidates in order, keeping each that does not sift to 1.

        Candidates come in the kernel's chain form.  A kept candidate joins
        generators as a tuple, and its residue becomes a strong generator
        of every level down to the one where its sift stopped.  The
        Schreier-Sims loop then runs from that level up to the top.  A
        level is done when every (orbit point, generator) pair is tested:
        a pair whose image is new extends the orbit and the transversal,
        any other gives a Schreier generator that must sift to the identity
        through the levels below.  A residue that does not becomes a strong
        generator of the levels below, and the loop resumes at the deepest
        of them.  Pairs already tested stay tested, since transversals only
        grow.  A new representative's inverse is the old one's times the
        kept inverse of the strong generator, so the kernel's invert runs
        once per strong generator, not once per orbit point.  Every product
        is the kernel's after(q, p) = p*q, which up to degree 256 is
        bytes.translate itself.  The helpers are local, and the Schreier
        loop reaches _sift and after through local names, as it runs once
        per Schreier generator.

        bound, unless None, is an order the group generated by the current
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
        sift, after, invert = _sift, self._after, self._invert
        self._generator_pairs = None

        def add_strong(h: Perm, first: int, last: int) -> None:
            # last may be one past the deepest level: a new level, based at
            # the first point h moves.
            if last == len(levels):
                levels.append(_Level(next(x for x in range(self.degree) if h[x] != x), e))
            h_inv = invert(h)
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
                    moved = after(rep[x], s)
                    if y not in rep:
                        grow(level, y, moved, after(level.gens_inv[t], rep_inv[x]))
                        if self._order == bound:
                            return None
                        continue
                    residue, stop = sift(levels, after(moved, rep_inv[y]), i + 1, after)
                    if residue != e:
                        return residue, stop
                at += 1
            return None

        for g in candidates:
            if self._order == bound:
                return
            residue, stop = _sift(levels, g, 0, after)
            if residue == e:
                continue
            self.generators += (tuple(g[:self.degree]),)
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


def closure(generators: Sequence[Sequence[int]], degree: int | None = None, *,
            start: PermGroup | None = None, bound: int | None = None) -> PermGroup:
    """The group the generators generate, by Schreier-Sims.

    Generators are sequences of points (tuples, lists, byte strings ...),
    taken in order, and each one that sifts to the identity is skipped:
    the result's generators are the kept ones, as tuples, each outside the
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
    group._extend(map(group._to_chain, generators), bound)
    return group


def normal_closure(seed: Sequence[Sequence[int]], ambient: PermGroup, *,
                   bound: int) -> PermGroup:
    """Smallest subgroup containing seed that ambient's generators normalize.

    One chain grows: the closure of seed, then each kept generator's
    conjugates t^-1 s t by the ambient generators t, in turn, added when
    they do not sift (and kept, so conjugated in their turn).  Since
    everything is finite, closure under conjugation by each ambient
    generator already gives closure under conjugation by inverses.  The
    conjugates are built in the chain form, and the ambient generators and
    their inverses are put in it once per ambient group, however many
    closures it serves (_with_inverses).  bound is an order the result is
    known not to exceed, and building stops once it is reached (see
    PermGroup._extend).
    """
    group = closure(seed, ambient.degree, bound=bound)
    after, ambient_gens = group._after, _with_inverses(ambient)
    done = 0
    while done < len(group.generators) and group.order != bound:
        s = group._to_chain(group.generators[done])
        group._extend((after(after(t, s), t_inv) for t, t_inv in ambient_gens), bound)
        done += 1
    return group


def _commutators(pairs: Iterable[tuple[tuple[Perm, Perm], tuple[Perm, Perm]]],
                 group: PermGroup) -> list[Sequence[int]]:
    """[x, y] = x^-1 y^-1 x y for each ((x, x^-1), (y, y^-1)) of group's chain form.

    Each comes back as its first group.degree images, as closure takes it.
    """
    after, degree = group._after, group.degree
    return [after(after(after(y, x), y_inv), x_inv)[:degree]
            for (x, x_inv), (y, y_inv) in pairs]


def _with_inverses(group: PermGroup,
                   perms: Iterable[Sequence[int]] | None = None) -> list[tuple[Perm, Perm]]:
    """(p, p^-1) in group's chain form for each of perms, by default its generators.

    The generators' pairs are built once per group and kept, so every term
    of a series over the same ambient group reads one list.
    """
    if perms is None:
        if group._generator_pairs is None:
            group._generator_pairs = _with_inverses(group, group.generators)
        return group._generator_pairs
    invert = group._invert
    return [(p, invert(p)) for p in map(group._to_chain, perms)]


def _commutator_term(term: PermGroup, group: PermGroup) -> PermGroup:
    """[term, group] for term normal in group.

    Generated by the commutators of their generators, then closed under
    conjugation by group's generators; for a normal subgroup this normal
    closure is exactly the commutator subgroup.  [x, g] = x^-1 (g^-1 x g)
    lies in term, so [term, group] <= term and |term| bounds its order
    exactly: a term that reaches it is term itself.
    """
    gens = _with_inverses(group)
    # term's own pairs serve this call only, so they are not kept on it
    pairs = ((x, g) for x in _with_inverses(term, term.generators) for g in gens)
    return normal_closure(_commutators(pairs, group), group, bound=term.order)


def derived_subgroup(group: PermGroup) -> PermGroup:
    """[G, G], the normal closure of the commutators of G's generators.

    The pairs i < j of generators suffice, since [y, x] = [x, y]^-1 and
    [x, x] = 1, and |G| bounds the order as for every commutator term.
    """
    gens = _with_inverses(group)
    pairs = ((gens[i], gens[j]) for j in range(len(gens)) for i in range(j))
    return normal_closure(_commutators(pairs, group), group, bound=group.order)


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
