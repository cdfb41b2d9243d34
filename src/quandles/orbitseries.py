"""Orbit trees, descent degrees, principal series, and subquandle enumeration.

Repeatedly splitting a finite quandle into the orbits of its inner group
builds a tree: the root is the whole carrier, the children of a node are the
orbits of the induced operation on it, and a node with a single orbit is a
leaf.  The depth of the deepest leaf measures how many splits the quandle
survives, and whether every leaf is a singleton decides whether the descent
trivializes.  Both numbers are read off the tree here; classify turns them
into membership predicates.

No subset appears at two nodes.  The children of a node partition its
subset into disjoint orbits, each strictly smaller, so two nodes on one
branch differ in size, and two nodes off a common branch lie inside
disjoint children of the node where their branches part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import Quandle, _close
from .errors import CapExceeded
from .permgroup import orbits

#: Most subquandles the enumerations find before raising CapExceeded.
DEFAULT_SUBSET_CAP = 2 ** 20


def _orbits_within(table: tuple[tuple[int, ...], ...],
                   subset: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Orbits of the induced quandle on a closed subset.

    The restricted translations are bijections of the subset, so the orbits
    of the group they generate are the components of the edges b -> a |> b.
    """
    return orbits([table[a] for a in subset], subset)


@dataclass(frozen=True)
class OrbitTreeNode:
    """One closed subset along a splitting path.

    children holds one node per orbit of the induced quandle when there are
    at least two orbits; a node whose induced quandle is connected keeps no
    children and is a leaf.  depth counts the splits from the root.
    """

    subset: tuple[int, ...]
    depth: int
    children: tuple["OrbitTreeNode", ...]

    @property
    def size(self) -> int:
        return len(self.subset)

    def nodes(self) -> Iterator["OrbitTreeNode"]:
        """All nodes of the subtree in preorder."""
        yield self
        for child in self.children:
            yield from child.nodes()

    def leaves(self) -> Iterator["OrbitTreeNode"]:
        for node in self.nodes():
            if not node.children:
                yield node

    def branches(self) -> Iterator[list["OrbitTreeNode"]]:
        """Every root-to-leaf path of the subtree, as a list of nodes."""
        if not self.children:
            yield [self]
            return
        for child in self.children:
            for tail in child.branches():
                yield [self, *tail]


def orbit_tree(q: Quandle) -> OrbitTreeNode:
    """Build the full splitting tree of a quandle.

    A subset splits only into at least two orbits, each strictly smaller and
    nonempty, so the depth stays below q.order and the recursion ends.
    """

    def build(subset: tuple[int, ...], depth: int) -> OrbitTreeNode:
        orbs = _orbits_within(q.table, subset)
        if len(orbs) == 1:
            return OrbitTreeNode(subset, depth, ())
        return OrbitTreeNode(
            subset, depth, tuple(build(o, depth + 1) for o in orbs))

    return build(tuple(range(q.order)), 0)


@dataclass(frozen=True)
class SeriesDegrees:
    """Depth summary of the orbit tree.

    os_degree is the depth of the deepest leaf, the number of splits after
    which every branch has stabilized.  tos_degree is the same number when
    every leaf is a singleton and None when some branch stabilizes on a
    connected subquandle with more than one element.  A connected quandle
    has os_degree 0 (the root is already a leaf) and T_1 is the only
    connected quandle whose descent trivializes.
    """

    os_degree: int
    tos_degree: int | None

    @staticmethod
    def of_tree(root: OrbitTreeNode) -> "SeriesDegrees":
        """Both descent degrees from one traversal of an orbit tree."""
        deepest = 0
        trivializes = True
        for leaf in root.leaves():
            deepest = max(deepest, leaf.depth)
            if len(leaf.subset) > 1:
                trivializes = False
        return SeriesDegrees(deepest, deepest if trivializes else None)


def degrees(q: Quandle) -> SeriesDegrees:
    """Compute both descent degrees from the quandle's orbit tree."""
    return SeriesDegrees.of_tree(orbit_tree(q))


def _orbit_of(table: tuple[tuple[int, ...], ...],
              subset: tuple[int, ...], x: int) -> tuple[int, ...]:
    """Orbit of x in the induced quandle on a closed subset.

    Forward reachability is enough: the restricted translations are
    bijections of a finite set, so the monoid they generate is a group.
    """
    members = {x}
    stack = [x]
    while stack:
        y = stack.pop()
        for a in subset:
            z = table[a][y]
            if z not in members:
                members.add(z)
                stack.append(z)
    return tuple(sorted(members))


def principal_series(q: Quandle, x: int) -> list[tuple[int, ...]]:
    """Descending series of the orbits of one element.

    Starts at the whole carrier and repeatedly takes the orbit of x inside
    the previous term; stops once the term repeats, without appending the
    repeat.  The result is exactly the subset path of the tree branch whose
    leaf contains x.
    """
    n = q.order
    if not 0 <= x < n:
        raise ValueError(f"element {x} out of range for order {n}")
    current = tuple(range(n))
    series = [current]
    while True:
        nxt = _orbit_of(q.table, current, x)
        if nxt == current:
            return series
        series.append(nxt)
        current = nxt


def _subquandles(q: Quandle) -> Iterator[tuple[int, ...]]:
    """Each nonempty closed subset once, as joins of singletons.

    A closed subset is generated by its elements, so element a adds <a>
    and <s, a> for each s found so far without a.  Raises CapExceeded as
    soon as more than DEFAULT_SUBSET_CAP subquandles are found.
    """
    cap = DEFAULT_SUBSET_CAP
    found: set[tuple[int, ...]] = set()
    for a in range(q.order):
        for s in [()] + [s for s in found if a not in s]:
            new = tuple(sorted(_close(q.table, [*s, a], len(s))))
            if new not in found:
                if len(found) >= cap:
                    raise CapExceeded("number of subquandles found", cap)
                found.add(new)
                yield new


def all_subquandles(q: Quandle) -> list[tuple[int, ...]]:
    """Every nonempty closed subset, by increasing bitmask value.

    Raises CapExceeded when there are more than DEFAULT_SUBSET_CAP of them.
    """
    return sorted(_subquandles(q), key=lambda s: sum(1 << x for x in s))


def is_ncs(q: Quandle) -> bool:
    """True when no closed subset of size two or more is connected.

    Stops at the first connected subquandle found, independently of the
    orbit tree; for finite quandles this holds exactly when the tree's
    descent trivializes, which verify_suite checks with this scan.  Raises
    CapExceeded when more than DEFAULT_SUBSET_CAP subquandles are found
    first.  A subquandle is connected when the orbit of its first member
    is all of it.
    """
    for members in _subquandles(q):
        if (len(members) >= 2 and
                len(_orbit_of(q.table, members, members[0])) == len(members)):
            return False
    return True
