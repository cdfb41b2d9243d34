"""Independent reference implementations used to pin expected values.

Everything here recomputes facts from first principles with deliberately
naive algorithms and no imports from the package, so a test can compare a
library answer against an answer obtained a different way. Only small inputs
are ever fed to these.
"""

from __future__ import annotations

from itertools import permutations

Table = tuple[tuple[int, ...], ...]


def is_quandle_table(table: Table) -> bool:
    """Direct three-axiom scan, no shortcuts."""
    n = len(table)
    for row in table:
        if len(row) != n or any(not 0 <= v < n for v in row):
            return False
    if any(table[a][a] != a for a in range(n)):
        return False
    if any(len(set(row)) != n for row in table):
        return False
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[a][table[b][c]] != table[table[a][b]][table[a][c]]:
                    return False
    return True


def is_medial_by_quadruples(table: Table) -> bool:
    """(a>b) > (c>d) = (a>c) > (b>d) over every quadruple, no shortcuts."""
    r = range(len(table))
    for a in r:
        for b in r:
            for c in r:
                for d in r:
                    if (table[table[a][b]][table[c][d]]
                            != table[table[a][c]][table[b][d]]):
                        return False
    return True


def first_axiom_violation(table: Table) -> tuple[int, tuple[int, ...]] | None:
    """(axiom, witness) of the first failure in scan order, or None.

    Idempotence over every a, then bijectivity of every row, then
    distributivity over every (a, b, c) in lexicographic order.  The table
    must be square with entries in 0..n-1.
    """
    n = len(table)
    for a in range(n):
        if table[a][a] != a:
            return 1, (a,)
    for a in range(n):
        if len(set(table[a])) != n:
            return 2, (a,)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[a][table[b][c]] != table[table[a][b]][table[a][c]]:
                    return 3, (a, b, c)
    return None


def all_quandle_tables(n: int) -> list[Table]:
    """Every valid table on 0..n-1, by filtering all diagonal-fixing rows.

    Each row must be a permutation sending a to a, so the candidate space is
    ((n-1)!)^n tables; keep n small.
    """
    row_choices = []
    for a in range(n):
        rows_for_a = []
        for perm in permutations(range(n)):
            if perm[a] == a:
                rows_for_a.append(perm)
        row_choices.append(rows_for_a)

    found: list[Table] = []

    def extend(prefix: list[tuple[int, ...]]) -> None:
        if len(prefix) == n:
            table = tuple(prefix)
            if is_quandle_table(table):
                found.append(table)
            return
        for row in row_choices[len(prefix)]:
            prefix.append(row)
            extend(prefix)
            prefix.pop()

    extend([])
    return found


def quandle_tables_with_row_0(n: int, first_rows) -> list[Table]:
    """The tables of all_quandle_tables(n) whose row 0 is in first_rows, in
    the same order.

    Rows are tried in the same order, but a prefix is dropped as soon as
    a(bc) = (ab)(ac) fails for some a, b whose rows and row ab are placed,
    so order 5 is cheap enough for the suite, where the full filter is
    not.  Every triple is checked once its three rows are placed, so a
    completed table is a quandle.
    """
    row_choices = [[p for p in permutations(range(n)) if p[a] == a]
                   for a in range(n)]
    row_choices[0] = [p for p in row_choices[0] if p in first_rows]
    found: list[Table] = []

    def distributive(prefix: list[tuple[int, ...]]) -> bool:
        r = len(prefix) - 1
        for a in range(r + 1):
            for b in range(r + 1):
                ab = prefix[a][b]
                if ab <= r and r in (a, b, ab) and any(
                        prefix[a][prefix[b][c]] != prefix[ab][prefix[a][c]]
                        for c in range(n)):
                    return False
        return True

    def extend(prefix: list[tuple[int, ...]]) -> None:
        if len(prefix) == n:
            found.append(tuple(prefix))
            return
        for row in row_choices[len(prefix)]:
            prefix.append(row)
            if distributive(prefix):
                extend(prefix)
            prefix.pop()

    extend([])
    return found


def least_row_0_conjugates(n: int) -> list[tuple[int, ...]]:
    """The least conjugate s p s^-1 of every permutation p of 0..n-1
    fixing 0, over every s fixing 0, without repeats and sorted.

    These are the rows 0 that the least table of a class can have, since
    a relabelling s fixing 0 turns row 0 into s p s^-1.
    """
    stabiliser = [s for s in permutations(range(n)) if s[0] == 0]
    least = set()
    for p in stabiliser:
        conjugates = []
        for s in stabiliser:
            s_inv = [0] * n
            for i, v in enumerate(s):
                s_inv[v] = i
            conjugates.append(tuple(s[p[s_inv[i]]] for i in range(n)))
        least.add(min(conjugates))
    return sorted(least)


def canonical_form(table: Table) -> Table:
    """Lexicographically least relabeling; brute force over all n! maps."""
    n = len(table)
    best: Table | None = None
    for relabel in permutations(range(n)):
        inverse = [0] * n
        for i, v in enumerate(relabel):
            inverse[v] = i
        image = tuple(
            tuple(relabel[table[inverse[a]][inverse[b]]] for b in range(n))
            for a in range(n)
        )
        if best is None or image < best:
            best = image
    assert best is not None
    return best


def count_up_to_iso(tables: list[Table]) -> int:
    return len({canonical_form(t) for t in tables})


def fold_right(table: Table, x: int, ys: tuple[int, ...]) -> int:
    """(((x > y1) > y2) ... > yk) evaluated left to right."""
    acc = x
    for y in ys:
        acc = table[acc][y]
    return acc


def reductive_degree_by_folds(table: Table, max_n: int) -> int | None:
    """Least n <= max_n making every n-fold result independent of the head.

    Exhausts all |Q|^n argument tuples, so only for small orders. n = 0
    works exactly on the one-element table.
    """
    n_elems = len(table)
    if n_elems == 1:
        return 0
    universe = range(n_elems)
    tuples: list[tuple[int, ...]] = [()]
    for n in range(1, max_n + 1):
        tuples = [ys + (b,) for ys in tuples for b in universe]
        if all(
            len({fold_right(table, x, ys) for x in universe}) == 1
            for ys in tuples
        ):
            return n
    return None


def is_n_locally_reductive_direct(table: Table, n: int) -> bool:
    """(((x > b) > b) ... > b) = b with n copies of b, for every x and b."""
    size = len(table)
    if n == 0:
        return size == 1
    for b in range(size):
        for x in range(size):
            acc = x
            for _ in range(n):
                acc = table[acc][b]
            if acc != b:
                return False
    return True


def locally_reductive_degree_direct(table: Table, max_n: int | None = None) -> int | None:
    limit = max_n if max_n is not None else max(len(table), 1)
    for n in range(limit + 1):
        if is_n_locally_reductive_direct(table, n):
            return n
    return None


def _orbit_fixpoint(perms: list[tuple[int, ...]], start: int) -> frozenset[int]:
    """Orbit of start under perms, by naive sweeps to a fixed point."""
    members = {start}
    changed = True
    while changed:
        changed = False
        for p in perms:
            for m in list(members):
                image = p[m]
                if image not in members:
                    members.add(image)
                    changed = True
    return frozenset(members)


def orbits_by_sweeps(perms: list[tuple[int, ...]],
                     points: frozenset[int]) -> list[frozenset[int]]:
    """Orbit partition of points, which perms map into themselves, by min member."""
    remaining = set(points)
    parts = []
    while remaining:
        orbit = _orbit_fixpoint(perms, min(remaining))
        parts.append(orbit)
        remaining -= orbit
    return sorted(parts, key=min)


def _orbit_partition(table: Table, subset: frozenset[int]) -> list[frozenset[int]]:
    """Orbits of a closed subset under translation by its own members."""
    return orbits_by_sweeps([table[s] for s in subset], subset)


def closed_subsets_by_mask(table: Table) -> list[tuple[int, ...]]:
    """Nonempty closed subsets by increasing bitmask value, testing all 2**n masks."""
    n = len(table)
    found = []
    for mask in range(1, 1 << n):
        members = tuple(i for i in range(n) if mask >> i & 1)
        if all(mask >> table[a][b] & 1 for a in members for b in members):
            found.append(members)
    return found


def is_ncs_by_mask(table: Table) -> bool:
    """No closed subset of two or more elements is a single orbit."""
    return not any(len(s) >= 2 and len(_orbit_partition(table, frozenset(s))) == 1
                   for s in closed_subsets_by_mask(table))


def series_degrees_recursive(table: Table) -> tuple[int, int | None]:
    """(os, tos) by direct recursion over orbit decompositions.

    A one-orbit subset ends a series: (0, 0) when it is a single element,
    (0, None) otherwise since the series never shrinks further.
    """

    def rec(subset: frozenset[int]) -> tuple[int, int | None]:
        parts = _orbit_partition(table, subset)
        if len(parts) == 1:
            return (0, 0) if len(subset) == 1 else (0, None)
        child_os = []
        child_tos: list[int | None] = []
        for part in parts:
            os_d, tos_d = rec(part)
            child_os.append(os_d)
            child_tos.append(tos_d)
        os_out = 1 + max(child_os)
        if any(t is None for t in child_tos):
            return os_out, None
        return os_out, 1 + max(t for t in child_tos if t is not None)

    return rec(frozenset(range(len(table))))


def closure_elements(perms: list[tuple[int, ...]],
                     degree: int | None = None) -> set[tuple[int, ...]]:
    """Group closure by pairwise-product sweeps to a fixed point.

    degree defaults to the first permutation's; with no permutations it
    must be given, and the result is the identity alone.
    """
    if degree is None:
        degree = len(perms[0])
    elements = {tuple(range(degree))}
    elements.update(tuple(p) for p in perms)
    while True:
        fresh = set()
        for p in elements:
            for q in elements:
                pq = tuple(p[q[i]] for i in range(degree))
                if pq not in elements:
                    fresh.add(pq)
        if not fresh:
            return elements
        elements |= fresh


def orbits_by_closure(perms: list[tuple[int, ...]],
                      points: frozenset[int]) -> list[frozenset[int]]:
    """Orbit partition of points, each orbit read off the closed element set."""
    elements = closure_elements(perms)
    return sorted({frozenset(p[x] for p in elements) for x in points}, key=min)


def closure_order(perms: list[tuple[int, ...]]) -> int:
    """Group closure size, from closure_elements."""
    return len(closure_elements(perms))


def is_abelian_by_elements(elements: list[tuple[int, ...]]) -> bool:
    """Whether every pair of group elements commutes, checked pair by pair."""
    for i, x in enumerate(elements):
        for y in elements[i + 1:]:
            if any(x[y[k]] != y[x[k]] for k in range(len(x))):
                return False
    return True


def derived_chain_orders(perms: list[tuple[int, ...]]) -> list[int]:
    """Orders along the derived series, recomputing commutators element-wise."""
    degree = len(perms[0]) if perms else 1
    identity = tuple(range(degree))

    def close(seed: set[tuple[int, ...]]) -> set[tuple[int, ...]]:
        elements = set(seed)
        elements.add(identity)
        while True:
            fresh = set()
            for p in elements:
                for q in elements:
                    pq = tuple(p[q[i]] for i in range(degree))
                    if pq not in elements:
                        fresh.add(pq)
            if not fresh:
                return elements
            elements |= fresh

    def invert(p: tuple[int, ...]) -> tuple[int, ...]:
        out = [0] * degree
        for i, v in enumerate(p):
            out[v] = i
        return tuple(out)

    current = close(set(tuple(p) for p in perms))
    orders = [len(current)]
    while len(current) > 1:
        commutators = set()
        for x in current:
            for y in current:
                xi, yi = invert(x), invert(y)
                word = [xi, yi, x, y]
                acc = tuple(range(degree))
                for w in word:
                    acc = tuple(w[acc[i]] for i in range(degree))
                commutators.add(acc)
        derived = close(commutators)
        if len(derived) == len(current):
            break
        current = derived
        orders.append(len(current))
    return orders


def set_partitions(n: int):
    """All set partitions of range(n) as class-index vectors."""
    assignment = [0] * n

    def rec(i: int, used: int):
        if i == n:
            yield tuple(assignment)
            return
        for cls in range(used + 1):
            assignment[i] = cls
            yield from rec(i + 1, used + (1 if cls == used else 0))

    yield from rec(1, 1) if n > 0 else iter(((),))


def congruence_class_sets(table: Table) -> set[frozenset[frozenset[int]]]:
    """Every congruence of the table, found by scanning all set partitions.

    Compatibility is checked directly on both the operation and left
    division; left division is read off the row inverse.
    """
    n = len(table)
    ldiv = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            ldiv[a][table[a][b]] = b

    found: set[frozenset[frozenset[int]]] = set()
    for assignment in set_partitions(n):
        ok = True
        for a in range(n):
            for b in range(n):
                if assignment[a] != assignment[b]:
                    continue
                for c in range(n):
                    if (assignment[table[a][c]] != assignment[table[b][c]]
                            or assignment[table[c][a]] != assignment[table[c][b]]
                            or assignment[ldiv[a][c]] != assignment[ldiv[b][c]]
                            or assignment[ldiv[c][a]] != assignment[ldiv[c][b]]):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            classes: dict[int, set[int]] = {}
            for element, cls in enumerate(assignment):
                classes.setdefault(cls, set()).add(element)
            found.add(frozenset(frozenset(c) for c in classes.values()))
    return found


def engel_bracket_direct(mul: Table, a: int, b: int, n: int) -> int:
    """[b,_n a]: start at a, then apply c -> [b, c] = b^-1 c^-1 b c, n times."""
    size = len(mul)
    identity = next(e for e in range(size) if all(mul[e][x] == x for x in range(size)))
    inverse = [0] * size
    for x in range(size):
        for y in range(size):
            if mul[x][y] == identity:
                inverse[x] = y
    acc = a
    for _ in range(n):
        acc = mul[mul[mul[inverse[b]][inverse[acc]]][b]][acc]
    return acc


def first_constant_layer_by_maps(table: Table, max_layer: int | None = None) -> int | None:
    """Minimal k whose k-fold composites of right translations are all constant.

    Builds every layer as the set of its maps: layer 1 holds the columns of
    the table, layer k+1 composes one more right translation onto each map
    of layer k.  A repeated layer set means a cycle of non-constant layers,
    so None; with max_layer set, None past that layer.
    """
    size = len(table)
    layer = {tuple(table[a][c] for a in range(size)) for c in range(size)}
    seen = {frozenset(layer)}
    k = 1
    while True:
        if all(len(set(m)) == 1 for m in layer):
            return k
        if max_layer is not None and k >= max_layer:
            return None
        layer = {tuple(table[m[a]][c] for a in range(size))
                 for m in layer for c in range(size)}
        key = frozenset(layer)
        if key in seen:
            return None
        seen.add(key)
        k += 1


def is_semiregular_by_elements(elements: list[tuple[int, ...]],
                               domain: range | list[int]) -> bool:
    """Whether no element but the identity fixes a point of the domain."""
    for p in elements:
        if any(p[i] != i for i in range(len(p))) and any(p[x] == x for x in domain):
            return False
    return True


def canonical_labels(labels) -> tuple[int, ...]:
    """Relabel a partition so class ids count up in order of first member."""
    ids: dict = {}
    return tuple(ids.setdefault(lab, len(ids)) for lab in labels)


def congruence_generated_by_passes(table: Table,
                                   pairs: list[tuple[int, int]]) -> tuple[int, ...]:
    """Least congruence holding the pairs, as canonical class labels.

    Merges the seeds, then sweeps every class in full, merging the
    one-sided images of each member with the class's first member under
    every c, until a whole sweep merges nothing.
    """
    n = len(table)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def union(x: int, y: int) -> bool:
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        parent[ry] = rx
        return True

    for a, b in pairs:
        union(a, b)
    dirty = True
    while dirty:
        dirty = False
        members: dict[int, list[int]] = {}
        for x in range(n):
            members.setdefault(find(x), []).append(x)
        for cls in members.values():
            for b in cls[1:]:
                for c in range(n):
                    if union(table[cls[0]][c], table[b][c]):
                        dirty = True
                    if union(table[c][cls[0]], table[c][b]):
                        dirty = True
    return canonical_labels(find(x) for x in range(n))


def partition_join(left: tuple[int, ...], right: tuple[int, ...]) -> tuple[int, ...]:
    """Finest partition coarser than both, by merging sweeps to a fixed point."""
    labels = list(range(len(left)))
    changed = True
    while changed:
        changed = False
        for part in (left, right):
            for x in range(len(labels)):
                for y in range(len(labels)):
                    if part[x] == part[y] and labels[x] != labels[y]:
                        low = min(labels[x], labels[y])
                        high = max(labels[x], labels[y])
                        labels = [low if v == high else v for v in labels]
                        changed = True
    return canonical_labels(labels)


def group_axiom_violation(table) -> str | None:
    """The first failing group axiom, worded as the package words it.

    Rows of the wrong length and entries outside 0..m-1 first, then
    associativity over every (a, b, c) in lexicographic order, then an
    identity, then an inverse of every element.
    """
    m = len(table)
    if m == 0:
        return "empty table"
    for a, row in enumerate(table):
        if len(row) != m:
            return f"row {a} has length {len(row)}, expected {m}"
        for b, v in enumerate(row):
            if not isinstance(v, int) or not 0 <= v < m:
                return f"entry at ({a}, {b}) is not an element index"
    for a in range(m):
        for b in range(m):
            for c in range(m):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return f"associativity fails at ({a}, {b}, {c})"
    identities = [e for e in range(m)
                  if all(table[e][x] == x == table[x][e] for x in range(m))]
    if not identities:
        return "no identity element"
    for a in range(m):
        if identities[0] not in table[a]:
            return f"element {a} has no inverse"
    return None
