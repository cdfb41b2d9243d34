"""Family membership, minimal degrees, and the corpus-wide theorem suite.

Each degree implemented here has at least two independent computations
behind it.  The folded-product identity, the descending orbit-congruence
chain, the nilpotency class of the inner group and the stabilizer-collapse
chain all measure reductivity.  The identity and the collapse chain refine
one relation two ways (see _first_constant_layer); the orbit chain and the
inner class are the independent characterizations.  classify() insists
the four agree, and enforces the ordering between the three families on
every report it emits; reductive_degree() reads its report.  A
disagreement is never a property of the input quandle, only of this
package, so it surfaces as InconsistentCharacterizations rather than as a
value.

classify() and verify_suite() share one per-quandle pass, gather_facts().

verify_suite() is the falsification harness: given a corpus (and optionally
a set of group tables), it reruns every structural fact the package relies
on and reports pass or fail per fact, with concrete witnesses on failure.
Failures are data, not exceptions, so a broken invariant shows up in the
report instead of aborting the run.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import combinations_with_replacement
from operator import itemgetter
from types import SimpleNamespace
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from . import congruence, core, grouptables, orbitseries, permgroup
from .core import Quandle
from .errors import InconsistentCharacterizations, QuandleError
from .grouptables import GroupTable

#: Bounds that choose the instances of verify_suite's exponential scans (see
#: there); the report's ncs shares NCS_MAX_ORDER with the scan checking it.
NCS_MAX_ORDER = 12
CONGRUENCE_MAX_ORDER = 8
SUBQUANDLE_MAX_ORDER = 10
PRODUCT_MAX_ORDER = 12
ENGEL_MAX_N = 4


def _first_constant_layer(q: Quandle, max_layer: int | None = None) -> int | None:
    """Minimal k such that every k-fold composite of right translations is constant.

    Layer k holds the maps a -> (((a > c_1) > c_2) ...) > c_k.  A quandle is
    n-reductive exactly when layer n contains only constant maps, and an
    all-constant layer stays all-constant, so the first such k is the
    minimal degree.  Layers are never built; they are read off partitions
    instead.  Layer k is all-constant exactly when the relation =_k is
    total, where a =_k a' when every k-fold composite agrees on a and a'.
    =_0 is equality, and a =_(k+1) a' exactly when (a > c) =_k (a' > c) for
    every c, so each step relabels the elements by the signature
    (class of a > c for every c).  The relations only coarsen, so a step
    that merges no class repeats forever: no layer is all-constant and the
    function returns None.  With max_layer set, gives up (returns None)
    past that layer instead of iterating to the fixed point.

    =_k is the kernel of the projection Q -> L_k(Q), the k-th quotient of
    congruence.l_chain, by induction: a =_(k+1) a' iff (a > c) =_k (a' > c)
    for every c, iff [a] and [a'] have equal rows in L_k(Q).  So the
    identity route and the collapse-steps route compute one sequence of
    partitions, and comparing them checks two implementations, not two
    characterizations; the O-chain and the inner class are those.

    Since the relations only coarsen and every step but the last merges a
    class, there are at most n layers of n^2 table lookups each: O(n^3),
    the cost of core.validate's axiom scan.  The signatures come from
    permgroup._row_signatures: byte strings up to order 256, translated in
    C, and tuples gathered from tuple(range(n)) above.
    """
    size = q.order
    signatures = permgroup._row_signatures(q.table)
    labels: Sequence[int] = tuple(range(size))
    classes = size
    k = 0
    while True:
        ids: dict[Sequence[int], int] = {}
        labels = [ids.setdefault(sig, len(ids)) for sig in signatures(labels)]
        k += 1
        if len(ids) == 1:
            return k
        if len(ids) == classes or (max_layer is not None and k >= max_layer):
            return None
        classes = len(ids)


def is_n_reductive(q: Quandle, n: int) -> bool:
    """Whether (a > c_1) > c_2 ... > c_n is independent of a for all choices of c.

    Checked by the partition refinement of _first_constant_layer, stopped
    after layer n, rather than by enumerating the |Q|^(n+1) folded products
    directly; the two decide the same identity, but the refinement costs at
    most min(n, |Q|) steps of |Q|^2 lookups.  n = 0 asks a itself to be
    independent of a, which only the one-element quandle satisfies.
    """
    if n < 0:
        raise ValueError(f"reductivity degree must be >= 0, got {n}")
    if n == 0:
        return q.order == 1
    return _first_constant_layer(q, max_layer=n) is not None


def _groups(q: Quandle) -> SimpleNamespace:
    """Trans(Q), Inn(Q) and their derived subgroups, each built once, each from the last.

    Inn(Q) = Trans(Q) <L_e> (Joyce 1982) extends a copy of Trans(Q)'s
    chain.  T' = [Trans, Trans] is built once; it is the second term of
    both the lower central and the derived series of Trans(Q).

    [Inn, Inn] is K = <T' u {[t_i, L_e]}> over the generators t_i of
    Trans(Q), one closure grown from a copy of T''s chain.  T' is
    characteristic in Trans(Q), which is normal in Inn(Q), and Trans/T' is
    abelian, so:
    - modulo T', t -> [t, L_e] is a homomorphism on Trans(Q), since
      [st, L_e] = [s, L_e]^t [t, L_e] and [s, L_e] lies in Trans(Q); so K
      holds every [t, L_e];
    - K is normal in Inn(Q): k^m = k [k, m] with [k, m] in T' for m in
      Trans(Q), and [t_i, L_e]^(L_e) = [t_i^(L_e), L_e] lies in K, as
      t_i^(L_e) lies in Trans(Q);
    - Trans/K is central in Inn/K, as [t, s] and [t, L_e] lie in K for
      s, t in Trans(Q); Inn/K is generated by it and one element, so it
      is abelian and [Inn, Inn] <= K; K <= [Inn, Inn] plainly.
    K lies in Trans(Q), so |Trans(Q)| bounds its order.
    """
    trans_group = congruence.trans(q)
    inn_group = congruence.inn(q, trans_group)
    trans_derived = permgroup.derived_subgroup(trans_group)
    l_e, = permgroup._with_inverses(trans_group, [q.table[0]])
    brackets = permgroup._commutators(
        ((t, l_e) for t in permgroup._with_inverses(trans_group)), trans_group)
    inn_derived = permgroup.closure(brackets, q.order, start=trans_derived,
                                    bound=trans_group.order)
    return SimpleNamespace(trans=trans_group, trans_derived=trans_derived,
                           inn=inn_group, inn_derived=inn_derived)


def _group_facts(q: Quandle) -> tuple[int, int, bool, bool, int | None, int | None]:
    """|Trans|, |Inn|, medial, nilpotent, Trans's derived length, Inn's class; no group kept."""
    g = _groups(q)
    return (g.trans.order, g.inn.order, g.trans.is_abelian(),
            permgroup.nilpotency_class(g.trans, g.trans_derived) is not None,
            permgroup.derived_length(g.trans, g.trans_derived),
            permgroup.nilpotency_class(g.inn, g.inn_derived))


def _routes_agree(deg: int | None, ident: int | None, cls: int | None,
                  steps: int | None) -> bool:
    """Degree n pairs with inner class n-1, the one-element quandle with 0."""
    expected_cls = None if deg is None else max(deg - 1, 0)
    return ident == deg and cls == expected_cls and steps == deg


def _constant_power(column: Sequence[int]) -> int | None:
    """Minimal k with R_b^k constant, else None; column[x] is x > b.

    The images R_b^k(Q) are nested, since R_b(Q) is inside Q and R_b maps
    each image into the next, and each holds b, since b > b = b.  So R_b^k
    is constant (at b) exactly when its image is {b}; the images shrink
    strictly until then, and one that does not shrink never will.
    """
    image = set(range(len(column)))
    k = 0
    while len(image) > 1:
        nxt = set(itemgetter(*image)(column))
        if len(nxt) == len(image):
            return None
        image = nxt
        k += 1
    return k


def is_n_locally_reductive(q: Quandle, n: int) -> bool:
    """Whether (...((a > b) > b)...) > b with n factors of b equals b, always.

    Direct exhaustive check over all pairs.  The property is monotone in n
    because b > b = b, so the minimal degree from
    locally_reductive_degree() splits True from False; the two code paths
    are kept separate on purpose and tested against each other.

    n is clamped to |Q| first, which changes no answer: per b, the images
    of x -> x > b shrink strictly until they reach {b} or stop shrinking
    for good (see _constant_power), so the degree, when it exists, is
    below |Q|.  The scan costs min(n, |Q|) |Q|^2 steps; at n = 0 it takes
    none, and a equals every b only on the one-element quandle.
    """
    if n < 0:
        raise ValueError(f"local reductivity degree must be >= 0, got {n}")
    n = min(n, q.order)
    table = q.table
    for b in range(q.order):
        for a in range(q.order):
            x = a
            for _ in range(n):
                x = table[x][b]
            if x != b:
                return False
    return True


def locally_reductive_degree(q: Quandle) -> int | None:
    """Minimal n with every n-fold right multiplication collapsing to b.

    Per fixed b the images of the iterated map x -> x > b either shrink
    to {b} (within fewer than |Q| steps) or stop shrinking above it; the
    columns of the table are these maps, transposed once.  The degree is
    the worst b, absent as soon as one b never collapses.
    """
    worst = 0
    for column in zip(*q.table):
        k = _constant_power(column)
        if k is None:
            return None
        worst = max(worst, k)
    return worst


def is_medial(q: Quandle) -> bool:
    """Exhaustive check of (a>b) > (c>d) = (a>c) > (b>d), row by row.

    For fixed a, b, c the identity over all d says L_(a>b) L_c =
    L_(a>c) L_b, and swapping b and c only swaps its two sides, so the
    pairs b < c suffice: n^2 (n - 1) / 2 comparisons of two row products.
    gather_facts() reads mediality off the transvection group instead (Q
    is medial exactly when Dis(Q) is abelian); this identity scan is the
    suite's independent route, compared with it by the
    medial-iff-abelian-transvections fact.
    """
    t = q.table
    # after[c](p) is the product p L_c; at order 1 no pair calls it
    after = [itemgetter(*row) for row in t]
    for row_a in t:
        for c in range(q.order):
            row_ac, after_c = t[row_a[c]], after[c]
            for b in range(c):
                if after_c(t[row_a[b]]) != after[b](row_ac):
                    return False
    return True


def is_connected(q: Quandle) -> bool:
    """Whether the carrier is a single orbit of the translation group."""
    return len(permgroup.orbits(q.table)) == 1


def _two_engel_verdict(by_bracket: bool, whole_tos: int | None, order: int) -> bool:
    """Whether the conjugation quandle of a group trivializes in two splits.

    by_bracket is the group's verdict by the bracket identity,
    is_n_engel_subset over the whole group with n = 2, which the suite's
    Engel bridge has already computed.  It is cross-checked against
    whole_tos, the orbit-tree tos degree of the group's conjugation quandle;
    the two computations share nothing, so a mismatch raises
    InconsistentCharacterizations.  order is the group's, for the message.
    """
    by_tree = whole_tos is not None and whole_tos <= 2
    if by_bracket != by_tree:
        raise InconsistentCharacterizations(
            f"two-split verdicts disagree on a group of order {order}: "
            f"bracket={by_bracket} tree={by_tree}")
    return by_bracket


@dataclass(frozen=True)
class ClassificationReport:
    """Everything the package can say about one finite quandle.

    Absent degrees are None: for finite quandles the three degree fields are
    always either all present or all absent, and when present they satisfy
    locally_reductive_degree <= tos_degree <= reductive_degree.  ncs is None
    above NCS_MAX_ORDER (12), which is not a verdict.
    """

    order: int
    label: str | None
    orbit_sizes: tuple[int, ...]
    connected: bool
    faithful: bool
    medial: bool
    abelian: bool
    nilpotent_quandle: bool
    solvable_quandle: bool
    trans_derived_length: int | None
    reductive_degree: int | None
    locally_reductive_degree: int | None
    os_degree: int
    tos_degree: int | None
    ncs: bool | None
    inn_order: int
    trans_order: int
    inn_nilpotency_class: int | None


def _degree_chain_fault(lr: int | None, tos: int | None,
                        red: int | None) -> str | None:
    """What breaks lr <= tos <= red with all three present or all absent, if anything."""
    present = [d is not None for d in (lr, tos, red)]
    if any(present) != all(present):
        return "degree existence split"
    if all(present) and not lr <= tos <= red:
        return "degree ordering violated"
    return None


@dataclass(frozen=True)
class QuandleFacts(ClassificationReport):
    """The report fields plus the raw material the fact suite reads.

    Built by gather_facts().  The raw material is the Inn and Trans orbits,
    the orbit tree and the O-chain; the four reductivity routes (the
    O-chain's degree, ident, inn_nilpotency_class, collapse_steps) are
    stored side by side and not compared here: classify() raises on a
    disagreement, verify_suite() reports it as a failing fact.
    """

    inn_orbits: tuple[tuple[int, ...], ...]
    trans_orbits: tuple[tuple[int, ...], ...]
    tree: orbitseries.OrbitTreeNode
    chain: tuple[congruence.Congruence, ...]
    ident: int | None
    collapse_steps: int | None

    def report(self) -> ClassificationReport:
        return ClassificationReport(**{
            f.name: getattr(self, f.name) for f in fields(ClassificationReport)})


def gather_facts(q: Quandle) -> QuandleFacts:
    """Every per-quandle quantity of the report and the suite, each built once.

    One pass reads the inner and transvection groups and their derived
    subgroups (_group_facts: each from the last, none twice, none kept),
    the orbit tree, the O- and L-chains and the rest, all polynomial in the
    order.  Q is
    faithful when the L-chain stops at Q, so the equal-rows congruence is
    built once, as its first step.  The Inn orbits are the tree root's
    children (the root if it is a leaf); the Trans orbits are O^1, or O^0
    when the chain stops there (Q connected or of order 1).  medial is
    whether the transvection group is abelian, O(n^3), and ncs whether
    tos_degree exists; is_medial() and is_ncs() are left to the suite.
    Every leaf of the orbit tree is a connected subquandle, and a connected
    subquandle lies in one orbit of each node containing it, hence in a
    leaf: so ncs holds exactly when every leaf is a singleton.  ncs is None
    above NCS_MAX_ORDER, the largest order the suite's is_ncs scan checks it
    against.  Never raises on a route disagreement.
    """
    trans_order, inn_order, medial, nilpotent, dl, inn_cls = _group_facts(q)
    tree = orbitseries.orbit_tree(q)
    inn_orbits = tuple(c.subset for c in tree.children) or (tree.subset,)
    sd = orbitseries.SeriesDegrees.of_tree(tree)
    lr = locally_reductive_degree(q)
    # The four reductivity routes.  When lr is None the identity route is
    # None without building a layer: layer k contains R_b^k, and an
    # all-constant layer would force R_b^k to be constant at b.
    chain = congruence.o_chain(q)
    if q.order == 1:
        ident = 0
    elif lr is None:
        ident = None
    else:
        ident = _first_constant_layer(q)
    collapse = congruence.l_chain(q)
    red = len(chain) - 1 if chain[-1].is_zero else None
    steps = len(collapse) - 1 if collapse[-1].order == 1 else None
    trans_orbits = chain[min(1, len(chain) - 1)].classes
    # Abelian: medial with Trans(Q) semiregular, every orbit of |Trans| points.
    abelian = medial and all(len(o) == trans_order for o in trans_orbits)
    return QuandleFacts(
        order=q.order,
        label=q.label,
        orbit_sizes=tuple(sorted((len(o) for o in inn_orbits), reverse=True)),
        connected=len(inn_orbits) == 1,
        faithful=len(collapse) == 1,
        medial=medial,
        abelian=abelian,
        nilpotent_quandle=nilpotent,
        solvable_quandle=dl is not None,
        trans_derived_length=dl,
        reductive_degree=red,
        locally_reductive_degree=lr,
        os_degree=sd.os_degree,
        tos_degree=sd.tos_degree,
        ncs=sd.tos_degree is not None if q.order <= NCS_MAX_ORDER else None,
        inn_order=inn_order,
        trans_order=trans_order,
        inn_nilpotency_class=inn_cls,
        inn_orbits=inn_orbits,
        trans_orbits=trans_orbits,
        tree=tree,
        chain=chain,
        ident=ident,
        collapse_steps=steps,
    )


def classify(q: Quandle) -> ClassificationReport:
    """Aggregate every predicate and degree into one report.

    The report is projected from gather_facts(), whose every stage is
    polynomial in the order and runs uncapped; ncs is None above
    NCS_MAX_ORDER.  Raises InconsistentCharacterizations when the
    reductivity routes or the degree ordering disagree.
    """
    f = gather_facts(q)
    name = q.label or f"order {q.order}"
    if not _routes_agree(f.reductive_degree, f.ident, f.inn_nilpotency_class,
                         f.collapse_steps):
        raise InconsistentCharacterizations(
            f"reductivity routes disagree on {name}: "
            f"chain={f.reductive_degree} identity={f.ident} "
            f"inner-class={f.inn_nilpotency_class} "
            f"collapse-steps={f.collapse_steps}")
    lr, tos, red = f.locally_reductive_degree, f.tos_degree, f.reductive_degree
    fault = _degree_chain_fault(lr, tos, red)
    if fault is not None:
        raise InconsistentCharacterizations(
            f"{fault} on {name}: lr={lr} tos={tos} red={red}")
    return f.report()


def reductive_degree(q: Quandle) -> int | None:
    """Minimal n making the quandle n-reductive, or None when none exists.

    Read off classify(), which compares the four routes: the index of the
    first zero term of the descending orbit-congruence chain, the first
    all-constant composite layer, the nilpotency class of the inner group
    (degree n pairs with class n-1, with the one-element quandle as the
    class-0 floor), and the number of steps the iterated stabilizer-collapse
    quotient takes to reach the one-element quandle.  Any disagreement
    raises InconsistentCharacterizations, since the four are provably equal
    for finite quandles.
    """
    return classify(q).reductive_degree


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named fact over the corpus."""

    name: str
    passed: bool
    witnesses: tuple[str, ...]
    checked: int


@dataclass(frozen=True)
class SuiteReport:
    """All named facts with their verdicts, in a fixed order."""

    results: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def summary(self) -> str:
        lines = []
        for r in self.results:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"{status} {r.name} (checked {r.checked})")
            for w in r.witnesses:
                lines.append(f"     counterexample: {w}")
        return "\n".join(lines)


class _PerTable(dict):
    """fn memoized on its key, computed on first use.

    verify_suite makes one per call for each quantity it looks up by
    table: the stages, the principal series, the tos, lr and reductive
    degrees, and the products' tos per pair of factor tables.  So a table
    met again in the same call, as a member, quotient, block, subquandle,
    product factor or conjugation quandle, is not recomputed, and nothing
    is kept between calls.  Quandles compare and hash by table only.  Each
    table stage makes one more, of the subquandles induced on its table,
    keyed by closed subset.
    """

    def __init__(self, fn: Callable[[Any], Any]) -> None:
        super().__init__()
        self.fn = fn

    def __missing__(self, key: Any) -> Any:
        value = self[key] = self.fn(key)
        return value


def _padded(series: list[tuple[int, ...]], length: int) -> list[tuple[int, ...]]:
    """The series extended to the given length by repeating its last term."""
    return series + series[-1:] * (length - len(series))


class _Stage(NamedTuple):
    """What the table stage recorded on one table, for every member.

    counts holds the checked count of each fact it ran, and failures the
    (fact, detail) pairs of the checks that failed, in order; a member's
    witness is its name, a colon and the detail.  error is the QuandleError
    that ended the stage early, if any; the counts and failures recorded
    before it stand.  counts is empty exactly when gathering the facts or
    the scans raised; otherwise the members join the products.
    """

    counts: dict[str, int]
    failures: list[tuple[str, str]]
    error: QuandleError | None


def _table_stage(q: Quandle, tos_of: _PerTable, lr_of: _PerTable,
                 red_of: _PerTable, series_of: _PerTable) -> _Stage:
    """Every fact of verify_suite that reads only the table, recorded once.

    The stage gathers the facts and runs the is_ncs scan (to
    NCS_MAX_ORDER), the congruence lattice (to CONGRUENCE_MAX_ORDER) and
    the is_medial scan.  Then it seeds the degree memos with the table's
    own degrees and records the nine member facts, subquandle-tos-bounded
    (to SUBQUANDLE_MAX_ORDER), the branch facts and the per-congruence
    facts.  A detail is formatted only when its check fails.

    The principal series, from series_of, serve both the branch and the
    quotient facts, so a quotient table met again anywhere in the call
    reuses its series.  Each quotient and its projection come from
    core.quotient, so a partition that is not a congruence raises
    NotACongruence there.  Within the table, the subquandle induced on a
    closed subset is built once, for subquandle-tos-bounded and for each
    congruence holding the subset as a class, and each subset along the
    series is projected once per congruence.  The row-equality congruence,
    the identity permutation and the index of the series' subsets serve
    only the per-congruence facts, so a table without a lattice builds
    none of them.
    """
    counts: dict[str, int] = {}
    failures: list[tuple[str, str]] = []

    def record(name: str, ok: bool, detail: str, *args: object) -> None:
        counts[name] = counts.get(name, 0) + 1
        if not ok:
            failures.append((name, detail.format(*args)))

    try:
        f = gather_facts(q)
        ncs = orbitseries.is_ncs(q) if q.order <= NCS_MAX_ORDER else None
        lattice = (congruence.all_congruences(q)
                   if q.order <= CONGRUENCE_MAX_ORDER else None)
        identity_medial = is_medial(q)
    except QuandleError as exc:
        return _Stage({}, [], exc)
    red, lr, tos = (f.reductive_degree, f.locally_reductive_degree,
                    f.tos_degree)
    # Seeding here computes no degree twice: members arrive sorted by
    # order, and every quotient, class block and subquandle of a table,
    # other than the table itself, is smaller.  So no earlier stage has
    # asked the memos for this table, and later ones find it.
    red_of[q], lr_of[q], tos_of[q] = red, lr, tos

    dl, cls = f.trans_derived_length, f.inn_nilpotency_class
    record("reductivity-routes-agree",
           _routes_agree(red, f.ident, cls, f.collapse_steps),
           "chain={} identity={} inner-class={} collapse={}",
           red, f.ident, cls, f.collapse_steps)
    if red is not None and (f.faithful or f.connected):
        record("reductive-faithful-or-connected-is-trivial",
               q.order == 1, "reductive but order {}", q.order)
    degs = ("lr={} tos={} red={}", lr, tos, red)
    record("degree-existence-and-ordering",
           _degree_chain_fault(lr, tos, red) is None, *degs)
    if f.medial and red is not None:
        record("medial-degrees-equal", lr == tos == red, *degs)
    record("medial-iff-abelian-transvections",
           identity_medial == f.medial,
           "medial={} abelian transvections={}", identity_medial, f.medial)
    record("orbits-inner-equal-transvection",
           f.inn_orbits == f.trans_orbits,
           "inner and transvection orbits differ")
    if ncs is not None:
        record("tos-existence-iff-ncs", (tos is not None) == ncs,
               "tos={} ncs={}", tos, ncs)
    # The trivial transvection group counts as derived length one here:
    # the bound multiplies by the solvable length of the quandle, and a
    # quandle with abelian (possibly trivial) transvections has length 1.
    if dl is not None and lr is not None:
        factor = max(dl, 1)
        record("solvable-tos-bound",
               tos is not None and tos <= factor * lr,
               "tos={} bound={}*{}", tos, factor, lr)
    chain = f.chain
    record("orbit-chain-descends",
           len(chain) <= q.order + 1 and all(
               chain[i + 1].refines(chain[i])
               for i in range(len(chain) - 1)),
           "chain of {} terms not descending", len(chain))

    subquandle = _PerTable(lambda subset: core.induced_subquandle(q, subset))
    try:
        if tos is not None and q.order <= SUBQUANDLE_MAX_ORDER:
            for subset in orbitseries.all_subquandles(q):
                st = tos_of[subquandle[subset]]
                record("subquandle-tos-bounded", st is not None and st <= tos,
                       "subquandle {} tos {} exceeds {}", subset, st, tos)

        series = series_of[q]
        for branch in f.tree.branches():
            path = [node.subset for node in branch]
            meet = set(path[0])
            for subset in path[1:]:
                meet &= set(subset)
            leaf = branch[-1].subset
            if tuple(sorted(meet)) != leaf:
                record("branches-are-principal-series", False,
                       "branch meet is not the leaf")
                continue
            record("branches-are-principal-series",
                   all(series[x] == path for x in leaf),
                   "branch to {} is not the principal series of its members",
                   leaf)

        if lattice is None:  # above CONGRUENCE_MAX_ORDER
            return _Stage(counts, failures, None)
        e = permgroup.identity(q.order)
        subsets = list(dict.fromkeys(s for path in series for s in path))
        index = {s: i for i, s in enumerate(subsets)}
        paths = [[index[s] for s in path] for path in series]
        lam = congruence.lambda_congruence(q)
        for cong in lattice:
            for cls in cong.classes:
                members = set(cls)
                record("congruence-classes-are-subquandles",
                       all(q.table[a][b] in members for a in cls for b in cls),
                       "class {} is not closed", cls)
            trivial = all(g == e for g in congruence.trans_rel_generators(q, cong))
            record("relative-transvections-trivial-iff-kernel",
                   trivial == cong.refines(lam),
                   "relative transvection triviality disagrees with "
                   "translation-kernel refinement")
            quot, class_of = core.quotient(q, cong.classes)
            if tos is not None or lr is not None:
                blocks = [subquandle[cls] for cls in cong.classes]
                inner_tos = [tos_of[block] for block in blocks]
                inner_lr = [lr_of[block] for block in blocks]
            if tos is not None:
                qt = tos_of[quot]
                record("quotient-tos-bounded", qt is not None and qt <= tos,
                       "quotient tos {} exceeds {}", qt, tos)
                if qt is not None and None not in inner_tos:
                    record("tos-extension-bound", tos <= qt + max(inner_tos),
                           "tos {} exceeds {}+{}", tos, qt, max(inner_tos))
            if lr is not None:
                outer = lr_of[quot]
                if outer is not None and None not in inner_lr:
                    record("locally-reductive-extension-bound",
                           lr <= outer + max(inner_lr),
                           "lr {} exceeds {}+{}", lr, outer, max(inner_lr))
            image = series_of[quot]
            projected = [tuple(sorted({class_of[x] for x in s})) for s in subsets]
            for x, path in enumerate(paths):
                left = [projected[i] for i in path]
                right = image[class_of[x]]
                length = max(len(left), len(right))
                record("quotient-series-memberwise",
                       _padded(left, length) == _padded(right, length),
                       "projected series of {} differs from the quotient series",
                       x)
    except QuandleError as exc:
        return _Stage(counts, failures, exc)
    return _Stage(counts, failures, None)


#: Names of the corpus facts in report order; the group facts follow when
#: group tables are supplied.
_CORPUS_FACTS = (
    "classification-completes",
    "reductivity-routes-agree",
    "reductive-faithful-or-connected-is-trivial",
    "degree-existence-and-ordering",
    "medial-degrees-equal",
    "medial-iff-abelian-transvections",
    "orbits-inner-equal-transvection",
    "tos-existence-iff-ncs",
    "solvable-tos-bound",
    "orbit-chain-descends",
    "branches-are-principal-series",
    "congruence-classes-are-subquandles",
    "relative-transvections-trivial-iff-kernel",
    "quotient-tos-bounded",
    "subquandle-tos-bounded",
    "product-tos-is-max",
    "locally-reductive-extension-bound",
    "tos-extension-bound",
    "quotient-series-memberwise",
)
_GROUP_FACTS = (
    "conjugation-engel-subset-bridge",
    "two-engel-conjugation-reductive-by-3",
)


def verify_suite(corpus: Iterable[Quandle],
                 groups: Iterable[tuple[str, GroupTable]] | None = None) -> SuiteReport:
    """Re-check every structural fact on the given corpus.

    Checks whose cost grows exponentially see only the instances under
    the module's bounds: the congruence lattice of members of order at
    most CONGRUENCE_MAX_ORDER (8), the subquandles of those up to
    SUBQUANDLE_MAX_ORDER (10), the is_ncs scan up to NCS_MAX_ORDER (12),
    products of order at most PRODUCT_MAX_ORDER (12), and the Engel bridge
    for n up to ENGEL_MAX_N (4); the checked counts in the report show how
    many instances each fact actually saw.  The scan caps cannot bind
    here: order 8 allows at most Bell(8) = 4140 congruences, against
    congruence.DEFAULT_CONGRUENCE_CAP; order 10 at most 2^10 - 1
    subquandles, and the is_ncs walk, which counts the subquandles of one
    Inn(Q)-orbit at a time, at most 2^12 - 1 at order 12, both against
    orbitseries.DEFAULT_SUBSET_CAP.  Group-level facts
    run only when group tables are supplied as (name, table) pairs.

    Every fact but the product and group facts reads only a member's
    table, so _table_stage runs once per distinct table and each member,
    in sorted order, replays it: the stage's counts add up per member, and
    each failure becomes a witness under the member's name, its label or
    "order-n table".  A QuandleError in the stage fails
    classification-completes for each of its members, who keep the counts
    recorded before it; one while deciding the 2-Engel verdict or the
    reductive degree of a group's conjugation quandle fails that fact.  The
    2-Engel verdict reads the bridge's n = 2 scan of the whole group, and
    every bracket scan of a group reads its inverses, computed once.
    Within one call every lookup by table goes through a _PerTable memo,
    which the stages seed with their tables' own degrees; a reductive
    degree the memo lacks comes from classify().  Within a stage the
    subquandles of its table go through one more, keyed by subset.  The
    principal series share each distinct subset (subset_of), however many
    tables hold it.
    """
    quandles = sorted(corpus, key=lambda q: (q.order, q.label or ""))
    names = _CORPUS_FACTS + (_GROUP_FACTS if groups is not None else ())
    checked = dict.fromkeys(names, 0)
    failed: dict[str, list[str]] = {name: [] for name in names}

    def record(name: str, ok: bool, witness: str) -> None:
        checked[name] += 1
        if not ok:
            failed[name].append(witness)

    tos_of = _PerTable(lambda q: orbitseries.degrees(q).tos_degree)
    lr_of = _PerTable(locally_reductive_degree)
    red_of = _PerTable(reductive_degree)
    subset_of: dict[tuple[int, ...], tuple[int, ...]] = {}
    series_of = _PerTable(lambda q: [
        [subset_of.setdefault(s, s) for s in orbitseries.principal_series(q, x)]
        for x in range(q.order)])
    stages = _PerTable(lambda q: _table_stage(q, tos_of, lr_of, red_of, series_of))
    product_tos = _PerTable(lambda pair: tos_of[core.direct_product(*pair)])
    gathered: list[tuple[str, Quandle, int | None]] = []
    for q in quandles:
        counts, failures, error = stages[q]
        name = q.label or f"order-{q.order} table"
        record("classification-completes", error is None, f"{name}: {error}")
        for fact, k in counts.items():
            checked[fact] += k
        for fact, detail in failures:
            failed[fact].append(f"{name}: {detail}")
        if counts:
            gathered.append((name, q, tos_of[q]))

    for (na, qa, ta), (nb, qb, tb) in combinations_with_replacement(gathered, 2):
        if qa.order * qb.order > PRODUCT_MAX_ORDER:
            continue
        pt = product_tos[qa, qb]
        if ta is None or tb is None:
            record("product-tos-is-max", pt is None,
                   f"{na} x {nb}: product tos {pt} without factors")
        else:
            record("product-tos-is-max", pt == max(ta, tb),
                   f"{na} x {nb}: product tos {pt} != max({ta},{tb})")

    for gname, table in groups or ():
        whole, everything = core.conj(table), tuple(range(len(table)))
        inv = grouptables.inverses_of(table)
        subsets = [(everything, whole)]
        subsets.extend((cls, core.induced_subquandle(whole, cls))
                       for cls in grouptables.conjugacy_classes(table))
        bracket: dict[tuple[tuple[int, ...], int], bool] = {}
        for subset, quandle in subsets:
            for n in range(1, ENGEL_MAX_N + 1):
                lhs = is_n_locally_reductive(quandle, n)
                rhs = bracket[subset, n] = grouptables.is_n_engel_subset(
                    table, subset, n, inv)
                record("conjugation-engel-subset-bridge", lhs == rhs,
                       f"{gname}, subset {subset}, n={n}: "
                       f"local reductivity {lhs} vs bracket {rhs}")
        try:
            two_engel = _two_engel_verdict(bracket[everything, 2],
                                           tos_of[whole], len(table))
            red = red_of[whole] if two_engel else None
        except QuandleError as exc:
            record("two-engel-conjugation-reductive-by-3", False,
                   f"{gname}: {exc}")
        else:
            record("two-engel-conjugation-reductive-by-3",
                   not two_engel or (red is not None and red <= 3),
                   f"{gname}: 2-Engel but reductive degree {red}")

    return SuiteReport(tuple(
        CheckResult(name, not failed[name], tuple(failed[name]), checked[name])
        for name in names))
