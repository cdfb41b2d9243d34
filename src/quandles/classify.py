"""Family membership, minimal degrees, and the corpus-wide theorem suite.

Each degree implemented here has at least two independent computations
behind it.  The folded-product identity, the descending orbit-congruence
chain, the nilpotency class of the inner group and the stabilizer-collapse
chain all measure reductivity.  classify() insists they agree, and
enforces the ordering between the three families on every report it emits;
reductive_degree() reads its report.  A disagreement is never a property of
the input quandle, only of this package, so it surfaces as
InconsistentCharacterizations rather than as a value.

classify() and verify_suite() share one per-quandle pass, gather_facts().

verify_suite() is the falsification harness: given a corpus (and optionally
a set of group tables), it reruns every structural fact the package relies
on and reports pass or fail per fact, with concrete witnesses on failure.
Failures are data, not exceptions, so a broken invariant shows up in the
report instead of aborting the run.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from itertools import combinations_with_replacement
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

from . import congruence, core, grouptables, orbitseries, permgroup
from .core import Quandle
from .errors import InconsistentCharacterizations, QuandleError
from .grouptables import GroupTable
from .permgroup import PermGroup

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

    Since the relations only coarsen and every step but the last merges a
    class, there are at most n layers of n^2 table lookups each: O(n^3),
    the cost of core.validate's axiom scan.
    """
    size = q.order
    labels: Sequence[int] = range(size)
    classes = size
    k = 0
    while True:
        ids: dict[tuple[int, ...], int] = {}
        labels = [ids.setdefault(permgroup.compose(labels, row), len(ids))
                  for row in q.table]
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


class _Groups(NamedTuple):
    """Trans(Q), its derived subgroup, Inn(Q) and its derived subgroup."""

    trans: PermGroup
    trans_derived: PermGroup
    inn: PermGroup
    inn_derived: PermGroup


def _groups(q: Quandle) -> _Groups:
    """The four groups the report reads, each built once, each from the last.

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
    l_e = (q.table[0], permgroup.inverse(q.table[0]))
    brackets = permgroup._commutators(
        (t, l_e) for t in permgroup._with_inverses(trans_group))
    inn_derived = permgroup.closure(brackets, q.order, start=trans_derived,
                                    bound=trans_group.order)
    return _Groups(trans_group, trans_derived, inn_group, inn_derived)


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
    below |Q|.  The scan costs min(n, |Q|) |Q|^2 steps.
    """
    if n < 0:
        raise ValueError(f"local reductivity degree must be >= 0, got {n}")
    if n == 0:
        return q.order == 1
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


def _two_engel_verdict(table: GroupTable, whole_tos: int | None) -> bool:
    """Whether the conjugation quandle of the group trivializes in two splits.

    Decided by the bracket identity, is_n_engel_subset over the whole group
    with n = 2, and cross-checked against whole_tos, the orbit-tree tos
    degree of core.conj(table); the two computations share nothing, so a
    mismatch raises InconsistentCharacterizations.
    """
    by_bracket = grouptables.is_n_engel_subset(table, range(len(table)), 2)
    by_tree = whole_tos is not None and whole_tos <= 2
    if by_bracket != by_tree:
        raise InconsistentCharacterizations(
            f"two-split verdicts disagree on a group of order {len(table)}: "
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


def _enforce_degree_chain(report: ClassificationReport) -> None:
    lr, tos, red = (report.locally_reductive_degree, report.tos_degree,
                    report.reductive_degree)
    fault = _degree_chain_fault(lr, tos, red)
    if fault is not None:
        raise InconsistentCharacterizations(
            f"{fault} on {report.label or report.order}: "
            f"lr={lr} tos={tos} red={red}")


@dataclass(frozen=True)
class QuandleFacts(ClassificationReport):
    """The report fields plus the raw material the fact suite reads.

    Built by gather_facts().  The four reductivity routes (the O-chain's
    degree, ident, inn_nilpotency_class, collapse_steps) are stored side by
    side and not compared here: classify() raises on a disagreement,
    verify_suite() reports it as a failing fact.
    """

    q: Quandle
    inn_orbits: tuple[tuple[int, ...], ...]
    trans_orbits: tuple[tuple[int, ...], ...]
    lam: congruence.Congruence
    tree: orbitseries.OrbitTreeNode
    chain: congruence.OChain
    ident: int | None
    collapse_steps: int | None

    @property
    def name(self) -> str:
        return self.label or f"order-{self.order} table"

    def report(self) -> ClassificationReport:
        return ClassificationReport(**{
            f.name: getattr(self, f.name) for f in fields(ClassificationReport)})


def gather_facts(q: Quandle) -> QuandleFacts:
    """Every per-quandle quantity of the report and the suite, each built once.

    One pass builds the inner and transvection groups and their derived
    subgroups (_groups: each from the last, none twice), the orbit tree,
    the O- and L-chains and the rest, all polynomial in the order.  The Inn
    orbits are the tree root's children (the root if it is a leaf); the
    Trans orbits are O^1, or O^0 when the chain stops there (Q connected or
    of order 1).  medial is whether the transvection group is abelian,
    O(n^3), and ncs whether tos_degree exists; is_medial() and is_ncs() are
    left to the suite.  Every leaf of the orbit tree is a connected
    subquandle, and a connected subquandle lies in one orbit of each node
    containing it, hence in a leaf: so ncs holds exactly when every leaf is
    a singleton.  ncs is None above NCS_MAX_ORDER, the largest order the
    suite's is_ncs scan checks it against.  Never raises on a route
    disagreement.
    """
    groups = _groups(q)
    trans_group = groups.trans
    tree = orbitseries.orbit_tree(q)
    inn_orbits = tuple(c.subset for c in tree.children) or (tree.subset,)
    sd = orbitseries.SeriesDegrees.of_tree(tree)
    dl = permgroup.derived_length(trans_group, groups.trans_derived)
    lam = congruence.lambda_congruence(q)
    medial = trans_group.is_abelian()
    nilpotent = permgroup.nilpotency_class(trans_group, groups.trans_derived) is not None
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
    inn_cls = permgroup.nilpotency_class(groups.inn, groups.inn_derived)
    collapse = congruence.l_chain(q)
    steps = len(collapse) - 1 if collapse[-1].order == 1 else None
    trans_orbits = chain[min(1, len(chain) - 1)].classes
    # Abelian: medial with Trans(Q) semiregular, every orbit of |Trans| points.
    abelian = medial and all(len(o) == trans_group.order for o in trans_orbits)
    return QuandleFacts(
        order=q.order,
        label=q.label,
        orbit_sizes=tuple(sorted((len(o) for o in inn_orbits), reverse=True)),
        connected=len(inn_orbits) == 1,
        faithful=lam.is_zero,
        medial=medial,
        abelian=abelian,
        nilpotent_quandle=nilpotent,
        solvable_quandle=dl is not None,
        trans_derived_length=dl,
        reductive_degree=chain.degree,
        locally_reductive_degree=lr,
        os_degree=sd.os_degree,
        tos_degree=sd.tos_degree,
        ncs=sd.tos_degree is not None if q.order <= NCS_MAX_ORDER else None,
        inn_order=groups.inn.order,
        trans_order=trans_group.order,
        inn_nilpotency_class=inn_cls,
        q=q,
        inn_orbits=inn_orbits,
        trans_orbits=trans_orbits,
        lam=lam,
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
    if not _routes_agree(f.reductive_degree, f.ident, f.inn_nilpotency_class,
                         f.collapse_steps):
        raise InconsistentCharacterizations(
            f"reductivity routes disagree on {q.label or f'order {q.order}'}: "
            f"chain={f.reductive_degree} identity={f.ident} "
            f"inner-class={f.inn_nilpotency_class} "
            f"collapse-steps={f.collapse_steps}")
    report = f.report()
    _enforce_degree_chain(report)
    return report


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


def _per_table(fn: Callable[[Quandle], int | None],
               known: Iterable[tuple[Quandle, int | None]]) -> Callable[[Quandle], int | None]:
    """fn memoized on the table, starting from the known (quandle, value) pairs.

    The memo lives as long as the returned function: verify_suite makes one
    per call, so a quotient, block, subquandle or product met again in the
    same call is not recomputed, and nothing is kept between calls.
    Quandles compare and hash by table only.
    """
    memo = dict(known)

    def call(q: Quandle) -> int | None:
        if q not in memo:
            memo[q] = fn(q)
        return memo[q]

    return call


def _series_image(series: Sequence[tuple[int, ...]],
                  proj: Sequence[int]) -> list[tuple[int, ...]]:
    return [tuple(sorted({proj[x] for x in subset})) for subset in series]


def _padded_equal(left: Sequence[tuple[int, ...]],
                  right: Sequence[tuple[int, ...]]) -> bool:
    """Memberwise equality after extending the shorter series by its last term."""
    for i in range(max(len(left), len(right))):
        if left[min(i, len(left) - 1)] != right[min(i, len(right) - 1)]:
            return False
    return True


def _series_and_congruence_facts(f: QuandleFacts,
                                 lattice: Sequence[congruence.Congruence] | None,
                                 record: Callable[[str, bool, str], None],
                                 tos_of: Callable[[Quandle], int | None],
                                 lr_of: Callable[[Quandle], int | None]) -> None:
    """The principal-series and per-congruence facts of one member.

    The member's principal series serve both the branch and the quotient
    facts.  Each congruence's quotient and its class subquandles are built
    once, read by every fact that needs them, and dropped before the next
    congruence; their tos and lr degrees come from the suite's memos.
    """
    q, lr, tos = f.q, f.locally_reductive_degree, f.tos_degree
    series = [orbitseries.principal_series(q, x) for x in range(q.order)]
    for branch in f.tree.branches():
        path = [node.subset for node in branch]
        meet = set(path[0])
        for subset in path[1:]:
            meet &= set(subset)
        leaf = branch[-1].subset
        if tuple(sorted(meet)) != leaf:
            record("branches-are-principal-series", False,
                   f"{f.name}: branch meet is not the leaf")
            continue
        record("branches-are-principal-series",
               all(series[x] == path for x in leaf),
               f"{f.name}: branch to {leaf} is not "
               f"the principal series of its members")
    if lattice is None:
        return
    e = permgroup.identity(q.order)
    for cong in lattice:
        for cls in cong.classes:
            members = set(cls)
            record("congruence-classes-are-subquandles",
                   all(q.table[a][b] in members for a in cls for b in cls),
                   f"{f.name}: class {cls} is not closed")
        trivial = all(g == e for g in congruence.trans_rel_generators(q, cong))
        record("relative-transvections-trivial-iff-kernel",
               trivial == cong.refines(f.lam),
               f"{f.name}: relative transvection triviality "
               f"disagrees with translation-kernel refinement")
        quot, proj = core.quotient(q, cong.classes)
        blocks = ([core.induced_subquandle(q, cls) for cls in cong.classes]
                  if lr is not None or tos is not None else [])
        if tos is not None:
            qt = tos_of(quot)
            record("quotient-tos-bounded", qt is not None and qt <= tos,
                   f"{f.name}: quotient tos {qt} exceeds {tos}")
            inner = [tos_of(block) for block in blocks]
            if qt is not None and None not in inner:
                record("tos-extension-bound", tos <= qt + max(inner),
                       f"{f.name}: tos {tos} exceeds {qt}+{max(inner)}")
        if lr is not None:
            outer = lr_of(quot)
            inner = [lr_of(block) for block in blocks]
            if outer is not None and None not in inner:
                record("locally-reductive-extension-bound",
                       lr <= outer + max(inner),
                       f"{f.name}: lr {lr} exceeds {outer}+{max(inner)}")
        quotient_series = [orbitseries.principal_series(quot, y)
                           for y in range(quot.order)]
        for x in range(q.order):
            record("quotient-series-memberwise",
                   _padded_equal(_series_image(series[x], proj),
                                 quotient_series[proj[x]]),
                   f"{f.name}: projected series of {x} differs "
                   f"from the quotient series")


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
    congruence.DEFAULT_CONGRUENCE_CAP, and order 12 at most 2^12 - 1
    subquandles, against orbitseries.DEFAULT_SUBSET_CAP.  Group-level facts
    run only when group tables are supplied as (name, table) pairs.

    A QuandleError while gathering a member's facts or its ncs scan, or
    while deciding the 2-Engel verdict or the reductive degree of a group's
    conjugation quandle, is recorded as a failing fact with the error as
    its witness.  Members that share a table share its facts and scans
    (is_ncs, the congruence lattice and is_medial), each under its own
    label.  Within one call the tos, lr and reductive degrees come from
    per-table memos, the members' own read off their facts; a reductive
    degree the memo lacks comes from classify().
    """
    quandles = sorted(corpus, key=lambda q: (q.order, q.label or ""))
    names = _CORPUS_FACTS + (_GROUP_FACTS if groups is not None else ())
    checked = dict.fromkeys(names, 0)
    failed: dict[str, list[str]] = {name: [] for name in names}

    def record(name: str, ok: bool, witness: str) -> None:
        checked[name] += 1
        if not ok:
            failed[name].append(witness)

    scanned: dict[Quandle, tuple | QuandleError] = {}
    facts: list[QuandleFacts] = []
    scans: list[tuple[bool | None, bool]] = []
    lattices: list[tuple[congruence.Congruence, ...] | None] = []
    for q in quandles:
        if q not in scanned:
            try:
                scanned[q] = (
                    gather_facts(q),
                    orbitseries.is_ncs(q) if q.order <= NCS_MAX_ORDER else None,
                    (congruence.all_congruences(q)
                     if q.order <= CONGRUENCE_MAX_ORDER else None),
                    is_medial(q))
            except QuandleError as exc:
                scanned[q] = exc
        if isinstance(scanned[q], QuandleError):
            failed["classification-completes"].append(
                f"{q.label or q.order}: {scanned[q]}")
            continue
        f, ncs, lattice, medial = scanned[q]
        facts.append(replace(f, label=q.label, q=q))
        scans.append((ncs, medial))
        lattices.append(lattice)
    checked["classification-completes"] = len(quandles)

    for f, (ncs, identity_medial) in zip(facts, scans):
        red, lr, tos = (f.reductive_degree, f.locally_reductive_degree,
                        f.tos_degree)
        dl, cls = f.trans_derived_length, f.inn_nilpotency_class
        record("reductivity-routes-agree",
               _routes_agree(red, f.ident, cls, f.collapse_steps),
               f"{f.name}: chain={red} identity={f.ident} "
               f"inner-class={cls} collapse={f.collapse_steps}")
        if red is not None and (f.faithful or f.connected):
            record("reductive-faithful-or-connected-is-trivial",
                   f.order == 1, f"{f.name}: reductive but order {f.order}")
        degs = f"{f.name}: lr={lr} tos={tos} red={red}"
        record("degree-existence-and-ordering",
               _degree_chain_fault(lr, tos, red) is None, degs)
        if f.medial and red is not None:
            record("medial-degrees-equal", lr == tos == red, degs)
        record("medial-iff-abelian-transvections",
               identity_medial == f.medial,
               f"{f.name}: medial={identity_medial} "
               f"abelian transvections={f.medial}")
        record("orbits-inner-equal-transvection",
               f.inn_orbits == f.trans_orbits,
               f"{f.name}: inner and transvection orbits differ")
        if ncs is not None:
            record("tos-existence-iff-ncs", (tos is not None) == ncs,
                   f"{f.name}: tos={tos} ncs={ncs}")
        # The trivial transvection group counts as derived length one here:
        # the bound multiplies by the solvable length of the quandle, and a
        # quandle with abelian (possibly trivial) transvections has length 1.
        if dl is not None and lr is not None:
            factor = max(dl, 1)
            record("solvable-tos-bound",
                   tos is not None and tos <= factor * lr,
                   f"{f.name}: tos={tos} bound={factor}*{lr}")
        chain = f.chain
        record("orbit-chain-descends",
               len(chain) <= f.order + 1 and all(
                   chain[i + 1].refines(chain[i])
                   for i in range(len(chain) - 1)),
               f"{f.name}: chain of {len(chain)} terms not descending")

    tos_of = _per_table(lambda q: orbitseries.degrees(q).tos_degree,
                        ((f.q, f.tos_degree) for f in facts))
    lr_of = _per_table(locally_reductive_degree,
                       ((f.q, f.locally_reductive_degree) for f in facts))
    red_of = _per_table(reductive_degree,
                        ((f.q, f.reductive_degree) for f in facts))
    for f, lattice in zip(facts, lattices):
        try:
            _series_and_congruence_facts(f, lattice, record, tos_of, lr_of)
        except QuandleError as exc:
            failed["classification-completes"].append(f"{f.name}: {exc}")

    for f in facts:
        tos = f.tos_degree
        if tos is None or f.order > SUBQUANDLE_MAX_ORDER:
            continue
        for subset in orbitseries.all_subquandles(f.q):
            st = tos_of(core.induced_subquandle(f.q, subset))
            record("subquandle-tos-bounded", st is not None and st <= tos,
                   f"{f.name}: subquandle {subset} tos {st} exceeds {tos}")

    for fa, fb in combinations_with_replacement(facts, 2):
        if fa.order * fb.order > PRODUCT_MAX_ORDER:
            continue
        pt = tos_of(core.direct_product(fa.q, fb.q))
        ta, tb = fa.tos_degree, fb.tos_degree
        if ta is None or tb is None:
            record("product-tos-is-max", pt is None,
                   f"{fa.name} x {fb.name}: product tos {pt} without factors")
        else:
            record("product-tos-is-max", pt == max(ta, tb),
                   f"{fa.name} x {fb.name}: product tos {pt} "
                   f"!= max({ta},{tb})")

    for gname, table in groups or ():
        whole = core.conj(table)
        subsets = [(tuple(range(len(table))), whole)]
        subsets.extend((cls, core.induced_subquandle(whole, cls))
                       for cls in grouptables.conjugacy_classes(table))
        for subset, quandle in subsets:
            for n in range(1, ENGEL_MAX_N + 1):
                lhs = is_n_locally_reductive(quandle, n)
                rhs = grouptables.is_n_engel_subset(table, subset, n)
                record("conjugation-engel-subset-bridge", lhs == rhs,
                       f"{gname}, subset {subset}, n={n}: "
                       f"local reductivity {lhs} vs bracket {rhs}")
        try:
            two_engel = _two_engel_verdict(table, tos_of(whole))
            red = red_of(whole) if two_engel else None
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
