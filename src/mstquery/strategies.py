"""Query strategies for MST under explorable uncertainty with predictions.

Three strategy families share the structural machinery in this module:

* a prediction-oblivious baseline that resolves one cycle at a time through
  witness pairs (2-competitive, verified empirically against the oracle);
* a two-phase strategy trading consistency against robustness via the trust
  parameter gamma: a preprocessing phase removes prediction-mandatory edges
  with strong local guarantees, then the predicted optimum (a minimum vertex
  cover of a bipartite intersection graph) is queried in a safe order;
* an error-sensitive variant whose query count degrades with the hop
  distance, maintained through a retained-matching replay scheme.
"""

from __future__ import annotations

import random
import time
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Iterator, Optional

from .errormetrics import hop_distance
from .graphcore import PreconditionViolated, QueryRun, UncertainGraph, rounds
from .limittrees import (
    LimitTrees,
    compute_limit_trees,
    ensure_unique_limit_trees,
    is_solved,
    unique_limit_trees,
    verified_tree_of_original,
)
from .oracle import DEFAULT_CAP, OptResult, edge_is_mandatory, mandatory_edges, opt_brute_force


@dataclass(frozen=True)
class StrategyConfig:
    gamma: Fraction | int = 2
    mode: str = "tradeoff"  # tradeoff | error_sensitive | baseline

    def __post_init__(self):
        if self.mode not in ("tradeoff", "error_sensitive", "baseline"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "baseline":
            return
        if Fraction(self.gamma) < 2:
            raise ValueError("gamma must be at least 2")
        if Fraction(self.gamma).denominator != 1:
            raise ValueError(
                f"gamma must be an integer, got {self.gamma}; "
                "run a rational gamma through randomized_gamma"
            )


# -- prediction-mandatory-free characterization ----------------------------


def _offenders(run: QueryRun, trees: LimitTrees) -> Iterator[tuple[int, list[int]]]:
    """Each offending non-tree edge f of the certified `trees`, in
    `nontree_order`, with the edges its pairs name.  A pair (f, e), e on
    f's path, names e when pred[f] < hi[e] and f when pred[e] > lo[f]; f
    offends, its cycle not prediction mandatory free, when a pair names one.

    Every present edge is open (I2, see
    :func:`~mstquery.limittrees.unique_limit_trees`) and T is both limit
    trees, so each prediction lies inside its interval, lo[e] <= lo[f] and
    hi[e] <= hi[f]: each test is "one is predicted inside the other's
    interval".  The named edges hold every prediction-mandatory edge, as an
    edge weighs its prediction once the rest are revealed.  A mandatory
    non-tree f has lo[f] < theta_f (the bottleneck of
    :func:`~mstquery.oracle.edge_is_mandatory`), at most the largest
    prediction on its path in T, a tree of the graph without f: a pair
    names f.  A mandatory tree edge l has theta_l < hi[l], so a route
    between its ends without l, predicted below hi[l], crosses its cut at a
    cover g, which names l.

    Lazy: a caller that wants the first offender scans no further."""
    lo, hi, pred, paths = run.lo, run.hi, run.pred, trees.paths
    for f in trees.nontree_order:
        lo_f, pred_f = lo[f], pred[f]
        named: list[int] = []
        names_f = False
        for e in paths[f]:
            if pred_f < hi[e]:
                named.append(e)
            if pred[e] > lo_f:
                names_f = True
        if names_f:
            named.append(f)
        if named:
            yield f, named


def _least_pred_mandatory(run: QueryRun, candidates: set[int]) -> Optional[int]:
    """The least prediction-mandatory edge of a certified session, or None
    if there is none: the least edge of
    :func:`~mstquery.oracle.prediction_mandatory_edges`, with no MST.

    `candidates`, the edges that the pairs of :func:`_offenders` name,
    hold every such edge.  So the first in ascending id that passes the
    exact single-edge check (:func:`~mstquery.oracle.edge_is_mandatory`)
    is the least.  The pair rule alone is not exact: the least candidate
    need not be mandatory, so none is returned unchecked."""
    for e in sorted(candidates):
        if edge_is_mandatory(run, e, "predictions"):
            return e
    return None


def instance_pred_mandatory_free(run: QueryRun, trees: Optional[LimitTrees] = None) -> bool:
    trees = trees if trees is not None else unique_limit_trees(run)
    return next(_offenders(run, trees), None) is None


# -- bipartite matching and minimum vertex cover ----------------------------


def _max_matching(
    left: list[int],
    adjacency: dict[int, list[int]],
    seed_pairs: Optional[list[tuple[int, int]]] = None,
) -> dict[int, int]:
    """Augmenting-path maximum matching, optionally completing a partial one.

    Deterministic: free left vertices are scanned in ascending id, neighbor
    lists are ascending.  The returned pair map is symmetric.

    Each search is the depth-first one of the recursive form, on an
    explicit stack: a matched neighbor's partner is searched next, and
    when its neighbors run out the search resumes at its parent's next
    neighbor.  So the matching is the recursive one, at any path length.
    """
    pair: dict[int, int] = {}
    for l, r in seed_pairs or ():
        pair[l] = r
        pair[r] = l

    get, match = adjacency.get, pair.get

    def augment(root: int) -> None:
        visited: set[int] = set()
        seen = visited.add
        # the left vertices of the search path, the neighbor each one went
        # on by, and each one's place in its neighbor list
        path, via = [root], []
        its = [iter(get(root, ()))]
        it = its[0]
        while True:
            for v in it:
                if v not in visited:
                    seen(v)
                    via.append(v)
                    w = match(v)
                    if w is None:
                        # flip the alternating path
                        for u, x in zip(path, via):
                            pair[u] = x
                            pair[x] = u
                        return
                    path.append(w)
                    it = iter(get(w, ()))
                    its.append(it)
                    break
            else:
                its.pop()
                path.pop()
                if not path:
                    return
                via.pop()
                it = its[-1]

    for u in left:
        if u not in pair:
            augment(u)
    return pair


def _koenig_cover(left: list[int], right: list[int], adjacency: dict[int, list[int]], pair: dict[int, int]) -> frozenset[int]:
    """Minimum vertex cover from a maximum matching via alternating reachability
    from the unmatched left vertices."""
    reach = {u for u in left if u not in pair}
    stack = sorted(reach)
    while stack:
        u = stack.pop()
        for v in adjacency.get(u, ()):
            if v in reach or pair.get(u) == v:
                continue
            reach.add(v)
            w = pair.get(v)
            if w is not None and w not in reach:
                reach.add(w)
                stack.append(w)
    return frozenset(e for e in left if e not in reach) | frozenset(e for e in right if e in reach)


@dataclass
class VertexCoverInstance:
    """Bipartite intersection graph over non-trivial edges: tree side vs
    non-tree side, adjacent when the closing edge's cycle contains the tree
    edge and their intervals intersect."""

    left: tuple[int, ...]
    right: tuple[int, ...]
    adjacency: dict[int, tuple[int, ...]]
    matching: dict[int, int]
    cover: frozenset[int]

    def edge_count(self) -> int:
        return sum(len(v) for v in self.adjacency.values())

    def matched_pairs(self) -> list[tuple[int, int]]:
        return sorted((l, self.matching[l]) for l in self.left if l in self.matching)


def _vc_structure(run: QueryRun, trees: LimitTrees) -> tuple[list[int], list[int], dict[int, list[int]]]:
    """The tree edges, the non-tree edges and, by tree edge, the non-tree
    edges whose cycle holds it and whose interval meets its own, ascending
    as `right` does.  `trees` are certified, so every edge is open (I2,
    see :func:`~mstquery.limittrees.unique_limit_trees`).

    Compared on ranks, and on the lower limit tree: an edge e on the path
    of f has a lower key at most f's, so lo[e] <= lo[f], and its interval
    meets f's exactly when lo[f] < hi[e]."""
    lo, hi, paths = run.lo, run.hi, trees.paths
    left = sorted(trees.tree)
    right = sorted(trees.nontree_order)
    adjacency: dict[int, list[int]] = {l: [] for l in left}
    for f in right:
        lo_f = lo[f]
        for e in paths[f]:
            if lo_f < hi[e]:
                adjacency[e].append(f)
    return left, right, adjacency


def build_vc_instance(run: QueryRun, trees: Optional[LimitTrees] = None) -> VertexCoverInstance:
    trees = trees if trees is not None else unique_limit_trees(run)
    if not instance_pred_mandatory_free(run, trees):
        raise PreconditionViolated("instance is not prediction mandatory free")
    left, right, adj = _vc_structure(run, trees)
    pair = _max_matching(left, adj)
    cover = _koenig_cover(left, right, adj, pair)
    return VertexCoverInstance(
        tuple(left), tuple(right), {l: tuple(v) for l, v in adj.items()}, pair, cover
    )


def opt_exact(graph: UncertainGraph) -> OptResult:
    """Minimum feasible query set under the true values, in polynomial time.

    Every feasible set holds the mandatory edges M, and once M is revealed
    no edge is mandatory and the limit trees are unique; the rest of OPT is
    then a minimum vertex cover of the bipartite intersection graph, read
    off a maximum matching by Koenig's theorem.  The singletons of M and
    the matched pairs are pairwise disjoint, each meets every feasible set,
    and there are exactly OPT of them: they are returned as
    ``witness_sets``, a certificate that no smaller set is feasible.
    """
    run = QueryRun(graph)
    mandatory = sorted(mandatory_edges(run, "truth"))
    for eid in mandatory:
        run.reveal(eid)
    trees = unique_limit_trees(run)
    if run.query_count != len(mandatory):
        raise RuntimeError("uniqueness preprocessing queried after the mandatory edges")
    left, right, adj = _vc_structure(run, trees)
    pair = _max_matching(left, adj)
    cover = _koenig_cover(left, right, adj, pair)
    pairs = tuple(frozenset((l, pair[l])) for l in left if l in pair)
    return OptResult(
        len(mandatory) + len(cover),
        frozenset(mandatory) | cover,
        witness_sets=tuple(frozenset((e,)) for e in mandatory) + pairs,
    )


# -- baseline (prediction-oblivious, 2-competitive) --------------------------


def run_baseline(run: QueryRun) -> None:
    """Resolve the instance one cycle at a time.

    Each round works on the cycle closed by the minimum-lower-limit non-tree
    edge.  The largest-upper-limit intersecting cycle edge and the closing
    edge form a witness set: the cycle edge is queried, and the closing
    edge only if still unresolved.

    After reduction every cycle edge meets the closing edge f: a path edge
    e that is not contractible has a cover g with lo[g] < hi[e], and f has
    the least lower key, so lo[f] <= lo[g].  So the witness is read off
    the whole path: largest high end, least id on ties.  Its interval is
    never inside f's, which would make f mandatory on its own: both are
    open (I2, see :func:`~mstquery.limittrees.unique_limit_trees`), and a
    path edge lies below f in the lower order with no tie of lower keys,
    which the unique limit trees rule out, so its low end is below f's.
    """
    for _ in rounds(run, "run_baseline"):
        trees = unique_limit_trees(run)
        if not run.present:
            return
        f = trees.nontree_order[0]
        run.reveal(min(trees.paths[f], key=lambda e: (-run.hi[e], e)))
        ensure_unique_limit_trees(run)
        if run.is_present(f) and not run.is_trivial(f):
            run.reveal(f)


# -- phase 1: make the instance prediction mandatory free --------------------


@dataclass
class PhaseLedger:
    """Accounting of one preprocessing run."""

    queries: list[int] = field(default_factory=list)
    removed_unqueried: dict[int, str] = field(default_factory=dict)
    case_partners: dict[int, int] = field(default_factory=dict)
    case_groups: list[list[int]] = field(default_factory=list)


def make_prediction_mandatory_free(run: QueryRun, gamma: int) -> PhaseLedger:
    """Query prediction-mandatory edges (at most gamma-2 per round) and
    resolve offending cycles with locally guaranteed query sets until no edge
    is mandatory under the predicted values.  Each certified tree is
    scanned once (:func:`_offenders`): a read of the least
    prediction-mandatory edge drains the scan, and when it finds none the
    offending cycle is the scan's first item."""
    if gamma != int(gamma) or gamma < 2:
        raise ValueError("gamma must be an integer >= 2")
    gamma = int(gamma)
    ledger = PhaseLedger()
    # each removal appends one entry, so this call's are the tail
    removed_before = len(run.removed_unqueried)
    queries_before = run.query_count
    for _ in rounds(run, "make_prediction_mandatory_free"):
        trees = unique_limit_trees(run)
        scan = _offenders(run, trees)
        for _ in range(gamma - 2):
            offenders = list(scan)
            pending = _least_pred_mandatory(run, {e for _, named in offenders for e in named})
            if pending is None:
                scan = iter(offenders)
                break
            run.reveal(pending)
            trees = unique_limit_trees(run)
            scan = _offenders(run, trees)
        offending = next(scan, None)
        if offending is None:
            break
        _resolve_offending_cycle(run, trees, offending[0], ledger)
        run.transcript.record("restart", tag="phase1")
    ledger.queries = list(run.queried[queries_before:])
    ledger.removed_unqueried = dict(islice(run.removed_unqueried.items(), removed_before, None))
    return ledger


def _resolve_offending_cycle(run: QueryRun, trees: LimitTrees, f: int, ledger: PhaseLedger) -> None:
    # ranks before this call's reveals; every edge read here is open (I2:
    # `trees` is certified), so a rank r lies inside e's interval exactly
    # when lo[e] < r < hi[e], and its prediction is pred[e]
    lo, hi, pred = list(run.lo), list(run.hi), run.pred
    # `trees` is a view that the first reveal ends: copy what is read after
    cycle_rest = list(trees.paths[f])
    l = min(cycle_rest, key=lambda e: (-hi[e], e))
    group: list[int] = []
    ledger.case_groups.append(group)

    def reveal(eid: int) -> int:
        group.append(eid)
        run.reveal(eid)
        return run.lo[eid]

    def reveal_pair(a: int, b: int) -> dict[int, int]:
        return {eid: reveal(eid) for eid in sorted((a, b))}

    if lo[l] < pred[f] < hi[l] and lo[f] < pred[l] < hi[f]:
        # both predicted inside each other: the pair is a strengthened witness
        reveal_pair(f, l)
        return

    if lo[l] < pred[f] < hi[l]:
        others = [e for e in cycle_rest if e != l]
        if any(lo[e] < hi[f] and lo[f] < hi[e] for e in others):
            third = min(others, key=lambda e: (-hi[e], e))
            l_covers = list(trees.covers[l])
            values = reveal_pair(f, l)
            if lo[l] < values[f] < hi[l] and all(
                not lo[x] < values[l] < hi[x] for x in l_covers
            ):
                reveal(third)
        else:
            w_l = reveal(l)
            if lo[f] < w_l < hi[f]:
                reveal(f)
            else:
                # the closing edge is now provably maximal: deletable unqueried
                ledger.case_partners[l] = f
        return

    inside = [e for e in cycle_rest if lo[f] < pred[e] < hi[f]]
    if not inside:
        raise RuntimeError("offending cycle matches no case")
    lp = min(inside, key=lambda e: (-hi[e], e))
    cut_rest = trees.covers[lp] - {f}
    if any(lo[x] < hi[lp] and lo[lp] < hi[x] for x in cut_rest):
        third = min(cut_rest, key=lambda x: (lo[x], x))
        values = reveal_pair(f, lp)
        if lo[third] < values[lp] < hi[third] and all(
            not lo[e] < values[f] < hi[e] for e in cycle_rest
        ):
            reveal(third)
    else:
        w_f = reveal(f)
        if lo[lp] < w_f < hi[lp]:
            reveal(lp)
        else:
            # the tree edge is now provably minimal: contractible unqueried
            ledger.case_partners[f] = lp


# -- phase 2, tradeoff variant ------------------------------------------------


def _phase2_lists(run: QueryRun, trees: LimitTrees, cover: frozenset[int]) -> tuple[list[int], list[int]]:
    lower, hi = run.lower, run.hi
    f_list = sorted(
        (e for e in cover if e not in trees.tree),
        key=lambda e: (lower[e], e),
    )
    l_list = sorted(
        (e for e in cover if e in trees.tree),
        key=lambda e: (-hi[e], e),
    )
    return f_list, l_list


def _observed_error(run: QueryRun, eid: int) -> bool:
    """Any relation of revealed edge eid's value to a currently open
    interval that differs from the predicted relation: on ranks, an open
    (lo, hi) whose lo or hi separates the value's rank from the
    prediction's."""
    a, b = sorted((run.lo[eid], run.pred[eid]))
    lo, hi = run.lo, run.hi
    return a != b and any(
        lo[x] != hi[x] and (a <= lo[x] < b or a < hi[x] <= b) for x in run.present_ids() if x != eid
    )


@dataclass
class Phase2Report:
    listed: list[int] = field(default_factory=list)
    deferred: list[int] = field(default_factory=list)  # matching partners set aside
    error_edge: Optional[int] = None
    handoff: bool = False


def phase2_tradeoff(run: QueryRun) -> Phase2Report:
    """Query the minimum vertex cover in the safe order, deferring each
    queried edge's matching partner; on the first observed prediction error,
    query the deferred partners and fall back to the baseline.

    Every listed edge and every deferred partner is open and present when
    it is queried: the cover and its partners are open vertices of the
    intersection graph, the loop only reveals, and a Koenig cover holds
    exactly one end of each matched pair, so no partner is listed."""
    trees = unique_limit_trees(run)
    vc = build_vc_instance(run, trees)
    f_list, l_list = _phase2_lists(run, trees, vc.cover)
    report = Phase2Report()
    for e in f_list + l_list:
        partner = vc.matching.get(e)
        if partner is None:
            raise RuntimeError("cover element without matching partner")
        run.reveal(e)
        report.listed.append(e)
        report.deferred.append(partner)
        if _observed_error(run, e):
            report.error_edge = e
            for x in report.deferred:
                run.reveal(x)
            run.transcript.record("phase", tag="baseline-handoff")
            report.handoff = True
            run_baseline(run)
            return report
    if is_solved(run) is None:
        raise RuntimeError("cover exhausted but instance unsolved")
    return report


# -- phase 2, error-sensitive variant -----------------------------------------


@dataclass
class ErrorSensitiveLedger:
    listed: list[int] = field(default_factory=list)  # queries from the ordered cover lists
    pair_at_query: dict[int, int] = field(default_factory=dict)  # partner when listed
    support: list[int] = field(default_factory=list)  # uniqueness + partner-rule queries
    replay: list[int] = field(default_factory=list)  # deferred-set replay queries
    deferred_entry: dict[int, int] = field(default_factory=dict)  # W, in entry order: eid -> tick
    retained: list[tuple[int, frozenset[int]]] = field(default_factory=list)  # (tick, h-bar endpoints)
    restarts: int = 0
    _tick: int = 0

    def tick(self) -> int:
        self._tick += 1
        return self._tick

    def all_queries(self) -> list[int]:
        return self.listed + self.support + self.replay


def _ensure_with_partner_rule(run: QueryRun, pair: dict[int, int], ledger: ErrorSensitiveLedger) -> None:
    """Restore unique limit trees; every mandatory query drags in its current
    matching partner, cascading to a fixpoint."""
    progress = True
    while progress:
        progress = False
        newly = ensure_unique_limit_trees(run)
        if newly:
            progress = True
            ledger.support.extend(newly)
        for q in newly:
            a = pair.get(q)
            if a is not None and run.is_present(a) and not run.is_trivial(a):
                run.reveal(a)
                ledger.support.append(a)
                progress = True


def _membership_flip(run: QueryRun, snap_tree: set[int]) -> bool:
    """Whether the tree membership of an edge changed since `snap_tree`,
    the limit tree when every present edge was in it or outside it, read
    right after a certification with reduction: whether some snapshot tree
    edge was deleted.

    Each present snapshot tree edge is still in the tree.  It is open (I2,
    see :func:`~mstquery.limittrees.unique_limit_trees`), so it was not
    revealed, and a reveal only raises the revealed edge's lower key (I1,
    see :mod:`~mstquery.limittrees`): a swap takes out only the revealed
    tree edge, reduction deletes only non-tree edges and contracts only
    tree edges, and neither takes another edge out of the tree.

    Checking the snapshot tree alone is complete.  Let the minor have n0
    vertices at the snapshot and C contractions since, C_tree of them of
    snapshot tree edges; each contraction removes one vertex, so the
    current tree has n0-1-C edges.  If no snapshot tree edge was deleted,
    the present snapshot tree edges, n0-1-C_tree of them, all lie in the
    current tree; so C_tree >= C, hence C_tree = C: no snapshot non-tree
    edge was contracted, and the current tree is exactly the present
    snapshot tree, which leaves every present snapshot non-tree edge
    outside it.
    """
    return any(run.removed.get(e) == "deleted" for e in snap_tree)


def phase2_error_sensitive(run: QueryRun) -> ErrorSensitiveLedger:
    """Adaptive cover querying that survives changes of the cover instance.

    While querying the ordered cover, every uniqueness-mandatory query drags
    in its matching partner.  When the tree membership of any edge changes,
    the matching is recomputed by retaining still-valid pairs and completing
    with augmenting paths; deferred partners that re-enter the matching are
    replayed immediately, and the listing restarts without resetting the
    deferred set.
    """
    trees = unique_limit_trees(run)
    vc = build_vc_instance(run, trees)
    pair = dict(vc.matching)
    cover = vc.cover
    ledger = ErrorSensitiveLedger()
    for _ in rounds(run, "phase2_error_sensitive"):
        trees = compute_limit_trees(run)
        f_list, l_list = _phase2_lists(run, trees, cover)
        snap_tree = set(trees.tree)
        restarted = False
        for e in f_list + l_list:
            if run.is_present(e) and not run.is_trivial(e):
                partner = pair.get(e)
                if partner is None:
                    raise RuntimeError("cover element without matching partner")
                run.reveal(e)
                ledger.listed.append(e)
                ledger.pair_at_query[e] = partner
                if partner not in ledger.deferred_entry:
                    ledger.deferred_entry[partner] = ledger.tick()
            _ensure_with_partner_rule(run, pair, ledger)
            if not _membership_flip(run, snap_tree):
                continue
            # the cover instance changed: retain what survives of the
            # matching, complete it, replay deferred elements that re-enter
            for _ in rounds(run, "phase2_error_sensitive replay"):
                left, right, adj = _vc_structure(run, compute_limit_trees(run))
                retained = [(l, r) for l, r in sorted(pair.items()) if r in adj.get(l, ())]
                ledger.retained.append(
                    (ledger.tick(), frozenset(x for lr in retained for x in lr))
                )
                pair = _max_matching(left, adj, retained)
                cover = _koenig_cover(left, right, adj, pair)
                # replay deferred elements in the cover or matched to it: a
                # Koenig cover holds one endpoint of every matching edge, so
                # these are the matched deferred elements and their partners,
                # all present and open (a set: two can be matched together)
                matched = {x for x in ledger.deferred_entry if x in pair}
                replay = sorted(matched | {pair[x] for x in matched})
                for r in replay:
                    run.reveal(r)
                    ledger.replay.append(r)
                _ensure_with_partner_rule(run, pair, ledger)
                if not replay:
                    break
            ledger.restarts += 1
            run.transcript.record("restart", tag="phase2")
            restarted = True
            break
        if not restarted:
            break
    if is_solved(run) is None:
        raise RuntimeError("cover exhausted but instance unsolved")
    return ledger


# -- combined runners ----------------------------------------------------------


@dataclass
class RunReport:
    instance: str
    strategy: str
    gamma: Optional[Fraction]
    seed: Optional[int]
    queries: int
    opt: Optional[int]
    ratio: Optional[Fraction]
    k_h: int
    k_sharp: int
    consistency_ok: Optional[bool]
    robustness_ok: Optional[bool]
    error_bound_ok: Optional[bool]
    runtime_ms: float
    gamma_effective: Optional[int] = None
    expected_inverse_gamma: Optional[Fraction] = None
    rounding_slack: Optional[Fraction] = None  # xi in the randomized wrapper

    def bounds_hold(self) -> bool:
        return all(x is not False for x in (self.consistency_ok, self.robustness_ok, self.error_bound_ok))

    def to_dict(self) -> dict:
        from .graphcore import format_rational

        def fr(x):
            return None if x is None else format_rational(Fraction(x))

        return {
            "instance": self.instance,
            "strategy": self.strategy,
            "gamma": fr(self.gamma),
            "seed": self.seed,
            "queries": self.queries,
            "opt": self.opt,
            "ratio": fr(self.ratio),
            "ratio_decimal": None if self.ratio is None else float(self.ratio),
            "k_h": self.k_h,
            "k_sharp": self.k_sharp,
            "consistency_ok": self.consistency_ok,
            "robustness_ok": self.robustness_ok,
            "error_bound_ok": self.error_bound_ok,
            "runtime_ms": round(self.runtime_ms, 3),
            "gamma_effective": self.gamma_effective,
            "expected_inverse_gamma": fr(self.expected_inverse_gamma),
            "rounding_slack": fr(self.rounding_slack),
        }


@dataclass
class RunOutcome:
    report: Optional[RunReport]  # None from solve, which computes no optimum
    run: QueryRun
    phase1: Optional[PhaseLedger] = None
    phase2: Optional[object] = None


def _evaluate_bounds(strategy: str, gamma: Optional[Fraction], queries: int, opt: int, k_h: int, k_sharp: int):
    if opt == 0:
        ok = queries == 0
        return ok, ok, ok
    if strategy == "baseline":
        rob = queries <= 2 * opt
        return rob, rob, None
    g = Fraction(gamma)
    if strategy == "tradeoff":
        cons = None if k_sharp != 0 else queries <= (1 + 1 / g) * opt
        rob = queries <= g * opt
        return cons, rob, None
    if strategy == "error_sensitive":
        cons = None if k_h != 0 else queries <= (1 + 1 / g) * opt
        rob = queries <= max(3 * opt, g * opt + 1)
        err = queries <= min((1 + 1 / g) * opt + 5 * k_h, (g + 1) * opt)
        return cons, rob, err
    raise ValueError(strategy)


def solve(graph: UncertainGraph, config: StrategyConfig) -> RunOutcome:
    """Run the configured strategy on a fresh session to a verified tree,
    set as the transcript's final tree; the outcome carries no report, as
    nothing here computes the optimum or the error measures."""
    run = QueryRun(graph)
    phase1 = None
    phase2: Optional[object] = None
    if config.mode == "baseline":
        run_baseline(run)
    else:
        phase1 = make_prediction_mandatory_free(run, config.gamma)
        run.transcript.record("phase", tag="phase2")
        if config.mode == "tradeoff":
            phase2 = phase2_tradeoff(run)
        else:
            phase2 = phase2_error_sensitive(run)
    # final cleanup reduces the solved remnant and must not query anything
    before = run.query_count
    ensure_unique_limit_trees(run)
    if run.query_count != before:
        raise RuntimeError("cleanup queried on a solved instance")
    tree = verified_tree_of_original(run)
    if tree is None:
        raise RuntimeError("strategy finished on an unsolved instance")
    run.transcript.set_final_tree(tree)
    return RunOutcome(report=None, run=run, phase1=phase1, phase2=phase2)


# (OPT, k_h, k_sharp) of each reported graph, held while the graph lives
_REPORT_FACTS: weakref.WeakKeyDictionary[UncertainGraph, tuple[int, int, int]] = weakref.WeakKeyDictionary()


def _report_facts(graph: UncertainGraph) -> tuple[int, int, int]:
    """(OPT, k_h, k_sharp) of the graph, which no strategy changes:
    computed on the graph's first report and shared by every later one."""
    facts = _REPORT_FACTS.get(graph)
    if facts is None:
        # the brute-force oracle where it fits, an independent reference for
        # the instances it can enumerate; the exact pass at every other size
        opt = opt_brute_force(graph) if len(graph.non_trivial_ids()) <= DEFAULT_CAP else opt_exact(graph)
        errors = hop_distance(graph)
        facts = _REPORT_FACTS[graph] = (opt.size, errors.k_h, errors.k_sharp)
    return facts


def run_combined(
    graph: UncertainGraph,
    config: StrategyConfig,
    instance_label: str = "",
    seed: Optional[int] = None,
) -> RunOutcome:
    """:func:`solve`, reported: query counts against the optimum together
    with the guarantee checks.  OPT and the hop distance are computed on the
    graph's first report only; every later run on the same graph object,
    whatever its strategy, reuses them."""
    started = time.perf_counter()
    outcome = solve(graph, config)
    elapsed = (time.perf_counter() - started) * 1000

    opt, k_h, k_sharp = _report_facts(graph)
    queries = outcome.run.query_count
    gamma_val = None if config.mode == "baseline" else Fraction(config.gamma)
    cons, rob, err = _evaluate_bounds(config.mode, gamma_val, queries, opt, k_h, k_sharp)
    outcome.report = RunReport(
        instance=instance_label,
        strategy=config.mode,
        gamma=gamma_val,
        seed=seed,
        queries=queries,
        opt=opt,
        ratio=Fraction(queries, opt) if opt else None,
        k_h=k_h,
        k_sharp=k_sharp,
        consistency_ok=cons,
        robustness_ok=rob,
        error_bound_ok=err,
        runtime_ms=elapsed,
    )
    return outcome


def randomized_gamma(
    graph: UncertainGraph,
    gamma: Fraction | int,
    seed: int = 0,
    mode: str = "error_sensitive",
    instance_label: str = "",
) -> RunOutcome:
    """Rational-gamma wrapper: round gamma up with probability equal to its
    fractional part (seeded), else down, and run the integral strategy.

    The report carries the exactly computed expected inverse of the rounded
    parameter and the analytic slack bound frac*(1-frac)/(gamma*ceil*floor).
    """
    gamma = Fraction(gamma)
    if gamma < 2:
        raise ValueError("gamma must be at least 2")
    floor = gamma.numerator // gamma.denominator
    frac = gamma - floor
    if frac == 0:
        effective = floor
        expected_inverse = Fraction(1, floor)
        slack = Fraction(0)
    else:
        ceil = floor + 1
        rng = random.Random(seed)
        effective = ceil if Fraction(rng.random()).limit_denominator(2**53) < frac else floor
        expected_inverse = frac * Fraction(1, ceil) + (1 - frac) * Fraction(1, floor)
        slack = frac * (1 - frac) / (gamma * ceil * floor)
    outcome = run_combined(
        graph,
        StrategyConfig(gamma=effective, mode=mode),
        instance_label=instance_label,
        seed=seed,
    )
    # run_combined checked the bounds against the effective integral gamma
    outcome.report.gamma = gamma
    outcome.report.gamma_effective = effective
    outcome.report.expected_inverse_gamma = expected_inverse
    outcome.report.rounding_slack = slack
    return outcome
