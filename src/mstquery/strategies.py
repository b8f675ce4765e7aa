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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errormetrics import hop_distance, relation
from .graphcore import PreconditionViolated, QueryRun, UncertainGraph, rounds
from .limittrees import (
    LimitTrees,
    compute_limit_trees,
    ensure_unique_limit_trees,
    is_solved,
    lower_key,
    lower_limit_tree,
    verified_tree_of_original,
)
from .oracle import DEFAULT_CAP, opt_brute_force, prediction_mandatory_edges


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


def _pred_or_value(run: QueryRun, eid: int) -> Fraction:
    iv = run.interval(eid)
    return iv.low if iv.is_trivial else run.predicted(eid)


def cycle_pred_mandatory_free(run: QueryRun, trees: LimitTrees, f: int) -> bool:
    """Cycle condition: the closing edge is predicted to dominate every cycle
    edge, and every cycle edge is predicted to stay below the closing edge."""
    f_iv = run.interval(f)
    f_pred = _pred_or_value(run, f)
    for e in trees.cycle_of(f):
        if e == f:
            continue
        if f_pred < run.interval(e).sup_star():
            return False
        if _pred_or_value(run, e) > f_iv.inf_star():
            return False
    return True


def instance_pred_mandatory_free(run: QueryRun, trees: Optional[LimitTrees] = None) -> bool:
    trees = trees if trees is not None else compute_limit_trees(run)
    return all(cycle_pred_mandatory_free(run, trees, f) for f in trees.nontree_order)


# -- bipartite matching and minimum vertex cover ----------------------------


def _max_matching(
    left: list[int],
    adjacency: dict[int, list[int]],
    seed_pairs: Optional[list[tuple[int, int]]] = None,
) -> dict[int, int]:
    """Augmenting-path maximum matching, optionally completing a partial one.

    Deterministic: free left vertices are scanned in ascending id, neighbor
    lists are ascending.  The returned pair map is symmetric.
    """
    pair: dict[int, int] = {}
    for l, r in seed_pairs or ():
        pair[l] = r
        pair[r] = l

    def augment(u: int, visited: set[int]) -> bool:
        for v in adjacency.get(u, ()):
            if v in visited:
                continue
            visited.add(v)
            w = pair.get(v)
            if w is None or augment(w, visited):
                pair[u] = v
                pair[v] = u
                return True
        return False

    for u in left:
        if u not in pair:
            augment(u, set())
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
    left = [l for l in sorted(trees.tree) if not run.is_trivial(l)]
    right = [f for f in sorted(trees.nontree_order) if not run.is_trivial(f)]
    adjacency: dict[int, list[int]] = {l: [] for l in left}
    for f in right:
        f_iv = run.interval(f)
        for e in trees.cycle_of(f):
            if e != f and not run.is_trivial(e) and run.interval(e).intersects(f_iv):
                adjacency[e].append(f)
    return left, right, {l: sorted(v) for l, v in adjacency.items()}


def build_vc_instance(run: QueryRun, trees: Optional[LimitTrees] = None) -> VertexCoverInstance:
    trees = trees if trees is not None else compute_limit_trees(run)
    if not instance_pred_mandatory_free(run, trees):
        raise PreconditionViolated("instance is not prediction mandatory free")
    left, right, adj = _vc_structure(run, trees)
    pair = _max_matching(left, adj)
    cover = _koenig_cover(left, right, adj, pair)
    return VertexCoverInstance(
        tuple(left), tuple(right), {l: tuple(v) for l, v in adj.items()}, pair, cover
    )


# -- baseline (prediction-oblivious, 2-competitive) --------------------------


def run_baseline(run: QueryRun) -> None:
    """Resolve the instance one cycle at a time.

    Each round works on the cycle closed by the minimum-lower-limit non-tree
    edge.  The largest-upper-limit intersecting cycle edge and the closing
    edge form a witness set; if the former's interval is contained in the
    latter's, the closing edge is mandatory and queried alone, otherwise the
    cycle edge is queried and the closing edge only if still unresolved.
    """
    for _ in rounds(run, "run_baseline"):
        ensure_unique_limit_trees(run)
        if not run.present_ids():
            return
        trees = compute_limit_trees(run)
        f = trees.nontree_order[0]
        f_iv = run.interval(f)
        candidates = [
            e for e in trees.cycle_of(f) if e != f and run.interval(e).intersects(f_iv)
        ]
        if not candidates:
            raise RuntimeError("verified-maximal edge survived reduction")
        l = min(candidates, key=lambda e: (-run.interval(e).high, e))
        if run.interval(l).contained_in(f_iv):
            run.reveal(f)
        else:
            run.reveal(l)
            ensure_unique_limit_trees(run)
            if run.is_present(f) and not run.is_trivial(f):
                run.reveal(f)


# -- phase 1: make the instance prediction mandatory free --------------------


@dataclass
class PhaseLedger:
    """Accounting of one preprocessing run."""

    queries: list[int] = field(default_factory=list)
    last_iteration_queries: list[int] = field(default_factory=list)
    removed_unqueried: dict[int, str] = field(default_factory=dict)
    case_partners: dict[int, int] = field(default_factory=dict)
    case_groups: list[list[int]] = field(default_factory=list)
    iterations: int = 0


def make_prediction_mandatory_free(run: QueryRun, gamma: int) -> PhaseLedger:
    """Query prediction-mandatory edges (at most gamma-2 per round) and
    resolve offending cycles with locally guaranteed query sets until no edge
    is mandatory under the predicted values."""
    if gamma != int(gamma) or gamma < 2:
        raise ValueError("gamma must be an integer >= 2")
    gamma = int(gamma)
    ledger = PhaseLedger()
    removed_before = set(run.removed_unqueried)
    queries_before = run.query_count
    for _ in rounds(run, "make_prediction_mandatory_free"):
        ledger.iterations += 1
        round_pm: list[int] = []
        ensure_unique_limit_trees(run)
        while len(round_pm) < gamma - 2:
            pending = prediction_mandatory_edges(run)
            if not pending:
                break
            eid = min(pending)
            run.reveal(eid)
            round_pm.append(eid)
            ensure_unique_limit_trees(run)
        ledger.last_iteration_queries = round_pm
        trees = compute_limit_trees(run)
        offending = None
        for f in trees.nontree_order:
            if not cycle_pred_mandatory_free(run, trees, f):
                offending = f
                break
        if offending is None:
            break
        _resolve_offending_cycle(run, trees, offending, ledger)
        run.transcript.record("restart", tag="phase1")
    ledger.queries = list(run.queried[queries_before:])
    ledger.removed_unqueried = {
        e: k for e, k in run.removed_unqueried.items() if e not in removed_before
    }
    return ledger


def _resolve_offending_cycle(run: QueryRun, trees: LimitTrees, f: int, ledger: PhaseLedger) -> None:
    snap = {e: run.interval(e) for e in run.present_ids()}
    f_pred = _pred_or_value(run, f)
    cycle_rest = [e for e in trees.cycle_of(f) if e != f]
    l = min(cycle_rest, key=lambda e: (-snap[e].high, e))
    group: list[int] = []
    ledger.case_groups.append(group)

    def reveal(eid: int) -> Fraction:
        group.append(eid)
        return run.reveal(eid)

    def reveal_pair(a: int, b: int) -> dict[int, Fraction]:
        return {eid: reveal(eid) for eid in sorted((a, b))}

    if snap[l].contains(f_pred) and snap[f].contains(_pred_or_value(run, l)):
        # both predicted inside each other: the pair is a strengthened witness
        reveal_pair(f, l)
        return

    if snap[l].contains(f_pred):
        others = [e for e in cycle_rest if e != l]
        if any(snap[e].intersects(snap[f]) for e in others):
            third = min(others, key=lambda e: (-snap[e].high, e))
            values = reveal_pair(f, l)
            blockers = [x for x in trees.cut_of(l) if x != l]
            if snap[l].contains(values[f]) and all(
                not snap[x].contains(values[l]) for x in blockers
            ):
                reveal(third)
        else:
            w_l = reveal(l)
            if snap[f].contains(w_l):
                reveal(f)
            else:
                # the closing edge is now provably maximal: deletable unqueried
                ledger.case_partners[l] = f
        return

    inside = [e for e in cycle_rest if snap[f].contains(_pred_or_value(run, e))]
    if not inside:
        raise RuntimeError("offending cycle matches no case")
    lp = min(inside, key=lambda e: (-snap[e].high, e))
    cut_rest = [x for x in trees.cut_of(lp) if x not in (f, lp)]
    if any(snap[x].intersects(snap[lp]) for x in cut_rest):
        third = min(cut_rest, key=lambda x: (snap[x].low, x))
        values = reveal_pair(f, lp)
        if snap[third].contains(values[lp]) and all(
            not snap[e].contains(values[f]) for e in cycle_rest
        ):
            reveal(third)
    else:
        w_f = reveal(f)
        if snap[lp].contains(w_f):
            reveal(lp)
        else:
            # the tree edge is now provably minimal: contractible unqueried
            ledger.case_partners[f] = lp


# -- phase 2, tradeoff variant ------------------------------------------------


def _phase2_lists(run: QueryRun, trees: LimitTrees, cover: frozenset[int]) -> tuple[list[int], list[int]]:
    f_list = sorted(
        (e for e in cover if e not in trees.tree),
        key=lambda e: (lower_key(run.interval(e)), e),
    )
    l_list = sorted(
        (e for e in cover if e in trees.tree),
        key=lambda e: (-run.interval(e).high, e),
    )
    return f_list, l_list


def _observed_error(run: QueryRun, eid: int, value: Fraction) -> bool:
    """Any relation of the revealed value to a currently open interval that
    differs from the predicted relation."""
    pred = run.predicted(eid)
    if value == pred:
        return False
    for other in run.present_ids():
        if other == eid:
            continue
        iv = run.interval(other)
        if iv.is_trivial:
            continue
        if relation(value, iv) != relation(pred, iv):
            return True
    return False


@dataclass
class Phase2Report:
    listed: list[int] = field(default_factory=list)
    deferred: list[int] = field(default_factory=list)  # matching partners set aside
    error_edge: Optional[int] = None
    handoff: bool = False


def phase2_tradeoff(run: QueryRun) -> Phase2Report:
    """Query the minimum vertex cover in the safe order, deferring each
    queried edge's matching partner; on the first observed prediction error,
    query the deferred partners and fall back to the baseline."""
    trees = compute_limit_trees(run)
    vc = build_vc_instance(run, trees)
    f_list, l_list = _phase2_lists(run, trees, vc.cover)
    report = Phase2Report()
    for e in f_list + l_list:
        if not run.is_present(e) or run.is_trivial(e):
            continue
        partner = vc.matching.get(e)
        if partner is None:
            raise RuntimeError("cover element without matching partner")
        value = run.reveal(e)
        report.listed.append(e)
        report.deferred.append(partner)
        if _observed_error(run, e, value):
            report.error_edge = e
            for x in report.deferred:
                if run.is_present(x) and not run.is_trivial(x):
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
    deferred: list[int] = field(default_factory=list)  # W, in entry order
    deferred_entry: dict[int, int] = field(default_factory=dict)  # eid -> tick
    retained: list[tuple[int, frozenset[int]]] = field(default_factory=list)  # (tick, h-bar endpoints)
    restarts: int = 0
    _tick: int = 0

    def tick(self) -> int:
        self._tick += 1
        return self._tick

    def partner_queries(self) -> list[int]:
        tracked = set(self.pair_at_query.values())
        return [e for e in self.support if e in tracked]

    def other_support_queries(self) -> list[int]:
        tracked = set(self.pair_at_query.values())
        return [e for e in self.support if e not in tracked]

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


def _membership_flip(run: QueryRun, snap_tree: set[int], snap_nontree: set[int]) -> bool:
    tree_now = lower_limit_tree(run)
    for e in snap_tree:
        if run.is_present(e):
            if e not in tree_now:
                return True
        elif run.removed.get(e) == "deleted":
            return True
    for e in snap_nontree:
        if run.is_present(e):
            if e in tree_now:
                return True
        elif run.removed.get(e) == "contracted":
            return True
    return False


def phase2_error_sensitive(run: QueryRun) -> ErrorSensitiveLedger:
    """Adaptive cover querying that survives changes of the cover instance.

    While querying the ordered cover, every uniqueness-mandatory query drags
    in its matching partner.  When the tree membership of any edge changes,
    the matching is recomputed by retaining still-valid pairs and completing
    with augmenting paths; deferred partners that re-enter the matching are
    replayed immediately, and the listing restarts without resetting the
    deferred set.
    """
    trees = compute_limit_trees(run)
    vc = build_vc_instance(run, trees)
    pair = dict(vc.matching)
    cover = vc.cover
    ledger = ErrorSensitiveLedger()
    for _ in rounds(run, "phase2_error_sensitive"):
        trees = compute_limit_trees(run)
        f_list, l_list = _phase2_lists(run, trees, cover)
        snap_tree = set(trees.tree) & set(run.present_ids())
        snap_nontree = set(run.present_ids()) - snap_tree
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
                    ledger.deferred.append(partner)
                    ledger.deferred_entry[partner] = ledger.tick()
            _ensure_with_partner_rule(run, pair, ledger)
            if not _membership_flip(run, snap_tree, snap_nontree):
                continue
            # the cover instance changed: retain what survives of the
            # matching, complete it, replay deferred elements that re-enter
            for _ in rounds(run, "phase2_error_sensitive replay"):
                trees_now = compute_limit_trees(run)
                left, right, adj = _vc_structure(run, trees_now)
                symmetric = sorted({(min(a, b), max(a, b)) for a, b in pair.items()})
                retained = [
                    (l, r)
                    for l, r in _orient_pairs(run, trees_now, symmetric)
                    if r in adj.get(l, ())
                ]
                ledger.retained.append(
                    (ledger.tick(), frozenset(x for lr in retained for x in lr))
                )
                pair = _max_matching(left, adj, retained)
                cover = _koenig_cover(left, right, adj, pair)
                deferred_set = set(ledger.deferred)
                partners_of_deferred = {pair[x] for x in deferred_set if x in pair}
                cover_and_partners = set(cover) | {pair[c] for c in cover if c in pair}
                replay = sorted(
                    e
                    for e in cover_and_partners & (deferred_set | partners_of_deferred)
                    if run.is_present(e) and not run.is_trivial(e)
                )
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


def _orient_pairs(run: QueryRun, trees: LimitTrees, pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Orient symmetric pairs as (tree side, non-tree side) for the current
    trees, dropping pairs with a missing or trivial endpoint."""
    out = []
    for a, b in pairs:
        if not (run.is_present(a) and run.is_present(b)):
            continue
        if run.is_trivial(a) or run.is_trivial(b):
            continue
        if a in trees.tree and b not in trees.tree:
            out.append((a, b))
        elif b in trees.tree and a not in trees.tree:
            out.append((b, a))
    return out


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
    report: RunReport
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


def run_combined(
    graph: UncertainGraph,
    config: StrategyConfig,
    oracle_cap: int = DEFAULT_CAP,
    instance_label: str = "",
    seed: Optional[int] = None,
) -> RunOutcome:
    """Run the configured strategy on a fresh session and report query counts
    against the brute-force optimum together with the guarantee checks."""
    started = time.perf_counter()
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
    elapsed = (time.perf_counter() - started) * 1000

    opt = opt_brute_force(graph, "truth", cap=oracle_cap)
    report_err = hop_distance(graph)
    gamma_val = None if config.mode == "baseline" else Fraction(config.gamma)
    cons, rob, err = _evaluate_bounds(
        config.mode, gamma_val, run.query_count, opt.size, report_err.k_h, report_err.k_sharp
    )
    report = RunReport(
        instance=instance_label,
        strategy=config.mode,
        gamma=gamma_val,
        seed=seed,
        queries=run.query_count,
        opt=opt.size,
        ratio=Fraction(run.query_count, opt.size) if opt.size else None,
        k_h=report_err.k_h,
        k_sharp=report_err.k_sharp,
        consistency_ok=cons,
        robustness_ok=rob,
        error_bound_ok=err,
        runtime_ms=elapsed,
    )
    return RunOutcome(report=report, run=run, phase1=phase1, phase2=phase2)


def randomized_gamma(
    graph: UncertainGraph,
    gamma: Fraction | int,
    seed: int = 0,
    mode: str = "error_sensitive",
    oracle_cap: int = DEFAULT_CAP,
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
        oracle_cap=oracle_cap,
        instance_label=instance_label,
        seed=seed,
    )
    # run_combined checked the bounds against the effective integral gamma
    outcome.report.gamma = gamma
    outcome.report.gamma_effective = effective
    outcome.report.expected_inverse_gamma = expected_inverse
    outcome.report.rounding_slack = slack
    return outcome
