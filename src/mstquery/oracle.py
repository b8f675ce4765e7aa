"""Ground-truth machinery: feasibility, brute-force optimum, mandatory edges.

A query set is feasible when, after revealing it, one spanning tree is
provably minimum for every realization of the remaining intervals.
:func:`opt_brute_force` finds the optimum by exhaustive subset enumeration
seeded with the mandatory edges, capped in non-trivial edges; it lists every
optimal set for ``mstquery opt --all`` and is the independent reference for
:func:`mstquery.strategies.opt_exact`, the polynomial optimum that strategy
runs report beyond the cap (it lives with the vertex-cover machinery it
reuses, which imports this module).  Mandatory
detection takes one MST and two union-find sweeps over it per call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterable, Mapping, Optional, Sequence, Union

from .graphcore import QueryRun, UncertainGraph
from .limittrees import _joined_at_most, _kruskal, _least_covers, _rooted, is_solved

DEFAULT_CAP = 16


class CapExceeded(RuntimeError):
    """Instance has more non-trivial edges than the brute-force cap allows."""


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    witness_tree: Optional[frozenset[int]]


@dataclass(frozen=True)
class OptResult:
    size: int
    one_optimal_set: frozenset[int]
    all_optimal_sets: Optional[tuple[frozenset[int], ...]] = None
    witness_sets: Optional[tuple[frozenset[int], ...]] = None  # pairwise disjoint, `size` of them


GraphLike = Union[UncertainGraph, QueryRun]


def _as_run(graph: GraphLike, value_source: str) -> QueryRun:
    if isinstance(graph, UncertainGraph):
        return QueryRun(graph, value_source)
    # fork of a live session: already-revealed values stay fixed; future
    # reveals draw from the chosen source
    return graph.fork(value_source)


def is_feasible(graph: GraphLike, query_set: Iterable[int], value_source: str = "truth") -> FeasibilityVerdict:
    run = _as_run(graph, value_source)
    for eid in sorted(set(query_set)):
        if not run.is_trivial(eid):
            run.reveal(eid)
    tree = is_solved(run)
    if tree is None:
        return FeasibilityVerdict(False, None)
    return FeasibilityVerdict(True, frozenset(tree))


def mandatory_edges(graph: GraphLike, value_source: str = "truth") -> set[int]:
    """Edges in every feasible query set: revealing everything else under the
    chosen value source must leave the instance unsolved.

    With every other edge revealed, each present edge has a weight w (its
    known value, or the source's value) and only e is open.  Let theta_e be
    the bottleneck weight between e's endpoints in the graph without e
    (infinite for a bridge).  The instance is then solved iff
    theta_e <= L_e (a tree without e verifies: e closes a cycle of weights
    at most its low end) or theta_e >= U_e (a tree with e verifies: every
    cycle through e closes with a weight at least its high end).  Since
    :func:`is_solved` admits high <= low, e is mandatory iff
    L_e < theta_e < U_e.

    One MST T0 over w gives every threshold, in two cases.  For e outside
    T0, T0 is an MST of the graph without e, so theta_e is the largest w on
    e's tree path.  For e in T0, swapping e for its minimum cover f (the
    lightest non-tree edge whose path holds e) gives an MST of the graph
    without e, in which f's cycle joins e's endpoints; f is the heaviest
    edge on that cycle, so theta_e is w_f.  This is MST sensitivity
    analysis (Tarjan, IPL 1982), and no path is walked: for e outside T0,
    a Kruskal sweep over T0 by w answers whether every w on its path is at
    most L_e (then theta_e <= L_e) and at most U_e - 1 (then theta_e < U_e,
    ranks being ints); for e in T0, painting the tree paths in order of w
    gives each tree edge its minimum cover.

    Weights, thresholds and ends are compared as the session's ranks, which
    order exactly as the values do; the source's ranks are the ranking's
    truth or prediction ranks.  The weight table holds the present edges
    only, which are all that Kruskal, the sweep and the painting read.
    """
    run = graph if isinstance(graph, QueryRun) else QueryRun(graph)
    lo, hi = run.lo, run.hi
    table = run.ranking.table(value_source)
    w = {e: lo[e] if lo[e] == hi[e] else table[e] for e in run.present}
    tree = _kruskal(run, w)
    nontree = [e for e in run.present_ids() if e not in tree]
    outside = [e for e in nontree if lo[e] != hi[e]]
    queries = [(bound, e) for e in outside for bound in (lo[e], hi[e] - 1)]
    joined = set(_joined_at_most(run, tree, w, queries))
    mandatory = {e for e in outside if (hi[e] - 1, e) in joined and (lo[e], e) not in joined}
    first = _least_covers(run, _rooted(run, tree), sorted(nontree, key=w.__getitem__))
    for e, f in first.items():
        # a tree edge with no cover is a bridge: theta is infinite
        if lo[e] < w[f] < hi[e]:
            mandatory.add(e)
    return mandatory


def prediction_mandatory_edges(graph: GraphLike) -> set[int]:
    return mandatory_edges(graph, "predictions")


def opt_brute_force(
    graph: GraphLike,
    value_source: str = "truth",
    cap: int = DEFAULT_CAP,
    collect_all: bool = False,
) -> OptResult:
    """Minimum-cardinality feasible query set by subset enumeration.

    Subsets are enumerated in increasing cardinality, restricted to supersets
    of the mandatory set (every feasible set contains it).
    """
    run = _as_run(graph, value_source)
    candidates = run.non_trivial_ids()
    if len(candidates) > cap:
        raise CapExceeded(f"{len(candidates)} non-trivial edges exceed cap {cap}")

    if is_solved(run) is not None:
        empty = frozenset()
        return OptResult(0, empty, (empty,) if collect_all else None)

    seed = sorted(mandatory_edges(run, value_source))
    base = run.fork()
    for eid in seed:
        base.reveal(eid)
    seeded = set(seed)
    rest = [e for e in candidates if e not in seeded]

    for extra in range(len(rest) + 1):
        found: list[frozenset[int]] = []
        for combo in combinations(rest, extra):
            scratch = base.fork()
            for eid in combo:
                scratch.reveal(eid)
            if is_solved(scratch) is not None:
                found.append(frozenset(seed) | frozenset(combo))
                if not collect_all:
                    break
        if found:
            size = len(seed) + extra
            return OptResult(size, found[0], tuple(found) if collect_all else None)
    raise RuntimeError("no feasible query set found; instance corrupt")


def sampled_tree_validation(
    graph: GraphLike,
    query_set: Iterable[int],
    value_source: str = "truth",
    samples: int = 200,
    seed: int = 0,
) -> bool:
    """Independent check of a feasibility verdict by realization sampling.

    Reveals the query set, then draws uniform random rational realizations of
    the remaining open intervals and verifies that the claimed tree has
    minimum total weight in each.  Returns True when the tree is minimum in
    every sampled realization (vacuously True for infeasible verdicts).
    """
    run = _as_run(graph, value_source)
    for eid in sorted(set(query_set)):
        if not run.is_trivial(eid):
            run.reveal(eid)
    tree = is_solved(run)
    if tree is None:
        return True
    return _minimum_in_samples(run, frozenset(tree), samples, seed)


def _minimum_in_samples(run: QueryRun, tree: frozenset[int], samples: int, seed: int) -> bool:
    """Whether `tree` has minimum total weight in each of `samples` random
    realizations of the present edges: an open interval (low, high) takes
    the grid point low + (high - low) * k / 128 for a uniform k in 1..127,
    drawn edge by edge in id order; a known edge keeps its value.

    Every weight is scaled by 128 * D, D the lcm of the denominators of the
    interval ends, so each is an int and the sums compare as ints.  A
    positive scale orders trees and sums exactly as the rationals do."""
    lo, hi, values = run.lo, run.hi, run.ranking.values
    ids = run.present_ids()
    scale = 128 * lcm(*(values[r].denominator for e in ids for r in (lo[e], hi[e])))

    def scaled(x: Fraction) -> int:
        return x.numerator * (scale // x.denominator)

    weights = [0] * len(lo)
    grid = []  # (edge, scaled low end, scaled grid step) of the open edges, by id
    for e in ids:
        low = scaled(values[lo[e]])
        weights[e] = low
        if lo[e] != hi[e]:
            grid.append((e, low, (scaled(values[hi[e]]) - low) // 128))
    rng = random.Random(seed)
    for _ in range(samples):
        for e, low, step in grid:
            weights[e] = low + step * rng.randint(1, 127)
        if not _tree_is_minimum(run, tree, weights):
            return False
    return True


def _tree_is_minimum(run: QueryRun, tree: frozenset[int], weights: Union[Sequence[int], Mapping[int, Fraction]]) -> bool:
    """Whether `tree` is a spanning tree of least total weight under
    `weights`, indexed by edge id (ints or Fractions)."""
    best = _kruskal(run, weights)
    return len(tree) == len(best) and sum(weights[e] for e in tree) == sum(weights[e] for e in best)
