"""Ground-truth machinery: feasibility, brute-force optimum, mandatory edges.

A query set is feasible when, after revealing it, one spanning tree is
provably minimum for every realization of the remaining intervals.  The
optimum is found by exhaustive subset enumeration seeded with the mandatory
edges; a configurable cap keeps runtime bounded at desk scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Optional, Union

from .graphcore import QueryRun, UncertainGraph, kruskal
from .limittrees import is_solved

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


GraphLike = Union[UncertainGraph, QueryRun]


def _as_run(graph: GraphLike, value_source: str) -> QueryRun:
    if value_source not in ("truth", "predictions"):
        raise ValueError(f"unknown value source {value_source!r}")
    if isinstance(graph, UncertainGraph):
        values = graph.true_values() if value_source == "truth" else graph.predicted_values()
        return QueryRun(graph, values=values)
    # fork of a live session: already-revealed values stay fixed; future
    # reveals draw from the chosen source
    base = graph.graph_readonly()
    values = base.true_values() if value_source == "truth" else base.predicted_values()
    return graph.fork(values=values)


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
    chosen value table must leave the instance unsolved."""
    run = _as_run(graph, value_source)
    candidates = run.non_trivial_ids()
    mandatory = set()
    for eid in candidates:
        scratch = run.fork()
        for other in candidates:
            if other != eid:
                scratch.reveal(other)
        if is_solved(scratch) is None:
            mandatory.add(eid)
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

    seed = sorted(mandatory_edges(graph, value_source))
    base = run.fork()
    for eid in seed:
        base.reveal(eid)
    rest = [e for e in candidates if e not in set(seed)]

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
    verdict = is_feasible(graph, query_set, value_source)
    if not verdict.feasible:
        return True
    run = _as_run(graph, value_source)
    for eid in sorted(set(query_set)):
        if not run.is_trivial(eid):
            run.reveal(eid)
    rng = random.Random(seed)
    open_ids = run.non_trivial_ids()
    tree = verdict.witness_tree
    assert tree is not None
    for _ in range(samples):
        weights: dict[int, Fraction] = {}
        for eid in run.present_ids():
            iv = run.interval(eid)
            if iv.is_trivial:
                weights[eid] = iv.low
            else:
                # uniform grid point strictly inside the interval
                step = (iv.high - iv.low) / 128
                weights[eid] = iv.low + step * rng.randint(1, 127)
        if not _tree_is_minimum(run, tree, weights):
            return False
    return True


def _tree_is_minimum(run: QueryRun, tree: frozenset[int], weights: Mapping[int, Fraction]) -> bool:
    ids = run.present_ids()
    ends = {eid: run.endpoints(eid) for eid in ids}
    parent = {v: v for pair in ends.values() for v in pair}
    best = kruskal(sorted(ids, key=lambda e: (weights[e], e)), ends, parent)
    claimed = sum((weights[e] for e in tree), Fraction(0))
    return len(tree) == len(best) and claimed == sum((weights[e] for e in best), Fraction(0))
