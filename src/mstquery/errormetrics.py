"""Hop distance and related prediction-error measures.

A predicted value implicitly predicts, for every other edge's open interval,
whether the true value falls left of it, inside it, or right of it.  The hop
distance counts the wrongly predicted relations over all ordered edge pairs.
It is a property of the original instance: queries made during a run never
change it.

:func:`hop_distance` counts, and compares no pair of edges: an open interval
(lo, hi) separates two values A < B exactly when lo lies in [A, B) or hi in
(A, B], so each edge's count is two bisections into the sorted interval
ends, less the intervals with both ends in [A, B], a dominance count that
one Fenwick-tree sweep answers for every edge at once; each interval's count
is the same with the roles swapped.  That is O((m + k#) log m) for m edges
and k# wrong predictions.

A single count, for one edge and two values, is :func:`relation_mismatches`:
the same rule on the values' positions, in one pass over the open intervals.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .graphcore import UncertainGraph


def relation_mismatches(graph: UncertainGraph, eid: int, value_a: Fraction, value_b: Fraction) -> int:
    """Number of open intervals of edges other than eid that separate value_a
    from value_b.  With A <= B the values' positions
    (:meth:`Ranking.position`), an open interval (lo, hi) separates them
    exactly when A <= 2*lo < B or A < 2*hi <= B, the rule that
    :func:`hop_distance` counts for every edge at once."""
    ranking = graph.ranking
    a, b = sorted((ranking.position(value_a), ranking.position(value_b)))
    return sum(
        a <= 2 * lo < b or a < 2 * hi <= b
        for e, lo, hi in zip(graph.edges, ranking.lo, ranking.hi)
        if lo != hi and e.eid != eid
    )


@dataclass(frozen=True)
class ErrorReport:
    jo: dict[int, int]   # per edge: wrong relations of its value to other intervals
    oj: dict[int, int]   # per edge: wrong relations of other values to its interval
    k_h: int
    k_sharp: int

    def jo_of(self, edge_ids: Iterable[int]) -> int:
        return sum(self.jo[e] for e in edge_ids)

    def oj_of(self, edge_ids: Iterable[int]) -> int:
        return sum(self.oj[e] for e in edge_ids)


def _dominated(points: list[tuple[int, int]], queries: list[tuple[int, int]], size: int) -> list[int]:
    """For each query (a, b), the number of points (x, y) with a <= x and
    y <= b, every y and b in range(size): one sweep down x that adds each
    point's y to a Fenwick tree before the queries it counts for."""
    tree = [0] * (size + 1)
    points = sorted(points, reverse=True)
    counts = [0] * len(queries)
    i = 0
    for j in sorted(range(len(queries)), key=lambda j: queries[j][0], reverse=True):
        a, b = queries[j]
        while i < len(points) and points[i][0] >= a:
            k = points[i][1] + 1
            while k <= size:
                tree[k] += 1
                k += k & -k
            i += 1
        k = b + 1
        while k:
            counts[j] += tree[k]
            k -= k & -k
    return counts


def hop_distance(graph: UncertainGraph) -> ErrorReport:
    """Full per-edge hop report, frozen against the original instance.

    Values and ends are compared by rank.  A wrong edge, with the ranks
    A < B of its truth and prediction, has its relation to an open interval
    (lo, hi) mispredicted exactly when lo is in [A, B) or hi is in (A, B];
    both hold when A <= lo and hi <= B.  An edge's own interval never
    counts: its truth and prediction lie strictly inside it."""
    ranking = graph.ranking
    top = len(ranking.values) - 1
    jo = {e.eid: 0 for e in graph.edges}
    oj = dict(jo)
    # (eid, low rank, high rank) of every open interval, and (eid, A, B) of
    # every edge whose prediction is wrong
    spans = [(e.eid, lo, hi) for e, lo, hi in zip(graph.edges, ranking.lo, ranking.hi) if lo != hi]
    wrong = [
        (e.eid, min(t, p), max(t, p)) for e, t, p in zip(graph.edges, ranking.truth, ranking.pred) if t != p
    ]
    lows, highs = sorted(lo for _, lo, _ in spans), sorted(hi for _, _, hi in spans)
    inside = _dominated([(lo, hi) for _, lo, hi in spans], [(a, b) for _, a, b in wrong], top + 1)
    for (eid, a, b), both in zip(wrong, inside):
        jo[eid] = (
            bisect_left(lows, b) - bisect_left(lows, a) + bisect_right(highs, b) - bisect_right(highs, a) - both
        )
    # the wrong edges with A <= lo and hi <= B, mirrored into the same count
    starts, ends = sorted(a for _, a, _ in wrong), sorted(b for _, _, b in wrong)
    around = _dominated(
        [(top - a, top - b) for _, a, b in wrong], [(top - lo, top - hi) for _, lo, hi in spans], top + 1
    )
    for (eid, lo, hi), both in zip(spans, around):
        oj[eid] = (
            bisect_right(starts, lo) - bisect_right(ends, lo) + bisect_left(starts, hi) - bisect_left(ends, hi) - both
        )
    return ErrorReport(jo=jo, oj=oj, k_h=sum(jo.values()), k_sharp=len(wrong))
