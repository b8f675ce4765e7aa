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

Every other relation-mismatch count (:func:`relation_mismatches` and the
learner's loss) goes through one kernel, :class:`RelationKernel`.  The
signature of a value, for edge e, is its relation to every other open
interval, in ``graph.edges`` order; two values disagree on e's relations
exactly where their signatures differ.  Callers compute one signature per
(edge, distinct value) and compare signatures, instead of re-deriving
relations for every pair of values.  The kernel compares positions read from
the graph's ranking, not the values.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import ne
from typing import Iterable

from .graphcore import Interval, UncertainGraph

LEFT, INSIDE, RIGHT = -1, 0, 1


def relation(value: Fraction, interval: Interval) -> int:
    """Position of a value relative to an open interval."""
    if interval.is_trivial:
        raise ValueError("relations are defined against open intervals only")
    if value <= interval.low:
        return LEFT
    if value >= interval.high:
        return RIGHT
    return INSIDE


class RelationKernel:
    """Relation signatures against the open intervals of one graph.

    Positions come from the graph's ranking (:meth:`Ranking.position`): a
    ranked value sits at 2*rank, so every open end does too, and any other
    value at 2i-1, with i the index of the first ranked value above it.
    Positions compare with the ends' positions exactly as the values compare
    with the ends, so each relation costs two integer comparisons.
    :func:`hop_distance` does not use the kernel: it counts separating
    intervals by bisection instead of listing relations.
    """

    def __init__(self, graph: UncertainGraph):
        self.ranking = ranking = graph.ranking
        # (eid, low position, high position) of every open interval
        self.open = [
            (e.eid, 2 * lo, 2 * hi) for e, lo, hi in zip(graph.edges, ranking.lo, ranking.hi) if lo != hi
        ]

    def others(self, eid: int) -> list[tuple[int, int, int]]:
        """The open intervals of every edge but eid, in ``graph.edges`` order."""
        return [t for t in self.open if t[0] != eid]

    def signature(self, value: Fraction, others: list[tuple[int, int, int]]) -> list[int]:
        """:func:`relation` of value to each interval of `others`."""
        return self.relations(self.ranking.position(value), others)

    @staticmethod
    def relations(p: int, others: list[tuple[int, int, int]]) -> list[int]:
        """The relations of position p to each interval of `others`.  A list,
        not a tuple: freed short tuples stay on CPython's tuple free lists and
        keep their memory."""
        return [LEFT if p <= lo else RIGHT if p >= hi else INSIDE for _, lo, hi in others]


def mismatches(sig_a: list[int], sig_b: list[int]) -> int:
    """Number of positions where two signatures over the same intervals differ."""
    return sum(map(ne, sig_a, sig_b))


def relation_mismatches(graph: UncertainGraph, eid: int, value_a: Fraction, value_b: Fraction) -> int:
    """Number of other open intervals that separate value_a from value_b."""
    kernel = RelationKernel(graph)
    others = kernel.others(eid)
    return mismatches(kernel.signature(value_a, others), kernel.signature(value_b, others))


def hop_indicator(graph: UncertainGraph, eid: int, other_eid: int) -> int:
    """1 iff the predicted relation of edge eid's value to the other edge's
    interval is wrong.  Point intervals admit a single relation, so they
    contribute 0 on the interval side."""
    if eid == other_eid:
        raise ValueError("hop indicator needs two distinct edges")
    other = graph.edge(other_eid)
    if other.interval.is_trivial:
        return 0
    e = graph.edge(eid)
    return int(relation(e.true_value, other.interval) != relation(e.predicted_value, other.interval))


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
