"""Learning predicted values under the hop-distance loss.

The loss of a candidate predicted value for one edge depends only on which
side of each other open interval's endpoints it falls, so each interval can
be discretized into the endpoints it contains plus one representative per
gap.  The grid finds the endpoints by their ranks in the graph's ranking;
only the midpoints are computed on values.  Training then minimizes the
empirical per-edge loss independently.

Losses come from the relation-signature kernel of :mod:`.errormetrics`: per
edge, one signature per distinct sampled (or mixture) value, weighted by its
multiplicity, and one per candidate.  A candidate's loss is the weighted sum
of its signature mismatches, so no relation is derived twice.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errormetrics import RelationKernel, mismatches, relation_mismatches
from .graphcore import ParseError, UncertainGraph, ValidationError, format_rational, parse_rational


@dataclass(frozen=True)
class CandidateGrid:
    """Per-edge finite candidate sets covering every distinct loss value."""

    per_edge: dict[int, tuple[Fraction, ...]]

    def candidates(self, eid: int) -> tuple[Fraction, ...]:
        return self.per_edge[eid]


def discretize(graph: UncertainGraph) -> CandidateGrid:
    """Breakpoints are the other open intervals' endpoints strictly inside the
    edge's interval; one midpoint per gap represents its loss class.  Trivial
    edges keep their single known value.  An open edge's own ends are open
    endpoints too, so its cuts are the open endpoints' ranks from lo to hi,
    mapped back to their values."""
    ranking = graph.ranking
    ends = sorted({r for lo, hi in zip(ranking.lo, ranking.hi) if lo != hi for r in (lo, hi)})
    grid: dict[int, tuple[Fraction, ...]] = {}
    for e, lo, hi in zip(graph.edges, ranking.lo, ranking.hi):
        if lo == hi:
            grid[e.eid] = (e.interval.low,)
            continue
        cuts = [ranking.values[r] for r in ends[bisect_left(ends, lo):bisect_right(ends, hi)]]
        values = [(cuts[0] + cuts[1]) / 2]
        for a, b in zip(cuts[1:], cuts[2:]):
            values += [a, (a + b) / 2]
        grid[e.eid] = tuple(values)
    return CandidateGrid(grid)


class RealizationSampler:
    """Seeded sampler over per-edge finite mixtures of rational point masses.

    Every sampled value lies strictly inside its open interval (or equals the
    trivial value).  Edges without an explicit mixture default to a point
    mass at their true value.
    """

    def __init__(self, graph: UncertainGraph, mixtures: Mapping[int, tuple[list[Fraction], list[int]]], seed: int = 0):
        self.graph = graph
        unknown = sorted(set(mixtures) - {e.eid for e in graph.edges})
        if unknown:
            raise ValidationError(f"mixtures for unknown edges {unknown}")
        self.mixtures: dict[int, tuple[list[Fraction], list[int]]] = {}
        for e in graph.edges:
            values, weights = mixtures.get(e.eid, ([e.true_value], [1]))
            if len(values) != len(weights) or not values:
                raise ValidationError(f"edge {e.eid}: malformed mixture")
            if any(w <= 0 for w in weights):
                raise ValidationError(f"edge {e.eid}: mixture weights must be positive")
            for v in values:
                if e.interval.is_trivial:
                    if v != e.interval.low:
                        raise ValidationError(f"edge {e.eid}: trivial edge admits only its value")
                elif not e.interval.contains(v):
                    raise ValidationError(f"edge {e.eid}: mixture value {v} outside the open interval")
            self.mixtures[e.eid] = (list(values), list(weights))
        self._rng = random.Random(seed)

    @classmethod
    def from_json(cls, graph: UncertainGraph, text: str, seed: int = 0) -> "RealizationSampler":
        try:
            raw = json.loads(text)
            entries = raw["edges"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ParseError(f"malformed distribution document: {exc}") from exc
        if not isinstance(entries, dict):
            raise ParseError("malformed distribution document: 'edges' must be an object")
        mixtures = {}
        for key, spec in entries.items():
            try:
                values = spec["values"]
                if not isinstance(values, list):
                    raise TypeError(f"values must be a list, got {values!r}")
                weights = spec.get("weights", [1] * len(values))
                if not isinstance(weights, list):
                    raise TypeError(f"weights must be a list, got {weights!r}")
                values = [parse_rational(v) for v in values]
                if any(isinstance(w, (bool, float)) for w in weights):
                    raise TypeError(f"weights must be integers, got {weights}")
                weights = [int(w) for w in weights]
                mixtures[int(key)] = (values, weights)
            except KeyError as exc:
                raise ParseError(f"edge {key}: mixture lacks {exc}") from exc
            except (AttributeError, TypeError, ValueError) as exc:
                raise ParseError(f"edge {key}: malformed mixture: {exc}") from exc
        return cls(graph, mixtures, seed=seed)

    def sample(self) -> dict[int, Fraction]:
        out = {}
        for e in self.graph.edges:
            values, weights = self.mixtures[e.eid]
            out[e.eid] = self._rng.choices(values, weights=weights, k=1)[0]
        return out


_edge_loss = relation_mismatches


def _weighted_loss(weighted: list[tuple[list[int], int]], sig: list[int]) -> int:
    """Sum of weight times mismatches against sig, over (signature, weight) pairs."""
    return sum(w * mismatches(s, sig) for s, w in weighted)


def erm_train(graph: UncertainGraph, sampler: RealizationSampler, m: int) -> dict[int, Fraction]:
    """Empirical risk minimization over the candidate grid.

    Draws m full realizations, then independently picks per edge the
    candidate with minimum empirical hop loss (ascending-value tie-break).
    """
    if m < 1:
        raise ValueError("need at least one sample")
    grid = discretize(graph)
    samples = [sampler.sample() for _ in range(m)]
    kernel = RelationKernel(graph)
    learned: dict[int, Fraction] = {}
    for e in graph.edges:
        others = kernel.others(e.eid)
        draws = [(kernel.signature(v, others), n) for v, n in Counter(s[e.eid] for s in samples).items()]
        best = None
        best_loss = None
        for candidate in grid.candidates(e.eid):
            loss = _weighted_loss(draws, kernel.signature(candidate, others))
            if best_loss is None or loss < best_loss:
                best, best_loss = candidate, loss
        learned[e.eid] = best
    return learned


def _expected_losses(kernel: RelationKernel, sampler: RealizationSampler, eid: int, candidates) -> list[Fraction]:
    """Exact expected hop loss of each candidate under eid's mixture."""
    others = kernel.others(eid)
    values, weights = sampler.mixtures[eid]
    mixture = [(kernel.signature(v, others), w) for v, w in zip(values, weights)]
    total = sum(weights)
    return [Fraction(_weighted_loss(mixture, kernel.signature(c, others)), total) for c in candidates]


def expected_edge_loss(graph: UncertainGraph, sampler: RealizationSampler, eid: int, candidate: Fraction) -> Fraction:
    """Exact expectation of the per-edge hop loss under the sampler's mixture."""
    return _expected_losses(RelationKernel(graph), sampler, eid, [candidate])[0]


def expected_hop_loss(graph: UncertainGraph, sampler: RealizationSampler, predictions: Mapping[int, Fraction]) -> Fraction:
    kernel = RelationKernel(graph)
    return sum(
        (_expected_losses(kernel, sampler, e.eid, [predictions[e.eid]])[0] for e in graph.edges),
        Fraction(0),
    )


def grid_optimal(graph: UncertainGraph, sampler: RealizationSampler) -> dict[int, Fraction]:
    """Exhaustive per-edge minimizer of the exact expected loss over the grid."""
    grid = discretize(graph)
    kernel = RelationKernel(graph)
    best: dict[int, Fraction] = {}
    for e in graph.edges:
        candidates = grid.candidates(e.eid)
        best[e.eid] = min(zip(_expected_losses(kernel, sampler, e.eid, candidates), candidates))[1]
    return best


def predictions_to_json(predictions: Mapping[int, Fraction]) -> str:
    return json.dumps(
        {str(eid): format_rational(v) for eid, v in sorted(predictions.items())}, indent=2
    )
