"""Learning predicted values under the hop-distance loss.

The loss of a candidate predicted value for one edge depends only on which
side of each other open interval's endpoints it falls, so each interval can
be discretized into the endpoints it contains plus one representative per
gap.  The grid finds the endpoints by their ranks in the graph's ranking;
only the midpoints are computed on values.

Training sweeps each open edge e's candidates in ascending order, on the
doubled ranks of :meth:`Ranking.position`: an open end of rank r sits at
2r, and 2r+1 stands for the whole gap after it, since every value strictly
between two adjacent open ends has the same relation to every open
interval.  A candidate's relation to another open interval changes only
where the sweep crosses one of that interval's ends, and every candidate
lies strictly inside e's interval, so only the ends strictly inside it
matter: an interval with no such end keeps one relation to every candidate
and adds the same loss to each (e's own interval among them).  At each such
end r, the intervals whose high end is r turn from inside to right before
candidate 2r is scored, and those whose low end is r turn from left to
inside before gap 2r+1 is scored.  Each turn adds the weight of the drawn
values that agree with the new relation and takes away the weight of those
that agreed with the old one, so the score is the agreement up to a
constant per edge.  The best score wins on strict improvement only, so ties
go to the smallest candidate, as they would in a scan of the grid.  ERM
weighs the draws by their counts, :func:`grid_optimal` the mixture values by
their weights.  Both key each value on its (numerator, denominator) pair
and place it with :meth:`Ranking.place`, by integer cross-multiplication,
so the learner neither hashes nor compares a Fraction; the sampler checks
its mixtures and draws the same way (:class:`RealizationSampler`).

A candidate's expected loss is the weighted sum, over its edge's mixture,
of :func:`~.errormetrics.relation_mismatches` with each mixture value.
"""

from __future__ import annotations

import json
import random
import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Mapping, Optional

from .errormetrics import relation_mismatches
from .graphcore import (
    ParseError, Ranking, UncertainGraph, ValidationError, _parse_integer, format_rational, known_keys, parse_rational,
    unique_keys,
)


@dataclass(frozen=True)
class CandidateGrid:
    """Per-edge finite candidate sets covering every distinct loss value."""

    per_edge: dict[int, tuple[Fraction, ...]]

    def candidates(self, eid: int) -> tuple[Fraction, ...]:
        return self.per_edge[eid]


def _open_cuts(ranking: Ranking) -> list[Optional[list[int]]]:
    """By edge id: the ascending ranks of the open ends from an open edge's
    lo to its hi, both included (its own ends are open ends too); None for a
    trivial edge."""
    ends = sorted({r for lo, hi in zip(ranking.lo, ranking.hi) if lo != hi for r in (lo, hi)})
    return [
        ends[bisect_left(ends, lo):bisect_right(ends, hi)] if lo != hi else None
        for lo, hi in zip(ranking.lo, ranking.hi)
    ]


def discretize(graph: UncertainGraph) -> CandidateGrid:
    """Breakpoints are the other open intervals' endpoints strictly inside the
    edge's interval; one midpoint per gap represents its loss class.  Trivial
    edges keep their single known value.  The cuts are the open ends' ranks
    from the edge's lo to its hi, mapped back to their values."""
    values = graph.ranking.values
    grid: dict[int, tuple[Fraction, ...]] = {}
    for e, ranks in zip(graph.edges, _open_cuts(graph.ranking)):
        if ranks is None:
            grid[e.eid] = (e.interval.low,)
            continue
        cuts = [values[r] for r in ranks]
        candidates = [(cuts[0] + cuts[1]) / 2]
        for a, b in zip(cuts[1:], cuts[2:]):
            candidates += [a, (a + b) / 2]
        grid[e.eid] = tuple(candidates)
    return CandidateGrid(grid)


class RealizationSampler:
    """Seeded sampler over per-edge finite mixtures of rational point masses.

    Every sampled value lies strictly inside its open interval (or equals the
    trivial value), which is checked once, by integer cross-multiplication.
    Edges without an explicit mixture default to a point mass at their true
    value.  Each edge's cumulative weights are summed once too, and a draw
    takes, per edge, the value that ``random.choices(values, weights)``
    would, by its formula, so a seed gives the same stream.
    """

    def __init__(self, graph: UncertainGraph, mixtures: Mapping[int, tuple[list[Fraction], list[int]]], seed: int = 0):
        self.graph = graph
        unknown = sorted(set(mixtures) - {e.eid for e in graph.edges})
        if unknown:
            raise ValidationError(f"mixtures for unknown edges {unknown}")
        self.mixtures: dict[int, tuple[list[Fraction], list[int]]] = {}
        self._draws: list[tuple[int, list[Fraction], list[int]]] = []
        for e in graph.edges:
            values, weights = mixtures.get(e.eid, ([e.true_value], [1]))
            if len(values) != len(weights) or not values:
                raise ValidationError(f"edge {e.eid}: malformed mixture")
            if any(w <= 0 for w in weights):
                raise ValidationError(f"edge {e.eid}: mixture weights must be positive")
            cum = list(accumulate(weights))
            if cum[-1] > sys.float_info.max:  # random.choices sums them as a float
                raise ValidationError(f"edge {e.eid}: mixture weights sum past the largest float")
            ln, ld = e.interval.low.numerator, e.interval.low.denominator
            hn, hd = e.interval.high.numerator, e.interval.high.denominator
            for v in values:
                if not isinstance(v, (int, Fraction)) or isinstance(v, bool):
                    raise ValidationError(f"edge {e.eid}: mixture value {v!r} is not rational")
                n, d = v.numerator, v.denominator
                if (ln, ld) == (hn, hd):
                    if (n, d) != (ln, ld):
                        raise ValidationError(f"edge {e.eid}: trivial edge admits only its value")
                elif not ln * d < n * ld or not n * hd < hn * d:
                    raise ValidationError(f"edge {e.eid}: mixture value {v} outside the open interval")
            values = list(values)
            self.mixtures[e.eid] = (values, list(weights))
            self._draws.append((e.eid, values, cum))
        self._rng = random.Random(seed)

    @classmethod
    def from_json(cls, graph: UncertainGraph, text: str, seed: int = 0) -> "RealizationSampler":
        """The sampler of a distribution document: {"edges": {id: mixture}},
        each mixture {"values": [...]} with optional integer "weights".  Any
        other key is a ParseError naming it, never ignored."""
        try:
            raw = json.loads(text, object_pairs_hook=unique_keys)
            entries = raw["edges"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ParseError(f"malformed distribution document: {exc}") from exc
        if not isinstance(entries, dict):
            raise ParseError("malformed distribution document: 'edges' must be an object")
        known_keys(raw, "distribution document", ("edges",))
        mixtures, keys = {}, {}
        for key, spec in entries.items():
            if isinstance(spec, dict):
                known_keys(spec, f"edge {key} mixture", ("values", "weights"))
            try:
                values = spec["values"]
                if not isinstance(values, list):
                    raise TypeError(f"values must be a list, got {values!r}")
                weights = spec.get("weights", [1] * len(values))
                if not isinstance(weights, list):
                    raise TypeError(f"weights must be a list, got {weights!r}")
                values = [parse_rational(v) for v in values]
                weights = [_parse_integer(w, "weights") for w in weights]
                eid = int(key)
            except KeyError as exc:
                raise ParseError(f"edge {key}: mixture lacks {exc}") from exc
            except (AttributeError, TypeError, ValueError) as exc:
                raise ParseError(f"edge {key}: malformed mixture: {exc}") from exc
            if eid in keys:
                raise ParseError(f"edge {eid}: two mixtures, keyed {keys[eid]!r} and {key!r}")
            if str(eid) != key:
                raise ParseError(f"edge key {key!r} is not the decimal form of an edge id")
            keys[eid] = key
            mixtures[eid] = (values, weights)
        return cls(graph, mixtures, seed=seed)

    def sample(self) -> dict[int, Fraction]:
        rand = self._rng.random
        # random.choices' draw: the float total times one random(), placed
        # among the exact cumulative weights, the last value as the bound
        return {
            eid: values[bisect_right(cum, rand() * (cum[-1] + 0.0), 0, len(values) - 1)]
            for eid, values, cum in self._draws
        }


def _pairs(values: Iterable[Fraction]) -> Iterable[tuple[int, int]]:
    return ((x.numerator, x.denominator) for x in values)


def _sweep(graph: UncertainGraph, weighted: Mapping[int, Iterable[tuple[tuple[int, int], int]]]) -> dict[int, Fraction]:
    """Per edge, the grid candidate of least hop loss against the (value,
    weight) pairs weighted[eid], each value as its (numerator, denominator)
    pair, the smallest one on ties; see the module docstring.  Only the
    winner is computed as a value."""
    ranking = graph.ranking
    values = ranking.values
    # by rank: the high ends of the open intervals whose low end it is, and
    # the low ends of those whose high end it is
    starts: list[list[int]] = [[] for _ in values]
    stops: list[list[int]] = [[] for _ in values]
    for lo, hi in zip(ranking.lo, ranking.hi):
        if lo != hi:
            starts[lo].append(hi)
            stops[hi].append(lo)
    best: dict[int, Fraction] = {}
    for e, cuts in zip(graph.edges, _open_cuts(ranking)):
        if cuts is None:
            best[e.eid] = e.interval.low
            continue
        lo, hi = cuts[0], cuts[-1]
        points = sorted((ranking.place(v, lo + 1, hi), w) for v, w in weighted[e.eid])
        at = [p for p, _ in points]
        acc = list(accumulate((w for _, w in points), initial=0))  # acc[i]: weight of the first i points
        total = acc[-1]
        score = top = 0
        win = (lo, cuts[1])  # a gap as its two cuts, a cut as (r, r)
        for k in range(1, len(cuts) - 1):
            r = cuts[k]
            below = acc[bisect_left(at, 2 * r)]
            for a in stops[r]:  # inside -> right: + right - inside
                score += total - 2 * below + acc[bisect_right(at, 2 * a)]
            if score > top:
                top, win = score, (r, r)
            upto = acc[bisect_right(at, 2 * r)]
            for b in starts[r]:  # left -> inside: + inside - left
                score += acc[bisect_left(at, 2 * b)] - 2 * upto
            if score > top:
                top, win = score, (r, cuts[k + 1])
        a, b = win
        best[e.eid] = values[a] if a == b else (values[a] + values[b]) / 2
    return best


def erm_train(graph: UncertainGraph, sampler: RealizationSampler, m: int) -> dict[int, Fraction]:
    """Empirical risk minimization over the candidate grid.

    Draws m full realizations, then independently picks per edge the
    candidate with minimum empirical hop loss (ascending-value tie-break).
    """
    if m < 1:
        raise ValueError("need at least one sample")
    samples = [sampler.sample() for _ in range(m)]
    return _sweep(graph, {e.eid: Counter(_pairs(s[e.eid] for s in samples)).items() for e in graph.edges})


def expected_edge_loss(graph: UncertainGraph, sampler: RealizationSampler, eid: int, candidate: Fraction) -> Fraction:
    """Exact expectation of the per-edge hop loss under the sampler's mixture."""
    values, weights = sampler.mixtures[eid]
    loss = sum(w * relation_mismatches(graph, eid, v, candidate) for v, w in zip(values, weights))
    return Fraction(loss, sum(weights))


def expected_hop_loss(graph: UncertainGraph, sampler: RealizationSampler, predictions: Mapping[int, Fraction]) -> Fraction:
    return sum((expected_edge_loss(graph, sampler, e.eid, predictions[e.eid]) for e in graph.edges), Fraction(0))


def grid_optimal(graph: UncertainGraph, sampler: RealizationSampler) -> dict[int, Fraction]:
    """Per-edge minimizer of the exact expected loss over the grid."""
    return _sweep(graph, {eid: zip(_pairs(values), weights) for eid, (values, weights) in sampler.mixtures.items()})


def predictions_to_json(predictions: Mapping[int, Fraction]) -> str:
    return json.dumps(
        {str(eid): format_rational(v) for eid, v in sorted(predictions.items())}, indent=2
    )
