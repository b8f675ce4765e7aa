"""Hand-built test instances shared by several test modules."""

from __future__ import annotations

import random
from fractions import Fraction

from mstquery import factory
from mstquery.graphcore import Interval, UncertainEdge, UncertainGraph


def kernel_case(seed: int):
    """A gen_random instance with some edges made trivial, and per-edge
    mixtures.  Point values, wrong predictions and mixture values are often
    placed exactly on another interval's endpoint, where `relation` answers
    LEFT or RIGHT, not INSIDE.  Returns (graph, mixtures)."""
    rng = random.Random(seed)
    base = factory.gen_random(4 + seed % 4, 2 + seed % 5, 0.9, 0.5, seed)
    limits = sorted({x for e in base.edges for x in (e.interval.low, e.interval.high)})
    trivial = {e.eid: rng.choice(limits + [e.true_value]) for e in base.edges if rng.random() < 0.3}
    open_limits = sorted(
        {x for e in base.edges if e.eid not in trivial for x in (e.interval.low, e.interval.high)}
    )
    edges, mixtures = [], {}
    for e in base.edges:
        if e.eid in trivial:
            w = trivial[e.eid]
            edges.append(UncertainEdge(e.eid, e.u, e.v, Interval.point(w), w, w))
            continue
        lo, hi = e.interval.low, e.interval.high
        on_limits = [x for x in open_limits if lo < x < hi]
        pool = on_limits + [lo + (hi - lo) * Fraction(rng.randint(1, 15), 16) for _ in range(2)]
        pred = rng.choice(on_limits) if on_limits and rng.random() < 0.4 else e.predicted_value
        edges.append(UncertainEdge(e.eid, e.u, e.v, e.interval, e.true_value, pred))
        values = sorted(set(rng.sample(pool, rng.randint(1, min(3, len(pool))))))
        mixtures[e.eid] = (values, [rng.randint(1, 4) for _ in values])
    return UncertainGraph(base.vertex_count, edges), mixtures
