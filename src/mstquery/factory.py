"""Instance generators: structured lower-bound families, two small showcase
cycles, and seeded random instances with controllable interval overlap and
prediction error."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .graphcore import Interval, UncertainEdge, UncertainGraph


class InvalidParams(ValueError):
    pass


def _edge(eid, u, v, low, high, pred, true) -> UncertainEdge:
    return UncertainEdge(
        eid=eid,
        u=u,
        v=v,
        interval=Interval.open(Fraction(low), Fraction(high)),
        true_value=Fraction(true),
        predicted_value=Fraction(pred),
    )


def _trivial_edge(eid, u, v, w) -> UncertainEdge:
    w = Fraction(w)
    return UncertainEdge(eid, u, v, Interval.point(w), w, w)


def demo_hop_cycle() -> UncertainGraph:
    """Four-edge cycle with interleaved intervals; per-edge wrong-relation
    counts are (2, 3, 0, 0) one way and (1, 1, 2, 1) the other, totalling 5."""
    edges = [
        _edge(0, 0, 1, 0, 4, 1, Fraction(11, 4)),
        _edge(1, 1, 2, Fraction(3, 2), 6, Fraction(9, 2), 2),
        _edge(2, 2, 3, Fraction(5, 2), 6, Fraction(9, 2), Fraction(11, 2)),
        _edge(3, 3, 0, 3, 6, Fraction(13, 4), Fraction(15, 4)),
    ]
    return UncertainGraph(4, edges)


def demo_mandatory_cycle() -> UncertainGraph:
    """Four-edge cycle where the mandatory set is {0, 1} but only edge 0 is
    mandatory under the predicted values (which place edge 0 above every
    other upper limit)."""
    edges = [
        _edge(0, 0, 1, 2, 6, Fraction(23, 4), Fraction(9, 2)),
        _edge(1, 1, 2, 0, 5, Fraction(5, 2), Fraction(19, 4)),
        _edge(2, 2, 3, 0, 4, Fraction(5, 2), Fraction(1, 2)),
        _edge(3, 3, 0, 0, 3, Fraction(5, 2), Fraction(1, 2)),
    ]
    return UncertainGraph(4, edges)


def gen_tradeoff_cycle(beta: int, adversarial: bool) -> UncertainGraph:
    """Single cycle exhibiting the consistency/robustness tradeoff floor.

    beta nested-left intervals (1,3) predicted at 3/2 plus one right interval
    (2,4) predicted at 5/2.  With correct predictions the optimum queries the
    beta left edges; the adversarial truths leave a single-query optimum (the
    right edge) while baiting prediction-trusting strategies.
    """
    if beta < 2:
        raise InvalidParams("beta must be at least 2")
    edges = []
    # cycle vertices 0..beta; edge i joins i-1 and i, the right edge closes it
    for i in range(1, beta + 1):
        if adversarial and i == beta:
            true = Fraction(5, 2)
        else:
            true = Fraction(3, 2)
        edges.append(_edge(i - 1, i - 1, i, 1, 3, Fraction(3, 2), true))
    right_true = Fraction(7, 2) if adversarial else Fraction(5, 2)
    edges.append(_edge(beta, beta, 0, 2, 4, Fraction(5, 2), right_true))
    return UncertainGraph(beta + 1, edges)


def gen_path_parallel(n: int) -> UncertainGraph:
    """Path of n edges with intervals (0,2) plus n parallel edges (1,3)
    between its endpoints.  All predictions sit at 1/2 and 5/2; the single
    wrong truth (3/2 on the last path edge) lands inside every parallel
    interval, so one wrong prediction costs n wrong relations."""
    if n < 1:
        raise InvalidParams("n must be at least 1")
    edges = []
    for i in range(n):
        true = Fraction(3, 2) if i == n - 1 else Fraction(1, 2)
        edges.append(_edge(i, i, i + 1, 0, 2, Fraction(1, 2), true))
    for j in range(n):
        edges.append(_edge(n + j, 0, n, 1, 3, Fraction(5, 2), Fraction(5, 2)))
    return UncertainGraph(n + 1, edges)


def gen_triangle_chain(n: int) -> UncertainGraph:
    """n far-apart triangles joined by cheap trivial bridges.

    Each triangle has one edge whose truth lands inside its neighbour's
    interval while predicted below it, so every copy adds one wrong relation
    and one unavoidable extra query for prediction-oblivious strategies.
    """
    if n < 1:
        raise InvalidParams("n must be at least 1")
    edges = []
    eid = 0
    for t in range(n):
        base = 3 * t  # vertices of triangle t
        off = Fraction(20 * t)
        edges.append(_edge(eid, base, base + 1, off + 0, off + 2, off + Fraction(1, 2), off + Fraction(3, 2)))
        eid += 1
        edges.append(_edge(eid, base + 1, base + 2, off + 1, off + 3, off + Fraction(5, 2), off + Fraction(5, 2)))
        eid += 1
        edges.append(_edge(eid, base, base + 2, off - 3, off - 2, off - Fraction(5, 2), off - Fraction(5, 2)))
        eid += 1
        if t > 0:
            edges.append(_trivial_edge(eid, base - 3, base, -100))
            eid += 1
    return UncertainGraph(3 * n, edges)


def gen_vc_flip(n: int, variant: str = "ex2") -> UncertainGraph:
    """Prediction-mandatory-free path-plus-back-edges family where querying
    the two-element minimum vertex cover grows the next cover to n/2 - 1.

    variant "ex1": all back edges span the path endpoints (the cover instance
    is complete bipartite, both sides are minimum covers of size n/2).
    variant "ex2": only the first back edge spans the endpoints; the rest
    parallel the first path edge (minimum cover {f1, l1} of size 2).
    Interval ladders use step 1/(n/2) so the documented cover sizes hold for
    every even n >= 4.
    """
    if n < 4 or n % 2:
        raise InvalidParams("n must be an even integer >= 4")
    if variant not in ("ex1", "ex2"):
        raise InvalidParams("variant must be ex1 or ex2")
    k = n // 2
    s = Fraction(1, k)
    edges = []
    # path edges l_1..l_k on vertices 0..k (ids 0..k-1)
    for j in range(1, k + 1):
        low = Fraction(-6) - (j - 1) * s
        high = Fraction(-5, 2) - (j - 1) * s
        if j == 1:
            pred, true = low + Fraction(1, 4), high - s / 2
        else:
            pred = true = low + s / 2
        edges.append(_edge(j - 1, j - 1, j, low, high, pred, true))
    # back edges f_1..f_k (ids k..2k-1)
    for j in range(1, k + 1):
        low = Fraction(-5) + (j - 1) * s
        high = Fraction(-3, 2) + (j - 1) * s
        if j == 1:
            pred, true = high - Fraction(1, 4), low + s / 2
        else:
            pred = true = high - s / 2
        if variant == "ex1" or j == 1:
            u, v = 0, k
        else:
            u, v = 0, 1
        edges.append(_edge(k + j - 1, u, v, low, high, pred, true))
    return UncertainGraph(k + 1, edges)


def gen_random(
    vertices: int,
    extra_edges: int,
    overlap_density: float | Fraction,
    error_rate: float | Fraction,
    seed: int,
) -> UncertainGraph:
    """Random connected multigraph with open unit-ish intervals.

    overlap_density 0 spreads the intervals over disjoint slots (the instance
    is born solved); 1 stacks them all on one window.  Predictions equal the
    truths, then an error_rate fraction of edges gets its prediction
    resampled inside the interval.
    """
    for name, x in (("overlap_density", overlap_density), ("error_rate", error_rate)):
        if isinstance(x, float) and not math.isfinite(x):
            raise InvalidParams(f"{name} must be finite, got {x}")
    density = Fraction(overlap_density).limit_denominator(1000) if not isinstance(overlap_density, Fraction) else overlap_density
    err = Fraction(error_rate).limit_denominator(1000) if not isinstance(error_rate, Fraction) else error_rate
    if vertices < 2:
        raise InvalidParams("need at least two vertices")
    if extra_edges < 0 or not 0 <= density <= 1 or not 0 <= err <= 1:
        raise InvalidParams("extra_edges must be >= 0 and densities within [0, 1]")
    rng = random.Random(seed)
    # prediction corruption draws come from an independent stream so the same
    # seed yields the same structure and truths at every error rate
    err_rng = random.Random(seed + 710_000_003)
    m = vertices - 1 + extra_edges
    ends = []
    for v in range(1, vertices):
        ends.append((rng.randrange(v), v))
    for _ in range(extra_edges):
        while True:
            u, v = rng.randrange(vertices), rng.randrange(vertices)
            if u != v:
                ends.append((min(u, v), max(u, v)))
                break
    if density == 0:
        slots = list(range(m))
        rng.shuffle(slots)
        bases = [Fraction(3 * s) for s in slots]
    else:
        span_quarters = int((1 - density) * 12 * m)
        bases = [Fraction(rng.randint(0, span_quarters), 4) for _ in range(m)]
    edges = []
    for eid, ((u, v), base) in enumerate(zip(ends, bases)):
        true = base + Fraction(rng.randint(1, 15), 8)
        pred = true
        if err_rng.random() < err:
            while pred == true:
                pred = base + Fraction(err_rng.randint(1, 15), 8)
        edges.append(_edge(eid, u, v, base, base + 2, pred, true))
    return UncertainGraph(vertices, edges)


def gen_random_pred_free(
    vertices: int,
    extra_edges: int,
    seed: int,
    corrupt: bool = False,
) -> UncertainGraph:
    """Random instance rewritten to be prediction mandatory free.

    Builds a random overlapping instance with unique coinciding limit trees,
    then places each prediction in the admissible band (non-tree predictions
    above every cycle upper limit, tree predictions below every cut lower
    limit).  Every band is non-empty: `gen_random` makes only open edges,
    and on unique trees a non-tree edge's high end is above every high end
    on its path, and a tree edge's low end below every low end in its cut.
    With corrupt=True the truths are resampled freely afterwards.
    """
    from .graphcore import QueryRun
    from .limittrees import compute_limit_trees, limit_trees_unique

    rng = random.Random(seed)
    for attempt in range(200):
        base = gen_random(vertices, extra_edges, Fraction(9, 10), 0, seed * 211 + attempt)
        run = QueryRun(base)
        if not limit_trees_unique(run):
            continue
        trees = compute_limit_trees(run)
        preds: dict[int, Fraction] = {}
        for f in trees.nontree_order:
            f_iv = run.interval(f)
            floor_limit = max(
                [run.interval(e).high for e in trees.paths[f]] + [f_iv.low]
            )
            preds[f] = (floor_limit + f_iv.high) / 2
        for l in trees.tree:
            l_iv = run.interval(l)
            cap_limit = min(
                [run.interval(x).low for x in trees.covers[l]] + [l_iv.high]
            )
            preds[l] = (l_iv.low + cap_limit) / 2
        edges = []
        for e in base.edges:
            if corrupt:
                true = e.interval.low + Fraction(rng.randint(1, 15), 8)
            else:
                true = preds[e.eid]
            edges.append(
                UncertainEdge(e.eid, e.u, e.v, e.interval, true, preds[e.eid])
            )
        return UncertainGraph(base.vertex_count, edges)
    raise InvalidParams("could not build a prediction-mandatory-free instance")


def with_correct_predictions(graph: UncertainGraph) -> UncertainGraph:
    """Copy of the instance with every truth replaced by its prediction."""
    edges = [
        UncertainEdge(e.eid, e.u, e.v, e.interval, e.predicted_value, e.predicted_value)
        for e in graph.edges
    ]
    return UncertainGraph(graph.vertex_count, edges)

