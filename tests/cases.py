"""Test instances, seeded corpora, full-scan references and the value-level
definitions shared by several test modules."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from mstquery import factory
from mstquery.graphcore import Interval, PreconditionViolated, QueryRun, UncertainEdge, UncertainGraph
from mstquery.limittrees import _kruskal, _path_index, _tree_adjacency, _tree_path


# -- definitions on the values: the references the rank forms are held to ----

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


def signature(graph: UncertainGraph, eid: int, value: Fraction) -> list[int]:
    """`relation` of value to the open interval of every edge but eid, in
    ``graph.edges`` order: two values disagree on eid's relations exactly
    where their signatures differ."""
    return [relation(value, e.interval) for e in graph.edges if e.eid != eid and not e.interval.is_trivial]


class LimitValue(NamedTuple):
    """Exact weight plus infinitesimal offset; tuple order is the total order."""

    base: Fraction
    eps: int


# Lexicographic (base, eps) keys realizing the L+eps / U-eps perturbations.
def lower_key(interval: Interval) -> LimitValue:
    return LimitValue(interval.low, 0 if interval.is_trivial else 1)


def upper_key(interval: Interval) -> LimitValue:
    return LimitValue(interval.high, 0 if interval.is_trivial else -1)


def vc_structure(run, trees):
    """`strategies._vc_structure` on the intervals: the open tree edges, the
    open non-tree edges, and by open tree edge l the open non-tree edges f,
    ascending, whose cycle holds l and whose interval intersects l's."""
    interval = {e: run.interval(e) for e in run.present_ids()}
    left = sorted(l for l in trees.tree if not interval[l].is_trivial)
    right = sorted(f for f in trees.paths if not interval[f].is_trivial)
    adjacency = {
        l: [f for f in right if l in trees.paths[f] and interval[l].intersects(interval[f])] for l in left
    }
    return left, right, adjacency


def cycle_pred_free(run, trees, f):
    """`strategies.cycle_pred_mandatory_free` on the values, a known value
    standing for its own prediction: f's predicted value is at or above the
    upper end of every edge on its cycle, and the predicted value of each of
    them is at or below f's lower end."""

    def predicted(e):
        iv = run.interval(e)
        return iv.low if iv.is_trivial else run.predicted(e)

    f_low = run.interval(f).low
    return all(predicted(f) >= run.interval(e).high and predicted(e) <= f_low for e in trees.paths[f])


CORPUS_SIZE = 500
ERROR_RATES = (0.0, 0.2, 0.5, 1.0)


def corpus_params(count: int = CORPUS_SIZE):
    """Deterministic parameter mix: 4-6 vertices, 2-5 extra edges, mixed
    overlap density.  At most 10 non-trivial edges per instance."""
    out = []
    for i in range(count):
        vertices = 4 + i % 3
        extra = 2 + (i // 3) % 4
        overlap = (0.5, 0.8, 1.0)[(i // 12) % 3]
        out.append((vertices, extra, overlap, 10_000 + i))
    return out


def build_corpus(error_rate: float, count: int = CORPUS_SIZE):
    return [
        factory.gen_random(v, extra, overlap, error_rate, seed)
        for v, extra, overlap, seed in corpus_params(count)
    ]


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


def live_graphs():
    """Small graphs of every kind, for strategy runs checked at every step."""
    graphs = [g for rate in ERROR_RATES for g in build_corpus(rate, 60)]
    graphs += [kernel_case(seed)[0] for seed in range(120)]
    graphs += [factory.gen_path_parallel(n) for n in (4, 8)]
    graphs += [factory.gen_vc_flip(n, variant) for n in (4, 8) for variant in ("ex1", "ex2")]
    graphs += [factory.gen_triangle_chain(n) for n in (2, 4)]
    return graphs


def large_graphs():
    """Graphs past the brute-force optimum's cap."""
    graphs = [factory.gen_path_parallel(16), factory.gen_vc_flip(16, "ex2"), factory.gen_triangle_chain(16)]
    return graphs + [factory.gen_random(40, 40, 0.9, 0.3, seed=5), factory.gen_random(60, 60, 0.95, 0.5, seed=6)]


# -- full scans: the reference for the counts a session holds ----------------


def scan_uniqueness_gap(run, index):
    """`limittrees._uniqueness_gap` by a scan of every path, then every
    cover, in id order: the first "differ" pair of any path, else the first
    upper tie, else the first lower tie; a cover edge below its tree edge's
    lower key raises PreconditionViolated."""
    lo, hi = run.lo, run.hi
    upper, lower = run.upper, run.lower
    tie = None
    for f in sorted(index.paths):
        kf = upper[f]
        for e in index.paths[f]:
            ke = upper[e]
            if ke < kf:
                continue
            if ke > kf or e > f:
                return ("differ", f, e)
            if tie is None and not (lo[e] == hi[e] and lo[f] == hi[f]):
                tie = ("upper", f, e)
    if tie is not None:
        return tie
    for l in sorted(index.covers):
        kl = lower[l]
        for x in sorted(index.covers[l]):
            kx = lower[x]
            if kx < kl:
                raise PreconditionViolated("lower limit tree violates the cut rule")
            if kx == kl and not (lo[x] == hi[x] and lo[l] == hi[l]):
                return ("lower", l, x)
    return None


def pair_counts(lo, hi, upper, lower, pairs):
    """The counts of `limittrees._Tally` by name, counted pair by pair over
    `pairs`, each a non-tree edge f and a tree edge e on its path, at the
    rank tables given by edge id: the per-pair reference for the counting
    kernel `limittrees._tally`."""
    counts = {name: [0] * len(lo) for name in ("bad", "differ", "tie_up", "tie_low")}
    bad_pairs = 0
    for f, e in pairs:
        points = lo[e] == hi[e] and lo[f] == hi[f]
        if hi[e] > lo[f]:
            bad_pairs += 1
            counts["bad"][f] += 1
            counts["bad"][e] += 1
        if (upper[e], e) > (upper[f], f):
            counts["differ"][f] += 1
        elif upper[e] == upper[f] and not points:
            counts["tie_up"][f] += 1
        if lower[f] < lower[e] or lower[f] == lower[e] and not points:
            counts["tie_low"][e] += 1
    ids = {
        f"{kind}_ids": {x for x, c in enumerate(counts[name]) if c}
        for kind, name in (("differ", "differ"), ("upper", "tie_up"), ("lower", "tie_low"))
    }
    return {**counts, "bad_pairs": bad_pairs, **ids}


def scan_verified(run, tree, index):
    """The edges `limittrees.reduce_verified` removes, by a scan of every
    path and cover: the non-tree edges that dominate their path and the
    tree edges no larger than their whole cut, each in id order."""
    lo, hi = run.lo, run.hi
    paths, covers = index.paths, index.covers
    dominated = [f for f in sorted(paths) if all(hi[e] <= lo[f] for e in paths[f])]
    contractible = [l for l in sorted(tree) if all(lo[x] >= hi[l] for x in covers[l])]
    return dominated, contractible


def recursive_max_matching(left, adjacency, seed_pairs=None):
    """`strategies._max_matching` in its recursive form, one call per edge
    of an augmenting path: the reference its explicit stack is held to."""
    pair = {}
    for l, r in seed_pairs or ():
        pair[l] = r
        pair[r] = l

    def augment(u, visited):
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


def walk_is_solved(run):
    """`limittrees.is_solved` of a session holding no tree, by a walk of
    every cycle: Kruskal, then a depth-first search for each non-tree
    edge's tree path, stopping at the first path edge above its low end."""
    tree = _kruskal(run, run.lower)
    adj = _tree_adjacency(run, tree)
    lo, hi, ends = run.lo, run.hi, run.ends
    for f in run.present_ids():
        if f in tree:
            continue
        a, b = ends[f]
        if any(hi[e] > lo[f] for e in _tree_path(adj, a, b)):
            return None
    return tree


def path_index_mandatory(graph, value_source="truth"):
    """`oracle.mandatory_edges` from the path index of one MST over the
    source's weights: theta is the largest weight on a non-tree edge's
    path, and the least weight among a tree edge's covers (none for a
    bridge); an open edge is mandatory when lo < theta < hi."""
    run = graph if isinstance(graph, QueryRun) else QueryRun(graph)
    lo, hi = run.lo, run.hi
    table = run.ranking.table(value_source)
    w = {e: lo[e] if lo[e] == hi[e] else table[e] for e in run.present_ids()}
    paths, covers, _ = _path_index(run, _kruskal(run, w))
    mandatory = set()
    for e in w:
        if lo[e] == hi[e]:
            continue
        if e in paths:
            theta = max(w[x] for x in paths[e])
        elif covers[e]:
            theta = min(w[x] for x in covers[e])
        else:
            continue
        if lo[e] < theta < hi[e]:
            mandatory.add(e)
    return mandatory


def fraction_minimum_in_samples(run, tree, samples, seed):
    """`oracle._minimum_in_samples` in Fractions: each sampled weight is
    the rational grid point itself, and the tree sums are Fraction sums."""
    rng = random.Random(seed)
    intervals = [(eid, run.interval(eid)) for eid in run.present_ids()]
    for _ in range(samples):
        weights = {}
        for eid, iv in intervals:
            if iv.is_trivial:
                weights[eid] = iv.low
            else:
                # uniform grid point strictly inside the interval
                step = (iv.high - iv.low) / 128
                weights[eid] = iv.low + step * rng.randint(1, 127)
        best = _kruskal(run, weights)
        claimed = sum((weights[e] for e in tree), Fraction(0))
        if len(tree) != len(best) or claimed != sum((weights[e] for e in best), Fraction(0)):
            return False
    return True


def tied_case(seed: int) -> UncertainGraph:
    """A random connected multigraph whose interval ends lie on the grid
    0..4 and whose values lie on the half grid, so that limit keys tie
    often: open intervals share ends, and values fall on other intervals'
    ends."""
    rng = random.Random(seed)
    vertices = 3 + seed % 4
    ends = [(rng.randrange(v), v) for v in range(1, vertices)]
    ends += [tuple(rng.sample(range(vertices), 2)) for _ in range(1 + seed % 4)]
    edges = []
    for eid, (u, v) in enumerate(ends):
        if rng.random() < 0.2:
            w = Fraction(rng.randint(0, 8), 2)
            edges.append(UncertainEdge(eid, u, v, Interval.point(w), w, w))
            continue
        lo, hi = sorted(rng.sample(range(5), 2))
        inside = [Fraction(k, 2) for k in range(2 * lo + 1, 2 * hi)]
        edges.append(UncertainEdge(eid, u, v, Interval.open(lo, hi), rng.choice(inside), rng.choice(inside)))
    return UncertainGraph(vertices, edges)
