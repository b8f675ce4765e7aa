"""The learner's breakpoint sweep against a scan of every grid candidate."""

import random
from collections import Counter
from fractions import Fraction
from operator import ne

import pytest

from cases import kernel_case, signature
from mstquery.graphcore import Interval, UncertainEdge, UncertainGraph, ValidationError
from mstquery.learner import RealizationSampler, discretize, erm_train, grid_optimal


# -- the reference: one relation signature per candidate ----------------------


def _weighted_loss(weighted, sig):
    return sum(w * sum(map(ne, s, sig)) for s, w in weighted)


def _reference_erm(graph, sampler, m):
    """ERM as a scan of the grid: every candidate's signature against every
    distinct draw's, the first of the least loss kept."""
    grid = discretize(graph)
    samples = [sampler.sample() for _ in range(m)]
    learned = {}
    for e in graph.edges:
        draws = [(signature(graph, e.eid, v), n) for v, n in Counter(s[e.eid] for s in samples).items()]
        best = best_loss = None
        for candidate in grid.candidates(e.eid):
            loss = _weighted_loss(draws, signature(graph, e.eid, candidate))
            if best_loss is None or loss < best_loss:
                best, best_loss = candidate, loss
        learned[e.eid] = best
    return learned


def _reference_grid_optimal(graph, sampler):
    """The grid candidate of least exact expected loss, the smallest on ties."""
    grid = discretize(graph)
    best = {}
    for e in graph.edges:
        values, weights = sampler.mixtures[e.eid]
        mixture = [(signature(graph, e.eid, v), w) for v, w in zip(values, weights)]
        total = sum(weights)
        candidates = grid.candidates(e.eid)
        losses = [Fraction(_weighted_loss(mixture, signature(graph, e.eid, c)), total) for c in candidates]
        best[e.eid] = min(zip(losses, candidates))[1]
    return best


@pytest.mark.parametrize("block", range(8))
def test_sweep_matches_the_grid_scan_on_kernel_cases(block):
    """400 seeds in 8 blocks: ERM at 1, 3 and 6 draws and the grid optimum."""
    for seed in range(50 * block, 50 * block + 50):
        g, mixtures = kernel_case(seed)
        for draws in (1, 3, 6):
            sampler = RealizationSampler(g, mixtures, seed=seed + draws)
            reference = RealizationSampler(g, mixtures, seed=seed + draws)
            assert erm_train(g, sampler, draws) == _reference_erm(g, reference, draws), (seed, draws)
            assert sampler.sample() == reference.sample()  # same RNG consumption
        sampler = RealizationSampler(g, mixtures)
        assert grid_optimal(g, sampler) == _reference_grid_optimal(g, sampler), seed


# -- hand-made cases -----------------------------------------------------------


def _graph(*intervals):
    """A path of edges 0..n-1 with the given (low, high) intervals; a single
    number is a trivial edge.  Truths and predictions sit at the midpoints."""
    edges = []
    for eid, spec in enumerate(intervals):
        if isinstance(spec, tuple):
            iv = Interval.open(Fraction(spec[0]), Fraction(spec[1]))
            mid = (iv.low + iv.high) / 2
        else:
            iv = Interval.point(Fraction(spec))
            mid = iv.low
        edges.append(UncertainEdge(eid, eid, eid + 1, iv, mid, mid))
    return UncertainGraph(len(intervals) + 1, edges)


def _learn(graph, mixture0):
    """ERM with every draw of edge 0 from `mixture0`, and the grid optimum of
    the same mixture; both are checked against the reference."""
    mixtures = {0: ([Fraction(v) for v in mixture0[0]], list(mixture0[1]))}
    sampler = RealizationSampler(graph, mixtures, seed=5)
    learned = erm_train(graph, sampler, 6)
    assert learned == _reference_erm(graph, RealizationSampler(graph, mixtures, seed=5), 6)
    optimum = grid_optimal(graph, sampler)
    assert optimum == _reference_grid_optimal(graph, sampler)
    return learned[0], optimum[0]


def test_ties_go_to_the_smallest_candidate():
    # edge 0 = (0, 10) holds (2, 4) and (6, 8); all draws at 5 lie right of
    # the first and left of the second, and so do the candidates 4, 5 and 6
    g = _graph((0, 10), (2, 4), (6, 8))
    assert discretize(g).candidates(0) == (1, 2, 3, 4, 5, 6, 7, 8, 9)
    assert _learn(g, ([5], [1])) == (4, 4)
    # draws at 2 and at 8 in equal weight: 2, 4, 6 and 8 all lose half
    g = _graph((0, 10), (4, 6))
    assert _learn(g, ([2, 8], [1, 1]))[1] == 2


def test_draws_on_breakpoints_take_the_ends_relation():
    # a draw at 6 is right of (4, 6): candidate 6 agrees, the gap before it not
    g = _graph((0, 10), (4, 6))
    assert _learn(g, ([6], [1])) == (6, 6)
    # a draw at 4 is left of (4, 6): the first gap and 4 agree, the first wins
    assert _learn(g, ([4], [1])) == (2, 2)
    # a draw at 4 and at 6 each: every candidate but the gap inside is wrong
    # once, that gap twice; the first gap wins
    assert _learn(g, ([4, 6], [1, 1]))[1] == 2


def test_edge_without_inner_breakpoint_learns_its_midpoint():
    # (4, 6) lies inside (0, 10); the trivial value 5 is no breakpoint
    g = _graph((4, 6), (0, 10), 5)
    assert discretize(g).candidates(0) == (5,)
    assert _learn(g, (["9/2", "11/2"], [3, 1])) == (5, 5)


def test_trivial_edges_keep_their_value():
    g = _graph((0, 10), 4, (3, 7))
    sampler = RealizationSampler(g, {})
    assert erm_train(g, sampler, 3)[1] == 4
    assert grid_optimal(g, sampler)[1] == 4


def test_parallel_edges_with_equal_intervals():
    edges = [
        UncertainEdge(0, 0, 1, Interval.open(0, 10), Fraction(5), Fraction(5)),
        UncertainEdge(1, 0, 1, Interval.open(0, 10), Fraction(3), Fraction(3)),
        UncertainEdge(2, 1, 2, Interval.open(4, 6), Fraction(5), Fraction(5)),
        UncertainEdge(3, 1, 2, Interval.open(4, 6), Fraction(9, 2), Fraction(9, 2)),
    ]
    g = UncertainGraph(3, edges)
    # each twin's ends are its own ends: no breakpoint, whatever the draws
    assert discretize(g).candidates(2) == discretize(g).candidates(3) == (5,)
    mixtures = {0: ([Fraction(7)], [1]), 1: ([Fraction(1), Fraction(5)], [1, 2]), 3: ([Fraction(11, 2)], [1])}
    for seed in range(20):
        sampler = RealizationSampler(g, mixtures, seed=seed)
        learned = erm_train(g, sampler, 3)
        assert learned == _reference_erm(g, RealizationSampler(g, mixtures, seed=seed), 3)
        assert learned[0] == 6 and learned[2] == learned[3] == 5
    assert grid_optimal(g, sampler) == _reference_grid_optimal(g, sampler)


# -- mixture weights past the float range -------------------------------------


def test_oversized_mixture_weight_is_a_validation_error():
    g = _graph((0, 10), (4, 6))
    with pytest.raises(ValidationError, match="edge 0: mixture weights sum past the largest float"):
        RealizationSampler(g, {0: ([Fraction(1), Fraction(2)], [10**400, 1])})


def test_large_mixture_weights_draw_as_before():
    # a total just below the float range is kept, and drawn by random.choices
    values, weights = [Fraction(1), Fraction(2), Fraction(9)], [2**1022, 2**1021, 3]
    sampler = RealizationSampler(_graph((0, 10), (4, 6)), {0: (values, weights)}, seed=11)
    rng = random.Random(11)
    for _ in range(50):
        draw = sampler.sample()
        assert draw[0] == rng.choices(values, weights=weights, k=1)[0]
        rng.choices([Fraction(5)], weights=[1], k=1)  # edge 1's point mass
