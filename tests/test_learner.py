import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cases import kernel_case, relation
from mstquery import factory
from mstquery.graphcore import Interval, ParseError, UncertainEdge, UncertainGraph, ValidationError
from mstquery.learner import (
    RealizationSampler,
    discretize,
    erm_train,
    expected_edge_loss,
    expected_hop_loss,
    grid_optimal,
    predictions_to_json,
)
from mstquery.errormetrics import hop_distance, relation_mismatches


def triangle():
    return factory.gen_triangle_chain(1)


def test_grid_on_isolated_interval_is_single_midpoint():
    edges = [
        UncertainEdge(0, 0, 1, Interval.open(0, 2), Fraction(1), Fraction(1)),
        UncertainEdge(1, 1, 2, Interval.open(10, 12), Fraction(11), Fraction(11)),
        UncertainEdge(2, 0, 2, Interval.open(20, 22), Fraction(21), Fraction(21)),
    ]
    g = UncertainGraph(3, edges)
    grid = discretize(g)
    assert grid.candidates(0) == (Fraction(1),)


def test_grid_counts_breakpoints_and_gaps():
    g = factory.demo_hop_cycle()
    # interval (3/2, 6) contains the limits 5/2, 3 and 4 of the other edges:
    # three breakpoints plus four gap representatives
    assert len(discretize(g).candidates(1)) == 7


def test_grid_of_trivial_edge_is_its_value():
    g = factory.gen_triangle_chain(2)
    trivial = [e.eid for e in g.edges if e.interval.is_trivial][0]
    assert discretize(g).candidates(trivial) == (g.edge(trivial).true_value,)


def test_grid_candidates_lie_inside_interval():
    g = factory.gen_random(5, 4, 1.0, 0.0, seed=21)
    grid = discretize(g)
    for e in g.edges:
        for c in grid.candidates(e.eid):
            assert e.interval.low < c < e.interval.high


def test_grid_best_matches_dense_sweep():
    g = triangle()
    mix = {0: ([Fraction(1, 4), Fraction(7, 4)], [2, 5])}
    sampler = RealizationSampler(g, mix, seed=1)
    grid = discretize(g)
    grid_best = min(expected_edge_loss(g, sampler, 0, c) for c in grid.candidates(0))
    e0 = g.edge(0)
    dense = [
        e0.interval.low + Fraction(k, 64) * (e0.interval.high - e0.interval.low)
        for k in range(1, 64)
    ]
    dense_best = min(expected_edge_loss(g, sampler, 0, c) for c in dense)
    assert grid_best == dense_best


def test_sampler_rejects_values_outside_interval():
    g = triangle()
    with pytest.raises(ValidationError):
        RealizationSampler(g, {0: ([Fraction(5)], [1])})


def test_sampler_stays_inside_intervals():
    g = triangle()
    sampler = RealizationSampler(
        g, {0: ([Fraction(1, 2), Fraction(3, 2)], [1, 1])}, seed=3
    )
    for _ in range(50):
        w = sampler.sample()
        for e in g.edges:
            assert e.interval.contains(w[e.eid])


def test_sampler_from_json_roundtrip():
    g = triangle()
    text = json.dumps(
        {"edges": {"0": {"values": ["1/2", "3/2"], "weights": [1, 3]}}}
    )
    sampler = RealizationSampler.from_json(g, text, seed=5)
    assert sampler.mixtures[0] == ([Fraction(1, 2), Fraction(3, 2)], [1, 3])


def test_point_mass_training_reproduces_relations():
    g = triangle()
    sampler = RealizationSampler(g, {}, seed=7)  # point masses at the truths
    learned = erm_train(g, sampler, 5)
    relabeled = UncertainGraph(
        g.vertex_count,
        [
            UncertainEdge(e.eid, e.u, e.v, e.interval, e.true_value, learned[e.eid])
            for e in g.edges
        ],
    )
    assert hop_distance(relabeled).k_h == 0


def test_single_sample_training_has_zero_empirical_loss():
    g = triangle()
    mix = {0: ([Fraction(1, 2), Fraction(3, 2)], [1, 1])}
    sampler = RealizationSampler(g, mix, seed=11)
    sample_peek = RealizationSampler(g, mix, seed=11).sample()
    learned = erm_train(g, sampler, 1)
    for e in g.edges:
        assert relation_mismatches(g, e.eid, sample_peek[e.eid], learned[e.eid]) == 0


def test_learned_values_lie_inside_intervals():
    g = factory.gen_random(5, 3, 0.9, 0.0, seed=31)
    sampler = RealizationSampler(g, {}, seed=13)
    learned = erm_train(g, sampler, 20)
    for e in g.edges:
        assert e.interval.contains(learned[e.eid])


def test_total_loss_decomposes_per_edge():
    g = triangle()
    mix = {
        0: ([Fraction(1, 2), Fraction(3, 2)], [1, 3]),
        1: ([Fraction(3, 2), Fraction(5, 2)], [1, 2]),
    }
    sampler = RealizationSampler(g, mix, seed=17)
    learned = erm_train(g, sampler, 50)
    total = expected_hop_loss(g, sampler, learned)
    parts = sum(
        (expected_edge_loss(g, sampler, e.eid, learned[e.eid]) for e in g.edges),
        Fraction(0),
    )
    assert total == parts


def test_more_samples_do_not_hurt():
    g = triangle()
    mix = {
        0: ([Fraction(1, 2), Fraction(3, 2)], [1, 3]),
        1: ([Fraction(3, 2), Fraction(5, 2)], [2, 1]),
    }
    reference = RealizationSampler(g, mix, seed=0)
    wins = 0
    for t in range(50):
        small = erm_train(g, RealizationSampler(g, mix, seed=100 + t), 10)
        large = erm_train(g, RealizationSampler(g, mix, seed=200 + t), 400)
        if expected_hop_loss(g, reference, large) <= expected_hop_loss(
            g, reference, small
        ) + Fraction(1, 2):
            wins += 1
    assert wins >= 45


def test_predictions_serialize():
    g = triangle()
    sampler = RealizationSampler(g, {}, seed=19)
    learned = erm_train(g, sampler, 5)
    body = json.loads(predictions_to_json(learned))
    assert set(body) == {"0", "1", "2"}


@pytest.mark.parametrize(
    "spec",
    [
        {"0": {"weights": [1]}},                       # no values
        {"0": {"values": ["1/2"], "weights": ["a"]}},  # weight is not an integer
        {"0": {"values": ["1/2"], "weights": [1.5]}},  # weight is a float
        {"x": {"values": ["1/2"]}},                    # edge key is not an integer
        {"0": {"values": ["1/2", "y"]}},               # value is not a rational
        {"0": ["1/2"]},                                # spec is not an object
        {"0": {"values": ["1/2"]}, "00": {"values": ["1/3"]}},  # two keys name edge 0
        {"0": {"values": ["1/2"], "weights": ["3"]}},  # weight is a string
        {"0": {"values": ["1/2"], "weights": [" 3 "]}},
        {"1_0": {"values": ["1/2"]}},                  # edge key is not the decimal form of an id
        {" 1": {"values": ["1/2"]}},
        {"01": {"values": ["1/2"]}},
        {"0": {"values": ["1/2", "1/3"], "weight": [3, 1]}},  # a misspelled key is not ignored
        {"0": {"values": ["1/2"], "weights": [1], "mean": "1/2"}},
    ],
)
def test_sampler_from_json_rejects_malformed_mixture(spec):
    with pytest.raises(ParseError):
        RealizationSampler.from_json(triangle(), json.dumps({"edges": spec}))


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"edges": {"0": {"values": ["1/2"], "weight": [3]}}}, "'weight'"),
        ({"edges": {}, "edge": {"0": {"values": ["1/2"]}}}, "'edge'"),
        ({"edges": {}, "seed": 3}, "'seed'"),
    ],
)
def test_sampler_from_json_names_an_unread_key(doc, key):
    with pytest.raises(ParseError, match=key):
        RealizationSampler.from_json(triangle(), json.dumps(doc))


def test_a_boolean_mixture_value_is_not_a_rational():
    with pytest.raises(ParseError, match="not a rational: True"):
        RealizationSampler.from_json(triangle(), json.dumps({"edges": {"0": {"values": [True]}}}))
    with pytest.raises(ValidationError, match="mixture value True is not rational"):
        RealizationSampler(triangle(), {0: ([True], [1])})


def test_sampler_rejects_mixture_for_unknown_edge():
    with pytest.raises(ValidationError):
        RealizationSampler.from_json(triangle(), json.dumps({"edges": {"99": {"values": ["1/2"]}}}))


def test_sampler_from_json_rejects_non_object_edges():
    with pytest.raises(ParseError):
        RealizationSampler.from_json(triangle(), json.dumps({"edges": ["1/2"]}))


# -- the relation-mismatch count against the pairwise loop -------------------


def _pairwise_loss(graph, eid, a, b):
    """Relation of both values against each other open interval, pair by pair."""
    count = 0
    for other in graph.edges:
        if other.eid == eid or other.interval.is_trivial:
            continue
        if relation(a, other.interval) != relation(b, other.interval):
            count += 1
    return count


def _pairwise_grid(graph):
    grid = {}
    for e in graph.edges:
        if e.interval.is_trivial:
            grid[e.eid] = (e.interval.low,)
            continue
        breakpoints = set()
        for other in graph.edges:
            if other.eid == e.eid or other.interval.is_trivial:
                continue
            for limit in (other.interval.low, other.interval.high):
                if e.interval.low < limit < e.interval.high:
                    breakpoints.add(limit)
        cuts = [e.interval.low] + sorted(breakpoints) + [e.interval.high]
        grid[e.eid] = tuple(sorted(breakpoints | {(lo + hi) / 2 for lo, hi in zip(cuts, cuts[1:])}))
    return grid


def _pairwise_erm(graph, sampler, m):
    grid = _pairwise_grid(graph)
    samples = [sampler.sample() for _ in range(m)]
    learned = {}
    for e in graph.edges:
        best = best_loss = None
        for c in grid[e.eid]:
            loss = sum(_pairwise_loss(graph, e.eid, s[e.eid], c) for s in samples)
            if best_loss is None or loss < best_loss:
                best, best_loss = c, loss
        learned[e.eid] = best
    return learned


def _pairwise_expected(graph, sampler, eid, c):
    values, weights = sampler.mixtures[eid]
    total = sum(weights)
    return sum((Fraction(w, total) * _pairwise_loss(graph, eid, v, c) for v, w in zip(values, weights)), Fraction(0))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6))
def test_kernel_matches_pairwise_loop(seed):
    g, mixtures = kernel_case(seed)
    grid = _pairwise_grid(g)
    assert discretize(g).per_edge == grid
    for draws in (1, 3, 6):
        sampler = RealizationSampler(g, mixtures, seed=seed + draws)
        reference = RealizationSampler(g, mixtures, seed=seed + draws)
        assert erm_train(g, sampler, draws) == _pairwise_erm(g, reference, draws)
        assert sampler.sample() == reference.sample()  # same RNG consumption
    sampler = RealizationSampler(g, mixtures)
    optimum = {}
    for e in g.edges:
        losses = []
        for c in grid[e.eid]:
            expected = _pairwise_expected(g, sampler, e.eid, c)
            assert expected_edge_loss(g, sampler, e.eid, c) == expected
            for v in sampler.mixtures[e.eid][0]:
                assert relation_mismatches(g, e.eid, v, c) == _pairwise_loss(g, e.eid, v, c)
            losses.append((expected, c))
        optimum[e.eid] = min(losses)[1]
    assert grid_optimal(g, sampler) == optimum


@pytest.mark.parametrize(
    "spec",
    [
        {"0": {"values": "2", "weights": "3"}},  # a string is not a list of values
        {"0": {"values": "25"}},
        {"0": {"values": ["1/2"], "weights": "1"}},
        {"0": {"values": {"1/2": 1}}},
    ],
)
def test_sampler_from_json_requires_lists(spec):
    with pytest.raises(ParseError, match="edge 0"):
        RealizationSampler.from_json(triangle(), json.dumps({"edges": spec}))
