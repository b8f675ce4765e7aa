"""Ranking, placing and drawing on (numerator, denominator) pairs, held to
the same operations on Fractions: `sorted` and `bisect_left` over the
values, and `random.choices` over each edge's mixture."""

import random
import sys
from bisect import bisect_left
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cases import kernel_case
from mstquery.graphcore import Interval, UncertainEdge, UncertainGraph, ValidationError, rank_values
from mstquery.learner import RealizationSampler

# primes past 2**61, so two of them share no factor and their products are large
BIG_PRIMES = (2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1)

values = st.one_of(
    st.integers(-40, 40).map(Fraction),
    st.fractions(min_value=-100, max_value=100, max_denominator=1000),
    st.builds(Fraction, st.integers(-(10**45), 10**45), st.sampled_from(BIG_PRIMES)),
)


def edges_over(xs):
    """Edges whose low, high, truth and prediction run through xs; rank_values
    does not validate, so any four values make an edge."""
    xs = (xs * 4)[: len(xs) + -len(xs) % 4]
    return tuple(
        UncertainEdge(i, 0, 1, Interval(a, b), c, d) for i, (a, b, c, d) in enumerate(zip(*[iter(xs)] * 4))
    )


def position_on_fractions(ranked, value, lo=0, hi=None):
    i = bisect_left(ranked, value, lo, len(ranked) if hi is None else hi)
    return 2 * i if i < len(ranked) and ranked[i] == value else 2 * i - 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(values, min_size=1, max_size=60))
def test_rank_codes_and_order_equal_a_sort_of_the_fractions(xs):
    edges = edges_over(xs)
    ranking = rank_values(edges)
    ranked = sorted(set(xs))
    assert list(ranking.values) == ranked
    assert ranking.pairs == tuple((x.numerator, x.denominator) for x in ranked)
    code = {x: i for i, x in enumerate(ranked)}
    assert ranking.rank == code
    assert ranking.lo == tuple(code[e.interval.low] for e in edges)
    assert ranking.hi == tuple(code[e.interval.high] for e in edges)
    assert ranking.truth == tuple(code[e.true_value] for e in edges)
    assert ranking.pred == tuple(code[e.predicted_value] for e in edges)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(values, min_size=1, max_size=40), st.lists(values, max_size=10), st.data())
def test_position_equals_a_bisection_of_the_fractions(xs, extra, data):
    ranking = rank_values(edges_over(xs))
    ranked = list(ranking.values)
    # below, equal to, between and above the ranked values, and any others
    probes = [ranked[0] - 1, ranked[-1] + 1, *ranked, *extra]
    probes += [(a + b) / 2 for a, b in zip(ranked, ranked[1:])]
    for v in probes:
        assert ranking.position(v) == position_on_fractions(ranked, v), v
        pair = (v.numerator, v.denominator)
        assert ranking.place(pair) == ranking.position(v)
        lo = data.draw(st.integers(0, len(ranked)))
        hi = data.draw(st.integers(lo, len(ranked)))
        assert ranking.place(pair, lo) == position_on_fractions(ranked, v, lo), (v, lo)
        assert ranking.place(pair, lo, hi) == position_on_fractions(ranked, v, lo, hi), (v, lo, hi)


def test_position_rejects_a_negative_lo_as_bisect_does():
    ranking = rank_values(edges_over([Fraction(1), Fraction(2)]))
    with pytest.raises(ValueError):
        bisect_left(ranking.values, Fraction(1), -1)
    with pytest.raises(ValueError):
        ranking.place((1, 1), -1)


# -- draws against random.choices ----------------------------------------------

# a total of exactly the largest float, the most the sampler accepts
FLOAT_MAX = int(sys.float_info.max)
NEAR_GUARD = [FLOAT_MAX - 2**970, 2**970]


def mixtures_of(g, rng):
    """One to four values strictly inside each open interval (a point
    interval keeps its value), with weights small, huge or up to the guard."""
    out = {}
    for e in g.edges:
        low, high = e.interval.low, e.interval.high
        if e.interval.is_trivial:
            vs = [low]
        else:
            vs = sorted({low + (high - low) * Fraction(rng.randint(1, 31), 32) for _ in range(rng.randint(1, 4))})
        kind = rng.randrange(3)
        if kind == 2 and len(vs) == 2:
            ws = list(NEAR_GUARD)
        elif kind == 1:
            ws = [rng.randint(1, 2**80) for _ in vs]
        else:
            ws = [rng.randint(1, 5) for _ in vs]
        out[e.eid] = (vs, ws)
    return out


@pytest.mark.parametrize("seed", range(60))
def test_draws_equal_random_choices_edge_by_edge(seed):
    g = kernel_case(seed)[0]
    mixtures = mixtures_of(g, random.Random(seed))
    sampler = RealizationSampler(g, mixtures, seed=seed)
    rng = random.Random(seed)
    for _ in range(8):
        draw = sampler.sample()
        assert list(draw) == [e.eid for e in g.edges]
        for e in g.edges:
            vs, ws = mixtures[e.eid]
            assert draw[e.eid] == rng.choices(vs, weights=ws, k=1)[0], (seed, e.eid)


def test_one_value_and_near_guard_mixtures_draw_as_random_choices():
    g = UncertainGraph(2, [
        UncertainEdge(0, 0, 1, Interval.open(0, 10), Fraction(5), Fraction(5)),
        UncertainEdge(1, 0, 1, Interval.open(0, 10), Fraction(5), Fraction(5)),
        UncertainEdge(2, 0, 1, Interval.point(3), Fraction(3), Fraction(3)),
    ])
    mixtures = {0: ([Fraction(7, 3)], [4]), 1: ([Fraction(1), Fraction(9)], NEAR_GUARD)}
    for seed in range(200):
        sampler = RealizationSampler(g, mixtures, seed=seed)
        rng = random.Random(seed)
        for _ in range(3):
            draw = sampler.sample()
            # a one-value mixture and the default point mass use up one draw each
            assert draw == {
                0: rng.choices([Fraction(7, 3)], weights=[4], k=1)[0],
                1: rng.choices([Fraction(1), Fraction(9)], weights=NEAR_GUARD, k=1)[0],
                2: rng.choices([Fraction(3)], weights=[1], k=1)[0],
            }
    with pytest.raises(ValidationError, match="past the largest float"):
        RealizationSampler(g, {1: ([Fraction(1), Fraction(9)], [FLOAT_MAX, 1])})


@pytest.mark.parametrize("value, ok", [
    (Fraction(1, 3), False), (Fraction(1, 2), False), (Fraction(3, 5), True), (Fraction(2), True),
    (Fraction(5, 2), False), (Fraction(7, 2), False), (1, True), (3, False), (Fraction(-3, 5), False),
])
def test_mixture_values_are_checked_against_the_interval_exactly(value, ok):
    # the open interval (1/2, 5/2), against its ends and values beside them
    g = UncertainGraph(2, [UncertainEdge(0, 0, 1, Interval.open(Fraction(1, 2), Fraction(5, 2)), Fraction(1), Fraction(1))])
    if ok:
        RealizationSampler(g, {0: ([value], [1])})
    else:
        with pytest.raises(ValidationError, match="outside the open interval"):
            RealizationSampler(g, {0: ([value], [1])})


def test_a_trivial_edge_admits_only_its_value_and_floats_are_rejected():
    g = UncertainGraph(2, [
        UncertainEdge(0, 0, 1, Interval.point(Fraction(3, 2)), Fraction(3, 2), Fraction(3, 2)),
        UncertainEdge(1, 0, 1, Interval.open(0, 2), Fraction(1), Fraction(1)),
    ])
    RealizationSampler(g, {0: ([Fraction(3, 2)], [1])})
    with pytest.raises(ValidationError, match="trivial edge admits only its value"):
        RealizationSampler(g, {0: ([Fraction(3, 4)], [1])})
    for eid, value in ((0, 1.5), (1, 0.5)):
        with pytest.raises(ValidationError, match="is not rational"):
            RealizationSampler(g, {eid: ([value], [1])})


def validation_outcome(check):
    try:
        check()
    except ValidationError as exc:
        return str(exc)
    return None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(values, values)
def test_graph_validation_on_pairs_gives_the_verdicts_and_messages_of_the_fractions(x, y):
    # ends tied, ordered or reversed, each with values at, beside and
    # between them, as Fractions, ints and floats
    for low, high in ((x, y), (y, x), (x, x)):
        mid = (low + high) / 2
        picks = [low, high, mid, low - 1, high + 1, int(mid), float(mid)]
        for truth in picks:
            for pred in picks:
                for v in (0, 1):
                    edge = UncertainEdge(0, 0, v, Interval(low, high), truth, pred)
                    assert validation_outcome(lambda: UncertainGraph(2, [edge])) == validation_outcome(edge.validate)
