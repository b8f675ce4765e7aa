from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cases import kernel_case
from mstquery import factory
from mstquery.errormetrics import (
    LEFT, INSIDE, RIGHT, ErrorReport, hop_distance, hop_indicator, relation, relation_mismatches,
)
from mstquery.graphcore import Interval, UncertainEdge, UncertainGraph
from mstquery.oracle import mandatory_edges, prediction_mandatory_edges


def test_relation_partition():
    iv = Interval.open(1, 3)
    assert relation(Fraction(1), iv) == LEFT
    assert relation(Fraction(2), iv) == INSIDE
    assert relation(Fraction(3), iv) == RIGHT
    with pytest.raises(ValueError):
        relation(Fraction(1), Interval.point(1))


def test_demo_hop_cycle_per_edge_counts():
    g = factory.demo_hop_cycle()
    report = hop_distance(g)
    assert [report.jo[i] for i in range(4)] == [2, 3, 0, 0]
    assert [report.oj[i] for i in range(4)] == [1, 1, 2, 1]
    assert report.k_h == 5
    assert hop_indicator(g, 0, 1) == 1
    assert hop_indicator(g, 0, 3) == 0
    with pytest.raises(ValueError):
        hop_indicator(g, 0, 0)


def test_perfect_predictions_have_zero_error():
    g = factory.with_correct_predictions(factory.demo_hop_cycle())
    report = hop_distance(g)
    assert report.k_h == 0 and report.k_sharp == 0
    assert all(v == 0 for v in report.jo.values())


def test_triangle_chain_error_counts():
    for n in (1, 3):
        report = hop_distance(factory.gen_triangle_chain(n))
        assert report.k_h == n and report.k_sharp == n


def test_path_parallel_error_counts():
    for n in (1, 3, 5):
        report = hop_distance(factory.gen_path_parallel(n))
        assert report.k_sharp == 1 and report.k_h == n


def test_point_intervals_contribute_nothing():
    edges = [
        UncertainEdge(0, 0, 1, Interval.open(0, 2), Fraction(1, 2), Fraction(3, 2)),
        UncertainEdge(1, 1, 2, Interval.point(1), Fraction(1), Fraction(1)),
        UncertainEdge(2, 0, 2, Interval.open(0, 2), Fraction(1), Fraction(1)),
    ]
    g = UncertainGraph(3, edges)
    assert hop_indicator(g, 0, 1) == 0
    # edge 0's wrong value flips no relation: both sides are inside (0, 2)
    assert hop_distance(g).k_h == 0


@pytest.mark.parametrize("seed", range(50))
def test_aggregate_symmetry(seed):
    g = factory.gen_random(4 + seed % 3, 2 + seed % 3, 0.8, 0.6, seed=1000 + seed)
    report = hop_distance(g)
    assert sum(report.jo.values()) == sum(report.oj.values()) == report.k_h
    assert report.jo_of(g.non_trivial_ids()) == report.k_h


def test_zero_wrong_values_implies_zero_hops():
    g = factory.gen_random(5, 4, 0.9, 0.0, seed=4)
    report = hop_distance(g)
    assert report.k_sharp == 0 and report.k_h == 0


def rescale(graph):
    def f(q):
        return 2 * q + 1

    edges = []
    for e in graph.edges:
        iv = Interval.point(f(e.interval.low)) if e.interval.is_trivial else Interval.open(
            f(e.interval.low), f(e.interval.high)
        )
        edges.append(UncertainEdge(e.eid, e.u, e.v, iv, f(e.true_value), f(e.predicted_value)))
    return UncertainGraph(graph.vertex_count, edges)


@pytest.mark.parametrize("seed", range(10))
def test_order_preserving_rescale_invariance(seed):
    g = factory.gen_random(5, 3, 0.8, 0.7, seed=1100 + seed)
    a, b = hop_distance(g), hop_distance(rescale(g))
    assert a.jo == b.jo and a.oj == b.oj and a.k_h == b.k_h


@pytest.mark.parametrize("seed", range(25))
def test_mandatory_symmetric_difference_bounded_by_hops(seed):
    g = factory.gen_random(4, 3, (0.6, 0.9, 1.0)[seed % 3], 0.5, seed=1200 + seed)
    diff = mandatory_edges(g, "truth") ^ prediction_mandatory_edges(g)
    report = hop_distance(g)
    assert len(diff) <= report.k_h
    for e in diff:
        assert report.oj[e] >= 1


def _pairwise_hop_distance(graph):
    """Relation of each wrong edge's truth and prediction against each other
    open interval, pair by pair."""
    jo = {e.eid: 0 for e in graph.edges}
    oj = {e.eid: 0 for e in graph.edges}
    for e in graph.edges:
        for other in graph.edges:
            if other.eid == e.eid or other.interval.is_trivial:
                continue
            if relation(e.true_value, other.interval) != relation(e.predicted_value, other.interval):
                jo[e.eid] += 1
                oj[other.eid] += 1
    k_sharp = sum(1 for e in graph.edges if e.true_value != e.predicted_value)
    return ErrorReport(jo=jo, oj=oj, k_h=sum(jo.values()), k_sharp=k_sharp)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6))
def test_hop_distance_matches_pairwise_loop(seed):
    g, _ = kernel_case(seed)
    reference = _pairwise_hop_distance(g)
    assert hop_distance(g) == reference
    for e in g.edges:
        assert relation_mismatches(g, e.eid, e.true_value, e.predicted_value) == reference.jo[e.eid]
