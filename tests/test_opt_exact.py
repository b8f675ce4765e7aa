"""The exact optimum of a run against the brute-force oracle, and its
certificate beyond the oracle's cap.

The certificate is checked with `is_feasible` and `is_solved` alone, the
two calls `opt_brute_force` trusts too: a set W is a witness set when
revealing every other non-trivial edge leaves the instance unsolved, since
then every feasible set meets W.  Pairwise disjoint witness sets, as many
as a feasible set has edges, prove that set optimal.
"""

import pytest

from mstquery import factory
from mstquery.graphcore import Interval, QueryRun, UncertainEdge, UncertainGraph
from mstquery.limittrees import is_solved
from mstquery.oracle import DEFAULT_CAP, is_feasible, opt_brute_force
from mstquery.strategies import opt_exact

# (vertices, extra edges, overlap, seed): the 11-14-edge graphs of the
# benchmark's oracle grid, each at three error rates
GRID = [
    (12, 3, 0.9, 101), (10, 4, 0.95, 102), (9, 5, 0.9, 103), (8, 6, 0.95, 104),
    (7, 7, 0.9, 105), (6, 8, 0.95, 106), (5, 9, 0.9, 107), (9, 5, 1.0, 108),
]
RATES = (0, 0.5, 1.0)


def _small_graphs():
    for v, x, overlap, seed in GRID:
        for rate in RATES:
            yield factory.gen_random(v, x, overlap, rate, seed)
    for beta in range(2, 6):
        for adversarial in (False, True):
            yield factory.gen_tradeoff_cycle(beta, adversarial)
    for n in (2, 4, 6, 8):
        yield factory.gen_path_parallel(n)
        yield factory.gen_triangle_chain(n)
    for n in (4, 6, 8):
        yield factory.gen_vc_flip(n, "ex1")
        yield factory.gen_vc_flip(n, "ex2")
    yield factory.demo_hop_cycle()
    yield factory.demo_mandatory_cycle()


def test_equals_brute_force_on_the_grid_and_the_families():
    checked = 0
    for g in _small_graphs():
        if len(g.non_trivial_ids()) <= DEFAULT_CAP:
            assert opt_exact(g).size == opt_brute_force(g).size
            checked += 1
    assert checked >= 46


@pytest.mark.parametrize("overlap", (0.8, 0.95, 1.0))
@pytest.mark.parametrize("rate", RATES)
def test_equals_brute_force_on_random_graphs(overlap, rate):
    for seed in range(300):
        g = factory.gen_random(8, 6, overlap, rate, seed)
        assert opt_exact(g).size == opt_brute_force(g).size, seed


def assert_certified(graph):
    """The result's witness sets prove its optimal set minimum."""
    result = opt_exact(graph)
    witnesses = result.witness_sets
    assert len(witnesses) == result.size
    union = frozenset().union(*witnesses)
    assert len(union) == sum(len(w) for w in witnesses)  # pairwise disjoint
    assert is_feasible(graph, result.one_optimal_set).feasible
    assert len(result.one_optimal_set) == result.size
    # every non-trivial edge outside the witness sets is revealed once
    base = QueryRun(graph)
    for eid in graph.non_trivial_ids():
        if eid not in union:
            base.reveal(eid)
    for w in witnesses:
        run = base.fork()
        for eid in sorted(union - w):
            run.reveal(eid)
        assert is_solved(run) is None, sorted(w)
    return result


def test_certificates_on_the_small_graphs():
    for g in _small_graphs():
        assert_certified(g)


@pytest.mark.parametrize(
    "make",
    [
        lambda: factory.gen_random(160, 160, 0.98, 0.3, 3),
        lambda: factory.gen_random(160, 160, 0.95, 0.0, 5),
        lambda: factory.gen_random(320, 320, 0.98, 0.3, 3),
        lambda: factory.gen_vc_flip(100, "ex2"),
        lambda: factory.gen_vc_flip(100, "ex1"),
        lambda: factory.gen_path_parallel(150),
        lambda: factory.gen_triangle_chain(200),
    ],
    ids=["random-319-err", "random-319", "random-639-err", "vc-flip-100-ex2", "vc-flip-100-ex1", "path-parallel-150", "triangle-chain-200"],
)
def test_certificates_beyond_the_cap(make):
    graph = make()
    assert len(graph.non_trivial_ids()) > DEFAULT_CAP
    assert assert_certified(graph).size > 0


def test_the_optimum_of_a_solved_instance_is_empty():
    # a triangle of known values: nothing to query, nothing to certify
    edges = [UncertainEdge(e, u, v, Interval.point(w), w, w) for e, (u, v, w) in enumerate([(0, 1, 1), (1, 2, 2), (0, 2, 3)])]
    result = opt_exact(UncertainGraph(3, edges))
    assert result.size == 0 and result.one_optimal_set == frozenset() and result.witness_sets == ()
