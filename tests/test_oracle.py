import random
from fractions import Fraction

import pytest

from cases import ERROR_RATES, build_corpus, fraction_minimum_in_samples, kernel_case
from mstquery import factory, oracle
from mstquery.graphcore import Interval, QueryRun, UncertainEdge, UncertainGraph
from mstquery.limittrees import _kruskal, _path_index, is_solved, limit_trees_unique
from mstquery.oracle import (
    CapExceeded,
    _minimum_in_samples,
    _tree_is_minimum,
    is_feasible,
    mandatory_edges,
    opt_brute_force,
    prediction_mandatory_edges,
    sampled_tree_validation,
)
from mstquery.strategies import StrategyConfig, instance_pred_mandatory_free, run_combined


def test_demo_cycle_feasibility():
    g = factory.demo_mandatory_cycle()
    assert is_feasible(g, [0], "predictions").feasible
    assert not is_feasible(g, [0], "truth").feasible
    assert not is_feasible(g, [1, 2, 3], "truth").feasible
    assert is_feasible(g, g.non_trivial_ids(), "truth").feasible


def test_feasibility_verdict_carries_witness():
    g = factory.demo_mandatory_cycle()
    verdict = is_feasible(g, [0, 1], "truth")
    assert verdict.feasible and verdict.witness_tree is not None


def test_demo_cycle_optimum():
    g = factory.demo_mandatory_cycle()
    result = opt_brute_force(g, "truth", collect_all=True)
    assert result.size == 2
    assert result.one_optimal_set == frozenset({0, 1})
    assert all(len(s) == 2 for s in result.all_optimal_sets)


def test_triangle_optimum_queries_middle_edge():
    g = factory.gen_triangle_chain(1)
    result = opt_brute_force(g, "truth")
    assert result.size == 1 and result.one_optimal_set == frozenset({1})


def test_optimum_of_solved_instance_is_empty():
    g = factory.gen_random(5, 3, 0.0, 0.0, seed=1)
    assert opt_brute_force(g, "truth").size == 0


def test_demo_cycle_mandatory_sets():
    g = factory.demo_mandatory_cycle()
    assert mandatory_edges(g, "truth") == {0, 1}
    assert prediction_mandatory_edges(g) == {0}


def test_disjoint_intervals_have_no_mandatory_edges():
    g = factory.gen_random(5, 3, 0.0, 0.5, seed=2)
    assert mandatory_edges(g, "truth") == set()


def test_cap_exceeded():
    g = factory.gen_random(6, 8, 1.0, 0.0, seed=3)
    with pytest.raises(CapExceeded):
        opt_brute_force(g, "truth", cap=4)


@pytest.mark.parametrize("seed", range(10))
def test_mandatory_subset_of_every_optimal_set(seed):
    g = factory.gen_random(4, 3, 0.9, 0.4, seed=600 + seed)
    mand = mandatory_edges(g, "truth")
    result = opt_brute_force(g, "truth", collect_all=True)
    for opt_set in result.all_optimal_sets:
        assert mand <= opt_set


@pytest.mark.parametrize("seed", range(10))
def test_feasibility_is_monotone(seed):
    rng = random.Random(seed)
    g = factory.gen_random(4, 3, 0.9, 0.4, seed=700 + seed)
    ids = g.non_trivial_ids()
    base = [e for e in ids if rng.random() < 0.5]
    if is_feasible(g, base, "truth").feasible:
        extra = base + [e for e in ids if e not in base][:1]
        assert is_feasible(g, extra, "truth").feasible


@pytest.mark.parametrize("seed", range(12))
def test_pred_mandatory_free_characterization(seed):
    # oracle emptiness coincides with the per-cycle interval condition
    g = factory.gen_random_pred_free(4 + seed % 3, 2 + seed % 2, seed=seed, corrupt=bool(seed % 2))
    run = QueryRun(g)
    assert prediction_mandatory_edges(g) == set()
    assert instance_pred_mandatory_free(run)
    # and on a block of random graphs at overlap 0.9 (at 1.0 almost none has
    # unique limit trees, which the per-cycle condition is stated for)
    checked = 0
    for s in range(800 + 10 * seed, 810 + 10 * seed):
        g2 = factory.gen_random(5, 3, 0.9, 0.6, seed=s)
        run2 = QueryRun(g2)
        if not limit_trees_unique(run2):
            continue
        assert instance_pred_mandatory_free(run2) == (prediction_mandatory_edges(g2) == set())
        checked += 1
    assert checked >= 2


@pytest.mark.parametrize("seed", range(8))
def test_sampled_realizations_confirm_witness_trees(seed):
    g = factory.gen_random(4, 3, 0.8, 0.5, seed=900 + seed)
    opt = opt_brute_force(g, "truth")
    assert sampled_tree_validation(g, opt.one_optimal_set, "truth", samples=200, seed=seed)


def test_feasibility_on_live_session_fork():
    g = factory.demo_mandatory_cycle()
    run = QueryRun(g)
    run.reveal(0)
    # forked feasibility does not disturb the live session
    verdict = is_feasible(run, [1], "truth")
    assert verdict.feasible
    assert run.query_count == 1 and is_solved(run) is None


def test_tree_is_minimum_rejects_heavier_and_wrong_size_sets():
    run = QueryRun(factory.demo_mandatory_cycle())
    weights = {0: Fraction(1), 1: Fraction(2), 2: Fraction(3), 3: Fraction(6)}
    assert _tree_is_minimum(run, frozenset({0, 1, 2}), weights)
    assert not _tree_is_minimum(run, frozenset({0, 1, 3}), weights)
    # same total weight as the minimum tree, but one edge, not three
    assert not _tree_is_minimum(run, frozenset({3}), weights)


def sampled_trees(graph, opt):
    """(session, tree) pairs whose sampled verdict can go either way: the
    verified tree after revealing an optimal set; that tree with one edge
    swapped for a non-tree edge whose cycle holds it; and the lower limit
    tree of the unrevealed instance, whose intervals are all still open."""
    revealed = QueryRun(graph)
    for eid in sorted(opt.one_optimal_set):
        revealed.reveal(eid)
    tree = frozenset(is_solved(revealed))
    out = [(revealed, tree)]
    paths = _path_index(revealed, set(tree)).paths
    if paths:
        f = min(paths)
        out.append((revealed, tree - {paths[f][0]} | {f}))
    fresh = QueryRun(graph)
    out.append((fresh, frozenset(_kruskal(fresh, fresh.lower))))
    return out


def test_integer_samples_give_the_fraction_verdicts(corpus_by_rate, cached_opt):
    graphs = [g for instances in corpus_by_rate.values() for g in instances]
    verdicts = {True: 0, False: 0}
    for i, g in enumerate(graphs):
        for run, tree in sampled_trees(g, cached_opt(g)):
            verdict = _minimum_in_samples(run, tree, 5, i)
            assert verdict == fraction_minimum_in_samples(run, tree, 5, i)
            verdicts[verdict] += 1
    # the 2,000 verified trees are minimum in every sample; the mutated and
    # the unrevealed trees give both verdicts (2,528 True, 3,472 False)
    assert verdicts[True] >= 2_400 and verdicts[False] >= 3_000, verdicts


@pytest.mark.parametrize("seed", range(40))
def test_integer_samples_scale_mixed_denominators(seed):
    # kernel cases put values on sixteenths of intervals with other ends
    g, _ = kernel_case(seed)
    run = QueryRun(g)
    for tree in (frozenset(_kruskal(run, run.lower)), frozenset(_kruskal(run, run.upper))):
        assert _minimum_in_samples(run, tree, 50, seed) == fraction_minimum_in_samples(run, tree, 50, seed)


# -- one-MST mandatory detection against the fork-per-edge reference ---------


def fork_per_edge_mandatory(graph, value_source):
    """Reference: an open edge is mandatory iff revealing every other open
    edge under the value table leaves the instance unsolved."""
    run = oracle._as_run(graph, value_source)
    candidates = run.non_trivial_ids()
    mandatory = set()
    for eid in candidates:
        scratch = run.fork()
        for other in candidates:
            if other != eid:
                scratch.reveal(other)
        if is_solved(scratch) is None:
            mandatory.add(eid)
    return mandatory


def with_bridges(graph):
    """`graph` plus a pendant path of two open bridges and one known bridge,
    each a copy of an open edge's interval and values, or of its value."""
    n = graph.vertex_count
    model = next(e for e in graph.edges if not e.interval.is_trivial)
    m = len(graph.edges)
    point = Interval.point(model.true_value)
    extra = [
        UncertainEdge(m, 0, n, model.interval, model.true_value, model.predicted_value),
        UncertainEdge(m + 1, n, n + 1, model.interval, model.predicted_value, model.true_value),
        UncertainEdge(m + 2, model.u, n + 2, point, model.true_value, model.true_value),
    ]
    return UncertainGraph(n + 3, list(graph.edges) + extra)


def differential_graphs():
    corpus = [g for rate in ERROR_RATES for g in build_corpus(rate, 120)]
    kernel = [kernel_case(seed)[0] for seed in range(150)]
    bridged = [with_bridges(g) for g in corpus[::6] + kernel[::3]]
    return corpus + kernel + bridged


@pytest.mark.parametrize("value_source", ("truth", "predictions"))
def test_mandatory_edges_match_fork_per_edge_on_graphs(value_source):
    graphs = differential_graphs()
    mandatory_total = 0
    for g in graphs:
        got = mandatory_edges(g, value_source)
        assert got == fork_per_edge_mandatory(g, value_source)
        mandatory_total += len(got)
    assert mandatory_total > len(graphs) // 2


def test_mandatory_edges_match_fork_per_edge_on_live_runs(monkeypatch):
    one_mst = oracle.mandatory_edges
    minors = []

    def checked(graph, value_source="truth"):
        got = one_mst(graph, value_source)
        assert got == fork_per_edge_mandatory(graph, value_source)
        if isinstance(graph, QueryRun) and graph.contracted_ids():
            minors.append(len(got))
        return got

    monkeypatch.setattr(oracle, "mandatory_edges", checked)
    graphs = [g for rate in ERROR_RATES for g in build_corpus(rate, 60)]
    graphs += [factory.gen_random(8, 6, 1.0, rate, seed=40 + i) for i, rate in enumerate(ERROR_RATES)]
    for g in graphs:
        for mode in ("tradeoff", "error_sensitive"):
            for gamma in (3, 4):
                run_combined(g, StrategyConfig(gamma=gamma, mode=mode))
    assert len(minors) > 500 and sum(minors) > 500
