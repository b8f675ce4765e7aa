import random
from fractions import Fraction

import pytest

from mstquery import factory
from mstquery.graphcore import QueryRun
from mstquery.limittrees import is_solved
from mstquery.oracle import (
    CapExceeded,
    _tree_is_minimum,
    is_feasible,
    mandatory_edges,
    opt_brute_force,
    prediction_mandatory_edges,
    sampled_tree_validation,
)
from mstquery.strategies import instance_pred_mandatory_free


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
    g2 = factory.gen_random(5, 3, 1.0, 0.6, seed=800 + seed)
    run2 = QueryRun(g2)
    try:
        trees_free = instance_pred_mandatory_free(run2)
    except Exception:
        return  # non-unique limit trees: characterization needs preprocessing
    assert trees_free == (prediction_mandatory_edges(g2) == set())


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
