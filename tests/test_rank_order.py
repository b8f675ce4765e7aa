"""The rank forms of the relation-mismatch count, the candidate grid and the
strategies' observed-error check, held to their definitions on the values."""

from bisect import bisect_left, bisect_right
from fractions import Fraction
from operator import ne

import pytest
from cases import ERROR_RATES, build_corpus, kernel_case, relation, signature
from mstquery import factory, strategies
from mstquery.errormetrics import ErrorReport, hop_distance, relation_mismatches
from mstquery.graphcore import QueryRun, UncertainEdge, UncertainGraph
from mstquery.learner import discretize
from mstquery.oracle import DEFAULT_CAP, is_feasible, mandatory_edges, opt_brute_force, sampled_tree_validation
from mstquery.strategies import _observed_error

SEEDS = range(150)


def open_ends(g):
    return {x for e in g.edges if not e.interval.is_trivial for x in (e.interval.low, e.interval.high)}


def observed_error_on_values(run, eid, value):
    """Any relation of the revealed value to a currently open interval that
    differs from the predicted relation, compared on the values."""
    pred = run.predicted(eid)
    if value == pred:
        return False
    for other in run.present_ids():
        if other == eid:
            continue
        iv = run.interval(other)
        if iv.is_trivial:
            continue
        if relation(value, iv) != relation(pred, iv):
            return True
    return False


def grid_on_values(g):
    """The candidate grid computed from a sorted list of the open ends."""
    limits = sorted(open_ends(g))
    grid = {}
    for e in g.edges:
        low, high = e.interval.low, e.interval.high
        if e.interval.is_trivial:
            grid[e.eid] = (low,)
            continue
        cuts = [low] + limits[bisect_right(limits, low):bisect_left(limits, high)] + [high]
        values = [(cuts[0] + cuts[1]) / 2]
        for lo, hi in zip(cuts[1:], cuts[2:]):
            values += [lo, (lo + hi) / 2]
        grid[e.eid] = tuple(values)
    return grid


def test_observed_error_matches_relations_after_reveals_on_other_ends():
    outcomes = {True: 0, False: 0}
    on_ends = 0
    for seed in SEEDS:
        g, mixtures = kernel_case(seed)
        ends = open_ends(g)
        # reveal mixture values, which kernel_case often places on other
        # intervals' ends; the first value of each edge alternates with the
        # last.  They lie strictly inside their intervals, so they can be a
        # graph's truths.
        table = {e.eid: e.true_value for e in g.edges}
        for eid, (values, _) in mixtures.items():
            table[eid] = values[seed % 2 - 1]
        edges = [UncertainEdge(e.eid, e.u, e.v, e.interval, table[e.eid], e.predicted_value) for e in g.edges]
        run = QueryRun(UncertainGraph(g.vertex_count, edges))
        order = sorted(run.non_trivial_ids(), key=lambda e: (e * 7 + seed) % len(g.edges))
        for eid in order:
            value = run.reveal(eid)
            on_ends += value in ends
            expected = observed_error_on_values(run, eid, value)
            assert _observed_error(run, eid) == expected, (seed, eid)
            outcomes[expected] += 1
    assert on_ends > 300
    assert min(outcomes.values()) > 200


def test_relation_mismatches_match_relation_off_the_open_ends():
    ranked_checked = unranked_checked = 0
    for seed in SEEDS:
        g, _ = kernel_case(seed)
        ranking = g.ranking
        assert all(ranking.values[ranking.rank[v]] == v for v in ranking.values)
        ends = open_ends(g)
        # truths, predictions and trivial values that are not open ends
        ranked = [v for v in ranking.values if v not in ends]
        # values the ranking does not hold: between two ranked values, and
        # beyond the first and the last
        vs = ranking.values
        unranked = [vs[0] - 1, vs[-1] + 1] + [(a + b) / 2 for a, b in zip(vs, vs[1:])]
        assert not set(unranked) & set(vs)
        values = ranked + unranked
        for e in g.edges:
            sig = {v: signature(g, e.eid, v) for v in values + [e.predicted_value]}
            # each value against the edge's prediction, and against the value before it
            for v, w in zip(values + values, [e.predicted_value] * len(values) + values[-1:] + values[:-1]):
                expected = sum(map(ne, sig[v], sig[w]))
                assert relation_mismatches(g, e.eid, v, w) == expected, (seed, e.eid, v, w)
        ranked_checked += len(ranked)
        unranked_checked += len(unranked)
    assert ranked_checked > 500 and unranked_checked > 1000


def test_discretize_matches_the_grid_on_values_with_values_on_open_ends():
    trivial_on_end = pred_on_end = 0
    for seed in SEEDS:
        g, _ = kernel_case(seed)
        grid = discretize(g).per_edge
        assert grid == grid_on_values(g), seed
        ends = open_ends(g)
        for e in g.edges:
            if e.interval.is_trivial:
                trivial_on_end += e.interval.low in ends
            else:
                pred_on_end += e.predicted_value in ends
    # kernel_case places trivial values and predictions on other intervals' ends
    assert trivial_on_end > 100 and pred_on_end > 200


def test_bounded_position_matches_the_full_search_inside_each_interval():
    checked = 0
    for seed in SEEDS:
        g, _ = kernel_case(seed)
        ranking = g.ranking
        vs = ranking.values
        between = [(a + b) / 2 for a, b in zip(vs, vs[1:])]
        for lo, hi in zip(ranking.lo, ranking.hi):
            if lo == hi:
                continue
            for v in vs[lo + 1:hi] + tuple(between[lo:hi]):
                assert ranking.place((v.numerator, v.denominator), lo + 1, hi) == ranking.position(v), (seed, v)
                checked += 1
    assert checked > 1000


def hop_distance_on_values(g):
    """The hop report with truths and predictions compared as values."""
    jo = {e.eid: 0 for e in g.edges}
    oj = {e.eid: 0 for e in g.edges}
    for e in g.edges:
        if e.true_value == e.predicted_value:
            continue
        for f in g.edges:
            if f.eid != e.eid and not f.interval.is_trivial:
                if relation(e.true_value, f.interval) != relation(e.predicted_value, f.interval):
                    jo[e.eid] += 1
                    oj[f.eid] += 1
    k_sharp = sum(e.true_value != e.predicted_value for e in g.edges)
    return ErrorReport(jo=jo, oj=oj, k_h=sum(jo.values()), k_sharp=k_sharp)


def test_hop_distance_on_ranks_matches_values():
    exact = 0
    for seed in SEEDS:
        g, _ = kernel_case(seed)
        ranking = g.ranking
        assert ranking.truth == tuple(ranking.rank[e.true_value] for e in g.edges)
        assert hop_distance(g) == hop_distance_on_values(g), seed
        exact += sum(e.true_value == e.predicted_value for e in g.edges)
    assert exact > 200  # trivial edges and a few exact predictions are skipped


def ranked_graphs():
    graphs = [g for rate in ERROR_RATES for g in build_corpus(rate, 30)]
    graphs += [kernel_case(seed)[0] for seed in range(60)]
    graphs += [factory.gen_path_parallel(n) for n in (4, 8)]
    graphs += [factory.gen_vc_flip(n, variant) for n in (4, 8) for variant in ("ex1", "ex2")]
    graphs += [factory.gen_triangle_chain(n) for n in (2, 4)]
    for g in graphs:
        g.ranking  # hashes each distinct value once, before the patch
    return graphs


def forbid_fraction_hash(monkeypatch, path):
    def unhashable(self):
        raise AssertionError(f"Fraction {self} hashed on the {path} path")

    monkeypatch.setattr(Fraction, "__hash__", unhashable)


def test_the_strategy_path_hashes_no_fraction(monkeypatch):
    """Once the graph is ranked, a strategy run compares and looks up ranks
    only: phase 1's prediction-mandatory edges, phase 2's observed-error
    check and every reveal read the session's rank tables."""
    graphs = ranked_graphs()
    forbid_fraction_hash(monkeypatch, "strategy")
    runs = 0
    for g in graphs:
        for mode in ("baseline", "tradeoff", "error_sensitive"):
            for gamma in (2, 4):
                strategies.solve(g, strategies.StrategyConfig(gamma=gamma, mode=mode))
                runs += 1
    assert runs == 6 * len(graphs)


def test_the_oracle_path_hashes_no_fraction(monkeypatch):
    """The oracle's sessions take their reveals from the graph's truth or
    prediction ranks: mandatory edges, the brute-force optimum and the
    feasibility check of that optimum hash no value, on a graph and on a
    live session with half its open edges revealed."""
    graphs = [g for g in ranked_graphs() if len(g.non_trivial_ids()) <= DEFAULT_CAP]
    forbid_fraction_hash(monkeypatch, "oracle")
    checks = 0
    for g in graphs:
        run = QueryRun(g)
        ids = run.non_trivial_ids()
        for eid in ids[: len(ids) // 2]:
            run.reveal(eid)
        for target in (g, run):
            for source in ("truth", "predictions"):
                mandatory = mandatory_edges(target, source)
                opt = opt_brute_force(target, source)
                assert mandatory <= opt.one_optimal_set
                assert is_feasible(target, opt.one_optimal_set, source).feasible
                checks += 1
    assert checks == 4 * len(graphs) and len(graphs) > 180


def test_an_unknown_value_source_is_rejected():
    g = factory.demo_mandatory_cycle()
    run = QueryRun(g)
    with pytest.raises(ValueError, match="unknown value source 'bogus'"):
        QueryRun(g, "bogus")
    with pytest.raises(ValueError, match="unknown value source 'bogus'"):
        run.fork("bogus")
    for target in (g, run):
        for check in (
            lambda: is_feasible(target, [], value_source="bogus"),
            lambda: mandatory_edges(target, value_source="bogus"),
            lambda: opt_brute_force(target, value_source="bogus"),
            lambda: sampled_tree_validation(target, [], value_source="bogus"),
        ):
            with pytest.raises(ValueError, match="unknown value source 'bogus'"):
                check()
