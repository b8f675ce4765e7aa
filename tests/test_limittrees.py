from fractions import Fraction
from itertools import combinations

import pytest

from cases import ERROR_RATES, build_corpus, kernel_case, lower_key, upper_key
from mstquery import factory, limittrees, strategies
from mstquery.graphcore import Interval, PreconditionViolated, QueryRun, UncertainEdge, UncertainGraph
from mstquery.limittrees import (
    compute_limit_trees,
    ensure_unique_limit_trees,
    is_solved,
    limit_trees_unique,
    lower_limit_tree,
    tree_cut,
    tree_cycle,
    unique_limit_trees,
    upper_limit_tree,
    verified_tree_of_original,
)
from mstquery.oracle import is_feasible, mandatory_edges
from mstquery.strategies import StrategyConfig, run_combined


def make_edge(eid, u, v, low, high, pred=None, true=None):
    mid = (Fraction(low) + Fraction(high)) / 2
    return UncertainEdge(
        eid, u, v, Interval.open(low, high),
        Fraction(true) if true is not None else mid,
        Fraction(pred) if pred is not None else mid,
    )


def brute_force_min_tree_weight(run, key_fn):
    """Minimum (sum of bases, sum of eps) over all spanning trees."""
    ids = run.present_ids()
    vertices = {v for e in ids for v in run.endpoints(e)}
    best = None
    for subset in combinations(ids, len(vertices) - 1):
        parent = {v: v for v in vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for e in subset:
            a, b = run.endpoints(e)
            ra, rb = find(a), find(b)
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
        if not ok:
            continue
        keys = [key_fn(run.interval(e)) for e in subset]
        weight = (sum(k.base for k in keys), sum(k.eps for k in keys))
        if best is None or weight < best:
            best = weight
    return best


def tree_weight(run, tree, key_fn):
    keys = [key_fn(run.interval(e)) for e in tree]
    return (sum(k.base for k in keys), sum(k.eps for k in keys))


def test_lower_tree_on_back_edge_family():
    g = factory.gen_vc_flip(8, "ex1")
    run = QueryRun(g)
    assert lower_limit_tree(run) == {0, 1, 2, 3}
    assert upper_limit_tree(run) == {0, 1, 2, 3}


def test_disjoint_intervals_give_classical_mst():
    g = factory.gen_random(6, 4, 0.0, 0.0, seed=11)
    run = QueryRun(g)
    t_lower = lower_limit_tree(run)
    assert t_lower == upper_limit_tree(run)
    # with pairwise disjoint intervals the order is fixed by the midpoints
    mids = {e.eid: (e.interval.low + e.interval.high) / 2 for e in g.edges}
    order = sorted(mids, key=lambda e: (mids[e], e))
    parent = list(range(g.vertex_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    classical = set()
    for eid in order:
        e = g.edges[eid]
        ra, rb = find(e.u), find(e.v)
        if ra != rb:
            parent[ra] = rb
            classical.add(eid)
    assert t_lower == classical


@pytest.mark.parametrize("seed", range(12))
def test_limit_trees_match_enumeration_oracle(seed):
    g = factory.gen_random(5, 3, 0.9, 0.3, seed=seed)
    run = QueryRun(g)
    for key_fn, tree_fn in ((lower_key, lower_limit_tree), (upper_key, upper_limit_tree)):
        tree = tree_fn(run)
        assert tree_weight(run, tree, key_fn) == brute_force_min_tree_weight(run, key_fn)


def test_ensure_unique_noop_when_already_unique():
    g = factory.demo_mandatory_cycle()
    run = QueryRun(g)
    assert ensure_unique_limit_trees(run) == []
    assert limit_trees_unique(run)


def test_identical_parallel_intervals_trigger_tie_queries():
    edges = [
        make_edge(0, 0, 1, 0, 4),
        make_edge(1, 0, 1, 0, 4),
    ]
    g = UncertainGraph(2, edges)
    assert not limit_trees_unique(QueryRun(g))
    # both edges are mandatory: dropping either leaves the instance unsolved
    assert mandatory_edges(g, "truth") == {0, 1}
    run = QueryRun(g)
    queried = ensure_unique_limit_trees(run)
    assert queried and set(queried) <= {0, 1}


def test_parallel_points_of_equal_value_tie_until_reduced():
    # a tie counts whatever the edges' kind; reduction removes both points
    point = Interval.point(1)
    g = UncertainGraph(3, [
        UncertainEdge(0, 0, 1, point, Fraction(1), Fraction(1)),
        UncertainEdge(1, 0, 1, point, Fraction(1), Fraction(1)),
        make_edge(2, 1, 2, 0, 4),
    ])
    with pytest.raises(PreconditionViolated, match="not unique"):
        compute_limit_trees(QueryRun(g))
    run = QueryRun(g)
    assert ensure_unique_limit_trees(run) == []
    assert run.removed == {1: "deleted", 0: "contracted", 2: "contracted"}


def test_solved_after_revealing_dominating_value():
    g = factory.demo_mandatory_cycle()
    # under the predicted values, edge 0 reveals a weight above every other
    # upper limit and the remaining path is a verified tree
    run = QueryRun(g, "predictions")
    run.reveal(0)
    assert is_solved(run) == {1, 2, 3}
    # under the true values the revealed weight stays inside edge 1's interval
    run = QueryRun(g)
    run.reveal(0)
    assert is_solved(run) is None


def test_unsolved_without_reveals():
    assert is_solved(QueryRun(factory.demo_mandatory_cycle())) is None


def test_solved_when_everything_revealed():
    g = factory.gen_random(5, 4, 1.0, 1.0, seed=5)
    run = QueryRun(g)
    for eid in g.non_trivial_ids():
        run.reveal(eid)
    tree = is_solved(run)
    assert tree is not None
    truths = g.true_values()
    assert tree_weight_true(run, tree, truths) == min_true_tree_weight(run, truths)


def tree_weight_true(run, tree, truths):
    return sum(truths[e] for e in tree)


def min_true_tree_weight(run, truths):
    ids = run.present_ids()
    vertices = {v for e in ids for v in run.endpoints(e)}
    best = None
    for subset in combinations(ids, len(vertices) - 1):
        parent = {v: v for v in vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for e in subset:
            a, b = run.endpoints(e)
            ra, rb = find(a), find(b)
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
        if ok:
            w = sum(truths[e] for e in subset)
            best = w if best is None else min(best, w)
    return best


def test_cycle_of_single_cycle_is_whole_edge_set():
    g = factory.demo_mandatory_cycle()
    trees = compute_limit_trees(QueryRun(g))
    assert sorted([0] + trees.paths[0]) == [0, 1, 2, 3]


def test_cut_of_back_edge_family_contains_all_back_edges():
    g = factory.gen_vc_flip(8, "ex1")
    trees = compute_limit_trees(QueryRun(g))
    assert sorted(trees.covers[1] | {1}) == [1, 4, 5, 6, 7]


def test_cycle_matches_bfs_path_oracle():
    g = factory.gen_random(7, 1, 0.9, 0.0, seed=23)
    run = QueryRun(g)
    ensure_unique_limit_trees(run)
    trees = compute_limit_trees(run)
    for f in trees.nontree_order:
        cyc = {f, *trees.paths[f]}
        assert cyc == bfs_cycle_oracle(run, trees.tree, f)


def bfs_cycle_oracle(run, tree, f):
    from collections import deque

    adj = {}
    for e in tree:
        a, b = run.endpoints(e)
        adj.setdefault(a, []).append((b, e))
        adj.setdefault(b, []).append((a, e))
    start, goal = run.endpoints(f)
    prev = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for nbr, eid in adj.get(node, ()):
            if nbr not in prev:
                prev[nbr] = (node, eid)
                queue.append(nbr)
    path = {f}
    node = goal
    while prev[node] is not None:
        node, eid = prev[node]
        path.add(eid)
    return path


@pytest.mark.parametrize("seed", range(20))
def test_ensure_unique_establishes_strict_exchange_witness(seed):
    g = factory.gen_random(5, 3, 1.0, 0.5, seed=100 + seed)
    run = QueryRun(g)
    ensure_unique_limit_trees(run)
    assert limit_trees_unique(run)


@pytest.mark.parametrize("seed", range(20))
def test_ensure_unique_queries_are_mandatory(seed):
    g = factory.gen_random(4, 4, 1.0, 0.5, seed=200 + seed)
    mand = mandatory_edges(g, "truth")
    run = QueryRun(g)
    queried = ensure_unique_limit_trees(run)
    assert set(queried) <= mand


@pytest.mark.parametrize("seed", range(15))
def test_tree_changes_only_on_queried_edges(seed):
    import random

    g = factory.gen_random(5, 4, 0.9, 0.5, seed=300 + seed)
    rng = random.Random(seed)
    run = QueryRun(g)
    ensure_unique_limit_trees(run)
    tree_before = lower_limit_tree(run)
    while run.non_trivial_ids():
        target = rng.choice(run.non_trivial_ids())
        before_count = run.query_count
        contracted_before = set(run.contracted_ids())
        run.reveal(target)
        ensure_unique_limit_trees(run)
        queried = set(run.queried[before_count:])
        contracted = set(run.contracted_ids()) - contracted_before
        tree_after = lower_limit_tree(run)
        # reduction takes the contracted edges out of the tree, and adds none
        assert tree_before.symmetric_difference(tree_after) <= queried | contracted
        assert tree_after - tree_before <= queried
        tree_before = tree_after


@pytest.mark.parametrize("seed", range(25))
def test_solved_iff_empty_set_feasible(seed):
    g = factory.gen_random(4, 3, (0.0, 0.7, 1.0)[seed % 3], 0.5, seed=400 + seed)
    run = QueryRun(g)
    assert (is_solved(run) is not None) == is_feasible(g, [], "truth").feasible


def test_verified_tree_includes_contracted_edges():
    g = factory.gen_triangle_chain(1)
    run = QueryRun(g)
    run.reveal(1)
    ensure_unique_limit_trees(run)
    tree = verified_tree_of_original(run)
    assert tree == {0, 2}


# -- indexed reduction against the one-step reference ------------------------

STRATEGY_CELLS = (
    ("baseline", 2),
    ("tradeoff", 2),
    ("tradeoff", 3),
    ("error_sensitive", 2),
    ("error_sensitive", 3),
)


def reduce_by_single_steps(run):
    """Reference for reduce_verified: reduce_once until nothing changes,
    then the lower limit tree of what is left."""
    while limittrees.reduce_once(run):
        pass
    return lower_limit_tree(run)


def strategy_trace(graph, mode, gamma):
    """The strategy run of run_combined, without the oracle, as a comparable
    record: events, verified tree, and both removal maps."""
    run = strategies.solve(graph, StrategyConfig(gamma=gamma, mode=mode)).run
    return run.transcript.events, run.transcript.final_tree, run.removed, run.removed_unqueried


def equivalence_instances(corpus_by_rate):
    # every fifth corpus instance: 5 is coprime to the corpus' 36-step
    # parameter cycle, so each (vertices, extra edges, overlap) mix is kept
    for rate in sorted(corpus_by_rate):
        yield from corpus_by_rate[rate][::5]
    for n in (4, 8, 16):
        yield factory.gen_vc_flip(n, "ex2")
        yield factory.gen_path_parallel(n)
        yield factory.gen_triangle_chain(n)
    yield factory.gen_random(40, 40, 0.9, 0.3, seed=5)
    yield factory.gen_random(60, 60, 0.95, 0.5, seed=6)
    yield factory.gen_random(70, 70, 0.95, 0.0, seed=7)


def test_reduce_verified_matches_single_steps(corpus_by_rate, monkeypatch):
    instances = list(equivalence_instances(corpus_by_rate))
    indexed = [strategy_trace(g, mode, gamma) for g in instances for mode, gamma in STRATEGY_CELLS]
    monkeypatch.setattr(limittrees, "reduce_verified", reduce_by_single_steps)
    reference = [strategy_trace(g, mode, gamma) for g in instances for mode, gamma in STRATEGY_CELLS]
    for got, want in zip(indexed, reference):
        assert got == want


def test_reduce_verified_returns_the_lower_limit_tree(corpus_by_rate, monkeypatch):
    indexed = limittrees.reduce_verified
    contracting_calls = 0

    def checked(run):
        before = len(run.contracted_ids())
        tree = indexed(run)
        assert tree == lower_limit_tree(run)
        nonlocal contracting_calls
        contracting_calls += len(run.contracted_ids()) > before
        return tree

    monkeypatch.setattr(limittrees, "reduce_verified", checked)
    for g in equivalence_instances(corpus_by_rate):
        for mode, gamma in STRATEGY_CELLS:
            strategy_trace(g, mode, gamma)
    assert contracting_calls > 1000


@pytest.mark.parametrize("reduce", (False, True))
def test_limit_tree_cycles_and_cuts_match_per_edge_scans(corpus_by_rate, reduce):
    instances = [g for rate in sorted(corpus_by_rate) for g in corpus_by_rate[rate][:100]]
    instances += [factory.gen_vc_flip(8, "ex2"), factory.gen_triangle_chain(8)]
    instances.append(factory.gen_random(40, 40, 0.9, 0.3, seed=5))
    for g in instances:
        run = QueryRun(g)
        if reduce:
            ensure_unique_limit_trees(run)
            index = compute_limit_trees(run)
            assert index.tree == index.covers.keys()
        else:
            # the held index of a fresh session, whose trees need not be unique
            index = limittrees._held_lower(run)
        tree = set(index.covers)
        assert set(index.paths) == set(run.present_ids()) - tree
        for f, path in index.paths.items():
            assert [f] + path == tree_cycle(run, tree, f)
        for l, cover in index.covers.items():
            assert sorted(cover | {l}) == tree_cut(run, tree, l)


# -- integer ranks against the exact values ----------------------------------


def sign(a, b):
    return (a > b) - (a < b)


def assert_ranks_match_values(run, table):
    """Every comparison the core makes on ranks has the sign of the same
    comparison on the exact values, for every ordered pair of present
    edges: the limit keys against each other, the low and high ends, and a
    prediction (or known value) and the run's value-table entry against an
    end."""
    lo, hi, pred, rank = run.lo, run.hi, run.pred, run.ranking.rank
    lower, upper = run.lower, run.upper
    ids = run.present_ids()
    iv = {e: run.interval(e) for e in ids}
    exact_lower = {e: lower_key(iv[e]) for e in ids}
    exact_upper = {e: upper_key(iv[e]) for e in ids}
    points = {}  # edge -> (rank, exact value) of its ends, prediction and table entry
    for e in ids:
        assert (lo[e] == hi[e]) == iv[e].is_trivial == run.is_trivial(e)
        if iv[e].is_trivial:
            assert lower[e] == upper[e] == 3 * lo[e]
            guess = (lo[e], iv[e].low)
        else:
            guess = (pred[e], run.predicted(e))
        value = table[e]
        points[e] = ((lo[e], iv[e].low), (hi[e], iv[e].high), guess, (rank[value], value))
    for e in ids:
        for f in ids:
            assert sign(lower[e], lower[f]) == sign(exact_lower[e], exact_lower[f])
            assert sign(upper[e], upper[f]) == sign(exact_upper[e], exact_upper[f])
            assert sign(lower[e], upper[f]) == sign(exact_lower[e], exact_upper[f])
            for mine, exact in points[e]:
                assert sign(mine, lo[f]) == sign(exact, iv[f].low)
                assert sign(mine, hi[f]) == sign(exact, iv[f].high)
            assert run.intersects(e, f) == iv[e].intersects(iv[f])


def rank_graphs():
    graphs = [g for rate in ERROR_RATES for g in build_corpus(rate, 60)]
    return graphs + [kernel_case(seed)[0] for seed in range(150)]


def test_ranks_match_values_on_graphs():
    for g in rank_graphs():
        for source, values in (("truth", g.true_values()), ("predictions", g.predicted_values())):
            run = QueryRun(g, source)
            assert run.ranking.rank is g.ranking.rank
            assert_ranks_match_values(run, values)
            for eid in run.non_trivial_ids():
                run.reveal(eid)
            assert_ranks_match_values(run, values)


def test_ranks_match_values_after_every_reveal_of_live_runs(monkeypatch):
    checked = []

    class CheckedRun(QueryRun):
        """The session run_combined drives; the oracle's sessions and forks
        stay plain."""

        def reveal(self, eid):
            value = super().reveal(eid)
            assert_ranks_match_values(self, self.graph_readonly().true_values())
            checked.append(eid)
            return value

    monkeypatch.setattr(strategies, "QueryRun", CheckedRun)
    for g in rank_graphs():
        for mode in ("tradeoff", "error_sensitive"):
            for gamma in (2, 3):
                run_combined(g, StrategyConfig(gamma=gamma, mode=mode))
    assert len(checked) > 4000


def test_unique_limit_trees_equal_compute_limit_trees(corpus_by_rate):
    for g in [g for rate in sorted(corpus_by_rate) for g in corpus_by_rate[rate][:60]]:
        run = QueryRun(g)
        trees = unique_limit_trees(run)
        assert trees == compute_limit_trees(run)
