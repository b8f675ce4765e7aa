"""The minor a QueryRun keeps: endpoint table, incidence sets, limit keys.

The session stores each edge's current endpoints, each vertex's present
edges and each edge's two int limit keys, and updates them move by move.
These tests hold the stored state to an independent model after every
move: a union-find replay of the contractions for the endpoints and the
self-loops a contraction leaves, and the exact (base, eps) keys for the
limit keys.  A session that copies its graph's reduced start makes that
reduction's moves without a call per move, so the model replays the
events the copy appends.
"""

import random
from fractions import Fraction

from cases import ERROR_RATES, build_corpus, kernel_case, lower_key, upper_key
from mstquery import factory, limittrees, strategies
from mstquery.graphcore import Interval, QueryRun, UncertainEdge, UncertainGraph
from mstquery.limittrees import ensure_unique_limit_trees, lower_limit_tree
from mstquery.strategies import StrategyConfig, run_combined


def root(parent, x):
    while parent[x] != x:
        x = parent[x]
    return x


def sign(a, b):
    return (a > b) - (a < b)


def replay_contract(parent, graph, present, eid):
    """Merge edge eid's components in the model as the session names them:
    the root with fewer of the `present` edges (those present before the
    contraction) goes under the other, and on a tie the root of the first
    end goes under the root of the second."""
    edge = graph.edge(eid)
    first, second = root(parent, edge.u), root(parent, edge.v)

    def degree(r):
        return sum(1 for e in present if r in (root(parent, graph.edge(e).u), root(parent, graph.edge(e).v)))

    if degree(first) > degree(second):
        first, second = second, first
    parent[first] = second


def assert_minor_matches(run, parent):
    """The stored endpoints, incidence sets, vertex set and limit keys of
    `run` against the union-find model `parent` and the exact keys."""
    graph = run.graph_readonly()
    ids = run.present_ids()
    ends = {}
    for e in ids:
        edge = graph.edge(e)
        ends[e] = (root(parent, edge.u), root(parent, edge.v))
        assert run.endpoints(e) == run.ends[e] == ends[e]
        assert ends[e][0] != ends[e][1]
    live = {root(parent, v) for v in range(graph.vertex_count)}
    assert run.current_vertices() == live
    assert run.vertex_count == len(live)
    for v in range(graph.vertex_count):
        if v in live:
            assert run._incident[v] == {e for e in ids if v in ends[e]}
        else:
            assert run._incident[v] is None
    lower, upper = run.lower, run.upper
    exact_lower = {e: lower_key(run.interval(e)) for e in ids}
    exact_upper = {e: upper_key(run.interval(e)) for e in ids}
    for e in ids:
        for f in ids:
            assert sign(lower[e], lower[f]) == sign(exact_lower[e], exact_lower[f])
            assert sign(upper[e], upper[f]) == sign(exact_upper[e], exact_upper[f])
            assert sign(lower[e], upper[f]) == sign(exact_lower[e], exact_upper[f])


def contract_events(graph, parent, eid, present_before):
    """The events of contracting eid, once the model `parent` has merged its
    ends: the contraction, then the deletion of every edge the contraction
    made a self-loop, in ascending id order."""
    loops = sorted(
        e
        for e in present_before
        if e != eid and root(parent, graph.edge(e).u) == root(parent, graph.edge(e).v)
    )
    return [("contract", eid)] + [("delete", e) for e in loops]


class CheckedRun(QueryRun):
    """A session that checks its stored minor after every move."""

    moves = 0
    restored = 0  # of the moves, those a copied reduced start made

    def __init__(self, graph, source="truth"):
        super().__init__(graph, source)
        self.model = list(range(graph.vertex_count))
        assert_minor_matches(self, self.model)

    def reveal(self, eid):
        value = super().reveal(eid)
        assert_minor_matches(self, self.model)
        CheckedRun.moves += 1
        return value

    def delete(self, eid):
        super().delete(eid)
        assert_minor_matches(self, self.model)
        CheckedRun.moves += 1

    def contract(self, eid):
        present, seen = self.present_ids(), len(self.transcript.events)
        super().contract(eid)
        replay_contract(self.model, self.graph_readonly(), present, eid)
        events = [(ev.kind, ev.edge) for ev in self.transcript.events[seen:]]
        assert events == contract_events(self.graph_readonly(), self.model, eid, present)
        assert_minor_matches(self, self.model)
        CheckedRun.moves += 1

    def replay_restored(self, events):
        """Replay in the model the moves of a reduced start this session
        copied, its `events`: a deletion leaves the components as they
        were, and each contraction, with the self-loops it leaves, is
        replayed on the edges present just before it."""
        graph = self.graph_readonly()
        moves = [(ev.kind, ev.edge) for ev in events]
        present = set(range(len(graph.edges)))
        i = 0
        while i < len(moves):
            kind, eid = moves[i]
            made = [(kind, eid)]
            if kind == "contract":
                replay_contract(self.model, graph, sorted(present), eid)
                made = contract_events(graph, self.model, eid, present)
            assert kind in ("contract", "delete") and moves[i : i + len(made)] == made
            present.difference_update(e for _, e in made)
            i += len(made)
        assert_minor_matches(self, self.model)
        CheckedRun.moves += len(moves)
        CheckedRun.restored += len(moves)


def test_stored_minor_matches_the_model_after_every_move_of_live_runs(monkeypatch):
    # verified reduction deletes an edge parallel to a contractible one
    # before it contracts, so these contractions leave no self-loop; the
    # deletion order is pinned by the multigraph tests below
    monkeypatch.setattr(strategies, "QueryRun", CheckedRun)
    restore = limittrees._restore

    def restored(run, start):
        restore(run, start)
        if isinstance(run, CheckedRun):
            run.replay_restored(start.events)

    monkeypatch.setattr(limittrees, "_restore", restored)
    CheckedRun.moves = CheckedRun.restored = 0
    graphs = [g for rate in ERROR_RATES for g in build_corpus(rate, 30)]
    graphs += [kernel_case(seed)[0] for seed in range(60)]
    graphs += [factory.gen_path_parallel(n) for n in (4, 8)]
    graphs += [factory.gen_vc_flip(n, variant) for n in (4, 8) for variant in ("ex1", "ex2")]
    graphs += [factory.gen_triangle_chain(n) for n in (2, 4)]
    configs = [StrategyConfig(mode="baseline")] + [
        StrategyConfig(gamma=gamma, mode=mode)
        for mode in ("tradeoff", "error_sensitive")
        for gamma in (2, 3)
    ]
    for g in graphs:
        for config in configs:
            run_combined(g, config)
    assert CheckedRun.moves > 9000 and CheckedRun.restored > 2000


# -- forks -------------------------------------------------------------------


def stored_state(run):
    return (
        list(run.ends),
        [None if edges is None else set(edges) for edges in run._incident],
        list(run.lower),
        list(run.upper),
        list(run.lo),
        list(run.hi),
        run.vertex_count,
        run.present_ids(),
    )


def churn(run):
    """Reveal every open edge, then contract the lower limit tree edge by
    edge: every kind of move, until one vertex is left."""
    for eid in run.non_trivial_ids():
        run.reveal(eid)
    ensure_unique_limit_trees(run)
    for eid in sorted(lower_limit_tree(run)):
        if run.is_present(eid):
            run.contract(eid)
    assert run.vertex_count == 1


def test_moves_in_a_fork_leave_the_parent_as_it_was():
    for seed in range(40):
        g, _ = kernel_case(seed)
        parent = QueryRun(g)
        ids = parent.non_trivial_ids()
        for eid in ids[: len(ids) // 2]:
            parent.reveal(eid)
        ensure_unique_limit_trees(parent)
        before = stored_state(parent)
        for source in (None, "truth", "predictions"):
            fork = parent.fork(source)
            assert stored_state(fork)[:2] == before[:2]
            churn(fork)
            assert stored_state(parent) == before
        # and the other way round: the parent's moves leave a fork alone
        fork = parent.fork("predictions")
        kept = stored_state(fork)
        churn(parent)
        assert stored_state(fork) == kept


def test_a_fork_of_a_session_that_has_not_built_its_sets_builds_none():
    for seed in range(40):
        g, _ = kernel_case(seed)
        unbuilt, built = QueryRun(g), QueryRun(g)
        built.current_vertices()
        for run in (unbuilt, built):
            run.reveal(run.non_trivial_ids()[0])
        assert unbuilt._incidence is None and built._incidence is not None
        forks = [unbuilt.fork(), built.fork()]
        assert forks[0]._incidence is None and unbuilt._incidence is None
        for fork in forks:
            churn(fork)
        assert stored_state(forks[0]) == stored_state(forks[1])


# -- contraction on a multigraph -----------------------------------------------


def multigraph(vertices, pairs):
    """Edges on the given vertex pairs, ids in list order, all open."""
    edges = [
        UncertainEdge(eid, u, v, Interval.open(eid, eid + 2), Fraction(2 * eid + 1, 2), Fraction(eid + 1))
        for eid, (u, v) in enumerate(pairs)
    ]
    return UncertainGraph(vertices, edges)


def test_contraction_deletes_parallels_made_by_earlier_contractions():
    # a path 0-1-...-8 and a centre 9 joined to every path vertex; the path
    # edges get the high ids, so the spokes are not parallel at first
    spokes = [(9, v) for v in (4, 0, 7, 2, 8, 5, 1, 3, 6)]
    path = [(v, v + 1) for v in range(8)]
    g = multigraph(10, spokes + path)
    run = CheckedRun(g)
    path_ids = list(range(len(spokes), len(spokes) + len(path)))
    # merging 0..4 makes the spokes 0 to 4 (ids 0, 1, 3, 6, 7) parallel, and
    # merging 5..8 makes the spokes 5 to 8 (ids 2, 4, 5, 8) parallel
    for eid in path_ids[:4] + path_ids[5:]:
        run.contract(eid)
    assert run.present_ids() == list(range(len(spokes))) + [path_ids[4]]
    # contracting spoke 4 (id 0) leaves the other spokes of 0..4 as loops
    start = len(run.transcript.events)
    run.contract(0)
    deleted = [ev.edge for ev in run.transcript.events[start:] if ev.kind == "delete"]
    assert deleted == [1, 3, 6, 7]
    # now the centre holds 0..4; contracting spoke 5 (id 5) deletes the
    # other spokes of 5..8 and the path edge between 4 and 5
    start = len(run.transcript.events)
    run.contract(5)
    deleted = [ev.edge for ev in run.transcript.events[start:] if ev.kind == "delete"]
    assert deleted == [2, 4, 8, path_ids[4]]
    assert run.present_ids() == [] and run.vertex_count == 1


def test_random_contraction_sequences_on_multigraphs():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(3, 9)
        pairs = [(v, rng.randrange(v)) for v in range(1, n)]
        pairs += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(n, 4 * n))]
        rng.shuffle(pairs)
        run = CheckedRun(multigraph(n, pairs))
        while run.vertex_count > 1:
            run.contract(rng.choice(run.present_ids()))
        assert run.present_ids() == []


# -- the smaller side is relabelled ---------------------------------------------


def contract_counting(run, eid):
    """Contract eid; returns how many endpoint entries changed, and the
    smaller of its two ends' present edges other than eid."""
    a, b = run.ends[eid]
    smaller = min(len(run._incident[a]), len(run._incident[b])) - 1
    before = list(run.ends)
    run.contract(eid)
    return sum(1 for x, y in zip(before, run.ends) if x != y), smaller


def test_contracting_a_spoke_relabels_the_leaf_side():
    # a star on centre 0 with leaves 1..6, and leaf 7 hung on leaf 1: the
    # spoke to 1 joins the centre's six edges to leaf 1's two, in either
    # order of its ends, so one edge (1-7) is relabelled and the centre
    # keeps its name
    for spoke in ((0, 1), (1, 0)):
        pairs = [spoke] + [(0, v) for v in range(2, 7)] + [(1, 7)]
        run = CheckedRun(multigraph(8, pairs))
        changed, smaller = contract_counting(run, 0)
        assert changed == smaller == 1
        assert run.ends[len(pairs) - 1] == (0, 7)
        assert run._incident[1] is None and len(run._incident[0]) == 6


def test_contracting_a_spanning_tree_relabels_at_most_m_log_n_entries():
    for seed in range(6):
        g = factory.gen_random(40, 80, 0.9, 0.3, seed)
        m, bound = len(g.edges), len(g.edges) * (g.vertex_count - 1).bit_length()
        for order in ("ids", "shuffled"):
            run = QueryRun(g)
            tree = sorted(lower_limit_tree(run))
            if order == "shuffled":
                random.Random(seed).shuffle(tree)
            total = 0
            for eid in tree:
                if run.is_present(eid):
                    changed, smaller = contract_counting(run, eid)
                    assert changed == smaller
                    total += changed
            assert run.vertex_count == 1 and m > 100
            assert 0 < total <= bound, (seed, order, total, bound)
