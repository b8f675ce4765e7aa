"""A graph's reduced start, shared by the sessions over it.

The first verified reduction of a session that has made no move depends
only on its graph, so `limittrees` keeps the state it leaves per graph and
copies it into every later unmoved session over that graph.  These tests
hold a copied start to the one a session over a fresh copy of the graph
computes, attribute by attribute and the held index in full, also after
sessions that copied it have moved; check that a session that has moved,
or a fork of one, computes its own; that the copy changes the session's
own containers, as the moves would; and that a session that copies a start
never builds the incidence sets of the whole graph.
"""

from collections import Counter

from cases import ERROR_RATES, build_corpus, kernel_case, live_graphs, tied_case
from mstquery import factory, graphcore, limittrees, strategies
from mstquery.graphcore import QueryRun, UncertainGraph
from mstquery.limittrees import reduce_verified
from test_held_trees import assert_held_matches_a_rebuild, bundle_graphs


def count_restores(monkeypatch):
    """Count the sessions that copy a start, by graph."""
    seen = Counter()
    restore = limittrees._restore

    def counted(run, start):
        seen[id(run.graph_readonly())] += 1
        restore(run, start)

    monkeypatch.setattr(limittrees, "_restore", counted)
    return seen


def reduced(graph, source="truth"):
    run = QueryRun(graph, source)
    reduce_verified(run)
    return run


def computed(graph, source="truth"):
    """A reduced session over a fresh copy of `graph`, which holds no start."""
    return reduced(UncertainGraph(graph.vertex_count, graph.edges), source)


def assert_same_state(run, reference):
    """Every attribute of `run` equals the reference's, but the value source
    and the graph object; the incidence sets as read, which builds them
    where neither session has; the held index in full: path order, each
    cover, the order of both maps, and every count, list and set."""
    mine, theirs = vars(run), vars(reference)
    assert mine.keys() == theirs.keys()
    for name in mine.keys() - {"_values", "_graph", "ranking", "transcript", "_limit_trees", "_incidence"}:
        assert mine[name] == theirs[name], name
    assert run._incident == reference._incident
    assert run.ranking == reference.ranking
    assert run.transcript.events == reference.transcript.events
    assert run.transcript.final_tree == reference.transcript.final_tree
    index, other = run._limit_trees, reference._limit_trees
    assert list(index.paths.items()) == list(other.paths.items())
    assert list(index.covers.items()) == list(other.covers.items())
    assert vars(index.tally) == vars(other.tally)


def test_a_copied_start_is_the_computed_one_and_survives_the_sessions_that_copied_it(monkeypatch):
    seen = count_restores(monkeypatch)
    graphs = live_graphs() + bundle_graphs() + [tied_case(seed) for seed in range(120)]
    for g in graphs:
        first = reduced(g)
        assert g in limittrees._STARTS and not seen[id(g)]
        truth, predictions = reduced(g), reduced(g, "predictions")
        assert seen[id(g)] == 2
        kept = vars(limittrees._STARTS[g].index.tally)
        for run, source in ((first, "truth"), (truth, "truth"), (predictions, "predictions")):
            reference = computed(g, source)
            assert_same_state(run, reference)
            assert_held_matches_a_rebuild(run)
            # every count list and id set is the session's own, not the start's
            mine = vars(run._limit_trees.tally)
            assert not [name for name, value in mine.items() if isinstance(value, (list, set)) and value is kept[name]]
        # the sessions that copied the start move on their own copies
        strategies.run_baseline(truth)
        strategies.make_prediction_mandatory_free(predictions, 2)
        strategies.phase2_error_sensitive(predictions)
        assert limittrees.is_solved(truth) is not None and limittrees.is_solved(predictions) is not None
        third = reduced(g)
        assert seen[id(g)] == 3
        assert_same_state(third, computed(g))
        assert_held_matches_a_rebuild(third)


def test_a_session_that_has_moved_and_its_forks_compute_their_reduction(monkeypatch):
    seen = count_restores(monkeypatch)
    for seed in range(40):
        g, _ = kernel_case(seed)
        reduced(g)
        open_ids = QueryRun(g).non_trivial_ids()
        moved = QueryRun(g)
        moved.reveal(open_ids[0])
        fork = moved.fork()
        recorded = QueryRun(g)
        recorded.transcript.record("phase", tag="phase2")
        for run in (moved, fork, recorded):
            reduce_verified(run)
            assert_held_matches_a_rebuild(run)
        assert not seen[id(g)]
        twin = UncertainGraph(g.vertex_count, g.edges)
        other = QueryRun(twin)
        other.reveal(open_ids[0])
        reduce_verified(other)
        assert_same_state(moved, other)
        # a reduction after a move keeps no start
        assert twin not in limittrees._STARTS


def test_the_copy_changes_the_sessions_own_containers():
    def containers(run):
        return run.present, run.ends, run._incident, run.removed, run.removed_unqueried, run.transcript.events

    moved = 0
    for g in [factory.gen_path_parallel(8), factory.gen_triangle_chain(8)] + [tied_case(seed) for seed in range(30)]:
        reduced(g)
        run = QueryRun(g)
        held = containers(run)
        reduce_verified(run)
        assert all(mine is kept for mine, kept in zip(containers(run), held))
        assert_same_state(run, computed(g))
        moved += len(run.transcript.events)
    assert moved > 30


def test_a_session_that_copies_a_start_never_builds_the_graph_wide_sets(monkeypatch):
    built = Counter()
    build = graphcore._incidence_sets

    def counted(graph):
        built[id(graph)] += 1
        return build(graph)

    monkeypatch.setattr(graphcore, "_incidence_sets", counted)
    installed = []
    restore = limittrees._restore

    def kept(run, start):
        restore(run, start)
        # a copy: the session's moves go on editing its sets
        installed.append([None if edges is None else set(edges) for edges in run._incidence])

    monkeypatch.setattr(limittrees, "_restore", kept)
    configs = [strategies.StrategyConfig(mode="baseline")] + [
        strategies.StrategyConfig(gamma=gamma, mode=mode) for mode in ("tradeoff", "error_sensitive") for gamma in (2, 3)
    ]
    computing = 0
    for g in [g for rate in ERROR_RATES for g in build_corpus(rate, 25)] + [tied_case(seed) for seed in range(30)]:
        reference = computed(g)._incident
        reduced(g)
        computing += built[id(g)]
        for config in configs:
            installed.clear()
            before = built[id(g)]
            strategies.solve(g, config)
            assert built[id(g)] == before
            assert installed == [reference]
    # the sessions that computed the starts did build their sets
    assert computing > 100
