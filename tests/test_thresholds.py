"""The threshold sweeps of a session that holds no tree, against path walks.

Whether an edge is verified or mandatory depends on one threshold per edge:
for a non-tree edge the largest key on its tree path, for a tree edge the
least key among its covers.  `limittrees._joined_at_most` and
`limittrees._least_covers` read these from two union-find sweeps instead of
walking paths.  These tests hold them to the path index, and hold the three
readers built on them, `reduce_verified` and `is_solved` on a session
holding no tree and `oracle.mandatory_edges`, to the full scans and walks of
`cases`.  Tied keys decide `<=` against `<`, so the tied cases are in every
corpus.
"""

import random
from collections import Counter

from cases import (
    kernel_case,
    large_graphs,
    live_graphs,
    path_index_mandatory,
    scan_verified,
    tied_case,
    walk_is_solved,
)
from mstquery import factory, limittrees
from mstquery.graphcore import QueryRun
from mstquery.limittrees import (
    _joined_at_most,
    _kruskal,
    _least_covers,
    _path_index,
    _rooted,
    is_solved,
    lower_limit_tree,
    reduce_verified,
)
from mstquery.oracle import mandatory_edges
from test_held_trees import assert_held_matches_a_rebuild


def sessions():
    """A fresh session of every graph, and sessions read once and then
    given 1-4 seeded reveals in one batch, which the held tree follows."""
    rng = random.Random(18)
    for g in live_graphs() + large_graphs() + [tied_case(seed) for seed in range(200)]:
        yield QueryRun(g)
        for count in range(1, 5):
            run = QueryRun(g)
            lower_limit_tree(run)
            open_ids = run.non_trivial_ids()
            for e in rng.sample(open_ids, min(count, len(open_ids))):
                run.reveal(e)
            yield run


def holds_a_tree(run):
    return run._limit_trees is not None


def test_the_sweeps_match_the_path_index_on_any_spanning_tree():
    rng = random.Random(5)
    seen = Counter()
    graphs = [tied_case(seed) for seed in range(200)] + [kernel_case(seed)[0] for seed in range(100)]
    for g in graphs:
        run = QueryRun(g)
        for _ in range(3):
            tree = _kruskal(run, [rng.random() for _ in run.lower])
            paths, covers, _ = _path_index(run, tree)
            # few distinct keys, and bounds at and just below each path key,
            # so that most answers turn on a tie
            key = [rng.randrange(4) for _ in run.lower]
            queries = [(key[e] - d, f) for f in paths for e in paths[f] for d in (0, 1)]
            want = sorted((bound, f) for bound, f in queries if all(key[e] <= bound for e in paths[f]))
            assert _joined_at_most(run, tree, key, queries) == want
            seen["joined"] += len(want)
            seen["split"] += len(queries) - len(want)
            order = list(paths)
            rng.shuffle(order)
            at = {f: i for i, f in enumerate(order)}
            first = {l: min(cover, key=at.__getitem__) for l, cover in covers.items() if cover}
            assert _least_covers(run, _rooted(run, tree), order) == first
            seen["covered"] += len(first)
            seen["bridge"] += len(tree) - len(first)
    floors = {"joined": 2500, "split": 5000, "covered": 2200, "bridge": 500}
    assert all(seen[kind] > floor for kind, floor in floors.items()), seen


def test_a_reduction_holding_no_tree_makes_the_moves_of_the_scans():
    seen = Counter()
    for run in sessions():
        tree = _kruskal(run, run.lower)
        want = scan_verified(run, tree, _path_index(run, tree))
        # the session as it is (holding a tree or none), and a fork of it,
        # which holds none
        for session in (run, run.fork()):
            seen["swept" if not holds_a_tree(session) else "held"] += 1
            events = session.transcript.events
            start = len(events)
            left = reduce_verified(session)
            moves = events[start:]
            # the contractions' self-loops are deleted after their contraction
            first = next((i for i, ev in enumerate(moves) if ev.kind == "contract"), len(moves))
            dominated = [ev.edge for ev in moves[:first]]
            contractible = [ev.edge for ev in moves if ev.kind == "contract"]
            assert (dominated, contractible) == want
            assert left == tree.difference(contractible) == _kruskal(session, session.lower)
            assert_held_matches_a_rebuild(session)
        seen["dominated"] += len(want[0])
        seen["contractible"] += len(want[1])
        # with nothing contracted, the fresh reduction indexes the tree it
        # rooted for the sweep
        seen["nothing contracted"] += not want[1]
    floors = {"swept": 3200, "held": 1300, "dominated": 4000, "contractible": 6000, "nothing contracted": 200}
    assert all(seen[kind] > floor for kind, floor in floors.items()), seen


def test_is_solved_with_or_without_a_held_tree_matches_the_walk():
    seen = Counter()
    for run in sessions():
        want = walk_is_solved(run)
        assert is_solved(run) == want
        fork = run.fork()
        assert not holds_a_tree(fork)
        assert is_solved(fork) == want
        assert not holds_a_tree(fork)
        lower_limit_tree(fork)
        assert is_solved(fork) == want
        seen["unsolved" if want is None else "solved"] += 1
    assert seen["solved"] > 600 and seen["unsolved"] > 1600, seen


def test_mandatory_edges_match_the_path_index_thresholds():
    seen = Counter()
    for run in sessions():
        reduced = run.fork()
        reduce_verified(reduced)
        for session in (run, reduced):
            tree = _kruskal(session, session.lower)
            covers = _path_index(session, tree).covers
            # an open bridge has no threshold and is never mandatory
            seen["bridge"] += sum(1 for e in tree if not covers[e] and not session.is_trivial(e))
            for source in ("truth", "predictions"):
                want = path_index_mandatory(session, source)
                assert mandatory_edges(session, source) == want
                weights = [lo if lo == hi else t for lo, hi, t in zip(session.lo, session.hi, session.ranking.table(source))]
                w_tree = _kruskal(session, weights)
                seen["mandatory tree edge"] += len(want & w_tree)
                seen["mandatory non-tree edge"] += len(want - w_tree)
                seen["not mandatory"] += len(session.non_trivial_ids()) - len(want)
    floors = {"bridge": 800, "mandatory tree edge": 7500, "mandatory non-tree edge": 8000, "not mandatory": 17000}
    assert all(seen[kind] > floor for kind, floor in floors.items()), seen


def test_a_fresh_reduction_indexes_only_the_remnant(monkeypatch):
    # one index over what the moves leave, counted in from its own paths
    # alone, and no replay of the moves through the counts
    run = QueryRun(factory.gen_random(160, 160, 0.98, 0.3, 0))
    calls = []
    path_index, tally = limittrees._path_index, limittrees._tally

    def counted_path_index(run, tree, rooted=None):
        calls.append(("index", set(tree)))
        return path_index(run, tree, rooted)

    def counted_tally(t, x, partners, sign, cut=False):
        calls.append(("tally", x, list(partners), sign, cut))
        return tally(t, x, partners, sign, cut)

    monkeypatch.setattr(limittrees, "_path_index", counted_path_index)
    monkeypatch.setattr(limittrees, "_tally", counted_tally)
    full = _kruskal(run, run.lower)
    left = reduce_verified(run)
    paths = run._limit_trees.paths
    assert calls == [("index", left)] + [("tally", f, path, 1, False) for f, path in paths.items()]
    assert len(paths) > 10
    assert left < full and len(run.removed) > 200
