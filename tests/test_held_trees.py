"""The limit trees a session holds between reads, against a rebuild.

`limittrees` keeps each session's lower limit tree, its path index and the
index's blocking-pair counts, and each move updates them as it is made.
These tests hold that state to the from-scratch reference, `_kruskal` over
the session's keys, `_path_index` over the lower tree and a recount of
every pair, after every move of live strategy runs, at every read, after
batched reveals, after moves that must drop the held state,
across forks, and against callers that keep or change a tree they were
handed as a set, or read the read-only view that a `LimitTrees` is.  The
verdicts read from the counts are held to the full scans of `cases`.  The
upper limit tree is not held; the "differ" verdict stands in for comparing
it with the lower tree, and is held to that comparison too.  Two facts the
run path rests on are checked on live runs: a reveal only raises the
revealed edge's lower key, so only a revealed tree edge ever swaps out (I1),
and a session certified with reduction holds only open edges (I2).
"""

import random
from collections import Counter
from fractions import Fraction

import pytest
from cases import (
    ERROR_RATES,
    build_corpus,
    kernel_case,
    large_graphs,
    live_graphs,
    pair_counts,
    scan_uniqueness_gap,
    scan_verified,
    tied_case,
)
from mstquery import factory, limittrees, strategies
from mstquery.graphcore import Interval, PreconditionViolated, QueryRun, UncertainEdge, UncertainGraph
from mstquery.limittrees import (
    _kruskal,
    _path_index,
    compute_limit_trees,
    ensure_unique_limit_trees,
    is_solved,
    lower_limit_tree,
    reduce_verified,
    unique_limit_trees,
    upper_limit_tree,
)
from mstquery.strategies import StrategyConfig, run_combined


def recount(run, index):
    """The blocking-pair counts of `index` at the session's ranks, pair by
    pair: the reference for `limittrees._Tally`."""
    pairs = [(f, e) for f, path in index.paths.items() for e in path]
    return pair_counts(run.lo, run.hi, run.upper, run.lower, pairs)


def assert_held_matches_a_rebuild(run, seen=None):
    """Every part the session holds equals its from-scratch reference: the
    lower tree, each path in order, each cover, every pair count and
    nonzero set, counted at the session's current ranks, and the kept set
    of present edges in no bad pair."""
    index = run._limit_trees
    if index is None:
        return
    lower = _kruskal(run, run.lower)
    assert index.covers.keys() == lower
    reference = _path_index(run, lower)
    assert index.paths == reference.paths
    assert index.covers == reference.covers
    tally = index.tally
    assert (tally.lo, tally.hi, tally.upper, tally.lower) == (run.lo, run.hi, run.upper, run.lower)
    expected = recount(run, reference)
    assert {name: getattr(tally, name) for name in expected} == expected
    assert tally.clear_ids == {x for x in run.present if not expected["bad"][x]}
    if seen is not None:
        seen["index"] += 1


CONFIGS = [StrategyConfig(mode="baseline")] + [
    StrategyConfig(gamma=gamma, mode=mode) for mode in ("tradeoff", "error_sensitive") for gamma in (2, 3)
]


def run_live(graphs, large):
    for g in graphs:
        for config in CONFIGS:
            run_combined(g, config)
    for g in large:
        for config in CONFIGS:
            strategies.solve(g, config)


class CheckedRun(QueryRun):
    """A session that checks its held limit trees after every move."""

    seen = Counter()

    def _check(self, kind, before=None):
        index = self._limit_trees
        # a tree still held after a reveal went through the cover or path
        # rule, or a swap, rather than a rebuild
        if kind == "reveal" and index is not None:
            CheckedRun.seen["lower kept by a reveal"] += 1
            if before is not None and index.covers.keys() != before:
                CheckedRun.seen["swapped"] += 1
        assert_held_matches_a_rebuild(self, CheckedRun.seen)
        CheckedRun.seen[kind] += 1

    def reveal(self, eid):
        index = self._limit_trees
        before = None if index is None else set(index.covers)
        value = super().reveal(eid)
        self._check("reveal", before)
        return value

    def delete(self, eid):
        super().delete(eid)
        self._check("delete")

    def contract(self, eid):
        super().contract(eid)
        self._check("contract")


def watch_swaps(monkeypatch, seen, calls=None):
    """Wrap `limittrees._swap` to assert I1 at every swap, and count in
    `seen` the swaps whose entering edge is parallel to the leaving one
    (its path is that edge alone), the other paths those move, and the
    other swaps; with `calls`, append the `_tally` calls of each parallel
    swap.  I1: the revealed edge e is a tree edge whose reveal raised its
    lower key above the one its pairs are counted at, and it is the edge
    that leaves, for its lightest cover."""
    swap, tally = limittrees._swap, limittrees._tally
    made = [0]

    def counted(*args, **kwargs):
        made[0] += 1
        return tally(*args, **kwargs)

    def watched(run, index, e):
        paths, covers, keys = index.paths, index.covers, run.lower
        assert e in covers and keys[e] > index.tally.lower[e]
        enter = min(covers[e], key=lambda x: (keys[x], x))
        parallel = paths[enter] == [e]
        moved = len(covers[e]) - 1
        made[0] = 0
        swap(run, index, e)
        assert e in paths and enter in covers
        if parallel:
            seen["parallel"] += 1
            seen["moved covers"] += moved
            if calls is not None:
                calls.append(made[0])
        else:
            seen["not parallel"] += 1

    monkeypatch.setattr(limittrees, "_swap", watched)
    monkeypatch.setattr(limittrees, "_tally", counted)


def bundle_graphs():
    """Graphs whose swaps are mostly between parallel edges."""
    graphs = [factory.gen_path_parallel(n) for n in (8, 32, 64)]
    graphs += [factory.gen_vc_flip(32, variant) for variant in ("ex1", "ex2")]
    return graphs + [factory.gen_triangle_chain(32)]


def test_held_trees_match_a_rebuild_after_every_move_of_live_runs(monkeypatch):
    monkeypatch.setattr(strategies, "QueryRun", CheckedRun)
    CheckedRun.seen = Counter()
    swaps = Counter()
    watch_swaps(monkeypatch, swaps)
    # a fresh reduction holds no tree while it moves, so its moves check
    # nothing; more graphs keep the count of checked states up, and the
    # bundles the count of parallel swaps
    more = [factory.gen_path_parallel(12), factory.gen_triangle_chain(12), factory.gen_random(60, 60, 0.95, 0.5, seed=9)]
    run_live(live_graphs(), large_graphs() + more + bundle_graphs())
    seen = CheckedRun.seen
    assert seen["reveal"] + seen["delete"] + seen["contract"] > 20000
    assert seen["lower kept by a reveal"] > 2000
    assert seen["swapped"] > 3000
    assert seen["index"] > 15000
    floors = {"parallel": 2400, "moved covers": 10000, "not parallel": 1200}
    assert all(swaps[kind] > floor for kind, floor in floors.items()), swaps


@pytest.mark.parametrize("n", [16, 32, 64])
def test_a_parallel_swap_makes_a_constant_number_of_kernel_calls(monkeypatch, n):
    # on path-parallel every swap trades a path edge for a parallel one whose
    # cover is up to n paths, which keep their walks and change one id each
    seen, calls = Counter(), []
    watch_swaps(monkeypatch, seen, calls)
    strategies.solve(factory.gen_path_parallel(n), StrategyConfig(gamma=2, mode="error_sensitive"))
    assert seen["parallel"] > n and seen["moved covers"] > n * n / 4, seen
    assert set(calls) == {3}


def test_a_reveal_only_raises_its_edge_and_only_a_revealed_tree_edge_swaps_out(monkeypatch):
    # I1: a reveal's rank lies strictly inside the open interval, so the
    # revealed edge's lower key rises; a revealed non-tree edge stays out of
    # the held tree, and every swap takes the revealed tree edge out
    moved, swaps, seen = limittrees.PathIndex.moved, Counter(), Counter()

    def checked(index, run, kind, e):
        if kind == "reveal":
            assert run.lower[e] > index.tally.lower[e]
            if e not in index.covers:
                tree = set(index.covers)
                moved(index, run, kind, e)
                assert index.covers.keys() == tree
                seen["non-tree reveal"] += 1
                return
        moved(index, run, kind, e)

    monkeypatch.setattr(limittrees.PathIndex, "moved", checked)
    watch_swaps(monkeypatch, swaps)
    run_live(live_graphs(), bundle_graphs())
    assert swaps["parallel"] + swaps["not parallel"] > 3000, swaps
    assert seen["non-tree reveal"] > 800, seen


def test_a_certified_reduced_session_holds_only_open_edges(monkeypatch, corpus_by_rate):
    # I2: when `_certify(run)` returns, the minor is reduced and its limit
    # trees are unique, so no present edge is a point; the strategies read
    # certified states without checking
    certify, seen = limittrees._certify, Counter()

    def checked(run):
        index = certify(run)
        assert all(run.lo[e] != run.hi[e] for e in run.present)
        seen["states"] += 1
        seen["states with edges"] += bool(run.present)
        seen["edges"] += len(run.present)
        return index

    monkeypatch.setattr(limittrees, "_certify", checked)
    graphs = [g for rate in ERROR_RATES for g in corpus_by_rate[rate]] + live_graphs() + bundle_graphs()
    for g in graphs:
        for config in CONFIGS:
            strategies.solve(g, config)
        strategies.opt_exact(g)
    floors = {"states": 30000, "states with edges": 10000, "edges": 60000}
    assert all(seen[kind] > floor for kind, floor in floors.items()), seen


def test_held_trees_match_a_rebuild_at_every_read_of_live_runs(monkeypatch):
    # no check between moves here, as in a plain session: the held state
    # is checked on entry to each function that reads it
    seen = Counter()

    def checked(read):
        def wrapper(run, *args):
            assert_held_matches_a_rebuild(run, seen)
            return read(run, *args)
        return wrapper

    for module, name in ((limittrees, "_held_lower"), (limittrees, "reduce_verified"),
                         (limittrees, "is_solved"), (strategies, "is_solved")):
        monkeypatch.setattr(module, name, checked(getattr(module, name)))
    run_live(live_graphs(), large_graphs()[::2])
    assert seen["index"] > 20000


def test_the_differ_verdict_matches_the_upper_kruskal_at_every_round_of_live_runs(monkeypatch):
    # the upper limit tree is not held: "differ" must hold exactly when the
    # upper Kruskal disagrees with the held lower tree, and upper_limit_tree
    # must be that Kruskal
    gap = limittrees._uniqueness_gap
    seen = Counter()

    def checked(run, index):
        verdict = gap(run, index)
        assert run._limit_trees is index
        lower = index.covers.keys()
        upper = _kruskal(run, run.upper)
        assert (verdict is not None and verdict[0] == "differ") == (upper != lower)
        assert upper_limit_tree(run) == upper
        seen["differ" if upper != lower else "same"] += 1
        return verdict

    monkeypatch.setattr(limittrees, "_uniqueness_gap", checked)
    run_live(live_graphs(), large_graphs()[::2])
    assert seen["differ"] > 2500 and seen["same"] > 7000


def test_the_differ_partner_matches_the_full_upper_kruskal_at_every_differ_verdict(monkeypatch):
    # a "differ" requery must name the least non-trivial edge of the lower
    # tree outside the upper limit tree; when one non-tree edge alone has a
    # "differ" pair it is read off that edge's path, with no Kruskal
    partner, kruskal = limittrees._differ_partner, limittrees._kruskal
    seen, built = Counter(), [0]

    def counted(*args):
        built[0] += 1
        return kruskal(*args)

    def checked(run, index):
        tree = index.covers.keys()
        diff = sorted(e for e in tree - upper_limit_tree(run) if not run.is_trivial(e))
        one = len(index.tally.differ_ids) == 1
        built[0] = 0
        try:
            got = partner(run, index)
        except PreconditionViolated:
            assert not diff
            raise
        finally:
            assert built[0] == (0 if one else 1)
        assert diff and got == diff[0]
        seen["one differ edge" if one else "more differ edges"] += 1
        return got

    monkeypatch.setattr(limittrees, "_kruskal", counted)
    monkeypatch.setattr(limittrees, "_differ_partner", checked)
    run_live(live_graphs(), large_graphs())
    floors = {"one differ edge": 1500, "more differ edges": 1200}
    assert all(seen[kind] > floor for kind, floor in floors.items()), seen


def test_held_verdicts_and_reductions_match_the_scans_of_live_runs(monkeypatch):
    # the verdict and the verified edges are read from the held counts; a
    # scan of every path and cover must find the same at every call
    gap, reduce = limittrees._uniqueness_gap, limittrees.reduce_verified
    seen = Counter()

    def checked_gap(run, index):
        want = scan_uniqueness_gap(run, index)
        verdict = gap(run, index)
        assert verdict == want
        seen["unique" if verdict is None else verdict[0]] += 1
        return verdict

    def checked_reduce(run):
        index = limittrees._held_lower(run)
        want = scan_verified(run, index.covers.keys(), index)
        events = run.transcript.events
        start = len(events)
        tree = reduce(run)
        moves = events[start:]
        # the contractions' self-loops are deleted after their contraction
        first = next((i for i, ev in enumerate(moves) if ev.kind == "contract"), len(moves))
        dominated = [ev.edge for ev in moves[:first]]
        contractible = [ev.edge for ev in moves if ev.kind == "contract"]
        assert (dominated, contractible) == want
        seen["dominated"] += len(dominated)
        seen["contractible"] += len(contractible)
        return tree

    monkeypatch.setattr(limittrees, "_uniqueness_gap", checked_gap)
    monkeypatch.setattr(limittrees, "reduce_verified", checked_reduce)
    # no live graph reaches a lower tie; the tied cases do
    run_live(live_graphs() + [tied_case(seed) for seed in range(200)], large_graphs())
    floors = {"differ": 3000, "upper": 400, "lower": 50, "unique": 8000, "dominated": 6000, "contractible": 8000}
    assert all(seen[kind] > floor for kind, floor in floors.items()), seen


def test_counted_verdicts_match_the_scans_on_any_spanning_tree():
    # on a spanning tree that is not the lower limit tree the counts see
    # cut-rule violations too, where the verdict must raise as the scan does
    rng = random.Random(7)
    seen = Counter()
    graphs = [kernel_case(seed)[0] for seed in range(200)]
    graphs += [g for rate in ERROR_RATES for g in build_corpus(rate, 50)]
    graphs += [factory.gen_vc_flip(n, variant) for n in (4, 6, 8) for variant in ("ex1", "ex2")]
    graphs += [factory.gen_path_parallel(n) for n in (2, 4, 8)] + [factory.gen_triangle_chain(n) for n in (2, 4, 8)]
    graphs += [tied_case(seed) for seed in range(600)]
    for g in graphs:
        run = QueryRun(g)
        for step in range(8):
            keys = run.lower if step % 2 else [rng.random() for _ in run.lower]
            tree = _kruskal(run, keys)
            index = _path_index(run, tree)
            try:
                want = scan_uniqueness_gap(run, index)
            except PreconditionViolated:
                with pytest.raises(PreconditionViolated, match="cut rule"):
                    limittrees._uniqueness_gap(run, index)
                seen["raises"] += 1
            else:
                verdict = limittrees._uniqueness_gap(run, index)
                assert verdict == want
                seen["unique" if verdict is None else verdict[0]] += 1
            dominated, contractible = scan_verified(run, tree, index)
            bad = index.tally.bad
            assert dominated == [f for f in sorted(index.paths) if not bad[f]]
            assert contractible == [l for l in sorted(tree) if not bad[l]]
            assert (index.tally.bad_pairs == 0) == (dominated == sorted(index.paths))
            open_ids = run.non_trivial_ids()
            if open_ids:
                run.reveal(rng.choice(open_ids))
    floors = {"raises": 50, "differ": 3000, "upper": 80, "lower": 20, "unique": 2000}
    assert all(seen[kind] > floor for kind, floor in floors.items()), seen


def kernel_counts(ranks, runs, cut):
    """The counts `limittrees._tally` leaves on a fresh `_Tally` at
    `ranks`, given each (x, partners, sign) of `runs` in turn."""
    size = len(ranks[0])
    bad, differ, tie_up, tie_low = ([0] * size for _ in range(4))
    # every id starts clear, as every present edge of a fresh index does
    ids = set(), set(), set(), set(range(size))
    t = limittrees._Tally(*(list(r) for r in ranks), bad, 0, differ, tie_up, tie_low, *ids)
    for x, partners, sign in runs:
        limittrees._tally(t, x, partners, sign, cut)
    names = ("bad", "differ", "tie_up", "tie_low", "bad_pairs", "differ_ids", "upper_ids", "lower_ids", "clear_ids")
    return {name: getattr(t, name) for name in names}


def test_the_kernel_counts_a_path_or_a_cover_as_the_per_pair_rule_does():
    # random rank tables on a few ranks, so keys tie often and points meet
    # open ends; the pairs are counted in, then some of them out again,
    # once by runs along a path and once by runs along a cover
    rng = random.Random(5)
    seen = Counter()
    for _ in range(400):
        size = rng.randint(2, 24)
        lo, hi = [], []
        for _ in range(size):
            a = rng.randrange(5)
            b = a if rng.random() < 0.3 else rng.randrange(a + 1, 7)
            lo.append(a)
            hi.append(b)
        upper = [3 * b - (a != b) for a, b in zip(lo, hi)]
        lower = [3 * a + (a != b) for a, b in zip(lo, hi)]
        ids = list(range(size))
        rng.shuffle(ids)
        cut = rng.randint(1, size - 1)
        nontree, tree = ids[:cut], ids[cut:]
        pairs = [(f, e) for f in nontree for e in tree if rng.random() < 0.6]
        rng.shuffle(pairs)
        gone = pairs[: rng.randint(0, len(pairs))]
        ranks = (lo, hi, upper, lower)
        want = pair_counts(*ranks, pairs[len(gone):])
        want["clear_ids"] = {x for x, c in enumerate(want["bad"]) if not c}
        for side, by in (("path", 0), ("cover", 1)):
            runs = []
            for sign, counted in ((1, pairs), (-1, gone)):
                grouped = {}
                for pair in counted:
                    grouped.setdefault(pair[by], []).append(pair[1 - by])
                runs += [(x, partners, sign) for x, partners in grouped.items()]
            assert kernel_counts(ranks, runs, by == 1) == want, side
        seen["pairs"] += len(pairs) - len(gone)
        for kind in ("differ_ids", "upper_ids", "lower_ids"):
            seen[kind] += len(want[kind])
        seen["bad"] += want["bad_pairs"]
    floors = {"pairs": 4000, "bad": 2500, "differ_ids": 900, "upper_ids": 180, "lower_ids": 900}
    assert all(seen[kind] > floor for kind, floor in floors.items()), seen


def swaps_alone(run, e, tree):
    """Whether revealing e, and nothing else, changes the lower limit tree."""
    fork = run.fork()
    fork.reveal(e)
    return _kruskal(fork, fork.lower) != tree


def test_batched_reveals_then_one_read_match_a_rebuild():
    # each reveal of a batch updates the held state as it is made, a swap
    # on the keys right after it, so a read after the batch sees the keys
    # of all of them
    rng = random.Random(11)
    seen = Counter()
    graphs = [kernel_case(seed)[0] for seed in range(150)] + [tied_case(seed) for seed in range(300)]
    graphs += [g for rate in ERROR_RATES for g in build_corpus(rate, 40)]
    for g in graphs:
        run = QueryRun(g)
        while True:
            tree = lower_limit_tree(run)
            assert_held_matches_a_rebuild(run)
            open_ids = run.non_trivial_ids()
            if len(open_ids) < 2:
                break
            batch = rng.sample(open_ids, rng.randint(2, min(4, len(open_ids))))
            seen["batch"] += 1
            seen["would swap"] += any(swaps_alone(run, e, tree) for e in batch)
            for e in batch:
                run.reveal(e)
    assert seen["batch"] > 500 and seen["would swap"] > 250


def test_removals_after_a_swapping_reveal_in_one_read():
    # a swap is applied at its reveal, on the endpoints before the moves
    # after it: deleting non-tree edges and contracting tree edges then
    # update the held tree, and neither kind drops it
    rng = random.Random(5)
    seen = Counter()
    graphs = [kernel_case(seed)[0] for seed in range(150)] + [tied_case(seed) for seed in range(300)]
    for g in graphs:
        run = QueryRun(g)
        while run.vertex_count > 2:
            tree = lower_limit_tree(run)
            swapping = [e for e in run.non_trivial_ids() if swaps_alone(run, e, tree)]
            if not swapping:
                break
            run.reveal(rng.choice(swapping))
            kind = rng.choice(("delete", "contract"))
            for _ in range(rng.randint(1, 3)):
                after = _kruskal(run, run.lower)
                targets = sorted(after if kind == "contract" else set(run.present_ids()) - after)
                if targets and run.vertex_count > 1:
                    getattr(run, kind)(rng.choice(targets))
            assert run._limit_trees is not None
            lower_limit_tree(run)
            assert_held_matches_a_rebuild(run)
            seen[kind] += 1
    assert seen["delete"] > 200 and seen["contract"] > 200, seen


def test_a_batch_with_a_swap_then_a_contraction_is_read_without_a_rebuild(monkeypatch):
    # each move updates the held tree as it is made: after a batch of
    # reveals, one of which swaps alone, and the contraction of a tree
    # edge, the read finds the tree held and builds nothing
    rng = random.Random(3)
    seen = Counter()
    graphs = [kernel_case(seed)[0] for seed in range(150)] + [tied_case(seed) for seed in range(300)]

    def rebuild(*args):
        raise AssertionError("the read rebuilt the held tree")

    for g in graphs:
        run = QueryRun(g)
        tree = lower_limit_tree(run)
        open_ids = run.non_trivial_ids()
        swapping = [e for e in open_ids if swaps_alone(run, e, tree)]
        if len(open_ids) < 2 or not swapping:
            continue
        first = rng.choice(swapping)
        rest = [e for e in open_ids if e != first]
        batch = [first] + rng.sample(rest, rng.randint(1, min(3, len(rest))))
        rng.shuffle(batch)
        for e in batch:
            run.reveal(e)
        run.contract(rng.choice(sorted(_kruskal(run, run.lower))))
        with monkeypatch.context() as patched:
            patched.setattr(limittrees, "_kruskal", rebuild)
            patched.setattr(limittrees, "_path_index", rebuild)
            lower_limit_tree(run)
        assert_held_matches_a_rebuild(run)
        seen["batch"] += 1
        seen["batch size"] += len(batch)
    assert seen["batch"] > 200 and seen["batch size"] > 2.5 * seen["batch"], seen


def test_an_upper_key_tie_broken_by_edge_id_is_a_differ_verdict():
    # edge 2 = (1, 5) enters the lower tree before edge 1 = (3, 5); at the
    # upper keys they tie, and the upper Kruskal takes the smaller id first
    g = UncertainGraph(3, [
        UncertainEdge(0, 0, 1, Interval.point(0), Fraction(0), Fraction(0)),
        UncertainEdge(1, 1, 2, Interval.open(3, 5), Fraction(4), Fraction(4)),
        UncertainEdge(2, 0, 2, Interval.open(1, 5), Fraction(2), Fraction(2)),
    ])
    run = QueryRun(g)
    assert lower_limit_tree(run) == {0, 2} and upper_limit_tree(run) == {0, 1}
    index = limittrees._held_lower(run)
    assert limittrees._uniqueness_gap(run, index) == ("differ", 1, 2)
    assert not limittrees.limit_trees_unique(run)
    with pytest.raises(PreconditionViolated, match="differ"):
        compute_limit_trees(run)
    assert ensure_unique_limit_trees(run) == [2]
    assert limittrees.limit_trees_unique(run)


# -- moves that must drop the held state ---------------------------------------


def held_session(g):
    """A session holding the lower limit tree and its index, with no edge
    removed."""
    run = QueryRun(g)
    index = limittrees._held_lower(run)
    upper_limit_tree(run)
    assert run._limit_trees is index
    return run, index


def test_contracting_a_non_tree_edge_rebuilds_the_trees():
    contracted = 0
    for seed in range(60):
        g, _ = kernel_case(seed)
        run, index = held_session(g)
        nontree = sorted(index.paths)
        if not nontree:
            continue
        f = nontree[0]
        run.contract(f)
        assert run._limit_trees is None
        assert lower_limit_tree(run) == _kruskal(run, run.lower)
        assert upper_limit_tree(run) == _kruskal(run, run.upper)
        limittrees._held_lower(run)
        assert_held_matches_a_rebuild(run)
        contracted += 1
    assert contracted > 40


def test_deleting_a_tree_edge_rebuilds_the_trees():
    deleted = 0
    for seed in range(60):
        g, _ = kernel_case(seed)
        run, index = held_session(g)
        # a tree edge with a cover is on a cycle, so the graph stays connected
        covered = sorted(l for l, covers in index.covers.items() if covers)
        if not covered:
            continue
        l = covered[0]
        run.delete(l)
        assert run._limit_trees is None
        assert lower_limit_tree(run) == _kruskal(run, run.lower)
        assert upper_limit_tree(run) == _kruskal(run, run.upper)
        limittrees._held_lower(run)
        assert_held_matches_a_rebuild(run)
        deleted += 1
    assert deleted > 40


# -- forks -------------------------------------------------------------------


def paths_and_covers(trees):
    """Copies of the paths and covers of a LimitTrees or a PathIndex."""
    return (
        {f: list(path) for f, path in trees.paths.items()},
        {l: set(cover) for l, cover in trees.covers.items()},
    )


def snapshot(run):
    index = run._limit_trees
    return (set(index.covers), *paths_and_covers(index))


def churn(run):
    """Reveal every open edge and contract the tree down to one vertex,
    reading and checking the held trees after each move."""
    for eid in run.non_trivial_ids():
        if run.is_trivial(eid):
            continue
        run.reveal(eid)
        limittrees._held_lower(run)
        upper_limit_tree(run)
        assert_held_matches_a_rebuild(run)
    while run.vertex_count > 1:
        run.contract(min(lower_limit_tree(run)))
        upper_limit_tree(run)
        assert_held_matches_a_rebuild(run)


def test_moves_in_a_fork_leave_the_held_trees_of_the_parent_correct():
    for seed in range(40):
        g, _ = kernel_case(seed)
        parent, _ = held_session(g)
        ids = parent.non_trivial_ids()
        for eid in ids[: len(ids) // 2]:
            parent.reveal(eid)
        limittrees._held_lower(parent)
        upper_limit_tree(parent)
        before = snapshot(parent)
        for source in (None, "truth", "predictions"):
            fork = parent.fork(source)
            assert fork._limit_trees is None
            churn(fork)
            assert snapshot(parent) == before
            assert_held_matches_a_rebuild(parent)
        # and the other way round: the parent's moves leave a fork's trees
        fork = parent.fork()
        limittrees._held_lower(fork)
        upper_limit_tree(fork)
        kept = snapshot(fork)
        churn(parent)
        assert snapshot(fork) == kept
        assert_held_matches_a_rebuild(fork)


# -- trees handed to callers ---------------------------------------------------


def handed_graphs():
    """The corpus and kernel cases the trees handed to callers are checked on."""
    graphs = [g for rate in ERROR_RATES for g in build_corpus(rate, 70)]
    return graphs + [kernel_case(seed)[0] for seed in range(100)]


def test_returned_trees_are_copies_of_the_held_state():
    # the functions that return a tree as a set return a copy; a LimitTrees
    # is a view instead (below), so its tree is not kept here
    checked = 0
    for g in handed_graphs():
        run = QueryRun(g)
        kept = []  # (tree a caller was handed, its contents then)
        while True:
            unique_limit_trees(run)
            compute_limit_trees(run)
            handed = [lower_limit_tree(run), upper_limit_tree(run), reduce_verified(run)]
            solved = is_solved(run)
            if solved is not None:
                handed.append(solved)
            # the moves since the last round change nothing a caller holds
            for tree, contents in kept:
                assert tree == contents
                checked += 1
            kept += [(tree, set(tree)) for tree in handed]
            # a caller that changes what it was handed changes nothing held
            changed = [lower_limit_tree(run), upper_limit_tree(run)]
            for tree in changed + ([is_solved(run)] if solved is not None else []):
                tree.clear()
                tree.add(-1)
            assert_held_matches_a_rebuild(run)
            open_ids = run.non_trivial_ids()
            if not open_ids:
                break
            run.reveal(open_ids[len(open_ids) // 2])
    assert checked > 1200


def test_limit_trees_are_read_only_views_of_the_held_state():
    # a LimitTrees is a view of the held index, valid until the session's
    # next move: when handed out it equals a rebuild, it cannot be changed
    # through, and reading it leaves the held state as it was
    checked = 0
    for g in handed_graphs():
        run = QueryRun(g)
        while True:
            for trees in (unique_limit_trees(run), compute_limit_trees(run)):
                lower = _kruskal(run, run.lower)
                assert trees.tree == lower
                assert paths_and_covers(trees) == paths_and_covers(_path_index(run, lower))
                assert trees.nontree_order == sorted(trees.paths, key=lambda f: (run.lower[f], f))
                with pytest.raises(TypeError):
                    trees.paths[-1] = []
                with pytest.raises(TypeError):
                    trees.covers[-1] = set()
                with pytest.raises(AttributeError):
                    trees.tree.clear()
                strategies._vc_structure(run, trees)
                strategies.instance_pred_mandatory_free(run, trees)
                assert_held_matches_a_rebuild(run)
                checked += 1
            open_ids = run.non_trivial_ids()
            if not open_ids:
                break
            run.reveal(open_ids[len(open_ids) // 2])
    assert checked > 1000
