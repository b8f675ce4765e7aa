"""Lower/upper limit trees, uniqueness preprocessing, and solved-state checks.

The lower (upper) limit tree is the MST when every open interval is priced at
its lower (upper) endpoint plus (minus) an infinitesimal.  Keys are exact
lexicographic pairs (base, eps) with eps in {-1, 0, +1}, so the perturbation
never needs a concrete epsilon.  Kruskal with (key, edge id) ordering makes
every tree deterministic.

Every comparison here runs on the session's integer ranks of the exact
values (:class:`~mstquery.graphcore.Ranking`), never on the values: a key
(base, eps) is the single int 3*rank(base) + eps, that is 3*lo+1 for L+eps,
3*hi-1 for U-eps and 3*r for a known value r.  The ranks preserve order and
ties, and eps only breaks ties between equal bases, so the ints order
exactly as the pairs do; a low or high end compares as its rank.  The
session stores these keys (``run.lower``/``run.upper``, by edge id) and
the endpoint table, so Kruskal reads both without building a per-call map.
The tests hold the ints to the exact (base, eps) pairs on the values,
defined in ``tests/cases.py``.

Cycles and cuts come from the tree's path index (:func:`_path_index`): the
tree path of every non-tree edge f, which with f is its cycle, and for
every tree edge l the non-tree edges whose path covers it, which with l are
its cut.  :class:`LimitTrees` hands strategies a view of exactly these.

The session holds the path index of the lower limit tree with its
blocking-pair counts (:class:`_Tally`), or nothing.  The keys of the
index's covers are the tree, which is recorded nowhere else.  Every move
hands itself to the held index as it is made:
:meth:`~mstquery.graphcore.QueryRun.reveal`, ``contract`` and ``delete``
call :meth:`PathIndex.moved` once per edge they change (a contraction also
for the deletion of every self-loop it leaves), and nothing else changes a
key or the minor, but the copy of a reduced start (below), which brings
its own index.  Each move costs O(the paths it changes):

- deleting a non-tree edge leaves the tree; its path goes, and its id
  leaves the covers;
- contracting a tree edge l leaves the tree minus l, and removes l from
  every path that held it, keeping the order of the rest;
- a reveal changes one edge's keys, and only raises its lower key (I1):
  the graph holds every truth and prediction strictly inside its open
  interval, so the revealed rank r has lo < r < hi, and the lower key
  goes from 3*lo+1 to 3*r.  Under the total order (key, edge id) the MST
  is unique, and it stays the MST exactly when the cut rule holds for
  every tree edge against its covers; only the pairs with the revealed
  edge e can change.  A non-tree e only rose above its path, so the tree
  stands unless e is a tree edge with a cover now below it;
- then exactly one edge swaps, the single-change update of Spira and Pan
  (SICOMP 1975): tree edge e leaves for its lightest cover.  Only the
  leaving edge's new path and the paths that held it change.  When the
  entering edge's path is the leaving edge alone, the two are parallel:
  :func:`_swap` writes the entering id in place of the leaving one in
  each such path, which keeps its walk, and hands the leaving edge's
  cover to the entering edge.  Otherwise it splices each path along the
  entering edge's cycle into the one walk :func:`_path_index` writes.  It
  reads the keys and endpoints right after the reveal, which are the
  current ones.

Deleting a tree edge or contracting a non-tree edge drops the held index,
and the next read rebuilds it with Kruskal and :func:`_path_index`.
Readers get a read-only view of the held index (:class:`LimitTrees`):
a view, valid until the session's next move; do not mutate or keep it.
The functions that return a tree as a set return a copy.  A fork starts
with nothing held.

The counts cover every pair (f, e) of a non-tree edge f and a tree edge e
on its path: the bad pairs, high(e) > low(f), and the pairs behind each
uniqueness verdict.  Every count comes from :func:`_tally` alone, which
counts the pairs of one edge with a run of partners in or out, a
non-tree edge with its path or a stretch of it or a tree edge with its
cover, and builds no list of pairs.  A fresh index makes one call per
path, and a move recounts only its own pairs: a reveal the revealed
edge's path or cover, out at its old ranks and in at its new ones; a
deletion the deleted edge's path; a contraction the contracted edge's
cover; a swap the entering edge's old path and each stretch of a path it
removes, out, then each stretch it adds and the leaving edge's new path,
in, and a parallel swap the entering edge's old path and the leaving
edge's cover, out, then the entering edge's new cover, in, whatever the
cover's size.  The counts also keep the set of present edges in no bad
pair, updated as a count reaches 0 or leaves it.  So no read scans every
pair or every edge: :func:`reduce_verified` removes the edges of that
set, :func:`is_solved` verifies the tree exactly when no pair is bad, and
:func:`_uniqueness_gap` scans only the one path or cover its verdict
comes from.

No upper tree is held.  The lower tree is the upper one too exactly when
each non-tree edge lies above every edge of its path in the order (upper
key, edge id); :func:`_uniqueness_gap` checks this on the held index.
When it reports "differ" and one non-tree edge f alone has a "differ"
pair, the upper tree is the lower one plus f minus the greatest edge of
f's path (the cycle rule), so :func:`_differ_partner` reads the
difference off that one path.  Only with two or more such edges is the
upper tree built, by one Kruskal over every present edge.

Verified reduction moves on one tree: deleting a non-tree edge changes
neither the tree nor another edge's path, and contracting tree edge l
leaves it minus l, so what the moves leave is the next round's lower limit
tree.  A session that holds no tree needs no index to find the moves
either: each edge's status is one threshold (MST sensitivity analysis,
Tarjan, IPL 1982), the largest high end on a non-tree edge's path or the
least low end among a tree edge's covers, which two union-find sweeps over
one Kruskal tree read, :func:`_joined_at_most` and :func:`_least_covers`.
:func:`is_solved` and the oracle's mandatory edges read them too.

The first verified reduction of a session that has made no move (nothing
queried, removed or recorded) depends on its graph alone: every such
session has the state a new one has, whatever its value source, and the
reduction reads only interval ends and the minor.  So the graph keeps the
state that reduction leaves, its reduced start, while the graph object
lives, and every later unmoved session over it copies that start into its
own containers instead of recomputing it (:func:`reduce_verified`).  The
start keeps the incidence sets of the vertices that survive the reduction
only, and a session that copies it takes those, so it never builds the
sets of the whole graph (see :class:`~mstquery.graphcore.QueryRun`).
Every strategy begins with that reduction, so the strategies run on one
graph object share it.  A session that has moved, and so every fork of
one, computes its own.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from types import MappingProxyType
from typing import AbstractSet, Mapping, NamedTuple, Optional

from .graphcore import Event, PreconditionViolated, QueryRun, UncertainGraph, find, kruskal, rounds


def _kruskal(run: QueryRun, keys) -> set[int]:
    """Minimum spanning tree of the present edges by (keys[eid], edge id)."""
    ids = run.present_ids()
    parent = list(range(run.graph_readonly().vertex_count))
    # ids ascend, so a stable sort by key breaks ties by id
    tree = set(kruskal(sorted(ids, key=keys.__getitem__), run.ends, parent))
    if ids and len(tree) != run.vertex_count - 1:
        raise PreconditionViolated("graph is disconnected; no spanning tree exists")
    return tree


def lower_limit_tree(run: QueryRun) -> set[int]:
    return set(_held_lower(run).covers)


def upper_limit_tree(run: QueryRun) -> set[int]:
    """Kruskal under the upper keys; the session holds no upper tree."""
    return _kruskal(run, run.upper)


def _tree_adjacency(run: QueryRun, tree: set[int]) -> dict[int, list[tuple[int, int]]]:
    adj: dict[int, list[tuple[int, int]]] = {}
    ends = run.ends
    for eid in tree:
        a, b = ends[eid]
        adj.setdefault(a, []).append((b, eid))
        adj.setdefault(b, []).append((a, eid))
    return adj

def _tree_path(adj, start: int, goal: int) -> list[int]:
    """Edge ids along the unique tree path from start to goal."""
    if start == goal:
        return []
    prev: dict[int, tuple[int, int]] = {start: (-1, -1)}
    stack = [start]
    while stack:
        node = stack.pop()
        if node == goal:
            break
        for nbr, eid in adj.get(node, ()):
            if nbr not in prev:
                prev[nbr] = (node, eid)
                stack.append(nbr)
    path = []
    node = goal
    while node != start:
        node, eid = prev[node]
        path.append(eid)
    return path


def tree_cycle(run: QueryRun, tree: set[int], eid: int) -> list[int]:
    """Edges of the unique cycle closed by non-tree edge eid, including eid."""
    a, b = run.endpoints(eid)
    return [eid] + _tree_path(_tree_adjacency(run, tree), a, b)


def tree_cut(run: QueryRun, tree: set[int], eid: int) -> list[int]:
    """Edges crossing the cut split off by removing tree edge eid, including eid."""
    adj = _tree_adjacency(run, tree)
    a, _ = run.endpoints(eid)
    side = {a}
    stack = [a]
    while stack:
        node = stack.pop()
        for nbr, other in adj.get(node, ()):
            if other != eid and nbr not in side:
                side.add(nbr)
                stack.append(nbr)
    cut = []
    ends = run.ends
    for other in run.present_ids():
        x, y = ends[other]
        if (x in side) != (y in side):
            cut.append(other)
    return cut


class PathIndex(NamedTuple):
    """Fundamental paths of a spanning tree, their transpose and their
    blocking-pair counts."""

    paths: dict[int, list[int]]         # non-tree edge -> its tree path
    covers: dict[int, set[int]]         # tree edge -> non-tree edges whose path holds it
    tally: _Tally

    def moved(self, run: QueryRun, kind: str, e: int) -> None:
        """Apply the move `run` just made, "reveal", "delete" or "contract"
        of edge e, to this index, which `run` holds; a move that changes
        the tree other than by a swap drops it from `run` instead."""
        paths, covers, t = self
        if kind == "reveal":
            # a reveal only raises e's lower key (I1), so a non-tree e stays out
            if e not in covers or _stays(self, run.lower, e):
                _recount(run, self, e)
            else:
                _swap(run, self, e)
        elif (kind == "delete") == (e in covers):
            # a tree edge deleted or a non-tree edge contracted
            run._limit_trees = None
        elif kind == "delete":
            path = paths.pop(e)
            # e's pairs count somewhere only if e has a bad pair or a count
            # of its own, or some tree edge holds a lower tie
            if t.bad[e] or t.differ[e] or t.tie_up[e] or t.lower_ids:
                _tally(t, e, path, -1)
            # after its pairs are out, where its count may have reached 0
            t.clear_ids.discard(e)
            for l in path:
                covers[l].discard(e)
        else:
            cover = covers.pop(e)
            # e's pairs count somewhere only if e has a bad pair or a count
            # of its own, or some non-tree edge holds a differ pair or an
            # upper tie
            if t.bad[e] or t.tie_low[e] or t.differ_ids or t.upper_ids:
                _tally(t, e, cover, -1, cut=True)
            t.clear_ids.discard(e)
            for f in cover:
                paths[f].remove(e)


@dataclass
class _Tally:
    """Blocking-pair counts of a held index.  A pair (f, e) is a non-tree
    edge f and a tree edge e on its path.  By edge id:

    - bad[f] and bad[e] count the pairs with hi[e] > lo[f]: f is dominated,
      or e contractible, exactly when its count is 0, and the tree is
      verified exactly when `bad_pairs`, their number, is 0; `clear_ids`
      holds the present edges whose count is 0, the ones a reduction
      removes;
    - differ[f] counts those where e lies above f in the order (upper key,
      edge id);
    - tie_up[f] those where e ties f's upper key (so e < f);
    - tie_low[e] those where f lies below e's lower key (a cut-rule
      violation) or ties it.

    A tie counts whatever the two edges' kind, point or open: verdicts are
    read on reduced states, where no tie verdict pairs two points (see
    :func:`_certify`).  `differ_ids`, `upper_ids` and `lower_ids` hold the
    ids whose differ, tie_up and tie_low count is not 0.  Each pair is
    counted at the ranks `lo`, `hi`, `upper` and `lower` its two edges had
    when it was last counted, so a reveal can take the revealed edge's
    pairs out at its old ranks and put them back at its new ones."""

    lo: list[int]
    hi: list[int]
    upper: list[int]
    lower: list[int]
    bad: list[int]
    bad_pairs: int
    differ: list[int]
    tie_up: list[int]
    tie_low: list[int]
    differ_ids: set[int]
    upper_ids: set[int]
    lower_ids: set[int]
    clear_ids: set[int]


def _rooted(run: QueryRun, tree: set[int]) -> tuple[list[int], list[int], list[int]]:
    """The (connected) `tree` rooted at one of its vertices, as lists by
    vertex: each vertex's parent, edge to the parent and depth.  The root
    is its own parent by edge -1; a vertex off the tree has depth -1."""
    count = run.graph_readonly().vertex_count
    adj = _tree_adjacency(run, tree)
    parent, edge, depth = list(range(count)), [-1] * count, [-1] * count
    reached = list(adj)[:1]
    if reached:
        depth[reached[0]] = 0
    for node in reached:  # breadth first: `reached` grows as it is read
        d = depth[node] + 1
        for nbr, eid in adj[node]:
            if depth[nbr] < 0:
                parent[nbr], edge[nbr], depth[nbr] = node, eid, d
                reached.append(nbr)
    return parent, edge, depth


def _path_index(run: QueryRun, tree: set[int], rooted=None) -> PathIndex:
    """Tree path of every present non-tree edge, in :func:`_tree_path` order,
    so that tree_cycle(f) == [f] + paths[f] and
    tree_cut(l) == sorted(covers[l] | {l}), with the blocking-pair counts
    at the session's current ranks, which :func:`_tally` alone counts.
    `rooted` is the tree rooted by :func:`_rooted`, when the caller has it."""
    parent, edge, depth = rooted or _rooted(run, tree)
    paths: dict[int, list[int]] = {}
    covers: dict[int, set[int]] = {l: set() for l in tree}
    ends = run.ends
    for f in run.present_ids():
        if f in tree:
            continue
        a, b = ends[f]
        from_b: list[int] = []
        from_a: list[int] = []
        while a != b:
            if depth[b] >= depth[a]:
                from_b.append(edge[b])
                b = parent[b]
            else:
                from_a.append(edge[a])
                a = parent[a]
        path = from_b + from_a[::-1]
        paths[f] = path
        for e in path:
            covers[e].add(f)
    bad, differ, tie_up, tie_low = ([0] * len(run.lo) for _ in range(4))
    ranks = list(run.lo), list(run.hi), list(run.upper), list(run.lower)
    # every present edge is clear until a bad pair is counted
    tally = _Tally(*ranks, bad, 0, differ, tie_up, tie_low, set(), set(), set(), set(run.present))
    for f, path in paths.items():
        _tally(tally, f, path, 1)
    return PathIndex(paths, covers, tally)


def _joined_at_most(run: QueryRun, tree: set[int], key, queries: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The queries (bound, f), f a non-tree edge, whose path in `tree` has
    key[e] <= bound for every edge e on it, in ascending order.  A Kruskal
    over the tree edges by key joins f's ends exactly when it has taken
    every edge of that path, so each query is answered once the edges up to
    its bound are in.  The union-find is inlined: on the oracle's small
    graphs, calls would cost more than the finds."""
    ends = run.ends
    parent = list(range(run.graph_readonly().vertex_count))
    edges = sorted(tree, key=key.__getitem__)
    joined, i = [], 0
    for query in sorted(queries):
        bound, f = query
        while i < len(edges) and key[edges[i]] <= bound:
            a, b = ends[edges[i]]
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            parent[a] = b
            i += 1
        a, b = ends[f]
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a == b:
            joined.append(query)
    return joined


def _least_covers(run: QueryRun, rooted, order: list[int]) -> dict[int, int]:
    """Tree edge -> the first non-tree edge of `order` whose path holds it,
    in the tree rooted by :func:`_rooted`; a tree edge on no such path (a
    bridge) is absent.  Each path is painted in turn, and a jump pointer per
    vertex skips to the nearest ancestor whose edge to its parent is still
    unpainted, so every tree edge is visited once."""
    parent, edge, depth = rooted
    jump = list(range(len(parent)))
    first: dict[int, int] = {}
    ends = run.ends
    for f in order:
        a, b = ends[f]
        a, b = find(jump, a), find(jump, b)
        while a != b:
            # the deeper of the two lies below their common ancestor, so
            # its edge to its parent is on f's path
            if depth[a] < depth[b]:
                a, b = b, a
            first[edge[a]] = f
            jump[a] = parent[a]
            a = find(jump, a)
    return first


def _dominated(run: QueryRun, tree: set[int]) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The present non-tree edges f of `tree` as (low(f), f) in ascending
    order, and those of them that dominate their path: high(e) <= low(f)
    for every edge e on it."""
    lo = run.lo
    nontree = [(lo[f], f) for f in run.present_ids() if f not in tree]
    nontree.sort()
    return nontree, _joined_at_most(run, tree, run.hi, nontree)


def _tally(t: _Tally, x: int, partners, sign: int, cut: bool = False) -> None:
    """Count the pairs of edge x with each of `partners` in (sign 1) or out
    (sign -1) at the ranks of `t`: the one rule for every count of
    :class:`_Tally`.  x is a non-tree edge and `partners` edges of its path,
    or with `cut` a tree edge and `partners` edges of its cover.  x's ranks
    are read once and its own counts written once; both loops make the
    same four comparisons, and each id set keeps the ids whose count is
    not 0, but `clear_ids`, which keeps those whose bad count is 0."""
    lo, hi, upper, lower, bad, clear_ids = t.lo, t.hi, t.upper, t.lower, t.bad, t.clear_ids
    ux, wx = upper[x], lower[x]
    n_bad = n_differ = n_tie = 0
    if not cut:
        f, lo_f = x, lo[x]
        differ, tie_low, lower_ids = t.differ, t.tie_low, t.lower_ids
        for e in partners:
            if hi[e] > lo_f:
                c = bad[e] = bad[e] + sign
                if c < 2:
                    clear_ids.discard(e) if c else clear_ids.add(e)
                n_bad += 1
            ue = upper[e]
            if ue >= ux:
                if ue > ux or e > f:
                    n_differ += 1
                else:
                    n_tie += 1
            if wx <= lower[e]:
                c = tie_low[e] = tie_low[e] + sign
                lower_ids.add(e) if c else lower_ids.discard(e)
        if n_differ:
            c = differ[f] = differ[f] + sign * n_differ
            t.differ_ids.add(f) if c else t.differ_ids.discard(f)
        if n_tie:
            c = t.tie_up[f] = t.tie_up[f] + sign * n_tie
            t.upper_ids.add(f) if c else t.upper_ids.discard(f)
    else:
        e, hi_e = x, hi[x]
        differ, tie_up, differ_ids, upper_ids = t.differ, t.tie_up, t.differ_ids, t.upper_ids
        for f in partners:
            if hi_e > lo[f]:
                c = bad[f] = bad[f] + sign
                if c < 2:
                    clear_ids.discard(f) if c else clear_ids.add(f)
                n_bad += 1
            uf = upper[f]
            if ux >= uf:
                if ux > uf or e > f:
                    c = differ[f] = differ[f] + sign
                    differ_ids.add(f) if c else differ_ids.discard(f)
                else:
                    c = tie_up[f] = tie_up[f] + sign
                    upper_ids.add(f) if c else upper_ids.discard(f)
            if lower[f] <= wx:
                n_tie += 1
        if n_tie:
            c = t.tie_low[e] = t.tie_low[e] + sign * n_tie
            t.lower_ids.add(e) if c else t.lower_ids.discard(e)
    if n_bad:
        c = bad[x] = bad[x] + sign * n_bad
        clear_ids.discard(x) if c else clear_ids.add(x)
        t.bad_pairs += sign * n_bad


def _stays(index: PathIndex, keys: list[int], e: int) -> bool:
    """Whether the tree of `index`, the minimum spanning tree under `keys`
    before the key of tree edge e changed, still is one: every cover of e
    is above it in the order (key, edge id)."""
    k = keys[e]
    return all(keys[x] > k or keys[x] == k and x > e for x in index.covers[e])


def _see(run: QueryRun, t: _Tally, e: int) -> None:
    """Take edge e's current ranks as the ones its pairs are counted at."""
    t.lo[e], t.hi[e], t.upper[e], t.lower[e] = run.lo[e], run.hi[e], run.upper[e], run.lower[e]


def _recount(run: QueryRun, index: PathIndex, e: int) -> None:
    """Move the pairs of revealed edge e from its old ranks to its new ones."""
    t, covers = index.tally, index.covers
    cut = e in covers
    partners = covers[e] if cut else index.paths[e]
    _tally(t, e, partners, -1, cut)
    _see(run, t, e)
    _tally(t, e, partners, 1, cut)


def _entry(ends, walk: list[int], i: int, start: int) -> int:
    """The vertex at which `walk`, a walk from vertex `start`, enters its
    i-th edge."""
    if i == 0:
        return start
    a, b = ends[walk[i]]
    return a if a in ends[walk[i - 1]] else b


def _swap(run: QueryRun, index: PathIndex, e: int) -> None:
    """Apply the one swap that revealing tree edge e makes, when
    :func:`_stays` rejects the tree: e leaves for its lightest cover in
    the order (lower key, edge id).  A reveal only raises e's lower key
    (I1, see the module docstring), so no non-tree edge is ever revealed
    into the tree, and the leaving edge is always the revealed one.  Only
    `out`'s new path and the paths that held `out` change.

    When the entering edge's path is `out` alone, the two edges are
    parallel: each path that held `out` takes `enter` at the same
    position, edited in place, and its walk does not change; `out`'s new
    path is `enter` alone, and `enter`'s cover is `out`'s old one with
    `out` in place of `enter`.  So the moved pairs are counted by cut, one
    call for `out` and one for `enter`, whatever the cover's size.
    Otherwise each path is its old walk (from the edge's second end to its
    first) with `out` replaced by the rest of the entering edge's cycle,
    backtracks cancelled, so it is the walk :func:`_path_index` writes."""
    paths, covers, tally = index
    keys = run.lower
    out, enter = e, min(covers[e], key=lambda x: (keys[x], x))
    cycle = paths.pop(enter)
    # every pair of e is counted out at e's old ranks before any is
    # counted in at its new ones
    _tally(tally, enter, cycle, -1)
    if len(cycle) == 1:
        held = covers.pop(out)
        held.discard(enter)
        if held:
            _tally(tally, out, held, -1, cut=True)
        for f in held:
            path = paths[f]
            path[path.index(out)] = enter
        paths[out] = [enter]
        held.add(out)
        covers[enter] = held
        _see(run, tally, e)
        _tally(tally, enter, held, 1, cut=True)
        return
    ends = run.ends
    j = cycle.index(out)
    x = _entry(ends, cycle, j, ends[enter][1])
    rest = cycle[j + 1:] + [enter] + cycle[:j]  # from out's other end round to x
    back = rest[::-1]
    added = []
    for l in cycle:
        covers[l].discard(enter)
    covers[enter] = set()
    for f in covers.pop(out):
        old = paths[f]
        i = old.index(out)
        detour = back if _entry(ends, old, i, ends[f][1]) == x else rest
        # cancel the backtracks where the detour meets the walk on either
        # side of out; `enter`, which the old walk does not hold, stays
        a, s = i, 0
        while a and old[a - 1] == detour[s]:
            a, s = a - 1, s + 1
        b, t = i + 1, len(detour)
        while b < len(old) and old[b] == detour[t - 1]:
            b, t = b + 1, t - 1
        gone, new = old[a:b], detour[s:t]
        paths[f] = old[:a] + new + old[b:]
        _tally(tally, f, gone, -1)
        for l in gone:
            if l != out:
                covers[l].discard(f)
        for l in new:
            covers[l].add(f)
        added.append((f, new))
    paths[out] = back if ends[out][1] == x else rest
    for l in paths[out]:
        covers[l].add(out)
    added.append((out, paths[out]))
    _see(run, tally, e)
    for f, new in added:
        _tally(tally, f, new, 1)


def _copied(index: PathIndex) -> PathIndex:
    """A deep copy of `index`: every path, cover and count list and set is
    new, since the moves edit them in place."""
    paths, covers, t = index
    tally = _Tally(
        list(t.lo), list(t.hi), list(t.upper), list(t.lower), list(t.bad), t.bad_pairs,
        list(t.differ), list(t.tie_up), list(t.tie_low),
        set(t.differ_ids), set(t.upper_ids), set(t.lower_ids), set(t.clear_ids),
    )
    return PathIndex({f: list(path) for f, path in paths.items()}, {l: set(c) for l, c in covers.items()}, tally)


class _Start(NamedTuple):
    """A graph's reduced start: the state that the first verified reduction
    of a session that has made no move leaves, which is the same for every
    such session over the graph (see :func:`reduce_verified`).  `incident`
    holds the incidence set of each vertex of the reduced minor, as
    (vertex, set) pairs; every other vertex was absorbed."""

    ends: tuple[tuple[int, int], ...]
    vertex_count: int
    incident: tuple[tuple[int, frozenset[int]], ...]
    removed: dict[int, str]
    removed_unqueried: dict[int, str]
    events: tuple[Event, ...]
    index: PathIndex


# the reduced start of each graph, held while the graph lives
_STARTS: weakref.WeakKeyDictionary[UncertainGraph, _Start] = weakref.WeakKeyDictionary()


def _kept_start(run: QueryRun) -> _Start:
    """The state of `run` right after its first verified reduction, copied."""
    return _Start(
        tuple(run.ends),
        run.vertex_count,
        tuple((v, frozenset(edges)) for v, edges in enumerate(run._incident) if edges is not None),
        dict(run.removed),
        dict(run.removed_unqueried),
        tuple(run.transcript.events),
        _copied(run._limit_trees),
    )


def _restore(run: QueryRun, start: _Start) -> None:
    """Put `start` into `run`, which has made no move, in place, as its
    moves would: the same containers change, so a reference taken before
    sees the reduction.  The start's incidence sets of the vertices that
    survive it are copied into the session's own list if it has built one,
    and otherwise into a new list, so that the session never builds the
    sets of the whole graph."""
    run.present.difference_update(start.removed)
    run.ends[:] = start.ends
    run.vertex_count = start.vertex_count
    incident: list[Optional[set[int]]] = [None] * run.graph_readonly().vertex_count
    for v, edges in start.incident:
        incident[v] = set(edges)
    if run._incidence is None:
        run._incidence = incident
    else:
        run._incidence[:] = incident
    run.removed.update(start.removed)
    run.removed_unqueried.update(start.removed_unqueried)
    run.transcript.events.extend(start.events)
    run._limit_trees = _copied(start.index)


def _held_lower(run: QueryRun) -> PathIndex:
    """The held path index of the lower limit tree, built if none is held."""
    index = run._limit_trees
    if index is None:
        index = run._limit_trees = _path_index(run, _kruskal(run, run.lower))
    return index


@dataclass
class LimitTrees:
    """Normal form of an instance with unique coinciding limit trees: a
    read-only view of the held tree and its path index, valid until the
    session's next move; do not mutate or keep it.  Non-tree edge f's cycle
    is f and paths[f]; tree edge l's cut is l and covers[l]."""

    tree: AbstractSet[int]              # the common lower = upper limit tree
    nontree_order: list[int]            # non-tree edges by non-decreasing lower limit
    paths: Mapping[int, list[int]]      # non-tree edge -> its tree path
    covers: Mapping[int, set[int]]      # tree edge -> non-tree edges across its cut


def _uniqueness_gap(run: QueryRun, index: PathIndex):
    """Why the lower limit tree indexed by `index` is not the unique limit
    tree, or None if it is.

    ("differ", f, e): the tree is not the upper limit tree, because edge e
    on the path of non-tree edge f lies above f in the order (upper key,
    edge id), so the upper Kruskal keeps f.  Every path is checked for
    this before a tie is returned.  Otherwise ("upper", f, e) for the
    first tie of a path edge e with f's upper key, then ("lower", l, x)
    for the first tie of a cover x with tree edge l's lower key.

    The verdict comes from the counts (:class:`_Tally`) of `index`: the
    least id with a "differ" pair, else with an upper tie, else with a
    lower tie or violation.  Only that one path or cover is scanned for its
    first such pair, in the order a scan of every path in id order, then
    every cover in id order, would meet it; a cover edge below the tree
    edge's lower key raises.
    """
    upper, lower = run.upper, run.lower
    paths, covers, tally = index
    if tally.differ_ids:
        f = min(tally.differ_ids)
        for e in paths[f]:
            if upper[e] > upper[f] or upper[e] == upper[f] and e > f:
                return ("differ", f, e)
    if tally.upper_ids:
        f = min(tally.upper_ids)
        for e in paths[f]:
            if upper[e] == upper[f] and e < f:
                return ("upper", f, e)
    if tally.lower_ids:
        l = min(tally.lower_ids)
        for x in sorted(covers[l]):
            if lower[x] < lower[l]:
                raise PreconditionViolated("lower limit tree violates the cut rule")
            if lower[x] == lower[l]:
                return ("lower", l, x)
    return None


def limit_trees_unique(run: QueryRun) -> bool:
    return _uniqueness_gap(run, _held_lower(run)) is None


def _normal_form(run: QueryRun, index: PathIndex) -> LimitTrees:
    """Read-only views of the held `index`; nothing is copied."""
    lower = run.lower
    nontree = sorted(index.paths, key=lambda e: (lower[e], e))
    return LimitTrees(
        tree=index.covers.keys(),
        nontree_order=nontree,
        paths=MappingProxyType(index.paths),
        covers=MappingProxyType(index.covers),
    )


def compute_limit_trees(run: QueryRun) -> LimitTrees:
    """Cycle/cut structure of a certified session.

    Requires unique coinciding limit trees, which a session certified by
    :func:`ensure_unique_limit_trees` has (:func:`unique_limit_trees` does
    both); raises PreconditionViolated otherwise, a tie between two point
    edges included.
    """
    index = _held_lower(run)
    gap = _uniqueness_gap(run, index)
    if gap is not None:
        what = "differ" if gap[0] == "differ" else "are not unique"
        raise PreconditionViolated(f"limit trees {what}; preprocessing required")
    return _normal_form(run, index)


def is_solved(run: QueryRun) -> Optional[set[int]]:
    """Verified spanning tree of the current instance, or None.

    A tree T is verified when every non-tree edge f dominates its cycle:
    high(e) <= low(f) for every cycle edge e, where high/low are the upper
    and lower endpoint (or known value) of the interval.  Equality is
    admitted because open intervals exclude their endpoints.  Checking the
    lower limit tree alone is complete: any verified tree differs from it
    only by swaps of equal known values.

    When the session holds the lower limit tree, the answer is its count
    of bad pairs (:class:`_Tally`): verified exactly when no pair is bad.
    Otherwise it runs Kruskal and the domination sweep
    (:func:`_joined_at_most`) and holds nothing, so a fresh fork costs two
    union-find passes and no path walk.
    """
    index = run._limit_trees
    if index is not None:
        return None if index.tally.bad_pairs else set(index.covers)
    tree = _kruskal(run, run.lower)
    nontree, dominated = _dominated(run, tree)
    return tree if len(dominated) == len(nontree) else None


def verified_tree_of_original(run: QueryRun) -> Optional[set[int]]:
    """Verified MST of the original instance: contracted edges plus the
    verified tree of the current minor, or None if unsolved."""
    remnant = is_solved(run)
    if remnant is None:
        return None
    return remnant | {e for e, kind in run.removed.items() if kind == "contracted"}


def reduce_once(run: QueryRun) -> bool:
    """Remove one verified edge: delete a non-tree edge that dominates its
    cycle, or contract a tree edge that is no larger than its whole cut.
    Both moves are safe for every realization of the remaining intervals.
    Returns True if the minor changed."""
    tree = lower_limit_tree(run)
    adj = _tree_adjacency(run, tree)
    lo, hi, ends = run.lo, run.hi, run.ends
    for f in run.present_ids():
        if f in tree:
            continue
        a, b = ends[f]
        if all(hi[e] <= lo[f] for e in _tree_path(adj, a, b)):
            run.delete(f)
            return True
    for l in sorted(tree):
        if all(lo[x] >= hi[l] for x in tree_cut(run, tree, l) if x != l):
            run.contract(l)
            return True
    return False


def reduce_verified(run: QueryRun) -> set[int]:
    """Remove every verified edge; returns the lower limit tree left behind.

    Makes exactly the moves of calling :func:`reduce_once` until it returns
    False.  Deleting a non-tree edge changes neither the tree nor another
    edge's path, so every dominated non-tree edge goes first, in id order.
    Contracting tree edge l leaves the tree minus l and every other cover
    as it was, so the contractible tree edges follow in id order.  Neither
    move enables one of the other kind: a dominated edge has low >= high
    of every edge on its path, so it never blocked a contraction, and an
    edge whose path held a contractible l has low >= high(l), so l never
    blocked its domination.  The lower limit tree of the reduced minor is
    therefore the tree minus the contracted edges.

    A session that holds the lower limit tree reads both lists from the set
    its bad-pair counts keep, the present edges in no bad pair; each move
    then updates the held index as it is made, and none drops it.  A
    reduced session's set is empty.  One that holds none (fresh, a fork,
    or dropped by deleting a tree edge or contracting a non-tree edge)
    reads them from the sweeps over one Kruskal tree: f is dominated when
    every edge of its path has high <= low(f), l contractible when it has
    no cover or its least cover by low end has low >= high(l).  It then
    holds the tree minus the contracted edges, with one path index of that
    remnant.

    A session that has made no move (nothing queried, removed or recorded)
    has the state every such session over its graph has, whatever its value
    source, and this reduction reads only the interval ends and the minor.
    So the first such session over a graph keeps a deep copy of what its
    reduction leaves as the graph's reduced start, and every later one
    copies that start into its own containers, in place, as the moves
    would change them, with a deep copy of the index, instead of computing
    it.  A session that has moved, and so every fork of one, computes its
    reduction.
    """
    index = run._limit_trees
    fresh = index is None
    unmoved = fresh and not (run.queried or run.removed or run.transcript.events)
    start = _STARTS.get(run.graph_readonly()) if unmoved else None
    if start is not None:
        _restore(run, start)
        return set(start.index.covers)
    if fresh:
        tree = _kruskal(run, run.lower)
        nontree, joined = _dominated(run, tree)
        dominated = sorted(f for _, f in joined)
        lo, hi = run.lo, run.hi
        rooted = _rooted(run, tree)
        # painted in order of low end, a tree edge's first cover has the
        # least low end of its covers
        first = _least_covers(run, rooted, [f for _, f in nontree])
        contractible = [l for l in sorted(tree) if l not in first or lo[first[l]] >= hi[l]]
    else:
        tree = index.covers
        # a non-tree edge is dominated, and a tree edge contractible, exactly
        # when it is in no bad pair; both lists are fixed before the first
        # move changes the held state
        clear = sorted(index.tally.clear_ids)
        dominated = [f for f in clear if f not in tree]
        contractible = [l for l in clear if l in tree]
    for f in dominated:
        run.delete(f)
    for l in contractible:
        run.contract(l)
    if fresh:
        # deletions leave the tree and its ends, so it stays rooted as it
        # was unless an edge was contracted
        tree = tree.difference(contractible)
        index = run._limit_trees = _path_index(run, tree, None if contractible else rooted)
        if unmoved:
            _STARTS[run.graph_readonly()] = _kept_start(run)
    return set(index.covers)


def ensure_unique_limit_trees(run: QueryRun) -> list[int]:
    """Certify the session: query mandatory edges until the limit trees
    coincide and are unique, on a reduced minor.

    Each round first contracts or deletes every verified edge, then
    requeries a non-trivial edge of the lower-minus-upper difference, or
    resolves an upper-side tie (an equal-upper-limit swap makes the tied
    tree edge mandatory) or a lower-side tie (symmetrically, the tied
    non-tree edge), to a fixpoint.  Every present edge is open on return
    (I2, see :func:`_certify`).  Returns the queried edge ids.
    """
    before = run.query_count
    _certify(run)
    return run.queried[before:]


def unique_limit_trees(run: QueryRun) -> LimitTrees:
    """:func:`ensure_unique_limit_trees`, then the limit trees of the
    result, built from the tree and path index that its final round
    certified; equal to :func:`compute_limit_trees` afterwards.  Every
    present edge of the result is open (I2, see :func:`_certify`)."""
    return _normal_form(run, _certify(run))


def _differ_partner(run: QueryRun, index: PathIndex) -> int:
    """The least non-trivial edge of the lower limit tree held by `index`
    outside the upper limit tree.

    When one non-tree edge f has a "differ" pair, every other non-tree edge
    lies above every edge of its path in the order (upper key, edge id), so
    by the cycle rule the upper tree leaves it out, and it is the lower
    tree plus f minus the greatest edge e* of f's path in that order: the
    difference is e* alone, read off that one path.  With more, one Kruskal
    over every present edge builds the upper tree."""
    differ_ids, upper = index.tally.differ_ids, run.upper
    if len(differ_ids) == 1:
        (f,) = differ_ids
        diff = [max(index.paths[f], key=lambda e: (upper[e], e))]
    else:
        diff = index.covers.keys() - _kruskal(run, upper)
    diff = [e for e in diff if not run.is_trivial(e)]
    if not diff:
        raise PreconditionViolated("limit trees differ only in trivial edges; cannot requery")
    return min(diff)


def _certify(run: QueryRun) -> PathIndex:
    """The rounds of :func:`ensure_unique_limit_trees`; returns the held path
    index of the unique limit tree, which callers must not keep.

    Every present edge is open on return (I2): the minor is reduced and its
    lower limit tree is the unique limit tree.  A point non-tree edge f
    that survives reduction has a path edge e with hi(e) > lo(f), and then
    e lies above f in the order (upper key, edge id), a "differ" pair.  A
    point tree edge l that survives reduction has a cover g with lo(g)
    below its value r; but g is open, by the first case, and lies above l
    in the order (lower key, edge id), so 3*lo(g)+1 > 3*r.  By the first
    case, every verdict read after a reduction with a point non-tree edge
    present is "differ", so no tie verdict pairs two point edges, and a tie
    needs no rule for them."""
    for _ in rounds(run, "ensure_unique_limit_trees"):
        reduce_verified(run)
        index = _held_lower(run)
        gap = _uniqueness_gap(run, index)
        if gap is None:
            return index
        # upper-side tie: swapping the tied tree edge out of the upper tree
        # yields a tree pair whose difference is exactly that edge, so it is
        # mandatory; lower-side tie: symmetrically the tied cut edge is.
        kind, _, partner = gap
        if kind == "differ":
            partner = _differ_partner(run, index)
        run.reveal(partner)
