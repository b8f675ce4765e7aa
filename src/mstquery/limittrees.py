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
session stores these keys and the endpoint table, so Kruskal reads both
without building a per-call map.  The `Interval` keys
:func:`lower_key`/:func:`upper_key` stay the exact definition that the
tests hold the ints to.

Cycles and cuts come from the tree's path index (:func:`_path_index`): the
tree path of every non-tree edge f, which with f is its cycle, and for
every tree edge l the non-tree edges whose path covers it, which with l are
its cut.  :class:`LimitTrees` hands strategies a copy of exactly these.

The session holds the lower limit tree and its path index, together or not
at all, valid at a length of the session's transcript.  The transcript is a
complete log of the moves, since
:meth:`~mstquery.graphcore.QueryRun.reveal`, ``contract`` and ``delete``
each record one event per edge they change (a contraction also records the
deletion of every self-loop it leaves), and nothing else changes a key or
the minor.  Before a read, the moves recorded since are applied to the held
tree, each in O(its path or cover) time:

- deleting a non-tree edge leaves the tree; its path goes, and its id
  leaves the covers;
- contracting a tree edge l leaves the tree minus l, and removes l from
  every path that held it, keeping the order of the rest;
- a reveal changes one edge's keys.  Under the total order (key, edge id)
  the MST is unique, and it stays the MST exactly when the cut rule holds
  for every tree edge against its covers; only the pairs with the revealed
  edge e can change.  So the tree stands unless e is a tree edge with a
  cover now below it, or a non-tree edge with a path edge now above it.

Any other move (a reveal that swaps an edge, deleting a tree edge, or
contracting a non-tree edge) drops the held tree and its index, and the
next read rebuilds both with Kruskal and :func:`_path_index`.  Readers get
copies; the held sets and index stay private to this module.  The keys a
held tree was built on change only by a reveal; a fork gets a new
transcript and starts with nothing held.

No upper tree is held.  The lower tree is the upper one too exactly when
each non-tree edge lies above every edge of its path in the order (upper
key, edge id); :func:`_uniqueness_gap` checks this on the held index, and
only when it reports "differ" does :func:`upper_limit_tree` run Kruskal.

Verified reduction moves on the held tree and index: deleting a non-tree
edge changes neither the tree nor another edge's path, and contracting tree
edge l leaves it minus l, so one tree and one index serve every move of a
call, and what the moves leave is the next round's lower limit tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .graphcore import Interval, PreconditionViolated, QueryRun, kruskal, rounds


lower_key = Interval.lower_key
upper_key = Interval.upper_key


def lower_keys(run: QueryRun) -> list[int]:
    """:func:`lower_key` of every edge's current interval, by edge id, as
    one int: 3*lo+1 for an open interval, 3*lo for a known value.  The
    session's stored list; read-only."""
    return run.lower


def upper_keys(run: QueryRun) -> list[int]:
    """:func:`upper_key` of every edge's current interval, by edge id, as
    one int: 3*hi-1 for an open interval, 3*hi for a known value.  The
    session's stored list; read-only."""
    return run.upper


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
    return set(_held_lower(run).lower)


def upper_limit_tree(run: QueryRun) -> set[int]:
    """Kruskal under the upper keys; the session holds no upper tree."""
    return _kruskal(run, upper_keys(run))


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
    """Fundamental paths of a spanning tree and their transpose."""

    paths: dict[int, list[int]]         # non-tree edge -> its tree path
    covers: dict[int, set[int]]         # tree edge -> non-tree edges whose path holds it


def _path_index(run: QueryRun, tree: set[int]) -> PathIndex:
    """Tree path of every present non-tree edge, in :func:`_tree_path` order,
    so that tree_cycle(f) == [f] + paths[f] and
    tree_cut(l) == sorted(covers[l] | {l})."""
    adj = _tree_adjacency(run, tree)
    # root the (connected) tree: vertex -> (parent vertex, edge to parent, depth)
    up: dict[int, tuple[int, int, int]] = {root: (root, -1, 0) for root in list(adj)[:1]}
    stack = list(up)
    while stack:
        node = stack.pop()
        depth = up[node][2] + 1
        for nbr, eid in adj[node]:
            if nbr not in up:
                up[nbr] = (node, eid, depth)
                stack.append(nbr)
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
            if up[b][2] >= up[a][2]:
                b, eid, _ = up[b]
                from_b.append(eid)
            else:
                a, eid, _ = up[a]
                from_a.append(eid)
        path = from_b + from_a[::-1]
        paths[f] = path
        for l in path:
            covers[l].add(f)
    return PathIndex(paths, covers)


@dataclass
class _Held:
    """The lower limit tree a session holds, valid after its first `at`
    transcript events; None once a move may have changed it."""

    at: int
    lower: Optional[set[int]] = None
    index: Optional[PathIndex] = None   # of `lower`; None exactly when it is


def _stays(tree: set[int], index: PathIndex, keys: list[int], e: int) -> bool:
    """Whether `tree`, the minimum spanning tree under `keys` before the key
    of edge e changed, still is one: every cover of e is above it (e in the
    tree), or every edge on e's path is below it (e outside), in the order
    (key, edge id)."""
    k = keys[e]
    if e in tree:
        return all(keys[x] > k or keys[x] == k and x > e for x in index.covers[e])
    return all(keys[x] < k or keys[x] == k and x < e for x in index.paths[e])


def _synced(run: QueryRun) -> Optional[_Held]:
    """The session's held limit tree with every move recorded since
    applied, or None if it holds none."""
    held: Optional[_Held] = getattr(run, "_limit_trees", None)
    if held is None:
        return None
    events = run.transcript.events
    for ev in events[held.at:]:
        e, kind, tree, index = ev.edge, ev.kind, held.lower, held.index
        if tree is None:
            break
        if kind == "reveal":
            if not _stays(tree, index, run.lower, e):
                held.lower = held.index = None
        elif kind == "delete":
            if e in tree:
                held.lower = held.index = None
            else:
                for l in index.paths.pop(e):
                    index.covers[l].discard(e)
        elif kind == "contract":
            if e not in tree:
                held.lower = held.index = None
            else:
                tree.discard(e)
                for f in index.covers.pop(e):
                    index.paths[f].remove(e)
    held.at = len(events)
    return held


def _held_lower(run: QueryRun) -> _Held:
    """The held state with the lower limit tree and its path index built."""
    held = _synced(run)
    if held is None:
        held = run._limit_trees = _Held(len(run.transcript.events))
    if held.lower is None:
        held.lower = _kruskal(run, lower_keys(run))
        held.index = _path_index(run, held.lower)
    return held


@dataclass
class LimitTrees:
    """Normal form of an instance with unique coinciding limit trees: a
    copy of the held tree and its path index.  Non-tree edge f's cycle is
    f and paths[f]; tree edge l's cut is l and covers[l]."""

    tree: set[int]                      # the common lower = upper limit tree
    nontree_order: list[int]            # non-tree edges by non-decreasing lower limit
    paths: dict[int, list[int]]         # non-tree edge -> its tree path
    covers: dict[int, set[int]]         # tree edge -> non-tree edges across its cut


def _uniqueness_gap(run: QueryRun, index: PathIndex):
    """Why the lower limit tree indexed by `index` is not the unique limit
    tree, or None if it is.

    ("differ", f, e): the tree is not the upper limit tree, because edge e
    on the path of non-tree edge f lies above f in the order (upper key,
    edge id), so the upper Kruskal keeps f.  Every path is checked for
    this before a tie is returned.  Otherwise ("upper", f, e) for the
    first tie of a path edge e with f's upper key, then ("lower", l, x)
    for the first tie of a cover x with tree edge l's lower key.

    Ties between two point intervals cannot be separated by queries and are
    resolved by edge id, so they do not count as violations.
    """
    lo, hi = run.lo, run.hi
    upper, lower = upper_keys(run), lower_keys(run)
    tie = None
    for f in sorted(index.paths):
        kf = upper[f]
        for e in index.paths[f]:
            ke = upper[e]
            if ke < kf:
                continue
            if ke > kf or e > f:
                return ("differ", f, e)
            if tie is None and not (lo[e] == hi[e] and lo[f] == hi[f]):
                tie = ("upper", f, e)
    if tie is not None:
        return tie
    for l in sorted(index.covers):
        kl = lower[l]
        for x in sorted(index.covers[l]):
            kx = lower[x]
            if kx < kl:
                raise PreconditionViolated("lower limit tree violates the cut rule")
            if kx == kl and not (lo[x] == hi[x] and lo[l] == hi[l]):
                return ("lower", l, x)
    return None


def limit_trees_unique(run: QueryRun) -> bool:
    return _uniqueness_gap(run, _held_lower(run).index) is None


def _normal_form(run: QueryRun, tree: set[int], index: PathIndex) -> LimitTrees:
    lower = lower_keys(run)
    nontree = sorted(index.paths, key=lambda e: (lower[e], e))
    paths = {f: list(path) for f, path in index.paths.items()}
    covers = {l: set(cover) for l, cover in index.covers.items()}
    return LimitTrees(tree=tree, nontree_order=nontree, paths=paths, covers=covers)


def compute_limit_trees(run: QueryRun) -> LimitTrees:
    """Cycle/cut structure of the current instance.

    Requires unique coinciding limit trees (establish with
    :func:`ensure_unique_limit_trees` first, or call
    :func:`unique_limit_trees`, which does both).
    """
    held = _held_lower(run)
    gap = _uniqueness_gap(run, held.index)
    if gap is not None:
        what = "differ" if gap[0] == "differ" else "are not unique"
        raise PreconditionViolated(f"limit trees {what}; preprocessing required")
    return _normal_form(run, set(held.lower), held.index)


def is_solved(run: QueryRun) -> Optional[set[int]]:
    """Verified spanning tree of the current instance, or None.

    A tree T is verified when every non-tree edge f dominates its cycle:
    high(e) <= low(f) for every cycle edge e, where high/low are the upper
    and lower endpoint (or known value) of the interval.  Equality is
    admitted because open intervals exclude their endpoints.  Checking the
    lower limit tree alone is complete: any verified tree differs from it
    only by swaps of equal known values.

    Reads the held lower limit tree when the session holds one; otherwise
    runs Kruskal and holds nothing, so a fresh fork costs one Kruskal.
    """
    held = _synced(run)
    if held is None or held.lower is None:
        tree = _kruskal(run, lower_keys(run))
    else:
        tree = set(held.lower)
    adj = _tree_adjacency(run, tree)
    lo, hi, ends = run.lo, run.hi, run.ends
    for f in run.present_ids():
        if f in tree:
            continue
        a, b = ends[f]
        for e in _tree_path(adj, a, b):
            if hi[e] > lo[f]:
                return None
    return tree


def verified_tree_of_original(run: QueryRun) -> Optional[set[int]]:
    """Verified MST of the original instance: contracted edges plus the
    verified tree of the current minor, or None if unsolved."""
    remnant = is_solved(run)
    if remnant is None:
        return None
    return set(run.contracted_ids()) | remnant


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
    False, from the held lower limit tree and its path index (one Kruskal
    and one index build when the session holds neither).  Deleting a
    non-tree edge changes neither the tree nor another edge's path, so every
    dominated non-tree edge goes first, in id order.  Contracting tree edge l leaves
    the tree minus l and every other cover as it was, so the contractible
    tree edges follow in id order.  Neither move enables one of the other
    kind: a dominated edge has low >= high of every edge on its path, so
    it never blocked a contraction, and an edge whose path held a
    contractible l has low >= high(l), so l never blocked its domination.
    The lower limit tree of the reduced minor is therefore the held tree
    minus the contracted edges, which the held state applies on the next
    read.
    """
    held = _held_lower(run)
    tree, (paths, covers) = held.lower, held.index
    # deletions and contractions change no interval, so the ranks hold, and
    # both lists are fixed before the first move changes the held state
    lo, hi = run.lo, run.hi
    dominated = [f for f in sorted(paths) if all(hi[e] <= lo[f] for e in paths[f])]
    contractible = [l for l in sorted(tree) if all(lo[x] >= hi[l] for x in covers[l])]
    for f in dominated:
        run.delete(f)
    for l in contractible:
        run.contract(l)
    return set(_held_lower(run).lower)


def ensure_unique_limit_trees(run: QueryRun, reduce: bool = True) -> list[int]:
    """Query mandatory edges until the limit trees coincide and are unique.

    First requeries non-trivial edges of the lower-minus-upper difference,
    then repeatedly resolves upper-side ties (an equal-upper-limit swap makes
    the tied tree edge mandatory) and lower-side ties (symmetrically, the
    tied non-tree edge), to a fixpoint.  With reduce=True, verified edges are
    contracted/deleted eagerly along the way.  Returns the queried edge ids.
    """
    before = run.query_count
    _certify(run, reduce)
    return run.queried[before:]


def unique_limit_trees(run: QueryRun) -> LimitTrees:
    """:func:`ensure_unique_limit_trees` with reduction, then the limit
    trees of the result, built from the tree and path index that its final
    round certified; equal to :func:`compute_limit_trees` afterwards."""
    return _normal_form(run, *_certify(run, True))


def _certify(run: QueryRun, reduce: bool) -> tuple[set[int], PathIndex]:
    """The rounds of :func:`ensure_unique_limit_trees`; returns the unique
    limit tree and the held path index, which callers must not keep."""
    for _ in rounds(run, "ensure_unique_limit_trees"):
        tree = reduce_verified(run) if reduce else lower_limit_tree(run)
        index = _held_lower(run).index
        gap = _uniqueness_gap(run, index)
        if gap is None:
            return tree, index
        # upper-side tie: swapping the tied tree edge out of the upper tree
        # yields a tree pair whose difference is exactly that edge, so it is
        # mandatory; lower-side tie: symmetrically the tied cut edge is.
        kind, _, partner = gap
        if kind == "differ":
            # the first non-trivial lower tree edge outside the upper tree
            diff = sorted(e for e in tree - upper_limit_tree(run) if not run.is_trivial(e))
            if not diff:
                raise PreconditionViolated(
                    "limit trees differ only in trivial edges; cannot requery"
                )
            partner = diff[0]
        run.reveal(partner)
