"""Lower/upper limit trees, uniqueness preprocessing, and solved-state checks.

The lower (upper) limit tree is the MST when every open interval is priced at
its lower (upper) endpoint plus (minus) an infinitesimal.  Keys are exact
lexicographic pairs (base, eps) with eps in {-1, 0, +1}, so the perturbation
never needs a concrete epsilon.  Kruskal with (key, edge id) ordering makes
every tree deterministic.

Cycles and cuts come from one path index per tree (:func:`_path_index`): the
tree path of every non-tree edge, and for every tree edge the non-tree edges
whose path covers it.  A tree edge's cut is that edge plus its covering
edges.  Verified reduction runs one Kruskal per call: deleting a non-tree
edge leaves the lower limit tree unchanged, and contracting tree edge l
leaves it minus l, so one tree and one index serve every move of the call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .graphcore import Interval, PreconditionViolated, QueryRun, UnknownEdge, kruskal, rounds


class WrongSide(ValueError):
    """cycle_of called on a tree edge, or cut_of on a non-tree edge."""


class LimitValue(NamedTuple):
    """Exact weight plus infinitesimal offset; tuple order is the total order."""

    base: Fraction
    eps: int


def lower_key(interval: Interval) -> LimitValue:
    base, eps = interval.lower_key()
    return LimitValue(base, eps)


def upper_key(interval: Interval) -> LimitValue:
    base, eps = interval.upper_key()
    return LimitValue(base, eps)


def _kruskal(run: QueryRun, key_fn: Callable[[Interval], LimitValue]) -> set[int]:
    ids = run.present_ids()
    ends = {eid: run.endpoints(eid) for eid in ids}
    parent = {v: v for pair in ends.values() for v in pair}
    order = sorted(ids, key=lambda e: (key_fn(run.interval(e)), e))
    tree = set(kruskal(order, ends, parent))
    if parent and len(tree) != len(parent) - 1:
        raise PreconditionViolated("graph is disconnected; no spanning tree exists")
    return tree


def lower_limit_tree(run: QueryRun) -> set[int]:
    return _kruskal(run, lower_key)


def upper_limit_tree(run: QueryRun) -> set[int]:
    return _kruskal(run, upper_key)


def _tree_adjacency(run: QueryRun, tree: set[int]) -> dict[int, list[tuple[int, int]]]:
    adj: dict[int, list[tuple[int, int]]] = {}
    for eid in tree:
        a, b = run.endpoints(eid)
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
    for other in run.present_ids():
        x, y = run.endpoints(other)
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
    for f in run.present_ids():
        if f in tree:
            continue
        a, b = run.endpoints(f)
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
class LimitTrees:
    """Normal form of an instance with unique coinciding limit trees."""

    tree: set[int]                      # the common lower = upper limit tree
    nontree_order: list[int]            # non-tree edges by non-decreasing lower limit
    cycles: dict[int, list[int]]        # non-tree edge -> its cycle (incl. itself)
    cuts: dict[int, list[int]]          # tree edge -> its cut (incl. itself)

    def cycle_of(self, eid: int) -> list[int]:
        if eid in self.tree:
            raise WrongSide(f"edge {eid} is a tree edge; it closes no cycle")
        if eid not in self.cycles:
            raise UnknownEdge(eid)
        return list(self.cycles[eid])

    def cut_of(self, eid: int) -> list[int]:
        if eid not in self.tree:
            raise WrongSide(f"edge {eid} is not a tree edge; it defines no cut")
        return list(self.cuts[eid])


def _uniqueness_gap(run: QueryRun, index: PathIndex):
    """First strictness violation of the tree indexed by `index`, which must
    be both the lower and the upper limit tree, or None if it is unique.

    Ties between two point intervals cannot be separated by queries and are
    resolved by edge id, so they do not count as violations.
    """
    upper = {e: upper_key(run.interval(e)) for e in index.covers}
    lower = {x: lower_key(run.interval(x)) for x in index.paths}
    for f in sorted(index.paths):
        kf = upper_key(run.interval(f))
        for e in index.paths[f]:
            ke = upper[e]
            if ke > kf:
                raise PreconditionViolated("upper limit tree violates the cycle rule")
            if ke == kf and not (run.is_trivial(e) and run.is_trivial(f)):
                return ("upper", f, e)
    for l in sorted(index.covers):
        kl = lower_key(run.interval(l))
        for x in sorted(index.covers[l]):
            kx = lower[x]
            if kx < kl:
                raise PreconditionViolated("lower limit tree violates the cut rule")
            if kx == kl and not (run.is_trivial(x) and run.is_trivial(l)):
                return ("lower", l, x)
    return None


def limit_trees_unique(run: QueryRun) -> bool:
    t_lower = lower_limit_tree(run)
    t_upper = upper_limit_tree(run)
    return t_lower == t_upper and _uniqueness_gap(run, _path_index(run, t_lower)) is None


def compute_limit_trees(run: QueryRun) -> LimitTrees:
    """Cycle/cut structure of the current instance.

    Requires unique coinciding limit trees (establish with
    :func:`ensure_unique_limit_trees` first).
    """
    t_lower = lower_limit_tree(run)
    t_upper = upper_limit_tree(run)
    if t_lower != t_upper:
        raise PreconditionViolated("limit trees differ; preprocessing required")
    index = _path_index(run, t_lower)
    if _uniqueness_gap(run, index) is not None:
        raise PreconditionViolated("limit trees are not unique; preprocessing required")
    nontree = sorted(index.paths, key=lambda e: (lower_key(run.interval(e)), e))
    cycles = {f: [f] + index.paths[f] for f in nontree}
    cuts = {l: sorted(index.covers[l] | {l}) for l in sorted(t_lower)}
    return LimitTrees(tree=t_lower, nontree_order=nontree, cycles=cycles, cuts=cuts)


def is_solved(run: QueryRun) -> Optional[set[int]]:
    """Verified spanning tree of the current instance, or None.

    A tree T is verified when every non-tree edge f dominates its cycle:
    sup*(e) <= inf*(f) for every cycle edge e, where sup*/inf* are the
    endpoint (or known value) of the respective interval.  Equality is
    admitted because open intervals exclude their endpoints.  Checking the
    lower limit tree alone is complete: any verified tree differs from it
    only by swaps of equal known values.
    """
    tree = lower_limit_tree(run)
    adj = _tree_adjacency(run, tree)
    for f in run.present_ids():
        if f in tree:
            continue
        inf_f = run.interval(f).inf_star()
        a, b = run.endpoints(f)
        for e in _tree_path(adj, a, b):
            if run.interval(e).sup_star() > inf_f:
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
    for f in run.present_ids():
        if f in tree:
            continue
        inf_f = run.interval(f).inf_star()
        a, b = run.endpoints(f)
        if all(run.interval(e).sup_star() <= inf_f for e in _tree_path(adj, a, b)):
            run.delete(f)
            return True
    for l in sorted(tree):
        sup_l = run.interval(l).sup_star()
        if all(run.interval(x).inf_star() >= sup_l for x in tree_cut(run, tree, l) if x != l):
            run.contract(l)
            return True
    return False


def reduce_verified(run: QueryRun) -> int:
    """Remove every verified edge; returns the number of moves.

    Makes exactly the moves of calling :func:`reduce_once` until it returns
    False, from one Kruskal and one path index.  Deleting a non-tree edge
    changes neither the tree nor another edge's path, so every dominated
    non-tree edge goes first, in id order.  Contracting tree edge l leaves
    the tree minus l and every other cover as it was, so the contractible
    tree edges follow in id order.  Neither move enables one of the other
    kind: a dominated edge has inf* >= sup* of every edge on its path, so
    it never blocked a contraction, and an edge whose path held a
    contractible l has inf* >= sup*(l), so l never blocked its domination.
    """
    tree = lower_limit_tree(run)
    paths, covers = _path_index(run, tree)
    low = {e: run.interval(e).inf_star() for e in run.present_ids()}
    high = {e: run.interval(e).sup_star() for e in run.present_ids()}
    count = 0
    for f in sorted(paths):
        if all(high[e] <= low[f] for e in paths[f]):
            run.delete(f)
            count += 1
    for l in sorted(tree):
        if all(low[x] >= high[l] for x in covers[l]):
            run.contract(l)
            count += 1
    return count


def ensure_unique_limit_trees(run: QueryRun, reduce: bool = True) -> list[int]:
    """Query mandatory edges until the limit trees coincide and are unique.

    First requeries non-trivial edges of the lower-minus-upper difference,
    then repeatedly resolves upper-side ties (an equal-upper-limit swap makes
    the tied tree edge mandatory) and lower-side ties (symmetrically, the
    tied non-tree edge), to a fixpoint.  With reduce=True, verified edges are
    contracted/deleted eagerly along the way.  Returns the queried edge ids.
    """
    queried: list[int] = []
    for _ in rounds(run, "ensure_unique_limit_trees"):
        if reduce:
            reduce_verified(run)
        t_lower = lower_limit_tree(run)
        t_upper = upper_limit_tree(run)
        if t_lower != t_upper:
            diff = sorted(e for e in t_lower - t_upper if not run.is_trivial(e))
            if not diff:
                raise PreconditionViolated(
                    "limit trees differ only in trivial edges; cannot requery"
                )
            run.reveal(diff[0])
            queried.append(diff[0])
            continue
        gap = _uniqueness_gap(run, _path_index(run, t_lower))
        if gap is None:
            return queried
        # upper-side tie: swapping the tied tree edge out of the upper tree
        # yields a tree pair whose difference is exactly that edge, so it is
        # mandatory; lower-side tie: symmetrically the tied cut edge is.
        _, _, partner = gap
        run.reveal(partner)
        queried.append(partner)
