"""Output checkers that do not call into mstquery.

Every verdict here is computed in exact `Fraction` arithmetic from plain
data: an instance is a vertex count plus edge tuples, and a strategy's
output is the list of queried edge ids and the final tree.  Each checker
returns None when the output passes, or a one-line reason when it fails.

The checks are properties the method must have, not copies of today's
output:

(a) the final tree is a spanning tree and an MST of the true weights;
(b) the revealed set verifies the tree: for every non-tree edge f and every
    edge e on f's tree path, U*(e) <= L*(f), where a revealed or trivial
    edge contributes its true value;
(c) every mandatory edge was queried; e is mandatory iff the bottleneck
    weight between its endpoints in G - e lies strictly inside its interval;
(d) the exhaustive optimum built on (b) equals the reported one, and the
    query count meets the paper's bounds against it;
(e) every learned value lies inside its interval and has the least
    empirical hop loss over the training draws among the mixture's support
    values and a fine grid over the interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Optional, Sequence

GRID_POINTS = 64  # interior points per interval in the ERM check (e)


@dataclass(frozen=True)
class Edge:
    eid: int
    u: int
    v: int
    low: Fraction
    high: Fraction  # low == high marks a trivial (known) edge
    true: Fraction
    pred: Fraction

    @property
    def trivial(self) -> bool:
        return self.low == self.high


@dataclass(frozen=True)
class Instance:
    vertices: int
    edges: tuple[Edge, ...]  # edges[i].eid == i

    def open_ids(self) -> list[int]:
        return [e.eid for e in self.edges if not e.trivial]

    def truth_key(self) -> tuple:
        """Everything (a)-(d) depend on except the predictions."""
        return (self.vertices,) + tuple((e.u, e.v, e.low, e.high, e.true) for e in self.edges)


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def kruskal(inst: Instance, key) -> set[int]:
    """Minimum spanning tree under `key(edge)`, ties broken by edge id."""
    uf = _UnionFind(inst.vertices)
    return {e.eid for e in sorted(inst.edges, key=lambda e: (key(e), e.eid)) if uf.union(e.u, e.v)}


def _tree_path(inst: Instance, tree: Iterable[int], start: int, goal: int) -> list[int]:
    adj: dict[int, list[tuple[int, int]]] = {}
    for eid in tree:
        e = inst.edges[eid]
        adj.setdefault(e.u, []).append((e.v, eid))
        adj.setdefault(e.v, []).append((e.u, eid))
    prev = {start: None}
    stack = [start]
    while stack:
        node = stack.pop()
        for nbr, eid in adj.get(node, ()):
            if nbr not in prev:
                prev[nbr] = (node, eid)
                stack.append(nbr)
    path = []
    node = goal
    while prev[node] is not None:
        node, eid = prev[node]
        path.append(eid)
    return path


def spanning_tree_problem(inst: Instance, tree: Iterable[int]) -> Optional[str]:
    tree = set(tree)
    if any(not 0 <= eid < len(inst.edges) for eid in tree):
        return "tree names an unknown edge"
    if len(tree) != inst.vertices - 1:
        return f"tree has {len(tree)} edges, a spanning tree has {inst.vertices - 1}"
    uf = _UnionFind(inst.vertices)
    if not all(uf.union(inst.edges[eid].u, inst.edges[eid].v) for eid in tree):
        return "tree contains a cycle"
    return None


def check_mst(inst: Instance, tree: Iterable[int]) -> Optional[str]:
    """(a) spanning tree of minimum total true weight."""
    tree = set(tree)
    problem = spanning_tree_problem(inst, tree)
    if problem:
        return f"(a) {problem}"
    best = sum((inst.edges[eid].true for eid in kruskal(inst, lambda e: e.true)), Fraction(0))
    got = sum((inst.edges[eid].true for eid in tree), Fraction(0))
    if got != best:
        return f"(a) tree weight {got} exceeds the minimum {best}"
    return None


def _bounds(inst: Instance, revealed: set[int]):
    """(L*, U*) per edge after revealing `revealed`."""
    lo, hi = [], []
    for e in inst.edges:
        if e.trivial or e.eid in revealed:
            lo.append(e.true)
            hi.append(e.true)
        else:
            lo.append(e.low)
            hi.append(e.high)
    return lo, hi


def verification_problem(inst: Instance, revealed: set[int], tree: set[int]) -> Optional[str]:
    lo, hi = _bounds(inst, revealed)
    for f in inst.edges:
        if f.eid in tree:
            continue
        for eid in _tree_path(inst, tree, f.u, f.v):
            if hi[eid] > lo[f.eid]:
                return f"edge {eid} on the cycle of {f.eid} may exceed it: U*={hi[eid]} > L*={lo[f.eid]}"
    return None


def check_verified(inst: Instance, queried: Sequence[int], tree: Iterable[int]) -> Optional[str]:
    """(b) the revealed set proves the tree minimum for every realization."""
    tree = set(tree)
    problem = spanning_tree_problem(inst, tree)
    if problem:
        return f"(b) {problem}"
    problem = verification_problem(inst, set(queried), tree)
    return f"(b) {problem}" if problem else None


def mandatory_edges(inst: Instance) -> set[int]:
    """(c) e is mandatory iff the bottleneck (minimax) weight between its
    endpoints in G - e lies strictly inside its open interval."""
    order = sorted(inst.edges, key=lambda e: (e.true, e.eid))
    out = set()
    for e in inst.edges:
        if e.trivial:
            continue
        uf = _UnionFind(inst.vertices)
        for g in order:
            if g.eid == e.eid:
                continue
            uf.union(g.u, g.v)
            if uf.find(e.u) == uf.find(e.v):
                if e.low < g.true < e.high:
                    out.add(e.eid)
                break
    return out


def check_mandatory_queried(queried: Sequence[int], mandatory: set[int]) -> Optional[str]:
    missing = sorted(mandatory - set(queried))
    if missing:
        return f"(c) mandatory edges never queried: {missing}"
    return None


def feasible(inst: Instance, revealed: set[int]) -> bool:
    """A revealed set is feasible iff some tree satisfies (b).  The tree of
    least lower limit (L*, then +eps for open edges, then id) is such a tree
    whenever any is, so testing it alone is exact."""
    lo, _ = _bounds(inst, revealed)
    tree = kruskal(inst, lambda e: (lo[e.eid], 0 if e.trivial or e.eid in revealed else 1))
    return verification_problem(inst, revealed, tree) is None


def exhaustive_opt(inst: Instance, mandatory: set[int]) -> int:
    """(d) least size of a feasible revealed set, by enumeration over the
    supersets of the mandatory set in increasing size."""
    rest = [eid for eid in inst.open_ids() if eid not in mandatory]
    for extra in range(len(rest) + 1):
        for combo in combinations(rest, extra):
            if feasible(inst, mandatory | set(combo)):
                return len(mandatory) + extra
    raise ValueError("revealing every edge is always feasible; instance is corrupt")


def _relation(x: Fraction, low: Fraction, high: Fraction) -> int:
    return -1 if x <= low else (1 if x >= high else 0)


def hop_distance(inst: Instance) -> int:
    """Wrongly predicted value-versus-interval relations over ordered pairs."""
    count = 0
    for e in inst.edges:
        for f in inst.edges:
            if f.eid != e.eid and not f.trivial:
                count += _relation(e.true, f.low, f.high) != _relation(e.pred, f.low, f.high)
    return count


def check_bounds(mode: str, gamma: Optional[int], queries: int, opt: int, k_h: int, all_correct: bool) -> Optional[str]:
    """(d) the paper's guarantees for one run against the optimum."""
    if queries < opt:
        return f"(d) {queries} queries beat the optimum {opt}"
    if mode == "baseline":
        limits = [("2*OPT", 2 * opt)]
    elif mode == "tradeoff":
        limits = [("gamma*OPT", gamma * opt)]
        if all_correct:
            limits.append(("(1+1/gamma)*OPT", (1 + Fraction(1, gamma)) * opt))
    elif mode == "error_sensitive":
        limits = [
            ("min{(1+1/gamma)OPT+5k_h, (gamma+1)OPT}", min((1 + Fraction(1, gamma)) * opt + 5 * k_h, (gamma + 1) * opt)),
            ("max{3OPT, gamma*OPT+1}", max(3 * opt, gamma * opt + 1)),
        ]
    else:
        return f"(d) unknown mode {mode!r}"
    for name, limit in limits:
        if queries > limit:
            return f"(d) {mode} gamma={gamma}: {queries} queries exceed {name} = {limit} (OPT={opt}, k_h={k_h})"
    return None


def empirical_loss(inst: Instance, eid: int, draws: Sequence[Mapping[int, Fraction]], value: Fraction) -> int:
    e = inst.edges[eid]
    return sum(
        _relation(d[eid], f.low, f.high) != _relation(value, f.low, f.high)
        for d in draws
        for f in inst.edges
        if f.eid != e.eid and not f.trivial
    )


def check_erm(
    inst: Instance,
    draws: Sequence[Mapping[int, Fraction]],
    learned: Mapping[int, Fraction],
    support: Mapping[int, Sequence[Fraction]],
) -> Optional[str]:
    """(e) learned values are interior and empirically loss-minimal against
    every support value and every point of a fine grid over the interval."""
    for e in inst.edges:
        value = learned.get(e.eid)
        if value is None:
            return f"(e) no learned value for edge {e.eid}"
        if e.trivial:
            if value != e.low:
                return f"(e) trivial edge {e.eid} learned {value}, not its value {e.low}"
            continue
        if not e.low < value < e.high:
            return f"(e) edge {e.eid} learned {value} outside ({e.low}, {e.high})"
        step = (e.high - e.low) / GRID_POINTS
        rivals = list(support.get(e.eid, ())) + [e.low + step * i for i in range(1, GRID_POINTS)]
        own = _loss_table(inst, e.eid, draws)
        got = own(value)
        for rival in rivals:
            if own(rival) < got:
                return f"(e) edge {e.eid}: learned {value} has loss {got}, {rival} has {own(rival)}"
    return None


def _loss_table(inst: Instance, eid: int, draws: Sequence[Mapping[int, Fraction]]):
    """Empirical loss of a candidate for edge eid, from per-interval counts
    of where the drawn values fell; equals `empirical_loss`."""
    others = [f for f in inst.edges if f.eid != eid and not f.trivial]
    counts = []
    for f in others:
        c = {-1: 0, 0: 0, 1: 0}
        for d in draws:
            c[_relation(d[eid], f.low, f.high)] += 1
        counts.append(c)
    total = len(draws) * len(others)

    def loss(value: Fraction) -> int:
        return total - sum(c[_relation(value, f.low, f.high)] for f, c in zip(others, counts))

    return loss
