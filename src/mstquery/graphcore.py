"""Exact-arithmetic data model for uncertainty multigraphs and query sessions.

Every edge carries an open uncertainty interval (or a trivially known point
value), a hidden true weight, and an untrusted predicted weight.  All weights
are `fractions.Fraction`; no comparison in the core ever touches a float.

The query core compares integers instead: each value an instance holds is
replaced by its rank among the distinct values (:class:`Ranking`).  The rank
map is strictly increasing, so two values compare exactly as their ranks
do, ties included: the integer comparison is the exact one.  A
:class:`QueryRun` holds only ranks: those of each edge's current interval
ends, of the value its reveal takes, and each edge's two limit keys as
ints.  A value leaves it only by looking a rank up in the ranking.

A session also keeps its minor instead of deriving it on every read: an
endpoint table (edge id -> current endpoint pair) and, per vertex, the set
of its present edges.  Contraction absorbs the endpoint with fewer present
edges into the other and relabels only the absorbed vertex's edges, so it
costs the smaller degree, not a scan of every edge (weighted union,
Tarjan, JACM 1975).  Any sequence of contractions relabels O(m log m)
entries in total, although one edge may be relabelled at many of them: a
pendant edge at the end of a path that is contracted from that end.  The
vertex names this gives are those of a union-find over the original
vertices with the same rule, and the self-loops are deleted in the same
order; nothing reads a name except to compare it with another.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key
from typing import Any, Iterable, NamedTuple, Optional


class ParseError(ValueError):
    """Instance text or file could not be parsed."""


class ValidationError(ValueError):
    """An instance invariant is violated; the message names the edge."""


class UnknownEdge(KeyError):
    """Edge id is absent from the instance or no longer present."""


class AlreadyRevealed(RuntimeError):
    """Attempt to query an edge whose value is already known."""


class PreconditionViolated(RuntimeError):
    """An operation was called on a state that does not meet its contract."""


class NoProgress(RuntimeError):
    """A query loop finished a round that neither revealed nor removed an edge."""


def find(parent, x: int) -> int:
    """Root of x in the union-find forest `parent`, halving the path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def kruskal(order: Iterable[int], ends, parent) -> list[int]:
    """Edges of `order` that join two components of `parent`, in order.

    `ends[eid]` is the endpoint pair of edge eid; `parent` is a union-find
    forest over the endpoints and is merged along the way.
    """
    tree = []
    # :func:`find`, inlined: a call per endpoint would cost more than the
    # path halving itself
    for eid in order:
        a, b = ends[eid]
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
            tree.append(eid)
    return tree


def parse_rational(value) -> Fraction:
    """Parse an integer or a bit-exact "p/q" string into a Fraction; a bool
    is rejected, not read as 1 or 0."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational: {value!r}") from exc
    raise ParseError(f"not a rational: {value!r}")


def _parse_integer(value, field: str) -> int:
    """An integer field of a JSON document: a JSON integer only.  A float, a
    bool or a string is rejected, not converted."""
    if not _is_int(value):
        raise ParseError(f"field {field!r} must be an integer, got {value!r}")
    return value


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class Interval:
    """Open interval (low, high), or the point {low} when low == high."""

    low: Fraction
    high: Fraction

    @staticmethod
    def open(low, high) -> "Interval":
        low, high = parse_rational(low), parse_rational(high)
        if not low < high:
            raise ValidationError(f"open interval needs L < U, got ({low}, {high})")
        return Interval(low, high)

    @staticmethod
    def point(value) -> "Interval":
        value = parse_rational(value)
        return Interval(value, value)

    @property
    def is_trivial(self) -> bool:
        return self.low == self.high

    def contains(self, value: Fraction) -> bool:
        """Strict interior membership; a point interval contains only itself."""
        if self.is_trivial:
            return value == self.low
        return self.low < value < self.high

    def intersects(self, other: "Interval") -> bool:
        if self.is_trivial:
            return other.contains(self.low) if not other.is_trivial else self.low == other.low
        if other.is_trivial:
            return self.contains(other.low)
        return max(self.low, other.low) < min(self.high, other.high)


def _compare(a: tuple[int, int], b: tuple[int, int]) -> int:
    """A number with the sign of a - b, for (numerator, denominator) pairs
    with positive denominators: an exact cross-multiplication."""
    return a[0] * b[1] - b[0] * a[1]


@dataclass(frozen=True)
class Ranking:
    """Order-preserving integer codes of a set of exact values.

    `values` holds the distinct values in ascending order, and `pairs` their
    (numerator, denominator) pairs: the value of rank r is values[r], and
    a < b iff rank[a] < rank[b], a == b iff rank[a] == rank[b].  `lo`, `hi`,
    `pred` and `truth` hold, by edge id, the ranks of each edge's interval
    ends, prediction and true value, and `lower` and `upper` each edge's two
    limit keys at those ends.  Ranking and placing compare the pairs by
    exact integer cross-multiplication, never as Fractions; `rank`, the one
    map keyed on Fractions, and the keys are built on first use.
    """

    values: tuple[Fraction, ...]
    pairs: tuple[tuple[int, int], ...]
    lo: tuple[int, ...]
    hi: tuple[int, ...]
    pred: tuple[int, ...]
    truth: tuple[int, ...]

    @cached_property
    def rank(self) -> dict[Fraction, int]:
        return dict(zip(self.values, range(len(self.values))))

    @cached_property
    def lower(self) -> tuple[int, ...]:
        """Each edge's lower limit key before any reveal: 3*lo+1 for an open
        interval, 3*lo for a point (see :class:`QueryRun`)."""
        return tuple(3 * a + (a != b) for a, b in zip(self.lo, self.hi))

    @cached_property
    def upper(self) -> tuple[int, ...]:
        """Each edge's upper limit key before any reveal: 3*hi-1 for an open
        interval, 3*hi for a point."""
        return tuple(3 * b - (a != b) for a, b in zip(self.lo, self.hi))

    def position(self, value: Fraction) -> int:
        """A doubled rank that orders any value among the ranked ones: a
        ranked value sits at 2*rank, any other at 2i-1, with i the index of
        the first ranked value above it."""
        return self.place((value.numerator, value.denominator))

    def place(self, pair: tuple[int, int], lo: int = 0, hi: Optional[int] = None) -> int:
        """:meth:`position` of the value with (numerator, denominator) `pair`,
        in lowest terms.  `lo` and `hi` bound the search as bisect's do, for
        a caller that knows them."""
        if lo < 0:
            raise ValueError("lo must be non-negative")
        pairs = self.pairs
        n, d = pair
        if hi is None:
            hi = len(pairs)
        while lo < hi:  # bisect_left on n/d
            mid = (lo + hi) // 2
            p, q = pairs[mid]
            if p * d < n * q:
                lo = mid + 1
            else:
                hi = mid
        return 2 * lo if lo < len(pairs) and pairs[lo] == pair else 2 * lo - 1

    def table(self, source: str) -> tuple[int, ...]:
        """The ranks, by edge id, of the values a reveal takes under
        `source`: "truth" or "predictions"."""
        if source == "truth":
            return self.truth
        if source == "predictions":
            return self.pred
        raise ValueError(f"unknown value source {source!r}")


def rank_values(edges: tuple[UncertainEdge, ...]) -> Ranking:
    """Ranking over every interval end, truth and prediction of `edges`
    (ordered by edge id).

    The pool and the per-edge lookups key on (numerator, denominator)
    pairs, which name each value once (a Fraction is kept in lowest terms),
    and the pairs are sorted by :func:`_compare`, not by an lcm-scaled
    integer key, whose size can grow with the product of the instance's
    denominators."""
    pool: dict[tuple[int, int], Fraction] = {}
    for e in edges:
        for x in (e.interval.low, e.interval.high, e.true_value, e.predicted_value):
            pool[x.numerator, x.denominator] = x
    pairs = tuple(sorted(pool, key=cmp_to_key(_compare)))
    code = {p: i for i, p in enumerate(pairs)}

    def ranks(values: Iterable[Fraction]) -> tuple[int, ...]:
        return tuple(code[x.numerator, x.denominator] for x in values)

    return Ranking(
        tuple(pool[p] for p in pairs),
        pairs,
        ranks(e.interval.low for e in edges),
        ranks(e.interval.high for e in edges),
        ranks(e.predicted_value for e in edges),
        ranks(e.true_value for e in edges),
    )


@dataclass(frozen=True)
class UncertainEdge:
    eid: int
    u: int
    v: int
    interval: Interval
    true_value: Fraction
    predicted_value: Fraction

    def validate(self) -> None:
        if not (_is_int(self.eid) and _is_int(self.u) and _is_int(self.v)):
            got = (self.eid, self.u, self.v)
            raise ValidationError(f"edge {self.eid}: id and endpoints must be integers, got {got}")
        if self.u == self.v:
            raise ValidationError(f"edge {self.eid}: self-loops are rejected")
        for value in (self.interval.low, self.interval.high, self.true_value, self.predicted_value):
            if not (isinstance(value, Fraction) or _is_int(value)):
                raise ValidationError(f"edge {self.eid}: value {value} is not rational")
        if self.interval.is_trivial:
            w = self.interval.low
            if self.true_value != w or self.predicted_value != w:
                raise ValidationError(
                    f"edge {self.eid}: trivial interval requires true = pred = w"
                )
        else:
            if not self.interval.contains(self.true_value):
                raise ValidationError(
                    f"edge {self.eid}: true value {self.true_value} not strictly "
                    f"inside ({self.interval.low}, {self.interval.high})"
                )
            if not self.interval.contains(self.predicted_value):
                raise ValidationError(
                    f"edge {self.eid}: predicted value {self.predicted_value} not "
                    f"strictly inside ({self.interval.low}, {self.interval.high})"
                )


def _is_int(x) -> bool:
    """An int that is not a bool; `save` would write a bool as a JSON boolean."""
    return isinstance(x, int) and not isinstance(x, bool)


def _valid_on_pairs(e: UncertainEdge) -> bool:
    """Whether edge e passes :meth:`UncertainEdge.validate`, decided on the
    (numerator, denominator) pairs of its ends, truth and prediction by
    exact integer cross-multiplication; False too when its id or an
    endpoint is not an int, or a value not an int or a Fraction."""
    low, high, t, p = e.interval.low, e.interval.high, e.true_value, e.predicted_value
    if e.u == e.v or not (
        _is_int(e.eid) and _is_int(e.u) and _is_int(e.v)
        and all(isinstance(x, Fraction) or _is_int(x) for x in (low, high, t, p))
    ):
        return False
    ln, ld, hn, hd = low.numerator, low.denominator, high.numerator, high.denominator
    tn, td, pn, pd = t.numerator, t.denominator, p.numerator, p.denominator
    if ln == hn and ld == hd:
        return tn == pn == ln and td == pd == ld
    return ln * td < tn * ld and tn * hd < hn * td and ln * pd < pn * ld and pn * hd < hn * pd


class UncertainGraph:
    """Connected multigraph with uncertain edge weights.

    Parallel edges are allowed; self-loops and disconnected graphs are
    rejected at load.  Edge ids are dense integers 0..m-1 and every
    deterministic tie-break downstream uses ascending edge id.  `ends`
    holds each edge's endpoint pair by id, which every session over the
    graph starts from.
    """

    def __init__(self, vertex_count: int, edges: Iterable[UncertainEdge]):
        if not _is_int(vertex_count):
            raise ValidationError(f"vertex count must be an integer, got {vertex_count!r}")
        self.vertex_count = vertex_count
        edges = tuple(edges)
        # ids and endpoints are checked before the sort by id and the range
        # check compare them
        for e in edges:
            if not (_is_int(e.eid) and _is_int(e.u) and _is_int(e.v)):
                e.validate()  # raises naming the edge, its id and endpoints
        self.edges: tuple[UncertainEdge, ...] = tuple(sorted(edges, key=lambda e: e.eid))
        self.ends: tuple[tuple[int, int], ...] = tuple((e.u, e.v) for e in self.edges)
        self._validate()

    def _validate(self) -> None:
        if self.vertex_count < 1:
            raise ValidationError("graph needs at least one vertex")
        ids = [e.eid for e in self.edges]
        if ids != list(range(len(self.edges))):
            raise ValidationError("edge ids must be dense integers 0..m-1")
        for e in self.edges:
            if not (0 <= e.u < self.vertex_count and 0 <= e.v < self.vertex_count):
                raise ValidationError(f"edge {e.eid}: endpoint out of range")
            if not _valid_on_pairs(e):
                e.validate()  # raises with the message of the first fault
        if not self._connected():
            raise ValidationError("graph is not connected")

    def _connected(self) -> bool:
        # a spanning tree has vertex_count - 1 edges; a larger count is
        # rejected before a list per vertex is built
        if self.vertex_count > len(self.edges) + 1:
            return False
        ends = self.ends
        tree = kruskal(range(len(ends)), ends, list(range(self.vertex_count)))
        return len(tree) == self.vertex_count - 1

    def __len__(self) -> int:
        return len(self.edges)

    def edge(self, eid: int) -> UncertainEdge:
        if not 0 <= eid < len(self.edges):
            raise UnknownEdge(eid)
        return self.edges[eid]

    def non_trivial_ids(self) -> list[int]:
        return [e.eid for e in self.edges if not e.interval.is_trivial]

    def true_values(self) -> dict[int, Fraction]:
        return {e.eid: e.true_value for e in self.edges}

    def predicted_values(self) -> dict[int, Fraction]:
        return {e.eid: e.predicted_value for e in self.edges}

    @cached_property
    def ranking(self) -> Ranking:
        """Ranks of the instance's values, computed on first use and shared
        by every session over it."""
        return rank_values(self.edges)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        out = {"vertices": self.vertex_count, "edges": []}
        for e in self.edges:
            iv = (
                {"w": format_rational(e.interval.low)}
                if e.interval.is_trivial
                else {"L": format_rational(e.interval.low), "U": format_rational(e.interval.high)}
            )
            out["edges"].append(
                {
                    "id": e.eid,
                    "u": e.u,
                    "v": e.v,
                    "interval": iv,
                    "true": format_rational(e.true_value),
                    "pred": format_rational(e.predicted_value),
                }
            )
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @staticmethod
    def from_dict(data: dict) -> "UncertainGraph":
        """The graph of an instance document.  The document holds exactly
        "vertices" and "edges", each edge record exactly the keys `to_dict`
        writes, and each interval exactly {"w"} or {"L", "U"}; any other key
        is a ParseError naming it, never ignored."""
        try:
            vertices = _parse_integer(data["vertices"], "vertices")
            raw_edges = list(data["edges"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed instance document: {exc}") from exc
        known_keys(data, "instance document", ("vertices", "edges"))
        edges = []
        for raw in raw_edges:
            if isinstance(raw, dict):
                known_keys(raw, "edge record", ("id", "u", "v", "interval", "true", "pred"))
            try:
                iv_raw = raw["interval"]
                if not isinstance(iv_raw, dict):
                    raise TypeError(iv_raw)
                if iv_raw.keys() == {"w"}:
                    interval = Interval.point(parse_rational(iv_raw["w"]))
                elif iv_raw.keys() == {"L", "U"}:
                    interval = Interval.open(
                        parse_rational(iv_raw["L"]), parse_rational(iv_raw["U"])
                    )
                else:
                    got = ", ".join(repr(key) for key in iv_raw)
                    raise ParseError(f"edge {raw['id']!r}: an interval holds 'w' alone or 'L' and 'U', got {got}")
                edges.append(
                    UncertainEdge(
                        eid=_parse_integer(raw["id"], "id"),
                        u=_parse_integer(raw["u"], "u"),
                        v=_parse_integer(raw["v"], "v"),
                        interval=interval,
                        true_value=parse_rational(raw["true"]),
                        predicted_value=parse_rational(raw["pred"]),
                    )
                )
            except (ParseError, ValidationError):
                raise
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"malformed edge record {raw!r}") from exc
        return UncertainGraph(vertices, edges)


def read_text(path: str, what: str) -> str:
    """Contents of a UTF-8 text file.  A file that is missing, unreadable,
    a directory or not UTF-8 raises ParseError naming the `what` file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise ParseError(f"no such {what} file: {path}") from None
    except OSError as exc:
        raise ParseError(f"cannot read {what} file {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise ParseError(f"{what} file {path} is not UTF-8 text") from None


def unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """``object_pairs_hook`` for :func:`json.loads`; a repeated key is a ParseError."""
    obj: dict[str, Any] = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f"key {key!r} given twice in one object")
        obj[key] = value
    return obj


def known_keys(obj: dict, what: str, allowed: tuple[str, ...]) -> None:
    """Reject a key of a JSON object that its reader does not read, so that
    a misspelled or stray key is a ParseError naming it, never ignored."""
    for key in obj:
        if key not in allowed:
            raise ParseError(f"unknown {what} key {key!r}; expected one of {', '.join(allowed)}")


def load_instance(path_or_text: str) -> UncertainGraph:
    """Load an instance from a JSON file path or a JSON string."""
    text = path_or_text
    if not path_or_text.lstrip().startswith("{"):
        text = read_text(path_or_text, "instance")
    try:
        data = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return UncertainGraph.from_dict(data)


# -- transcripts ---------------------------------------------------------


class Event(NamedTuple):
    """One transcript entry; a tuple, because a session records one per move."""

    seq: int
    kind: str  # reveal | contract | delete | restart | phase
    edge: Optional[int] = None
    tag: Optional[str] = None


class Transcript:
    """Ordered record of reveals and structural events of one run."""

    def __init__(self):
        self.events: list[Event] = []
        self.final_tree: Optional[frozenset[int]] = None

    def record(self, kind: str, edge: Optional[int] = None, tag: Optional[str] = None) -> None:
        self.events.append(Event(len(self.events), kind, edge, tag))

    def reveals(self) -> list[int]:
        return [ev.edge for ev in self.events if ev.kind == "reveal"]

    def set_final_tree(self, tree: Iterable[int]) -> None:
        self.final_tree = frozenset(tree)

    def to_json(self) -> str:
        body = {
            "events": [
                {k: v for k, v in (("seq", ev.seq), ("kind", ev.kind), ("edge", ev.edge), ("tag", ev.tag)) if v is not None}
                for ev in self.events
            ],
            "final_tree": sorted(self.final_tree) if self.final_tree is not None else None,
        }
        return json.dumps(body, indent=2)


# -- query sessions ------------------------------------------------------


class QueryRun:
    """Mutable query session over one instance.

    Strategy code sees intervals, predictions, and the current minor; hidden
    values leave the session only through :meth:`reveal`.  A reveal takes
    the value of the session's source: the graph's truths ("truth"), or
    its predictions ("predictions"), so oracle code can replay
    hypothetical reveals on a scratch copy.

    The session holds ranks, never values, under `ranking`, its graph's
    ranking.  By edge id, `lo[e]` and `hi[e]` rank the ends of e's current
    interval (equal once known), `pred[e]` its prediction and `_values[e]`
    the value its reveal takes (`ranking.table(source)`); :meth:`interval`
    and :meth:`reveal` map ranks back through `ranking.values`.  It also
    keeps each edge's two limit keys as ints, `lower[e]` = 3*lo+1 and
    `upper[e]` = 3*hi-1 for an open interval and both 3*r for a known
    value r; only :meth:`reveal` changes them.

    The minor is kept, not derived: `present` is the set of present edge
    ids, `ends[e]` is the current endpoint pair of edge e, and every vertex
    of the minor holds the set of its present edges' ids.  Contracting edge
    (u, v) absorbs the end with fewer present edges, u on a tie: it
    relabels the absorbed end to the kept one on the absorbed end's edges
    only, keeping each pair's order, so a contraction costs the smaller
    degree and a sequence of them O(m log m) relabels in total.  It names
    every vertex as a union-find with the absorbed root merged under the
    kept one would, and deletes the edges that became self-loops (the
    parallels of the contracted edge, exactly the ones a scan of every
    present edge finds) in ascending id order.  These lists and sets are
    read-only outside the session.

    `_limit_trees` is the path index of the lower limit tree that
    :mod:`.limittrees` holds for the session, or None.  Each move hands
    itself to the held index as it is made, after its event is recorded;
    the index updates itself, or drops itself by setting `_limit_trees`
    to None.  The one exception is a session's first verified reduction
    while it has made no move: it copies its graph's reduced start (see
    :func:`.limittrees.reduce_verified`), which changes the present set,
    the endpoint table, the incidence sets, both `removed` maps and the
    transcript's events in place, as those moves would, and holds a copy
    of the index they leave, with no call per move.

    A new session copies its endpoint table from the graph's `ends`, and
    its keys from its ranking's `lower` and `upper`, which are built once
    per graph.  It builds its incidence sets from the graph's `ends` on
    their first read, which a contraction, a deletion or
    :meth:`current_vertices` makes; until then its minor is the graph's.
    A session whose first reduction copies its graph's reduced start is
    given the start's sets instead, so it never builds them over the whole
    graph, and a fork of a session that has not built them has none either.
    """

    def __init__(self, graph: UncertainGraph, source: str = "truth"):
        self._graph = graph
        self.ranking: Ranking = graph.ranking
        self._values: tuple[int, ...] = self.ranking.table(source)
        self.present: set[int] = set(range(len(graph.edges)))
        self.lo: list[int] = list(self.ranking.lo)
        self.hi: list[int] = list(self.ranking.hi)
        self.lower: list[int] = list(self.ranking.lower)
        self.upper: list[int] = list(self.ranking.upper)
        self.ends: list[tuple[int, int]] = list(graph.ends)
        self.vertex_count = graph.vertex_count  # of the current minor
        # the incidence sets (see `_incident`), or None until first read
        self._incidence: Optional[list[Optional[set[int]]]] = None
        self.queried: list[int] = []
        self.removed: dict[int, str] = {}  # eid -> "deleted" | "contracted"
        self.removed_unqueried: dict[int, str] = {}
        self.transcript = Transcript()
        self._limit_trees = None

    @property
    def pred(self) -> tuple[int, ...]:
        return self.ranking.pred

    @property
    def _incident(self) -> list[Optional[set[int]]]:
        """Vertex -> ids of its present edges; None once the vertex is
        absorbed.  Built from the graph's `ends` on first read: a session
        whose sets are not built has contracted and deleted nothing, so its
        minor is still the graph's."""
        incident = self._incidence
        if incident is None:
            incident = self._incidence = _incidence_sets(self._graph)
        return incident

    # -- structure --------------------------------------------------------

    def endpoints(self, eid: int) -> tuple[int, int]:
        if eid not in self.present:
            raise UnknownEdge(eid)
        return self.ends[eid]

    def present_ids(self) -> list[int]:
        return sorted(self.present)

    def is_present(self, eid: int) -> bool:
        return eid in self.present

    def current_vertices(self) -> set[int]:
        return {v for v, edges in enumerate(self._incident) if edges is not None}

    def interval(self, eid: int) -> Interval:
        if eid not in self.present:
            raise UnknownEdge(eid)
        values = self.ranking.values
        return Interval(values[self.lo[eid]], values[self.hi[eid]])

    def predicted(self, eid: int) -> Fraction:
        if eid not in self.present:
            raise UnknownEdge(eid)
        return self._graph.edge(eid).predicted_value

    def is_trivial(self, eid: int) -> bool:
        if eid not in self.present:
            raise UnknownEdge(eid)
        return self.lo[eid] == self.hi[eid]

    def intersects(self, a: int, b: int) -> bool:
        """:meth:`Interval.intersects` of the current intervals of edges a
        and b, on their ranks."""
        lo, hi = self.lo, self.hi
        if lo[a] == hi[a]:
            if lo[b] == hi[b]:
                return lo[a] == lo[b]
            return lo[b] < lo[a] < hi[b]
        if lo[b] == hi[b]:
            return lo[a] < lo[b] < hi[a]
        return max(lo[a], lo[b]) < min(hi[a], hi[b])

    def non_trivial_ids(self) -> list[int]:
        lo, hi = self.lo, self.hi
        return sorted(e for e in self.present if lo[e] != hi[e])

    @property
    def query_count(self) -> int:
        return len(self.queried)

    # -- moves -------------------------------------------------------------

    def reveal(self, eid: int) -> Fraction:
        if self.is_trivial(eid):
            raise AlreadyRevealed(eid)
        r = self.lo[eid] = self.hi[eid] = self._values[eid]
        self.lower[eid] = self.upper[eid] = 3 * r
        self.queried.append(eid)
        self.transcript.record("reveal", edge=eid)
        if self._limit_trees is not None:
            self._limit_trees.moved(self, "reveal", eid)
        return self.ranking.values[r]

    def contract(self, eid: int) -> None:
        if eid not in self.present:
            raise UnknownEdge(eid)
        ends, incident = self.ends, self._incident
        ru, rv = ends[eid]
        if ru == rv:
            raise ValidationError(f"edge {eid} is a self-loop; cannot contract")
        self._remove(eid, "contracted")
        self.vertex_count -= 1
        # ru, the end absorbed, is the one with fewer present edges, the
        # first end on a tie
        if len(incident[ru]) > len(incident[rv]):
            ru, rv = rv, ru
        kept, absorbed = incident[rv], incident[ru]
        incident[ru] = None
        loops = []
        for other in absorbed:
            a, b = ends[other]
            a, b = ends[other] = (rv, b) if a == ru else (a, rv)
            if a == b:
                loops.append(other)
            else:
                kept.add(other)
        if loops:
            # the self-loops are the contracted edge's parallels; a scan of
            # every present edge would delete them in ascending id order
            for other in sorted(loops):
                self._remove(other, "deleted")

    def delete(self, eid: int) -> None:
        if eid not in self.present:
            raise UnknownEdge(eid)
        self._remove(eid, "deleted")

    def _remove(self, eid: int, kind: str) -> None:
        self.present.remove(eid)
        a, b = self.ends[eid]
        incident = self._incident
        incident[a].discard(eid)
        incident[b].discard(eid)
        # only reveal turns an interval into a point, so an edge still open
        # is one that was never queried and was not trivial to begin with
        if self.lo[eid] != self.hi[eid]:
            self.removed_unqueried[eid] = kind
        self.removed[eid] = kind
        events = self.transcript.events
        event = "contract" if kind == "contracted" else "delete"
        events.append(Event(len(events), event, eid))
        if self._limit_trees is not None:
            self._limit_trees.moved(self, event, eid)

    def contracted_ids(self) -> list[int]:
        return sorted(e for e, kind in self.removed.items() if kind == "contracted")

    # -- forking (oracle scratch copies) ------------------------------------

    def fork(self, source: Optional[str] = None) -> "QueryRun":
        """Copy of the current state; optionally with another value source.

        The fork shares the ranking, and the reveal ranks unless `source`
        names another table of it ("truth" or "predictions"); the values
        already revealed stay.  It copies the ranks, keys, endpoint table
        and incidence sets, if built, so a move on either side leaves the
        other as it was.  It starts a new transcript and holds no limit
        tree (see :mod:`.limittrees`)."""
        clone = QueryRun.__new__(QueryRun)
        clone._graph = self._graph
        clone.ranking = self.ranking
        clone._values = self._values if source is None else self.ranking.table(source)
        clone.present = set(self.present)
        clone.lo, clone.hi = list(self.lo), list(self.hi)
        clone.lower, clone.upper = list(self.lower), list(self.upper)
        clone.ends = list(self.ends)
        clone.vertex_count = self.vertex_count
        incident = self._incidence
        if incident is not None:
            incident = [None if edges is None else set(edges) for edges in incident]
        clone._incidence = incident
        clone.queried = list(self.queried)
        clone.removed = dict(self.removed)
        clone.removed_unqueried = dict(self.removed_unqueried)
        clone.transcript = Transcript()
        clone._limit_trees = None
        return clone

    def graph_readonly(self) -> UncertainGraph:
        """The underlying instance, for oracle and reporting code.

        Strategy implementations must not call this; they interact with the
        session surface only.
        """
        return self._graph


def _incidence_sets(graph: UncertainGraph) -> list[Optional[set[int]]]:
    """Vertex -> ids of its edges in `graph`, which is a new session's
    minor."""
    incident: list[Optional[set[int]]] = [set() for _ in range(graph.vertex_count)]
    for eid, (u, v) in enumerate(graph.ends):
        incident[u].add(eid)
        incident[v].add(eid)
    return incident


def rounds(run: QueryRun, loop: str):
    """Drive a query loop one round per iteration.

    Every round that does not leave the loop must reveal or remove an edge,
    so at most m + 1 rounds run; a round that did neither raises NoProgress
    instead of spinning.
    """
    while True:
        before = len(run.queried) + len(run.removed)
        yield
        if len(run.queried) + len(run.removed) == before:
            raise NoProgress(
                f"{loop}: a round revealed and removed nothing "
                f"({len(run.queried)} queried, {len(run.present)} present)"
            )
