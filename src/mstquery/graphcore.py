"""Exact-arithmetic data model for uncertainty multigraphs and query sessions.

Every edge carries an open uncertainty interval (or a trivially known point
value), a hidden true weight, and an untrusted predicted weight.  All weights
are `fractions.Fraction`; no comparison in the core ever touches a float.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional


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
    for eid in order:
        a, b = ends[eid]
        ra, rb = find(parent, a), find(parent, b)
        if ra != rb:
            parent[ra] = rb
            tree.append(eid)
    return tree


def parse_rational(value) -> Fraction:
    """Parse an integer or a bit-exact "p/q" string into a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational: {value!r}") from exc
    raise ParseError(f"not a rational: {value!r}")


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

    def contained_in(self, other: "Interval") -> bool:
        return other.low <= self.low and self.high <= other.high

    # For an unknown value in this interval: the largest/smallest weight it
    # can be forced arbitrarily close to.  Point intervals yield the value.
    def sup_star(self) -> Fraction:
        return self.high

    def inf_star(self) -> Fraction:
        return self.low

    # Lexicographic (base, eps) keys realizing the L+eps / U-eps perturbations.
    def lower_key(self) -> tuple[Fraction, int]:
        return (self.low, 0) if self.is_trivial else (self.low, 1)

    def upper_key(self) -> tuple[Fraction, int]:
        return (self.high, 0) if self.is_trivial else (self.high, -1)


@dataclass(frozen=True)
class UncertainEdge:
    eid: int
    u: int
    v: int
    interval: Interval
    true_value: Fraction
    predicted_value: Fraction

    def validate(self) -> None:
        if self.u == self.v:
            raise ValidationError(f"edge {self.eid}: self-loops are rejected")
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


class UncertainGraph:
    """Connected multigraph with uncertain edge weights.

    Parallel edges are allowed; self-loops and disconnected graphs are
    rejected at load.  Edge ids are dense integers 0..m-1 and every
    deterministic tie-break downstream uses ascending edge id.
    """

    def __init__(self, vertex_count: int, edges: Iterable[UncertainEdge]):
        self.vertex_count = int(vertex_count)
        self.edges: tuple[UncertainEdge, ...] = tuple(sorted(edges, key=lambda e: e.eid))
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
            e.validate()
        if not self._connected():
            raise ValidationError("graph is not connected")

    def _connected(self) -> bool:
        ends = [(e.u, e.v) for e in self.edges]
        tree = kruskal(range(len(ends)), ends, list(range(self.vertex_count)))
        return len(tree) == self.vertex_count - 1

    def __len__(self) -> int:
        return len(self.edges)

    def edge(self, eid: int) -> UncertainEdge:
        if not 0 <= eid < len(self.edges):
            raise UnknownEdge(eid)
        return self.edges[eid]

    @property
    def adjacency(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {v: [] for v in range(self.vertex_count)}
        for e in self.edges:
            adj[e.u].append(e.eid)
            adj[e.v].append(e.eid)
        return adj

    def non_trivial_ids(self) -> list[int]:
        return [e.eid for e in self.edges if not e.interval.is_trivial]

    def true_values(self) -> dict[int, Fraction]:
        return {e.eid: e.true_value for e in self.edges}

    def predicted_values(self) -> dict[int, Fraction]:
        return {e.eid: e.predicted_value for e in self.edges}

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
        try:
            vertices = int(data["vertices"])
            raw_edges = data["edges"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed instance document: {exc}") from exc
        edges = []
        for raw in raw_edges:
            try:
                iv_raw = raw["interval"]
                if "w" in iv_raw:
                    interval = Interval.point(parse_rational(iv_raw["w"]))
                else:
                    interval = Interval.open(
                        parse_rational(iv_raw["L"]), parse_rational(iv_raw["U"])
                    )
                edges.append(
                    UncertainEdge(
                        eid=int(raw["id"]),
                        u=int(raw["u"]),
                        v=int(raw["v"]),
                        interval=interval,
                        true_value=parse_rational(raw["true"]),
                        predicted_value=parse_rational(raw["pred"]),
                    )
                )
            except (KeyError, TypeError) as exc:
                raise ParseError(f"malformed edge record {raw!r}") from exc
        return UncertainGraph(vertices, edges)


def load_instance(path_or_text: str) -> UncertainGraph:
    """Load an instance from a JSON file path or a JSON string."""
    text = path_or_text
    if not path_or_text.lstrip().startswith("{"):
        if not os.path.exists(path_or_text):
            raise ParseError(f"no such instance file: {path_or_text}")
        with open(path_or_text, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return UncertainGraph.from_dict(data)


# -- transcripts ---------------------------------------------------------


@dataclass(frozen=True)
class Event:
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
    values leave the session only through :meth:`reveal`.  A session can be
    built with an alternative value table (e.g. the predictions) so oracle
    code can replay hypothetical reveals on a scratch copy.
    """

    def __init__(self, graph: UncertainGraph, values: Optional[Mapping[int, Fraction]] = None):
        self._graph = graph
        self._values: dict[int, Fraction] = dict(values) if values is not None else graph.true_values()
        self._state: dict[int, Interval] = {e.eid: e.interval for e in graph.edges}
        self._ends: dict[int, tuple[int, int]] = {e.eid: (e.u, e.v) for e in graph.edges}
        self._parent = list(range(graph.vertex_count))
        self.queried: list[int] = []
        self.removed: dict[int, str] = {}  # eid -> "deleted" | "contracted"
        self.removed_unqueried: dict[int, str] = {}
        self.transcript = Transcript()

    # -- structure --------------------------------------------------------

    def endpoints(self, eid: int) -> tuple[int, int]:
        if eid not in self._state:
            raise UnknownEdge(eid)
        u, v = self._ends[eid]
        return find(self._parent, u), find(self._parent, v)

    def present_ids(self) -> list[int]:
        return sorted(self._state)

    def is_present(self, eid: int) -> bool:
        return eid in self._state

    def current_vertices(self) -> set[int]:
        return {find(self._parent, v) for v in range(len(self._parent))}

    def interval(self, eid: int) -> Interval:
        try:
            return self._state[eid]
        except KeyError:
            raise UnknownEdge(eid) from None

    def predicted(self, eid: int) -> Fraction:
        if eid not in self._state:
            raise UnknownEdge(eid)
        return self._graph.edge(eid).predicted_value

    def is_trivial(self, eid: int) -> bool:
        return self.interval(eid).is_trivial

    def non_trivial_ids(self) -> list[int]:
        return sorted(e for e, iv in self._state.items() if not iv.is_trivial)

    @property
    def query_count(self) -> int:
        return len(self.queried)

    # -- moves -------------------------------------------------------------

    def reveal(self, eid: int) -> Fraction:
        iv = self.interval(eid)
        if iv.is_trivial:
            raise AlreadyRevealed(eid)
        value = self._values[eid]
        self._state[eid] = Interval.point(value)
        self.queried.append(eid)
        self.transcript.record("reveal", edge=eid)
        return value

    def contract(self, eid: int) -> None:
        if eid not in self._state:
            raise UnknownEdge(eid)
        ru, rv = self.endpoints(eid)
        if ru == rv:
            raise ValidationError(f"edge {eid} is a self-loop; cannot contract")
        self._remove(eid, "contracted")
        self._parent[ru] = rv
        # parallel partners of the contracted edge become self-loops
        for other in list(self._state):
            a, b = self.endpoints(other)
            if a == b:
                self._remove(other, "deleted")

    def delete(self, eid: int) -> None:
        if eid not in self._state:
            raise UnknownEdge(eid)
        self._remove(eid, "deleted")

    def _remove(self, eid: int, kind: str) -> None:
        # only reveal turns an interval into a point, so an edge still open
        # is one that was never queried and was not trivial to begin with
        if not self._state.pop(eid).is_trivial:
            self.removed_unqueried[eid] = kind
        self.removed[eid] = kind
        self.transcript.record("contract" if kind == "contracted" else "delete", edge=eid)

    def contracted_ids(self) -> list[int]:
        return sorted(e for e, kind in self.removed.items() if kind == "contracted")

    # -- forking (oracle scratch copies) ------------------------------------

    def fork(self, values: Optional[Mapping[int, Fraction]] = None) -> "QueryRun":
        """Copy of the current state; optionally with a different value table."""
        clone = QueryRun.__new__(QueryRun)
        clone._graph = self._graph
        clone._values = dict(values) if values is not None else dict(self._values)
        clone._state = dict(self._state)
        clone._ends = self._ends
        clone._parent = list(self._parent)
        clone.queried = list(self.queried)
        clone.removed = dict(self.removed)
        clone.removed_unqueried = dict(self.removed_unqueried)
        clone.transcript = Transcript()
        return clone

    def graph_readonly(self) -> UncertainGraph:
        """The underlying instance, for oracle and reporting code.

        Strategy implementations must not call this; they interact with the
        session surface only.
        """
        return self._graph


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
                f"({len(run.queried)} queried, {len(run.present_ids())} present)"
            )
