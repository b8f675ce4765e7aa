import json
import random
from fractions import Fraction

import pytest

from mstquery import factory
from mstquery.graphcore import (
    AlreadyRevealed,
    Event,
    Interval,
    NoProgress,
    ParseError,
    QueryRun,
    UncertainEdge,
    UncertainGraph,
    UnknownEdge,
    ValidationError,
    find,
    kruskal,
    load_instance,
    rounds,
)
from mstquery.limittrees import is_solved


def make_edge(eid, u, v, low, high, pred, true):
    return UncertainEdge(eid, u, v, Interval.open(low, high), Fraction(true), Fraction(pred))


def test_load_demo_cycle_roundtrip(tmp_path):
    g = factory.demo_mandatory_cycle()
    assert len(g) == 4 and g.vertex_count == 4
    path = tmp_path / "cycle.json"
    g.save(str(path))
    g2 = load_instance(str(path))
    assert g2.to_json() == g.to_json()


def test_load_from_text():
    g = load_instance(factory.demo_hop_cycle().to_json())
    assert len(g) == 4


def test_degenerate_interval_rejected():
    with pytest.raises(ValidationError):
        Interval.open(1, 1)


def test_value_on_endpoint_rejected():
    doc = factory.demo_hop_cycle().to_dict()
    doc["edges"][0]["true"] = doc["edges"][0]["interval"]["U"]
    with pytest.raises(ValidationError):
        UncertainGraph.from_dict(doc)


def test_a_point_interval_contains_only_its_value():
    point = Interval.point(2)
    assert point.contains(2)
    assert not point.contains(3)


def test_self_loop_rejected():
    with pytest.raises(ValidationError):
        UncertainGraph(2, [make_edge(0, 1, 1, 0, 2, 1, 1)])


def test_disconnected_rejected():
    edges = [make_edge(0, 0, 1, 0, 2, 1, 1), make_edge(1, 2, 3, 0, 2, 1, 1)]
    with pytest.raises(ValidationError):
        UncertainGraph(4, edges)


def test_isolated_vertex_rejected():
    # a count far above m + 1 is rejected before any list per vertex is built
    for vertices in (3, 10**15):
        with pytest.raises(ValidationError, match="not connected"):
            UncertainGraph(vertices, [make_edge(0, 0, 1, 0, 2, 1, 1)])


def test_single_vertex_without_edges_accepted():
    g = UncertainGraph(1, [])
    assert len(g) == 0 and g.vertex_count == 1


def test_kruskal_keeps_edges_that_join_components():
    ends = {0: (0, 1), 1: (1, 2), 2: (0, 2), 3: (2, 3)}
    parent = list(range(4))
    assert kruskal([2, 0, 1, 3], ends, parent) == [2, 0, 3]
    assert kruskal([1], ends, parent) == []


def find_kruskal(order, ends, parent):
    """`kruskal` through `find`: the loop before the union-find was inlined."""
    tree = []
    for eid in order:
        a, b = ends[eid]
        ra, rb = find(parent, a), find(parent, b)
        if ra != rb:
            parent[ra] = rb
            tree.append(eid)
    return tree


def components(parent):
    groups = {}
    for v in range(len(parent)):
        groups.setdefault(find(parent, v), []).append(v)
    return sorted(groups.values())


@pytest.mark.parametrize("seed", range(200))
def test_kruskal_matches_the_find_reference(seed):
    # multigraphs with parallel edges, self-loops and keys from a small range
    # (so many tie), over a forest some of whose vertices are merged already
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    ends = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3 * n))]
    ends += [ends[i] for i in range(0, len(ends), 3)]
    keys = [rng.randint(0, 3) for _ in ends]
    order = sorted(range(len(ends)), key=keys.__getitem__)
    merged = list(range(n))
    for _ in range(rng.randint(0, n)):
        a, b = rng.randrange(n), rng.randrange(n)
        merged[find(merged, a)] = find(merged, b)
    inlined, reference = list(merged), list(merged)
    tree = kruskal(order, ends, inlined)
    assert tree == find_kruskal(order, ends, reference)
    assert components(inlined) == components(reference)
    # each tree edge joins two components of the pre-merged forest
    assert len(components(merged)) - len(tree) == len(components(inlined))


def test_sparse_edge_ids_rejected():
    with pytest.raises(ValidationError):
        UncertainGraph(2, [make_edge(1, 0, 1, 0, 2, 1, 1)])


def test_malformed_json_rejected():
    with pytest.raises(ParseError):
        load_instance("{not json")
    with pytest.raises(ParseError):
        load_instance(json.dumps({"vertices": 2}))


@pytest.mark.parametrize(
    "change",
    [
        lambda doc: doc.update(edges=5),
        lambda doc: doc["edges"][0].update(id="a"),
        lambda doc: doc["edges"][0].update(u=[0]),
        lambda doc: doc["edges"][0].update(interval=3),
        # a key the reader does not read is rejected, not ignored
        # with true = pred = w, so that the point alone would load
        lambda doc: doc["edges"][0].update(interval={"L": "0", "U": "4", "w": "1"}, true="1", pred="1"),
        lambda doc: doc["edges"][0].update(interval={"w": "1", "U": "4"}, true="1", pred="1"),
        lambda doc: doc["edges"][0].update(interval={"L": "0", "u": "2"}),
        lambda doc: doc["edges"][0].update(prediction="1"),
        lambda doc: doc.update(extra=1),
    ],
    ids=[
        "edges-not-a-list", "id-not-an-integer", "endpoint-a-list", "interval-not-an-object",
        "interval-with-w-and-L-U", "interval-with-w-and-U", "interval-with-lowercase-u",
        "unread-edge-key", "unread-document-key",
    ],
)
def test_malformed_instance_document_is_a_parse_error(change):
    doc = factory.demo_hop_cycle().to_dict()
    change(doc)
    with pytest.raises(ParseError):
        UncertainGraph.from_dict(doc)


@pytest.mark.parametrize(
    "change, key",
    [
        (lambda doc: doc["edges"][0].update(interval={"L": "0", "U": "4", "w": "1"}, true="1", pred="1"), "'w'"),
        (lambda doc: doc["edges"][0].update(prediction="1"), "'prediction'"),
        (lambda doc: doc.update(extra=1), "'extra'"),
    ],
)
def test_an_unread_instance_key_is_named(change, key):
    doc = factory.demo_hop_cycle().to_dict()
    change(doc)
    with pytest.raises(ParseError, match=key):
        UncertainGraph.from_dict(doc)


@pytest.mark.parametrize(
    "field, value",
    [
        ("vertices", 4.5), ("vertices", 4.0), ("vertices", True), ("id", 1.9), ("id", 0.0), ("id", False), ("u", 0.5), ("v", True),
        # a string is not read as the integer it spells
        ("vertices", "3"), ("id", "0"), ("u", " 1 "),
    ],
)
def test_non_integral_numbers_are_a_parse_error_naming_the_field(field, value):
    doc = factory.demo_hop_cycle().to_dict()
    if field == "vertices":
        doc["vertices"] = value
    else:
        doc["edges"][0][field] = value
    with pytest.raises(ParseError, match=f"'{field}' must be an integer"):
        UncertainGraph.from_dict(doc)


def test_invalid_values_in_a_document_keep_their_error():
    doc = factory.demo_hop_cycle().to_dict()
    doc["edges"][0]["pred"] = "x"
    with pytest.raises(ParseError, match="not a rational: 'x'"):
        UncertainGraph.from_dict(doc)
    doc = factory.demo_hop_cycle().to_dict()
    doc["edges"][0]["interval"] = {"L": "2", "U": "1"}
    with pytest.raises(ValidationError, match="L < U"):
        UncertainGraph.from_dict(doc)


@pytest.mark.parametrize("field", ["L", "U", "true", "pred"])
def test_a_boolean_value_in_a_document_is_not_a_rational(field):
    doc = factory.demo_hop_cycle().to_dict()
    edge = doc["edges"][0]
    (edge["interval"] if field in ("L", "U") else edge)[field] = False
    with pytest.raises(ParseError, match="^not a rational: False$"):
        UncertainGraph.from_dict(doc)


def test_a_float_value_in_a_graph_is_rejected_naming_the_edge():
    # a float would pass the Fraction comparisons and fail later, in the
    # integer ranking of a run; a bool would pass as an int, and `save`
    # would write it as a JSON boolean, which `load_instance` rejects
    good = make_edge(0, 0, 1, 0, 2, 1, 1)
    for iv, truth, pred, text in (
        (Interval.open(0, 2), 1.5, Fraction(1), "1.5"),
        (Interval.open(0, 2), Fraction(1), 0.5, "0.5"),
        (Interval(Fraction(0), 2.0), Fraction(1), Fraction(1), "2.0"),
        (Interval(1.0, 1.0), 1.0, 1.0, "1.0"),
        (Interval(Fraction(0), Fraction(2)), True, Fraction(1, 2), "True"),
        (Interval(Fraction(0), Fraction(2)), Fraction(1, 2), True, "True"),
        (Interval(True, Fraction(2)), Fraction(3, 2), Fraction(3, 2), "True"),
        (Interval(False, False), False, False, "False"),
    ):
        bad = UncertainEdge(1, 0, 1, iv, truth, pred)
        with pytest.raises(ValidationError, match=f"^edge 1: value {text} is not rational$"):
            UncertainGraph(2, [good, bad])
    # an id or endpoint that is a bool or a float; a float endpoint used to
    # fail inside the connectivity check with a TypeError
    for eid, u, v, text in (
        (True, 0, 1, r"edge True: .*\(True, 0, 1\)"),
        (1.0, 0, 1, r"edge 1.0: .*\(1.0, 0, 1\)"),
        (1, 0, True, r"edge 1: .*\(1, 0, True\)"),
        (1, False, 1, r"edge 1: .*\(1, False, 1\)"),
        (1, 0, 1.0, r"edge 1: .*\(1, 0, 1.0\)"),
    ):
        bad = UncertainEdge(eid, u, v, Interval.open(0, 2), Fraction(1), Fraction(1))
        with pytest.raises(ValidationError, match=f"^{text}$"):
            UncertainGraph(2, [good, bad])


def test_a_non_integer_id_endpoint_or_vertex_count_is_a_validation_error():
    # a str or None id used to fail in the sort by id, a str endpoint in the
    # range check, both with a TypeError; a float, bool or str vertex count
    # used to build, truncated by int()
    good = make_edge(0, 0, 1, 0, 2, 1, 1)
    for eid, u, v, text in (
        ("0", 1, 2, r"edge 0: .*\('0', 1, 2\)"),
        (None, 1, 2, r"edge None: .*\(None, 1, 2\)"),
        (1, "1", 2, r"edge 1: .*\(1, '1', 2\)"),
        (1, 1, "2", r"edge 1: .*\(1, 1, '2'\)"),
    ):
        bad = UncertainEdge(eid, u, v, Interval.open(0, 2), Fraction(1), Fraction(1))
        for edges in ([good, bad], [bad, good]):
            with pytest.raises(ValidationError, match=f"^{text}$"):
                UncertainGraph(3, edges)
    for count in (2.5, True, "3", None):
        with pytest.raises(ValidationError, match=f"^vertex count must be an integer, got {count!r}$"):
            UncertainGraph(count, [good])


def test_trivial_edge_requires_matching_values():
    iv = Interval.point(3)
    with pytest.raises(ValidationError):
        UncertainEdge(0, 0, 1, iv, Fraction(3), Fraction(2)).validate()


def test_reveal_returns_truth_and_counts():
    g = factory.demo_mandatory_cycle()
    run = QueryRun(g)
    assert run.reveal(0) == Fraction(9, 2)
    assert run.query_count == 1
    with pytest.raises(AlreadyRevealed):
        run.reveal(0)
    with pytest.raises(UnknownEdge):
        run.reveal(99)
    assert run.transcript.reveals() == [0]


def test_reveal_everything_solves():
    g = factory.gen_random(5, 4, 1.0, 0.5, seed=3)
    run = QueryRun(g)
    for eid in g.non_trivial_ids():
        run.reveal(eid)
    assert is_solved(run) is not None
    assert run.query_count == len(g.non_trivial_ids())


def test_contract_bridge_merges_vertices():
    edges = [
        make_edge(0, 0, 1, 0, 2, 1, 1),
        make_edge(1, 1, 2, 10, 12, 11, 11),
        make_edge(2, 1, 2, 10, 12, 11, 11),
    ]
    g = UncertainGraph(3, edges)
    run = QueryRun(g)
    assert len(run.current_vertices()) == 3
    run.contract(0)  # bridge: in every spanning tree
    assert len(run.current_vertices()) == 2
    assert run.removed[0] == "contracted"


def test_contract_removes_parallel_self_loops():
    edges = [
        make_edge(0, 0, 1, 0, 2, 1, 1),
        make_edge(1, 0, 1, 10, 12, 11, 11),
        make_edge(2, 1, 2, 20, 22, 21, 21),
    ]
    g = UncertainGraph(3, edges)
    run = QueryRun(g)
    run.contract(0)
    # the parallel partner became a self-loop and is gone
    assert not run.is_present(1)
    assert run.removed[1] == "deleted"
    assert run.is_present(2)


def test_delete_dominated_parallel_edge_keeps_solved_status():
    edges = [
        make_edge(0, 0, 1, 0, 2, 1, 1),
        make_edge(1, 0, 1, 5, 7, 6, 6),
        make_edge(2, 1, 2, 0, 2, 1, 1),
    ]
    g = UncertainGraph(3, edges)
    before = is_solved(QueryRun(g))
    run = QueryRun(g)
    run.delete(1)  # interval strictly above its partner's
    after = is_solved(run)
    assert (before is None) == (after is None)


def test_transcript_sequence_is_monotone():
    g = factory.demo_mandatory_cycle()
    run = QueryRun(g)
    run.reveal(0)
    run.reveal(1)
    run.delete(2)
    seqs = [ev.seq for ev in run.transcript.events]
    assert seqs == sorted(seqs) == list(range(len(seqs)))
    body = json.loads(run.transcript.to_json())
    assert [ev["kind"] for ev in body["events"]] == ["reveal", "reveal", "delete"]


def test_transcript_events_are_event_tuples_with_the_same_json():
    edges = [
        make_edge(0, 0, 1, 0, 2, 1, 1),
        make_edge(1, 0, 1, 10, 12, 11, 11),
        make_edge(2, 1, 2, 20, 22, 21, 21),
    ]
    run = QueryRun(UncertainGraph(3, edges))
    run.reveal(2)
    run.transcript.record("phase", tag="phase2")
    run.contract(0)  # deletes its parallel partner 1
    run.transcript.set_final_tree([0, 2])
    events = run.transcript.events
    assert all(type(ev) is Event for ev in events)
    assert events == [(0, "reveal", 2, None), (1, "phase", None, "phase2"), (2, "contract", 0, None), (3, "delete", 1, None)]
    expected = {
        "events": [
            {"seq": 0, "kind": "reveal", "edge": 2},
            {"seq": 1, "kind": "phase", "tag": "phase2"},
            {"seq": 2, "kind": "contract", "edge": 0},
            {"seq": 3, "kind": "delete", "edge": 1},
        ],
        "final_tree": [0, 2],
    }
    assert run.transcript.to_json() == json.dumps(expected, indent=2)


def test_reveal_under_prediction_values():
    g = factory.demo_mandatory_cycle()
    run = QueryRun(g, "predictions")
    assert run.reveal(0) == Fraction(23, 4)


def test_trivial_edge_counts_as_revealed():
    g = factory.gen_triangle_chain(2)
    run = QueryRun(g)
    trivial = [e.eid for e in g.edges if e.interval.is_trivial]
    assert trivial
    with pytest.raises(AlreadyRevealed):
        run.reveal(trivial[0])


def test_rounds_raises_on_a_round_that_changes_nothing():
    run = QueryRun(factory.demo_mandatory_cycle())
    pending = [0, 1]
    with pytest.raises(NoProgress, match=r"^demo: .*\(2 queried, 4 present\)$"):
        for _ in rounds(run, "demo"):
            if pending:
                run.reveal(pending.pop(0))
    assert run.queried == [0, 1]


def test_rounds_run_while_each_round_reveals_or_removes():
    run = QueryRun(factory.demo_mandatory_cycle())
    count = 0
    for _ in rounds(run, "demo"):
        count += 1
        if count == 1:
            run.delete(3)
            continue
        open_ids = run.non_trivial_ids()
        if not open_ids:
            break
        run.reveal(open_ids[0])
    assert count == 5 and run.queried == [0, 1, 2]
