import json
from fractions import Fraction

import pytest

from mstquery import factory
from mstquery.graphcore import (
    AlreadyRevealed,
    Interval,
    NoProgress,
    ParseError,
    QueryRun,
    UncertainEdge,
    UncertainGraph,
    UnknownEdge,
    ValidationError,
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


def test_self_loop_rejected():
    with pytest.raises(ValidationError):
        UncertainGraph(2, [make_edge(0, 1, 1, 0, 2, 1, 1)])


def test_disconnected_rejected():
    edges = [make_edge(0, 0, 1, 0, 2, 1, 1), make_edge(1, 2, 3, 0, 2, 1, 1)]
    with pytest.raises(ValidationError):
        UncertainGraph(4, edges)


def test_isolated_vertex_rejected():
    with pytest.raises(ValidationError, match="not connected"):
        UncertainGraph(3, [make_edge(0, 0, 1, 0, 2, 1, 1)])


def test_single_vertex_without_edges_accepted():
    g = UncertainGraph(1, [])
    assert len(g) == 0 and g.vertex_count == 1


def test_kruskal_keeps_edges_that_join_components():
    ends = {0: (0, 1), 1: (1, 2), 2: (0, 2), 3: (2, 3)}
    parent = list(range(4))
    assert kruskal([2, 0, 1, 3], ends, parent) == [2, 0, 3]
    assert kruskal([1], ends, parent) == []


def test_sparse_edge_ids_rejected():
    with pytest.raises(ValidationError):
        UncertainGraph(2, [make_edge(1, 0, 1, 0, 2, 1, 1)])


def test_malformed_json_rejected():
    with pytest.raises(ParseError):
        load_instance("{not json")
    with pytest.raises(ParseError):
        load_instance(json.dumps({"vertices": 2}))


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


def test_reveal_under_prediction_values():
    g = factory.demo_mandatory_cycle()
    run = QueryRun(g, values=g.predicted_values())
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
