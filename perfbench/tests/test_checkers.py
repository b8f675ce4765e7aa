"""The benchmark's checkers must accept real outputs and reject corrupted ones.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import random
import time

import pytest

import checkers
import workloads
from mstquery import errormetrics, factory, oracle
from tracing import Tracer


def small_corpus(count: int, error_rate=0.5):
    """gen_random instances with 4-6 vertices and 2-5 extra edges."""
    return [
        factory.gen_random(4 + i % 3, 2 + (i // 3) % 4, (0.5, 0.8, 1.0)[(i // 12) % 3], error_rate, 10_000 + i)
        for i in range(count)
    ]


def first_grid_op(mode="error_sensitive"):
    ops = workloads.setup_oracle_grid(seed=3)
    return next(op for op in ops if op.mode == mode)


# -- agreement with the library's own oracle on small instances ---------------


def test_mandatory_edges_agree_with_oracle():
    for graph in small_corpus(150):
        inst = workloads.to_instance(graph)
        assert checkers.mandatory_edges(inst) == oracle.mandatory_edges(graph)


def test_exhaustive_opt_agrees_with_brute_force():
    for graph in small_corpus(80, error_rate=1.0):
        inst = workloads.to_instance(graph)
        assert checkers.exhaustive_opt(inst, checkers.mandatory_edges(inst)) == oracle.opt_brute_force(graph).size


def test_feasibility_agrees_with_oracle():
    rng = random.Random(5)
    for graph in small_corpus(60):
        inst = workloads.to_instance(graph)
        for _ in range(5):
            subset = {eid for eid in inst.open_ids() if rng.random() < 0.5}
            assert checkers.feasible(inst, subset) == oracle.is_feasible(graph, subset).feasible


def test_hop_distance_agrees_with_errormetrics():
    for graph in small_corpus(60):
        assert checkers.hop_distance(workloads.to_instance(graph)) == errormetrics.hop_distance(graph).k_h


# -- real outputs pass ----------------------------------------------------------


def test_real_outputs_pass():
    cache = workloads.CheckCache()
    for op in workloads.setup_oracle_grid(seed=1)[:24]:
        assert workloads.check(op, op.run(), cache) is None, op.label
    small = factory.gen_vc_flip(8, "ex2")
    for mode, gamma in workloads.SCALE_CONFIGS:
        op = workloads.Op("vc-flip[8]", mode, lambda m=mode, y=gamma: workloads.solve(small, m, y), graph=small)
        assert workloads.check(op, op.run(), cache) is None, mode


def test_presentation_keeps_every_reveal():
    """The seed changes labels and numbers, never a decision of the method."""
    raw = factory.gen_random(7, 6, 0.9, 0.5, 42)
    runs = []
    for seed in (1, 2, 3):
        graph, _ = workloads.present(raw, random.Random(seed))
        runs.append([workloads.solve(graph, mode, gamma).queried for mode, gamma in workloads.SCALE_CONFIGS])
    assert runs[0] == runs[1] == runs[2]


# -- corrupted outputs fail -----------------------------------------------------


def test_swapped_tree_edge_is_rejected():
    op = first_grid_op()
    out = op.run()
    inst = workloads.to_instance(op.graph)
    tree = set(out.tree)
    swapped = None
    for f in inst.edges:
        if f.eid in tree:
            continue
        for e in checkers._tree_path(inst, tree, f.u, f.v):
            if inst.edges[e].true < f.true:
                swapped = (tree - {e}) | {f.eid}
                break
        if swapped:
            break
    assert swapped is not None and checkers.spanning_tree_problem(inst, swapped) is None
    assert checkers.check_mst(inst, swapped) is not None
    out.tree = frozenset(swapped)
    assert workloads.check(op, out, workloads.CheckCache()) is not None


def test_dropped_mandatory_query_is_rejected():
    op = first_grid_op()
    out = op.run()
    inst = workloads.to_instance(op.graph)
    mandatory = checkers.mandatory_edges(inst)
    assert mandatory
    dropped = next(iter(sorted(mandatory)))
    queried = tuple(e for e in out.queried if e != dropped)
    assert checkers.check_mandatory_queried(queried, mandatory) is not None
    out.queried, out.reported_queries = queried, len(queried)
    assert workloads.check(op, out, workloads.CheckCache()) is not None


@pytest.mark.parametrize("delta", [-1, 1])
def test_opt_off_by_one_is_rejected(delta):
    op = first_grid_op("tradeoff")
    out = op.run()
    assert workloads.check(op, out, workloads.CheckCache()) is None
    out.opt += delta
    assert "OPT" in workloads.check(op, out, workloads.CheckCache())


def test_bounds_reject_too_many_queries():
    assert checkers.check_bounds("baseline", None, 7, 3, 0, True) is not None
    assert checkers.check_bounds("baseline", None, 6, 3, 0, True) is None
    assert checkers.check_bounds("tradeoff", 2, 5, 4, 0, True) is None
    assert checkers.check_bounds("tradeoff", 2, 7, 4, 0, True) is not None  # (1 + 1/2) * 4 = 6
    assert checkers.check_bounds("tradeoff", 2, 7, 4, 1, False) is None
    assert checkers.check_bounds("error_sensitive", 3, 13, 4, 0, False) is not None  # (1 + 1/3) * 4 = 16/3
    assert checkers.check_bounds("error_sensitive", 2, 2, 3, 0, True) is not None  # beats OPT


def test_erm_value_in_worse_class_is_rejected():
    ops = workloads.setup_learn(seed=2)
    op = ops[0]
    out = op.run()
    base = op.learn["base"]
    inst = workloads.to_instance(base)
    train = out.draws[:-1]
    assert checkers.check_erm(inst, train, out.learned, op.learn["support"]) is None
    for e in inst.edges:
        if e.trivial:
            continue
        best = checkers.empirical_loss(inst, e.eid, train, out.learned[e.eid])
        step = (e.high - e.low) / checkers.GRID_POINTS
        grid = [e.low + step * i for i in range(1, checkers.GRID_POINTS)]
        if min(checkers.empirical_loss(inst, e.eid, train, x) for x in grid) != best:
            continue
        worse = next((x for x in grid if checkers.empirical_loss(inst, e.eid, train, x) > best), None)
        if worse is None:
            continue
        corrupted = dict(out.learned)
        corrupted[e.eid] = worse
        assert checkers.check_erm(inst, train, corrupted, op.learn["support"]) is not None
        outside = dict(out.learned)
        outside[e.eid] = e.high
        assert checkers.check_erm(inst, train, outside, op.learn["support"]) is not None
        return
    pytest.fail("no edge with a worse loss class to move to")


def test_loss_table_matches_direct_count():
    ops = workloads.setup_learn(seed=1)
    out = ops[1].run()
    inst = workloads.to_instance(ops[1].learn["base"])
    train = out.draws[:-1]
    for e in inst.edges[:10]:
        table = checkers._loss_table(inst, e.eid, train)
        for x in (e.low, e.high, (e.low + e.high) / 2, e.low + (e.high - e.low) / 7):
            assert table(x) == checkers.empirical_loss(inst, e.eid, train, x)


# -- the tracer ------------------------------------------------------------------


def test_tracer_wraps_everywhere_and_restores():
    from mstquery import limittrees, strategies

    original = limittrees.is_solved
    graph = factory.gen_random(6, 6, 0.9, 0.5, 3)
    tracer = Tracer()
    tracer.install()
    try:
        assert limittrees.is_solved is not original
        assert oracle.is_solved is limittrees.is_solved
        assert strategies.is_solved is limittrees.is_solved
        strategies.run_combined(graph, strategies.StrategyConfig(gamma=2, mode="tradeoff"))
        summary = tracer.summary()
    finally:
        tracer.uninstall()
    assert limittrees.is_solved is original and oracle.is_solved is original
    names = summary["names"]
    assert names["oracle.opt_brute_force"]["calls"] == 1
    assert names["strategies.run_combined"]["calls"] == 1
    total = names["strategies.run_combined"]["incl_s"]
    assert sum(stats["self_s"] for stats in names.values()) == pytest.approx(total, rel=1e-9)
    assert tracer.nested_count("oracle.opt_brute_force", "limittrees.is_solved") >= 1


def test_benchmark_json_names_what_the_runner_prints():
    import json
    from pathlib import Path

    import run

    spec = json.loads((Path(run.__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_speed_probe_scales_by_the_kernel_median():
    from speedprobe import REFERENCE_S, SpeedProbe

    probe = SpeedProbe()
    probe.samples = [2 * REFERENCE_S] * 30 + [REFERENCE_S / 2] * 5
    assert probe.at_reference(1.0, 0, 30) == pytest.approx(0.5)
    assert probe.at_reference(1.0, 30, 35, fallback_first=0) == pytest.approx(0.5)  # too few: widened
    with SpeedProbe() as live:
        mark = live.mark()
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
        seconds, first, end = live.elapsed(mark)
    assert end - first >= 20 and live.spent > 0
    assert seconds == pytest.approx(0.2 - live.spent, abs=0.01)


@pytest.mark.parametrize("trace", [0, 1])
def test_runner_prints_the_contract_line(trace, capsys):
    import json

    import run

    assert run.main(["--workload", "oracle-grid", "--seed", "1", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] % 144 == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert [(name, entry["unit"]) for name, entry in result["metrics"].items()] == expected
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
