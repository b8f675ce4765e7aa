import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mstquery import cli, factory
from mstquery.cli import main
from mstquery.oracle import DEFAULT_CAP, opt_brute_force

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_gen_and_opt_roundtrip(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert main(["gen", "--family", "triangle-chain", "--n", "1", "--out", str(inst)]) == 0
    assert main(["opt", "--instance", str(inst), "--values", "truth", "--all"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["size"] == 1 and body["one_optimal_set"] == [1]


def test_opt_under_predicted_values(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    factory.demo_mandatory_cycle().save(str(inst))
    assert main(["opt", "--instance", str(inst), "--values", "pred"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["size"] == 1 and body["one_optimal_set"] == [0]


def test_error_subcommand_csv_and_json(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    factory.demo_hop_cycle().save(str(inst))
    assert main(["error", "--instance", str(inst)]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["k_h"] == 5
    assert main(["error", "--instance", str(inst), "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "edge,jo,oj"
    assert lines[-1] == "total,5,5"


def test_run_subcommand_writes_report(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    report = tmp_path / "report.json"
    factory.gen_triangle_chain(1).save(str(inst))
    code = main(
        [
            "run", "--alg", "error-sensitive", "--gamma", "2",
            "--instance", str(inst), "--report", str(report),
        ]
    )
    assert code == 0
    body = json.loads(report.read_text())
    assert body["report"]["opt"] == 1
    assert body["transcript"]["final_tree"] is not None
    capsys.readouterr()


def test_run_subcommand_rational_gamma(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    factory.gen_triangle_chain(1).save(str(inst))
    assert main(["run", "--alg", "tradeoff", "--gamma", "5/2", "--instance", str(inst)]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["report"]["gamma"] == "5/2"
    assert body["report"]["gamma_effective"] in (2, 3)


def test_learn_subcommand(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    dist = tmp_path / "dist.json"
    out = tmp_path / "preds.json"
    factory.gen_triangle_chain(1).save(str(inst))
    dist.write_text(json.dumps({"edges": {"0": {"values": ["1/2", "3/2"], "weights": [1, 3]}}}))
    code = main(
        [
            "learn", "--instance", str(inst), "--dist", str(dist),
            "--samples", "50", "--seed", "4", "--out", str(out),
        ]
    )
    assert code == 0
    body = json.loads(out.read_text())
    assert set(body) == {"0", "1", "2"}
    capsys.readouterr()


def test_bench_subcommand(tmp_path, capsys):
    cfg = tmp_path / "bench.json"
    cfg.write_text(
        json.dumps(
            {
                "jobs": [
                    {
                        "family": "triangle-chain",
                        "params": {"n": 2},
                        "strategies": [
                            {"alg": "error-sensitive", "gamma": 2},
                            {"alg": "baseline"},
                        ],
                    },
                    {
                        "family": "random",
                        "params": {"vertices": 5, "extra_edges": 3, "overlap_density": 0.8, "error_rate": 0.5},
                        "seeds": [1, 2],
                        "strategies": [{"alg": "tradeoff", "gamma": 3}],
                    },
                ],
            }
        )
    )
    out_base = tmp_path / "report"
    code = main(["bench", "--config", str(cfg), "--out", str(out_base), "--format", "csv"])
    assert code == 0
    csv_text = (tmp_path / "report.csv").read_text()
    assert csv_text.splitlines()[0].startswith("instance,strategy,gamma")
    rows = json.loads((tmp_path / "report.json").read_text())
    assert len(rows) == 4
    assert all(row["status"] == "ok" for row in rows)
    capsys.readouterr()


def test_bench_rejects_empty_strategies(tmp_path, capsys):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"jobs": [{"family": "triangle-chain", "params": {"n": 1}, "strategies": []}]}))
    assert main(["bench", "--config", str(cfg)]) == 2
    capsys.readouterr()


def test_bench_reports_opt_on_an_instance_beyond_a_small_cap(tmp_path, capsys):
    # a cap of 3 once skipped this instance; bench now reports OPT at any size
    cfg = tmp_path / "bench.json"
    cfg.write_text(
        json.dumps(
            {
                "jobs": [
                    {
                        "family": "random",
                        "params": {"vertices": 6, "extra_edges": 5, "overlap_density": 0.9, "error_rate": 0.0},
                        "seeds": [3],
                        "strategies": [{"alg": "tradeoff", "gamma": 2}],
                    }
                ],
            }
        )
    )
    assert main(["bench", "--config", str(cfg)]) == 0
    rows = json.loads(capsys.readouterr().out)
    opt = opt_brute_force(factory.gen_random(6, 5, 0.9, 0.0, 3)).size
    assert len(rows) == 1 and rows[0]["status"] == "ok"
    assert rows[0]["opt"] == opt and rows[0]["ratio"] is not None


def test_run_reports_opt_beyond_the_brute_force_cap(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    graph = factory.gen_random(12, 12, 0.95, 0.3, 3)
    assert len(graph.non_trivial_ids()) > DEFAULT_CAP
    graph.save(str(inst))
    assert main(["run", "--alg", "error-sensitive", "--instance", str(inst)]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["opt"] is not None and report["ratio"] is not None


@pytest.mark.parametrize("command", ["run", "bench"])
def test_oracle_cap_is_not_an_option_of_run_or_bench(tmp_path, command):
    inst, cfg = tmp_path / "inst.json", tmp_path / "bench.json"
    factory.gen_triangle_chain(1).save(str(inst))
    cfg.write_text(json.dumps({"jobs": [_TRIANGLE_JOB]}))
    source = ["--config", str(cfg)] if command == "bench" else ["--instance", str(inst), "--alg", "baseline"]
    proc = _run_cli(command, *source, "--oracle-cap", "3")
    assert proc.returncode == 2
    assert "unrecognized arguments: --oracle-cap 3" in proc.stderr


def test_gen_prints_to_stdout_without_out(capsys):
    assert main(["gen", "--family", "path-parallel", "--n", "2"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["vertices"] == 3 and len(body["edges"]) == 4


def test_bundled_family_config_passes_every_bound(capsys):
    config = REPO_ROOT / "benchmarks" / "families.json"
    assert main(["bench", "--config", str(config)]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert all(row["status"] == "ok" for row in rows)


def _run_cli(*argv, stdout=subprocess.PIPE):
    """The CLI in a child process, so stderr is exactly what a user sees."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "mstquery.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
    )


def test_malformed_instance_is_one_error_line(tmp_path):
    doc = factory.gen_triangle_chain(1).to_dict()
    doc["edges"][1]["pred"] = "x"
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc))
    proc = _run_cli("run", "--alg", "tradeoff", "--instance", str(inst))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "'x'" in proc.stderr


def test_missing_instance_file_is_one_error_line(tmp_path):
    missing = tmp_path / "absent.json"
    proc = _run_cli("opt", "--instance", str(missing))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"error: no such instance file: {missing}\n"


def _assert_one_error_line(proc, text):
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert text in proc.stderr


def test_bad_gamma_is_one_error_line(tmp_path):
    inst = tmp_path / "inst.json"
    factory.gen_triangle_chain(1).save(str(inst))
    proc = _run_cli("run", "--alg", "tradeoff", "--gamma", "x", "--instance", str(inst))
    _assert_one_error_line(proc, "'x'")
    proc = _run_cli("run", "--alg", "error-sensitive", "--gamma", "1", "--instance", str(inst))
    _assert_one_error_line(proc, "at least 2")


def test_bad_learn_inputs_are_one_error_line(tmp_path):
    inst = tmp_path / "inst.json"
    dist = tmp_path / "dist.json"
    factory.gen_triangle_chain(1).save(str(inst))
    dist.write_text(json.dumps({"edges": {"0": {"values": ["1/2"]}}}))
    proc = _run_cli("learn", "--instance", str(inst), "--dist", str(dist), "--samples", "0")
    _assert_one_error_line(proc, "--samples")
    missing = tmp_path / "absent.json"
    proc = _run_cli("learn", "--instance", str(inst), "--dist", str(missing), "--samples", "3")
    _assert_one_error_line(proc, f"no such distribution file: {missing}")
    dist.write_text(json.dumps({"edges": {"0": {"weights": [1]}}}))
    proc = _run_cli("learn", "--instance", str(inst), "--dist", str(dist), "--samples", "3")
    _assert_one_error_line(proc, "edge 0")


def test_an_unread_key_is_one_error_line(tmp_path):
    # an interval with both forms, a stray edge key and a misspelled
    # mixture key are each rejected, not ignored
    inst = tmp_path / "inst.json"
    for change, key in (
        (lambda doc: doc["edges"][0].update(interval={"L": "0", "U": "2", "w": "1"}, true="1", pred="1"), "'w'"),
        (lambda doc: doc["edges"][0].update(prediction="1"), "'prediction'"),
    ):
        doc = factory.gen_triangle_chain(1).to_dict()
        change(doc)
        inst.write_text(json.dumps(doc))
        _assert_one_error_line(_run_cli("run", "--alg", "baseline", "--instance", str(inst)), key)
    factory.gen_triangle_chain(1).save(str(inst))
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps({"edges": {"0": {"values": ["1/2", "1"], "weight": [3, 1]}}}))
    proc = _run_cli("learn", "--instance", str(inst), "--dist", str(dist), "--samples", "3")
    _assert_one_error_line(proc, "'weight'")


def test_a_boolean_value_is_one_error_line(tmp_path):
    # JSON true and false are not the rationals 1 and 0
    doc = factory.gen_triangle_chain(1).to_dict()
    doc["edges"][0]["interval"]["L"] = False
    doc["edges"][0]["true"] = True
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc))
    for argv in (("run", "--alg", "baseline"), ("error",)):
        _assert_one_error_line(_run_cli(*argv, "--instance", str(inst)), "not a rational: False")
    factory.gen_triangle_chain(1).save(str(inst))
    dist = tmp_path / "dist.json"
    dist.write_text(json.dumps({"edges": {"0": {"values": [True]}}}))
    proc = _run_cli("learn", "--instance", str(inst), "--dist", str(dist), "--samples", "3")
    _assert_one_error_line(proc, "not a rational: True")


def test_two_mixtures_for_one_edge_are_one_error_line(tmp_path):
    inst = tmp_path / "inst.json"
    dist = tmp_path / "dist.json"
    factory.gen_triangle_chain(1).save(str(inst))
    dist.write_text(json.dumps({"edges": {"0": {"values": ["5/4"]}, "00": {"values": ["11/12"]}}}))
    proc = _run_cli("learn", "--instance", str(inst), "--dist", str(dist), "--samples", "3")
    _assert_one_error_line(proc, "edge 0: two mixtures, keyed '0' and '00'")


def test_an_oversized_vertex_count_is_one_error_line(tmp_path):
    doc = factory.gen_triangle_chain(1).to_dict()
    doc["vertices"] = 10**15
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc))
    _assert_one_error_line(_run_cli("run", "--alg", "baseline", "--instance", str(inst)), "graph is not connected")


def test_missing_bench_config_is_one_error_line(tmp_path):
    missing = tmp_path / "absent.json"
    proc = _run_cli("bench", "--config", str(missing))
    _assert_one_error_line(proc, f"no such config file: {missing}")


_TRIANGLE_JOB = {"family": "triangle-chain", "params": {"n": 1}, "strategies": [{"alg": "baseline"}]}


@pytest.mark.parametrize(
    "config, text",
    [
        ([_TRIANGLE_JOB], "config must be a JSON object"),
        ({"jobs": "x"}, "jobs must be a list of objects"),
        ({"jobs": [dict(_TRIANGLE_JOB, strategies=[{"alg": "baseline", "seed": "x"}])]}, "seed must be an integer"),
        ({"jobs": [dict(_TRIANGLE_JOB, params={})]}, "triangle-chain needs parameter 'n'"),
        ({"jobs": [dict(_TRIANGLE_JOB, family="random", params={"vertices": "a"})]}, "wrong type"),
        ({"jobs": [dict(_TRIANGLE_JOB, params={"n": 0})]}, "n must be at least 1"),
        # seeds only on the random family, and never none
        ({"jobs": [dict(_TRIANGLE_JOB, seeds=[1, 2, 3])]}, "family triangle-chain takes no seeds; only random does"),
        ({"jobs": [dict(_TRIANGLE_JOB, family="random", params={}, seeds=[])]}, "job lists no seeds"),
        ({"jobs": [dict(_TRIANGLE_JOB, family="triangle")]}, "unknown family 'triangle'"),
    ],
)
def test_malformed_bench_config_is_one_error_line(tmp_path, config, text):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps(config))
    _assert_one_error_line(_run_cli("bench", "--config", str(cfg)), text)


_RANDOM_JOB = dict(_TRIANGLE_JOB, family="random", params={})


@pytest.mark.parametrize(
    "config, text",
    [
        ({"jobs": [dict(_TRIANGLE_JOB, strategies=[{"alg": "baseline", "seed": 2.7}])]}, "seed must be an integer, got 2.7"),
        ({"jobs": [dict(_TRIANGLE_JOB, strategies=[{"alg": "baseline", "seed": True}])]}, "seed must be an integer, got True"),
        ({"jobs": [dict(_TRIANGLE_JOB, strategies=[{"alg": "baseline", "seed": 4.0}])]}, "seed must be an integer, got 4.0"),
        ({"jobs": [dict(_RANDOM_JOB, seeds=[3.0])]}, "seeds must be a list of integers, got [3.0]"),
        ({"jobs": [dict(_RANDOM_JOB, seeds="12")]}, "seeds must be a list of integers, got '12'"),
        ({"jobs": [dict(_RANDOM_JOB, seeds=[1, 2.5])]}, "seeds must be a list of integers, got [1, 2.5]"),
        ({"jobs": [dict(_RANDOM_JOB, seeds=[True])]}, "seeds must be a list of integers, got [True]"),
    ],
)
def test_bench_integer_fields_reject_floats_bools_and_strings(tmp_path, config, text):
    # read by the instance parser's rule: never truncated to an int
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps(config))
    _assert_one_error_line(_run_cli("bench", "--config", str(cfg)), text)


@pytest.mark.parametrize(
    "config, text",
    [
        ({"oracle_cap": 16, "jobs": [_TRIANGLE_JOB]}, "unknown config key 'oracle_cap'; expected one of jobs"),
        ({"jobs": [dict(_TRIANGLE_JOB, seeds_typo=[1])]}, "unknown job key 'seeds_typo'"),
        ({"jobs": [dict(_TRIANGLE_JOB, strategies=[{"alg": "baseline", "gama": 3}])]}, "unknown strategy key 'gama'"),
        # a later job's strategy
        ({"jobs": [_TRIANGLE_JOB, dict(_TRIANGLE_JOB, strategies=[{"alg": "baseline", "oracle_cap": 3}])]},
         "unknown strategy key 'oracle_cap'; expected one of alg, gamma, seed"),
        # a params key its family does not read
        ({"jobs": [dict(_TRIANGLE_JOB, family="random", params={"extra_edge": 10})]},
         "unknown random params key 'extra_edge'; expected one of vertices, extra_edges, overlap_density, error_rate"),
        ({"jobs": [dict(_TRIANGLE_JOB, family="path-parallel", params={"n": 2, "beta": 3})]},
         "unknown path-parallel params key 'beta'; expected one of n"),
    ],
)
def test_bench_rejects_unknown_keys(tmp_path, config, text):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps(config))
    _assert_one_error_line(_run_cli("bench", "--config", str(cfg)), text)


@pytest.mark.parametrize(
    "job, text",
    [
        (dict(_TRIANGLE_JOB, strategies=[{"alg": "errorsensitive"}]), "unknown strategy 'errorsensitive'"),
        (dict(_TRIANGLE_JOB, strategies=[{"alg": "tradeoff", "gamma": "3/2"}]), "gamma must be at least 2, got 3/2"),
        (dict(_TRIANGLE_JOB, strategies=[{"alg": "baseline", "seed": "x"}]), "seed must be an integer, got 'x'"),
        (dict(_TRIANGLE_JOB, params={"n": 0}), "n must be at least 1"),
    ],
)
def test_a_later_job_is_checked_before_the_first_one_runs(tmp_path, monkeypatch, capsys, job, text):
    # a strategy's alg, gamma and seed, and a family parameter's value, are
    # checked with every key, before any job runs
    def unreachable(*args):
        raise AssertionError("a job ran before every job was checked")

    monkeypatch.setattr(cli, "_run_strategy", unreachable)
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"jobs": [_TRIANGLE_JOB, job]}))
    assert main(["bench", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert text in captured.err


@pytest.mark.parametrize("gamma", [2.5, 2.0, True])
def test_bench_gamma_rejects_floats_and_bools(tmp_path, gamma):
    # README documents an integer or a "p/q" string; a float is not read
    # as the rational it approximates
    strategies = [{"alg": "error-sensitive", "gamma": gamma}]
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"jobs": [dict(_TRIANGLE_JOB, strategies=strategies)]}))
    proc = _run_cli("bench", "--config", str(cfg))
    _assert_one_error_line(proc, f'gamma must be an integer or a "p/q" string, got {gamma!r}')


@pytest.mark.parametrize("command", ["opt"])  # the one command with an oracle cap
def test_a_negative_oracle_cap_is_one_error_line(tmp_path, command):
    # a cap counts edges: a negative one is an input error, not a cap that
    # every instance exceeds
    inst = tmp_path / "inst.json"
    factory.gen_triangle_chain(1).save(str(inst))
    proc = _run_cli(command, "--instance", str(inst), "--oracle-cap", "-1")
    _assert_one_error_line(proc, "--oracle-cap must be at least 0, got -1")


def test_invalid_gen_parameters_are_one_error_line():
    _assert_one_error_line(_run_cli("gen", "--family", "triangle-chain", "--n", "0"), "n must be at least 1")
    _assert_one_error_line(_run_cli("gen", "--family", "tradeoff-cycle", "--beta", "1"), "beta must be at least 2")


def test_bench_rational_gamma_matches_run(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    cfg = tmp_path / "bench.json"
    factory.gen_triangle_chain(2).save(str(inst))
    strategies = [{"alg": "error-sensitive", "gamma": "5/2", "seed": seed} for seed in (0, 1)]
    cfg.write_text(json.dumps({"jobs": [{"family": "triangle-chain", "params": {"n": 2}, "strategies": strategies}]}))
    assert main(["bench", "--config", str(cfg)]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {row["gamma_effective"] for row in rows} == {2, 3}
    for row, strat in zip(rows, strategies):
        assert main(["run", "--alg", "error-sensitive", "--gamma", "5/2", "--seed", str(strat["seed"]), "--instance", str(inst)]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert row.pop("status") == "ok"
        for key in ("runtime_ms", "instance"):
            del row[key], report[key]
        assert row == report


def test_bench_runs_a_saved_instance_as_run_does(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    cfg = tmp_path / "bench.json"
    factory.gen_random(6, 5, 0.9, 0.3, 4).save(str(inst))
    strategies = [{"alg": "baseline"}, {"alg": "tradeoff", "gamma": 2}, {"alg": "error-sensitive", "gamma": 3}]
    cfg.write_text(json.dumps({"jobs": [{"family": "file", "params": {"path": str(inst)}, "strategies": strategies}]}))
    assert main(["bench", "--config", str(cfg)]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [(row["instance"], row["status"]) for row in rows] == [(str(inst), "ok")] * 3
    for row, strat in zip(rows, strategies):
        gamma = str(strat.get("gamma", 2))
        assert main(["run", "--alg", strat["alg"], "--gamma", gamma, "--instance", str(inst)]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert (row["queries"], row["opt"]) == (report["queries"], report["opt"])


def test_a_violated_bound_is_reported_and_exits_1(tmp_path, monkeypatch, capsys):
    # every bound holds on real runs, so the check is made to fail for the
    # tradeoff strategy alone
    inst = tmp_path / "inst.json"
    cfg = tmp_path / "bench.json"
    factory.gen_triangle_chain(2).save(str(inst))
    strategies = [{"alg": "baseline"}, {"alg": "tradeoff", "gamma": 2}]
    cfg.write_text(json.dumps({"jobs": [{"family": "file", "params": {"path": str(inst)}, "strategies": strategies}]}))
    monkeypatch.setattr(
        "mstquery.strategies._evaluate_bounds",
        lambda strategy, *args: (True, strategy != "tradeoff", None),
    )
    assert main(["bench", "--config", str(cfg)]) == 1
    rows = json.loads(capsys.readouterr().out)
    assert [(row["status"], row["robustness_ok"]) for row in rows] == [("ok", True), ("bound-violated", False)]
    assert main(["run", "--alg", "baseline", "--instance", str(inst)]) == 0
    capsys.readouterr()
    assert main(["run", "--alg", "tradeoff", "--instance", str(inst)]) == 1
    assert json.loads(capsys.readouterr().out)["report"]["robustness_ok"] is False


def test_instance_with_non_list_edges_is_one_error_line(tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"vertices": 2, "edges": 5}))
    _assert_one_error_line(_run_cli("opt", "--instance", str(inst)), "malformed instance document")


def test_instance_with_a_float_edge_id_is_one_error_line(tmp_path):
    doc = factory.demo_hop_cycle().to_dict()
    doc["edges"][1]["id"] = 1.9
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc))
    _assert_one_error_line(_run_cli("opt", "--instance", str(inst)), "'id' must be an integer, got 1.9")


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--alg", "tradeoff", "--instance", "inst.json", "--format", "csv"],
        ["opt", "--instance", "inst.json", "--seed", "1"],
    ],
)
def test_flags_a_subcommand_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, text",
    [
        (["gen", "--family", "triangle-chain", "--n", "1", "--out", "{absent}/x.json"], "cannot write instance file"),
        (["run", "--alg", "baseline", "--instance", "{inst}", "--report", "{absent}/r.json"], "cannot write report file"),
        (["learn", "--instance", "{inst}", "--dist", "{dist}", "--samples", "1", "--out", "{absent}/p.json"], "cannot write predictions file"),
        (["bench", "--config", "{config}", "--out", "{absent}/b"], "cannot write bench report file"),
        (["opt", "--instance", "{dir}"], "cannot read instance file"),
        (["learn", "--instance", "{inst}", "--dist", "{dir}", "--samples", "1"], "cannot read distribution file"),
        (["bench", "--config", "{dir}"], "cannot read config file"),
        (["opt", "--instance", "{binary}"], "is not UTF-8 text"),
    ],
)
def test_unusable_file_paths_are_one_error_line(tmp_path, argv, text):
    paths = {
        "absent": tmp_path / "absent", "dir": tmp_path, "inst": tmp_path / "inst.json",
        "dist": tmp_path / "dist.json", "config": tmp_path / "bench.json", "binary": tmp_path / "inst.bin",
    }
    factory.gen_triangle_chain(1).save(str(paths["inst"]))
    paths["dist"].write_text(json.dumps({"edges": {"1": {"values": ["3/2"]}}}))
    paths["config"].write_text(json.dumps({"jobs": [_TRIANGLE_JOB]}))
    paths["binary"].write_bytes(b"\xff\xfe\x00")
    _assert_one_error_line(_run_cli(*(arg.format(**paths) for arg in argv)), text)


def test_string_mixture_values_are_one_error_line(tmp_path):
    inst = tmp_path / "inst.json"
    dist = tmp_path / "dist.json"
    factory.gen_tradeoff_cycle(2, False).save(str(inst))
    for spec in ({"values": "2", "weights": "3"}, {"values": "25"}):
        dist.write_text(json.dumps({"edges": {"0": spec}}))
        proc = _run_cli("learn", "--instance", str(inst), "--dist", str(dist), "--samples", "3")
        _assert_one_error_line(proc, "edge 0: malformed mixture: values must be a list")


def test_non_finite_random_parameters_are_one_error_line(tmp_path):
    for flag in ("--overlap", "--error-rate"):
        proc = _run_cli("gen", "--family", "random", f"{flag}=inf")
        _assert_one_error_line(proc, "must be finite, got inf")
    cfg = tmp_path / "bench.json"
    for key in ("overlap_density", "error_rate"):
        # 1e999 is read as infinity
        cfg.write_text('{"jobs": [{"family": "random", "params": {"%s": 1e999}, "strategies": [{"alg": "baseline"}]}]}' % key)
        _assert_one_error_line(_run_cli("bench", "--config", str(cfg)), f"{key} must be finite, got inf")


def test_oversized_mixture_weight_is_one_error_line(tmp_path):
    inst = tmp_path / "inst.json"
    dist = tmp_path / "dist.json"
    factory.gen_tradeoff_cycle(2, False).save(str(inst))
    dist.write_text(json.dumps({"edges": {"0": {"values": ["3/2", "2"], "weights": [10**400, 1]}}}))
    proc = _run_cli("learn", "--instance", str(inst), "--dist", str(dist), "--samples", "3")
    _assert_one_error_line(proc, "edge 0: mixture weights sum past the largest float")


def _instance_with_true_given_twice(tmp_path):
    text = factory.gen_triangle_chain(1).to_json()
    start = text.index('"true"')
    end = text.index("\n", start) + 1
    inst = tmp_path / "inst.json"
    inst.write_text(text[:end] + text[start:end] + text[end:])  # the same line twice
    return ("run", "--alg", "baseline", "--instance", str(inst)), "key 'true' given twice"


def _distribution_with_edge_0_twice(tmp_path):
    inst = tmp_path / "inst.json"
    dist = tmp_path / "dist.json"
    factory.gen_triangle_chain(1).save(str(inst))
    dist.write_text('{"edges": {"0": {"values": ["5/4"]}, "0": {"values": ["1/2"]}}}')
    return ("learn", "--instance", str(inst), "--dist", str(dist), "--samples", "3"), "key '0' given twice"


def _config_with_jobs_twice(tmp_path):
    cfg = tmp_path / "bench.json"
    job = json.dumps(_TRIANGLE_JOB)
    cfg.write_text('{"jobs": [%s], "jobs": [%s]}' % (job, job))
    return ("bench", "--config", str(cfg)), "key 'jobs' given twice"


@pytest.mark.parametrize(
    "document", [_instance_with_true_given_twice, _distribution_with_edge_0_twice, _config_with_jobs_twice]
)
def test_a_repeated_json_key_is_one_error_line(tmp_path, document):
    # json.loads keeps the last of two equal keys; every document the CLI
    # reads rejects them instead, naming the key
    argv, text = document(tmp_path)
    _assert_one_error_line(_run_cli(*argv), text)


@pytest.mark.parametrize("argv", [
    ("gen", "--family", "path-parallel", "--n", "2"),
    ("opt", "--instance", '{"vertices": 2, "edges": [{"id": 0, "u": 0, "v": 1, "interval": {"w": "1"}, "true": "1", "pred": "1"}]}'),
])
def test_a_closed_stdout_exits_non_zero_without_a_traceback(argv):
    # stdout is a pipe whose read end is already closed, so the first write
    # (or the final flush, for a short output) fails with EPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_cli(*argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode != 0
    assert proc.stderr == ""
