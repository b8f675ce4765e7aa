import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mstquery import factory
from mstquery.cli import main

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
                "oracle_cap": 16,
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


def test_bench_skips_capped_instances(tmp_path, capsys):
    cfg = tmp_path / "bench.json"
    cfg.write_text(
        json.dumps(
            {
                "oracle_cap": 3,
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
    assert rows and rows[0]["status"].startswith("skipped")


def test_gen_prints_to_stdout_without_out(capsys):
    assert main(["gen", "--family", "path-parallel", "--n", "2"]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["vertices"] == 3 and len(body["edges"]) == 4


def test_bundled_family_config_passes_every_bound(capsys):
    config = REPO_ROOT / "benchmarks" / "families.json"
    assert main(["bench", "--config", str(config)]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert all(row["status"] == "ok" for row in rows)


def _run_cli(*argv):
    """The CLI in a child process, so stderr is exactly what a user sees."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "mstquery.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
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
    ],
)
def test_malformed_bench_config_is_one_error_line(tmp_path, config, text):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps(config))
    _assert_one_error_line(_run_cli("bench", "--config", str(cfg)), text)


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
