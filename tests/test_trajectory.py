"""Smoke run of `benchmarks/trajectory.py`, HEAD against HEAD.

One pair, one workload at one second, the two smallest ladder rows and one
cold round per workload; the test checks the schema of the file it writes.
It takes several seconds, so it carries the `trajectory` marker, which the
default run deselects: run it with `python -m pytest -m trajectory`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ROWS = ["random n=320 overlap=1.0", "path-parallel n=200"]
STRATEGIES = {"baseline", "tradeoff", "error_sensitive"}


def summary_keys(entry, verdict=True):
    assert {"parent", "change", "change_lower", "pairs"} <= entry.keys()
    for side in ("parent", "change"):
        assert entry[side].keys() == {"median", "q1", "q3", "runs"}
        assert entry[side]["q1"] <= entry[side]["median"] <= entry[side]["q3"]
    assert entry["pairs"] == len(entry["parent"]["runs"]) == len(entry["change"]["runs"]) == 1
    assert ("verdict" in entry) == verdict
    if verdict:
        assert entry["verdict"] in ("better", "worse", "unresolved")


@pytest.mark.trajectory
def test_head_against_head_writes_the_schema(tmp_path):
    if shutil.which("git") is None or subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True).returncode:
        pytest.skip("needs git and a checkout with a commit")
    out = tmp_path / "BENCH.json"
    argv = [sys.executable, "benchmarks/trajectory.py", "--parent", "HEAD", "--pairs", "1", "--workload", "learn",
            "--seconds", "1", "--ladder", *ROWS, "--cold-rounds", "1", "--out", str(out)]
    subprocess.run(argv, cwd=ROOT, check=True, capture_output=True)
    doc = json.loads(out.read_text())
    assert doc.keys() == {"parent", "change", "pairs", "seeds", "seconds", "nproc", "python", "workloads", "ladder", "cold"}
    assert doc["pairs"] == 1 and doc["seeds"] == [7] and doc["parent"]["rev"] == "HEAD"
    assert doc["change"].keys() == {"head", "dirty"} and doc["change"]["head"] == doc["parent"]["commit"]
    learn = doc["workloads"]["learn"]
    assert learn["correct"] is True and learn["failed"] == 0
    metrics = learn["metrics"]
    assert metrics.keys() == {"setup_s", "wall_s", "op_ms_p50", "queries", "peak_rss_mb"}
    assert metrics["queries"] == {"parent": [31], "change": [31], "verdict": "same"}
    for name in ("setup_s", "wall_s", "op_ms_p50"):
        summary_keys(metrics[name])
    summary_keys(metrics["peak_rss_mb"], verdict=False)
    assert sorted(doc["ladder"]) == sorted(ROWS)
    for row in doc["ladder"].values():
        assert row.keys() == STRATEGIES | {"m"}
        for mode in STRATEGIES:
            cell = row[mode]
            summary_keys(cell)
            assert cell["queries"]["parent"] == cell["queries"]["change"] and "flag" not in cell
    assert doc["cold"].keys() == {"oracle-grid", "random-scale", "families-scale"}
    for entry in doc["cold"].values():
        summary_keys(entry)
        assert entry["rounds"] == 1
