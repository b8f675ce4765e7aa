"""Parent-against-change benchmark pairs, written to one BENCH JSON file.

Usage, from the root of a checkout:

    python3 benchmarks/trajectory.py --parent HEAD~1 --out BENCH_31.json

The change is the tree this script lives in, as it stands on disk; the
parent is the committed revision `--parent`, exported with `git archive`
into a temporary directory that is removed at the end.  The two trees run
in alternating pairs (odd pairs the parent first), each side in its own
subprocess with its working directory at its tree, so each imports its own
`./src`.  A pair runs, on each side:

- `perfbench/run.py --workload W --seed S --seconds T` for each workload,
  read from the last line of its output (warm: its rounds reuse the graph
  objects of one set-up);
- the ladder: for each row, the row's graph is built outside the timing,
  then `strategies.solve` runs baseline, tradeoff and error-sensitive
  (gamma 2) on it in turn, as `mstquery bench` runs the strategies of one
  instance, each timed on its own with its `queries` kept;
- the cold rounds: each of the workloads that share graphs between
  operations is set up afresh (outside the timing) before every round, and
  the round's operations are timed, so every graph is new to the library.

For every metric the file holds both sides' median and quartiles over the
pairs, the runs themselves, and the number of pairs in which the change
was lower, with a verdict: "better" or "worse" when the change is lower
(higher) in at least 90% of the pairs and the medians differ by more than
the parent's quartile spread, else "unresolved"; `queries` gets "same" or
"differ", and `peak_rss_mb` no verdict, since it also counts compiling the
package at import.  Each workload also records how many operations its
runs attempted, summarised with no verdict: a run keeps a little memory
per operation and round, so `peak_rss_mb` rises with the rounds that a
faster change fits into `--seconds`, and reads against this count.  A
ladder row whose `queries` differ between the sides is flagged and gets
no verdict.  The file also records the parent's commit, the change's HEAD
and whether its tracked files differ from it, the pair count, the seed,
the CPU count and the Python version.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("oracle-grid", "random-scale", "families-scale", "learn")
# the workloads whose operations share graph objects, timed cold as well
COLD_WORKLOADS = ("oracle-grid", "random-scale", "families-scale")
# (name, factory function, its arguments) of each ladder row
LADDER = (
    ("random n=320 overlap=1.0", "gen_random", (320, 320, 1.0, 0.3, 3)),
    ("random n=640 overlap=1.0", "gen_random", (640, 640, 1.0, 0.3, 3)),
    ("random n=1280 overlap=1.0", "gen_random", (1280, 1280, 1.0, 0.3, 3)),
    ("path-parallel n=200", "gen_path_parallel", (200,)),
    ("path-parallel n=400", "gen_path_parallel", (400,)),
)
STRATEGIES = (("baseline", 2), ("tradeoff", 2), ("error_sensitive", 2))
NO_VERDICT = {"peak_rss_mb"}
WIN_SHARE = 0.9


# -- measuring, in the tree under test ------------------------------------


def _import_library(paths: tuple[str, ...]) -> None:
    """Import from the working directory's tree, not this script's."""
    for path in paths:
        sys.path.insert(0, str(Path.cwd() / path))


def measure_ladder(rows: list[str]) -> dict:
    """{row: {"m", strategy: {"s", "queries"}}} for the named rows."""
    _import_library(("src",))
    from mstquery import factory
    from mstquery.strategies import StrategyConfig, solve

    out = {}
    for name, gen, params in LADDER:
        if name not in rows:
            continue
        graph = getattr(factory, gen)(*params)
        row = out[name] = {"m": len(graph.edges)}
        for mode, gamma in STRATEGIES:
            started = time.perf_counter()
            run = solve(graph, StrategyConfig(gamma=gamma, mode=mode)).run
            row[mode] = {"s": time.perf_counter() - started, "queries": run.query_count}
    return out


def measure_cold(workloads: list[str], seed: int, rounds: int) -> dict:
    """{workload: median seconds of a round} over `rounds` rounds, each on
    operations set up afresh."""
    import gc

    _import_library(("src", "perfbench"))
    import workloads as perfbench_workloads

    out = {}
    for name in workloads:
        times = []
        for _ in range(rounds):
            ops = perfbench_workloads.WORKLOADS[name](seed)
            gc.collect()
            started = time.perf_counter()
            for op in ops:
                op.run()
            times.append(time.perf_counter() - started)
        out[name] = statistics.median(times)
    return out


# -- driving the pairs ---------------------------------------------------------


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _run(tree: Path, argv: list[str]) -> str:
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv)} failed in {tree}:\n{done.stderr}")
    return done.stdout


def run_side(tree: Path, args) -> dict:
    """One side of one pair: every workload, the ladder and the cold rounds."""
    side = {"workloads": {}}
    for name in args.workload:
        result = _last_json(_run(tree, [sys.executable, "perfbench/run.py", "--workload", name,
                                        "--seed", str(args.seed), "--seconds", str(args.seconds)]))
        side["workloads"][name] = {
            "correct": result["correct"],
            "failed": result["failed"],
            "attempted": result["attempted"],
            "metrics": {key: m["value"] for key, m in result["metrics"].items()},
        }
    me = str(Path(__file__).resolve())
    if args.ladder:
        side["ladder"] = _last_json(_run(tree, [sys.executable, me, "ladder", *args.ladder]))
    if args.cold_rounds:
        side["cold"] = _last_json(_run(tree, [sys.executable, me, "cold", "--seed", str(args.seed),
                                              "--rounds", str(args.cold_rounds), *COLD_WORKLOADS]))
    return side


def export(rev: str, into: Path) -> str:
    """Write the committed tree of `rev` into `into`; returns its commit."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    archive = into.parent / "parent.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, stdout=fh, check=True)
    with tarfile.open(archive) as tar:
        # the "data" filter, where this Python has it, refuses links and
        # paths that leave `into`
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    archive.unlink()
    return commit


def summary(parent: list[float], change: list[float], verdict: bool = True) -> dict:
    """Both sides' medians and quartiles, the pairs the change won, and the
    verdict of the module docstring."""

    def spread(runs):
        q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3
        return {"median": median, "q1": q1, "q3": q3, "runs": runs}

    p, c = spread(parent), spread(change)
    lower = sum(1 for a, b in zip(parent, change) if b < a)
    higher = sum(1 for a, b in zip(parent, change) if b > a)
    out = {"parent": p, "change": c, "change_lower": lower, "pairs": len(parent)}
    if verdict:
        apart = abs(c["median"] - p["median"]) > p["q3"] - p["q1"]
        if apart and lower >= WIN_SHARE * len(parent):
            out["verdict"] = "better"
        elif apart and higher >= WIN_SHARE * len(parent):
            out["verdict"] = "worse"
        else:
            out["verdict"] = "unresolved"
    return out


def report(sides: dict, args, commits: dict) -> dict:
    parent, change = sides["parent"], sides["change"]
    doc = {
        "parent": {"rev": args.parent, "commit": commits["parent"]},
        "change": commits["change"],
        "pairs": args.pairs,
        "seeds": [args.seed],
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "workloads": {},
        "ladder": {},
        "cold": {},
    }
    for name in args.workload:
        runs = {side: [pair["workloads"][name] for pair in sides[side]] for side in sides}
        attempted = {side: [r["attempted"] for r in runs[side]] for side in runs}
        entry = doc["workloads"][name] = {
            "correct": all(r["correct"] for side in runs.values() for r in side),
            "failed": max(r["failed"] for side in runs.values() for r in side),
            "attempted": summary(attempted["parent"], attempted["change"], verdict=False),
            "metrics": {},
        }
        for metric in runs["parent"][0]["metrics"]:
            a = [r["metrics"][metric] for r in runs["parent"]]
            b = [r["metrics"][metric] for r in runs["change"]]
            if metric == "queries":
                entry["metrics"][metric] = {"parent": sorted(set(a)), "change": sorted(set(b)),
                                            "verdict": "same" if set(a) == set(b) else "differ"}
            else:
                entry["metrics"][metric] = summary(a, b, metric not in NO_VERDICT)
    for name in args.ladder:
        row = doc["ladder"][name] = {"m": parent[0]["ladder"][name]["m"]}
        for mode, _ in STRATEGIES:
            a = [pair["ladder"][name][mode] for pair in parent]
            b = [pair["ladder"][name][mode] for pair in change]
            queries = {"parent": sorted({r["queries"] for r in a}), "change": sorted({r["queries"] for r in b})}
            same = queries["parent"] == queries["change"]
            cell = row[mode] = summary([r["s"] for r in a], [r["s"] for r in b], same)
            cell["queries"] = queries
            if not same:
                cell["flag"] = "queries differ"
    if args.cold_rounds:
        for name in COLD_WORKLOADS:
            doc["cold"][name] = summary([pair["cold"][name] for pair in parent],
                                        [pair["cold"][name] for pair in change])
            doc["cold"][name]["rounds"] = args.cold_rounds
    return doc


def _git(*argv: str) -> str:
    return subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def compare(args) -> int:
    # the change is the tree on disk: its HEAD, and whether tracked files differ from it
    change = {"head": _git("rev-parse", "HEAD"), "dirty": bool(_git("status", "--porcelain", "--untracked-files=no"))}
    with tempfile.TemporaryDirectory(prefix="trajectory-") as tmp:
        parent_tree = Path(tmp) / "parent"
        commits = {"parent": export(args.parent, parent_tree), "change": change}
        sides = {"parent": [], "change": []}
        trees = {"parent": parent_tree, "change": ROOT}
        for pair in range(1, args.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                sides[side].append(run_side(trees[side], args))
            print(f"pair {pair}/{args.pairs} done", file=sys.stderr)
    doc = report(sides, args, commits)
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")
    ladder = sub.add_parser("ladder", help="time the ladder rows in the working directory's tree")
    ladder.add_argument("rows", nargs="+")
    cold = sub.add_parser("cold", help="time fresh-graph rounds in the working directory's tree")
    cold.add_argument("--seed", type=int, required=True)
    cold.add_argument("--rounds", type=int, required=True)
    cold.add_argument("workloads", nargs="+")
    parser.add_argument("--parent", default="HEAD~1", help="the committed revision to compare against")
    parser.add_argument("--out", help="the BENCH JSON file to write (required)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=3)
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="a perfbench workload (repeatable; default all four)")
    parser.add_argument("--ladder", nargs="*", default=[name for name, _, _ in LADDER],
                        help="the ladder rows to run (default all)")
    parser.add_argument("--cold-rounds", type=int, default=15, help="fresh-graph rounds per side and pair; 0 skips")
    args = parser.parse_args(argv)
    if args.command == "ladder":
        print(json.dumps(measure_ladder(args.rows)))
        return 0
    if args.command == "cold":
        print(json.dumps(measure_cold(args.workloads, args.seed, args.rounds)))
        return 0
    if args.out is None:
        parser.error("--out is required")
    args.workload = args.workload or list(WORKLOADS)
    unknown = set(args.ladder) - {name for name, _, _ in LADDER}
    if unknown:
        parser.error(f"unknown ladder rows: {sorted(unknown)}")
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
