"""Benchmark for mstquery: four workloads, checked outputs, a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload oracle-grid --seed 1 --seconds 25 --trace 0

The library is imported from ./src in this process; the benchmark drives it
in a closed loop (one operation at a time, one process, no threads).  A run
sets the workload up five times and keeps the median set-up time, then
repeats whole rounds of the workload's fixed batch of operations until
`--seconds` have passed, then checks every distinct output outside the
timed region.  End-to-end times are reported at the reference speed of
`speedprobe`.  With `--trace 1` it then installs span wrappers around the
library's layers, runs one more round traced, and reports the per-layer
metrics, in plain seconds, instead of the end-to-end ones.  The last line
of standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from speedprobe import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 5

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_ms_p50", "ms"),
    ("queries", "count"),
    ("peak_rss_mb", "MB"),
]

# Per-layer metrics of the traced round: (name, unit).  `.calls`, `.self_s`
# and `.incl_s` come from the span of that name; a bare layer name with
# `.self_s`/`.incl_s` sums the layer's spans (incl_s counts only spans not
# nested in another span of the same layer).
PER_LAYER = [
    ("graphcore.reveal.calls", "count"),
    ("graphcore.fork.calls", "count"),
    ("graphcore.contract.calls", "count"),
    ("graphcore.contract.self_s", "s"),
    ("graphcore.delete.calls", "count"),
    ("limittrees.lower_limit_tree.calls", "count"),
    ("limittrees.lower_limit_tree.self_s", "s"),
    ("limittrees.upper_limit_tree.calls", "count"),
    ("limittrees.upper_limit_tree.self_s", "s"),
    ("limittrees.reduce_once.calls", "count"),
    ("limittrees.reduce_once.self_s", "s"),
    ("limittrees.reduce_once.incl_s", "s"),
    ("limittrees.reduce_once.hit_ratio", "ratio"),
    ("limittrees.ensure_unique_limit_trees.calls", "count"),
    ("limittrees.ensure_unique_limit_trees.self_s", "s"),
    ("limittrees.ensure_unique_limit_trees.incl_s", "s"),
    ("limittrees.compute_limit_trees.calls", "count"),
    ("limittrees.compute_limit_trees.self_s", "s"),
    ("limittrees.uniqueness_gap.calls", "count"),
    ("limittrees.uniqueness_gap.self_s", "s"),
    ("limittrees.uniqueness_gap.incl_s", "s"),
    ("limittrees.tree_cut.calls", "count"),
    ("limittrees.tree_cut.self_s", "s"),
    ("limittrees.is_solved.calls", "count"),
    ("limittrees.is_solved.self_s", "s"),
    ("oracle.opt_brute_force.calls", "count"),
    ("oracle.opt_brute_force.self_s", "s"),
    ("oracle.opt_brute_force.incl_s", "s"),
    ("oracle.mandatory_edges.calls", "count"),
    ("oracle.mandatory_edges.self_s", "s"),
    ("oracle.is_solved_per_opt", "count"),
    ("strategies.make_prediction_mandatory_free.self_s", "s"),
    ("strategies.phase2_tradeoff.self_s", "s"),
    ("strategies.phase2_error_sensitive.self_s", "s"),
    ("strategies.run_baseline.self_s", "s"),
    ("strategies.build_vc_instance.calls", "count"),
    ("strategies.restarts", "count"),
    ("strategies.handoffs", "count"),
    ("strategies.phase1_queries", "count"),
    ("strategies.phase2_queries", "count"),
    ("strategies.baseline_queries", "count"),
    ("errormetrics.hop_distance.calls", "count"),
    ("errormetrics.hop_distance.self_s", "s"),
    ("learner.erm_train.self_s", "s"),
    ("learner.erm_train.incl_s", "s"),
    ("learner.discretize.self_s", "s"),
    ("learner.candidates", "count"),
    ("learner.sample.calls", "count"),
    ("factory.gen.self_s", "s"),
    ("graphcore.self_s", "s"),
    ("limittrees.self_s", "s"),
    ("limittrees.incl_s", "s"),
    ("oracle.self_s", "s"),
    ("oracle.incl_s", "s"),
    ("strategies.self_s", "s"),
    ("errormetrics.self_s", "s"),
    ("learner.self_s", "s"),
    ("learner.incl_s", "s"),
    ("bench.self_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
]


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load_library():
    """Import mstquery from ./src and return the workloads module."""
    src = ROOT / "src"
    if not (src / "mstquery" / "__init__.py").is_file():
        fail(f"no mstquery sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import mstquery
    import workloads

    if Path(mstquery.__file__).resolve().parent != (src / "mstquery").resolve():
        fail(f"imported mstquery from {mstquery.__file__}, not from {src}")
    return workloads


class Results:
    """Distinct outputs per operation, with how often each came back, so
    memory does not grow with the number of rounds."""

    def __init__(self, ops):
        self.ops = ops
        self.distinct: list[dict] = [{} for _ in ops]
        self.raised = 0
        self.attempted = 0

    def add(self, index: int, out) -> None:
        self.attempted += 1
        if isinstance(out, Exception):  # an operation that raises is a failed operation
            if not self.raised:
                traceback.print_exception(out, file=sys.stderr)
            self.raised += 1
            return
        self.distinct[index].setdefault(out.key(), [out, 0])[1] += 1

    def check(self, workloads) -> tuple[int, int]:
        """(failed operations, wrong outputs); each distinct output checked once."""
        cache = workloads.CheckCache()
        wrong = 0
        for op, distinct in zip(self.ops, self.distinct):
            for out, count in distinct.values():
                problem = workloads.check(op, out, cache)
                if problem:
                    print(f"check failed: {op.label}: {problem}", file=sys.stderr)
                    wrong += count
        return self.raised + wrong, wrong


def run_round(ops, results: Results, probe: SpeedProbe) -> tuple[list, list[float], list[float]]:
    """One pass over the batch: its outputs and each operation's time, in
    seconds and at reference speed, both without the probe's own ticks."""
    outputs, spans = [], []
    round_first = len(probe.samples)
    for index, op in enumerate(ops):
        mark = probe.mark()
        try:
            out = op.run()
        except Exception as exc:
            out = exc
        spans.append(probe.elapsed(mark))
        outputs.append(out)
        results.add(index, out)
    raw = [seconds for seconds, _, _ in spans]
    return outputs, raw, [probe.at_reference(*span, round_first) for span in spans]


def layer_metrics(tracer, ops, outputs, setup_summary, untraced_wall: float, traced_wall: float, round_s: float) -> dict:
    """Per-layer values of the traced round.  The two walls are at reference
    speed; round_s is the traced round's plain duration."""
    summary = tracer.summary()
    names, layers, counters = summary["names"], summary["layers"], summary["counters"]
    values: dict[str, float] = {}
    for name, stats in names.items():
        for key, value in stats.items():
            values[f"{name}.{key}"] = value
    for layer, stats in layers.items():
        for key, value in stats.items():
            values[f"{layer}.{key}"] = value
    reduce_calls = names.get("limittrees.reduce_once", {}).get("calls", 0)
    values["limittrees.reduce_once.hit_ratio"] = (
        counters.get("limittrees.reduce_once.hits", 0) / reduce_calls if reduce_calls else 0.0
    )
    opt_calls = names.get("oracle.opt_brute_force", {}).get("calls", 0)
    values["oracle.is_solved_per_opt"] = (
        tracer.nested_count("oracle.opt_brute_force", "limittrees.is_solved") / opt_calls if opt_calls else 0.0
    )
    values["learner.candidates"] = counters.get("learner.candidates", 0)
    done = [(ops[i], out) for i, out in enumerate(outputs) if not isinstance(out, Exception)]
    values["strategies.restarts"] = sum(out.restarts for _, out in done)
    values["strategies.handoffs"] = sum(out.handoffs for _, out in done)
    values["strategies.phase1_queries"] = sum(out.phase1_queries for op, out in done if op.mode != "baseline")
    values["strategies.phase2_queries"] = sum(
        len(out.queried) - out.phase1_queries for op, out in done if op.mode != "baseline"
    )
    values["strategies.baseline_queries"] = sum(len(out.queried) for op, out in done if op.mode == "baseline")
    values["factory.gen.self_s"] = setup_summary["names"].get("factory.gen", {}).get("self_s", 0.0)
    top_level = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
    values["bench.self_s"] = round_s - top_level
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.traced_wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with SpeedProbe() as probe:
        mark = probe.mark()
        workloads = load_library()
        import_s, setup_first, _ = probe.elapsed(mark)
        if args.workload not in workloads.WORKLOADS:
            fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
        setup = workloads.WORKLOADS[args.workload]
        setup_times = []
        for _ in range(SETUP_REPEATS):
            mark = probe.mark()
            ops = setup(args.seed)
            setup_times.append(probe.elapsed(mark)[0])
        setup_s = probe.at_reference(import_s + statistics.median(setup_times), setup_first, len(probe.samples))

        results = Results(ops)
        op_times: list[list[float]] = [[] for _ in ops]  # at reference speed
        op_times_raw: list[list[float]] = [[] for _ in ops]
        queries_per_round: list[int] = []
        started = time.perf_counter()
        while True:
            gc.collect()
            round_started = time.perf_counter()
            outputs, raw, reference = run_round(ops, results, probe)
            for per_op, t in zip(op_times, reference):
                per_op.append(t)
            for per_op, t in zip(op_times_raw, raw):
                per_op.append(t)
            queries_per_round.append(sum(len(o.queried) for o in outputs if not isinstance(o, Exception)))
            now = time.perf_counter()
            if now - started >= args.seconds - (now - round_started) / 2:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # each operation timed by its median over the rounds; the batch is their sum
    per_op = [statistics.median(times) for times in op_times]

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "operations_per_round": len(ops), "rounds": len(queries_per_round),
        "import_s_raw": import_s, "setup_times_s_raw": setup_times,
        "op_times_s_reference": op_times, "op_times_s_raw": op_times_raw,
        "probe_median_s": statistics.median(probe.samples), "probe_samples": len(probe.samples),
    }
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            # the probe runs here too, so that the traced round compares with
            # wall_s at reference speed; its ticks (about 2%) land in the open span
            with SpeedProbe() as probe:
                gc.collect()
                setup(args.seed)
                setup_summary = tracer.summary()
                tracer.reset()
                gc.collect()
                started = time.perf_counter()
                traced_outputs, _, traced_reference = run_round(ops, results, probe)
                round_s = time.perf_counter() - started
        finally:
            tracer.uninstall()
        metrics = layer_metrics(
            tracer, ops, traced_outputs, setup_summary,
            untraced_wall=sum(per_op), traced_wall=sum(traced_reference), round_s=round_s,
        )
        report["spans"] = len(tracer.spans)
        chosen = PER_LAYER
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        span_file.write_text(json.dumps({"columns": ["name", "start", "end", "parent"], "spans": tracer.spans}))
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": sum(per_op),
            "op_ms_p50": statistics.median(per_op) * 1000,
            "queries": statistics.median_low(queries_per_round),
            "peak_rss_mb": peak_rss_mb,
        }
        chosen = END_TO_END

    failed, wrong = results.check(workloads)
    result = {
        "correct": wrong == 0,
        "attempted": results.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0), "unit": unit} for name, unit in chosen},
    }
    report.update(result)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    for name, entry in result["metrics"].items():
        print(f"{args.workload:15s} {name:50s} {entry['value']:>14.6g} {entry['unit']}")
    print(f"{args.workload:15s} attempted={result['attempted']} failed={failed} correct={result['correct']} rounds={report['rounds']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
