"""Command-line front door: instance generation, strategy runs, the oracle,
error reports, prediction learning, and the benchmark harness."""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from . import factory, learner
from .errormetrics import hop_distance
from .graphcore import (
    ParseError, PreconditionViolated, ValidationError, _parse_integer, known_keys, load_instance, read_text, unique_keys,
)
from .oracle import DEFAULT_CAP, CapExceeded, opt_brute_force
from .strategies import StrategyConfig, randomized_gamma, run_combined


class ConfigError(ValueError):
    pass


_MODE_BY_FLAG = {
    "baseline": "baseline",
    "tradeoff": "tradeoff",
    "error-sensitive": "error_sensitive",
}

CSV_COLUMNS = [
    "instance", "strategy", "gamma", "seed", "queries", "opt", "ratio",
    "ratio_decimal", "k_h", "k_sharp", "consistency_ok", "robustness_ok",
    "error_bound_ok", "runtime_ms", "status",
]


_SHARED_FLAGS = {
    "--seed": {"type": int, "default": 0},
    "--format": {"choices": ["csv", "json"], "default": "json"},
}


def _shared(parser: argparse.ArgumentParser, *flags: str) -> None:
    """Register the shared flags a subcommand reads, and no others."""
    for flag in flags:
        parser.add_argument(flag, **_SHARED_FLAGS[flag])


def _family_instance(family, params, seed):
    """Bench label and instance of one generated family member.  A missing,
    mistyped or out-of-range parameter raises ConfigError."""
    get = params.get
    try:
        if family == "random":
            vertices, extra = get("vertices", 5), get("extra_edges", 3)
            return f"random[{vertices}v+{extra}e,s={seed}]", factory.gen_random(
                vertices, extra, get("overlap_density", 0.8), get("error_rate", 0), seed
            )
        if family == "tradeoff-cycle":
            beta, adversarial = params["beta"], get("adversarial", False)
            return f"tradeoff-cycle[beta={beta},adv={adversarial}]", factory.gen_tradeoff_cycle(beta, adversarial)
        if family == "path-parallel":
            return f"path-parallel[n={params['n']}]", factory.gen_path_parallel(params["n"])
        if family == "triangle-chain":
            return f"triangle-chain[n={params['n']}]", factory.gen_triangle_chain(params["n"])
        if family == "vc-flip":
            variant = get("variant", "ex2")
            return f"vc-flip[n={params['n']},{variant}]", factory.gen_vc_flip(params["n"], variant)
        if family == "file":
            path = str(params["path"])
            return path, load_instance(path)
    except KeyError as exc:
        raise ConfigError(f"family {family} needs parameter {exc}") from None
    except TypeError:
        raise ConfigError(f"family {family}: a parameter has the wrong type in {params}") from None
    except ValueError as exc:
        raise ConfigError(f"family {family}: {exc}") from None
    raise ConfigError(f"unknown family {family!r}")


def _cmd_gen(args) -> int:
    params = {
        "beta": args.beta, "adversarial": args.adversarial, "n": args.n, "variant": args.variant,
        "vertices": args.vertices, "extra_edges": args.extra_edges,
        "overlap_density": args.overlap, "error_rate": args.error_rate,
    }
    _, graph = _family_instance(args.family, params, args.seed)
    if args.out:
        _write_text(args.out, graph.to_json() + "\n", "instance")
    else:
        print(graph.to_json())
    return 0


def _parse_gamma(text: str, mode: str) -> Fraction:
    try:
        gamma = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"gamma must be a rational number, got {text!r}") from None
    if mode != "baseline" and gamma < 2:
        raise ConfigError(f"gamma must be at least 2, got {text}")
    return gamma


def _write_text(path: str, text: str, what: str) -> None:
    """Write an output file; a path that cannot be written is a ConfigError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {what} file {path}: {exc.strerror or exc}") from None


def _run_strategy(graph, mode, gamma, seed, label):
    """A rational gamma runs through randomized_gamma; an integral gamma and
    the baseline run directly."""
    if mode != "baseline" and gamma.denominator != 1:
        return randomized_gamma(graph, gamma, seed=seed, mode=mode, instance_label=label)
    return run_combined(graph, StrategyConfig(gamma=gamma, mode=mode), instance_label=label, seed=seed)


def _cmd_run(args) -> int:
    graph = load_instance(args.instance)
    mode = _MODE_BY_FLAG[args.alg]
    gamma = _parse_gamma(args.gamma, mode)
    outcome = _run_strategy(graph, mode, gamma, args.seed, args.instance)
    body = {
        "report": outcome.report.to_dict(),
        "transcript": json.loads(outcome.run.transcript.to_json()),
    }
    text = json.dumps(body, indent=2)
    if args.report:
        _write_text(args.report, text + "\n", "report")
    print(text)
    return 0 if outcome.report.bounds_hold() else 1


def _cmd_opt(args) -> int:
    # the cap counts edges, so a negative one is an input error
    if args.cap < 0:
        raise ConfigError(f"--oracle-cap must be at least 0, got {args.cap}")
    graph = load_instance(args.instance)
    source = "truth" if args.values == "truth" else "predictions"
    result = opt_brute_force(graph, source, cap=args.cap, collect_all=args.all)
    body = {
        "size": result.size,
        "one_optimal_set": sorted(result.one_optimal_set),
    }
    if args.all:
        body["all_optimal_sets"] = [sorted(s) for s in result.all_optimal_sets]
    print(json.dumps(body, indent=2))
    return 0


def _cmd_error(args) -> int:
    graph = load_instance(args.instance)
    report = hop_distance(graph)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["edge", "jo", "oj"])
        for eid in sorted(report.jo):
            writer.writerow([eid, report.jo[eid], report.oj[eid]])
        writer.writerow(["total", report.k_h, report.k_h])
        sys.stdout.write(buf.getvalue())
    else:
        print(
            json.dumps(
                {
                    "jo": {str(k): v for k, v in sorted(report.jo.items())},
                    "oj": {str(k): v for k, v in sorted(report.oj.items())},
                    "k_h": report.k_h,
                    "k_sharp": report.k_sharp,
                },
                indent=2,
            )
        )
    return 0


def _cmd_learn(args) -> int:
    if args.samples < 1:
        raise ConfigError(f"--samples must be at least 1, got {args.samples}")
    graph = load_instance(args.instance)
    sampler = learner.RealizationSampler.from_json(graph, read_text(args.dist, "distribution"), seed=args.seed)
    learned = learner.erm_train(graph, sampler, args.samples)
    text = learner.predictions_to_json(learned)
    if args.out:
        _write_text(args.out, text + "\n", "predictions")
    print(text)
    return 0


def _field(obj, key, default, kind, what):
    """obj[key] (or default) converted by `kind`; ConfigError if it cannot be.
    An int follows the instance rule: a float or a bool is rejected, not
    truncated."""
    value = obj.get(key, default)
    try:
        return _parse_integer(value, key) if kind is int else kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be {what}, got {value!r}") from None


def _integers(value) -> list[int]:
    if not isinstance(value, list):
        raise TypeError(value)
    return [_parse_integer(x, "seeds") for x in value]


def _objects(value, what):
    if not isinstance(value, list) or not all(isinstance(x, dict) for x in value):
        raise ConfigError(f"{what} must be a list of objects, got {value!r}")
    return value


# by family, the params that _family_instance reads
_FAMILY_PARAMS = {
    "random": ("vertices", "extra_edges", "overlap_density", "error_rate"),
    "tradeoff-cycle": ("beta", "adversarial"),
    "path-parallel": ("n",),
    "triangle-chain": ("n",),
    "vc-flip": ("n", "variant"),
    "file": ("path",),
}


def _bench_gamma(strat, mode):
    """A strategy's gamma: a JSON integer or a "p/q" string.  A float or a
    bool is rejected, not read as the rational it approximates."""
    value = strat.get("gamma", 2)
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ConfigError(f'gamma must be an integer or a "p/q" string, got {value!r}')
    return _parse_gamma(str(value), mode)


def _cmd_bench(args) -> int:
    text = read_text(args.config, "config")
    try:
        config = json.loads(text, object_pairs_hook=unique_keys)
    except (json.JSONDecodeError, ParseError) as exc:
        raise ConfigError(f"invalid config JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    known_keys(config, "config", ("jobs",))
    jobs = _objects(config.get("jobs", []), "jobs")
    if not jobs:
        raise ConfigError("config lists no jobs")
    # every key and value is checked, and every instance built, before the
    # first job runs
    plan = []
    for job in jobs:
        known_keys(job, "job", ("family", "params", "seeds", "strategies"))
        family = job.get("family")
        if not isinstance(family, str) or family not in _FAMILY_PARAMS:
            raise ConfigError(f"unknown family {family!r}")
        params = _field(job, "params", {}, dict, "an object")
        known_keys(params, f"{family} params", _FAMILY_PARAMS[family])
        if "seeds" in job and family != "random":
            raise ConfigError(f"family {family} takes no seeds; only random does")
        seeds = _field(job, "seeds", [0], _integers, "a list of integers")
        if not seeds:
            raise ConfigError("job lists no seeds")
        strategies = _objects(job.get("strategies", []), "strategies")
        if not strategies:
            raise ConfigError("job lists no strategies")
        runs = []
        for strat in strategies:
            known_keys(strat, "strategy", ("alg", "gamma", "seed"))
            alg = strat.get("alg")
            if not isinstance(alg, str) or alg not in _MODE_BY_FLAG:
                raise ConfigError(f"unknown strategy {alg!r}")
            mode = _MODE_BY_FLAG[alg]
            runs.append((mode, _bench_gamma(strat, mode), _field(strat, "seed", 0, int, "an integer")))
        plan.append(([_family_instance(family, params, seed) for seed in seeds], runs))
    rows = []
    all_ok = True
    for instances, runs in plan:
        for label, graph in instances:
            for mode, gamma, seed in runs:
                outcome = _run_strategy(graph, mode, gamma, seed, label)
                record = outcome.report.to_dict()
                record["status"] = "ok" if outcome.report.bounds_hold() else "bound-violated"
                if record["status"] != "ok":
                    all_ok = False
                rows.append(record)
    _write_bench_output(rows, args)
    return 0 if all_ok else 1


def _write_bench_output(rows, args) -> None:
    json_text = json.dumps(rows, indent=2)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, extrasaction="ignore")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k, "") for k in CSV_COLUMNS})
    csv_text = buf.getvalue()
    if args.out:
        _write_text(args.out + ".json", json_text + "\n", "bench report")
        _write_text(args.out + ".csv", csv_text, "bench report")
    sys.stdout.write(csv_text if args.format == "csv" else json_text + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mstquery")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("--family", required=True, choices=sorted(factory.FAMILIES))
    p.add_argument("--out")
    p.add_argument("--beta", type=int, default=2)
    p.add_argument("--adversarial", action="store_true")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--variant", choices=["ex1", "ex2"], default="ex2")
    p.add_argument("--vertices", type=int, default=5)
    p.add_argument("--extra-edges", type=int, default=3)
    p.add_argument("--overlap", type=float, default=0.8)
    p.add_argument("--error-rate", type=float, default=0.0)
    _shared(p, "--seed")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("run", help="run one strategy on an instance")
    p.add_argument("--alg", required=True, choices=sorted(_MODE_BY_FLAG))
    p.add_argument("--gamma", default="2")
    p.add_argument("--instance", required=True)
    p.add_argument("--report")
    _shared(p, "--seed")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("opt", help="brute-force verification optimum")
    p.add_argument("--instance", required=True)
    p.add_argument("--values", choices=["truth", "pred"], default="truth")
    p.add_argument("--all", action="store_true")
    p.add_argument("--oracle-cap", dest="cap", type=int, default=DEFAULT_CAP)
    p.set_defaults(func=_cmd_opt)

    p = sub.add_parser("error", help="hop-distance report")
    p.add_argument("--instance", required=True)
    _shared(p, "--format")
    p.set_defaults(func=_cmd_error)

    p = sub.add_parser("learn", help="train predictions by empirical risk minimization")
    p.add_argument("--instance", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--out")
    _shared(p, "--seed")
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("bench", help="run a benchmark config and check every bound")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="basename for .csv/.json report files")
    _shared(p, "--format")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # so a closed stdout raises here, not at exit
        return status
    except (ConfigError, CapExceeded, ParseError, ValidationError, PreconditionViolated) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # stdout's reader is gone: let the flush at exit go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
