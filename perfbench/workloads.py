"""The four workloads: their inputs, their operations and their checks.

Each workload's make-up (which instances, which strategies) is fixed below.
`--seed` draws the presentation of every instance: a random relabelling of
the vertices and an order-preserving affine map x -> a*x + b (a > 0 an odd
integer, b an integer) applied to every interval endpoint, truth,
prediction and mixture value.  Neither
changes any comparison the method makes, so the reveal sequence and the
query count are constants of the workload, while the numbers and labels the
program sees differ from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from mstquery import errormetrics, factory, graphcore, learner, limittrees, strategies
from mstquery.graphcore import Interval, UncertainEdge, UncertainGraph

import checkers


@dataclass
class Out:
    """What one operation returned, in plain data."""

    queried: tuple[int, ...]
    tree: frozenset[int]
    reported_queries: int
    opt: Optional[int] = None
    k_h: Optional[int] = None
    gamma: Optional[int] = None  # the integral gamma the strategy ran with
    phase1_queries: int = 0
    restarts: int = 0
    handoffs: int = 0
    learned: Optional[dict] = None
    draws: Optional[list] = None  # training draws, then the truth draw

    def key(self) -> tuple:
        learned = None if self.learned is None else tuple(sorted(self.learned.items()))
        return (self.queried, self.tree, self.reported_queries, self.opt, self.k_h, self.gamma, learned)


@dataclass
class Op:
    label: str
    mode: str  # baseline | tradeoff | error_sensitive
    run: Callable[[], Out]
    graph: Optional[UncertainGraph] = None  # the input, for the checks
    with_opt: bool = False  # oracle-grid: check the reported optimum and bounds
    learn: Optional[dict] = None  # learn: base graph and mixture support


# -- inputs -----------------------------------------------------------------


def present(graph: UncertainGraph, rng: random.Random):
    """Seeded relabelling of vertices and order-preserving map of weights."""
    perm = list(range(graph.vertex_count))
    rng.shuffle(perm)
    # an odd integer scale coprime to 5 and an integer shift keep every
    # denominator as it was, so arithmetic costs the same for every seed
    a = rng.choice((1, 3, 7, 9, 11, 13))
    b = rng.randint(-60, 60)

    def f(x: Fraction) -> Fraction:
        return a * x + b

    edges = [
        UncertainEdge(
            e.eid, perm[e.u], perm[e.v],
            Interval(f(e.interval.low), f(e.interval.high)),
            f(e.true_value), f(e.predicted_value),
        )
        for e in graph.edges
    ]
    return UncertainGraph(graph.vertex_count, edges), f


def to_instance(graph: UncertainGraph, truths=None, preds=None) -> checkers.Instance:
    edges = tuple(
        checkers.Edge(
            e.eid, e.u, e.v, e.interval.low, e.interval.high,
            e.true_value if truths is None else truths[e.eid],
            e.predicted_value if preds is None else preds[e.eid],
        )
        for e in graph.edges
    )
    return checkers.Instance(graph.vertex_count, edges)


# -- operations -------------------------------------------------------------


def solve(graph: UncertainGraph, mode: str, gamma: int) -> Out:
    """One strategy run to a verified tree, as run_combined does it but
    without the brute-force optimum."""
    run = graphcore.QueryRun(graph)
    out = Out((), frozenset(), 0, gamma=None if mode == "baseline" else gamma)
    if mode == "baseline":
        strategies.run_baseline(run)
    else:
        out.phase1_queries = len(strategies.make_prediction_mandatory_free(run, gamma).queries)
        if mode == "tradeoff":
            out.handoffs = int(strategies.phase2_tradeoff(run).handoff)
        else:
            out.restarts = strategies.phase2_error_sensitive(run).restarts
    before = run.query_count
    limittrees.ensure_unique_limit_trees(run)
    if run.query_count != before:
        raise RuntimeError("cleanup queried on a solved instance")
    tree = limittrees.verified_tree_of_original(run)
    if tree is None:
        raise RuntimeError("strategy finished on an unsolved instance")
    out.queried = tuple(run.queried)
    out.tree = frozenset(tree)
    out.reported_queries = run.query_count
    return out


def combined(graph: UncertainGraph, mode: str, gamma, rg_seed: int) -> Out:
    """One `mstquery bench` cell: strategy, brute-force optimum, hop
    distance and bound evaluation.  Rational gamma goes through
    randomized_gamma, as the CLI routes it."""
    if mode != "baseline" and gamma != int(gamma):
        outcome = strategies.randomized_gamma(graph, gamma, seed=rg_seed, mode=mode)
        effective = outcome.report.gamma_effective
    else:
        outcome = strategies.run_combined(graph, strategies.StrategyConfig(gamma=int(gamma), mode=mode))
        effective = None if mode == "baseline" else int(gamma)
    report = outcome.report
    out = Out(
        tuple(outcome.run.queried), frozenset(outcome.run.transcript.final_tree), report.queries,
        opt=report.opt, k_h=report.k_h, gamma=effective,
    )
    if outcome.phase1 is not None:
        out.phase1_queries = len(outcome.phase1.queries)
    out.restarts = getattr(outcome.phase2, "restarts", 0)
    out.handoffs = int(getattr(outcome.phase2, "handoff", False))
    return out


class RecordingSampler(learner.RealizationSampler):
    """The library's sampler, keeping every draw it hands out."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.drawn: list[dict] = []

    def sample(self):
        draw = super().sample()
        self.drawn.append(draw)
        return draw


def learn_once(base: UncertainGraph, mixtures, sampler_seed: int, draws: int) -> Out:
    """ERM over `draws` draws, then an error-sensitive gamma=2 run on the
    instance whose predictions are the learned values and whose truths are
    one further draw, with its hop distance."""
    sampler = RecordingSampler(base, mixtures, seed=sampler_seed)
    learned = learner.erm_train(base, sampler, draws)
    truth = sampler.sample()
    graph = UncertainGraph(
        base.vertex_count,
        [UncertainEdge(e.eid, e.u, e.v, e.interval, truth[e.eid], learned[e.eid]) for e in base.edges],
    )
    out = solve(graph, "error_sensitive", 2)
    out.k_h = errormetrics.hop_distance(graph).k_h
    out.learned = dict(learned)
    out.draws = sampler.drawn
    return out


# -- workload make-up -------------------------------------------------------

# (vertices, extra edges, overlap, base seed): 11-14 edges, all non-trivial.
# Mostly overlap 0.9-0.95: at 1.0 nearly every edge is mandatory (OPT ~ m),
# which leaves the oracle's subset enumeration almost nothing to do.
GRID_STRUCTURES = [
    (12, 3, 0.9, 101), (10, 4, 0.95, 102), (9, 5, 0.9, 103), (8, 6, 0.95, 104),
    (7, 7, 0.9, 105), (6, 8, 0.95, 106), (5, 9, 0.9, 107), (9, 5, 1.0, 108),
]
GRID_ERROR_RATES = (0, 0.5, 1)
GRID_CONFIGS = [
    ("baseline", 2), ("tradeoff", 2), ("tradeoff", 3),
    ("error_sensitive", 2), ("error_sensitive", 3), ("error_sensitive", Fraction(5, 2)),
]

# m = 319; one structure (two instances, one per error rate) keeps two to
# three rounds, so two or more samples per operation, in a 25-second run
SCALE_STRUCTURES = [(160, 160, 0.98, 0)]
SCALE_ERROR_RATES = (0, 0.5)
SCALE_CONFIGS = [("baseline", 2), ("tradeoff", 3), ("error_sensitive", 2)]

FAMILIES = [
    ("vc-flip[64,ex2]", lambda: factory.gen_vc_flip(64, "ex2")),
    ("path-parallel[32]", lambda: factory.gen_path_parallel(32)),
    ("triangle-chain[32]", lambda: factory.gen_triangle_chain(32)),
]

LEARN_STRUCTURE = (30, 30, 0.9, 7)  # m = 59
LEARN_MIXTURE_SEEDS = (1, 2, 3)  # one operation each
LEARN_DRAWS = 6


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def setup_oracle_grid(seed: int) -> list[Op]:
    ops = []
    for s_index, (v, x, overlap, base_seed) in enumerate(GRID_STRUCTURES):
        for rate in GRID_ERROR_RATES:
            rng = _rng("oracle-grid", seed, len(ops))
            graph, _ = present(factory.gen_random(v, x, overlap, rate, base_seed), rng)
            for c_index, (mode, gamma) in enumerate(GRID_CONFIGS):
                rg_seed = 1000 * s_index + c_index
                ops.append(Op(
                    f"random[{v}v+{x}e,ov={overlap},s={base_seed},err={rate}]/{mode}/{gamma}", mode,
                    lambda g=graph, m=mode, y=gamma, r=rg_seed: combined(g, m, y, r),
                    graph=graph, with_opt=True,
                ))
    return ops


def setup_random_scale(seed: int) -> list[Op]:
    ops = []
    for v, x, overlap, base_seed in SCALE_STRUCTURES:
        for rate in SCALE_ERROR_RATES:
            graph, _ = present(factory.gen_random(v, x, overlap, rate, base_seed), _rng("random-scale", seed, len(ops)))
            for mode, gamma in SCALE_CONFIGS:
                ops.append(Op(
                    f"random[{v}v+{x}e,ov={overlap},s={base_seed},err={rate}]/{mode}/{gamma}", mode,
                    lambda g=graph, m=mode, y=gamma: solve(g, m, y), graph=graph,
                ))
    return ops


def setup_families_scale(seed: int) -> list[Op]:
    ops = []
    for name, gen in FAMILIES:
        graph, _ = present(gen(), _rng("families-scale", seed, len(ops)))
        for mode, gamma in SCALE_CONFIGS:
            ops.append(Op(f"{name}/{mode}/{gamma}", mode, lambda g=graph, m=mode, y=gamma: solve(g, m, y), graph=graph))
    return ops


def _mixtures(graph: UncertainGraph, rng: random.Random) -> dict:
    """One to three point masses on a 1/16 grid inside each open interval,
    with integer weights 1..4."""
    out = {}
    for e in graph.edges:
        lo, hi = e.interval.low, e.interval.high
        values = sorted({lo + (hi - lo) * Fraction(rng.randint(1, 15), 16) for _ in range(rng.randint(1, 3))})
        out[e.eid] = (values, [rng.randint(1, 4) for _ in values])
    return out


def setup_learn(seed: int) -> list[Op]:
    v, x, overlap, base_seed = LEARN_STRUCTURE
    raw = factory.gen_random(v, x, overlap, 0, base_seed)
    base, f = present(raw, _rng("learn", seed, 0))
    ops = []
    for mix_seed in LEARN_MIXTURE_SEEDS:
        raw_mix = _mixtures(raw, random.Random(mix_seed))
        mixtures = {eid: ([f(val) for val in values], weights) for eid, (values, weights) in raw_mix.items()}
        learner.RealizationSampler(base, mixtures)  # validates the mixtures once
        ops.append(Op(
            f"learn[mix={mix_seed},draws={LEARN_DRAWS}]", "error_sensitive",
            lambda m=mixtures, s=100 + mix_seed: learn_once(base, m, s, LEARN_DRAWS),
            learn={"base": base, "support": {eid: values for eid, (values, _) in mixtures.items()}},
        ))
    return ops


WORKLOADS = {
    "oracle-grid": setup_oracle_grid,
    "random-scale": setup_random_scale,
    "families-scale": setup_families_scale,
    "learn": setup_learn,
}


# -- checks -----------------------------------------------------------------


@dataclass
class CheckCache:
    """Per-instance facts shared by every operation on the same truths."""

    mandatory: dict = field(default_factory=dict)
    opt: dict = field(default_factory=dict)

    def mandatory_of(self, inst: checkers.Instance) -> set[int]:
        key = inst.truth_key()
        if key not in self.mandatory:
            self.mandatory[key] = checkers.mandatory_edges(inst)
        return self.mandatory[key]

    def opt_of(self, inst: checkers.Instance) -> int:
        key = inst.truth_key()
        if key not in self.opt:
            self.opt[key] = checkers.exhaustive_opt(inst, self.mandatory_of(inst))
        return self.opt[key]


def check(op: Op, out: Out, cache: CheckCache) -> Optional[str]:
    """First failed check of one output, or None."""
    if op.learn is not None:
        base = op.learn["base"]
        problem = checkers.check_erm(to_instance(base), out.draws[:-1], out.learned, op.learn["support"])
        if problem:
            return problem
        inst = to_instance(base, truths=out.draws[-1], preds=out.learned)
    else:
        inst = to_instance(op.graph)
    if out.reported_queries != len(out.queried) or len(set(out.queried)) != len(out.queried):
        return f"reported {out.reported_queries} queries for the reveal list {list(out.queried)}"
    if any(inst.edges[eid].trivial for eid in out.queried):
        return "a known edge was queried"
    problem = (
        checkers.check_mst(inst, out.tree)
        or checkers.check_verified(inst, out.queried, out.tree)
        or checkers.check_mandatory_queried(out.queried, cache.mandatory_of(inst))
    )
    if problem:
        return problem
    if out.k_h is not None and out.k_h != checkers.hop_distance(inst):
        return f"reported k_h={out.k_h}, the hop distance is {checkers.hop_distance(inst)}"
    if op.with_opt:
        opt = cache.opt_of(inst)
        if out.opt != opt:
            return f"(d) reported OPT={out.opt}, exhaustive OPT={opt}"
        if op.mode != "baseline" and out.gamma not in (2, 3):
            return f"(d) effective gamma {out.gamma} is not an integer of the grid"
        all_correct = all(e.true == e.pred for e in inst.edges)
        return checkers.check_bounds(op.mode, out.gamma, len(out.queried), opt, out.k_h, all_correct)
    return None
