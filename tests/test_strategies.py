import gc
import random
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from cases import (
    cycle_pred_free, kernel_case, large_graphs, live_graphs, recursive_max_matching, tied_case, vc_structure,
)
from mstquery import factory, strategies
from mstquery.graphcore import (
    Interval, NoProgress, PreconditionViolated, QueryRun, UncertainEdge, UncertainGraph,
)
from mstquery.errormetrics import hop_distance
from mstquery.limittrees import (
    compute_limit_trees, ensure_unique_limit_trees, is_solved, limit_trees_unique, unique_limit_trees,
)
from mstquery.oracle import (
    mandatory_edges,
    opt_brute_force,
    prediction_mandatory_edges,
)
from mstquery.strategies import (
    StrategyConfig,
    _koenig_cover,
    _max_matching,
    build_vc_instance,
    make_prediction_mandatory_free,
    phase2_error_sensitive,
    phase2_tradeoff,
    randomized_gamma,
    run_baseline,
    run_combined,
)


def two_candidate_cycle():
    """Triangle with two intersecting intervals competing for the maximum."""
    edges = [
        UncertainEdge(0, 0, 1, Interval.point(-5), Fraction(-5), Fraction(-5)),
        UncertainEdge(1, 1, 2, Interval.open(0, 10), Fraction(6), Fraction(6)),
        UncertainEdge(2, 0, 2, Interval.open(4, 12), Fraction(11), Fraction(11)),
    ]
    return UncertainGraph(3, edges)


# -- baseline ---------------------------------------------------------------


def test_baseline_zero_queries_when_solved():
    g = factory.gen_random(5, 3, 0.0, 0.0, seed=9)
    run = QueryRun(g)
    run_baseline(run)
    assert run.query_count == 0


def test_baseline_pays_double_on_intersecting_pair():
    g = two_candidate_cycle()
    assert opt_brute_force(g).size == 1
    run = QueryRun(g)
    run_baseline(run)
    assert run.query_count == 2


def test_loops_without_progress_raise(monkeypatch):
    g = factory.demo_mandatory_cycle()
    run = QueryRun(g)
    run.reveal(0)  # the lower and upper limit trees now differ in edge 1
    monkeypatch.setattr(QueryRun, "reveal", lambda self, eid: self._values[eid])
    with pytest.raises(NoProgress, match="^ensure_unique_limit_trees: "):
        ensure_unique_limit_trees(run)
    with pytest.raises(NoProgress, match="^run_baseline: "):
        run_baseline(QueryRun(g))


@pytest.mark.parametrize("seed", range(60))
def test_baseline_two_competitive(seed):
    g = factory.gen_random(4 + seed % 3, 2 + seed % 4, (0.6, 0.9, 1.0)[seed % 3], 0.6, seed=2000 + seed)
    opt = opt_brute_force(g).size
    run = QueryRun(g)
    run_baseline(run)
    assert run.query_count <= 2 * opt
    assert is_solved(run) is not None or not run.present_ids()


# -- witness identification (fresh instances with unique trees) --------------
#
# Each case checks a block of SEED_BLOCK generated graphs at overlap 0.9 (at
# overlap 1.0 almost every instance needs uniqueness queries first), keeps
# those whose limit trees are already unique, and asserts a floor on what it
# checked, so that it cannot pass without reaching its assertions.

SEED_BLOCK = 10


def unique_tree_graphs(first_seed, *shape):
    """The graphs gen_random(*shape) of SEED_BLOCK seeds from first_seed
    whose limit trees are unique, with a fresh session on each."""
    for seed in range(first_seed, first_seed + SEED_BLOCK):
        g = factory.gen_random(*shape, seed=seed)
        run = QueryRun(g)
        if limit_trees_unique(run):
            yield g, run


@pytest.mark.parametrize("seed", range(20))
def test_cycle_witness_pairs_hit_every_optimal_set(seed):
    pairs = 0
    for g, run in unique_tree_graphs(2100 + SEED_BLOCK * seed, 4, 3, 0.9, 0.5):
        trees = compute_limit_trees(run)
        opt_sets = opt_brute_force(g, collect_all=True).all_optimal_sets
        mand = mandatory_edges(g)
        for f in trees.nontree_order:
            f_iv = run.interval(f)
            cands = [e for e in trees.paths[f] if run.interval(e).intersects(f_iv)]
            if not cands:
                continue
            l = min(cands, key=lambda e: (-run.interval(e).high, e))
            assert all(opt & {f, l} for opt in opt_sets)
            truth = g.edge(f).true_value
            if run.interval(l).contains(truth):
                assert l in mand
            pairs += 1
    assert pairs >= 10


@pytest.mark.parametrize("seed", range(15))
def test_cut_witness_pairs_hit_every_optimal_set(seed):
    pairs = 0
    for g, run in unique_tree_graphs(2150 + SEED_BLOCK * seed, 4, 3, 0.9, 0.5):
        trees = compute_limit_trees(run)
        opt_sets = opt_brute_force(g, collect_all=True).all_optimal_sets
        mand = mandatory_edges(g)
        earlier: set[int] = set()
        for f in trees.nontree_order:
            f_iv = run.interval(f)
            for l in trees.paths[f]:
                if l in earlier or not run.interval(l).intersects(f_iv):
                    continue
                # l appears for the first time on this cycle
                assert all(opt & {f, l} for opt in opt_sets)
                if f_iv.contains(g.edge(l).true_value):
                    assert f in mand
                pairs += 1
            earlier.update(trees.paths[f])
    assert pairs >= 10


@pytest.mark.parametrize("idx", range(30))
def test_safe_order_keeps_pairs_as_witness_sets(idx, pred_free_corpus):
    # walking the ordered cover, as long as every reveal confirmed the
    # predicted relations, the next element and its partner form a witness
    # set of the current residual instance
    g = pred_free_corpus[(idx * 11 + 3) % len(pred_free_corpus)]
    run = QueryRun(g)
    trees = compute_limit_trees(run)
    vc = build_vc_instance(run, trees)
    from mstquery.strategies import _observed_error, _phase2_lists

    f_list, l_list = _phase2_lists(run, trees, vc.cover)
    for e in f_list + l_list:
        partner = vc.matching[e]
        opt_sets = opt_brute_force(run, collect_all=True).all_optimal_sets
        assert all(opt & {e, partner} for opt in opt_sets)
        run.reveal(e)
        if _observed_error(run, e):
            break


# -- preprocessing (making instances prediction mandatory free) --------------


def test_preprocessing_noop_on_pred_free_instance():
    g = factory.gen_random_pred_free(5, 3, seed=5)
    run = QueryRun(g)
    ledger = make_prediction_mandatory_free(run, 3)
    assert ledger.queries == [] and run.query_count == 0


def test_preprocessing_solves_demo_cycle():
    g = factory.demo_mandatory_cycle()
    run = QueryRun(g)
    ledger = make_prediction_mandatory_free(run, 2)
    assert prediction_mandatory_edges(run) == set()
    # the offending cycle resolves through the cut-side two-step rule,
    # querying the closing edge and then the still-ambiguous tree edge
    assert ledger.queries == [0, 1]
    assert is_solved(run) is not None or not run.present_ids()


def preprocessing_accounting_holds(g, ledger, gamma):
    """min{(1+1/g)(|(ALG∪D)∩OPT| + jo(ALG) + oj(ALG)), g|(ALG∪D)∩OPT| + g-2}
    for the best choice among all optimal sets."""
    report = hop_distance(g)
    alg = set(ledger.queries)
    jo = report.jo_of(alg)
    oj = report.oj_of(alg)
    removed = set(ledger.removed_unqueried)
    lhs = len(alg)
    for opt_set in opt_brute_force(g, collect_all=True).all_optimal_sets:
        hit = len((alg | removed) & opt_set)
        bound = min(
            Fraction(gamma + 1, gamma) * (hit + jo + oj), gamma * hit + gamma - 2
        )
        if lhs <= bound:
            return True
    return False


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("gamma", [2, 3])
def test_preprocessing_query_accounting(seed, gamma):
    g = factory.gen_random(4, 3, (0.8, 1.0)[seed % 2], 0.5, seed=2200 + seed)
    run = QueryRun(g)
    ledger = make_prediction_mandatory_free(run, gamma)
    assert prediction_mandatory_edges(run) == set()
    assert preprocessing_accounting_holds(g, ledger, gamma)
    # unqueried two-step partners really left the instance
    for partner in ledger.case_partners.values():
        assert not run.is_present(partner)
        assert partner in ledger.removed_unqueried or partner in set(ledger.queries)


@pytest.mark.parametrize("seed", range(15))
def test_first_case_group_intersections(seed):
    groups = 0
    for g, run in unique_tree_graphs(2300 + SEED_BLOCK * seed, 4, 4, 0.9, 0.5):
        ledger = make_prediction_mandatory_free(run, 2)
        if not ledger.case_groups:
            continue
        first = ledger.case_groups[0]
        # unique limit trees: no uniqueness query precedes the first case
        assert ledger.queries[: len(first)] == first
        opt_sets = opt_brute_force(g, collect_all=True).all_optimal_sets
        if len(first) == 3:
            assert all(len(set(first) & opt_set) >= 2 for opt_set in opt_sets)
        elif len(first) == 2:
            assert all(set(first) & opt_set for opt_set in opt_sets)
        else:
            continue  # one query: the case's partner left unqueried
        groups += 1
    assert groups >= 2


@pytest.mark.parametrize("seed", range(10))
def test_pred_free_state_persists_under_further_queries(seed):
    rng = random.Random(seed)
    g = factory.gen_random(5, 3, 0.9, 0.5, seed=2400 + seed)
    run = QueryRun(g)
    make_prediction_mandatory_free(run, 2)
    while run.non_trivial_ids():
        run.reveal(rng.choice(run.non_trivial_ids()))
        ensure_unique_limit_trees(run)
        assert prediction_mandatory_edges(run) == set()


# -- vertex cover instances ---------------------------------------------------


def test_back_edge_family_cover_sides():
    g = factory.gen_vc_flip(8, "ex1")
    vc = build_vc_instance(QueryRun(g))
    k = 4
    assert len(vc.cover) == k
    assert vc.edge_count() == k * k  # complete bipartite
    assert len(vc.matched_pairs()) == len(vc.cover)
    # both sides cover everything, so both are minimum covers
    assert set(vc.left) == {0, 1, 2, 3} and set(vc.right) == {4, 5, 6, 7}


def test_back_edge_family_small_cover():
    g = factory.gen_vc_flip(8, "ex2")
    vc = build_vc_instance(QueryRun(g))
    assert vc.cover == frozenset({0, 4})


def test_cover_flip_after_scripted_reveals():
    g = factory.gen_vc_flip(8, "ex2")
    run = QueryRun(g)
    run.reveal(4)
    run.reveal(0)
    ensure_unique_limit_trees(run)
    assert run.removed[0] == "deleted" and run.removed[4] == "contracted"
    vc = build_vc_instance(run)
    assert len(vc.cover) == 3
    # the remnant has the shape of the all-spanning variant one size down:
    # a complete bipartite cover instance on the surviving six edges
    assert len(run.present_ids()) == 6
    assert vc.edge_count() == 9


def test_empty_cover_on_disjoint_instance():
    g = factory.gen_random(5, 3, 0.0, 0.0, seed=12)
    run = QueryRun(g)
    ensure_unique_limit_trees(run, reduce=False)
    vc = build_vc_instance(run)
    assert vc.cover == frozenset() and vc.edge_count() == 0


@pytest.mark.parametrize("seed", range(25))
def test_koenig_duality_on_random_pred_free(seed):
    g = factory.gen_random_pred_free(4 + seed % 3, 2 + seed % 3, seed=2500 + seed)
    vc = build_vc_instance(QueryRun(g))
    assert len(vc.matched_pairs()) == len(vc.cover)
    for l, r in vc.matched_pairs():
        assert (l in vc.cover) != (r in vc.cover)
    for l, rights in vc.adjacency.items():
        for r in rights:
            assert l in vc.cover or r in vc.cover


def random_bipartite(rng):
    """Left ids 0..a-1, right ids 100.., each pair adjacent with a drawn
    probability; adjacency lists are ascending, as _vc_structure builds them."""
    left = list(range(rng.randint(1, 7)))
    right = [100 + i for i in range(rng.randint(1, 7))]
    density = rng.random()
    adjacency = {l: [r for r in right if rng.random() < density] for l in left}
    return left, right, adjacency


@pytest.mark.parametrize("seed", range(60))
def test_koenig_cover_is_the_matched_set_split_once(seed):
    """The invariant the error-sensitive replay reads its set from: every
    cover vertex is matched and every matched pair has exactly one endpoint
    in the cover, so the cover and its partners are the matched set."""
    rng = random.Random(seed)
    left, right, adjacency = random_bipartite(rng)
    seed_pairs = []
    if seed % 2:
        # a valid partial matching, as retained pairs are
        taken = set()
        for l in left:
            free = [r for r in adjacency[l] if r not in taken]
            if free and rng.random() < 0.5:
                seed_pairs.append((l, rng.choice(free)))
                taken.add(seed_pairs[-1][1])
    pair = _max_matching(left, adjacency, seed_pairs)
    # the explicit stack visits neighbors in the recursive order
    assert pair == recursive_max_matching(left, adjacency, seed_pairs)
    cover = _koenig_cover(left, right, adjacency, pair)
    pairs = {(l, pair[l]) for l in left if l in pair}
    assert all(pair[r] == l for l, r in pairs)
    assert all(r in adjacency[l] for l, r in pairs)
    assert all(l in cover or r in cover for l in left for r in adjacency[l])
    assert len(cover) == len(pairs)
    assert all(x in pair for x in cover)
    assert all((l in cover) != (r in cover) for l, r in pairs)
    assert set(cover) | {pair[c] for c in cover} == set(pair)


def test_the_matching_returns_on_an_augmenting_path_past_the_recursion_limit():
    # u_0: [v_0], u_k: [v_{k-1}, v_k]; each u_k first tries v_{k-1} and
    # searches back down to u_0, so the search is n deep
    n = 1200
    left = list(range(n))
    adjacency = {0: [n]}
    adjacency.update({k: [n + k - 1, n + k] for k in range(1, n)})
    pair = _max_matching(left, adjacency)
    assert {u: pair[u] for u in left} == {k: n + k for k in range(n)}


def assert_the_first_path_meets_its_edge(run, trees):
    """On a reduced instance every path edge of the first non-tree edge
    meets it, so `run_baseline` reads its witness off the whole path;
    returns that path's length."""
    if not trees.nontree_order:
        return 0
    f = trees.nontree_order[0]
    path = trees.paths[f]
    assert all(run.intersects(e, f) for e in path)
    return len(path)


def check_readers(run, trees, seen, reduced=False):
    """_vc_structure and cycle_pred_mandatory_free, which compare ranks
    inline, against the definitions on the intervals and predicted values;
    on a `reduced` instance also the path `run_baseline` reads.  "apart"
    and "points meet" count the path edges that miss their non-tree edge,
    and the points that meet a point one, by `QueryRun.intersects`."""
    structure = strategies._vc_structure(run, trees)
    assert structure == vc_structure(run, trees)
    if reduced:
        seen["first path"] += assert_the_first_path_meets_its_edge(run, trees)
    for f in trees.nontree_order:
        path = trees.paths[f]
        meeting = [e for e in path if run.intersects(e, f)]
        seen["apart"] += len(path) - len(meeting)
        seen["points meet"] += sum(1 for e in meeting if run.lo[e] == run.hi[e])
        free = strategies.cycle_pred_mandatory_free(run, trees, f)
        assert free == cycle_pred_free(run, trees, f)
        seen["free" if free else "offending"] += 1
        seen["point closing edge"] += run.is_trivial(f)
    seen["adjacent"] += sum(map(len, structure[2].values()))
    seen["rounds"] += 1


def reader_graphs(corpus_by_rate):
    graphs = [g for corpus in corpus_by_rate.values() for g in corpus]
    graphs += [factory.gen_vc_flip(8, "ex2"), factory.gen_path_parallel(8), factory.gen_triangle_chain(8)]
    # ends and values that tie
    return graphs + [kernel_case(seed)[0] for seed in range(100)] + [tied_case(seed) for seed in range(200)]


@pytest.mark.parametrize("mode", ["baseline", "tradeoff", "error_sensitive"])
def test_readers_match_the_interval_definitions_at_every_round(monkeypatch, corpus_by_rate, mode):
    # on every LimitTrees a strategy run is handed
    seen = Counter()

    def checked(produce, reduced):
        def handed(run):
            trees = produce(run)
            check_readers(run, trees, seen, reduced)
            return trees

        return handed

    # unique_limit_trees reduces before it hands out the trees
    monkeypatch.setattr(strategies, "unique_limit_trees", checked(unique_limit_trees, True))
    monkeypatch.setattr(strategies, "compute_limit_trees", checked(compute_limit_trees, False))
    config = StrategyConfig(mode=mode) if mode == "baseline" else StrategyConfig(gamma=2, mode=mode)
    for g in reader_graphs(corpus_by_rate):
        strategies.solve(g, config)
    floors = {"rounds": 3000, "adjacent": 2000, "offending": 1000, "free": 400, "first path": 1500}
    assert all(seen[kind] > floor for kind, floor in floors.items()), seen


def test_readers_match_the_interval_definitions_without_reduction(corpus_by_rate):
    # unreduced sessions keep point edges on cycles, closing edges too
    seen = Counter()
    for g in reader_graphs(corpus_by_rate):
        run = QueryRun(g)
        while True:
            ensure_unique_limit_trees(run, reduce=False)
            check_readers(run, compute_limit_trees(run), seen)
            open_ids = run.non_trivial_ids()
            if not open_ids:
                break
            run.reveal(open_ids[len(open_ids) // 2])
    floors = {"rounds": 8000, "adjacent": 4000, "offending": 2000, "free": 20000, "point closing edge": 10000}
    floors.update({"apart": 50000, "points meet": 600})
    assert all(seen[kind] > floor for kind, floor in floors.items()), seen


def test_baseline_candidates_match_the_intersects_filter(monkeypatch, corpus_by_rate):
    # the cycle edges run_baseline picks from, on every round of a run: the
    # whole path of the first non-tree edge, every edge of which meets it
    seen = Counter()

    def checked(run):
        trees = unique_limit_trees(run)
        if run.present:
            seen["rounds"] += 1
            seen["candidates"] += assert_the_first_path_meets_its_edge(run, trees)
        return trees

    monkeypatch.setattr(strategies, "unique_limit_trees", checked)
    for g in reader_graphs(corpus_by_rate):
        strategies.solve(g, StrategyConfig(mode="baseline"))
    floors = {"rounds": 1500, "candidates": 2000}
    assert all(seen[kind] > floor for kind, floor in floors.items()), seen


def test_vc_requires_pred_free():
    g = factory.demo_mandatory_cycle()
    with pytest.raises(PreconditionViolated):
        build_vc_instance(QueryRun(g))


# -- phase 2, tradeoff ---------------------------------------------------------


def test_phase2_queries_exactly_the_cover_when_right():
    g = factory.with_correct_predictions(factory.gen_vc_flip(8, "ex2"))
    run = QueryRun(g)
    report = phase2_tradeoff(run)
    assert not report.handoff
    assert set(run.queried) == {0, 4}


def test_phase2_zero_queries_on_empty_cover():
    g = factory.gen_random(5, 3, 0.0, 0.0, seed=13)
    run = QueryRun(g)
    ensure_unique_limit_trees(run, reduce=False)
    phase2_tradeoff(run)
    assert run.query_count == 0


def test_phase2_rejects_instances_with_pred_mandatory_edges():
    g = factory.demo_mandatory_cycle()
    with pytest.raises(PreconditionViolated):
        phase2_tradeoff(QueryRun(g))


@pytest.mark.parametrize("idx", range(60))
def test_phase2_tradeoff_bounds(idx, pred_free_corpus):
    g = pred_free_corpus[idx * 5 % len(pred_free_corpus)]
    opt = opt_brute_force(g).size
    k_h = hop_distance(g).k_h
    run = QueryRun(g)
    phase2_tradeoff(run)
    assert run.query_count <= 2 * opt
    if k_h == 0:
        assert run.query_count == opt


# -- phase 2, error-sensitive ----------------------------------------------------


def test_error_sensitive_matches_tradeoff_on_correct_predictions():
    g = factory.with_correct_predictions(factory.gen_vc_flip(8, "ex2"))
    run_a, run_b = QueryRun(g), QueryRun(g)
    phase2_tradeoff(run_a)
    phase2_error_sensitive(run_b)
    assert set(run_a.queried) == set(run_b.queried)


@pytest.mark.parametrize("idx", range(60))
def test_error_sensitive_bounds_and_ledger(idx, pred_free_corpus):
    g = pred_free_corpus[(idx * 7 + 1) % len(pred_free_corpus)]
    opt = opt_brute_force(g).size
    k_h = hop_distance(g).k_h
    run = QueryRun(g)
    ledger = phase2_error_sensitive(run)
    assert run.query_count <= min(opt + 5 * k_h, 3 * opt)
    # the four query classes partition the transcript
    assert sorted(ledger.all_queries()) == sorted(run.queried)
    # pairs (listed edge, partner at query time) are pairwise disjoint
    seen = set()
    for e, partner in ledger.pair_at_query.items():
        assert e not in seen and partner not in seen
        seen.update({e, partner})
    # a deferred element never re-enters a retained matching afterwards
    for tick, endpoints in ledger.retained:
        for w, entered in ledger.deferred_entry.items():
            if entered < tick:
                assert w not in endpoints


# -- combined runners -------------------------------------------------------------


def test_combined_tradeoff_cycle_consistency_and_robustness():
    for beta in (2, 3, 4):
        calm = factory.gen_tradeoff_cycle(beta, adversarial=False)
        out = run_combined(calm, StrategyConfig(gamma=beta, mode="tradeoff"))
        assert out.report.opt == beta and out.report.queries == beta + 1
        rough = factory.gen_tradeoff_cycle(beta, adversarial=True)
        out = run_combined(rough, StrategyConfig(gamma=beta, mode="tradeoff"))
        assert out.report.opt == 1 and out.report.queries <= beta


def test_combined_error_sensitive_on_triangle_chain():
    for n in (1, 2, 3):
        g = factory.gen_triangle_chain(n)
        out = run_combined(g, StrategyConfig(gamma=2, mode="error_sensitive"))
        rep = out.report
        assert rep.opt == n and rep.k_h == n
        assert rep.queries <= min(Fraction(3, 2) * rep.opt + 5 * rep.k_h, 3 * rep.opt)


def test_combined_reports_ratio_and_bounds():
    g = factory.gen_triangle_chain(2)
    out = run_combined(g, StrategyConfig(gamma=2, mode="tradeoff"), instance_label="tri2")
    rep = out.report
    assert rep.instance == "tri2"
    assert rep.ratio == Fraction(rep.queries, rep.opt)
    assert rep.robustness_ok is True
    d = rep.to_dict()
    assert d["queries"] == rep.queries and d["opt"] == rep.opt


def test_strategy_config_validation():
    with pytest.raises(ValueError):
        StrategyConfig(gamma=1, mode="tradeoff")
    with pytest.raises(ValueError):
        StrategyConfig(gamma=2, mode="nonsense")


def test_strategy_config_rejects_rational_gamma():
    # 5/2 used to run as gamma=2 while the bounds were checked against 5/2:
    # 3 queries against OPT=2 exceed (1 + 2/5) * 2 and read as inconsistent
    g = factory.gen_random(4, 5, 0.5, 0.0, 15)
    for mode in ("tradeoff", "error_sensitive"):
        with pytest.raises(ValueError, match="randomized_gamma"):
            StrategyConfig(gamma=Fraction(5, 2), mode=mode)
    assert StrategyConfig(gamma=Fraction(5, 2), mode="baseline").mode == "baseline"
    out = run_combined(g, StrategyConfig(gamma=Fraction(3), mode="tradeoff"))
    assert out.report.gamma == 3 and out.report.consistency_ok is True
    for seed in range(4):
        rep = randomized_gamma(g, Fraction(5, 2), seed=seed, mode="tradeoff").report
        assert rep.gamma == Fraction(5, 2) and rep.consistency_ok is True


def test_randomized_gamma_exact_expectations():
    g = factory.gen_triangle_chain(1)
    out = randomized_gamma(g, Fraction(5, 2), seed=3)
    rep = out.report
    assert rep.gamma_effective in (2, 3)
    assert rep.expected_inverse_gamma == Fraction(5, 12)
    assert rep.rounding_slack == Fraction(1, 60)
    assert rep.expected_inverse_gamma <= Fraction(2, 5) + rep.rounding_slack
    # integral parameter: deterministic, no slack
    out = randomized_gamma(g, Fraction(3), seed=3)
    assert out.report.gamma_effective == 3 and out.report.rounding_slack == 0


def test_randomized_gamma_is_seed_deterministic():
    g = factory.gen_triangle_chain(1)
    a = randomized_gamma(g, Fraction(5, 2), seed=11).report.gamma_effective
    b = randomized_gamma(g, Fraction(5, 2), seed=11).report.gamma_effective
    assert a == b


def test_solve_computes_no_optimum_and_makes_the_run_of_run_combined(monkeypatch):
    configs = [StrategyConfig(mode="baseline")] + [
        StrategyConfig(gamma=gamma, mode=mode) for mode in ("tradeoff", "error_sensitive") for gamma in (2, 3)
    ]
    graphs = live_graphs() + large_graphs()
    want = []
    for g in graphs:
        for config in configs:
            transcript = run_combined(g, config).run.transcript
            want.append((transcript.to_json(), transcript.final_tree))

    def forbidden(*args, **kwargs):
        raise AssertionError("solve computed an optimum or an error measure")

    for name in ("opt_brute_force", "opt_exact", "hop_distance"):
        monkeypatch.setattr(strategies, name, forbidden)
    got = []
    for g in graphs:
        for config in configs:
            outcome = strategies.solve(g, config)
            assert outcome.report is None
            got.append((outcome.run.transcript.to_json(), outcome.run.transcript.final_tree))
    assert got == want
    assert len(got) == 5 * len(graphs)


# -- report facts held once per graph ---------------------------------------------

# the six configs of every oracle-grid graph: rational gamma runs through
# randomized_gamma, as the CLI routes it; tradeoff at 5/2 is added
HELD_CONFIGS = [
    ("baseline", 2), ("tradeoff", 2), ("tradeoff", 3), ("error_sensitive", 2), ("error_sensitive", 3),
    ("error_sensitive", Fraction(5, 2)), ("tradeoff", Fraction(5, 2)),
]


def counted(monkeypatch, *names):
    """Replace each named function of `strategies` by a wrapper that counts
    its calls; returns the counts by name."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def wrapper(*args, _name=name, _original=getattr(strategies, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(strategies, name, wrapper)
    return calls


def reports_of_every_config(g):
    reports = []
    for mode, gamma in HELD_CONFIGS:
        if gamma == int(gamma):
            reports.append(run_combined(g, StrategyConfig(gamma=int(gamma), mode=mode)).report)
        else:
            reports.append(randomized_gamma(g, gamma, seed=1, mode=mode).report)
    return reports


def direct_facts(g, opt):
    """(OPT, k_h, k_sharp) of a fresh copy of g, from the library's functions."""
    copy = UncertainGraph(g.vertex_count, g.edges)
    errors = hop_distance(copy)
    return opt(copy).size, errors.k_h, errors.k_sharp


@pytest.mark.parametrize("shape, opt, filler", [
    ((6, 6, 0.9, 0.5, 3), opt_brute_force, "opt_brute_force"),
    ((40, 40, 0.98, 0.3, 3), strategies.opt_exact, "opt_exact"),
], ids=["brute-force", "beyond-the-cap"])
def test_report_facts_are_computed_once_per_graph(monkeypatch, shape, opt, filler):
    g = factory.gen_random(*shape)
    calls = counted(monkeypatch, "opt_brute_force", "opt_exact", "hop_distance")
    reports = reports_of_every_config(g)
    assert calls == {"opt_brute_force": 0, "opt_exact": 0, "hop_distance": 1, filler: 1}
    want = direct_facts(g, opt)
    assert [(r.opt, r.k_h, r.k_sharp) for r in reports] == [want] * len(HELD_CONFIGS)


def test_report_facts_stay_with_their_graph():
    wrong = factory.gen_random(6, 6, 0.9, 1.0, 4)
    right = factory.with_correct_predictions(wrong)  # same structure, other truths
    for _ in range(2):
        for g in (wrong, right):
            rep = run_combined(g, StrategyConfig(gamma=2, mode="error_sensitive")).report
            assert (rep.opt, rep.k_h, rep.k_sharp) == direct_facts(g, opt_brute_force)
    assert direct_facts(wrong, opt_brute_force)[1:] != direct_facts(right, opt_brute_force)[1:]


def test_report_facts_do_not_keep_a_graph_alive():
    g = factory.gen_triangle_chain(2)
    run_combined(g, StrategyConfig(gamma=2, mode="tradeoff"))
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None
