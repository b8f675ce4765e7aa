"""Every strategy makes the same reveals, moves and restarts as before.

One sha256 over the transcript JSON of six (mode, gamma) configurations on
a fixed corpus: the seeded random corpus, the lower-bound families,
prediction-mandatory-free instances and near-full-overlap random graphs.
A refactor of the strategies or the layers under them must leave every
transcript byte-identical; a change that means to alter a strategy's
choices updates DIGEST and says why.

The digest is taken twice.  Once with every configuration on one graph
object, so the first session over a graph computes its reduced start and
the other five copy it; once with each configuration on its own copy of
the graph, so every session computes it.  Both give DIGEST.
"""

import hashlib

from cases import ERROR_RATES, build_corpus
from mstquery import factory, limittrees
from mstquery.graphcore import UncertainGraph
from mstquery.strategies import StrategyConfig, solve

DIGEST = "82bb80130424593b9baed9f89505382a9d098a4b6bc561411b0e77b1914d3ace"

CONFIGS = [
    ("baseline", 2),
    ("tradeoff", 2),
    ("tradeoff", 3),
    ("error_sensitive", 2),
    ("error_sensitive", 3),
    ("error_sensitive", 4),
]


def digest_corpus():
    graphs = [g for rate in ERROR_RATES for g in build_corpus(rate, 100)]
    for n in (4, 8, 16):
        graphs += [
            factory.gen_vc_flip(n, "ex1"),
            factory.gen_vc_flip(n, "ex2"),
            factory.gen_path_parallel(n),
            factory.gen_triangle_chain(n),
        ]
    graphs += [
        factory.gen_random_pred_free(4 + i % 3, 2 + i % 3, seed=900 + i, corrupt=bool(i % 2))
        for i in range(20)
    ]
    graphs += [factory.gen_random(10, 10, 0.98, rate, seed) for rate in (0, 0.5) for seed in range(3)]
    return graphs


def transcript(graph, mode, gamma) -> str:
    """The strategy run of run_combined, without the optimum and error report."""
    return solve(graph, StrategyConfig(gamma=gamma, mode=mode)).run.transcript.to_json()


def digest_of_runs(monkeypatch, shared: bool) -> tuple[str, int, int]:
    """The digest of every configuration on every corpus graph, on the one
    graph object or on a copy per configuration; with the number of graphs
    and of sessions that copied a reduced start."""
    restores = 0
    restore = limittrees._restore

    def counted(run, start):
        nonlocal restores
        restores += 1
        restore(run, start)

    monkeypatch.setattr(limittrees, "_restore", counted)
    h = hashlib.sha256()
    graphs = digest_corpus()
    for graph in graphs:
        for mode, gamma in CONFIGS:
            own = graph if shared else UncertainGraph(graph.vertex_count, graph.edges)
            h.update(transcript(own, mode, gamma).encode())
            h.update(b"\n")
    return h.hexdigest(), len(graphs), restores


def test_transcripts_are_unchanged(monkeypatch):
    digest, graphs, restores = digest_of_runs(monkeypatch, shared=True)
    assert digest == DIGEST
    assert restores == (len(CONFIGS) - 1) * graphs


def test_transcripts_are_unchanged_when_every_session_computes_its_start(monkeypatch):
    digest, _, restores = digest_of_runs(monkeypatch, shared=False)
    assert digest == DIGEST
    assert restores == 0
