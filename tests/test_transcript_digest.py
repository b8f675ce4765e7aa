"""Every strategy makes the same reveals, moves and restarts as before.

One sha256 over the transcript JSON of six (mode, gamma) configurations on
a fixed corpus: the seeded random corpus, the lower-bound families,
prediction-mandatory-free instances and near-full-overlap random graphs.
A refactor of the strategies or the layers under them must leave every
transcript byte-identical; a change that means to alter a strategy's
choices updates DIGEST and says why.
"""

import hashlib

from cases import ERROR_RATES, build_corpus
from mstquery import factory
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


def test_transcripts_are_unchanged():
    h = hashlib.sha256()
    for graph in digest_corpus():
        for mode, gamma in CONFIGS:
            h.update(transcript(graph, mode, gamma).encode())
            h.update(b"\n")
    assert h.hexdigest() == DIGEST
