"""Shared corpora and a session-wide optimum cache for the test suite."""

from __future__ import annotations

import pytest

from mstquery import factory
from mstquery.oracle import opt_brute_force

CORPUS_SIZE = 500
ERROR_RATES = (0.0, 0.2, 0.5, 1.0)


def corpus_params(count: int = CORPUS_SIZE):
    """Deterministic parameter mix: 4-6 vertices, 2-5 extra edges, mixed
    overlap density.  At most 10 non-trivial edges per instance."""
    out = []
    for i in range(count):
        vertices = 4 + i % 3
        extra = 2 + (i // 3) % 4
        overlap = (0.5, 0.8, 1.0)[(i // 12) % 3]
        out.append((vertices, extra, overlap, 10_000 + i))
    return out


def build_corpus(error_rate: float, count: int = CORPUS_SIZE):
    return [
        factory.gen_random(v, extra, overlap, error_rate, seed)
        for v, extra, overlap, seed in corpus_params(count)
    ]


@pytest.fixture(scope="session")
def corpus_by_rate():
    return {rate: build_corpus(rate) for rate in ERROR_RATES}


@pytest.fixture(scope="session")
def cached_opt():
    cache: dict[int, object] = {}

    def get(graph):
        key = id(graph)
        if key not in cache:
            cache[key] = opt_brute_force(graph)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def pred_free_corpus():
    """300 prediction-mandatory-free instances: half with correct-by-relation
    predictions, half with freely corrupted truths."""
    out = []
    for i in range(300):
        out.append(
            factory.gen_random_pred_free(
                4 + i % 3, 2 + i % 3, seed=500 + i, corrupt=bool(i % 2)
            )
        )
    return out
