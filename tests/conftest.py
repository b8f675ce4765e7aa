"""Shared corpora and a session-wide optimum cache for the test suite."""

from __future__ import annotations

import pytest

from cases import ERROR_RATES, build_corpus
from mstquery import factory
from mstquery.oracle import opt_brute_force


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
