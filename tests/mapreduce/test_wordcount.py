"""Tests for the word-count workload and its accuracy metric."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.mapreduce.wordcount import (
    exact_word_count,
    tokenize,
    word_count_job,
    wordcount_accuracy_curve,
    wordcount_mape,
)
from repro.workloads.text import CorpusSpec, synthetic_corpus


@pytest.fixture(scope="module")
def corpus():
    spec = CorpusSpec(num_documents=60, words_per_document=60, vocabulary_size=300,
                      num_topics=4, topic_vocabulary_size=30)
    return synthetic_corpus(spec, seed=1)


def test_tokenize_lowercases_and_splits():
    assert tokenize("Hello, World! world") == ["hello", "world", "world"]


def test_tokenize_keeps_numbers_and_apostrophes():
    assert tokenize("it's 42") == ["it's", "42"]


def test_exact_word_count_totals(corpus):
    counts = exact_word_count(corpus, num_partitions=10)
    total_words = sum(len(tokenize(doc)) for doc in corpus)
    assert sum(counts.values()) == total_words


def test_word_count_without_dropping_matches_plain_python(corpus):
    counts, runtime = word_count_job(corpus, num_partitions=10, drop_ratio=0.0)
    manual = {}
    for doc in corpus:
        for word in tokenize(doc):
            manual[word] = manual.get(word, 0) + 1
    assert counts == manual
    assert runtime.total_tasks_dropped == 0


def test_word_count_with_dropping_executes_fewer_tasks(corpus):
    _, runtime = word_count_job(corpus, num_partitions=10, drop_ratio=0.3,
                                rng=np.random.default_rng(0))
    shuffle = [s for s in runtime.stages if s.description == "reduceByKey"][0]
    assert shuffle.executed_tasks == 7
    assert shuffle.dropped_tasks == 3


def test_scaled_estimates_are_close_to_truth_for_popular_words(corpus):
    exact = exact_word_count(corpus, num_partitions=10)
    approx, _ = word_count_job(corpus, num_partitions=10, drop_ratio=0.2,
                               rng=np.random.default_rng(1))
    top_word = max(exact, key=exact.get)
    assert approx[top_word] == pytest.approx(exact[top_word], rel=0.35)


def test_unscaled_estimates_undercount(corpus):
    exact = exact_word_count(corpus, num_partitions=10)
    approx, _ = word_count_job(corpus, num_partitions=10, drop_ratio=0.4,
                               rng=np.random.default_rng(1), scale_estimates=False)
    assert sum(approx.values()) < sum(exact.values())


def test_mape_zero_for_identical_counts(corpus):
    exact = exact_word_count(corpus, num_partitions=10)
    assert wordcount_mape(exact, exact) == 0.0


def test_mape_positive_under_dropping(corpus):
    exact = exact_word_count(corpus, num_partitions=10)
    approx, _ = word_count_job(corpus, num_partitions=10, drop_ratio=0.4,
                               rng=np.random.default_rng(2))
    assert wordcount_mape(exact, approx, top_n=50) > 0.0


def test_mape_requires_exact_counts():
    with pytest.raises(ValueError):
        wordcount_mape({}, {})


def test_accuracy_curve_starts_at_zero_and_grows(corpus):
    curve = wordcount_accuracy_curve(corpus, (0.0, 0.2, 0.6), num_partitions=10,
                                     repetitions=2, seed=3)
    ratios = [theta for theta, _ in curve]
    errors = [err for _, err in curve]
    assert ratios == [0.0, 0.2, 0.6]
    assert errors[0] == 0.0
    assert errors[1] > 0.0
    assert errors[2] > errors[1]


def test_accuracy_curve_is_independent_of_the_hash_seed():
    """String hashing is salted per process; the Fig. 6 curve must not be."""
    code = (
        "from repro.mapreduce.wordcount import wordcount_accuracy_curve\n"
        "from repro.workloads.text import CorpusSpec, synthetic_corpus\n"
        "docs = synthetic_corpus(CorpusSpec(num_documents=40, words_per_document=60,"
        " vocabulary_size=800, num_topics=6, topic_vocabulary_size=60), seed=0)\n"
        "print(repr(wordcount_accuracy_curve(docs, [0.3, 0.8], num_partitions=12,"
        " top_n=100, repetitions=2, seed=0)))\n"
    )
    src = str(Path(__file__).resolve().parents[2] / "src")
    outputs = set()
    for hash_seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        outputs.add(result.stdout)
    assert len(outputs) == 1
