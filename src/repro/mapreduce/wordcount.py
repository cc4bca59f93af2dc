"""The text-analysis workload: word-frequency counting with task dropping.

The paper's text jobs parse StackExchange posts and count word frequencies per
topic; accuracy is the mean absolute percentage error of the estimated word
popularity under task dropping (Fig. 6).  Here the same computation runs on a
synthetic corpus through the mini-MapReduce runtime: documents are split into
RDD partitions (map tasks), tokenised and counted with a ``reduceByKey``
shuffle, with partitions dropped per the DiAS rule, and the surviving counts
scaled back by the kept fraction before comparing against the exact counts.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.mapreduce.rdd import LocalRuntime
from repro.mapreduce.sampling import (
    horvitz_thompson_scale,
    mean_absolute_percentage_error,
)

_TOKEN_PATTERN = re.compile(r"[a-z0-9']+")


def tokenize(document: str) -> List[str]:
    """Lower-case alphanumeric tokenisation (the XML parsing analogue)."""
    return _TOKEN_PATTERN.findall(document.lower())


def word_count_job(
    documents: Sequence[str],
    num_partitions: int = 50,
    drop_ratio: float = 0.0,
    rng: Optional[np.random.Generator] = None,
    scale_estimates: bool = True,
) -> Tuple[Dict[str, float], LocalRuntime]:
    """Run the word-count job and return (estimated counts, runtime).

    With ``drop_ratio > 0`` some map tasks are skipped; the surviving counts
    are scaled by the inverse of the *achieved* kept fraction so the estimate
    remains unbiased (``scale_estimates=False`` returns the raw counts).
    """
    runtime = LocalRuntime(drop_ratio=drop_ratio, rng=rng)
    rdd = (
        runtime.parallelize(documents, num_partitions)
        .flat_map(tokenize)
        .map(lambda word: (word, 1))
        .reduce_by_key(lambda a, b: a + b, num_partitions=num_partitions)
    )
    counts = dict(rdd.collect(apply_drop=False, description="collect"))
    if scale_estimates and drop_ratio > 0:
        executed = sum(s.executed_tasks for s in runtime.stages if s.description == "reduceByKey")
        total = sum(s.total_tasks for s in runtime.stages if s.description == "reduceByKey")
        kept_fraction = executed / total if total else 1.0
        if kept_fraction > 0:
            counts = {
                word: horvitz_thompson_scale(count, kept_fraction)
                for word, count in counts.items()
            }
    return counts, runtime


def exact_word_count(documents: Sequence[str], num_partitions: int = 50) -> Dict[str, float]:
    """Exact word counts (no dropping)."""
    counts, _ = word_count_job(documents, num_partitions=num_partitions, drop_ratio=0.0)
    return counts


def wordcount_mape(
    exact: Mapping[str, float],
    approximate: Mapping[str, float],
    top_n: int = 100,
) -> float:
    """MAPE (percent) of the approximate counts over the top-``n`` exact words.

    Evaluating on the most popular words mirrors the paper's "popularity of
    different words in different topics" target metric.
    """
    if not exact:
        raise ValueError("exact counts must not be empty")
    # Ties in count break by word, so the top-n set never depends on the
    # insertion order of ``exact``.
    top_words = [w for w, _ in sorted(exact.items(), key=lambda kv: (-kv[1], kv[0]))[:top_n]]
    return mean_absolute_percentage_error(approximate, exact, top_words)


def wordcount_accuracy_curve(
    documents: Sequence[str],
    drop_ratios: Iterable[float],
    num_partitions: int = 50,
    top_n: int = 100,
    repetitions: int = 3,
    seed: int = 0,
) -> List[Tuple[float, float]]:
    """Measured (drop ratio, MAPE %) points — the data behind Fig. 6.

    Each drop ratio is evaluated ``repetitions`` times with different random
    task selections and the errors averaged.
    """
    exact = exact_word_count(documents, num_partitions=num_partitions)
    curve: List[Tuple[float, float]] = []
    for theta in drop_ratios:
        if theta == 0:
            curve.append((0.0, 0.0))
            continue
        errors = []
        for rep in range(repetitions):
            rng = np.random.default_rng(seed * 1000 + rep + int(theta * 100))
            approx, _ = word_count_job(
                documents,
                num_partitions=num_partitions,
                drop_ratio=theta,
                rng=rng,
            )
            errors.append(wordcount_mape(exact, approx, top_n=top_n))
        curve.append((float(theta), sum(errors) / len(errors)))
    return curve
