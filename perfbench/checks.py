"""Output checks and simulated metrics computed from per-job records.

Every check adds to ``attempted`` and, when it fails, to ``failed`` plus a
human-readable line in ``problems``; ``failed / attempted`` is the run's
``failed_frac``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from collections import Counter
from typing import Dict, List, Sequence

#: Relative tolerance for comparing means computed here with the program's.
REL_TOL = 1e-9
#: Absolute slack for the latency-decomposition closure (simulated seconds).
ABS_TOL = 1e-6


class CheckLog:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(message)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def record_digest(records: Sequence) -> str:
    """SHA-256 over every field of every record, in job-id order.

    ``repr`` of a float round-trips exactly, so equal digests mean
    byte-identical records.
    """
    digest = hashlib.sha256()
    for record in sorted(records, key=lambda r: (r.job_id, r.completion_time)):
        digest.update(repr(dataclasses.astuple(record)).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def check_records(log: CheckLog, records: Sequence, inputs, summary: Dict[str, float]) -> None:
    """Completion, decomposition and summary-agreement checks for one run."""
    seen = Counter(r.job_id for r in records)
    expected = Counter(inputs.expected_ids)
    for job_id, count in expected.items():
        log.check(seen.get(job_id, 0) == count, f"job {job_id} completed {seen.get(job_id, 0)} times")
    unexpected = sum(n for job_id, n in seen.items() if job_id not in expected)
    log.check(unexpected == 0, f"{unexpected} records for jobs that were never generated")

    bad = 0
    for r in records:
        response = r.completion_time - r.arrival_time
        queueing = r.start_time - r.arrival_time
        ok = (
            r.execution_time >= 0.0
            and queueing >= -ABS_TOL
            and r.completion_time >= r.start_time
            and abs(queueing + r.execution_time - response) <= ABS_TOL * max(1.0, response)
            and abs(r.queueing_time - queueing) <= ABS_TOL * max(1.0, response)
        )
        if not ok:
            bad += 1
            if bad <= 3:
                log.problems.append(
                    f"job {r.job_id}: queueing {queueing!r} + execution "
                    f"{r.execution_time!r} does not close to response {response!r}"
                )
    log.attempted += len(records)
    log.failed += bad

    log.check(
        summary.get("completed_jobs") == float(len(records)),
        f"summary completed_jobs {summary.get('completed_jobs')} != {len(records)} records",
    )
    tasks = sum(r.num_map_tasks + r.num_reduce_tasks for r in records)
    log.check(
        tasks == inputs.expected_tasks,
        f"records carry {tasks} tasks, inputs generated {inputs.expected_tasks}",
    )
    by_class: Dict[int, List] = {}
    for r in records:
        by_class.setdefault(r.priority, []).append(r)
    for priority, rows in sorted(by_class.items()):
        n = len(rows)
        log.check(
            summary.get(f"jobs_p{priority}") == float(n),
            f"class {priority}: summary has {summary.get(f'jobs_p{priority}')} jobs, records {n}",
        )
        for name, values in (
            ("response", [r.completion_time - r.arrival_time for r in rows]),
            ("queueing", [r.queueing_time for r in rows]),
            ("execution", [r.execution_time for r in rows]),
        ):
            ours = math.fsum(values) / n
            theirs = summary.get(f"mean_{name}_p{priority}", float("nan"))
            log.check(
                _close(ours, theirs),
                f"class {priority}: mean {name} {ours!r} from records, {theirs!r} in summary",
            )


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of ``values`` (``q`` in [0, 100]).

    Computed here rather than with the program's helper so that the figure
    cannot move with the code under test.
    """
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


def simulated_metrics(records: Sequence, hi: int, lo: int, energy_kj: float) -> Dict[str, float]:
    """The simulated cluster's headline figures, from the per-job records."""
    def mean_response(priority: int) -> float:
        values = [r.completion_time - r.arrival_time for r in records if r.priority == priority]
        return math.fsum(values) / len(values)

    low = [r for r in records if r.priority == lo]
    wasted = math.fsum(r.wasted_time for r in records)
    useful = math.fsum(r.execution_time for r in records)
    return {
        "sim_hi_mean_response_s": mean_response(hi),
        "sim_lo_mean_response_s": mean_response(lo),
        "sim_p95_response_s": percentile(
            [r.completion_time - r.arrival_time for r in records], 95.0
        ),
        "sim_energy_kj": energy_kj,
        "sim_lo_accuracy_loss_pct": 100.0 * math.fsum(r.accuracy_loss for r in low) / len(low),
        "sim_waste_pct": 100.0 * wasted / (wasted + useful),
    }
