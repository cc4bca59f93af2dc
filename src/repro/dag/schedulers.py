"""Pluggable stage schedulers: which ready stage gets free slots.

When a DAG job runs on the cluster, several stages can be ready at once and
together hold more pending tasks than there are free computing slots.  A
:class:`StageScheduler` decides, one task at a time, which ready stage the
next free slot serves — the DAG-level analogue of the fleet layer's routing
dispatchers.

Implemented policies
--------------------
* :class:`FifoStageScheduler` — serve stages in the order they became ready
  (ties by stage index); the work-conserving baseline.
* :class:`CriticalPathFirstScheduler` — serve the ready stage with the
  largest HEFT-style upward rank (longest remaining path to a sink), i.e.
  keep the critical path moving and let off-path stages fill leftover slots.
* :class:`ShortestRemainingWorkScheduler` — serve the stage with the least
  undispatched work (SRPT-flavoured; drains narrow stages fast to unlock
  their children).
* :class:`WidestFirstScheduler` — serve the stage with the most pending
  tasks, maximising immediate slot occupancy.

All schedulers are deterministic: candidates are presented in the job's
topological order (stage-index order when every parent has a lower index
than its children, as in all generated workloads), and every key ends in
(ready order, stage index), which no two stages share.  So a choice never
depends on the candidates' order, and two runs with the same seed produce
byte-identical traces.  A scheduler is only consulted when at least two
stages are dispatchable.
"""

from __future__ import annotations

from typing import Callable, Dict, Protocol, Sequence, Union


class StageRunView(Protocol):
    """What a stage scheduler may observe about one runnable stage."""

    @property
    def index(self) -> int:
        """Stage index within the job's DAG."""

    @property
    def ready_seq(self) -> int:
        """Monotonic counter of when the stage became ready."""

    @property
    def rank(self) -> float:
        """Upward rank (critical-path distance to a sink, seconds)."""

    @property
    def pending_tasks(self) -> int:
        """Tasks of the current phase not yet dispatched."""

    def remaining_work(self) -> float:
        """Undispatched task work left in this stage (seconds)."""


class StageScheduler:
    """Base class: pick the ready stage the next free slot should serve."""

    name = "stage-scheduler"

    def select(self, ready: Sequence[StageRunView]) -> StageRunView:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class FifoStageScheduler(StageScheduler):
    """First-ready-first-served (ties broken by stage index)."""

    name = "fifo"

    def select(self, ready: Sequence[StageRunView]) -> StageRunView:
        return min(ready, key=lambda run: (run.ready_seq, run.index))


class CriticalPathFirstScheduler(StageScheduler):
    """Largest upward rank first — keep the critical path supplied with slots."""

    name = "critical_path_first"

    def select(self, ready: Sequence[StageRunView]) -> StageRunView:
        return min(ready, key=lambda run: (-run.rank, run.ready_seq, run.index))


class ShortestRemainingWorkScheduler(StageScheduler):
    """Least undispatched work first — drain narrow stages to unlock children."""

    name = "shortest_remaining_work"

    def select(self, ready: Sequence[StageRunView]) -> StageRunView:
        return min(
            ready, key=lambda run: (run.remaining_work(), run.ready_seq, run.index)
        )


class WidestFirstScheduler(StageScheduler):
    """Most pending tasks first — maximise immediate slot occupancy."""

    name = "widest_first"

    def select(self, ready: Sequence[StageRunView]) -> StageRunView:
        return min(
            ready, key=lambda run: (-run.pending_tasks, run.ready_seq, run.index)
        )


#: Scheduler names accepted by :func:`make_stage_scheduler` (and the CLI).
STAGE_SCHEDULERS = (
    "fifo",
    "critical_path_first",
    "shortest_remaining_work",
    "widest_first",
)

_FACTORIES: Dict[str, Callable[[], StageScheduler]] = {
    "fifo": FifoStageScheduler,
    "critical_path_first": CriticalPathFirstScheduler,
    "shortest_remaining_work": ShortestRemainingWorkScheduler,
    "widest_first": WidestFirstScheduler,
}


def make_stage_scheduler(name: Union[str, StageScheduler]) -> StageScheduler:
    """Build a stage scheduler by name (idempotent on scheduler instances)."""
    if isinstance(name, StageScheduler):
        return name
    key = str(name).strip().lower().replace("-", "_")
    factory = _FACTORIES.get(key)
    if factory is None:
        raise ValueError(
            f"unknown stage scheduler {name!r}; expected one of "
            f"{', '.join(STAGE_SCHEDULERS)}"
        )
    return factory()
