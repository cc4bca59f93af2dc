"""Execution of one job on the cluster inside the simulator.

Both job shapes run on one slot machine, :class:`SlotExecution`.  It
dispatches tasks onto the cluster's ``C`` computing slots and carries every
in-flight task through the two dynamic operations DiAS needs:

* ``set_speed`` — a cluster-wide DVFS change (sprint start or stop) rescales
  the completion times of all in-flight tasks;
* ``evict`` — preemptive eviction cancels all in-flight work; the wall-clock
  time burned by the attempt is returned so the simulator can account
  resource waste (the job restarts from scratch later, as in the paper's
  SIGKILL-based prototype).

Under an optional fault injector it also handles straggler slowdowns,
transient-failure retries with backoff and worker crashes.  Two engines
subclass it and decide only which task a free slot serves next:
:class:`JobExecution` here, and :class:`~repro.dag.execution.DagExecution`
for stage DAGs.

:class:`JobExecution` runs a linear job as a sequence of *phases*: the setup
(overhead) stage, then for each map/reduce stage pair the map tasks, the
shuffle, and the reduce tasks.  Task phases run their tasks on the ``C``
slots, which naturally produces the wave behaviour the paper's Section 4.2
models (``⌈tasks/slots⌉`` waves when task times are similar).

Between two interrupts a linear attempt's timeline is a fixed list schedule,
so by default it is computed in closed form rather than one kernel event per
task: a local min-heap of slot free times replays the tasks in dispatch order
with the kernel's own ``now + duration / speed`` arithmetic, and a single
kernel event fires at the attempt's end (§4.2's ``⌈tasks/slots⌉`` waves are
the analytic form of the same schedule).  Runs with a fault injector or with
span tracing take the per-task path, which needs per-task identities (slots,
retries, speculative copies, task spans).  Both paths produce the same
completion times bit for bit.  :class:`~repro.dag.execution.DagExecution`
has a closed form of its own, which replays the stage frontier in the
kernel's completion order; the per-task path here serves only its runs with
faults, telemetry or a decision hook.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heapify, heappop, heapreplace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.engine.cluster import Cluster
from repro.engine.job import Job, effective_task_count, list_schedule
from repro.simulation.des import Event, Simulator
from repro.telemetry.hub import NULL_HUB, TelemetryHub


@dataclass
class ExecutionPhase:
    """One phase of a job's execution timeline."""

    name: str
    stage_index: int
    durations: List[float]
    parallel: bool = True

    def __post_init__(self) -> None:
        if any(d < 0 for d in self.durations):
            raise ValueError("phase durations must be non-negative")

    @property
    def total_work(self) -> float:
        return float(sum(self.durations))


def kept_task_durations(
    durations: Sequence[float],
    stage: Any,
    kept_indices: Optional[Mapping[int, Sequence[int]]],
    drop_ratio: float,
) -> List[float]:
    """Durations of the tasks of ``stage`` that run under a drop plan.

    Explicit kept-task indices (from the dropper) take precedence; otherwise
    a droppable stage keeps its first ``⌈n(1 − θ)⌉`` tasks and a
    non-droppable one keeps them all.
    """
    if kept_indices is not None and stage.index in kept_indices:
        return [durations[i] for i in kept_indices[stage.index]]
    if not stage.droppable:
        return list(durations)
    return list(durations[: effective_task_count(len(durations), drop_ratio)])


def build_phases(
    job: Job,
    map_drop_ratio: float = 0.0,
    reduce_drop_ratio: float = 0.0,
    kept_map_indices: Optional[Dict[int, Sequence[int]]] = None,
    kept_reduce_indices: Optional[Dict[int, Sequence[int]]] = None,
) -> List[ExecutionPhase]:
    """Build the execution phases of ``job`` under the given drop plan.

    Each stage runs the tasks :func:`kept_task_durations` keeps.
    """
    phases: List[ExecutionPhase] = [
        ExecutionPhase(
            name="setup",
            stage_index=-1,
            durations=[job.setup_time(map_drop_ratio)],
            parallel=False,
        )
    ]
    for stage in job.stages:
        map_durations = kept_task_durations(
            stage.map_task_times, stage, kept_map_indices, map_drop_ratio
        )
        reduce_durations = kept_task_durations(
            stage.reduce_task_times, stage, kept_reduce_indices, reduce_drop_ratio
        )
        if map_durations:
            phases.append(
                ExecutionPhase("map", stage.index, map_durations, parallel=True)
            )
        if stage.shuffle_time > 0 and reduce_durations:
            phases.append(
                ExecutionPhase(
                    "shuffle", stage.index, [stage.shuffle_time], parallel=False
                )
            )
        if reduce_durations:
            phases.append(
                ExecutionPhase("reduce", stage.index, reduce_durations, parallel=True)
            )
    return phases


@dataclass
class _ActiveTask:
    """Book-keeping for one in-flight task attempt on one slot.

    ``started_at`` keeps the attempt's dispatch time across DVFS reschedules
    for span tracing, ``span_id`` is its pre-allocated trace span (0 when
    tracing is off) and ``stage_run`` the DAG stage it belongs to (``None``
    for linear jobs and for the DAG setup task).

    The remaining fields only carry information under fault injection:
    ``base`` is the task's nominal duration (before straggler slowdown; what
    a retry or a crash requeue runs again), ``attempt`` counts executions of
    this task on this slot, ``will_fail`` marks a transient failure drawn at
    dispatch time, ``spec_event`` is the pending speculation check of a
    straggling linear task, and ``copy_of`` / ``copy_slot`` link a
    speculative copy to its straggling primary.
    """

    slot: int
    event: Event
    speed: float
    stage_run: Any = None
    started_at: float = 0.0
    span_id: int = 0
    base: float = 0.0
    attempt: int = 1
    will_fail: bool = False
    spec_event: Optional[Event] = None
    copy_of: int = -1
    copy_slot: int = -1


class SlotExecution:
    """The per-task slot machinery both execution engines share.

    A subclass decides which task a free slot serves next
    (:meth:`_fill_slots`), what a finished task advances
    (:meth:`_task_finished`), where a task lost to a crash goes back
    (:meth:`_requeue`) and which span a task span hangs under
    (:meth:`_task_span_parent`).  It also defines the kernel callbacks
    ``_make_task_callback`` and ``_make_retry_callback`` itself, so event
    profilers attribute task events to the engine that ran them.

    ``faults`` is an optional :class:`~repro.faults.injector.FaultInjector`
    and requires ``on_give_up``, which is called with the execution when a
    task exhausts its transient-failure retries (the controller escalates to
    a job-level re-execution).
    """

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        job: Any,
        on_complete: Callable[[Any], None],
        telemetry: TelemetryHub,
        telemetry_src: str,
        trace_parent: int,
        faults,
        on_give_up: Optional[Callable[[Any], None]],
    ) -> None:
        if faults is not None and on_give_up is None:
            raise ValueError(
                "a fault injector needs an on_give_up hook for tasks that "
                "exhaust their retries"
            )
        self.sim = sim
        self.cluster = cluster
        self.job = job
        self.on_complete = on_complete
        self.telemetry = telemetry
        self.telemetry_src = telemetry_src
        #: Span id of the enclosing attempt span when tracing (0 otherwise).
        self.trace_parent = trace_parent
        self._faults = faults
        self._on_give_up = on_give_up

        self._active: Dict[int, _ActiveTask] = {}
        self._free_slots: List[int] = []
        #: slot -> (backoff Event, nominal duration, next attempt, stage run)
        #: for tasks waiting out a retry backoff.
        self._retries: Dict[int, tuple] = {}

        self.started = False
        self.completed = False
        self.evicted = False
        self.start_time: Optional[float] = None
        self.completion_time: Optional[float] = None

        self._speed = 1.0
        self._speed_since: Optional[float] = None
        self.sprinted_time = 0.0

    # --------------------------------------------------------------- queries
    @property
    def running(self) -> bool:
        return self.started and not self.completed and not self.evicted

    @property
    def elapsed(self) -> float:
        """Wall time of this attempt so far (or total, once completed)."""
        if self.start_time is None:
            return 0.0
        end = self.completion_time if self.completion_time is not None else self.sim.now
        return end - self.start_time

    @property
    def speed(self) -> float:
        return self._speed

    # ------------------------------------------------------ engine interface
    def _fill_slots(self) -> None:
        """Dispatch pending tasks onto the free slots."""
        raise NotImplementedError

    def _task_finished(self, active: _ActiveTask) -> None:
        """``active`` is done and its slot is free again: continue the job."""
        raise NotImplementedError

    def _requeue(self, stage_run: Any, base: float) -> None:
        """Put a task lost to a worker crash back into the pending work."""
        raise NotImplementedError

    def _task_span_parent(self, active: _ActiveTask) -> Tuple[int, int]:
        """(parent span id, stage index) of ``active``'s task span."""
        raise NotImplementedError

    def _on_straggler(self, active: _ActiveTask) -> None:
        """``active`` was drawn to straggle; only linear jobs speculate."""

    # ---------------------------------------------------------------- control
    def _begin(self, speed: Optional[float]) -> None:
        """Mark the attempt started now, at ``speed`` (default: the cluster's)."""
        if self.started:
            raise RuntimeError(f"{type(self).__name__} already started")
        self.started = True
        self.start_time = self.sim.now
        self._speed = float(speed) if speed is not None else self.cluster.speed
        self._speed_since = self.sim.now

    def _change_speed(self, speed: float) -> Optional[float]:
        """Switch to ``speed``; returns the old speed if in-flight work must be rescaled."""
        if speed <= 0:
            raise ValueError("speed must be positive")
        if not self.running:
            self._speed = float(speed)
            self._speed_since = self.sim.now
            return None
        self._accumulate_sprint(self.sim.now)
        old_speed = self._speed
        self._speed = float(speed)
        return None if old_speed == speed else old_speed

    def _rescale_tasks(self) -> None:
        """Reschedule every in-flight task to run its remaining work at the new speed."""
        now = self.sim.now
        speed = self._speed
        for slot, active in self._active.items():
            remaining_work = max(0.0, active.event.time - now) * active.speed
            active.event.cancel()
            # Mutate in place so fault bookkeeping (attempt, pending
            # speculation check, copy links) survives DVFS transitions.
            active.event = self.sim.schedule(
                remaining_work / speed, self._make_task_callback(slot), priority=1
            )
            active.speed = speed

    def _evict_tasks(self) -> float:
        """Cancel every in-flight task and backoff; returns the attempt's wasted wall time."""
        if not self.running:
            raise RuntimeError(
                f"cannot evict a {type(self).__name__} that is not running"
            )
        now = self.sim.now
        self._accumulate_sprint(now)
        for active in self._active.values():
            if active.span_id:
                self._emit_task_span(active, outcome="evicted")
            active.event.cancel()
            if active.spec_event is not None:
                active.spec_event.cancel()
        self._active.clear()
        for entry in self._retries.values():
            entry[0].cancel()
        self._retries.clear()
        self.evicted = True
        return now - self.start_time

    def _accumulate_sprint(self, now: float) -> None:
        if self._speed_since is not None and self._speed > 1.0:
            self.sprinted_time += now - self._speed_since
        self._speed_since = now

    def _finish(self) -> None:
        now = self.sim.now
        self._accumulate_sprint(now)
        self.completed = True
        self.completion_time = now
        self.on_complete(self)

    # ------------------------------------------------------- task life cycle
    def _start_task(
        self, slot: int, stage_run: Any, base: float, attempt: int = 1
    ) -> None:
        """Dispatch one attempt of a task of nominal duration ``base`` on ``slot``.

        Under fault injection the slowdown is drawn first, then the failure,
        so the fault streams advance the same whatever the scheduling order.
        """
        faults = self._faults
        slowdown = 1.0
        will_fail = False
        if faults is not None:
            slowdown = faults.draw_slowdown()
            will_fail = faults.draw_task_failure()
        speed = self._speed
        active = _ActiveTask(
            slot,
            self.sim.schedule(
                base * slowdown / speed, self._make_task_callback(slot), priority=1
            ),
            speed,
            stage_run,
            self.sim.now,
            self.telemetry.new_span_id() if self.telemetry.tracing else 0,
            base,
            attempt,
            will_fail,
        )
        self._active[slot] = active
        if slowdown > 1.0:
            if self.telemetry.enabled:
                self.telemetry.emit(
                    "fault.straggler",
                    self.sim.now,
                    src=self.telemetry_src,
                    job_id=self.job.job_id,
                    slot=slot,
                    slowdown=slowdown,
                )
            self._on_straggler(active)

    def _on_task_done(self, slot: int) -> None:
        if not self.running:
            return
        active = self._active.pop(slot, None)
        if active is None:
            return
        if active.spec_event is not None:
            active.spec_event.cancel()
            active.spec_event = None
        if active.will_fail:
            self._on_task_failed(active)
            return
        # First finisher of a primary/copy pair wins; the loser is cancelled
        # through the kernel's existing cancellation path.
        twin_slot = active.copy_of if active.copy_of >= 0 else active.copy_slot
        if twin_slot >= 0:
            loser = self._active.pop(twin_slot, None)
            if loser is not None:
                loser.event.cancel()
                if loser.spec_event is not None:
                    loser.spec_event.cancel()
                if loser.span_id:
                    self._emit_task_span(loser, outcome="cancelled")
                self._free_slots.append(loser.slot)
        if active.span_id:
            self._emit_task_span(active)
        self._free_slots.append(slot)
        self._task_finished(active)

    def _on_task_failed(self, active: _ActiveTask) -> None:
        """A transient failure drawn at dispatch surfaced at the task's end."""
        faults = self._faults
        slot = active.slot
        faults.note_task_failure()
        if self.telemetry.enabled:
            self.telemetry.emit(
                "fault.task_fail",
                self.sim.now,
                src=self.telemetry_src,
                job_id=self.job.job_id,
                slot=slot,
                attempt=active.attempt,
            )
        if active.span_id:
            self._emit_task_span(active, outcome="failed")
        if active.copy_slot >= 0 and active.copy_slot in self._active:
            # The failed primary had a live speculative copy: the copy takes
            # over ownership of the task, the primary just retires.
            self._active[active.copy_slot].copy_of = -1
            self._free_slots.append(slot)
            self._task_finished(active)
            return
        if active.attempt > faults.max_retries:
            self._on_give_up(self)
            return
        delay = faults.retry_delay(active.attempt)
        faults.note_retry()
        if self.telemetry.enabled:
            self.telemetry.emit(
                "fault.retry",
                self.sim.now,
                src=self.telemetry_src,
                job_id=self.job.job_id,
                slot=slot,
                attempt=active.attempt + 1,
                delay=delay,
            )
        self._emit_fault_span("retry", slot)
        # The slot sits out the backoff: neither free nor active (and a DAG
        # stage keeps counting the task in flight, so it cannot advance).
        event = self.sim.schedule(delay, self._make_retry_callback(slot), priority=1)
        self._retries[slot] = (event, active.base, active.attempt + 1, active.stage_run)

    def _retry_task(self, slot: int) -> None:
        """A retry backoff ran out: start the task's next attempt on ``slot``."""
        if not self.running:
            return
        entry = self._retries.pop(slot, None)
        if entry is None:
            return
        _event, base, attempt, stage_run = entry
        self._start_task(slot, stage_run, base, attempt)

    # ---------------------------------------------------------- worker faults
    def on_worker_crash(self, worker: int) -> None:
        """Re-queue in-flight work lost to a worker crash.

        Tasks running (or backing off) on the crashed worker's slots go back
        to the pending work at their nominal duration — the work done so far
        is lost — and the slots leave the free pool until the repair.  A
        straggler/copy pair degrades gracefully: the surviving side keeps
        running and takes ownership.
        """
        if not self.running:
            return
        self._emit_fault_span("crash", slot=-1)
        dead = self.cluster.worker_slots(worker)
        for slot in dead:
            active = self._active.pop(slot, None)
            if active is not None:
                active.event.cancel()
                if active.spec_event is not None:
                    active.spec_event.cancel()
                if active.span_id:
                    self._emit_task_span(active, outcome="crashed")
                if active.copy_of >= 0:
                    partner = self._active.get(active.copy_of)
                    if partner is not None:
                        partner.copy_slot = -1
                elif active.copy_slot >= 0 and active.copy_slot in self._active:
                    self._active[active.copy_slot].copy_of = -1
                else:
                    self._requeue(active.stage_run, active.base)
                continue
            entry = self._retries.pop(slot, None)
            if entry is not None:
                event, base, _attempt, stage_run = entry
                event.cancel()
                self._requeue(stage_run, base)
        self._free_slots = [s for s in self._free_slots if s not in dead]
        self._fill_slots()

    def on_worker_repair(self, worker: int) -> None:
        """Return a repaired worker's slots to the free pool and continue."""
        if not self.running:
            return
        for slot in self.cluster.worker_slots(worker):
            if (
                slot not in self._active
                and slot not in self._retries
                and slot not in self._free_slots
            ):
                self._free_slots.append(slot)
        self._fill_slots()

    # ------------------------------------------------------------------ spans
    def _emit_task_span(self, active: _ActiveTask, outcome: str = "completed") -> None:
        parent_id, stage = self._task_span_parent(active)
        self.telemetry.emit(
            "span",
            self.sim.now,
            src=self.telemetry_src,
            span_id=active.span_id,
            parent_id=parent_id,
            name="task",
            cat="task",
            start=active.started_at,
            job_id=self.job.job_id,
            slot=active.slot,
            stage=stage,
            outcome=outcome,
        )

    def _emit_fault_span(self, name: str, slot: int) -> None:
        """Instant fault annotation attached to the attempt span (when tracing)."""
        if not self.telemetry.tracing:
            return
        now = self.sim.now
        self.telemetry.emit(
            "span",
            now,
            src=self.telemetry_src,
            span_id=self.telemetry.new_span_id(),
            parent_id=self.trace_parent,
            name=name,
            cat="fault",
            start=now,
            job_id=self.job.job_id,
            slot=slot,
        )


class JobExecution(SlotExecution):
    """Executes one linear job's phases on the cluster within the simulator."""

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        job: Job,
        phases: Sequence[ExecutionPhase],
        on_complete: Callable[["JobExecution"], None],
        telemetry: TelemetryHub = NULL_HUB,
        telemetry_src: str = "",
        trace_parent: int = 0,
        faults=None,
        on_give_up: Optional[Callable[["JobExecution"], None]] = None,
    ) -> None:
        if not phases:
            raise ValueError("a job execution needs at least one phase")
        super().__init__(
            sim,
            cluster,
            job,
            on_complete,
            telemetry,
            telemetry_src,
            trace_parent,
            faults,
            on_give_up,
        )
        self.phases = list(phases)
        #: (span id, start) of the open wave span when tracing; wave spans
        #: attach to the attempt span, task spans to their wave span.
        self._phase_span: Optional[tuple] = None
        self._phase_index = -1
        self._pending: List[float] = []

        #: Closed-form timeline (no faults, no tracing): the in-flight state
        #: at the last interrupt as (phase index, min-heap of the running
        #: tasks' finish times, index of the phase's next pending task), the
        #: single pending end-of-attempt event, and the kernel's executed-event
        #: count when the attempt started (identifies the dispatching event).
        self._closed_form = faults is None and not telemetry.tracing
        self._segment: Tuple[int, List[float], int] = (0, [], 0)
        self._end_event: Optional[Event] = None
        self._start_stamp = -1

    @property
    def current_phase(self) -> Optional[ExecutionPhase]:
        index = self._phase_index
        if self._closed_form and self.running:
            index = self._state_at(self.sim.now, self._speed, True)[0]
        if 0 <= index < len(self.phases):
            return self.phases[index]
        return None

    # ---------------------------------------------------------------- control
    def start(self, speed: Optional[float] = None) -> None:
        """Begin executing the job at the current simulation time."""
        self._begin(speed)
        if not self._closed_form:
            self._advance_phase()
            return
        self._start_stamp = self.sim.processed_events
        self._segment = self._open_phase(0, self.sim.now, self._speed)
        if self._segment[1]:
            self._schedule_end()
        else:
            self._finish()

    def set_speed(self, speed: float) -> None:
        """Apply a cluster-wide speed change (DVFS) to all in-flight tasks."""
        old_speed = self._change_speed(speed)
        if old_speed is None:
            return
        if not self._closed_form:
            self._rescale_tasks()
            return
        now = self.sim.now
        # Interrupts fire at priority 2, after every task completion of
        # their instant (priority 1), so tasks finishing at ``now`` are
        # done -- except inside the dispatching event itself (a sprint at
        # dispatch), where no completion has fired yet.
        in_dispatch = self.sim.processed_events == self._start_stamp
        index, heap, next_task = self._state_at(now, old_speed, not in_dispatch)
        # The per-task path's rescaling, term for term; the map is
        # monotone, so the heap stays a heap.
        speed = self._speed
        heap = [now + max(0.0, f - now) * old_speed / speed for f in heap]
        self._segment = (index, heap, next_task)
        self._end_event.cancel()
        self._schedule_end()

    def evict(self) -> float:
        """Cancel all in-flight work; returns the wasted wall time of the attempt."""
        wasted = self._evict_tasks()
        if self._end_event is not None:
            self._end_event.cancel()
            self._end_event = None
        if self._phase_span is not None:
            self._close_phase_span(outcome="evicted")
        self._pending.clear()
        return wasted

    # ------------------------------------------------------ closed-form path
    def _open_phase(
        self, index: int, at: float, speed: float
    ) -> Tuple[int, List[float], int]:
        """Dispatch the first non-empty phase from ``index`` on at time ``at``.

        Returns the phase's in-flight state; an empty heap means the attempt
        has no phase left.  A parallel phase fills up to ``C`` slots, a
        non-parallel one (setup, shuffle) runs its tasks one at a time.
        """
        phases = self.phases
        while index < len(phases):
            phase = phases[index]
            durations = phase.durations
            if durations:
                width = min(self.cluster.slots, len(durations)) if phase.parallel else 1
                heap = [at + d / speed for d in durations[:width]]
                heapify(heap)
                return index, heap, width
            index += 1
        return index, [], 0

    def _schedule_end(self) -> None:
        """Run the current segment forward and schedule the attempt's end."""
        index, heap, next_task = self._segment
        heap = list(heap)
        speed = self._speed
        end = self.sim.now
        while heap:
            end = max(list_schedule(heap, self.phases[index].durations[next_task:], speed))
            index, heap, next_task = self._open_phase(index + 1, end, speed)
        self._end_event = self.sim.schedule_at(end, self._on_end, priority=1)

    def _state_at(
        self, now: float, speed: float, inclusive: bool
    ) -> Tuple[int, List[float], int]:
        """Replay the current segment at ``speed`` up to ``now``.

        Tasks finishing before ``now`` -- or at ``now`` when ``inclusive`` --
        complete and hand their slot to the phase's next pending task; a
        drained phase opens the next one at its last finish time.  Returns
        the in-flight state at ``now`` (the segment itself is not changed).
        """
        index, heap, next_task = self._segment
        heap = list(heap)
        limit = now if inclusive else math.nextafter(now, -math.inf)
        durations = self.phases[index].durations
        while heap and heap[0] <= limit:
            if next_task < len(durations):
                heapreplace(heap, heap[0] + durations[next_task] / speed)
                next_task += 1
                continue
            last = heappop(heap)
            if not heap:
                index, heap, next_task = self._open_phase(index + 1, last, speed)
                if heap:
                    durations = self.phases[index].durations
        return index, heap, next_task

    def _on_end(self, _sim: Simulator) -> None:
        self._end_event = None
        self._finish()

    # --------------------------------------------------------- per-task path
    def _make_task_callback(self, slot: int) -> Callable[[Simulator], None]:
        def _callback(_sim: Simulator) -> None:
            self._on_task_done(slot)

        return _callback

    def _make_retry_callback(self, slot: int) -> Callable[[Simulator], None]:
        def _callback(_sim: Simulator) -> None:
            self._retry_task(slot)

        return _callback

    def _advance_phase(self) -> None:
        if self._phase_span is not None:
            self._close_phase_span()
        self._phase_index += 1
        if self._phase_index >= len(self.phases):
            self._finish()
            return
        phase = self.phases[self._phase_index]
        if not phase.durations:
            self._advance_phase()
            return
        if self.telemetry.tracing:
            self._phase_span = (self.telemetry.new_span_id(), self.sim.now)
        self._pending = list(phase.durations)
        self._free_slots = self.cluster.free_slot_ids()
        slots_to_fill = len(self._free_slots) if phase.parallel else 1
        for _ in range(min(slots_to_fill, len(self._pending))):
            self._dispatch_next_task()

    def _dispatch_next_task(self) -> None:
        if not self._pending or not self._free_slots:
            return
        slot = self._free_slots.pop()
        self._start_task(slot, None, self._pending.pop(0))

    def _task_finished(self, active: _ActiveTask) -> None:
        """Hand the freed slot to the phase's next task, or open the next phase."""
        busy = self._active or self._retries
        if self._pending and (self.phases[self._phase_index].parallel or not busy):
            self._dispatch_next_task()
        elif not self._pending and not busy:
            self._advance_phase()

    def _fill_slots(self) -> None:
        parallel = self.phases[self._phase_index].parallel
        while self._pending and self._free_slots:
            if not parallel and (self._active or self._retries):
                return
            self._dispatch_next_task()
        if not self._pending and not self._active and not self._retries:
            self._advance_phase()

    def _requeue(self, stage_run: Any, base: float) -> None:
        self._pending.append(base)

    def _task_span_parent(self, active: _ActiveTask) -> Tuple[int, int]:
        parent_id = self._phase_span[0] if self._phase_span else self.trace_parent
        return parent_id, self.phases[self._phase_index].stage_index

    def _close_phase_span(self, outcome: str = "completed") -> None:
        span_id, started = self._phase_span  # type: ignore[misc]
        self._phase_span = None
        phase = self.phases[self._phase_index]
        self.telemetry.emit(
            "span",
            self.sim.now,
            src=self.telemetry_src,
            span_id=span_id,
            parent_id=self.trace_parent,
            name=phase.name,
            cat="wave",
            start=started,
            job_id=self.job.job_id,
            stage=phase.stage_index,
            tasks=len(phase.durations),
            outcome=outcome,
        )

    # ----------------------------------------------------- speculative copies
    def _on_straggler(self, active: _ActiveTask) -> None:
        factor = self._faults.speculation_factor
        if factor > 0.0:
            # The speculation check fires once the task has overrun
            # ``factor`` times its nominal duration; the check deadline is
            # fixed at dispatch speed (DVFS changes don't move it).
            active.spec_event = self.sim.schedule(
                active.base * factor / self._speed,
                self._make_speculation_callback(active.slot),
                priority=3,
            )

    def _make_speculation_callback(self, slot: int) -> Callable[[Simulator], None]:
        def _callback(_sim: Simulator) -> None:
            self._maybe_speculate(slot)

        return _callback

    def _maybe_speculate(self, slot: int) -> None:
        """Launch a backup copy of a still-straggling task if a slot is free."""
        if not self.running:
            return
        active = self._active.get(slot)
        if active is None:
            return
        active.spec_event = None
        if active.copy_slot >= 0 or active.copy_of >= 0 or not self._free_slots:
            return
        copy_slot = self._free_slots.pop()
        now = self.sim.now
        event = self.sim.schedule(
            active.base / self._speed, self._make_task_callback(copy_slot), priority=1
        )
        self._active[copy_slot] = _ActiveTask(
            slot=copy_slot,
            event=event,
            speed=self._speed,
            started_at=now,
            span_id=self.telemetry.new_span_id() if self.telemetry.tracing else 0,
            base=active.base,
            attempt=active.attempt,
            copy_of=slot,
        )
        active.copy_slot = copy_slot
        self._faults.note_speculation()
        if self.telemetry.enabled:
            self.telemetry.emit(
                "fault.speculate",
                now,
                src=self.telemetry_src,
                job_id=self.job.job_id,
                slot=slot,
                copy_slot=copy_slot,
            )
        self._emit_fault_span("speculate", slot=slot)
