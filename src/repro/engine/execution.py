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

Between two interrupts an attempt's timeline is a fixed list schedule, so by
default both job shapes compute it in closed form, in one loop
(:meth:`SlotExecution._run_closed_form`) over :class:`StageRun` objects; a
linear job is a single run whose phases are its whole timeline.  Competing
stages replay the kernel's ``(time, seq)`` completion order; a stage alone
on the frontier runs as a list schedule on a min-heap of slot free times
(§4.2's ``⌈tasks/slots⌉`` waves are the analytic form of that schedule).
One kernel event fires at the attempt's end.  Runs with a fault injector or
span tracing (and DAG runs with telemetry or a decision hook) take the
per-task path, which needs per-task identities (slots, retries, speculative
copies, task spans).  Both paths give the same completion times bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace
from itertools import chain
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.engine.cluster import Cluster
from repro.engine.job import Job, effective_task_count
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


def stage_phases(
    stage: Any, maps: List[float], reduces: List[float]
) -> List[Tuple[str, List[float], bool]]:
    """A stage's ``(name, durations, parallel)`` phases: maps, shuffle, reduces.

    The (serial) shuffle runs only when the stage runs reduce tasks.
    """
    phases = [("map", maps, True)]
    if stage.shuffle_time > 0 and reduces:
        phases.append(("shuffle", [stage.shuffle_time], False))
    phases.append(("reduce", reduces, True))
    return phases


def build_phases(
    job: Job,
    map_drop_ratio: float = 0.0,
    reduce_drop_ratio: float = 0.0,
    kept_map_indices: Optional[Dict[int, Sequence[int]]] = None,
    kept_reduce_indices: Optional[Dict[int, Sequence[int]]] = None,
) -> List[ExecutionPhase]:
    """Build the execution phases of ``job`` under the given drop plan.

    The setup comes first; each stage then runs the tasks
    :func:`kept_task_durations` keeps, in its non-empty :func:`stage_phases`.
    """
    phases = [ExecutionPhase("setup", -1, [job.setup_time(map_drop_ratio)], parallel=False)]
    for stage in job.stages:
        maps = kept_task_durations(stage.map_task_times, stage, kept_map_indices, map_drop_ratio)
        reduces = kept_task_durations(
            stage.reduce_task_times, stage, kept_reduce_indices, reduce_drop_ratio
        )
        for name, durations, parallel in stage_phases(stage, maps, reduces):
            if durations:
                phases.append(ExecutionPhase(name, stage.index, durations, parallel))
    return phases


class StageRun:
    """Runtime state of one stage: phase pointer, pending tasks, bookkeeping.

    A stage runs its phases in order, each a ``(durations, parallel)`` pair:
    a parallel phase spreads its tasks over the free slots, a non-parallel
    one (setup, shuffle) runs them one at a time.  A DAG stage's phases are
    its map tasks, shuffle and reduce tasks; a linear job in closed form is
    a single run whose phases are its whole :func:`build_phases` timeline.
    The phase lists are not copied at construction and never changed.

    Satisfies the :class:`~repro.dag.schedulers.StageRunView` protocol the
    stage schedulers observe.
    """

    def __init__(self, phases: List[Tuple[List[float], bool]], stage: Any = None) -> None:
        #: The DAG stage this run executes (``None`` for a linear job).
        self.stage = stage
        #: Stage index within the job's DAG (0 for a linear job).
        self.index = 0 if stage is None else stage.index
        self._phases = phases
        self.rank = 0.0
        #: Position in the job's topological order: the order in which the
        #: dispatchable stages are presented to the scheduler or hook.
        self.position = 0
        # Trace span of this stage (0 / unset while tracing is off); opened
        # at activation, emitted when the stage finishes or is evicted.
        self.span_id = 0
        self.activated_at = 0.0
        self.reset()

    # ----------------------------------------------------- scheduler queries
    @property
    def ready(self) -> bool:
        return self.ready_seq >= 0 and not self.done

    @property
    def pending_tasks(self) -> int:
        return len(self.pending)

    def remaining_work(self) -> float:
        """Undispatched task work left in this stage (seconds).

        Summed from the stage's state when unknown, then kept task by task.
        """
        if self._undispatched is None:
            later = self._phases[self._phase_index + 1 :]
            self._undispatched = sum(chain(self.pending, *(d for d, _ in later)))
        return self._undispatched

    @property
    def dispatchable(self) -> bool:
        """Whether a free slot could serve a task of this stage right now."""
        if not self.ready or not self.pending:
            return False
        return self._parallel or self.active == 0

    # ------------------------------------------------------------ life cycle
    def activate(self, ready_seq: int) -> None:
        """All parents finished: enter the first non-empty phase."""
        self.ready_seq = ready_seq
        self.pending = list(self._next_phase())

    def pop_task(self) -> float:
        remaining = self.remaining_work()
        duration = self.pending.pop(0)
        self._undispatched = remaining - duration
        self.active += 1
        return duration

    def requeue(self, duration: float) -> None:
        """An in-flight task was lost: it is pending again."""
        self._undispatched = self.remaining_work() + duration
        self.active -= 1
        self.pending.append(duration)

    def task_finished(self) -> bool:
        """One task completed; returns ``True`` when the whole stage is done."""
        self.active -= 1
        if self.pending or self.active > 0:
            return False
        self.pending = list(self._next_phase())
        return self.done

    def reset(self) -> None:
        """Return to the state before activation, undispatched work unknown."""
        self.restore(
            (-1, (), True, 0, -1, 0 if self.stage is None else len(self.stage.parents), False, None)
        )

    def snapshot(self) -> tuple:
        """The state a task dispatch or completion can change (see :meth:`restore`)."""
        return (
            self._phase_index,
            list(self.pending),
            self._parallel,
            self.active,
            self.ready_seq,
            self.unfinished_parents,
            self.done,
            self._undispatched,
        )

    def restore(self, state: tuple) -> None:
        """Return to a state taken by :meth:`snapshot`."""
        (
            self._phase_index,
            pending,
            self._parallel,
            self.active,
            self.ready_seq,
            self.unfinished_parents,
            self.done,
            self._undispatched,
        ) = state
        self.pending = list(pending)

    def _next_phase(self) -> List[float]:
        """Enter the next non-empty phase; its durations (none left: done, ``[]``)."""
        phases = self._phases
        index = self._phase_index + 1
        while index < len(phases):
            durations, parallel = phases[index]
            if durations:
                self._phase_index = index
                self._parallel = parallel
                return durations
            index += 1
        self._phase_index = index
        self.done = True
        return []


def _dispatchable(frontier: List[StageRun]) -> List[StageRun]:
    """The frontier's stages a free slot could serve now, in frontier order.

    :attr:`StageRun.dispatchable` for the stages the frontier holds (all of
    them ready and unfinished), written out because it runs once per
    dispatched task.
    """
    return [run for run in frontier if run.pending and (run._parallel or not run.active)]


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
    ``_make_task_callback``, ``_make_retry_callback`` and ``_on_end`` (the
    closed form's end of attempt) itself, so event profilers attribute task
    events to the engine that ran them.

    ``faults`` is an optional :class:`~repro.faults.injector.FaultInjector`
    and requires ``on_give_up``, which is called with the execution when a
    task exhausts its transient-failure retries (the controller escalates to
    a job-level re-execution).

    For closed-form attempts (``_closed_form``) a subclass fills ``_runs``
    with :class:`StageRun` objects and defines what the attempt's setup
    releases (``_activate_sources``) and what a finished run releases
    (``_stage_finished``); :meth:`_run_closed_form` does the rest.
    """

    #: Duration of a setup task that holds no slot and precedes the source
    #: stages (DAG jobs; a linear job's setup is its run's first phase).
    _setup_time = 0.0

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

        #: Closed-form timeline: the stage runs, the ready, unfinished ones
        #: in topological order (the *frontier*) and the count of runs made
        #: ready so far, the state saved at the last interrupt (see
        #: :meth:`_save`; empty before the first), the single pending
        #: end-of-attempt event, and the kernel's executed-event count when
        #: the attempt started (identifies the dispatching event).
        self._closed_form = False
        self._runs: Dict[int, StageRun] = {}
        self._frontier: List[StageRun] = []
        self._ready_counter = 0
        self._saved: tuple = ()
        self._end_event: Optional[Event] = None
        self._start_stamp = -1

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

    def _change_speed(self, speed: float) -> None:
        """Switch to ``speed`` and rescale the in-flight work (a DVFS change)."""
        if speed <= 0:
            raise ValueError("speed must be positive")
        if not self.running:
            self._speed = float(speed)
            self._speed_since = self.sim.now
            return
        self._accumulate_sprint(self.sim.now)
        old_speed = self._speed
        self._speed = float(speed)
        if old_speed == speed:
            return
        if self._closed_form:
            self._replay_to_now(old_speed)
        else:
            self._rescale_tasks()

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
        if self._end_event is not None:
            self._end_event.cancel()
            self._end_event = None
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

    # ------------------------------------------------------ closed-form path
    def _start_closed_form(self) -> None:
        self._start_stamp = self.sim.processed_events
        state = self._attempt_start(self._speed)
        if state[1] or self._frontier:
            self._schedule_end(*state)
        else:
            self._finish()

    def _attempt_start(self, speed: float) -> Tuple[float, List[tuple], int, int]:
        """Enter the attempt's start, begun at ``speed``, from fresh runs.

        The setup task, if any, is in flight (holding no slot, like the
        per-task path's, with sequence number 0), else the sources are ready.
        With no fault injector no worker is down: every slot is free.
        """
        at = self.start_time
        heap: List[tuple] = []
        if self._setup_time > 0:
            heap.append((at + self._setup_time / speed, 0, None))
        else:
            self._activate_sources()
        return at, heap, len(heap), self.cluster.available_slots

    def _replay_to_now(self, old_speed: float) -> None:
        """Replay from the last interrupt to now at ``old_speed``, rescale, rerun."""
        now = self.sim.now
        # Interrupts fire at priority 2, after every task completion of
        # their instant (priority 1), so tasks finishing at ``now`` are
        # done -- except inside the dispatching event itself (a sprint at
        # dispatch), where no completion has fired yet.
        limit = now
        if self.sim.processed_events == self._start_stamp:
            limit = math.nextafter(now, -math.inf)
        _, heap, seq, free = self._run_closed_form(*self._restore(old_speed), old_speed, limit)
        # The per-task path's rescaling, term for term.  Rounding can tie
        # two finish times whose order the sequence numbers then decide,
        # so the heap is rebuilt.
        speed = self._speed
        heap = [(now + max(0.0, f - now) * old_speed / speed, s, run) for f, s, run in heap]
        heapify(heap)
        self._end_event.cancel()
        self._save(now, heap, seq, free)
        self._schedule_end(now, heap, seq, free)

    def _save(self, at: float, heap: List[tuple], seq: int, free: int) -> None:
        """Save the in-flight state at an interrupt at time ``at``.

        That is the heap of ``(finish time, seq, stage run)`` entries (``None``
        for the setup task), the next sequence number, the free-slot count,
        the frontier bookkeeping and every stage's state.
        """
        self._saved = (
            at,
            list(heap),
            seq,
            free,
            self._ready_counter,
            list(self._frontier),
            [run.snapshot() for run in self._runs.values()],
        )

    def _restore(self, speed: float) -> Tuple[float, List[tuple], int, int]:
        """Return to the state saved at the last interrupt.

        Before the first interrupt nothing is saved: the runs are reset and
        the attempt's start, begun at ``speed``, is entered again.  Returns
        the state's time, heap, next sequence number and free-slot count.
        """
        if not self._saved:
            for run in self._runs.values():
                run.reset()
            self._ready_counter = 0
            self._frontier = []
            return self._attempt_start(speed)
        at, heap, seq, free, counter, frontier, states = self._saved
        self._ready_counter = counter
        self._frontier = list(frontier)
        for run, state in zip(self._runs.values(), states):
            run.restore(state)
        return at, list(heap), seq, free

    def _schedule_end(self, at: float, heap: List[tuple], seq: int, free: int) -> None:
        """Run the attempt to its end from the current state and schedule that end."""
        end = self._run_closed_form(at, heap, seq, free, self._speed, math.inf)[0]
        self._end_event = self.sim.schedule_at(end, self._on_end, priority=1)

    def _run_closed_form(
        self, at: float, heap: List[tuple], seq: int, free: int, speed: float, limit: float
    ) -> Tuple[float, List[tuple], int, int]:
        """Advance the state at time ``at`` through the completions due by ``limit``.

        While stages compete, free slots are filled as the per-task path
        fills them (without a hook), then completions are taken in the
        kernel's ``(time, seq)`` order; each advances its stage (activating
        children) before the freed slot is refilled at the completion time,
        as in the per-task path's callbacks.  A stage alone on the frontier
        and holding every busy slot runs in :meth:`_run_alone` instead.
        Returns the state: its time (the attempt's end once every stage is
        done), the heap, the next sequence number and the free-slot count.
        """
        frontier = self._frontier
        while True:
            if len(frontier) == 1 and frontier[0].active == len(heap):
                run = frontier[0]
                at, heap, seq, free = self._run_alone(run, at, heap, seq, free, speed, limit)
                if not run.done or not frontier:
                    return at, heap, seq, free
                continue
            while free:
                eligible = _dispatchable(frontier)
                if not eligible:
                    break
                run = eligible[0] if len(eligible) == 1 else self.scheduler.select(eligible)
                heappush(heap, (at + run.pop_task() / speed, seq, run))
                seq += 1
                free -= 1
            if not heap or heap[0][0] > limit:
                return at, heap, seq, free
            at, _, run = heappop(heap)
            if run is None:
                self._activate_sources()
            else:
                free += 1
                if run.task_finished():
                    self._stage_finished(run)
            if not frontier:
                return at, heap, seq, free

    def _run_alone(
        self,
        run: StageRun,
        at: float,
        heap: List[tuple],
        seq: int,
        free: int,
        speed: float,
        limit: float,
    ) -> Tuple[float, List[tuple], int, int]:
        """Run a stage that is alone on the frontier as a list schedule.

        Nothing else holds a slot and nothing else can become ready until
        ``run`` finishes, so each completion hands its slot to the phase's
        next task and a drained phase opens the next one at its last finish
        time: a float min-heap of slot free times replaces the
        ``(time, seq)`` loop (``heapify`` per wave, ``heapreplace`` per task,
        ``max`` at the drain).  Returns the state as :meth:`_run_closed_form`
        does, either stopped before a completion due after ``limit`` or with
        the stage finished and its children released.
        """
        times = [entry[0] for entry in heap]
        slots = free + len(times)  # Every busy slot is this stage's.
        pending = run.pending
        # The stretch does not keep the undispatched-work sum, so a reader
        # would sum it afresh.  No scheduler reads it: nothing else becomes
        # ready before a lone stage finishes, so it never competes again.
        run._undispatched = None
        while True:
            # Free slots take the phase's first tasks now, as in the
            # per-task path; a non-parallel phase runs one task at a time.
            if run._parallel:
                width = min(slots - len(times), len(pending))
            else:
                width = 0 if times else 1
            if width:
                times += [at + d / speed for d in pending[:width]]
                heapify(times)
            # Each completion due by ``limit`` hands its slot to the phase's
            # next task.
            dispatched = width
            for duration in pending[width:]:
                if times[0] > limit:
                    break
                heapreplace(times, times[0] + duration / speed)
                dispatched += 1
            seq += dispatched
            end = max(times)
            if dispatched < len(pending) or end > limit:
                break
            # The phase drained at its last finish time: open the next one.
            at = end
            times = []
            pending = run._next_phase()
            if run.done:
                run.pending = pending
                run.active = 0
                self._stage_finished(run)
                return at, [], seq, slots
        # A completion is due after ``limit``: the ones due by then are done.
        while times[0] <= limit:
            heappop(times)
        run.pending = pending[dispatched:]
        run.active = len(times)
        # Only ties between this stage's own tasks hang on these numbers.
        first = seq - len(times)
        return at, [(t, first + i, run) for i, t in enumerate(times)], seq, slots - len(times)

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
    """Executes one linear job's phases on the cluster within the simulator.

    Without a fault injector or span tracing the attempt runs in closed form
    as a single :class:`StageRun` whose phases are ``phases``, setup first:
    a chain of one stage, alone on the frontier from start to end.
    """

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

        self._closed_form = faults is None and not telemetry.tracing
        if self._closed_form:
            self._runs[0] = StageRun([(p.durations, p.parallel) for p in self.phases])

    # ---------------------------------------------------------------- control
    def start(self, speed: Optional[float] = None) -> None:
        """Begin executing the job at the current simulation time."""
        self._begin(speed)
        if self._closed_form:
            self._start_closed_form()
        else:
            self._advance_phase()

    def set_speed(self, speed: float) -> None:
        """Apply a cluster-wide speed change (DVFS) to all in-flight tasks."""
        self._change_speed(speed)

    def evict(self) -> float:
        """Cancel all in-flight work; returns the wasted wall time of the attempt."""
        wasted = self._evict_tasks()
        if self._phase_span is not None:
            self._close_phase_span(outcome="evicted")
        self._pending.clear()
        return wasted

    def _on_end(self, _sim: Simulator) -> None:
        self._end_event = None
        self._finish()

    # ------------------------------------------------------ closed-form path
    def _activate_sources(self) -> None:
        run = self._runs[0]
        run.activate(0)
        if not run.done:
            self._frontier.append(run)

    def _stage_finished(self, run: StageRun) -> None:
        self._frontier.remove(run)

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
