"""Execution of one DAG job on the cluster inside the simulator.

:class:`DagExecution` subclasses :class:`~repro.engine.execution.SlotExecution`,
the slot machine the linear :class:`~repro.engine.execution.JobExecution`
runs on too, so task dispatch, the DVFS rescale of
:meth:`DagExecution.set_speed`, eviction, retries and crash recovery are the
same code for both job shapes.  What it adds is the DAG's
*frontier* — stages whose parents have all completed — where every ready
stage competes for the cluster's ``C`` computing slots.  Each time a slot
frees up, the pluggable :class:`~repro.dag.schedulers.StageScheduler` (or an
external decision hook) picks which ready stage the slot serves next, one
task at a time.  Within a stage the usual Spark discipline holds: all map
tasks, then the (serial) shuffle, then all reduce tasks.  The execution also
carries the PERT analysis of the kept tasks (critical path, lower-bound
makespan) and emits ``stage`` spans when tracing.

Like a linear attempt, a DAG attempt between two interrupts is a fixed
schedule, so runs without faults, telemetry or a decision hook compute it in
a local heap loop and take one kernel event per attempt instead of one per
task (see :class:`DagExecution`).
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.dag.analytics import (
    CriticalPathAnalysis,
    analyze_critical_path,
    stage_duration,
    upward_ranks,
)
from repro.dag.graph import DagJob, DagStage
from repro.dag.schedulers import StageScheduler, make_stage_scheduler
from repro.engine.cluster import Cluster
from repro.engine.execution import SlotExecution, _ActiveTask, kept_task_durations
from repro.simulation.decisions import STAGE, DecisionHook, DecisionPoint
from repro.simulation.des import Event, Simulator
from repro.telemetry.hub import NULL_HUB, TelemetryHub

#: Sentinel slot key for the job-level setup task.
_SETUP_SLOT = -1


class StageRun:
    """Runtime state of one stage: phase pointer, pending tasks, bookkeeping.

    Satisfies the :class:`~repro.dag.schedulers.StageRunView` protocol the
    stage schedulers observe.
    """

    def __init__(
        self,
        stage: DagStage,
        map_durations: Sequence[float],
        reduce_durations: Sequence[float],
    ) -> None:
        self.stage = stage
        #: Stage index within the job's DAG.
        self.index = stage.index
        # (durations, parallel) per phase; empty phases are skipped on entry.
        self._phases: List[tuple] = [(list(map_durations), True)]
        if stage.shuffle_time > 0 and reduce_durations:
            self._phases.append(([stage.shuffle_time], False))
        self._phases.append((list(reduce_durations), True))
        self._phase_index = -1
        self.pending: List[float] = []
        self._parallel = True
        self.active = 0
        self.ready_seq = -1
        self.unfinished_parents = len(stage.parents)
        self.done = False
        self.rank = 0.0
        #: Position in the job's topological order: the order in which the
        #: dispatchable stages are presented to the scheduler or hook.
        self.position = 0
        self._undispatched = sum(d for durations, _ in self._phases for d in durations)
        # Trace span of this stage (0 / unset while tracing is off); opened
        # at activation, emitted when the stage finishes or is evicted.
        self.span_id = 0
        self.activated_at = 0.0

    # ----------------------------------------------------- scheduler queries
    @property
    def ready(self) -> bool:
        return self.ready_seq >= 0 and not self.done

    @property
    def pending_tasks(self) -> int:
        return len(self.pending)

    def remaining_work(self) -> float:
        """Undispatched task work left in this stage (seconds)."""
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
        self._advance_to_nonempty_phase()

    def pop_task(self) -> float:
        duration = self.pending.pop(0)
        self._undispatched -= duration
        self.active += 1
        return duration

    def requeue(self, duration: float) -> None:
        """An in-flight task was lost: it is pending again."""
        self.active -= 1
        self.pending.append(duration)
        self._undispatched += duration

    def task_finished(self) -> bool:
        """One task completed; returns ``True`` when the whole stage is done."""
        self.active -= 1
        if self.pending or self.active > 0:
            return False
        self._advance_to_nonempty_phase()
        return self.done

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

    def _advance_to_nonempty_phase(self) -> None:
        while True:
            self._phase_index += 1
            if self._phase_index >= len(self._phases):
                self.done = True
                self.pending = []
                return
            durations, parallel = self._phases[self._phase_index]
            if durations:
                self.pending = list(durations)
                self._parallel = parallel
                return


def _dispatchable(frontier: List[StageRun]) -> List[StageRun]:
    """The frontier's stages a free slot could serve now, in frontier order.

    :attr:`StageRun.dispatchable` for the stages the frontier holds (all of
    them ready and unfinished), written out because it runs once per
    dispatched task.
    """
    return [run for run in frontier if run.pending and (run._parallel or not run.active)]


class DagExecution(SlotExecution):
    """Executes one DAG job's stages on the cluster within the simulator.

    Ready, unfinished stages form the *frontier*, kept in the job's
    topological order; each free slot scans it for the stages it could serve
    and asks the scheduler (or the decision hook) to pick one.  The scheduler
    is skipped when only one stage is dispatchable; the hook is always asked.

    Without a fault injector, telemetry or a decision hook an attempt runs in
    closed form: a local ``(time, seq)`` min-heap loop advances the same
    :class:`StageRun` objects through the same ``scheduler.select`` calls in
    the kernel's completion order, with the kernel's ``now + d / speed``
    arithmetic, and a single kernel event fires at the attempt's end.
    :meth:`set_speed` returns to the state saved at the previous interrupt,
    replays it to ``now`` at the old speed, rescales the in-flight tasks as
    the per-task path does and runs the rest of the attempt again.  Replays
    call ``select`` again, so the closed form needs a scheduler whose
    choice depends only on the candidates (the built-in ones are).  Every
    other run takes one kernel event per task.

    Parameters
    ----------
    scheduler:
        A :class:`StageScheduler` instance or name; consulted once per free
        slot whenever more than one ready stage has pending tasks.
    map_drop_ratio / reduce_drop_ratio:
        Uniform per-stage drop ratios (droppable stages only), mirroring
        :func:`~repro.engine.execution.build_phases`.
    kept_map_indices / kept_reduce_indices:
        Explicit kept-task indices from a dropper plan; take precedence over
        any ratio.
    faults:
        Optional :class:`~repro.faults.injector.FaultInjector`.  DAG tasks
        then draw stragglers and transient failures (retried in place with
        capped exponential backoff) and survive worker crashes by requeueing
        the lost tasks into their stages.  Unlike the linear engine the DAG
        layer launches **no speculative copies**: wave tails are already
        absorbed by the stage frontier, where freed slots immediately serve
        other ready stages instead of idling behind a straggler.
    on_give_up:
        Called with this execution when a task exhausts its retry budget
        (the controller typically evicts and restarts the whole job);
        required with ``faults``.
    """

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        job: DagJob,
        scheduler: StageScheduler = "fifo",
        on_complete: Optional[Callable[["DagExecution"], None]] = None,
        map_drop_ratio: float = 0.0,
        reduce_drop_ratio: float = 0.0,
        kept_map_indices: Optional[Mapping[int, Sequence[int]]] = None,
        kept_reduce_indices: Optional[Mapping[int, Sequence[int]]] = None,
        setup_drop_ratio: Optional[float] = None,
        telemetry: TelemetryHub = NULL_HUB,
        telemetry_src: str = "dag",
        trace_parent: int = 0,
        faults=None,
        on_give_up: Optional[Callable[["DagExecution"], None]] = None,
        decision_hook: Optional[DecisionHook] = None,
    ) -> None:
        super().__init__(
            sim,
            cluster,
            job,
            on_complete or (lambda execution: None),
            telemetry,
            telemetry_src,
            trace_parent,
            faults,
            on_give_up,
        )
        #: Optional external agent consulted at each stage decision; ``None``
        #: keeps the built-in scheduler path untouched (one check per pick).
        self._decision_hook = decision_hook
        #: (span id, start) of the setup span while tracing; stage spans
        #: attach to the attempt span, task spans to their stage span.
        self._setup_span: Optional[tuple] = None
        self.scheduler = make_stage_scheduler(scheduler)
        self._setup_time = job.setup_time(
            map_drop_ratio if setup_drop_ratio is None else setup_drop_ratio
        )

        kept_durations: Dict[int, float] = {}
        self._runs: Dict[int, StageRun] = {}
        for position, stage in enumerate(job.dag):
            maps = kept_task_durations(
                stage.map_task_times, stage, kept_map_indices, map_drop_ratio
            )
            reduces = kept_task_durations(
                stage.reduce_task_times, stage, kept_reduce_indices, reduce_drop_ratio
            )
            run = StageRun(stage, maps, reduces)
            run.position = position
            self._runs[stage.index] = run
            kept_durations[stage.index] = stage_duration(
                stage, cluster.slots, map_durations=maps, reduce_durations=reduces
            )
        self.analysis: CriticalPathAnalysis = analyze_critical_path(
            job.dag, cluster.slots, stage_durations=kept_durations
        )
        for index, rank in upward_ranks(
            job.dag, cluster.slots, stage_durations=kept_durations
        ).items():
            self._runs[index].rank = rank

        self._ready_counter = 0
        self._remaining_stages = len(self._runs)
        #: Ready, unfinished stages in topological order.
        self._frontier: List[StageRun] = []

        #: Closed-form timeline (no faults, telemetry or hook): the state
        #: saved at the last interrupt (see :meth:`_save`), the single
        #: pending end-of-attempt event, and the kernel's executed-event
        #: count when the attempt started (identifies the dispatching event).
        self._closed_form = (
            faults is None
            and decision_hook is None
            and not telemetry.enabled
            and not telemetry.tracing
        )
        self._saved: tuple = ()
        self._end_event: Optional[Event] = None
        self._start_stamp = -1

    # --------------------------------------------------------------- queries
    @property
    def makespan(self) -> Optional[float]:
        """Total wall time of the completed execution (``None`` before)."""
        return self.elapsed if self.completed else None

    @property
    def lower_bound_makespan(self) -> float:
        """Setup plus the critical-path/work lower bound on the kept tasks."""
        return self._setup_time + self.analysis.lower_bound_makespan

    # ---------------------------------------------------------------- control
    def start(self, speed: Optional[float] = None) -> None:
        """Begin executing the job at the current simulation time."""
        self._begin(speed)
        self._free_slots = self.cluster.free_slot_ids()
        if self._closed_form:
            self._start_closed_form()
            return
        if self._setup_time > 0:
            if self.telemetry.tracing:
                self._setup_span = (self.telemetry.new_span_id(), self.sim.now)
            event = self.sim.schedule(
                self._setup_time / self._speed, self._on_setup_done, priority=1
            )
            self._active[_SETUP_SLOT] = _ActiveTask(
                _SETUP_SLOT, event, self._speed, started_at=self.sim.now
            )
        else:
            self._activate_sources()
            self._continue()

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
        limit = now
        if self.sim.processed_events == self._start_stamp:
            limit = math.nextafter(now, -math.inf)
        _, heap, seq, free = self._run_closed_form(*self._restore(), old_speed, limit)
        # The per-task path's rescaling, term for term.  Rounding can tie
        # two finish times whose order the sequence numbers then decide,
        # so the heap is rebuilt.
        speed = self._speed
        heap = [(now + max(0.0, f - now) * old_speed / speed, s, run) for f, s, run in heap]
        heapify(heap)
        self._end_event.cancel()
        self._save(now, heap, seq, free)
        self._schedule_end(now, heap, seq, free)

    def evict(self) -> float:
        """Cancel all in-flight work; returns the wasted wall time of the attempt."""
        wasted = self._evict_tasks()
        if self._end_event is not None:
            self._end_event.cancel()
            self._end_event = None
        if self.telemetry.tracing:
            for run in self._runs.values():
                if run.span_id and run.ready_seq >= 0 and not run.done:
                    self._emit_stage_span(run, outcome="evicted")
            if self._setup_span is not None:
                self._emit_setup_span(outcome="evicted")
        return wasted

    # ------------------------------------------------------- kernel callbacks
    def _make_task_callback(self, slot: int) -> Callable[[Simulator], None]:
        if slot == _SETUP_SLOT:
            return self._on_setup_done

        def _callback(_sim: Simulator) -> None:
            self._on_task_done(slot)

        return _callback

    def _make_retry_callback(self, slot: int) -> Callable[[Simulator], None]:
        def _callback(_sim: Simulator) -> None:
            self._retry_task(slot)

        return _callback

    def _on_setup_done(self, _sim: Simulator) -> None:
        if not self.running:
            return
        self._active.pop(_SETUP_SLOT, None)
        if self._setup_span is not None:
            self._emit_setup_span()
        self._activate_sources()
        self._continue()

    def _on_end(self, _sim: Simulator) -> None:
        self._end_event = None
        self._finish()

    # ------------------------------------------------------ closed-form path
    def _start_closed_form(self) -> None:
        now = self.sim.now
        self._start_stamp = self.sim.processed_events
        heap: List[tuple] = []
        if self._setup_time > 0:
            # The setup task holds no slot, like the per-task path's.
            heap.append((now + self._setup_time / self._speed, 0, None))
        else:
            self._activate_sources()
            if self._remaining_stages == 0:
                self._finish()
                return
        # The setup task, if any, took sequence number 0.
        state = (now, heap, len(heap), len(self._free_slots))
        self._save(*state)
        self._schedule_end(*state)

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
            self._remaining_stages,
            self._ready_counter,
            list(self._frontier),
            [run.snapshot() for run in self._runs.values()],
        )

    def _restore(self) -> Tuple[float, List[tuple], int, int]:
        """Return to the state saved at the last interrupt.

        Returns that state's time, heap, next sequence number and free-slot
        count.
        """
        at, heap, seq, free, remaining, counter, frontier, states = self._saved
        self._remaining_stages = remaining
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

        Free slots are filled as :meth:`_fill_slots` fills them (without a
        hook), then completions are taken in the kernel's ``(time, seq)``
        order; each advances its stage (activating children) before the
        freed slot is refilled at the completion time, as in the per-task
        path's callbacks.  ``heap`` is updated in place.  Returns the state:
        the time of the last completion (``at`` if none), the heap, the next
        sequence number and the free-slot count.
        """
        frontier = self._frontier
        select = self.scheduler.select
        while True:
            while free:
                eligible = _dispatchable(frontier)
                if not eligible:
                    break
                run = eligible[0] if len(eligible) == 1 else select(eligible)
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
            if self._remaining_stages == 0:
                return at, heap, seq, free

    # -------------------------------------------------------------- frontier
    def _activate_sources(self) -> None:
        for index in self.job.dag.sources():
            self._activate_stage(self._runs[index])

    def _continue(self) -> None:
        """Finish the attempt once every stage is done, or refill the slots."""
        if self._remaining_stages == 0 and not self._active and not self._retries:
            self._finish()
            return
        self._fill_slots()

    def _activate_stage(self, run: StageRun) -> None:
        """Mark ``run`` ready; stages emptied by dropping complete in cascade."""
        tracing = self.telemetry.tracing
        stack = [run]
        while stack:
            current = stack.pop()
            current.activate(self._ready_counter)
            self._ready_counter += 1
            if tracing:
                current.span_id = self.telemetry.new_span_id()
                current.activated_at = self.sim.now
            if self.telemetry.enabled:
                self.telemetry.emit(
                    "stage_scheduled",
                    self.sim.now,
                    src=self.telemetry_src,
                    job_id=self.job.job_id,
                    stage=current.index,
                    pending_tasks=current.pending_tasks,
                )
            if not current.done:
                self._enter_frontier(current)
                continue
            # Emptied by dropping: record a zero-length stage span so the
            # observed DAG stays structurally complete.
            if tracing:
                self._emit_stage_span(current)
            self._remaining_stages -= 1
            for child_index in self.job.dag.children(current.index):
                child = self._runs[child_index]
                child.unfinished_parents -= 1
                if child.unfinished_parents == 0:
                    stack.append(child)

    def _enter_frontier(self, run: StageRun) -> None:
        frontier = self._frontier
        at = len(frontier)
        while at and frontier[at - 1].position > run.position:
            at -= 1
        frontier.insert(at, run)

    def _stage_finished(self, run: StageRun) -> None:
        """``run``'s last task completed: leave the frontier, release the children."""
        if run.span_id:
            self._emit_stage_span(run)
        self._remaining_stages -= 1
        self._frontier.remove(run)
        for child_index in self.job.dag.children(run.index):
            child = self._runs[child_index]
            child.unfinished_parents -= 1
            if child.unfinished_parents == 0:
                self._activate_stage(child)

    def _fill_slots(self) -> None:
        hook = self._decision_hook
        while self._free_slots:
            eligible = _dispatchable(self._frontier)
            if not eligible:
                break
            if hook is not None:
                choice = hook(
                    DecisionPoint(STAGE, self.sim.now, eligible, self.job, self)
                )
                if not 0 <= choice < len(eligible):
                    raise ValueError(
                        f"decision hook returned invalid stage index {choice} "
                        f"for {len(eligible)} dispatchable stage(s)"
                    )
                run = eligible[choice]
            elif len(eligible) == 1:
                run = eligible[0]
            else:
                run = self.scheduler.select(eligible)
            slot = self._free_slots.pop()
            self._start_task(slot, run, run.pop_task())

    def _task_finished(self, active: _ActiveTask) -> None:
        """Advance the task's stage (and its children), then refill the slots."""
        run = active.stage_run
        if run.task_finished():
            self._stage_finished(run)
        self._continue()

    def _requeue(self, stage_run: Any, base: float) -> None:
        stage_run.requeue(base)

    # ------------------------------------------------------------------ spans
    def _task_span_parent(self, active: _ActiveTask) -> Tuple[int, int]:
        run = active.stage_run
        return run.span_id, run.index

    def _emit_setup_span(self, outcome: str = "completed") -> None:
        span_id, started = self._setup_span  # type: ignore[misc]
        self._setup_span = None
        self.telemetry.emit(
            "span",
            self.sim.now,
            src=self.telemetry_src,
            span_id=span_id,
            parent_id=self.trace_parent,
            name="setup",
            cat="stage",
            start=started,
            job_id=self.job.job_id,
            stage=-1,
            parents="",
            outcome=outcome,
        )

    def _emit_stage_span(self, run: StageRun, outcome: str = "completed") -> None:
        self.telemetry.emit(
            "span",
            self.sim.now,
            src=self.telemetry_src,
            span_id=run.span_id,
            parent_id=self.trace_parent,
            name="stage",
            cat="stage",
            start=run.activated_at,
            job_id=self.job.job_id,
            stage=run.index,
            parents=",".join(str(p) for p in run.stage.parents),
            pred=self.analysis.durations[run.index],
            outcome=outcome,
        )
