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
closed form on the loop both engines share and take one kernel event per
attempt instead of one per task (see :class:`DagExecution`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.dag.analytics import (
    CriticalPathAnalysis,
    analyze_critical_path,
    stage_duration,
    upward_ranks,
)
from repro.dag.graph import DagJob
from repro.dag.schedulers import StageScheduler, make_stage_scheduler
from repro.engine.cluster import Cluster
from repro.engine.execution import (
    SlotExecution,
    StageRun,
    _ActiveTask,
    _dispatchable,
    kept_task_durations,
    stage_phases,
)
from repro.simulation.decisions import STAGE, DecisionHook, DecisionPoint
from repro.simulation.des import Simulator
from repro.telemetry.hub import NULL_HUB, TelemetryHub

#: Sentinel slot key for the job-level setup task.
_SETUP_SLOT = -1


class DagExecution(SlotExecution):
    """Executes one DAG job's stages on the cluster within the simulator.

    Ready, unfinished stages form the *frontier*, kept in the job's
    topological order; each free slot scans it for the stages it could serve
    and asks the scheduler (or the decision hook) to pick one.  The scheduler
    is skipped when only one stage is dispatchable; the hook is always asked.

    Without a fault injector, telemetry or a decision hook an attempt runs in
    closed form on :class:`~repro.engine.execution.SlotExecution`'s loop:
    while stages compete, a local ``(time, seq)`` min-heap loop advances the
    same :class:`StageRun` objects through the same ``scheduler.select``
    calls in the kernel's completion order; a stage alone on the frontier
    runs as a list schedule.  Both use the kernel's ``now + d / speed``
    arithmetic, and a single kernel event fires at the attempt's end.
    :meth:`set_speed` returns to the state saved at the previous interrupt
    (the attempt's start, before the first), replays it to ``now`` at the
    old speed, rescales the in-flight tasks as the per-task path does and
    runs the rest of the attempt again.  Replays
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
        for position, stage in enumerate(job.dag):
            maps = kept_task_durations(
                stage.map_task_times, stage, kept_map_indices, map_drop_ratio
            )
            reduces = kept_task_durations(
                stage.reduce_task_times, stage, kept_reduce_indices, reduce_drop_ratio
            )
            phases = stage_phases(stage, maps, reduces)
            run = StageRun([(durations, parallel) for _, durations, parallel in phases], stage)
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

        self._closed_form = (
            faults is None
            and decision_hook is None
            and not telemetry.enabled
            and not telemetry.tracing
        )

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
        if self._closed_form:
            self._start_closed_form()
            return
        self._free_slots = self.cluster.free_slot_ids()
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
        self._change_speed(speed)

    def evict(self) -> float:
        """Cancel all in-flight work; returns the wasted wall time of the attempt."""
        wasted = self._evict_tasks()
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

    # -------------------------------------------------------------- frontier
    def _activate_sources(self) -> None:
        for index in self.job.dag.sources():
            self._activate_stage(self._runs[index])

    def _continue(self) -> None:
        """Finish the attempt once every stage is done, or refill the slots."""
        if not self._frontier and not self._active and not self._retries:
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
