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
"""

from __future__ import annotations

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
from repro.simulation.des import Simulator
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
        self._undispatched = sum(d for durations, _ in self._phases for d in durations)
        # Trace span of this stage (0 / unset while tracing is off); opened
        # at activation, emitted when the stage finishes or is evicted.
        self.span_id = 0
        self.activated_at = 0.0

    # ----------------------------------------------------- scheduler queries
    @property
    def index(self) -> int:
        return self.stage.index

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


class DagExecution(SlotExecution):
    """Executes one DAG job's stages on the cluster within the simulator.

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
        for stage in job.dag:
            maps = kept_task_durations(
                stage.map_task_times, stage, kept_map_indices, map_drop_ratio
            )
            reduces = kept_task_durations(
                stage.reduce_task_times, stage, kept_reduce_indices, reduce_drop_ratio
            )
            self._runs[stage.index] = StageRun(stage, maps, reduces)
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

    # --------------------------------------------------------------- queries
    @property
    def makespan(self) -> Optional[float]:
        """Total wall time of the completed execution (``None`` before)."""
        return self.elapsed if self.completed else None

    @property
    def lower_bound_makespan(self) -> float:
        """Setup plus the critical-path/work lower bound on the kept tasks."""
        return self._setup_time + self.analysis.lower_bound_makespan

    def stage_run(self, index: int) -> StageRun:
        return self._runs[index]

    # ---------------------------------------------------------------- control
    def start(self, speed: Optional[float] = None) -> None:
        """Begin executing the job at the current simulation time."""
        self._begin(speed)
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

    def set_speed(self, speed: float) -> None:
        """Apply a cluster-wide speed change (DVFS) to all in-flight tasks."""
        if self._change_speed(speed) is not None:
            self._rescale_tasks()

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

    # -------------------------------------------------------------- frontier
    def _activate_sources(self) -> None:
        for index in self.job.dag.sources():
            self._activate_stage(self._runs[index])
        if self._remaining_stages == 0:
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
            if current.done:
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

    def _fill_slots(self) -> None:
        hook = self._decision_hook
        while self._free_slots:
            eligible = [run for run in self._runs.values() if run.dispatchable]
            if not eligible:
                break
            if hook is None:
                run = self.scheduler.select(eligible)
            else:
                choice = hook(
                    DecisionPoint(STAGE, self.sim.now, eligible, self.job, self)
                )
                if not 0 <= choice < len(eligible):
                    raise ValueError(
                        f"decision hook returned invalid stage index {choice} "
                        f"for {len(eligible)} dispatchable stage(s)"
                    )
                run = eligible[choice]
            slot = self._free_slots.pop()
            self._start_task(slot, run, run.pop_task())

    def _task_finished(self, active: _ActiveTask) -> None:
        """Advance the task's stage (and its children), then refill the slots."""
        run = active.stage_run
        if run.task_finished():
            if run.span_id:
                self._emit_stage_span(run)
            self._remaining_stages -= 1
            for child_index in self.job.dag.children(run.index):
                child = self._runs[child_index]
                child.unfinished_parents -= 1
                if child.unfinished_parents == 0:
                    self._activate_stage(child)
        if self._remaining_stages == 0 and not self._active and not self._retries:
            self._finish()
            return
        self._fill_slots()

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
