"""DiAS on stage DAGs: the DAG-aware controller and simulation driver.

:class:`DagSimulation` mirrors :class:`~repro.core.dias.DiASSimulation` — the
same priority buffers, non-preemptive (or preemptive) head-of-line
dispatching, per-class differential approximation, sprinting and energy
accounting — but each job is a :class:`~repro.dag.graph.DagJob` executed by a
:class:`~repro.dag.execution.DagExecution`, with a pluggable stage scheduler
choosing which ready stage gets free slots.

DiAS integration is per-stage: a class's drop ratio ``θ_k`` is applied to
every droppable stage of the DAG through
:meth:`~repro.core.dropper.TaskDropper.plan_stages`; with
``slack_biased=True`` the ratios are first reweighted by
:func:`~repro.dag.analytics.slack_biased_drop_ratios` so dropping
concentrates on off-critical-path stages at the same overall accuracy cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.buffers import PriorityBuffers
from repro.core.dias import SimulationResult, _dropped_task_seconds
from repro.core.dropper import DropPlan, TaskDropper
from repro.core.policies import SchedulingPolicy
from repro.core.sprinter import Sprinter
from repro.dag.analytics import slack_biased_drop_ratios
from repro.dag.execution import DagExecution
from repro.dag.graph import DagJob
from repro.dag.schedulers import StageScheduler, make_stage_scheduler
from repro.engine.cluster import Cluster
from repro.engine.energy import EnergyMeter
from repro.faults.injector import FaultInjector
from repro.faults.spec import FaultSpec, parse_fault_spec
from repro.models.accuracy import AccuracyModel
from repro.simulation.decisions import DecisionHook
from repro.simulation.des import Simulator
from repro.simulation.metrics import JobRecord, MetricsCollector
from repro.simulation.random_streams import RandomStreams
from repro.telemetry import NULL_HUB, PeriodicSampler, TelemetryHub, kernel_sample_source


@dataclass
class DagSimulationResult(SimulationResult):
    """A :class:`~repro.core.dias.SimulationResult` plus DAG analytics."""

    scheduler_name: str = "fifo"
    dag_rows: List[Dict[str, float]] = field(default_factory=list)
    #: Online critical-path-stretch accumulators (kept in completion order,
    #: so the mean is bitwise-identical to the row-based computation; they
    #: also serve streaming runs, which retain no ``dag_rows``).
    cp_stretch_sum: float = 0.0
    cp_stretch_count: int = 0

    def mean_makespan(self, priority: Optional[int] = None) -> float:
        """Mean per-job makespan (execution wall time) in seconds."""
        if self.metrics.streaming:
            if priority is not None:
                cm = self.metrics.class_metrics(priority)
                return cm.execution_time.mean if cm.job_count else float("nan")
            total = jobs = 0.0
            for p in self.metrics.priorities():
                cm = self.metrics.class_metrics(p)
                total += cm.execution_time.mean * cm.job_count
                jobs += cm.job_count
            return total / jobs if jobs else float("nan")
        records = (
            self.metrics.records
            if priority is None
            else self.metrics.records_for_priority(priority)
        )
        if not records:
            return float("nan")
        return sum(r.execution_time for r in records) / len(records)

    def mean_critical_path_stretch(self) -> float:
        """Mean makespan over its per-job lower bound (1.0 = optimal)."""
        if not self.cp_stretch_count:
            return float("nan")
        return self.cp_stretch_sum / self.cp_stretch_count


class DagSimulation:
    """Simulates one scheduling policy over a fixed DAG-job trace.

    Parameters
    ----------
    policy:
        The DiAS scheduling policy (preemption, per-class drop ratios,
        sprinting) applied to the trace.
    jobs:
        The DAG-job trace (sorted by arrival time internally).
    scheduler:
        Stage-scheduler name or instance.  When a *name* is given, a fresh
        instance is built per dispatched job; a passed-in *instance* is
        shared across all jobs of the run, so it must not keep per-job
        state (the built-in schedulers are stateless).
    slack_biased:
        When ``True``, per-class drop ratios are reweighted by per-stage
        slack before planning which tasks to drop.
    job_source:
        Alternative to ``jobs``: a lazy, arrival-ordered iterable of
        :class:`DagJob` (e.g. a DAG-mode
        :class:`~repro.traces.replay.ReplaySource`) pulled one job at a time
        as the simulation advances.  Pair with ``streaming_metrics=True``
        for constant-memory replays (no per-job records or DAG rows kept).
    streaming_metrics:
        Collect metrics online (:class:`MetricsCollector` with
        ``streaming=True``) instead of retaining per-job records.
    """

    def __init__(
        self,
        policy: SchedulingPolicy,
        jobs: Sequence[DagJob] = (),
        scheduler: Union[str, StageScheduler] = "fifo",
        cluster: Optional[Cluster] = None,
        accuracy_model: Optional[AccuracyModel] = None,
        streams: Optional[RandomStreams] = None,
        seed: int = 0,
        slack_biased: bool = False,
        telemetry: TelemetryHub = NULL_HUB,
        faults: Union[str, FaultSpec, None] = None,
        job_source: Optional[Iterable[DagJob]] = None,
        streaming_metrics: bool = False,
        decision_hook: Optional[DecisionHook] = None,
    ) -> None:
        if job_source is not None:
            if jobs:
                raise ValueError("pass either jobs or job_source, not both")
        elif not jobs:
            raise ValueError("the DAG job trace must not be empty")
        self.policy = policy
        self.jobs = sorted(jobs, key=lambda j: j.arrival_time)
        self.job_source = job_source
        self._source_iter: Optional[Iterator[DagJob]] = None
        self._source_done = job_source is None
        self._arrived = 0
        self.cluster = cluster or Cluster()
        self.accuracy_model = accuracy_model or AccuracyModel.paper_default()
        self.streams = streams or RandomStreams(seed)
        self.slack_biased = slack_biased
        self._scheduler_spec = scheduler
        #: Optional external agent consulted at every stage decision of every
        #: execution; ``None`` keeps the built-in scheduler path untouched.
        self._decision_hook = decision_hook
        #: Invoked with every finished JobRecord; the decision environment
        #: uses it to attribute episode rewards (mirrors DiASSimulation).
        self.on_job_record: Optional[Callable[[JobRecord], None]] = None
        self.telemetry = telemetry
        self.telemetry_src = "dag"

        self.sim = Simulator(telemetry=telemetry)
        self.buffers = PriorityBuffers()
        # priority -> interned "depth_p{priority}" sample field name.
        self._depth_keys: Dict[int, str] = {}
        self.dropper = TaskDropper(self.streams.stream("dag/dropper"))
        self.metrics = MetricsCollector(streaming=True) if streaming_metrics else MetricsCollector()
        self.energy_meter = EnergyMeter(self.cluster.power_model, start_time=self.sim.now)
        self.sprinter: Optional[Sprinter] = None
        if policy.sprints:
            self.sprinter = Sprinter(
                self.sim,
                policy.sprint,
                on_sprint_start=self._on_sprint_start,
                on_sprint_end=self._on_sprint_end,
                telemetry=telemetry,
                telemetry_src=self.telemetry_src,
                on_sprint_denied=self._on_sprint_denied,
            )

        self.fault_spec = parse_fault_spec(faults)
        self.faults: Optional[FaultInjector] = None
        if self.fault_spec is not None:
            self.faults = FaultInjector(
                self.fault_spec,
                self.sim,
                self.cluster,
                self.streams,
                namespace="dag/",
                telemetry=telemetry,
                telemetry_src=self.telemetry_src,
                on_crash=self._on_worker_crash,
                on_repair=self._on_worker_repair,
            )

        self._running: Optional[DagExecution] = None
        self._running_plan: Optional[DropPlan] = None
        self._job_state: Dict[int, Dict[str, float]] = {}
        # Open-span bookkeeping (job/queue/attempt/sprint ids and start
        # times) per job while span tracing is on; empty otherwise.
        self._trace: Dict[int, Dict[str, Any]] = {}
        self._completed = 0
        self._total_evictions = 0
        self._sampler: Optional[PeriodicSampler] = None
        self.dag_rows: List[Dict[str, float]] = []
        self._cp_stretch_sum = 0.0
        self._cp_stretch_count = 0

    # --------------------------------------------------------------- queries
    @property
    def scheduler_name(self) -> str:
        return make_stage_scheduler(self._scheduler_spec).name

    @property
    def queue_length(self) -> int:
        return len(self.buffers) + (1 if self._running is not None else 0)

    @property
    def completed_jobs(self) -> int:
        return self._completed

    def telemetry_sample(self, now: Optional[float] = None) -> Dict[str, float]:
        """Read-only snapshot at ``now`` for periodic samplers (no state mutation)."""
        return self.telemetry_stretch(self.sim.now if now is None else now)[0]

    def telemetry_stretch(
        self, now: float
    ) -> Tuple[Dict[str, float], Callable[[Dict[str, float], float], None]]:
        """The snapshot at ``now`` plus ``fill(sample, t)`` for later times.

        Mirrors :meth:`DiASSimulation.telemetry_stretch`: one depth pass,
        interned field names, integer counters left as ints; ``fill``
        rewrites utilisation and energy, the fields that move with time.
        """
        running = self._running
        sample: Dict[str, float] = {
            "queue_depth": 0,
            "running": 1.0 if running is not None else 0.0,
            "completed_jobs": self._completed,
            "evictions": self._total_evictions,
        }
        depth_keys = self._depth_keys
        total_depth = 0
        for priority, depth in self.buffers.depth_rows():
            total_depth += depth
            key = depth_keys.get(priority)
            if key is None:
                key = depth_keys[priority] = f"depth_p{priority}"
            sample[key] = depth
        sample["queue_depth"] = total_depth
        meter = self.energy_meter
        sample["power_mode"] = meter._mode
        busy = self.metrics.busy_time + self.metrics.wasted_time
        started = running.start_time if running is not None else None
        # EnergyMeter.projected_joules, term for term.
        joules = meter.account.total_joules
        last = meter._last_time
        watts = meter.power_model.power(meter._mode)

        def fill(sample: Dict[str, float], t: float) -> None:
            total = busy if started is None else busy + max(0.0, t - started)
            sample["utilisation"] = (total / t) if t > 0 else 0.0
            sample["energy_joules"] = joules + max(0.0, t - last) * watts

        fill(sample, now)
        return sample, fill

    # --------------------------------------------------------------- running
    def run(self, until: Optional[float] = None) -> DagSimulationResult:
        """Run the whole trace to completion (or until the optional horizon)."""
        if self.job_source is not None:
            self._start_streaming()
        else:
            for job in self.jobs:
                self.sim.schedule_at(
                    job.arrival_time, self._make_arrival_callback(job), priority=0
                )
        if self.faults is not None and not self.faults.started:
            self.faults.start()
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.emit(
                "run_start",
                self.sim.now,
                src=self.telemetry_src,
                run="dag",
                policy=self.policy.name,
                scheduler=self.scheduler_name,
            )
            if telemetry.sample_interval is not None:
                kernel = kernel_sample_source(self.sim)
                sampler = PeriodicSampler(
                    self.sim,
                    telemetry,
                    telemetry.sample_interval,
                    sources=[
                        (self.telemetry_src, self.telemetry_sample, self.telemetry_stretch),
                        ("kernel", kernel, kernel.stretch),
                    ],
                    should_continue=lambda: not self._drained(),
                )
                sampler.start()
                # Cancel the trailing tick at end-of-workload so sampling
                # never advances the clock past the unsampled run's end.
                self._sampler = sampler
        self.sim.run(until=until)
        result = self.finalize()
        if telemetry.enabled:
            telemetry.emit(
                "run_end",
                self.sim.now,
                src=self.telemetry_src,
                completed=self._completed,
                duration=self.sim.now,
            )
        return result

    def finalize(self) -> DagSimulationResult:
        """Close the books at the current simulated time and build the result."""
        self.energy_meter.advance(self.sim.now)
        self.metrics.set_observation_time(self.sim.now)
        account = self.energy_meter.account
        return DagSimulationResult(
            policy_name=self.policy.name,
            metrics=self.metrics,
            duration=self.sim.now,
            completed_jobs=self._completed,
            total_energy_joules=self.energy_meter.total_joules,
            sprinted_seconds=(
                self.sprinter.total_sprinted_seconds if self.sprinter is not None else 0.0
            ),
            evictions=self._total_evictions,
            idle_energy_joules=account.idle_joules,
            busy_energy_joules=account.busy_joules,
            sprint_energy_joules=account.sprint_joules,
            scheduler_name=self.scheduler_name,
            dag_rows=list(self.dag_rows),
            cp_stretch_sum=self._cp_stretch_sum,
            cp_stretch_count=self._cp_stretch_count,
            fault_counts=(
                dict(self.faults.counters) if self.faults is not None else {}
            ),
        )

    # ---------------------------------------------------------------- events
    def _drained(self) -> bool:
        """End-of-workload: every known job has arrived and completed."""
        if self.job_source is not None:
            return self._source_done and self._completed >= self._arrived
        return self._completed >= len(self.jobs)

    def _start_streaming(self) -> None:
        """Prime the chained-arrival pump from the streaming job source."""
        self._source_iter = iter(self.job_source)
        first = next(self._source_iter, None)
        if first is None:
            raise ValueError("the streaming job source yielded no jobs")
        self._schedule_streamed(first)

    def _schedule_streamed(self, job: DagJob) -> None:
        self.sim.schedule_at(
            job.arrival_time, self._make_streamed_callback(job), priority=0
        )

    def _make_streamed_callback(self, job: DagJob):
        def _callback(_sim: Simulator) -> None:
            # Pull and schedule the successor BEFORE admitting this job: at
            # equal timestamps the heap sequence then matches the batch
            # path, which pre-schedules all arrivals in trace order.
            successor = next(self._source_iter, None)
            if successor is None:
                self._source_done = True
            else:
                self._schedule_streamed(successor)
            self._on_arrival(job)

        return _callback

    def _make_arrival_callback(self, job: DagJob):
        def _callback(_sim: Simulator) -> None:
            self._on_arrival(job)

        return _callback

    def _on_arrival(self, job: DagJob) -> None:
        self._arrived += 1
        self._job_state[job.job_id] = {"wasted": 0.0, "evictions": 0}
        if self.telemetry.enabled:
            self.telemetry.emit(
                "job_admitted",
                self.sim.now,
                src=self.telemetry_src,
                job_id=job.job_id,
                priority=job.priority,
            )
        if self.telemetry.tracing:
            # Open the job's root span and its first queue wait; both close
            # later (spans are emitted at close time, ids are stable now).
            self._trace[job.job_id] = {
                "job": self.telemetry.new_span_id(),
                "job_start": self.sim.now,
                "attempt": 0,
                "queue_id": self.telemetry.new_span_id(),
                "queue_start": self.sim.now,
            }
        self.buffers.push(job)
        if self._running is None:
            self._dispatch_next()
            return
        if self.policy.preemptive and job.priority > self._running.job.priority:
            self._evict_running()
            self._dispatch_next()

    def _stage_ratios(self, job: DagJob) -> Dict[int, float]:
        base = self.policy.map_drop_ratio(job.priority)
        if self.slack_biased and base > 0.0:
            return slack_biased_drop_ratios(job.dag, base, self.cluster.slots)
        return {stage.index: base for stage in job.dag if stage.droppable}

    def _dispatch_next(self) -> None:
        job = self.buffers.pop_highest()
        if job is None:
            self._running = None
            self._running_plan = None
            self.energy_meter.set_mode("idle", self.sim.now)
            return
        map_ratios = self._stage_ratios(job)
        reduce_base = self.policy.reduce_drop_ratio(job.priority)
        reduce_ratios = {
            stage.index: reduce_base for stage in job.dag if stage.droppable
        }
        plan = self.dropper.plan_stages(job, map_ratios, reduce_ratios)
        if self.telemetry.enabled:
            # kept_map_indices maps stage index -> kept task indices.
            kept = sum(len(idx) for idx in plan.kept_map_indices.values())
            self.telemetry.emit(
                "drop_decision",
                self.sim.now,
                src=self.telemetry_src,
                job_id=job.job_id,
                priority=job.priority,
                map_drop_ratio=plan.map_drop_ratio,
                reduce_drop_ratio=plan.reduce_drop_ratio,
                kept_map_tasks=kept,
                dropped_map_tasks=job.num_map_tasks - kept,
            )
        trace_parent = 0
        if self.telemetry.tracing:
            trace_parent = self._trace_dispatch(job, plan)
        self.cluster.set_sprinting(False)
        self.energy_meter.set_mode("busy", self.sim.now)
        execution = DagExecution(
            self.sim,
            self.cluster,
            job,
            scheduler=make_stage_scheduler(self._scheduler_spec),
            on_complete=self._on_complete,
            kept_map_indices=plan.kept_map_indices,
            kept_reduce_indices=plan.kept_reduce_indices,
            setup_drop_ratio=min(plan.map_drop_ratio, 0.9),
            telemetry=self.telemetry,
            telemetry_src=self.telemetry_src,
            trace_parent=trace_parent,
            faults=self.faults,
            on_give_up=(
                self._on_task_exhausted if self.faults is not None else None
            ),
            decision_hook=self._decision_hook,
        )
        self._running = execution
        self._running_plan = plan
        execution.start(speed=self.cluster.speed)
        if self.sprinter is not None:
            self.sprinter.on_dispatch(execution)

    # ------------------------------------------------------------ span probes
    def _trace_dispatch(self, job: DagJob, plan: DropPlan) -> int:
        """Close the queue span, open the attempt span, annotate the drop.

        Returns the attempt span id, which the :class:`DagExecution` uses as
        the parent of its stage/task spans.  Only called while tracing.
        """
        telemetry = self.telemetry
        now = self.sim.now
        state = self._trace[job.job_id]
        telemetry.emit(
            "span",
            now,
            src=self.telemetry_src,
            span_id=state.pop("queue_id"),
            parent_id=state["job"],
            name="queue_wait",
            cat="queue",
            start=state.pop("queue_start"),
            job_id=job.job_id,
            priority=job.priority,
        )
        state["attempt"] += 1
        attempt_id = telemetry.new_span_id()
        state["attempt_id"] = attempt_id
        state["attempt_start"] = now
        dropped_seconds = _dropped_task_seconds(job, plan)
        if dropped_seconds > 0.0:
            kept = sum(len(idx) for idx in plan.kept_map_indices.values()) + sum(
                len(idx) for idx in plan.kept_reduce_indices.values()
            )
            telemetry.emit(
                "span",
                now,
                src=self.telemetry_src,
                span_id=telemetry.new_span_id(),
                parent_id=attempt_id,
                name="drop",
                cat="drop",
                start=now,
                job_id=job.job_id,
                dropped_tasks=job.num_map_tasks + job.num_reduce_tasks - kept,
                salvaged=dropped_seconds / self.cluster.slots,
            )
        return attempt_id

    def _trace_attempt_end(self, execution: DagExecution, outcome: str) -> None:
        """Close the current attempt span; only called while tracing.

        DAG attempts carry PERT predictions alongside (``cp`` — the predicted
        critical path, ``cp_len`` — its length, ``lb`` — the lower-bound
        makespan) so reports can compare observed against predicted paths.
        """
        job = execution.job
        state = self._trace[job.job_id]
        self.telemetry.emit(
            "span",
            self.sim.now,
            src=self.telemetry_src,
            span_id=state.pop("attempt_id"),
            parent_id=state["job"],
            name="attempt",
            cat="attempt",
            start=state.pop("attempt_start"),
            job_id=job.job_id,
            attempt=state["attempt"],
            outcome=outcome,
            sprinted=execution.sprinted_time,
            cp=",".join(str(i) for i in execution.analysis.critical_path),
            cp_len=execution.analysis.critical_path_length,
            lb=execution.lower_bound_makespan,
        )

    def _evict_running(self) -> None:
        execution = self._running
        if execution is None:
            return
        if self.sprinter is not None:
            self.sprinter.on_job_end(execution)
        wasted = execution.evict()
        self.cluster.set_sprinting(False)
        job = execution.job
        if self.telemetry.enabled:
            self.telemetry.emit(
                "job_evicted",
                self.sim.now,
                src=self.telemetry_src,
                job_id=job.job_id,
                priority=job.priority,
                wasted=wasted,
            )
        if self.telemetry.tracing:
            now = self.sim.now
            trace_state = self._trace[job.job_id]
            self.telemetry.emit(
                "span",
                now,
                src=self.telemetry_src,
                span_id=self.telemetry.new_span_id(),
                parent_id=trace_state["attempt_id"],
                name="evict",
                cat="evict",
                start=now,
                job_id=job.job_id,
                wasted=wasted,
            )
            self._trace_attempt_end(execution, "evicted")
            # The job re-queues at this same instant: open the next wait.
            trace_state["queue_id"] = self.telemetry.new_span_id()
            trace_state["queue_start"] = now
        state = self._job_state[job.job_id]
        state["wasted"] += wasted
        state["evictions"] += 1
        self._total_evictions += 1
        self.buffers.push_front(job)
        self._running = None
        self._running_plan = None

    # ---------------------------------------------------------- fault recovery
    def _fault_restart(self, reason: str) -> None:
        """Re-execute the running job from scratch via the eviction path.

        Reusing :meth:`_evict_running` keeps the span tree and the
        re-execution latency decomposition valid: the lost attempt is closed
        as evicted and its wall time accounted as wasted/re-execution.
        """
        execution = self._running
        if execution is None:
            return
        job = execution.job
        if self.telemetry.tracing:
            # Annotate before eviction so the trace records *why* the
            # attempt was aborted, not just that it was evicted.
            self.telemetry.emit(
                "span",
                self.sim.now,
                src=self.telemetry_src,
                span_id=self.telemetry.new_span_id(),
                parent_id=execution.trace_parent,
                name=reason,
                cat="fault",
                start=self.sim.now,
                job_id=job.job_id,
                slot=-1,
            )
        self._evict_running()
        self.faults.note_job_restart()
        if self.telemetry.enabled:
            self.telemetry.emit(
                "fault.job_restart",
                self.sim.now,
                src=self.telemetry_src,
                job_id=job.job_id,
                reason=reason,
            )

    def _on_task_exhausted(self, execution: DagExecution) -> None:
        """A task burnt through its retry budget: restart the whole job."""
        self._fault_restart("retries_exhausted")
        self._dispatch_next()

    def _on_worker_crash(self, worker: int) -> None:
        execution = self._running
        if execution is None:
            return
        if self.faults.crash_recovery == "restart":
            self._fault_restart("crash")
            self._dispatch_next()
            return
        execution.on_worker_crash(worker)

    def _on_worker_repair(self, worker: int) -> None:
        execution = self._running
        if execution is not None:
            execution.on_worker_repair(worker)

    def _on_complete(self, execution: DagExecution) -> None:
        if self.sprinter is not None:
            self.sprinter.on_job_end(execution)
        self.cluster.set_sprinting(False)
        job = execution.job
        plan = self._running_plan
        # Pop per-job bookkeeping so long streaming replays stay bounded.
        state = self._job_state.pop(job.job_id)
        effective_drop = plan.effective_drop_ratio if plan is not None else 0.0
        record = JobRecord(
            job_id=job.job_id,
            priority=job.priority,
            arrival_time=job.arrival_time,
            start_time=execution.start_time if execution.start_time is not None else job.arrival_time,
            completion_time=self.sim.now,
            execution_time=execution.elapsed,
            wasted_time=state["wasted"],
            evictions=int(state["evictions"]),
            drop_ratio=effective_drop,
            accuracy_loss=self.accuracy_model.error(min(effective_drop, 1.0)),
            sprinted_time=execution.sprinted_time,
            size_mb=job.size_mb,
            num_map_tasks=job.num_map_tasks,
            num_reduce_tasks=job.num_reduce_tasks,
        )
        self.metrics.record_job(record)
        if self.on_job_record is not None:
            self.on_job_record(record)
        self.metrics.record_busy_time(execution.elapsed)
        if self.telemetry.enabled:
            self.telemetry.emit(
                "job_completed",
                self.sim.now,
                src=self.telemetry_src,
                job_id=job.job_id,
                priority=job.priority,
                response_time=record.response_time,
                execution_time=record.execution_time,
                drop_ratio=record.drop_ratio,
            )
        if self.telemetry.tracing:
            self._trace_attempt_end(execution, "completed")
            trace_state = self._trace.pop(job.job_id)
            self.telemetry.emit(
                "span",
                self.sim.now,
                src=self.telemetry_src,
                span_id=trace_state["job"],
                parent_id=0,
                name="job",
                cat="job",
                start=trace_state["job_start"],
                job_id=job.job_id,
                priority=job.priority,
            )
        lower_bound = execution.lower_bound_makespan
        cp_stretch = execution.elapsed / lower_bound if lower_bound > 0 else 1.0
        self._cp_stretch_sum += cp_stretch
        self._cp_stretch_count += 1
        if not self.metrics.streaming:
            self.dag_rows.append(
                {
                    "job_id": job.job_id,
                    "priority": job.priority,
                    "stages": job.num_stages,
                    "makespan_s": execution.elapsed,
                    "lower_bound_s": lower_bound,
                    "cp_stretch": cp_stretch,
                    "critical_path_len": len(execution.analysis.critical_path),
                }
            )
        self._completed += 1
        if self._drained():
            if self._sampler is not None:
                self._sampler.stop()
            if self.faults is not None:
                # Cancel the open-ended crash/repair renewal process so the
                # event heap can empty once the workload has drained.
                self.faults.stop()
        self._running = None
        self._running_plan = None
        self._dispatch_next()

    # ------------------------------------------------------------- sprinting
    def _on_sprint_start(self, execution: DagExecution) -> None:
        self.cluster.set_sprinting(True)
        if execution.running:
            execution.set_speed(self.cluster.speed)
        self.energy_meter.set_mode("sprint", self.sim.now)
        if self.telemetry.enabled:
            self.telemetry.emit(
                "dvfs_transition",
                self.sim.now,
                src=self.telemetry_src,
                speed=self.cluster.speed,
                mode="sprint",
            )
        if self.telemetry.tracing:
            state = self._trace.get(execution.job.job_id)
            if state is not None:
                state["sprint_id"] = self.telemetry.new_span_id()
                state["sprint_start"] = self.sim.now

    def _on_sprint_end(self, execution: DagExecution) -> None:
        self.cluster.set_sprinting(False)
        if execution.running:
            execution.set_speed(self.cluster.speed)
            self.energy_meter.set_mode("busy", self.sim.now)
        else:
            mode = "busy" if self._running is not None else "idle"
            self.energy_meter.set_mode(mode, self.sim.now)
        if self.telemetry.enabled:
            self.telemetry.emit(
                "dvfs_transition",
                self.sim.now,
                src=self.telemetry_src,
                speed=self.cluster.speed,
                mode="nominal",
            )
        if self.telemetry.tracing:
            state = self._trace.get(execution.job.job_id)
            if state is not None and "sprint_start" in state:
                # The DVFS throttle interval, a child of the attempt it
                # accelerated (the sprinter always stops before the attempt
                # closes, so the interval nests inside it).
                self.telemetry.emit(
                    "span",
                    self.sim.now,
                    src=self.telemetry_src,
                    span_id=state.pop("sprint_id"),
                    parent_id=state.get("attempt_id", state["job"]),
                    name="sprint",
                    cat="sprint",
                    start=state.pop("sprint_start"),
                    job_id=execution.job.job_id,
                    speed=self.cluster.dvfs.speedup(self.cluster.dvfs.sprint),
                )

    def _on_sprint_denied(self, execution: DagExecution) -> None:
        if self.telemetry.tracing:
            state = self._trace.get(execution.job.job_id)
            if state is not None and "attempt_id" in state:
                now = self.sim.now
                self.telemetry.emit(
                    "span",
                    now,
                    src=self.telemetry_src,
                    span_id=self.telemetry.new_span_id(),
                    parent_id=state["attempt_id"],
                    name="sprint_denied",
                    cat="denied",
                    start=now,
                    job_id=execution.job.job_id,
                )


def replicate_dag(
    scenario,
    policy: SchedulingPolicy,
    replications: int,
    scheduler: Union[str, StageScheduler] = "fifo",
    slack_biased: bool = False,
    base_seed: int = 0,
    jobs: int = 1,
    telemetry_base: Optional[str] = None,
    telemetry_interval: Optional[float] = None,
    faults: Union[str, FaultSpec, None] = None,
    decision_hook: Optional[DecisionHook] = None,
):
    """Replicate one DAG configuration over independent seeds.

    Each replication regenerates the scenario's DAG-job trace from its
    :func:`~repro.simulation.replication.replication_seed` and runs a fresh
    :class:`DagSimulation`, collecting makespan/latency/energy headline
    metrics.  ``jobs`` fans the replications across worker processes with
    metrics bitwise-identical to a serial run.  ``telemetry_base`` writes each
    replication's telemetry to a per-seed part file and merges the parts, in
    replication order, into one JSONL file at that path.  Returns
    ``{metric_name: ReplicatedMetric}``.
    """
    from repro.experiments.parallel import DagExperiment, merge_replication_parts
    from repro.simulation.replication import ReplicationRunner

    experiment = DagExperiment(
        scenario=scenario,
        policy=policy,
        scheduler=scheduler if isinstance(scheduler, str) else scheduler.name,
        slack_biased=slack_biased,
        telemetry_base=telemetry_base,
        telemetry_interval=telemetry_interval,
        faults=parse_fault_spec(faults),
        decision_hook=decision_hook,
    )
    metrics = ReplicationRunner(experiment).run(
        replications, base_seed=base_seed, jobs=jobs
    )
    merge_replication_parts(telemetry_base, base_seed, replications)
    return metrics


def run_dag_policy(
    policy: SchedulingPolicy,
    jobs: Sequence[DagJob],
    scheduler: Union[str, StageScheduler] = "fifo",
    cluster: Optional[Cluster] = None,
    seed: int = 0,
    slack_biased: bool = False,
) -> DagSimulationResult:
    """Convenience wrapper: build a :class:`DagSimulation` and run it."""
    simulation = DagSimulation(
        policy=policy,
        jobs=jobs,
        scheduler=scheduler,
        cluster=cluster,
        seed=seed,
        slack_biased=slack_biased,
    )
    return simulation.run()
