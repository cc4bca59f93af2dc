"""DiAS on stage DAGs: the DAG-aware controller and simulation driver.

:class:`DagSimulation` subclasses :class:`~repro.core.dias.DiASSimulation`,
which supplies the priority buffers, non-preemptive (or preemptive)
head-of-line dispatching, eviction, fault recovery, sprinting, energy
accounting and span tracing.  It differs only in:

* the drop plan: per-stage ratios (below) instead of one ratio per job;
* the execution: each job is a :class:`~repro.dag.graph.DagJob` executed by a
  :class:`~repro.dag.execution.DagExecution`, with a pluggable stage
  scheduler choosing which ready stage gets free slots;
* the PERT fields (``cp``, ``cp_len``, ``lb``) on attempt spans;
* critical-path-stretch and ``dag_rows`` accounting on completion;
* an optional streaming ``job_source``, pulled one arrival at a time;
* no ``work_left`` backlog estimate.

DiAS integration is per-stage: a class's drop ratio ``θ_k`` is applied to
every droppable stage of the DAG through
:meth:`~repro.core.dropper.TaskDropper.plan_stages`; with
``slack_biased=True`` the ratios are first reweighted by
:func:`~repro.dag.analytics.slack_biased_drop_ratios` so dropping
concentrates on off-critical-path stages at the same overall accuracy cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Union

from repro.core.dias import DiASSimulation, SimulationResult
from repro.core.dropper import DropPlan
from repro.core.policies import SchedulingPolicy
from repro.dag.analytics import slack_biased_drop_ratios
from repro.dag.execution import DagExecution
from repro.dag.graph import DagJob
from repro.dag.schedulers import StageScheduler, make_stage_scheduler
from repro.engine.cluster import Cluster
from repro.faults.spec import FaultSpec, parse_fault_spec
from repro.models.accuracy import AccuracyModel
from repro.simulation.decisions import DecisionHook
from repro.simulation.des import Simulator
from repro.simulation.metrics import MetricsCollector
from repro.simulation.random_streams import RandomStreams
from repro.telemetry import NULL_HUB, TelemetryHub


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


class DagSimulation(DiASSimulation):
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

    The controller keeps no backlog estimate for DAG jobs (no router queries
    one, and it would cost a critical-path analysis per arrival), so
    :meth:`work_left` reads 0 and telemetry samples omit it.
    """

    _samples_work_left = False

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
        # "dag/" names the dropper and fault streams and labels telemetry.
        super().__init__(
            policy,
            jobs,
            cluster=cluster,
            accuracy_model=accuracy_model,
            streams=streams,
            seed=seed,
            simulator=Simulator(telemetry=telemetry),
            stream_namespace="dag/",
            telemetry=telemetry,
            metrics=MetricsCollector(streaming=True) if streaming_metrics else None,
            faults=faults,
        )
        self.job_source = job_source
        self._source_iter: Optional[Iterator[DagJob]] = None
        self._source_done = job_source is None
        self._arrived = 0
        self.slack_biased = slack_biased
        self._scheduler_spec = scheduler
        #: Optional external agent consulted at every stage decision of every
        #: execution; ``None`` keeps the built-in scheduler path untouched.
        self._decision_hook = decision_hook
        self.dag_rows: List[Dict[str, float]] = []
        self._cp_stretch_sum = 0.0
        self._cp_stretch_count = 0

    @property
    def scheduler_name(self) -> str:
        return make_stage_scheduler(self._scheduler_spec).name

    # ------------------------------------------------------- job-shape hooks
    def _estimated_service_time(self, job: DagJob) -> float:
        return 0.0

    def _run_labels(self) -> Dict[str, Any]:
        return {"run": "dag", "policy": self.policy.name, "scheduler": self.scheduler_name}

    def _result(self, **fields: Any) -> DagSimulationResult:
        return DagSimulationResult(
            **fields,
            scheduler_name=self.scheduler_name,
            dag_rows=list(self.dag_rows),
            cp_stretch_sum=self._cp_stretch_sum,
            cp_stretch_count=self._cp_stretch_count,
        )

    def _drained(self) -> bool:
        """End-of-workload: every known job has arrived and completed."""
        if self.job_source is not None:
            return self._source_done and self._completed >= self._arrived
        return super()._drained()

    def _stage_ratios(self, job: DagJob) -> Dict[int, float]:
        base = self.policy.map_drop_ratio(job.priority)
        if self.slack_biased and base > 0.0:
            return slack_biased_drop_ratios(job.dag, base, self.cluster.slots)
        return {stage.index: base for stage in job.dag if stage.droppable}

    def _plan(self, job: DagJob) -> DropPlan:
        reduce_base = self.policy.reduce_drop_ratio(job.priority)
        reduce_ratios = {
            stage.index: reduce_base for stage in job.dag if stage.droppable
        }
        return self.dropper.plan_stages(job, self._stage_ratios(job), reduce_ratios)

    def _make_execution(self, job: DagJob, plan: DropPlan, trace_parent: int) -> DagExecution:
        return DagExecution(
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

    def _attempt_span_fields(self, execution: DagExecution) -> Dict[str, Any]:
        """PERT predictions on the attempt span.

        ``cp`` is the predicted critical path, ``cp_len`` its length and
        ``lb`` the lower-bound makespan, so reports can compare observed
        against predicted paths.
        """
        return {
            "cp": ",".join(str(i) for i in execution.analysis.critical_path),
            "cp_len": execution.analysis.critical_path_length,
            "lb": execution.lower_bound_makespan,
        }

    def _account_completion(self, execution: DagExecution) -> None:
        job = execution.job
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

    # ------------------------------------------------------------- streaming
    def schedule_trace(self) -> None:
        """Schedule the trace, or prime the chained-arrival pump of a source."""
        if self.job_source is None:
            super().schedule_trace()
            return
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
            self._arrived += 1
            self.submit(job)

        return _callback


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
