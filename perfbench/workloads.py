"""The four benchmark workloads.

Each workload has three parts.  ``prepare(seed, workdir)`` builds the inputs
from the seed alone (this is the set-up the benchmark times as
``workloads.generate_s`` and, for the replay workload, ``synth.write_s``).
``simulate(inputs, seed, on_record)`` runs the simulation through the
program's public Python API and hands every finished
:class:`~repro.simulation.metrics.JobRecord` to ``on_record`` through the
controllers' ``on_job_record`` hook.  ``summarize(result)`` is the program's
own result summary, which the benchmark times as ``metrics.summary_s`` and
checks the records against.

Everything here imports ``repro`` lazily, so ``run.py`` can time the import.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List


#: Workload sizes.  Module constants, read at call time, so the self-test can
#: shrink them; the benchmark itself never changes them.
FLEET_JOBS_PER_CLUSTER = 2000
DAG_JOBS = 1000
REPLAY_JOBS = 20000
PAPER_JOBS = 3000


@dataclass
class Inputs:
    """What ``prepare`` produced: the simulation inputs plus set-up timings."""

    data: Dict[str, Any]
    expected_ids: List[int]
    expected_tasks: int
    generate_s: float
    synth_s: float = 0.0


@dataclass
class Run:
    """One simulation call: its result and the highest/lowest priority."""

    result: Any
    hi: int
    lo: int


def _fresh_cluster(template):
    from repro.engine.cluster import Cluster

    return Cluster(
        config=template.config, dvfs=template.dvfs, power_model=template.power_model
    )


def _graduated_da(priorities):
    """DA with graduated dropping: 0 % for the highest class up to 20 % lowest.

    The same rule ``repro fleet`` applies by default and ``repro fleet
    --replay`` derives from a trace header.
    """
    from repro.core.policies import SchedulingPolicy

    ordered = sorted(priorities, reverse=True)
    step = 0.2 / (len(ordered) - 1)
    return SchedulingPolicy.differential_approximation(
        {p: round(i * step, 3) for i, p in enumerate(ordered)}
    )


def _linear_ids_and_tasks(jobs):
    ids = [job.job_id for job in jobs]
    tasks = sum(job.num_map_tasks + job.num_reduce_tasks for job in jobs)
    return ids, tasks


def _class_summary(result) -> Dict[str, float]:
    """Per-class counts and means from the program's own metrics."""
    summary: Dict[str, float] = {"completed_jobs": float(result.completed_jobs)}
    for priority in result.priorities():
        metrics = result.class_metrics(priority)
        summary[f"jobs_p{priority}"] = float(metrics.job_count)
        summary[f"mean_response_p{priority}"] = metrics.response_time.mean
        summary[f"mean_queueing_p{priority}"] = metrics.queueing_time.mean
        summary[f"mean_execution_p{priority}"] = metrics.execution_time.mean
    summary["mean_response_s"] = result.mean_response_time()
    summary["energy_kj"] = result.total_energy_kilojoules
    summary["resource_waste_pct"] = 100.0 * result.resource_waste
    summary["sprinted_s"] = result.sprinted_seconds
    summary["evictions"] = float(result.evictions)
    return summary


# --------------------------------------------------------------- fleet-jsq
def _fleet_jsq_prepare(seed: int, workdir: str) -> Inputs:
    from repro.workloads.scenarios import fleet_three_priority_scenario

    started = time.perf_counter()
    scenario = fleet_three_priority_scenario(
        num_clusters=4, num_jobs_per_cluster=FLEET_JOBS_PER_CLUSTER
    )
    jobs = scenario.generate_trace(seed=seed)
    elapsed = time.perf_counter() - started
    ids, tasks = _linear_ids_and_tasks(jobs)
    return Inputs({"scenario": scenario, "jobs": jobs}, ids, tasks, elapsed)


def _fleet_jsq_simulate(inputs: Inputs, seed: int, on_record) -> Run:
    from repro.fleet.simulation import FleetSimulation

    scenario = inputs.data["scenario"]
    simulation = FleetSimulation(
        policy=_graduated_da(scenario.priorities),
        jobs=inputs.data["jobs"],
        clusters=scenario.make_clusters(),
        dispatcher="jsq",
        seed=seed,
    )
    for controller in simulation.controllers:
        controller.on_job_record = on_record
    result = simulation.run()
    return Run(result, max(scenario.priorities), min(scenario.priorities))


def _fleet_summary(result) -> Dict[str, float]:
    summary = _class_summary(result)
    summary.update(result.summary())
    return summary


# -------------------------------------------------------------- dag-sprint
def _dag_sprint_prepare(seed: int, workdir: str) -> Inputs:
    from repro.workloads.scenarios import dag_layered_scenario

    started = time.perf_counter()
    scenario = dag_layered_scenario(num_jobs=DAG_JOBS)
    jobs = scenario.generate_trace(seed=seed)
    elapsed = time.perf_counter() - started
    ids, tasks = _linear_ids_and_tasks(jobs)
    return Inputs({"scenario": scenario, "jobs": jobs}, ids, tasks, elapsed)


def _dag_sprint_simulate(inputs: Inputs, seed: int, on_record) -> Run:
    from repro.core.policies import SchedulingPolicy
    from repro.dag.simulation import DagSimulation
    from repro.experiments.figures import limited_sprint_config

    scenario = inputs.data["scenario"]
    hi, lo = max(scenario.priorities), min(scenario.priorities)
    simulation = DagSimulation(
        policy=SchedulingPolicy.dias({hi: 0.0, lo: 0.2}, sprint=limited_sprint_config()),
        jobs=inputs.data["jobs"],
        scheduler="critical_path_first",
        cluster=_fresh_cluster(scenario.cluster),
        seed=seed,
    )
    simulation.on_job_record = on_record
    return Run(simulation.run(), hi, lo)


def _dag_summary(result) -> Dict[str, float]:
    summary = _class_summary(result)
    summary["mean_makespan_s"] = result.mean_makespan()
    summary["mean_cp_stretch"] = result.mean_critical_path_stretch
    return summary


# ----------------------------------------------------------- replay-stream

class _TraceTally:
    """Counts job ids and tasks as the synthesizer writes them (``add`` hook)."""

    def __init__(self) -> None:
        self.ids: List[int] = []
        self.tasks = 0

    def add(self, record) -> None:
        self.ids.append(record.job_id)
        self.tasks += sum(
            len(stage.map_durations) + len(stage.reduce_durations)
            for stage in record.stages
        )


def _replay_prepare(seed: int, workdir: str) -> Inputs:
    from repro.traces.formats import CLUSTER_JSONL
    from repro.traces.synth import compact_profiles, synthesize_trace
    from repro.workloads.scenarios import reference_two_priority_scenario

    started = time.perf_counter()
    scenario = compact_profiles(reference_two_priority_scenario(), 4)
    generated = time.perf_counter()
    path = os.path.join(workdir, f"replay-{seed}-{os.getpid()}.jsonl")
    tally = _TraceTally()
    synthesize_trace(
        path, scenario, REPLAY_JOBS, seed=seed, fmt=CLUSTER_JSONL, histogram=tally
    )
    synth_s = time.perf_counter() - generated
    return Inputs(
        {"path": path},
        tally.ids,
        tally.tasks,
        generated - started,
        synth_s,
    )


def _replay_simulate(inputs: Inputs, seed: int, on_record) -> Run:
    from repro.fleet.simulation import FleetSimulation
    from repro.traces.replay import ReplaySource

    source = ReplaySource(inputs.data["path"], mode="fleet")
    shares = source.class_shares()
    simulation = FleetSimulation(
        policy=_graduated_da(shares),
        jobs=(),
        num_clusters=2,
        dispatcher="least_work_left",
        seed=seed,
        job_source=source,
        streaming_metrics=True,
        traffic_shares=shares,
    )
    for controller in simulation.controllers:
        shared = controller.on_job_record

        def tee(record, shared=shared):
            shared(record)
            on_record(record)

        controller.on_job_record = tee
    result = simulation.run()
    return Run(result, max(shares), min(shares))


# ------------------------------------------------------------- paper-evict
def _paper_evict_prepare(seed: int, workdir: str) -> Inputs:
    from repro.workloads.scenarios import reference_two_priority_scenario

    started = time.perf_counter()
    scenario = reference_two_priority_scenario(num_jobs=PAPER_JOBS)
    jobs = scenario.generate_trace(seed=seed)
    elapsed = time.perf_counter() - started
    ids, tasks = _linear_ids_and_tasks(jobs)
    return Inputs({"scenario": scenario, "jobs": jobs}, ids, tasks, elapsed)


def _paper_evict_simulate(inputs: Inputs, seed: int, on_record) -> Run:
    from repro.core.dias import DiASSimulation
    from repro.core.policies import SchedulingPolicy
    from repro.telemetry import RingBufferSink, TelemetryHub

    scenario = inputs.data["scenario"]
    hub = TelemetryHub(sample_interval=5.0)
    hub.add_sink(RingBufferSink())
    simulation = DiASSimulation(
        policy=SchedulingPolicy.preemptive_priority(),
        jobs=inputs.data["jobs"],
        cluster=_fresh_cluster(scenario.cluster),
        seed=seed,
        telemetry=hub,
    )
    simulation.on_job_record = on_record
    result = simulation.run()
    hub.close()
    return Run(result, max(scenario.priorities), min(scenario.priorities))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[[int, str], Inputs]
    simulate: Callable[[Inputs, int, Callable], Run]
    summarize: Callable[[Any], Dict[str, float]]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fleet-jsq",
            "4x2000-job three-priority fleet behind JSQ, DA(0/10/20): per-task "
            "execution and the DES kernel dominate",
            _fleet_jsq_prepare,
            _fleet_jsq_simulate,
            _fleet_summary,
        ),
        Workload(
            "dag-sprint",
            "1000 layered DAG jobs, critical_path_first, DiAS(0/20) with the "
            "limited sprint budget: DAG engine plus mid-phase set_speed",
            _dag_sprint_prepare,
            _dag_sprint_simulate,
            _dag_summary,
        ),
        Workload(
            "replay-stream",
            "20k-job 4-task trace streamed through a 2-cluster least_work_left "
            "fleet: parsing, streaming metrics and per-job control dominate",
            _replay_prepare,
            _replay_simulate,
            _fleet_summary,
        ),
        Workload(
            "paper-evict",
            "3000-job single-cluster paper run under P with telemetry on: the "
            "only eviction and telemetry workload",
            _paper_evict_prepare,
            _paper_evict_simulate,
            _class_summary,
        ),
    )
}
