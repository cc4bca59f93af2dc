"""Recovery behaviour under injected faults, on all three simulation layers.

Every test runs a small workload to completion under some fault mix and
checks both liveness (all jobs finish despite crashes/failures) and that the
expected recovery mechanism actually engaged (counters are positive).
"""

from __future__ import annotations

import pytest

from repro.core.dias import DiASSimulation
from repro.core.policies import SchedulingPolicy
from repro.dag.execution import DagExecution
from repro.dag.simulation import DagSimulation
from repro.engine.cluster import Cluster
from repro.engine.execution import JobExecution, build_phases
from repro.faults.injector import FaultInjector
from repro.faults.spec import parse_fault_spec
from repro.fleet.simulation import FleetSimulation
from repro.simulation.des import Simulator
from repro.simulation.random_streams import RandomStreams
from repro.telemetry import RingBufferSink, TelemetryHub
from repro.workloads.scenarios import (
    FleetScenario,
    dag_fork_join_scenario,
    reference_two_priority_scenario,
)


def _dias(spec: str, num_jobs: int = 30, seed: int = 2, **kwargs):
    scenario = reference_two_priority_scenario()
    source = scenario.cluster
    cluster = Cluster(
        config=source.config, dvfs=source.dvfs, power_model=source.power_model
    )
    simulation = DiASSimulation(
        policy=SchedulingPolicy.non_preemptive_priority(),
        jobs=scenario.generate_trace(seed=seed, num_jobs=num_jobs),
        cluster=cluster,
        seed=seed,
        faults=spec,
        **kwargs,
    )
    return simulation, simulation.run()


def test_dias_completes_under_crashes_with_requeue():
    simulation, result = _dias("crash:mttf=200,repair=30")
    assert result.completed_jobs == 30
    assert result.fault_counts["crashes"] > 0
    assert result.fault_counts["job_restarts"] == 0


def test_dias_restart_recovery_reexecutes_jobs():
    simulation, result = _dias("crash:mttf=200,repair=30,recovery=restart")
    assert result.completed_jobs == 30
    assert result.fault_counts["crashes"] > 0
    assert result.fault_counts["job_restarts"] > 0


def test_dias_speculation_engages_for_stragglers():
    simulation, result = _dias("stragglers:p=0.2,slowdown=4,speculate=1.3")
    assert result.completed_jobs == 30
    assert result.fault_counts["stragglers"] > 0
    assert result.fault_counts["speculations"] > 0


def test_dias_speculation_can_be_disabled():
    simulation, result = _dias("stragglers:p=0.2,slowdown=4,speculate=0")
    assert result.completed_jobs == 30
    assert result.fault_counts["speculations"] == 0


def test_dias_transient_failures_are_retried():
    simulation, result = _dias("taskfail:p=0.1,retries=3,backoff=0.5")
    assert result.completed_jobs == 30
    assert result.fault_counts["task_failures"] > 0
    assert result.fault_counts["retries"] > 0


def test_faults_off_reports_no_counters():
    simulation, result = _dias(None)
    assert simulation.faults is None
    assert result.fault_counts == {}


def test_fleet_quarantines_crashed_clusters_and_completes():
    scenario = FleetScenario(
        base=reference_two_priority_scenario(num_jobs=40), num_clusters=2
    )
    fleet = FleetSimulation(
        policy=SchedulingPolicy.non_preemptive_priority(),
        jobs=scenario.generate_trace(seed=4),
        clusters=scenario.make_clusters(),
        dispatcher="round_robin",
        seed=4,
        faults="crash:mttf=250,repair=60,probation=30",
    )
    result = fleet.run()
    assert result.completed_jobs == 80
    counters = fleet.fault_counters()
    assert counters["crashes"] > 0
    # Graceful degradation: some routing decisions were redirected away
    # from impaired or probationary clusters.
    assert counters["quarantine_redirects"] > 0
    assert fleet.quarantine_redirects == counters["quarantine_redirects"]


def _dag(spec: str, seed: int = 3, num_jobs: int = 20, **kwargs):
    scenario = dag_fork_join_scenario(num_jobs=num_jobs)
    simulation = DagSimulation(
        policy=SchedulingPolicy.non_preemptive_priority(),
        jobs=scenario.generate_trace(seed=seed),
        scheduler="critical_path_first",
        cluster=scenario.cluster,
        seed=seed,
        faults=spec,
        **kwargs,
    )
    return simulation, simulation.run()


def test_dag_completes_under_crashes_and_retries():
    simulation, result = _dag(
        "crash:mttf=300,repair=40;taskfail:p=0.05,retries=3,backoff=0.5"
    )
    assert result.completed_jobs == 20
    assert result.fault_counts["crashes"] > 0
    assert result.fault_counts["retries"] > 0


def test_dag_never_speculates_by_design():
    # The DAG layer injects stragglers but launches no speculative copies:
    # the stage frontier already absorbs wave tails.
    simulation, result = _dag("stragglers:p=0.3,slowdown=4,speculate=1.2")
    assert result.completed_jobs == 20
    assert result.fault_counts["stragglers"] > 0
    assert result.fault_counts["speculations"] == 0


def test_dag_restart_recovery_reexecutes_jobs():
    # MTTF must comfortably exceed the typical job makespan: restart
    # recovery re-executes from scratch, so crashes arriving faster than
    # jobs finish would livelock the workload (in simulated time).
    simulation, result = _dag("crash:mttf=600,repair=30,recovery=restart")
    assert result.completed_jobs == 20
    assert result.fault_counts["crashes"] > 0
    assert result.fault_counts["job_restarts"] > 0


@pytest.mark.parametrize("run", [_dias, _dag], ids=["linear", "dag"])
def test_retry_attempt_is_the_attempt_the_retry_runs(run):
    # ``fault.task_fail`` names the attempt that failed and the
    # ``fault.retry`` that follows on the same slot the one it will run.
    hub = TelemetryHub()
    sink = hub.add_sink(RingBufferSink(capacity=1 << 20))
    run("taskfail:p=0.1,retries=3,backoff=0.5", telemetry=hub)
    failed = {}
    retries = 0
    for event in sink.events:
        key = (event.get("job_id"), event.get("slot"))
        if event["kind"] == "fault.task_fail":
            failed[key] = event["attempt"]
        elif event["kind"] == "fault.retry":
            assert event["attempt"] == failed[key] + 1
            retries += 1
    assert retries > 0
    assert max(failed.values()) > 1


def test_fault_injection_requires_a_give_up_hook():
    # A task that exhausts its retries escalates to the controller; without
    # a hook there is nowhere to escalate, so both engines refuse up front.
    sim = Simulator()
    cluster = reference_two_priority_scenario().cluster
    faults = FaultInjector(
        parse_fault_spec("taskfail:p=0.5,retries=0"), sim, cluster, RandomStreams(seed=0)
    )
    job = reference_two_priority_scenario().generate_trace(seed=0, num_jobs=1)[0]
    with pytest.raises(ValueError, match="on_give_up"):
        JobExecution(
            sim, cluster, job, build_phases(job), on_complete=lambda e: None, faults=faults
        )
    dag_job = dag_fork_join_scenario(num_jobs=1).generate_trace(seed=0)[0]
    with pytest.raises(ValueError, match="on_give_up"):
        DagExecution(sim, cluster, dag_job, faults=faults)
