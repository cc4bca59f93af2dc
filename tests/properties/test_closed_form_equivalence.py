"""Closed-form attempt execution is indistinguishable from event-per-task.

Without faults or span tracing, :class:`~repro.engine.execution.JobExecution`
computes each attempt's task timeline in closed form and schedules one kernel
event per attempt.  Two references still run one event per task:

* the retained pre-fault-injection module ``benchmarks/_pr7_execution.py``
  (verbatim), swapped into :mod:`repro.core.dias` the way
  ``benchmarks/bench_kernel_throughput.py`` does;
* today's engine with span tracing on, which keeps the per-task path.

Per-job records, energy and sprinted seconds must be byte-equal across a
scenario x policy x seed matrix covering eviction (P) and mid-phase DVFS
changes (NPS, DiAS at limited and unlimited budgets).  Edge cases of the
replay at interrupts are pinned by small hand-built executions below.
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys
from pathlib import Path
from typing import Callable, List, Tuple

import pytest

import repro.core.dias as dias_module
from repro.core.policies import SchedulingPolicy
from repro.engine.cluster import Cluster, ClusterConfig
from repro.engine.execution import ExecutionPhase, JobExecution
from repro.engine.job import Job, StageSpec
from repro.experiments.figures import limited_sprint_config, unlimited_sprint_config
from repro.fleet.simulation import FleetSimulation
from repro.simulation.des import Simulator
from repro.telemetry import CallbackSink, TelemetryHub
from repro.workloads import scenarios as scenario_module

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
import _pr7_execution  # noqa: E402


class _PerTaskExecution(_pr7_execution.JobExecution):
    """The retained event-per-task engine behind today's constructor."""

    def __init__(self, *args, faults=None, on_give_up=None, **kwargs):
        assert faults is None and on_give_up is None
        super().__init__(*args, **kwargs)


@contextlib.contextmanager
def _engine(execution_cls):
    """Run DiAS controllers on ``execution_cls`` (``None``: today's engine)."""
    original = dias_module.JobExecution
    if execution_cls is not None:
        dias_module.JobExecution = execution_cls
    try:
        yield
    finally:
        dias_module.JobExecution = original


SEEDS = (0, 1, 2)


def _sprint_policies(scenario) -> List[SchedulingPolicy]:
    low = scenario.lowest_priority
    ratios = {p: (0.2 if p == low else 0.0) for p in scenario.priorities}
    zero = {p: 0.0 for p in scenario.priorities}
    high = {scenario.highest_priority}
    limited = dataclasses.replace(limited_sprint_config(), sprint_priorities=frozenset(high))
    unlimited = dataclasses.replace(unlimited_sprint_config(), sprint_priorities=frozenset(high))
    return [
        SchedulingPolicy.preemptive_priority(),
        SchedulingPolicy.non_preemptive_priority(),
        SchedulingPolicy.differential_approximation(zero, name="DA(0)"),
        SchedulingPolicy.differential_approximation(ratios, name="DA(0/20)"),
        SchedulingPolicy.sprinted_non_preemptive(limited),
        SchedulingPolicy.dias(ratios, sprint=limited, name="DiAS-limited"),
        SchedulingPolicy.dias(ratios, sprint=unlimited, name="DiAS-unlimited"),
    ]


SCENARIOS = {
    "reference": lambda: scenario_module.reference_two_priority_scenario(num_jobs=40),
    "three-priority": lambda: scenario_module.three_priority_scenario(num_jobs=40),
    "sprinting": lambda: scenario_module.sprinting_scenario(num_jobs=30),
}


def _fingerprint(result) -> str:
    records = [dataclasses.astuple(r) for r in result.metrics.records]
    return repr(
        (
            records,
            result.duration,
            result.total_energy_joules,
            result.sprinted_seconds,
            result.evictions,
            result.idle_energy_joules,
            result.busy_energy_joules,
            result.sprint_energy_joules,
        )
    )


def _run_dias(scenario, policy, seed, execution_cls=None, tracing=False):
    cluster_source = scenario.cluster
    cluster = Cluster(
        config=cluster_source.config,
        dvfs=cluster_source.dvfs,
        power_model=cluster_source.power_model,
    )
    hub = None
    if tracing:
        hub = TelemetryHub(tracing=True)
        hub.add_sink(CallbackSink(lambda event: None))
    with _engine(execution_cls):
        simulation = dias_module.DiASSimulation(
            policy=policy,
            jobs=scenario.generate_trace(seed=seed),
            cluster=cluster,
            seed=seed,
            **({} if hub is None else {"telemetry": hub}),
        )
        result = simulation.run()
    return result, simulation


@pytest.mark.parametrize("scenario_name", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", SEEDS)
def test_closed_form_matches_per_task_references(scenario_name, seed):
    scenario = SCENARIOS[scenario_name]()
    for policy in _sprint_policies(scenario):
        closed, closed_sim = _run_dias(scenario, policy, seed)
        per_task, per_task_sim = _run_dias(scenario, policy, seed, _PerTaskExecution)
        traced, _ = _run_dias(scenario, policy, seed, tracing=True)
        assert _fingerprint(closed) == _fingerprint(per_task), policy.name
        assert _fingerprint(closed) == _fingerprint(traced), policy.name
        # One kernel event per attempt instead of one per task.
        assert closed_sim.sim.processed_events < per_task_sim.sim.processed_events


def test_matrix_exercises_eviction_and_mid_phase_dvfs():
    """Guard the matrix itself: it must contain evictions and sprints."""
    scenario = SCENARIOS["sprinting"]()
    policies = {p.name: p for p in _sprint_policies(scenario)}
    evicting, _ = _run_dias(scenario, policies["P"], 0)
    assert evicting.evictions > 0
    sprinting, simulation = _run_dias(scenario, policies["DiAS-limited"], 0)
    assert sprinting.sprinted_seconds > 0
    assert simulation.sprinter.sprints_started > 0


def _fleet_fingerprint(scenario, seed, execution_cls=None):
    policy = SchedulingPolicy.dias(
        {p: (0.2 if p == scenario.base.lowest_priority else 0.0) for p in scenario.priorities},
        sprint=dataclasses.replace(
            limited_sprint_config(),
            sprint_priorities=frozenset({scenario.base.highest_priority}),
            budget_seconds=20.0,
            default_timeout=5.0,
        ),
    )
    with _engine(execution_cls):
        simulation = FleetSimulation(
            policy=policy,
            jobs=scenario.generate_trace(seed=seed),
            clusters=scenario.make_clusters(),
            dispatcher="jsq",
            seed=seed,
            sprint_budget="shared",
        )
        result = simulation.run()
    return repr(
        (
            [_fingerprint(r) for r in result.cluster_results],
            result.duration,
            simulation.dispatch_counts,
            simulation.budget_pool.exhaustions,
        )
    ), simulation


@pytest.mark.parametrize("seed", SEEDS)
def test_two_cluster_fleet_with_shared_budget_matches_per_task(seed):
    scenario = scenario_module.FleetScenario(
        base=scenario_module.sprinting_scenario(num_jobs=25), num_clusters=2
    )
    closed, simulation = _fleet_fingerprint(scenario, seed)
    per_task, _ = _fleet_fingerprint(scenario, seed, _PerTaskExecution)
    assert closed == per_task
    # The shared pool ran dry at least once: cross-cluster force_stop ran.
    assert simulation.budget_pool.exhaustions > 0


def test_streaming_replay_matches_per_task(tmp_path):
    from repro.traces.formats import CLUSTER_JSONL
    from repro.traces.replay import ReplaySource
    from repro.traces.synth import compact_profiles, synthesize_trace

    path = str(tmp_path / "trace.jsonl")
    scenario = compact_profiles(scenario_module.reference_two_priority_scenario(), 4)
    synthesize_trace(path, scenario, 300, seed=4, fmt=CLUSTER_JSONL)

    def run(execution_cls=None):
        with _engine(execution_cls):
            simulation = FleetSimulation(
                policy=SchedulingPolicy.preemptive_priority(),
                jobs=(),
                num_clusters=2,
                dispatcher="least_work_left",
                seed=4,
                job_source=ReplaySource(path, mode="fleet"),
                streaming_metrics=True,
            )
            records = []
            for controller in simulation.controllers:
                shared = controller.on_job_record

                def tee(record, shared=shared):
                    shared(record)
                    records.append(dataclasses.astuple(record))

                controller.on_job_record = tee
            result = simulation.run()
        return repr((records, result.duration,
                     [r.total_energy_joules for r in result.cluster_results]))

    assert run() == run(_PerTaskExecution)


def test_parallel_replications_match_serial():
    from repro.experiments.harness import run_policies

    scenario = SCENARIOS["sprinting"]()
    policies = _sprint_policies(scenario)
    serial = run_policies(scenario, policies, seed=5, jobs=1)
    parallel = run_policies(scenario, policies, seed=5, jobs=2)
    for name in (p.name for p in policies):
        assert _fingerprint(serial.results[name]) == _fingerprint(parallel.results[name])


# ------------------------------------------------------------ edge cases
def _job() -> Job:
    stage = StageSpec(index=0, map_task_times=[1.0], reduce_task_times=[], shuffle_time=0.0)
    return Job(job_id=0, priority=1, arrival_time=0.0, size_mb=1.0, stages=[stage],
               profile=scenario_module.text_profile(1, "t", 100.0, max_accuracy_loss=0.0))


def _phases(spec) -> List[ExecutionPhase]:
    return [ExecutionPhase(name, 0, list(durations), parallel) for name, durations, parallel in spec]


Action = Tuple[float, int, Callable[[JobExecution], object]]


def _drive(execution_cls, spec, slots, actions: List[Action], start_speed=1.0, at_dispatch=None):
    """Run one execution with interrupts; returns its observable outcome."""
    sim = Simulator()
    cluster = Cluster(ClusterConfig(workers=1, cores_per_worker=slots))
    log = []
    execution = execution_cls(sim, cluster, _job(), _phases(spec),
                              on_complete=lambda e: log.append(("done", sim.now)))

    def dispatch(_sim):
        execution.start(speed=start_speed)
        if at_dispatch is not None:
            log.append(("dispatch", at_dispatch(execution)))

    sim.schedule(0.0, dispatch)
    for time, priority, action in actions:
        sim.schedule_at(
            time,
            lambda _sim, action=action: log.append((sim.now, action(execution)))
            if execution.running else None,
            priority=priority,
        )
    sim.run()
    return repr((log, execution.completed, execution.evicted, execution.sprinted_time))


def _both(spec, slots, actions, **kwargs):
    closed = _drive(JobExecution, spec, slots, actions, **kwargs)
    per_task = _drive(_PerTaskExecution, spec, slots, actions, **kwargs)
    assert closed == per_task
    return closed


WAVES = [("setup", [2.0], False), ("map", [3.0, 1.0, 2.5, 0.7, 4.1, 1.3, 0.2], True),
         ("shuffle", [1.5], False), ("reduce", [2.0, 2.0, 0.5], True)]


def test_speed_change_exactly_at_a_task_finish_instant():
    # Setup ends at 2.0, the 0.7 s map task at 2.7 (slot-free times 3 slots).
    for instant in (2.0, 2.7, 3.0, 5.0):
        _both(WAVES, 3, [(instant, 2, lambda e: e.set_speed(1.7))])


def test_sprint_at_dispatch_with_zero_duration_tasks():
    # Zero-duration tasks due at the dispatch instant have not completed when
    # a sprint starts inside the dispatching event: the map wave must start
    # at the sprint speed, not be dispatched slow and rescaled.
    # (2.9 / 1.3) * 1.3 / 1.9 != 2.9 / 1.9 in binary floating point.
    spec = [("setup", [0.0], False), ("map", [2.9], True)]
    _both(spec, 2, [], start_speed=1.3, at_dispatch=lambda e: e.set_speed(1.9))
    spec = [("setup", [0.0], False), ("map", [2.9, 0.013, 1.1, 0.7], True), ("reduce", [1.0], True)]
    _both(spec, 2, [], start_speed=1.3, at_dispatch=lambda e: e.set_speed(1.9))
    _both(WAVES, 3, [(4.0, 2, lambda e: e.set_speed(1.0))],
          at_dispatch=lambda e: e.set_speed(1.9))


def test_two_speed_changes_inside_one_phase():
    _both(WAVES, 3, [(2.3, 2, lambda e: e.set_speed(2.2)),
                     (2.9, 2, lambda e: e.set_speed(1.0))])
    _both(WAVES, 2, [(3.1, 2, lambda e: e.set_speed(1.3)),
                     (3.1, 2, lambda e: e.set_speed(1.3)),
                     (3.6, 2, lambda e: e.set_speed(0.5))])


def test_eviction_mid_phase_and_at_a_phase_boundary():
    _both(WAVES, 3, [(3.3, 0, lambda e: e.evict())])
    _both(WAVES, 3, [(2.0, 2, lambda e: e.evict())])
    _both(WAVES, 3, [(2.5, 2, lambda e: e.set_speed(2.0)), (4.0, 0, lambda e: e.evict())])


@pytest.mark.parametrize("slots", [1, 2, 3, 7, 10])
def test_fewer_and_exact_multiple_task_counts(slots):
    # 7 map tasks: n < C for C=10, n = C for C=7, n = k*C never fits 7
    # except C=1 and C=7; the reduce phase of 3 covers C=3 exactly.
    _both(WAVES, slots, [(2.4, 2, lambda e: e.set_speed(1.5))])


def test_non_parallel_and_empty_phases():
    spec = [("setup", [], False), ("map", [1.0, 2.0], True), ("shuffle", [0.5, 0.25], False),
            ("reduce", [], True), ("reduce", [1.0, 1.0], True), ("shuffle", [], False)]
    _both(spec, 2, [])
    _both(spec, 2, [(3.1, 2, lambda e: e.set_speed(3.0))])
    _both([("setup", [], False), ("map", [], True)], 2, [])
