"""Closed-form DAG attempts are indistinguishable from event-per-task ones.

Without a fault injector, telemetry or a decision hook,
:class:`~repro.dag.execution.DagExecution` computes each attempt's task
timeline in a local heap loop and schedules one kernel event per attempt.
A tracing hub with a sink that drops every event forces the per-task path,
which takes one kernel event per task; it is the reference here.

Per-job records, energy, sprinted seconds, evictions and DAG rows must be
byte-equal across a scenario x stage-scheduler x policy x seed matrix, with
slack-biased dropping on and off, covering eviction (P) and mid-attempt DVFS
changes (sprinted NP, DiAS at limited and unlimited budgets).  Edge cases of
the replay at interrupts are pinned by small hand-built executions below.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from typing import Callable, Dict, List, Tuple

import pytest

from repro.core.policies import SchedulingPolicy
from repro.dag.execution import DagExecution
from repro.dag.graph import DagJob, DagStage, StageDAG
from repro.dag.schedulers import STAGE_SCHEDULERS
from repro.dag.simulation import DagSimulation
from repro.engine.cluster import Cluster, ClusterConfig
from repro.engine.profiles import JobClassProfile
from repro.experiments.figures import limited_sprint_config, unlimited_sprint_config
from repro.simulation.des import Simulator
from repro.telemetry import CallbackSink, TelemetryHub
from repro.workloads import scenarios as scenario_module


def _null_tracing_hub() -> TelemetryHub:
    hub = TelemetryHub(tracing=True)
    hub.add_sink(CallbackSink(lambda event: None))
    return hub


SCENARIOS = {
    "layered": lambda: scenario_module.dag_layered_scenario(num_jobs=16),
    "fork-join": lambda: scenario_module.dag_fork_join_scenario(num_jobs=16),
    "triangle-count": lambda: scenario_module.dag_triangle_count_scenario(num_jobs=16),
}

SEEDS = (0, 1, 2)


def _policies(scenario) -> List[SchedulingPolicy]:
    priorities = scenario.priorities
    low = min(priorities)
    ratios = {p: (0.2 if p == low else 0.0) for p in priorities}
    high = frozenset({max(priorities)})
    limited = dataclasses.replace(limited_sprint_config(), sprint_priorities=high)
    unlimited = dataclasses.replace(unlimited_sprint_config(), sprint_priorities=high)
    return [
        SchedulingPolicy.preemptive_priority(),
        SchedulingPolicy.differential_approximation(ratios, name="DA(0/20)"),
        SchedulingPolicy.dias(ratios, sprint=limited, name="DiAS-limited"),
        SchedulingPolicy.dias(ratios, sprint=unlimited, name="DiAS-unlimited"),
        SchedulingPolicy.sprinted_non_preemptive(limited),
    ]


@pytest.fixture
def event_owners(monkeypatch) -> Counter:
    """Count fired kernel events by the class that owns their callback."""
    owners: Counter = Counter()
    schedule = Simulator.schedule
    schedule_at = Simulator.schedule_at

    def counted(callback):
        func = getattr(callback, "__func__", callback)
        owner = func.__qualname__.split(".", 1)[0]

        def fire(sim):
            owners[owner] += 1
            callback(sim)

        return fire

    monkeypatch.setattr(
        Simulator, "schedule",
        lambda sim, delay, callback, **kw: schedule(sim, delay, counted(callback), **kw),
    )
    monkeypatch.setattr(
        Simulator, "schedule_at",
        lambda sim, at, callback, **kw: schedule_at(sim, at, counted(callback), **kw),
    )
    return owners


def _run(scenario, policy, scheduler, seed, slack_biased, per_task=False):
    cluster = scenario.cluster
    simulation = DagSimulation(
        policy=policy,
        jobs=scenario.generate_trace(seed=seed),
        scheduler=scheduler,
        cluster=Cluster(config=cluster.config, dvfs=cluster.dvfs,
                        power_model=cluster.power_model),
        seed=seed,
        slack_biased=slack_biased,
        **({"telemetry": _null_tracing_hub()} if per_task else {}),
    )
    return simulation.run(), simulation


def _fingerprint(result) -> str:
    return repr(
        (
            [dataclasses.astuple(r) for r in result.metrics.records],
            result.duration,
            result.total_energy_joules,
            result.idle_energy_joules,
            result.busy_energy_joules,
            result.sprint_energy_joules,
            result.sprinted_seconds,
            result.evictions,
            result.dag_rows,
            result.cp_stretch_sum,
            result.cp_stretch_count,
        )
    )


@pytest.mark.parametrize("scheduler", STAGE_SCHEDULERS)
@pytest.mark.parametrize("scenario_name", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", SEEDS)
def test_closed_form_matches_per_task_path(scenario_name, scheduler, seed, event_owners):
    scenario = SCENARIOS[scenario_name]()
    for policy in _policies(scenario):
        # Slack biasing reweights drop ratios, so it only changes dropping runs.
        drops = any(policy.map_drop_ratio(p) > 0 for p in scenario.priorities)
        for slack_biased in (False, True) if drops else (False,):
            label = (policy.name, slack_biased)
            event_owners.clear()
            closed, simulation = _run(scenario, policy, scheduler, seed, slack_biased)
            owners = Counter(event_owners)
            per_task, _ = _run(scenario, policy, scheduler, seed, slack_biased,
                               per_task=True)
            assert _fingerprint(closed) == _fingerprint(per_task), label
            # One kernel event per attempt (none for an evicted one) on top
            # of the arrivals and the sprinter's timers.
            fired = simulation.sim.processed_events
            assert sum(owners.values()) == fired
            attempts = len(closed.metrics.records) + closed.evictions
            assert owners["DagExecution"] <= attempts, label
            arrivals = len(closed.metrics.records)
            assert fired <= arrivals + attempts + owners["Sprinter"], label


def test_matrix_exercises_eviction_and_mid_attempt_dvfs():
    """Guard the matrix itself: it must contain evictions and sprints."""
    scenario = SCENARIOS["layered"]()
    policies = {p.name: p for p in _policies(scenario)}
    evicting, _ = _run(scenario, policies["P"], "fifo", 0, False)
    assert evicting.evictions > 0
    for name in ("DiAS-limited", "DiAS-unlimited", "NPS"):
        sprinting, simulation = _run(scenario, policies[name], "fifo", 0, False)
        assert sprinting.sprinted_seconds > 0, name
        assert simulation.sprinter.sprints_started > 0, name


def test_reference_takes_the_per_task_path():
    scenario = SCENARIOS["fork-join"]()
    policy = _policies(scenario)[1]
    closed, closed_sim = _run(scenario, policy, "fifo", 0, False)
    _, per_task_sim = _run(scenario, policy, "fifo", 0, False, per_task=True)
    tasks = sum(r.num_map_tasks + r.num_reduce_tasks for r in closed.metrics.records)
    assert per_task_sim.sim.processed_events > tasks
    assert closed_sim.sim.processed_events < tasks


# ------------------------------------------------------------ edge cases
def _stage(index, parents=(), maps=(1.0,), reduces=(), shuffle=0.0):
    return DagStage(index=index, map_task_times=list(maps),
                    reduce_task_times=list(reduces), shuffle_time=shuffle,
                    parents=tuple(parents))


def _job(stages, setup=0.0) -> DagJob:
    profile = JobClassProfile(
        priority=1, name="t", mean_size_mb=100.0, partitions=4, reduce_tasks=1,
        setup_time_full=setup, setup_time_min=setup, shuffle_time=0.0, task_scv=0.0,
    )
    return DagJob(job_id=0, priority=1, arrival_time=0.0, size_mb=100.0,
                  dag=StageDAG(stages), profile=profile)


def _diamond(setup=0.0) -> DagJob:
    """0 -> {1, 2, 3} -> 4 with a shuffle, uneven widths and a slow branch."""
    return _job([
        _stage(0, maps=(2.0, 1.0, 1.5)),
        _stage(1, (0,), maps=(3.0, 0.7, 0.2, 1.1), reduces=(1.0,), shuffle=0.4),
        _stage(2, (0,), maps=(0.3,) * 5),
        _stage(3, (0,), maps=(4.1, 0.9)),
        _stage(4, (1, 2, 3), maps=(1.0, 2.0), reduces=(0.5, 0.5)),
    ], setup=setup)


Action = Tuple[float, int, Callable[[DagExecution], object]]


def _drive(job, per_task, slots, actions: List[Action], scheduler="fifo",
           start_speed=1.0, at_dispatch=None, run_phases=None, **kwargs):
    """Run one execution with interrupts; returns its observable outcome.

    ``run_phases`` maps stage indices to ``(durations, parallel)`` phase
    lists that replace those stages' own phases.
    """
    sim = Simulator()
    cluster = Cluster(ClusterConfig(workers=1, cores_per_worker=slots))
    log = []
    hub = {"telemetry": _null_tracing_hub()} if per_task else {}
    execution = DagExecution(sim, cluster, job, scheduler=scheduler,
                             on_complete=lambda e: log.append(("done", sim.now)),
                             **hub, **kwargs)
    assert execution._closed_form is not per_task
    for index, phases in (run_phases or {}).items():
        execution._runs[index]._phases = phases

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
    return repr((log, execution.completed, execution.evicted,
                 execution.completion_time, execution.sprinted_time))


def _both(job_factory, slots, actions, **kwargs):
    for scheduler in STAGE_SCHEDULERS:
        closed = _drive(job_factory(), False, slots, actions, scheduler, **kwargs)
        per_task = _drive(job_factory(), True, slots, actions, scheduler, **kwargs)
        assert closed == per_task, scheduler


def test_runs_without_interrupts():
    for slots in (1, 2, 3, 5, 16):
        _both(_diamond, slots, [])
        _both(lambda: _diamond(setup=1.5), slots, [])


def _zeroed(job: DagJob, tasks: Dict[int, List[int]]) -> DagJob:
    """Zero the given map tasks (durations are positive by construction)."""
    for index, positions in tasks.items():
        for position in positions:
            job.dag.stage(index).map_task_times[position] = 0.0
    return job


def test_sprint_inside_the_dispatching_event():
    # No task has completed yet inside the dispatching event: the replay
    # must not complete tasks due at the dispatch instant, so the task a
    # zero-duration one hands its slot to starts at the sprint speed.
    # (2.9 / 1.3) * 1.3 / 1.9 != 2.9 / 1.9 in binary floating point.
    at_zero = lambda: _zeroed(_job([_stage(0, maps=(1.0, 1.1, 2.9, 0.7))]), {0: [0]})
    _both(at_zero, 2, [], start_speed=1.3, at_dispatch=lambda e: e.set_speed(1.9))
    _both(_diamond, 3, [], at_dispatch=lambda e: e.set_speed(1.9))
    _both(lambda: _diamond(setup=1.5), 3, [(2.5, 2, lambda e: e.set_speed(1.0))],
          start_speed=1.3, at_dispatch=lambda e: e.set_speed(1.9))


def test_speed_change_exactly_at_task_completion_instants():
    # Without setup on 3 slots: stage 0's tasks end at 1.0, 1.5 and 2.0.
    for instant in (1.0, 1.5, 2.0, 2.3, 3.0, 4.1):
        _both(_diamond, 3, [(instant, 2, lambda e: e.set_speed(1.7))])
    _both(_diamond, 2, [(1.0, 2, lambda e: e.set_speed(2.2)),
                        (2.0, 2, lambda e: e.set_speed(2.2)),
                        (3.0, 2, lambda e: e.set_speed(0.5)),
                        (3.0, 2, lambda e: e.set_speed(1.0))])


def test_speed_changes_at_awkward_ratios():
    # Rescaling is ``now + (f - now) * old / new`` bit for bit; ratios
    # that are not powers of two make every rounding step visible.
    changes = [(0.37, 2, lambda e: e.set_speed(1.9)), (1.93, 2, lambda e: e.set_speed(1.1)),
               (2.41, 2, lambda e: e.set_speed(0.7)), (4.3, 2, lambda e: e.set_speed(1.3))]
    for slots in (2, 3):
        _both(_diamond, slots, changes, start_speed=1.3)
        _both(lambda: _diamond(setup=0.9), slots, changes, start_speed=1.3)


def _tied(first: float, second: float) -> DagJob:
    """Two sources whose completion order decides which child runs first."""
    return _job([_stage(0, maps=(first,)), _stage(1, maps=(second,)),
                 _stage(2, (0,), maps=(1.0, 1.0)), _stage(3, (1,), maps=(3.0,)),
                 _stage(4, (2,), maps=(5.0,))])


def test_simultaneous_completions_fire_in_dispatch_order():
    _both(lambda: _tied(1.0, 1.0), 2, [])
    _both(lambda: _tied(1.0, 1.0), 2, [(0.4, 2, lambda e: e.set_speed(1.7))])


def test_rescale_rounding_ties_fire_in_dispatch_order():
    # Stage 1's task ends one ulp before stage 0's; rescaling at 0.25 to
    # speed 3 rounds both to one instant, where dispatch order decides.
    _both(lambda: _tied(math.nextafter(1.0, 2.0), 1.0), 2,
          [(0.25, 2, lambda e: e.set_speed(3.0))])


def _with_zero_durations() -> DagJob:
    job = _job([
        _stage(0, maps=(1.0, 1.0)),
        _stage(1, (0,), maps=(1.0, 1.0, 1.0), reduces=(1.0,), shuffle=0.5),
        _stage(2, (0,), maps=(2.0,)),
        _stage(3, (1, 2), maps=(1.0,)),
    ])
    job.dag.stage(1).reduce_task_times[0] = 0.0
    return _zeroed(job, {0: [1], 1: [0, 1], 3: [0]})


def test_zero_duration_tasks():
    _both(_with_zero_durations, 2, [])
    _both(_with_zero_durations, 2, [], at_dispatch=lambda e: e.set_speed(1.9))
    for instant in (0.0, 1.0, 1.5, 2.0):
        _both(_with_zero_durations, 2, [(instant, 2, lambda e: e.set_speed(1.7))])
    # Durations that vanish next to the clock: ``now + d / speed == now``.
    tiny = lambda: _job([_stage(0, maps=(5.0,)), _stage(1, (0,), maps=(1e-300,) * 3),
                         _stage(2, (1,), maps=(1.0,))])
    _both(tiny, 2, [(5.0, 2, lambda e: e.set_speed(2.0))])


def test_stage_emptied_by_dropping_activates_its_children_in_cascade():
    def emptied():
        return _job([_stage(0, maps=(1.0, 2.0)), _stage(1, (0,), maps=(1.0,) * 3),
                     _stage(2, (1,), maps=(1.0,) * 2), _stage(3, (0,), maps=(3.0,)),
                     _stage(4, (2, 3), maps=(1.0,))])

    kept = {0: [0, 1], 1: [], 2: [], 3: [0], 4: [0]}
    _both(emptied, 2, [(1.5, 2, lambda e: e.set_speed(1.5))], kept_map_indices=kept)
    _both(emptied, 2, [], kept_map_indices={0: [], 1: [], 2: [], 3: [], 4: []})
    _both(lambda: _diamond(setup=2.0), 2, [(1.0, 2, lambda e: e.set_speed(1.5))],
          kept_map_indices={i: [] for i in range(5)})


def test_setup_time_zero_and_positive():
    for setup in (0.0, 1.5):
        _both(lambda: _diamond(setup=setup), 3, [(1.0, 2, lambda e: e.set_speed(2.0))])
        # A speed change at the setup's end instant.
        _both(lambda: _diamond(setup=setup), 3, [(1.5, 2, lambda e: e.set_speed(2.0))])


def test_eviction_during_setup_and_mid_frontier():
    setup = lambda: _diamond(setup=2.0)
    _both(setup, 3, [(1.0, 0, lambda e: e.evict())])
    _both(setup, 3, [(0.5, 2, lambda e: e.set_speed(2.0)), (1.0, 0, lambda e: e.evict())])
    # Stages 1-3 share the frontier from 2.0 on.
    _both(_diamond, 3, [(3.2, 0, lambda e: e.evict())])
    _both(_diamond, 3, [(2.0, 0, lambda e: e.evict())])
    _both(_diamond, 3, [(2.5, 2, lambda e: e.set_speed(2.0)), (3.0, 2, lambda e: e.evict())])


# ------------------------------------------------------ lone-stage stretch
def test_matrix_runs_the_lone_stage_stretch_and_the_competing_loop(monkeypatch):
    """Guard the matrix: its cells take both halves of the closed-form loop.

    A stage alone on the frontier runs as a list schedule in ``_run_alone``;
    stages that compete take one ``pop_task`` per dispatch.  Sprints must
    also stop a stretch midway (a ``set_speed`` replay inside it).
    """
    from repro.engine.execution import SlotExecution, StageRun

    stretches: Counter = Counter()
    run_alone = SlotExecution._run_alone
    pop_task = StageRun.pop_task

    def counted_run_alone(self, run, *args):
        state = run_alone(self, run, *args)
        stretches["finished" if run.done else "stopped"] += 1
        return state

    def counted_pop_task(self):
        stretches["competing"] += 1
        return pop_task(self)

    monkeypatch.setattr(SlotExecution, "_run_alone", counted_run_alone)
    monkeypatch.setattr(StageRun, "pop_task", counted_pop_task)
    for name in ("layered", "triangle-count"):
        scenario = SCENARIOS[name]()
        policy = next(p for p in _policies(scenario) if p.name == "DiAS-limited")
        stretches.clear()
        _run(scenario, policy, "fifo", 0, False)
        assert stretches["finished"] > 0, name
        if name == "layered":
            assert stretches["competing"] > 0
        else:
            # Triangle counting is a chain: every stage runs alone.
            assert stretches["competing"] == 0
            assert stretches["stopped"] > 0


def test_speed_change_inside_a_stretch_with_a_non_parallel_multi_task_phase():
    # Stage 1 runs alone from 1.0 on; its middle phase runs three tasks one
    # at a time while the other slots idle.
    job = lambda: _job([_stage(0, maps=(1.0,)), _stage(1, (0,), maps=(1.0,))])
    phases = {1: [([0.5, 0.7, 0.3], True), ([0.4, 0.9, 0.2], False), ([1.1, 0.6], True)]}
    for instant in (1.5, 1.7, 2.1, 2.4, 2.5, 3.0, 3.3, 3.5):
        _both(job, 3, [(instant, 2, lambda e: e.set_speed(1.7))], run_phases=phases)
    _both(job, 3, [(1.9, 2, lambda e: e.set_speed(1.3)), (2.6, 2, lambda e: e.set_speed(0.7))],
          run_phases=phases)


def test_stage_left_alone_mid_phase_with_free_slots():
    # Stages 0 and 1 compete from the start; when the narrow one finishes,
    # the wide one is alone with free slots: mid-map (a freed slot takes a
    # pending task) or mid-shuffle (the freed slots idle until the reduces).
    def job(shuffle):
        return lambda: _job([
            _stage(0, maps=(2.0, 1.3, 0.6, 0.9, 1.7, 0.4), reduces=(0.8, 1.2, 0.5),
                   shuffle=shuffle),
            _stage(1, maps=(0.5, 2.6)),
            _stage(2, (0, 1), maps=(1.0,)),
        ])

    for shuffle in (0.0, 1.5):
        _both(job(shuffle), 3, [])
        for instant in (0.5, 1.2, 2.6, 3.1, 4.0, 4.6):
            _both(job(shuffle), 3, [(instant, 2, lambda e: e.set_speed(1.9))])


def test_zero_duration_tasks_at_a_stretch_boundary():
    # The lone stage's last wave ends at the instant its children start:
    # zero-duration tasks close one stretch and open the competing loop, or
    # open a lone stage at the instant its parent finished.
    def job():
        built = _job([
            _stage(0, maps=(1.0, 1.0, 1.0)),
            _stage(1, (0,), maps=(1.0, 1.0)),
            _stage(2, (0,), maps=(1.0,)),
            _stage(3, (1, 2), maps=(1.0, 1.0, 1.0)),
        ])
        return _zeroed(built, {0: [1, 2], 2: [0], 3: [0, 1]})

    _both(job, 2, [])
    _both(job, 2, [], at_dispatch=lambda e: e.set_speed(1.9))
    for instant in (0.0, 1.0, 2.0, 3.0):
        _both(job, 2, [(instant, 2, lambda e: e.set_speed(1.7))])


def test_sprint_inside_the_dispatching_event_of_a_lone_stage():
    # A single stage is alone from the dispatch on; the sprint replays the
    # stretch to just before the dispatch instant, so the zero-duration
    # tasks are still in flight and their slots' next tasks start sprinted.
    job = lambda: _zeroed(_job([_stage(0, maps=(0.3, 0.3, 2.9, 0.7, 1.1),
                                       reduces=(0.6, 0.2), shuffle=0.4)]), {0: [0, 1]})
    for slots in (1, 2, 3):
        _both(job, slots, [], at_dispatch=lambda e: e.set_speed(1.9))
        _both(job, slots, [(0.0, 2, lambda e: e.set_speed(1.1))], start_speed=1.3,
              at_dispatch=lambda e: e.set_speed(1.9))


def test_a_stage_stopped_in_a_stretch_sums_the_work_it_has_left():
    # Stage 1 dispatches two maps while stage 0 competes, then runs alone
    # from 0.5 on.  The stretch does not keep its undispatched-work sum;
    # asked after a stretch stopped at a replay limit, it sums it afresh.
    sim = Simulator()
    cluster = Cluster(ClusterConfig(workers=1, cores_per_worker=3))
    job = _job([_stage(0, maps=(0.5,)), _stage(1, maps=(1.0,) * 5, reduces=(2.0,)),
                _stage(2, (0, 1))])
    execution = DagExecution(sim, cluster, job)
    execution.start()
    run = execution._runs[1]
    assert run.done and run.remaining_work() == 0.0
    execution._run_closed_form(*execution._restore(1.0), 1.0, 0.7)
    assert (run.pending, run.active) == ([1.0, 1.0], 3)
    assert run.remaining_work() == 1.0 + 1.0 + 2.0
