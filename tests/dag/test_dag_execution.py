"""Tests for the frontier-driven DagExecution engine."""

from __future__ import annotations

import pytest

from repro.dag.execution import DagExecution
from repro.dag.graph import DagJob, DagStage, StageDAG
from repro.dag.schedulers import FifoStageScheduler
from repro.engine.cluster import Cluster, ClusterConfig
from repro.engine.profiles import JobClassProfile
from repro.simulation.des import Simulator
from repro.telemetry import CallbackSink, TelemetryHub
from repro.workloads.scenarios import HIGH


def profile(**kw) -> JobClassProfile:
    defaults = dict(
        priority=HIGH,
        name="t",
        mean_size_mb=100.0,
        partitions=4,
        reduce_tasks=1,
        setup_time_full=0.0,
        setup_time_min=0.0,
        shuffle_time=0.0,
        task_scv=0.0,
    )
    defaults.update(kw)
    return JobClassProfile(**defaults)


def stage(index, parents=(), maps=(1.0,), reduces=(), shuffle=0.0, droppable=True):
    return DagStage(
        index=index,
        map_task_times=list(maps),
        reduce_task_times=list(reduces),
        shuffle_time=shuffle,
        droppable=droppable,
        parents=tuple(parents),
    )


def make_job(stages, setup=0.0) -> DagJob:
    prof = profile(setup_time_full=setup, setup_time_min=setup)
    return DagJob(
        job_id=0, priority=HIGH, arrival_time=0.0, size_mb=100.0,
        dag=StageDAG(stages), profile=prof,
    )


def run_execution(job, slots=4, scheduler="fifo", **kw):
    sim = Simulator()
    cluster = Cluster(ClusterConfig(workers=1, cores_per_worker=slots))
    done = []
    execution = DagExecution(
        sim, cluster, job, scheduler=scheduler, on_complete=done.append, **kw
    )
    execution.start()
    sim.run()
    assert done == [execution]
    return execution


# -------------------------------------------------------------- basic runs
def test_single_stage_job_completes_at_wave_time():
    job = make_job([stage(0, maps=(2.0, 2.0, 2.0), reduces=(1.0,), shuffle=0.5)])
    execution = run_execution(job, slots=2)
    # Two map waves (4.0) + shuffle (0.5) + reduce (1.0).
    assert execution.completion_time == pytest.approx(5.5)
    assert execution.makespan == pytest.approx(5.5)


def test_setup_delays_all_stages():
    job = make_job([stage(0, maps=(1.0,))], setup=3.0)
    execution = run_execution(job)
    assert execution.completion_time == pytest.approx(4.0)


def test_parallel_branches_overlap():
    # 0 → {1, 2} with one 4-slot wave each: branches must run concurrently.
    job = make_job(
        [
            stage(0, maps=(1.0,)),
            stage(1, parents=(0,), maps=(5.0,)),
            stage(2, parents=(0,), maps=(5.0,)),
        ]
    )
    execution = run_execution(job, slots=4)
    assert execution.completion_time == pytest.approx(6.0)


def test_join_waits_for_all_parents():
    job = make_job(
        [
            stage(0, maps=(1.0,)),
            stage(1, parents=(0,), maps=(5.0,)),
            stage(2, parents=(0,), maps=(2.0,)),
            stage(3, parents=(1, 2), maps=(1.0,)),
        ]
    )
    execution = run_execution(job, slots=4)
    assert execution.completion_time == pytest.approx(7.0)


def test_chain_matches_sequential_sum():
    job = make_job(
        [stage(0, maps=(2.0,)), stage(1, parents=(0,), maps=(3.0,)), stage(2, parents=(1,), maps=(4.0,))]
    )
    execution = run_execution(job, slots=4)
    assert execution.completion_time == pytest.approx(9.0)


def test_makespan_respects_lower_bound():
    job = make_job(
        [
            stage(0, maps=(1.0, 2.0, 3.0)),
            stage(1, parents=(0,), maps=(2.0, 2.0)),
            stage(2, parents=(0,), maps=(4.0,)),
            stage(3, parents=(1, 2), maps=(1.0, 1.0, 1.0, 1.0)),
        ]
    )
    execution = run_execution(job, slots=2)
    assert execution.elapsed >= execution.lower_bound_makespan - 1e-9


# ------------------------------------------------------------ slot pressure
def test_slot_contention_serialises_work():
    # Two independent 1-task stages on a single slot must serialise.
    job = make_job([stage(0, maps=(2.0,)), stage(1, maps=(3.0,))])
    execution = run_execution(job, slots=1)
    assert execution.completion_time == pytest.approx(5.0)


def test_critical_path_first_beats_widest_on_crafted_dag():
    # A long chain (0→1→2) and a wide independent stage; one slot free at a
    # time forces the scheduler's choice to matter.
    stages = [
        stage(0, maps=(2.0,)),
        stage(1, parents=(0,), maps=(2.0,)),
        stage(2, parents=(1,), maps=(2.0,)),
        stage(3, maps=(1.0,) * 6),
    ]
    cpf = run_execution(make_job([s for s in stages]), slots=2, scheduler="critical_path_first")
    widest = run_execution(
        make_job(
            [
                stage(0, maps=(2.0,)),
                stage(1, parents=(0,), maps=(2.0,)),
                stage(2, parents=(1,), maps=(2.0,)),
                stage(3, maps=(1.0,) * 6),
            ]
        ),
        slots=2,
        scheduler="widest_first",
    )
    assert cpf.completion_time <= widest.completion_time


# -------------------------------------------------------------- frontier
def _late_lower_index_job() -> DagJob:
    # Stage 1 becomes ready at 1.0, after stage 2 (a source).
    return make_job(
        [stage(0, maps=(1.0,)), stage(1, parents=(0,), maps=(1.0, 1.0)), stage(2, maps=(3.0,) * 4)]
    )


def test_hook_sees_dispatchable_stages_in_topological_order():
    seen = []

    def hook(point):
        seen.append((point.time, [run.index for run in point.candidates]))
        return 0

    run_execution(_late_lower_index_job(), slots=2, decision_hook=hook)
    # The hook is asked even when a single stage is dispatchable.
    assert seen[:3] == [(0.0, [0, 2]), (0.0, [2]), (1.0, [1, 2])]


@pytest.mark.parametrize("traced", [False, True])
def test_scheduler_is_asked_only_when_stages_compete(traced):
    class Counting(FifoStageScheduler):
        def __init__(self):
            self.candidates = []

        def select(self, ready):
            self.candidates.append(len(ready))
            return super().select(ready)

    scheduler = Counting()
    kwargs = {}
    if traced:
        kwargs["telemetry"] = TelemetryHub(tracing=True)
        kwargs["telemetry"].add_sink(CallbackSink(lambda event: None))
    execution = run_execution(_late_lower_index_job(), slots=2, scheduler=scheduler, **kwargs)
    assert execution._closed_form is not traced
    # fifo serves stage 2 (ready first) before stage 1, whose last task ends at 8.0.
    assert execution.completion_time == pytest.approx(8.0)
    assert scheduler.candidates and min(scheduler.candidates) == 2


# ------------------------------------------------------- dropping integration
def test_uniform_drop_ratio_prunes_droppable_stages():
    job = make_job([stage(0, maps=(1.0,) * 4), stage(1, parents=(0,), maps=(1.0,) * 4, droppable=False)])
    execution = run_execution(job, slots=1, map_drop_ratio=0.5)
    # Droppable stage keeps 2 of 4 tasks; non-droppable keeps all 4.
    assert execution.completion_time == pytest.approx(6.0)


def test_kept_indices_take_precedence():
    job = make_job([stage(0, maps=(1.0, 10.0))])
    execution = run_execution(job, slots=1, kept_map_indices={0: [0]}, map_drop_ratio=0.0)
    assert execution.completion_time == pytest.approx(1.0)


def test_fully_dropped_dag_completes_after_setup():
    job = make_job([stage(0, maps=(1.0,)), stage(1, parents=(0,), maps=(1.0,))], setup=2.0)
    execution = run_execution(job, kept_map_indices={0: [], 1: []})
    assert execution.completed
    assert execution.completion_time == pytest.approx(2.0)


# ----------------------------------------------------------- speed / evict
def test_set_speed_rescales_in_flight_tasks():
    sim = Simulator()
    cluster = Cluster(ClusterConfig(workers=1, cores_per_worker=2))
    job = make_job([stage(0, maps=(8.0,))])
    execution = DagExecution(sim, cluster, job, on_complete=lambda e: None)
    execution.start()
    sim.run(until=2.0)
    execution.set_speed(2.0)  # 6.0 of work left → 3.0 wall seconds
    sim.run()
    assert execution.completion_time == pytest.approx(5.0)
    assert execution.sprinted_time == pytest.approx(3.0)


def test_evict_cancels_everything_and_reports_waste():
    sim = Simulator()
    cluster = Cluster(ClusterConfig(workers=1, cores_per_worker=2))
    job = make_job([stage(0, maps=(8.0, 8.0)), stage(1, parents=(0,), maps=(1.0,))])
    execution = DagExecution(sim, cluster, job, on_complete=lambda e: None)
    execution.start()
    sim.run(until=3.0)
    wasted = execution.evict()
    assert wasted == pytest.approx(3.0)
    assert execution.evicted and not execution.running
    end = sim.run()
    assert not execution.completed
    assert end == pytest.approx(3.0)  # cancelled events are skipped, clock stays


def test_cannot_start_twice_or_evict_idle():
    sim = Simulator()
    cluster = Cluster(ClusterConfig(workers=1, cores_per_worker=2))
    job = make_job([stage(0)])
    execution = DagExecution(sim, cluster, job, on_complete=lambda e: None)
    with pytest.raises(RuntimeError):
        execution.evict()
    execution.start()
    with pytest.raises(RuntimeError):
        execution.start()
