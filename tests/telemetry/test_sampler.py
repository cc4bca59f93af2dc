"""Tests for the simulator-clock periodic sampler."""

from __future__ import annotations

import pytest

from repro.simulation.des import Simulator
from repro.telemetry import (
    PeriodicSampler,
    RingBufferSink,
    TelemetryHub,
    kernel_sample_source,
)


def _hub_with_ring():
    hub = TelemetryHub(sample_interval=1.0)
    ring = hub.add_sink(RingBufferSink(capacity=1024))
    return hub, ring


def test_samples_every_interval():
    sim = Simulator()
    hub, ring = _hub_with_ring()
    for i in range(5):
        sim.schedule(float(i), lambda s: None)
    sampler = PeriodicSampler(sim, hub, 1.0,
                              sources=[("kernel", kernel_sample_source(sim))])
    sampler.start()
    sim.run()
    times = [e["t"] for e in ring.events if e["kind"] == "sample"]
    # Baseline at t=0 plus one tick per interval while work remained.
    assert times[0] == 0.0
    assert times == sorted(times)
    assert sampler.samples_taken == len(times)


def test_sampler_stop_prevents_clock_advance():
    """A cancelled trailing tick must not advance the kernel clock."""
    sim = Simulator()
    hub, _ring = _hub_with_ring()
    sim.schedule(2.5, lambda s: None)
    sampler = PeriodicSampler(sim, hub, 1.0,
                              sources=[("kernel", kernel_sample_source(sim))],
                              should_continue=lambda: True)
    sampler.start()
    # Stop as soon as the workload's only event fires (t=2.5); the pending
    # tick at t=3.0 is cancelled and must be skipped without advancing time.
    sim.schedule(2.5, lambda s: sampler.stop(), priority=10)
    end = sim.run()
    assert end == 2.5
    assert sim.now == 2.5


def test_sampler_without_stop_overruns_the_workload():
    """Control for the stop() test: the trailing tick advances the clock."""
    sim = Simulator()
    hub, _ring = _hub_with_ring()
    sim.schedule(2.5, lambda s: None)
    sampler = PeriodicSampler(sim, hub, 1.0,
                              sources=[("kernel", kernel_sample_source(sim))])
    sampler.start()
    end = sim.run()
    assert end > 2.5


def test_sample_priority_observes_post_state():
    """Samples at time T run after engine events scheduled at T."""
    sim = Simulator()
    hub, ring = _hub_with_ring()
    state = {"value": 0.0}

    def bump(s):
        state["value"] = 1.0

    sim.schedule(1.0, bump)  # priority 0 < SAMPLE_PRIORITY
    sampler = PeriodicSampler(sim, hub, 1.0,
                              sources=[("probe", lambda now: dict(state))])
    sampler.start()
    sim.run()
    at_one = [e for e in ring.events if e["t"] == 1.0 and e["kind"] == "sample"]
    assert at_one and at_one[0]["value"] == 1.0


def test_kernel_source_rate_is_per_simulated_second():
    # The simulator only maintains live per-event counters when it is
    # constructed with an enabled hub, exactly as the engines do.
    hub, ring = _hub_with_ring()
    sim = Simulator(telemetry=hub)
    for i in range(10):
        sim.schedule(0.1 * i, lambda s: None)
    sampler = PeriodicSampler(sim, hub, 1.0,
                              sources=[("kernel", kernel_sample_source(sim))])
    sampler.start()
    sim.run()
    samples = [e for e in ring.events if e["src"] == "kernel"]
    assert samples[0]["events_per_simsec"] == 0.0  # baseline: no time elapsed
    assert all(s["events_per_simsec"] >= 0.0 for s in samples)
    assert samples[-1]["processed_events"] >= 10.0


def test_sampler_validates_arguments():
    sim = Simulator()
    hub, _ = _hub_with_ring()
    with pytest.raises(ValueError):
        PeriodicSampler(sim, hub, 0.0, sources=[("x", lambda now: {})])
    with pytest.raises(ValueError):
        PeriodicSampler(sim, hub, 1.0, sources=[])
    sampler = PeriodicSampler(sim, hub, 1.0, sources=[("x", lambda now: {})])
    sampler.start()
    with pytest.raises(RuntimeError):
        sampler.start()


# ------------------------------------------------------------ batched ticks
#: Kernel-counter fields that count the batched tick events themselves.
KERNEL_COUNTERS = ("processed_events", "scheduled_events", "pending_events", "events_per_simsec")


def _without_kernel_counters(events):
    return [
        {k: v for k, v in e.items() if not (e.get("src") == "kernel" and k in KERNEL_COUNTERS)}
        for e in events
    ]


def _unbatched(monkeypatch):
    # With no visible next event the sampler schedules every tick as an event.
    monkeypatch.setattr(Simulator, "next_live_time", lambda self: None)


def _dias_stream(until=None, interval=5.0):
    from repro.core.dias import DiASSimulation
    from repro.core.policies import SchedulingPolicy
    from repro.workloads.scenarios import reference_two_priority_scenario

    scenario = reference_two_priority_scenario(num_jobs=60)
    hub = TelemetryHub(sample_interval=interval)
    ring = hub.add_sink(RingBufferSink(capacity=1 << 16))
    simulation = DiASSimulation(
        policy=SchedulingPolicy.preemptive_priority(),
        jobs=scenario.generate_trace(seed=2),
        cluster=scenario.cluster,
        seed=2,
        telemetry=hub,
    )
    result = simulation.run(until=until)
    return list(ring.events), result, simulation.sim


def test_batched_ticks_equal_unbatched_apart_from_kernel_counters(monkeypatch):
    batched, batched_result, batched_sim = _dias_stream()
    with monkeypatch.context() as patch:
        _unbatched(patch)
        unbatched, unbatched_result, unbatched_sim = _dias_stream()
    assert _without_kernel_counters(batched) == _without_kernel_counters(unbatched)
    assert batched_result.metrics.records == unbatched_result.metrics.records
    assert batched_result.total_energy_joules == unbatched_result.total_energy_joules
    # The batched run really batched: far fewer kernel events for the same samples.
    assert batched_sim.processed_events < unbatched_sim.processed_events
    assert sum(e["kind"] == "sample" for e in batched) > 100


def test_batched_ticks_stop_at_the_run_horizon(monkeypatch):
    until = 400.0
    batched, _, sim = _dias_stream(until=until)
    with monkeypatch.context() as patch:
        _unbatched(patch)
        unbatched, _, _ = _dias_stream(until=until)
    sample_times = [e["t"] for e in batched if e["kind"] == "sample"]
    assert max(sample_times) <= until
    assert until in sample_times  # a tick due exactly at the horizon fires
    assert _without_kernel_counters(batched) == _without_kernel_counters(unbatched)
    # The first tick past the horizon waits in the heap for the next run().
    assert sim.next_live_time() is not None


def test_batched_fleet_stream_equals_unbatched(monkeypatch):
    from repro.core.policies import SchedulingPolicy
    from repro.fleet.simulation import FleetSimulation
    from repro.workloads.scenarios import fleet_two_priority_scenario

    def stream():
        scenario = fleet_two_priority_scenario(num_clusters=2, num_jobs_per_cluster=20)
        hub = TelemetryHub(sample_interval=2.0)
        ring = hub.add_sink(RingBufferSink(capacity=1 << 16))
        FleetSimulation(
            policy=SchedulingPolicy.preemptive_priority(),
            jobs=scenario.generate_trace(seed=1),
            clusters=scenario.make_clusters(),
            dispatcher="least_work_left",
            seed=1,
            telemetry=hub,
        ).run()
        return list(ring.events)

    batched = stream()
    with monkeypatch.context() as patch:
        _unbatched(patch)
        unbatched = stream()
    assert _without_kernel_counters(batched) == _without_kernel_counters(unbatched)


def test_next_live_time_skips_cancelled_entries_without_popping():
    sim = Simulator()
    events = [sim.schedule(float(t), lambda s: None) for t in (1, 2, 3, 4, 5)]
    for event in events[:3]:
        event.cancel()
    assert sim.next_live_time() == 4.0
    assert sim.pending_events == 5
    events[3].cancel()
    events[4].cancel()
    assert sim.next_live_time() is None


def test_inlined_sample_fields_equal_the_reference_methods():
    """``telemetry_stretch`` inlines work_left and projected_joules exactly."""
    from repro.core.dias import DiASSimulation
    from repro.core.policies import SchedulingPolicy
    from repro.workloads.scenarios import reference_two_priority_scenario

    scenario = reference_two_priority_scenario(num_jobs=30)
    simulation = DiASSimulation(
        policy=SchedulingPolicy.preemptive_priority(),
        jobs=scenario.generate_trace(seed=4),
        cluster=scenario.cluster,
        seed=4,
    )
    checked = []

    def check(sim):
        now = sim.now
        sample, fill = simulation.telemetry_stretch(now)
        later = dict(sample)
        fill(later, now + 3.5)
        for event, t in ((sample, now), (later, now + 3.5)):
            assert event["work_left"] == simulation.work_left(t)
            assert event["energy_joules"] == simulation.energy_meter.projected_joules(t)
        checked.append(simulation._running is not None)

    for t in range(10, 2000, 37):
        simulation.sim.schedule_at(float(t), check, priority=9)
    simulation.run()
    assert True in checked and False in checked  # busy and idle stretches
