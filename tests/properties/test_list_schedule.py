"""The heap list scheduler reproduces the linear-scan LPT makespan exactly."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.engine.job import list_schedule, wave_time


def _reference_wave_time(durations, slots):
    """The pre-heap implementation of ``wave_time``, kept as the oracle."""
    if not durations:
        return 0.0
    finish = [0.0] * min(slots, len(durations))
    for duration in sorted(durations, reverse=True):
        idx = finish.index(min(finish))
        finish[idx] += duration
    return max(finish)


# Coarse values make exact ties (equal slot free times) common.
durations = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
    ),
    max_size=60,
)


@given(durations=durations, slots=st.integers(min_value=1, max_value=25))
@settings(max_examples=500, deadline=None)
def test_wave_time_equals_linear_scan_reference(durations, slots):
    assert wave_time(durations, slots) == _reference_wave_time(durations, slots)


@given(
    durations=durations,
    slots=st.integers(min_value=1, max_value=8),
    start=st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    speed=st.sampled_from([0.5, 1.0, 1.3, 2.0]),
)
@settings(max_examples=300, deadline=None)
def test_list_schedule_matches_event_by_event_dispatch(durations, slots, start, speed):
    """Each task starts when the earliest slot frees, at ``start + d / speed``."""
    free_at = [start] * slots
    list_schedule(free_at, durations, speed)
    # Event-by-event reference: pop the earliest-free slot per task.
    slots_free = [start] * slots
    for duration in durations:
        earliest = min(slots_free)
        slots_free[slots_free.index(earliest)] = earliest + duration / speed
    assert sorted(free_at) == sorted(slots_free)
