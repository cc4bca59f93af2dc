"""Simulator-clock-driven periodic telemetry samplers.

A :class:`PeriodicSampler` snapshots one or more *sources* every ``interval``
simulated seconds and publishes each snapshot as a ``sample`` event.  Sources
are ``(src_label, callable)`` pairs whose callable takes the sample time
``now`` and returns a flat dict of numeric fields (optionally with a third,
*stretch* element; see :data:`SampleSource`); the built-in
:func:`kernel_sample_source` exposes the DES kernel's counters
(processed/pending/scheduled events, heap compactions and the event rate per
simulated second).

Properties that matter for correctness:

* **Read-only sampling.**  Source callables must only *read* simulation
  state.  The sampler's own events interleave with the run's events (they
  consume kernel sequence numbers), but because the callbacks never mutate
  engine or controller state and draw no randomness, simulation results with
  sampling enabled are identical to results without it.
* **Batched ticks.**  Nothing can change simulation state between two kernel
  events, so one tick also emits every later tick that falls strictly
  before the next live kernel event (and not past an active
  ``run(until=...)`` horizon), each evaluated at its own time.  The emitted
  stream equals the one-event-per-tick stream except for the kernel's own
  counters (``processed_events``, ``scheduled_events``, ``pending_events``,
  ``events_per_simsec``), which no longer count the batched tick events.
* **Termination.**  A self-rescheduling event would keep a run-to-exhaustion
  kernel alive forever, so the sampler consults ``should_continue()`` after
  every tick and stops rescheduling once it returns False (typically "all
  trace jobs completed").  Without an explicit predicate it falls back to
  "the heap still holds other events", which is correct for bounded runs but
  can overrun on heaps dominated by cancelled far-future events — pass a
  predicate for open-ended workloads.
* **No trailing clock advance.**  One tick is always in flight, and if it
  fired after the workload's last completion it would advance the simulation
  clock past the natural end of the run — changing the reported duration,
  utilisation denominator and idle energy relative to an unsampled run.  The
  run driver therefore calls :meth:`PeriodicSampler.stop` the moment the
  workload completes (e.g. from the controller's ``on_job_complete`` hook):
  the pending tick is lazily cancelled, and a cancelled event is skipped by
  the kernel *without* advancing the clock.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.telemetry.hub import TelemetryHub

if TYPE_CHECKING:  # imported lazily: the kernel itself imports this package
    from repro.simulation.des import Simulator

#: Event priority of sampler ticks: higher than every engine/controller
#: priority in use (0-4), so a sample taken at time T observes the state
#: *after* all state changes scheduled at T.
SAMPLE_PRIORITY = 9

#: ``(src_label, sample)`` or ``(src_label, sample, stretch)``.  ``sample(now)``
#: returns a fresh flat dict of fields.  The optional ``stretch(now)`` returns
#: that same dict together with ``fill(event, t)``, which rewrites the fields
#: that move with time in a copy of it for any later ``t``, as long as no
#: event has changed the state: batched ticks read the state once per stretch.
Sample = Callable[[float], Dict[str, float]]
Fill = Callable[[Dict[str, float], float], None]
SampleSource = Union[
    Tuple[str, Sample],
    Tuple[str, Sample, Callable[[float], Tuple[Dict[str, float], Fill]]],
]


def kernel_sample_source(sim: Simulator) -> Sample:
    """Build a sample source reading the kernel's own counters.

    The returned ``sample(now)`` carries its stretch form as the attribute
    ``stretch`` (pass ``("kernel", source, source.stretch)`` to a sampler).
    The event rate is computed per *simulated* second (events processed since
    the previous sample over simulated time elapsed) so that samples stay
    free of wall-clock quantities and therefore deterministic.
    """
    state = {"time": sim.now, "processed": sim.processed_events}

    def stretch(now: float) -> Tuple[Dict[str, float], Fill]:
        # Reads the kernel's private counters directly: each public property
        # is a Python frame on a path that runs on every sampler callback.
        processed = sim.processed_events

        def fill(event: Dict[str, float], t: float) -> None:
            elapsed = t - state["time"]
            delta = processed - state["processed"]
            state["time"] = t
            state["processed"] = processed
            event["events_per_simsec"] = (delta / elapsed) if elapsed > 0 else 0.0

        event = {
            "processed_events": processed,
            "pending_events": len(sim._heap),
            "scheduled_events": sim._seq,
            "heap_compactions": sim._compactions,
        }
        fill(event, now)
        return event, fill

    def sample(now: float) -> Dict[str, float]:
        return stretch(now)[0]

    sample.stretch = stretch  # type: ignore[attr-defined]
    return sample


class PeriodicSampler:
    """Emits ``sample`` events for every source each ``interval`` sim-seconds."""

    def __init__(
        self,
        sim: Simulator,
        hub: TelemetryHub,
        interval: float,
        sources: Sequence[SampleSource],
        should_continue: Optional[Callable[[], bool]] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"sampling interval must be positive, got {interval!r}")
        if not sources:
            raise ValueError("at least one sample source is required")
        self.sim = sim
        self.hub = hub
        self.interval = float(interval)
        self.sources = list(sources)
        # (src, sample, stretch or None); see SampleSource.
        self._sources = [
            (entry[0], entry[1], entry[2] if len(entry) > 2 else None)
            for entry in self.sources
        ]
        self.should_continue = should_continue
        self.samples_taken = 0
        self._started = False
        self._stopped = False
        self._pending = None

    def start(self) -> None:
        """Take a baseline sample now and schedule the periodic ticks."""
        if self._started:
            raise RuntimeError("the sampler is already started")
        self._started = True
        self._sample([self.sim.now])
        self._pending = self.sim.schedule(
            self.interval, self._tick, priority=SAMPLE_PRIORITY
        )

    def stop(self) -> None:
        """Cancel the in-flight tick so the clock never advances past the run.

        Call this the moment the workload completes: the pending tick is
        lazily cancelled, which the kernel skips *without* advancing the
        clock, so sampled runs end at exactly the same simulated time (and
        idle-energy charge) as unsampled ones.
        """
        self._stopped = True
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    # ------------------------------------------------------------- internals
    def _sample(self, times: List[float]) -> None:
        """Sample every source at ``times``, all before the next state change."""
        columns = []
        for src, fn, stretch in self._sources:
            # Sources return fresh flat dicts; fill in the base fields and
            # hand them straight to the hub (samples dominate the stream).
            if stretch is None:
                column = [fn(now) for now in times]
                for event, now in zip(column, times):
                    event["t"] = now
                    event["kind"] = "sample"
                    event["src"] = src
            else:
                event, fill = stretch(times[0])
                event["t"] = times[0]
                event["kind"] = "sample"
                event["src"] = src
                column = [event]
                for now in times[1:]:
                    event = event.copy()  # emitted events are read-only
                    fill(event, now)
                    event["t"] = now
                    column.append(event)
            columns.append(column)
        self.hub.emit_events([event for row in zip(*columns) for event in row])
        self.samples_taken += len(times)

    def _tick(self, sim: Simulator) -> None:
        self._pending = None
        if self._stopped:
            return
        now = sim.now
        times = [now]
        if self.should_continue is not None:
            alive = self.should_continue()
        else:
            # The tick itself was already popped, so any remaining entry is
            # other work (possibly cancelled; see module docstring).
            alive = sim.pending_events > 0
        interval = self.interval
        # ``due + interval`` step by step: the kernel's own arithmetic for a
        # tick rescheduled one interval after the previous one.
        due = now + interval
        limit = sim.next_live_time() if alive else None
        if limit is not None:
            # State is frozen until the next live event (and so is
            # ``alive``): take those ticks here instead of one event each,
            # up to and including a run(until=...) horizon, as an
            # event-per-tick run would; later ones wait for the next run().
            horizon = sim.horizon
            while due < limit and (horizon is None or due <= horizon):
                times.append(due)
                due = due + interval
        self._sample(times)
        if alive:
            self._pending = sim.schedule_at(due, self._tick, priority=SAMPLE_PRIORITY)
