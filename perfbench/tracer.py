"""Per-layer spans for the traced run, recorded from the benchmark's own files.

:class:`LayerTracer` patches the public entry points of each layer on their
classes (and two module-level functions) for the duration of a ``with``
block, then restores the originals.  Each wrapped call is a span; a span's
*self time* is its duration minus the durations of the spans it directly
contains, and is added to the span's metric (``<module>.<metric>``).  So the
self times of all metrics partition the traced region: their sum equals the
time spent inside the root spans ``run.py`` opens with :meth:`root`.

Kernel events are spans too.  ``Simulator.schedule``/``schedule_at`` wrap
every callback in a timer, classified once per callback code object by the
module and qualified name of its owner (``JobExecution._make_task_callback``
-> ``task``).  ``des.self_s`` is then ``Simulator.run`` minus its callbacks:
the kernel loop, the heap, and the wrappers' own cost.

Nothing here changes what the simulation computes; the self-test checks that
traced and untraced runs give byte-identical records.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

#: Event kinds reported as ``des.events.<kind>``.
EVENT_KINDS = ("task", "arrival", "routing", "sprint", "sample", "other")

#: (module, owner class) -> (event kind, self-time metric, task counter).
_CALLBACK_OWNERS: Dict[Tuple[str, str], Tuple[str, str, str]] = {
    ("repro.engine.execution", "JobExecution"): ("task", "execution.task_s", "execution.tasks"),
    ("repro.dag.execution", "DagExecution"): ("task", "dag_execution.task_s", "dag_execution.tasks"),
    ("repro.core.dias", "DiASSimulation"): ("arrival", "dias.arrival_s", ""),
    ("repro.dag.simulation", "DagSimulation"): ("arrival", "dias.arrival_s", ""),
    ("repro.fleet.simulation", "FleetSimulation"): ("routing", "dias.arrival_s", ""),
    ("repro.core.sprinter", "Sprinter"): ("sprint", "sprinter.s", ""),
    ("repro.fleet.budget", "SharedSprintBudget"): ("sprint", "sprinter.s", ""),
    ("repro.telemetry.sampler", "PeriodicSampler"): ("sample", "telemetry.sample_s", "telemetry.samples"),
}
_OTHER = ("other", "other.self_s", "")

#: Every self-time metric; together they partition the traced region.
SELF_TIME_METRICS = (
    "des.self_s",
    "execution.task_s",
    "execution.set_speed_s",
    "execution.evict_s",
    "dag_execution.task_s",
    "dag_execution.set_speed_s",
    "schedulers.select_s",
    "dias.arrival_s",
    "dropper.plan_s",
    "sprinter.s",
    "dispatcher.select_s",
    "metrics.record_s",
    "metrics.summary_s",
    "formats.parse_s",
    "replay.convert_s",
    "telemetry.emit_s",
    "telemetry.sample_s",
    "other.self_s",
)


def _owner(callback: Callable) -> Tuple[str, str]:
    func = getattr(callback, "__func__", callback)
    qualname = getattr(func, "__qualname__", "")
    return getattr(func, "__module__", ""), qualname.split(".", 1)[0]


def _subclasses(cls) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


class LayerTracer:
    """Collects per-layer self times and counts while patched in."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.simulators: List[Any] = []
        self.sprinters: Dict[int, Any] = {}
        self.kept_tasks = 0
        self.planned_tasks = 0
        self._stack: List[float] = []
        self._kinds: Dict[Any, Tuple[str, str, str]] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        self._dropper_depth = 0

    # ------------------------------------------------------------------ spans
    def _span(self, metric: str, counter: str, fn: Callable) -> Callable:
        """Wrap ``fn`` as a span charging its self time to ``metric``."""
        stack = self._stack
        self_s = self.self_s
        counts = self.counts
        clock = time.perf_counter

        def span(*args, **kwargs):
            if counter:
                counts[counter] += 1
            stack.append(0.0)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - started
                self_s[metric] += duration - stack.pop()
                if stack:
                    stack[-1] += duration

        return span

    def root(self, metric: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` as a root span."""
        return self._span(metric, "", fn)(*args, **kwargs)

    def _callback(self, callback: Callable) -> Callable:
        key = getattr(getattr(callback, "__func__", callback), "__code__", None)
        kind = self._kinds.get(key) if key is not None else None
        if kind is None:
            kind = _CALLBACK_OWNERS.get(_owner(callback), _OTHER)
            if key is not None:
                self._kinds[key] = kind
        event_kind, metric, counter = kind
        events = self.counts
        timed = self._span(metric, counter, callback)
        name = "des.events." + event_kind

        def event(sim):
            events[name] += 1
            timed(sim)

        return event

    # ---------------------------------------------------------------- patching
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap_method(self, cls: type, attr: str, metric: str, counter: str) -> None:
        self._patch(cls, attr, self._span(metric, counter, cls.__dict__[attr]))

    def __enter__(self) -> "LayerTracer":
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self) -> None:
        from repro.core.dropper import TaskDropper
        from repro.core.sprinter import Sprinter
        from repro.dag.execution import DagExecution
        from repro.dag.schedulers import StageScheduler
        from repro.engine.execution import JobExecution
        from repro.fleet.dispatcher import Dispatcher
        from repro.simulation.des import Simulator
        from repro.simulation.metrics import MetricsCollector
        from repro.telemetry.hub import TelemetryHub
        from repro.traces import formats, replay

        tracer = self
        schedule = Simulator.__dict__["schedule"]
        schedule_at = Simulator.__dict__["schedule_at"]
        run = self._span("des.self_s", "", Simulator.__dict__["run"])

        def traced_schedule(sim, delay, callback, *, priority=0, payload=None):
            return schedule(sim, delay, tracer._callback(callback), priority=priority, payload=payload)

        def traced_schedule_at(sim, at, callback, *, priority=0, payload=None):
            return schedule_at(sim, at, tracer._callback(callback), priority=priority, payload=payload)

        def traced_run(sim, *args, **kwargs):
            tracer.simulators.append(sim)
            return run(sim, *args, **kwargs)

        self._patch(Simulator, "schedule", traced_schedule)
        self._patch(Simulator, "schedule_at", traced_schedule_at)
        self._patch(Simulator, "run", traced_run)

        for cls in _subclasses(Dispatcher):
            if "select" in cls.__dict__:
                self._wrap_method(cls, "select", "dispatcher.select_s", "dispatcher.select_calls")
        for cls in _subclasses(StageScheduler):
            if "select" in cls.__dict__:
                self._wrap_method(cls, "select", "schedulers.select_s", "schedulers.select_calls")

        for attr in ("plan", "plan_stages"):
            inner = self._span("dropper.plan_s", "", TaskDropper.__dict__[attr])

            def plan(dropper, job, *args, _inner=inner, **kwargs):
                # ``plan`` delegates to ``plan_stages``: count the outer call.
                tracer._dropper_depth += 1
                try:
                    result = _inner(dropper, job, *args, **kwargs)
                finally:
                    tracer._dropper_depth -= 1
                if tracer._dropper_depth == 0:
                    tracer.counts["dropper.plan_calls"] += 1
                    total = result.total_map_tasks + result.total_reduce_tasks
                    tracer.planned_tasks += total
                    tracer.kept_tasks += total - result.dropped_map_tasks - result.dropped_reduce_tasks
                return result

            self._patch(TaskDropper, attr, plan)

        for attr in ("on_dispatch", "on_job_end"):
            inner = self._span("sprinter.s", "", Sprinter.__dict__[attr])

            def sprinter_hook(sprinter, execution, _inner=inner):
                tracer.sprinters[id(sprinter)] = sprinter
                return _inner(sprinter, execution)

            self._patch(Sprinter, attr, sprinter_hook)

        for cls, layer, start_counter in (
            (JobExecution, "execution", "execution.start_calls"),
            (DagExecution, "dag_execution", ""),
        ):
            start = self._span(layer + ".task_s", start_counter, cls.__dict__["start"])

            def traced_start(execution, *args, _start=start, **kwargs):
                # The controller's completion callback records the job and
                # dispatches the next one: controller work, not engine work.
                execution.on_complete = tracer._span(
                    "dias.arrival_s", "", execution.on_complete
                )
                return _start(execution, *args, **kwargs)

            self._patch(cls, "start", traced_start)
            self._wrap_method(cls, "set_speed", layer + ".set_speed_s", layer + ".set_speed_calls")
        self._wrap_method(JobExecution, "evict", "execution.evict_s", "execution.evict_calls")
        self._wrap_method(DagExecution, "evict", "dag_execution.task_s", "")

        self._wrap_method(MetricsCollector, "record_job", "metrics.record_s", "metrics.record_calls")
        self._wrap_method(TelemetryHub, "emit", "telemetry.emit_s", "telemetry.emits")
        self._wrap_method(TelemetryHub, "emit_event", "telemetry.emit_s", "telemetry.emits")
        self._patch(
            formats,
            "parse_trace_line",
            self._span("formats.parse_s", "formats.lines", formats.parse_trace_line),
        )
        self._patch(
            replay,
            "job_from_trace",
            self._span("replay.convert_s", "replay.jobs", replay.job_from_trace),
        )

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ----------------------------------------------------------------- report
    def metrics(self) -> Dict[str, float]:
        """Every per-layer count and self time gathered so far."""
        counts = self.counts
        out: Dict[str, float] = {name: self.self_s.get(name, 0.0) for name in SELF_TIME_METRICS}
        events = sum(counts.get("des.events." + kind, 0) for kind in EVENT_KINDS)
        scheduled = sum(sim.scheduled_events for sim in self.simulators)
        out["des.events"] = events
        out["des.events_scheduled"] = scheduled
        out["des.useful_frac"] = events / scheduled if scheduled else 0.0
        out["des.heap_compactions"] = sum(sim.heap_compactions for sim in self.simulators)
        for kind in EVENT_KINDS:
            out["des.events." + kind] = counts.get("des.events." + kind, 0)
        for name in (
            "execution.tasks",
            "execution.start_calls",
            "execution.set_speed_calls",
            "execution.evict_calls",
            "dag_execution.tasks",
            "dag_execution.set_speed_calls",
            "schedulers.select_calls",
            "dropper.plan_calls",
            "dispatcher.select_calls",
            "metrics.record_calls",
            "formats.lines",
            "replay.jobs",
            "telemetry.emits",
            "telemetry.samples",
        ):
            out[name] = counts.get(name, 0)
        task_s = out["execution.task_s"]
        out["execution.tasks_per_s"] = out["execution.tasks"] / task_s if task_s > 0 else 0.0
        out["dropper.kept_task_frac"] = (
            self.kept_tasks / self.planned_tasks if self.planned_tasks else 0.0
        )
        out["sprinter.sprints"] = sum(s.sprints_started for s in self.sprinters.values())
        return out

    def processed_events(self) -> int:
        """Events the kernels report as executed (cross-checks ``des.events``)."""
        return sum(sim.processed_events for sim in self.simulators)
