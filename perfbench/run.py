#!/usr/bin/env python3
"""Repository benchmark: one DiAS workload, end-to-end or per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fleet-jsq --seed 1 --seconds 15 --trace 0

``--trace 0`` runs the simulation untraced, repeatedly for ``--seconds``
seconds, and reports the end-to-end metrics (medians over the repetitions).
``--trace 1`` alternates untraced and traced repetitions for ``--seconds``
seconds and reports the per-layer metrics of the median traced repetition.
Both modes check the program's outputs.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

The program under test is imported from ``src/`` next to this directory; the
benchmark exits non-zero without a result when it is missing.  See
``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from tracer import SELF_TIME_METRICS, LayerTracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for synthesized traces, inside the checkout, removed on exit.
WORKDIR = ROOT / ".perfbench_work"

#: Everything the workloads import, timed together as ``import.s``.
IMPORTS = (
    "repro",
    "repro.fleet.simulation",
    "repro.dag.simulation",
    "repro.traces.replay",
    "repro.traces.synth",
    "repro.experiments.figures",
    "repro.telemetry",
)
#: Cold set-ups in fresh processes, on top of this process's own set-up.
SETUP_PROBES = 1

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_energy_kj": "kJ",
}

_COUNT = "count"
PER_LAYER = {
    "des.events": _COUNT,
    "des.events_scheduled": _COUNT,
    "des.useful_frac": "ratio",
    "des.heap_compactions": _COUNT,
    "des.self_s": "s",
    "des.events.task": _COUNT,
    "des.events.arrival": _COUNT,
    "des.events.routing": _COUNT,
    "des.events.sprint": _COUNT,
    "des.events.sample": _COUNT,
    "des.events.other": _COUNT,
    "execution.tasks": _COUNT,
    "execution.task_s": "s",
    "execution.tasks_per_s": "1/s",
    "execution.start_calls": _COUNT,
    "execution.set_speed_calls": _COUNT,
    "execution.set_speed_s": "s",
    "execution.evict_calls": _COUNT,
    "execution.evict_s": "s",
    "dag_execution.tasks": _COUNT,
    "dag_execution.task_s": "s",
    "dag_execution.set_speed_calls": _COUNT,
    "dag_execution.set_speed_s": "s",
    "schedulers.select_calls": _COUNT,
    "schedulers.select_s": "s",
    "dias.arrival_s": "s",
    "dropper.plan_calls": _COUNT,
    "dropper.plan_s": "s",
    "dropper.kept_task_frac": "ratio",
    "sprinter.sprints": _COUNT,
    "sprinter.s": "s",
    "dispatcher.select_calls": _COUNT,
    "dispatcher.select_s": "s",
    "metrics.record_calls": _COUNT,
    "metrics.record_s": "s",
    "metrics.summary_s": "s",
    "formats.lines": _COUNT,
    "formats.parse_s": "s",
    "replay.jobs": _COUNT,
    "replay.convert_s": "s",
    "synth.write_s": "s",
    "telemetry.emits": _COUNT,
    "telemetry.emit_s": "s",
    "telemetry.samples": _COUNT,
    "telemetry.sample_s": "s",
    "import.s": "s",
    "workloads.generate_s": "s",
    "other.self_s": "s",
    "trace.overhead_pct": "%",
    "sim_hi_mean_response_s": "s",
    "sim_lo_mean_response_s": "s",
    "sim_p95_response_s": "s",
    "sim_lo_accuracy_loss_pct": "%",
    "sim_waste_pct": "%",
}
#: Largest gap allowed between the summed self times and the traced time.
SELF_TIME_SLACK = 0.01


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no program, unknown workload)."""


def _import_program() -> float:
    """Import the program from ``src/``; returns the import time."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program to benchmark: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    for name in IMPORTS:
        importlib.import_module(name)
    elapsed = time.perf_counter() - started
    module = sys.modules["repro"]
    if not Path(module.__file__).resolve().is_relative_to(SRC):
        raise BenchmarkError(f"repro was imported from {module.__file__}, not {SRC}")
    return elapsed


def _setup_probe(workload: str, seed: int) -> dict:
    """One cold set-up in a fresh process: import plus input generation."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--setup-probe", "--workload", workload, "--seed", str(seed),
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=False
    )
    if done.returncode != 0:
        raise BenchmarkError(f"set-up probe failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _simulate(workload, inputs, seed, tracer=None):
    """One simulation call plus the program's summary, timed.

    Returns ``(sim_s, summary_s, records, run, summary)``.  With a tracer the
    two calls are its root spans.
    """
    records = []
    started = time.perf_counter()
    if tracer is None:
        run = workload.simulate(inputs, seed, records.append)
    else:
        run = tracer.root("other.self_s", workload.simulate, inputs, seed, records.append)
    simulated = time.perf_counter()
    if tracer is None:
        summary = workload.summarize(run.result)
    else:
        summary = tracer.root("metrics.summary_s", workload.summarize, run.result)
    finished = time.perf_counter()
    return simulated - started, finished - simulated, records, run, summary


def _check_first(log, inputs, first):
    """Check the first repetition; returns its record digest and sim metrics."""
    _sim_s, _summary_s, records, run, summary = first
    checks.check_records(log, records, inputs, summary)
    digest = checks.record_digest(records)
    simulated = checks.simulated_metrics(
        records, run.hi, run.lo, run.result.total_energy_kilojoules
    )
    return digest, simulated


def measure_untraced(workload, inputs, seed, seconds, log):
    deadline = time.perf_counter() + seconds
    first = _simulate(workload, inputs, seed)
    digest, simulated = _check_first(log, inputs, first)
    jobs = len(first[2])
    times = [(first[0], first[1])]
    first = None
    # Start another repetition only while at least half of one fits before
    # the deadline: a run overshoots ``seconds`` by at most half a repetition.
    while len(times) < 2 or deadline - time.perf_counter() > 0.5 * times[-1][0]:
        sim_s, summary_s, records, _run, _summary = _simulate(workload, inputs, seed)
        log.check(
            checks.record_digest(records) == digest,
            f"repetition {len(times) + 1} gave different records than the first",
        )
        times.append((sim_s, summary_s))
    return {
        "digest": digest,
        "simulated": simulated,
        "reps": len(times),
        "run_s": statistics.median(t[0] + t[1] for t in times),
        "jobs_per_s": statistics.median(jobs / t[0] for t in times),
    }


def measure_traced(workload, inputs, seed, seconds, log):
    deadline = time.perf_counter() + seconds
    first = _simulate(workload, inputs, seed)
    digest, simulated = _check_first(log, inputs, first)
    untraced = [first[0] + first[1]]
    first = None
    traced = []
    while not traced or time.perf_counter() < deadline:
        if len(traced) == len(untraced):
            sim_s, summary_s, records, _run, _summary = _simulate(workload, inputs, seed)
            untraced.append(sim_s + summary_s)
        else:
            tracer = LayerTracer()
            with tracer:
                sim_s, summary_s, records, _run, _summary = _simulate(
                    workload, inputs, seed, tracer
                )
            total = sim_s + summary_s
            layers = tracer.metrics()
            accounted = sum(layers[name] for name in SELF_TIME_METRICS)
            log.check(
                abs(accounted - total) <= SELF_TIME_SLACK * total,
                f"per-layer self times sum to {accounted:.4f} s, traced run took {total:.4f} s",
            )
            log.check(
                layers["des.events"] == tracer.processed_events(),
                f"traced {layers['des.events']} events, kernels executed "
                f"{tracer.processed_events()}",
            )
            traced.append((total, layers))
        log.check(
            checks.record_digest(records) == digest,
            "a repetition gave different records than the first (tracing must not "
            "change the simulation)",
        )
    traced.sort(key=lambda item: item[0])
    layers = traced[(len(traced) - 1) // 2][1]
    layers["trace.overhead_pct"] = 100.0 * (
        statistics.median(t for t, _ in traced) / statistics.median(untraced) - 1.0
    )
    return {
        "digest": digest,
        "simulated": simulated,
        "reps": len(untraced) + len(traced),
        "layers": layers,
    }


def _cleanup(inputs) -> None:
    path = inputs.data.get("path") if inputs is not None else None
    if path and os.path.exists(path):
        os.remove(path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        raise BenchmarkError(
            f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}"
        )
    import_s = _import_program()

    WORKDIR.mkdir(exist_ok=True)
    inputs = None
    try:
        inputs = workload.prepare(args.seed, str(WORKDIR))
        setup = {
            "import_s": import_s,
            "generate_s": inputs.generate_s,
            "synth_s": inputs.synth_s,
        }
        if args.setup_probe:
            print(json.dumps(setup))
            return 0
        log = checks.CheckLog()
        if args.trace == 0:
            samples = [setup] + [
                _setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)
            ]
            setup_s = statistics.median(sum(s.values()) for s in samples)
            result = measure_untraced(workload, inputs, args.seed, args.seconds, log)
            metrics = {
                "setup_s": setup_s,
                "wall_s": setup_s + result["run_s"],
                "jobs_per_s": result["jobs_per_s"],
                "peak_rss_mb": _peak_rss_mb(),
                "sim_energy_kj": result["simulated"]["sim_energy_kj"],
            }
            units = END_TO_END
        else:
            result = measure_traced(workload, inputs, args.seed, args.seconds, log)
            metrics = dict(result["layers"])
            metrics["import.s"] = import_s
            metrics["workloads.generate_s"] = inputs.generate_s
            metrics["synth.write_s"] = inputs.synth_s
            metrics.update(
                (k, v) for k, v in result["simulated"].items() if k in PER_LAYER
            )
            units = PER_LAYER
    finally:
        _cleanup(inputs)
        if WORKDIR.exists() and not any(WORKDIR.iterdir()):
            WORKDIR.rmdir()

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {result['reps']}")
    print(f"why: {workload.why}")
    print(f"records sha256 {result['digest']}")
    print(f"checks: {log.attempted} attempted, {log.failed} failed, "
          f"failed_frac {log.failed_frac:.6f}")
    for problem in log.problems:
        print(f"  FAILED: {problem}")
    print("simulated:")
    for name, value in result["simulated"].items():
        unit = END_TO_END.get(name) or PER_LAYER[name]
        print(f"  {name:<28} {value!r:>24} {unit}")
    print("metrics:")
    for name, unit in units.items():
        print(f"  {name:<28} {metrics[name]!r:>24} {unit}")
    payload = {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as err:
        print(f"error: {err}", file=sys.stderr)
        sys.exit(2)
