#!/usr/bin/env python3
"""Self-tests of the benchmark at tiny workload sizes (about ten seconds).

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Checks that every named metric is printed with its unit and matches
``BENCHMARK.json``, that tracing leaves the per-job records byte-identical,
that the per-layer self times add up to the traced run's time, that the
output checks catch broken records, and that the benchmark refuses to run
without the program.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import unittest

import checks
import run
import workloads
from tracer import SELF_TIME_METRICS, LayerTracer

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 7


def setUpModule() -> None:
    workloads.FLEET_JOBS_PER_CLUSTER = 40
    workloads.DAG_JOBS = 30
    workloads.REPLAY_JOBS = 300
    workloads.PAPER_JOBS = 150
    run.SETUP_PROBES = 0
    run._import_program()


def _main(*args: str):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--seed", str(SEED), "--seconds", "0", *args])
    lines = out.getvalue().strip().splitlines()
    return code, lines[:-1], json.loads(lines[-1])


class MetricNames(unittest.TestCase):
    def test_spec_matches_run_py(self):
        self.assertEqual(
            [w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS)
        )
        for w in SPEC["workloads"]:
            self.assertEqual(w["why"], workloads.WORKLOADS[w["name"]].why)
        self.assertEqual(
            {m["name"]: m["unit"] for m in SPEC["end_to_end"]}, run.END_TO_END
        )
        self.assertEqual(
            {m["name"]: m["unit"] for m in SPEC["per_layer"]}, run.PER_LAYER
        )

    def _check_output(self, trace: int, units: dict) -> None:
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                code, text, result = _main("--workload", name, "--trace", str(trace))
                self.assertEqual(code, 0)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], text)
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(
                    {k: v["unit"] for k, v in result["metrics"].items()}, units
                )
                for metric, unit in units.items():
                    value = result["metrics"][metric]["value"]
                    self.assertTrue(
                        any(line.split()[:1] == [metric] and line.split()[-1] == unit
                            for line in text),
                        f"{metric} not printed with its unit {unit}",
                    )
                    self.assertIsInstance(value, (int, float))

    def test_end_to_end_metrics_printed_with_units(self):
        self._check_output(0, run.END_TO_END)

    def test_per_layer_metrics_printed_with_units(self):
        self._check_output(1, run.PER_LAYER)


class Tracing(unittest.TestCase):
    def _traced_and_untraced(self, name):
        workload = workloads.WORKLOADS[name]
        inputs = workload.prepare(SEED, str(run.WORKDIR))
        try:
            plain = run._simulate(workload, inputs, SEED)
            tracer = LayerTracer()
            with tracer:
                traced = run._simulate(workload, inputs, SEED, tracer)
        finally:
            run._cleanup(inputs)
        return plain, traced, tracer

    @classmethod
    def setUpClass(cls):
        run.WORKDIR.mkdir(exist_ok=True)

    @classmethod
    def tearDownClass(cls):
        if run.WORKDIR.exists() and not any(run.WORKDIR.iterdir()):
            run.WORKDIR.rmdir()

    def test_tracing_keeps_records_identical_and_self_times_add_up(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                plain, traced, tracer = self._traced_and_untraced(name)
                self.assertEqual(
                    checks.record_digest(plain[2]), checks.record_digest(traced[2])
                )
                layers = tracer.metrics()
                total = traced[0] + traced[1]
                accounted = sum(layers[m] for m in SELF_TIME_METRICS)
                self.assertAlmostEqual(accounted, total, delta=run.SELF_TIME_SLACK * total)
                self.assertEqual(layers["des.events"], tracer.processed_events())
                self.assertGreater(layers["des.events"], 0)

    def test_patches_are_removed(self):
        from repro.simulation.des import Simulator

        before = Simulator.__dict__["schedule"]
        with LayerTracer():
            self.assertIsNot(Simulator.__dict__["schedule"], before)
        self.assertIs(Simulator.__dict__["schedule"], before)


class OutputChecks(unittest.TestCase):
    def test_checks_catch_broken_records(self):
        workload = workloads.WORKLOADS["paper-evict"]
        inputs = workload.prepare(SEED, str(run.WORKDIR))
        _sim, _summary_s, records, _run, summary = run._simulate(workload, inputs, SEED)

        log = checks.CheckLog()
        checks.check_records(log, records, inputs, summary)
        self.assertEqual(log.failed, 0, log.problems)

        missing = checks.CheckLog()
        checks.check_records(missing, records[1:], inputs, summary)
        self.assertGreater(missing.failed, 0)

        broken = list(records)
        broken[0] = dataclasses.replace(broken[0], start_time=broken[0].arrival_time - 1.0)
        decomposition = checks.CheckLog()
        checks.check_records(decomposition, broken, inputs, summary)
        self.assertGreater(decomposition.failed, 0)

        shifted = list(records)
        shifted[0] = dataclasses.replace(shifted[0], execution_time=shifted[0].execution_time + 1.0)
        self.assertNotEqual(checks.record_digest(shifted), checks.record_digest(records))


class Environment(unittest.TestCase):
    def test_setup_probe(self):
        probe = run._setup_probe("paper-evict", SEED)
        self.assertEqual(set(probe), {"import_s", "generate_s", "synth_s"})
        self.assertGreater(probe["import_s"], 0.0)

    def test_refuses_to_run_without_the_program(self):
        bare = run.WORKDIR / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(run.HERE, bare / run.HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            command = [sys.executable, *SPEC["command"][1:], "--workload", "fleet-jsq",
                       "--seed", "1", "--seconds", "1", "--trace", "0"]
            done = subprocess.run(command, cwd=bare, capture_output=True, text=True,
                                  timeout=120, check=False)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
            if run.WORKDIR.exists() and not any(run.WORKDIR.iterdir()):
                run.WORKDIR.rmdir()


if __name__ == "__main__":
    unittest.main()
