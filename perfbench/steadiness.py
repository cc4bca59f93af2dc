#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py --seeds 10 --out perfbench/STEADINESS.json

For every workload and end-to-end metric it prints the median and the
quartile spread, ``(q3 - q1) / median`` with the quartiles of
``statistics.quantiles(values, n=4)``, next to the metric's bound from
``BENCHMARK.json``.  A spread under a third of the bound is steady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=None, help="write every run's metrics here as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            command = [
                sys.executable, *spec["command"][1:], "--workload", workload,
                "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
            ]
            started = time.perf_counter()
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
            elapsed = time.perf_counter() - started
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            digest = next(line.split()[-1] for line in lines if line.startswith("records sha256"))
            if not result["correct"]:
                print(f"{workload} seed {seed}: output checks failed", file=sys.stderr)
                return 1
            runs.append({
                "seed": seed,
                "elapsed_s": elapsed,
                "records_sha256": digest,
                **{k: v["value"] for k, v in result["metrics"].items()},
            })
        rows = {}
        for name, bound in bounds.items():
            median, rel = spread([run[name] for run in runs])
            rows[name] = {"median": median, "spread": rel, "bound": bound}
            flag = "ok" if rel < bound / 3 or name == "setup_s" else "WIDE"
            print(f"{workload:<14} {name:<14} median {median:>14.4f}  "
                  f"spread {rel:7.4f}  bound {bound:5.2f}  {flag}", flush=True)
        report["workloads"][workload] = {"spreads": rows, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
