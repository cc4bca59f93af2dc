"""Import-time costs that every CLI call and worker process pays."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_simulation_modules_do_not_import_scipy():
    # scipy.stats alone takes about a second to import; only the Student-t
    # intervals and the phase-type matrix exponential need scipy.
    code = (
        "import sys\n"
        "import repro.fleet.simulation, repro.dag.simulation, repro.traces.replay\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
