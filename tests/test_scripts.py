"""Smoke test of the experiment scripts, run as a user runs them.

``scripts/run_default_sweep.py`` writes into ``out/``; its sweep is pinned by
the golden CSV ``tests/data/run_default_sweep.csv`` instead.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_transfer_checks_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / "transfer_checks.py")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for heading in (
        "momentum-entangled, spin-product pair (width 1):",
        "Bell-spin, product-momentum pair (bulk momenta ~ 1e3 m):",
        "doubly entangled narrow pair (width 0.01), measurement along the boost axis:",
    ):
        assert heading in proc.stdout
