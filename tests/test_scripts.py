"""Smoke test of the experiment scripts, run as a user runs them.

``scripts/transfer_checks.py``'s whole stdout is pinned byte for byte.

``scripts/run_default_sweep.py`` writes into ``out/``; its sweep is pinned by
the golden CSV ``tests/data/run_default_sweep.csv`` instead, and its gnuplot
writer is loaded from the script and tested on rows of ``relent.cli.run``.
"""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from relent.cli import parse_config, run

ROOT = Path(__file__).resolve().parent.parent


def _load_script(name):
    """``scripts/<name>.py`` as a module, without running its ``main``."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


emit_plotscript = _load_script("run_default_sweep").emit_plotscript


#: the whole stdout of ``scripts/transfer_checks.py``
_TRANSFER_CHECKS = (
    "momentum-entangled, spin-product pair (width 1):\n"
    "  beta     corner margin   middle margin   verdict\n"
    "   0.1000  -1.403e-11     -3.561e-08   separable (PPT)\n"
    "   0.3000  -1.150e-08     -3.112e-06   separable (PPT)\n"
    "   0.5000  -3.199e-07     -2.839e-05   separable (PPT)\n"
    "   0.7000  -3.885e-06     -1.483e-04   separable (PPT)\n"
    "   0.9000  -4.721e-05     -7.627e-04   separable (PPT)\n"
    "   0.9900  -2.964e-04     -2.485e-03   separable (PPT)\n"
    "   0.9999  -5.962e-04     -3.860e-03   separable (PPT)\n"
    "\n"
    "Bell-spin, product-momentum pair (bulk momenta ~ 1e3 m):\n"
    "  beta     factorization distance\n"
    "   0.1000  4.342e-09\n"
    "   0.3000  3.287e-08\n"
    "   0.5000  8.845e-08\n"
    "   0.7000  1.893e-07\n"
    "   0.9000  4.952e-07\n"
    "   0.9900  8.423e-07\n"
    "   0.9999  9.007e-07\n"
    "\n"
    "doubly entangled narrow pair (width 0.01), measurement along the boost axis:\n"
    "  beta     quantum    classical\n"
    "   0.1000  +0.999975  +1.0\n"
    "   0.3000  +0.999767  +1.0\n"
    "   0.5000  +0.999291  +1.0\n"
    "   0.7000  +0.998354  +1.0\n"
    "   0.9000  +0.996129  +1.0\n"
    "   0.9900  +0.992599  +1.0\n"
    "   0.9999  +0.990454  +1.0\n"
)


def test_transfer_checks_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / "transfer_checks.py")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == _TRANSFER_CHECKS


def test_cold_profile_runs(tmp_path):
    configs = []
    for i, doc in enumerate([
        {"scenario": "spin_bell_momentum_product", "betas": [0.0, 0.9], "delta": [1.0, 4.0]},
        {"scenario": "momentum_bell_spin_up", "betas": [0.5]},
    ]):
        configs.append(tmp_path / f"config{i}.json")
        configs[-1].write_text(json.dumps(doc), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / "cold_profile.py"),
         *map(str, configs)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("pass of 2 config(s): first ")
    assert re.search(r" faults, peak RSS \d+\.\d\d MiB; warm ", lines[0])
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:]}
    # calls per pass: one array program per config, and each binding wrapped once
    calls = {"entanglement.fidelity": 1, "entanglement.bell_ABCD": 1,
             "relstate.momentum_density_samples": 1, "entanglement.xstate_stats": 1,
             "relstate.reduced_spin_density": 1, "wavepacket.build_grid": 3}
    for kernel, n in calls.items():
        (count, first_ms, warm_ms, first_faults, warm_faults, peak_kib, rss_kib, file_kib,
         anon_kib) = rows[kernel]
        assert int(count) == n and float(first_ms) > 0.0 and float(warm_ms) > 0.0
        assert int(first_faults) >= 0 and float(warm_faults) >= 0.0 and float(peak_kib) >= 0.0
        assert int(rss_kib) >= 0
        # resident memory can also shrink during a call
        assert re.fullmatch(r"-?\d+", file_kib) and re.fullmatch(r"-?\d+", anon_kib)
    # the sampler allocates its two results, so its traced peak cannot read 0
    assert float(rows["relstate.momentum_density_samples"][5]) > 0.0
    # then one cold `relent run` process per config, measured by its peak RSS
    for line, path in zip(lines[-2:], configs):
        found = re.fullmatch(rf"cold relent run {re.escape(str(path))}: exit 0, "
                             r"peak RSS (\d+\.\d\d) MiB", line)
        assert found is not None and float(found.group(1)) > 0.0, line

    missing = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "cold_profile.py"), str(tmp_path / "none.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert missing.returncode == 2 and "cannot read config" in missing.stderr


class TestPlotScript:
    def test_both_quantities(self, tmp_path):
        cfg = parse_config({"betas": [0.0, 0.5], "grid": {"n_r": 16, "n_theta": 16, "n_phi": 8}})
        rows = run(cfg)
        text = emit_plotscript(rows, str(tmp_path / "plot.gp"), "sweep.csv")
        # E is the CSV's fourth column and the fidelity its third
        assert text.splitlines()[-2:] == [
            "  'sweep.csv' using 1:(column(2)==1 ? column(4) : 1/0) "
            "with linespoints title 'E delta=1', \\",
            "  'sweep.csv' using 1:(column(2)==1 ? column(3) : 1/0) "
            "with linespoints title 'F delta=1'",
        ]

    def test_quote_in_csv_path_is_doubled(self, tmp_path):
        # gnuplot reads '' inside a single-quoted string as one quote; the path
        # used to be pasted in as is, which ended the string early
        rows = run(parse_config({"betas": [0.0, 0.5], "delta": [0.5, 1.0]}))
        csv_path = str(tmp_path / "it's a 'sweep'.csv")
        text = emit_plotscript(rows, str(tmp_path / "plot.gp"), csv_path)
        series = [line for line in text.splitlines() if " using 1:" in line]
        assert len(series) == 4
        for line in series:
            quoted = re.match(r"\s*'((?:[^']|'')*)' using 1:", line)
            assert quoted is not None, line
            assert quoted.group(1).replace("''", "'") == csv_path

    def test_fidelity_only_drops_measure_series(self, tmp_path):
        cfg = parse_config(
            {
                "scenario": "fidelity_only",
                "betas": [0.0, 0.5],
                "grid": {"n_r": 16, "n_theta": 16, "n_phi": 8},
            }
        )
        text = emit_plotscript(run(cfg), str(tmp_path / "plot.gp"), "s.csv")
        assert "F delta=" in text
        assert "E delta=" not in text

    def test_two_widths_two_series_each(self, tmp_path):
        cfg = parse_config(
            {
                "betas": [0.0, 0.5],
                "delta": [0.5, 1.0],
                "grid": {"n_r": 16, "n_theta": 16, "n_phi": 8},
            }
        )
        text = emit_plotscript(run(cfg), str(tmp_path / "plot.gp"), "s.csv")
        assert text.count("E delta=") == 2
        assert text.count("F delta=") == 2
