"""Pinned outputs: each default sweep must reproduce its golden CSV to 1e-12.

The CSVs under ``tests/data/`` were written with
``emit(run(parse_config(doc)), "csv", path)`` for the configs below.  Cells
are compared as numbers at abs/rel 1e-12, never byte-wise: a new summation
order or another machine moves the last digits.
"""

import csv
import math
from pathlib import Path

import pytest

from relent.cli import SCENARIOS, emit, parse_config, run

DATA = Path(__file__).resolve().parent / "data"

#: golden file stem -> config document
GOLDEN = {s: {"scenario": s} for s in SCENARIOS}
# the sweep of scripts/run_default_sweep.py
GOLDEN["run_default_sweep"] = {"scenario": "spin_bell_momentum_product", "delta": [0.5, 1.0, 4.0]}

TOL = 1e-12


def _read(text):
    return list(csv.reader(text.splitlines()))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_matches_golden_csv(name):
    want = _read((DATA / f"{name}.csv").read_text(encoding="utf-8"))
    got = _read(emit(run(parse_config(GOLDEN[name])), "csv", None))
    assert got[0] == want[0]
    assert len(got) == len(want)
    header = want[0]
    for i, (g_row, w_row) in enumerate(zip(got[1:], want[1:]), start=1):
        for col, g, w in zip(header, g_row, w_row):
            assert (g == "") == (w == ""), (name, i, col, g, w)
            if w:
                assert math.isclose(float(g), float(w), rel_tol=TOL, abs_tol=TOL), (
                    name, i, col, g, w,
                )
