"""The accuracy ledger: every golden cell against a reference that no kernel of the library
computes.

``tests/data/accuracy_reference.json`` holds, for every cell of the golden sweeps and of
``HARD``, the reference of ``oracles.sweep_references`` (its fine evaluation), the spread of
its two evaluations and a mark: "unconverged" where that spread exceeds ``CONVERGED``, so the
reference cannot judge the cell, and "underflow" where the true fidelity lies below the
smallest normal double.  ``tests/write_accuracy_reference.py`` writes it.  Errors are
relative for the fidelity and absolute otherwise.  Per column, ``LEDGER`` holds the number
of unmarked cells outside abs/rel ``TOL`` of their reference and the worst error, and
``MARKED`` the number of marked cells: an accuracy change lowers the entries that it
improves, and no change raises one.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from oracles import sweep_references
from relent.cli import parse_config, run
from test_golden import GOLDEN

REFERENCE = Path(__file__).resolve().parent / "data" / "accuracy_reference.json"

#: cells no golden sweep holds, both marked: at width 1e-3 and beta 0.9999 the fidelity
#: underflows, and at width 1e4 the lab-frame reference has not converged
HARD = {"scenario": "fidelity_only", "betas": [0.9999], "delta": [1e-3, 1e4]}
CONFIGS = {**GOLDEN, "hard_cells": HARD}

TOL = 1e-12
#: the largest spread of a reference's two evaluations that still judges a cell at ``TOL``
CONVERGED = 1e-13

#: column -> (cells outside abs/rel TOL of their reference, worst error), each error rounded
#: up to three digits.  The fidelity's 52 cells are 9 in fidelity_only, 9 in
#: spin_bell_momentum_product and 34 in run_default_sweep, and its worst, 0.11244, is at width
#: 0.5 and beta 0.99, where F = 2.5e-14 lies inside the absolute TOL; the 4 Bell cells are
#: one row of run_default_sweep, width 4 and beta 0.99
LEDGER = {
    "fidelity": (52, 1.13e-1),
    "A": (1, 1.26e-12),
    "B": (0, 5.49e-13),
    "C": (0, 1.61e-13),
    "D": (0, 5.49e-13),
    "eta": (1, 1.74e-12),
    "min_pt_eig": (1, 1.26e-12),
    "E": (1, 2.52e-12),
    "product_distance": (0, 1.25e-16),
    "ineq15_margin": (0, 4.34e-19),
    "ineq16_margin": (0, 7.38e-18),
    "identity14_residual": (0, 1.00e-15),
    "qcorr": (0, 4.45e-16),
    "ccorr": (0, 0.0),
}
#: column -> (unconverged cells, underflowing cells), left out of ``LEDGER``
MARKED = {"fidelity": (1, 1)}


def _error(column, got, want):
    if column == "fidelity":
        return abs(got - want) / abs(want)
    return abs(got - want)


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def measured(reference):
    """column -> list of (error, outside TOL, stem, row, mark) over every cell of every sweep;
    a marked cell has no error."""
    cells = {}
    for stem, doc in CONFIGS.items():
        rows = run(parse_config(doc))
        assert set(reference[stem]) == {k for k, v in rows[0]._asdict().items()
                                        if v is not None} - {"beta", "delta"}
        for column, entries in reference[stem].items():
            assert len(entries["reference"]) == len(rows)
            for i, (row, want, mark) in enumerate(zip(rows, entries["reference"], entries["mark"])):
                got = getattr(row, column)
                error = None if mark else _error(column, got, want)
                outside = not (mark or math.isclose(got, want, rel_tol=TOL, abs_tol=TOL))
                cells.setdefault(column, []).append((error, outside, stem, i, mark))
    return cells


def _ledger(measured):
    """(LEDGER, MARKED) as the cells measure them."""
    ledger, marked = {}, {}
    for column, cells in measured.items():
        errors = [e for e, *_ in cells if e is not None]
        ledger[column] = (sum(outside for _, outside, *_ in cells), max(errors))
        marks = [mark for *_, mark in cells]
        marked[column] = (marks.count("unconverged"), marks.count("underflow"))
    return ledger, marked


def _breaches(measured, ledger, marked):
    """Columns whose count, worst error or marks rise above their entries, or have none."""
    got_ledger, got_marked = _ledger(measured)
    return sorted(
        column for column in got_ledger
        if column not in ledger
        or any(g > e for g, e in zip(got_ledger[column], ledger[column]))
        or any(g > e for g, e in zip(got_marked[column], marked.get(column, (0, 0))))
    ) + sorted(set(ledger) - set(got_ledger))


def test_ledger_holds(measured):
    assert _breaches(measured, LEDGER, MARKED) == []


def test_lowering_any_entry_fails(measured):
    # lowering any entry breaches the ledger: by one cell, or by one in an error's third digit
    lowered = []
    for column, (count, worst) in LEDGER.items():
        if count:
            lowered.append((column, {**LEDGER, column: (count - 1, worst)}, MARKED))
        if worst:
            less = worst - 10.0 ** (math.floor(math.log10(worst)) - 2)
            lowered.append((column, {**LEDGER, column: (count, less)}, MARKED))
    for column, marks in MARKED.items():
        for k in (0, 1):
            if marks[k]:
                fewer = tuple(m - (j == k) for j, m in enumerate(marks))
                lowered.append((column, LEDGER, {**MARKED, column: fewer}))
    assert len(lowered) == 20  # 5 counts, 13 errors and 2 marks above 0
    for column, ledger, marked in lowered:
        assert _breaches(measured, ledger, marked) == [column], (column, ledger[column])


def test_marks_follow_the_references(reference):
    tiny = np.finfo(float).tiny
    for stem, columns in reference.items():
        for column, entries in columns.items():
            for want, spread, mark in zip(entries["reference"], entries["spread"],
                                          entries["mark"]):
                underflow = column == "fidelity" and want < tiny
                assert mark == ("underflow" if underflow
                                else "unconverged" if spread > CONVERGED else ""), (stem, column)


def test_references_recompute(reference, measured):
    # the coarse evaluation of each column's worst cell lies exactly its stored spread from
    # the stored reference, so neither can drift; cells that share a row share one call
    rows = {}
    for column, cells in measured.items():
        _, _, stem, i, _ = max((c for c in cells if not c[-1]), key=lambda c: c[0])
        rows.setdefault((stem, i), []).append(column)
    assert sum(map(len, rows.values())) == len(LEDGER)
    for (stem, i), columns in rows.items():
        config = parse_config(CONFIGS[stem])
        n_beta = len(config.betas)
        cell = config._replace(betas=(config.betas[i % n_beta],))
        coarse = sweep_references(cell, config.delta[i // n_beta], fine=False)
        for column in columns:
            entries = reference[stem][column]
            gap = _error(column, coarse[column][0], entries["reference"][i])
            assert math.isclose(gap, entries["spread"][i], abs_tol=1e-15), (stem, i, column)
