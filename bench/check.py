"""Checks relent's sweep outputs cell by cell.

A cell is one (beta, delta) row.  It fails when its config raised, when its
row is missing, or when any column is wrong:

* against a reference (seed 0): every column within abs/rel 1e-12 of the
  reference, the tolerance relent's outputs are pinned to.  Outputs drift by up
  to 5e-15 between machines, so the comparison is never byte-wise.  A
  non-finite value where the reference is finite fails;
* without one (any other seed): beta and delta are the configured inputs,
  exactly the scenario's columns are filled, and each is finite and inside its
  documented range.
"""

from __future__ import annotations

import csv
import io
import math

HEADER = (
    "beta,delta,fidelity,E,min_pt_eig,A,B,C,D,eta,"
    "ineq15_margin,ineq16_margin,identity14_residual,product_distance,qcorr,ccorr"
).split(",")

TOL = 1e-12
#: slack on range ends, for quadrature rounding (FidelityResult allows 1e-9)
RANGE_SLACK = 1e-9

#: documented range of every column
RANGES = {
    "fidelity": (0.0, 1.0),           # squared overlap
    "E": (0.0, 1.0),                  # doubled negativity of a two-qubit state
    "min_pt_eig": (-0.5, 1.0),        # partial-transpose spectrum of a density
    "A": (0.0, 1.0), "B": (0.0, 1.0), "C": (0.0, 1.0), "D": (0.0, 1.0),  # weights
    "eta": (0.0, 2.0),                # 2 <sin^2(Omega/2)> / norm
    "ineq15_margin": (-1.0, 1.0),     # differences of products of probabilities
    "ineq16_margin": (-1.0, 1.0),
    "identity14_residual": (0.0, 1.0),  # relative residual
    "product_distance": (0.0, math.inf),
    "qcorr": (-1.0, 1.0),             # expectation of a product of unit observables
    "ccorr": (-1.0, 1.0),             # sign product
}

#: columns each scenario fills, besides beta and delta
FILLED = {
    "spin_bell_momentum_product": {"fidelity", "E", "min_pt_eig", "A", "B", "C", "D",
                                   "eta", "product_distance"},
    "fidelity_only": {"fidelity"},
    "momentum_bell_spin_up": {"E", "min_pt_eig", "ineq15_margin", "ineq16_margin",
                              "identity14_residual"},
    "both_bell_correlations": {"qcorr", "ccorr"},
}


def parse(text: str) -> list[dict]:
    """CSV rows as dicts of float or None (empty cell); raises ValueError on a bad header."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != HEADER:
        raise ValueError(f"unexpected header {header!r}")
    rows = list(reader)
    if any(len(row) != len(HEADER) for row in rows):
        raise ValueError("a row does not have one value per column")
    return [{k: (float(v) if v else None) for k, v in zip(header, row)} for row in rows]


def _close(x, ref) -> bool:
    if x is None or ref is None:
        return x is ref
    if not math.isfinite(ref):
        return x == ref or (math.isnan(x) and math.isnan(ref))
    return abs(x - ref) <= TOL + TOL * abs(ref)


def _in_range(col, x) -> bool:
    lo, hi = RANGES[col]
    return math.isfinite(x) and lo - RANGE_SLACK <= x <= hi + RANGE_SLACK


def _cell_error(row, beta, delta, scenario, ref) -> str | None:
    if ref is not None:
        bad = [c for c in HEADER if not _close(row[c], ref[c])]
        return f"differs from the reference in {bad}" if bad else None
    if not (_close(row["beta"], beta) and _close(row["delta"], delta)):
        return f"is at ({row['beta']}, {row['delta']})"
    filled = {c for c in HEADER[2:] if row[c] is not None}
    if filled != FILLED[scenario]:
        return f"fills {sorted(filled)}, expected {sorted(FILLED[scenario])}"
    bad = [c for c in filled if not _in_range(c, row[c])]
    return f"is out of range in {bad}" if bad else None


def check(doc: dict, text: str | None, reference: str | None = None) -> tuple[int, list[str]]:
    """(failed cells, messages) for the output ``text`` of config ``doc``.

    ``text`` is None when the config raised, which fails every cell.
    """
    cells = [(b, d) for d in doc["delta"] for b in doc["betas"]]
    if text is None:
        return len(cells), [f"{doc['scenario']}: no output"]
    try:
        rows = parse(text)
        refs = parse(reference) if reference is not None else [None] * len(cells)
    except ValueError as exc:
        return len(cells), [f"{doc['scenario']}: {exc}"]
    messages = []
    for i, (beta, delta) in enumerate(cells):
        if i >= len(rows) or i >= len(refs):
            messages.append(f"{doc['scenario']} cell {i}: missing")
            continue
        err = _cell_error(rows[i], beta, delta, doc["scenario"], refs[i])
        if err:
            messages.append(f"{doc['scenario']} cell {i} (beta={beta}, delta={delta}) {err}")
    if len(rows) > len(cells):
        messages.append(f"{doc['scenario']}: {len(rows) - len(cells)} extra rows")
    return min(len(messages), len(cells)), messages
