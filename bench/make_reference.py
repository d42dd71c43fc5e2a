#!/usr/bin/env python3
"""Writes bench/reference/<workload>-<i>.csv, relent's output for config i at seed 0.

    PYTHONPATH=src python3 bench/make_reference.py

Run from the root of a relent checkout.  The files pin the outputs of the
commit that wrote them; regenerate them only when a change of output is meant.
"""

import sys
from pathlib import Path

import relent.cli

import workloads

REFERENCE = Path(__file__).resolve().parent / "reference"


def main() -> int:
    REFERENCE.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        for i, doc in enumerate(workloads.configs(name, workloads.DEFAULT_SEED)):
            rows = relent.cli.run(relent.cli.parse_config(doc), workers=1)
            relent.cli.emit(rows, "csv", str(REFERENCE / f"{name}-{i}.csv"))
            print(f"{name}-{i}: {doc['scenario']}, {len(rows)} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
