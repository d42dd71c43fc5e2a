"""Benchmark workloads: the sweep configs each workload runs, made from a seed.

Seed 0 gives the inputs described in BENCHMARK.json exactly, and only seed 0
is compared cell by cell against the stored reference outputs.  Any other seed
moves every beta by up to +/-0.02 (clipped to [0, 0.99], kept ascending), every
width by up to +/-10% and the sample-pair seed, and keeps every count and grid
size, so the cost profile stays the same and no result repeats across seeds.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 0

#: relent's default beta list (21 values); the jittered lists keep its range
DEFAULT_BETAS = tuple([round(0.05 * i, 2) for i in range(20)] + [0.99])
BETA_RANGE = (0.0, 0.99)
#: relent's default sample-pair seed; seed n uses SAMPLE_SEED + n
SAMPLE_SEED = 42

FINE_GRID = {"n_r": 64, "n_theta": 64, "n_phi": 32}

# (scenario, widths, grid or None for relent's default 32x32x16)
_SWEEP_DEFAULT = (
    ("momentum_bell_spin_up", (1.0,), None),
    ("both_bell_correlations", (1.0,), None),
    ("fidelity_only", (1.0,), None),
    ("spin_bell_momentum_product", (0.5, 1.0, 4.0), None),
)
# relent's `{}` config, then three array-bound configs on the 64x64x32 grid,
# each as its own CLI process
_CLI_THREADS = (
    ("spin_bell_momentum_product", (1.0,), None),
    ("momentum_bell_spin_up", (1.0,), FINE_GRID),
    ("both_bell_correlations", (0.01,), FINE_GRID),
    ("fidelity_only", (1.0,), FINE_GRID),
)

WORKLOADS = {
    "sweep_default": _SWEEP_DEFAULT,
    "cli_threads": _CLI_THREADS,
}

#: how each workload runs a pass: in-process `run(workers=1)` or cold CLI processes
KIND = {"sweep_default": "inproc", "cli_threads": "cli"}
CLI_WORKERS = 2


def _betas(rng: random.Random | None) -> list[float]:
    if rng is None:
        return list(DEFAULT_BETAS)
    lo, hi = BETA_RANGE
    return sorted(min(hi, max(lo, b + rng.uniform(-0.02, 0.02))) for b in DEFAULT_BETAS)


def configs(workload: str, seed: int) -> list[dict]:
    """The JSON config documents of one pass of ``workload`` at ``seed``."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = None if seed == DEFAULT_SEED else random.Random(seed)
    out = []
    for scenario, widths, grid in WORKLOADS[workload]:
        doc = {
            "scenario": scenario,
            "betas": _betas(rng),
            "delta": [d if rng is None else d * rng.uniform(0.9, 1.1) for d in widths],
            "seed": SAMPLE_SEED + seed,
        }
        if grid is not None:
            doc["grid"] = dict(grid)
        out.append(doc)
    return out


def cell_count(docs: list[dict]) -> int:
    return sum(len(d["betas"]) * len(d["delta"]) for d in docs)
