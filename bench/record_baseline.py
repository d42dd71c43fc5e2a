#!/usr/bin/env python3
"""Runs the benchmark over many seeds and reports each metric's median and spread.

    python3 bench/record_baseline.py [--write]

Run from the root of a relent checkout.  Every (workload, seed) is one
``bench/run.py --trace 0`` process of BENCHMARK.json's ``run_seconds``, for
every workload and seeds 0..SEEDS-1, run one at a time.  The
spread of a metric is the distance between the first and third quartile of its
values (``statistics.quantiles(n=4)``) as a share of their median.

``--write`` also runs one traced pass set per workload at seed 0, times
``relent run --workers 1`` against ``--workers 2`` on the default and the
64x64x32 grid, and writes everything with the run environment to
bench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import run
import workloads

BASELINE = run.HERE / "baseline.json"
SEEDS = 10
THREAD_REPEATS = 3


def bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, float]:
    """The result line of one run.py process, and the wall time of that process."""
    argv = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def threads() -> dict:
    """Median unstolen time of cold `relent run` processes by grid and worker count."""
    shutil.rmtree(run.WORK, ignore_errors=True)
    run.WORK.mkdir()
    cases = {
        "32x32x16 three-width spin_bell_momentum_product":
            [{"scenario": "spin_bell_momentum_product", "delta": [0.5, 1.0, 4.0]}],
        "64x64x32 cli_threads configs": [
            d for d in workloads.configs("cli_threads", workloads.DEFAULT_SEED)
            if d.get("grid") == workloads.FINE_GRID
        ],
    }
    out = {}
    for case, docs in cases.items():
        for i, doc in enumerate(docs):
            (run.WORK / f"threads-{i}.json").write_text(json.dumps(doc), encoding="utf-8")
        for workers in (1, 2):
            walls = []
            for rep in range(THREAD_REPEATS):
                total = 0.0
                for i in range(len(docs)):
                    argv = [sys.executable, "-m", "relent.cli", "run", "--config",
                            str(run.WORK / f"threads-{i}.json"), "--workers", str(workers),
                            "--output", str(run.WORK / "threads.csv")]
                    code, _, seconds, _ = run.spawn(argv, run.WORK / "threads.log")
                    if code != 0:
                        raise SystemExit(f"relent run failed in the thread comparison ({code})")
                    total += seconds
                walls.append(total)
            out.setdefault(case, {})[f"workers_{workers}_s"] = statistics.median(walls)
    return out


def environment() -> dict:
    probe = ("import json, numpy; c = numpy.show_config(mode='dicts'); "
             "print(json.dumps([numpy.__version__, c['Build Dependencies']['blas']]))")
    numpy_version, blas = json.loads(subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=run._env()
    ).stdout)
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True,
                         text=True, check=False)
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git.stdout.strip() if git.returncode == 0 else "unknown",
        "date": time.strftime("%Y-%m-%d"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()

    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    seeds = list(range(SEEDS))
    baseline = {"seeds": seeds, "seconds": seconds, "workloads": {}}
    for name in workloads.WORKLOADS:
        values, failed, attempted, walls = {}, 0, 0, []
        for seed in seeds:
            result, wall = bench(name, seed, seconds, 0)
            walls.append(wall)
            failed += result["failed"]
            attempted += result["attempted"]
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
        entry = {k: summary(v) for k, v in values.items()}
        entry["cell_error_rate"] = {"failed": failed, "attempted": attempted}
        entry["run_wall_s"] = {"max": max(walls), "mean": statistics.fmean(walls)}
        for metric, s in entry.items():
            if "q1" in s:
                print(f"  {name} {metric}: median {s['median']:.4g}, spread {s['spread']:.3f}")
        if args.write:
            traced, wall = bench(name, workloads.DEFAULT_SEED, seconds, 1)
            entry["per_layer_seed0"] = {k: m["value"] for k, m in traced["metrics"].items()}
            entry["run_wall_s"]["trace"] = wall
        baseline["workloads"][name] = entry

    if args.write:
        baseline["threads_cold_relent_run"] = threads()
        baseline["environment"] = environment()
        BASELINE.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {BASELINE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
