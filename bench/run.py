#!/usr/bin/env python3
"""Benchmark of relent's boost sweeps, run from the root of a relent checkout.

    python3 bench/run.py --workload sweep_default --seed 0 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 55

A pass evaluates every cell of the workload's configs in fresh processes, one
process at a time, because a user pays every import and cache fill once per
``relent run``.  Rounds of passes repeat (at least MIN_ROUNDS of them) as long
as one more round, as long as the longest so far, would end within
``--seconds`` of the start of the process; every cell of every pass is checked
(see check.py).

``--trace 0`` reports the end-to-end metrics: ``pass_s`` (mean time of a
pass), ``cells_per_s`` (cells completed over the time spent in passes),
``setup_s`` (mean time of a cold process that imports relent and runs
``relent validate`` on the workload's configs, without evaluating a cell) and
``peak_rss_mb`` (median over passes of the peak RSS of the process that runs
the pass).  Failed cells over attempted cells, the cell error rate, is
``failed``/``attempted`` in the result line.

The times are stated at a fixed machine speed.  On the shared 2-vCPU VM the
benchmark was written on, the same pass took anywhere from 1x to 3.5x as long,
and a plain NumPy process slowed down with it.  Most of that is time the host
stole from the VM's CPUs, in bursts that make single short processes spread by
+/-25%; every time is therefore measured as unstolen seconds (clock.py).  The
rest is a slower CPU whose speed drifts over minutes and hours, so every round
also times calibrate.py, a fixed process that does not use relent, twice with
as many threads as the pass and twice with one thread.  ``pass_s`` and
``cells_per_s`` are scaled by CALIBRATION_REF_S / (mean calibration time of the
run) at the pass's thread count, and ``setup_s``, whose process runs one
thread on every workload, at one thread.  relent changes the pass time and
never the calibration time.  The summary lines give the unscaled times and the
wall times as well.  Times are means over the run, not medians: single passes
spread almost evenly over +/-30% in wall time, and the median of ten of them
moved twice as much between runs as their mean.  The median over runs, which
compares commits, absorbs a stall.

``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics of tracer.py from the traced ones, plus ``trace.overhead_frac``:
mean traced pass_s over mean untraced pass_s, minus 1.

Every run prints a readable summary, then the result as one JSON line.  relent
is imported from ``src/`` of the current directory, never from elsewhere.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

T0 = time.perf_counter()

import check
import clock
import tracer
import workloads

# the benchmark's own processes never run more BLAS threads than the workload's
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference"

MIN_ROUNDS = 3
#: wall time of `calibrate.py THREADS` by THREADS on the 2-vCPU VM the
#: benchmark was written on, when that machine was quiet
CALIBRATION_REF_S = {1: 0.40, 2: 0.53}

END_TO_END = (("pass_s", "s"), ("cells_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


class BenchError(Exception):
    """The benchmark cannot run here; nothing is reported."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], log: Path) -> tuple[int, float, float, float]:
    """Exit code, wall and unstolen seconds, and peak RSS (MiB) of one child process."""
    with open(log, "w", encoding="utf-8") as err:
        mark = clock.start()
        proc = subprocess.Popen(argv, env=_env(), cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall, seconds = clock.stop(mark)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, seconds, usage.ru_maxrss / 1024.0


def _log_tail(log: Path) -> str:
    lines = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else "(no message)"


def _child(mode: str, configs, outputs, tag: str, trace: bool, first_id: int = 0):
    """Run child.py; returns (exit code, (wall, unstolen) s, peak RSS MiB, result or None, log)."""
    spec = {
        "mode": mode, "configs": [str(p) for p in configs], "outputs": [str(p) for p in outputs],
        "src": str(SRC), "trace": trace, "first_id": first_id,
        "workers": workloads.CLI_WORKERS, "result": str(WORK / f"{tag}.result.json"),
    }
    spec_path = WORK / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    log = WORK / f"{tag}.log"
    code, wall, seconds, rss = spawn([sys.executable, str(HERE / "child.py"), str(spec_path)], log)
    result = None
    if code == 0:
        result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
    return code, (wall, seconds), rss, result, log


class Run:
    """The configs, references and passes of one workload at one seed."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.docs = workloads.configs(name, seed)
        self.cells = workloads.cell_count(self.docs)
        self.configs = []
        for i, doc in enumerate(self.docs):
            path = WORK / f"{name}-config-{i}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            self.configs.append(path)
        self.references = [None] * len(self.docs)
        if seed == workloads.DEFAULT_SEED:
            self.references = [
                (REFERENCE / f"{name}-{i}.csv").read_text(encoding="utf-8")
                for i in range(len(self.docs))
            ]
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.n_pass = 0
        self.n_setup = 0
        self.consistent = True  # exact counts repeat between traced passes

    def setup(self) -> tuple[float, float]:
        """(Wall, unstolen) seconds of one cold `relent validate` process over the configs."""
        self.n_setup += 1
        code, times, _, _, log = _child(
            "validate", self.configs, [], f"{self.name}-setup-{self.n_setup}", False
        )
        if code != 0:
            raise BenchError(f"relent validate failed: {_log_tail(log)}")
        return times

    @property
    def threads(self) -> int:
        """Threads a pass runs at once."""
        return workloads.CLI_WORKERS if workloads.KIND[self.name] == "cli" else 1

    def calibrate(self, threads: int) -> float:
        """Unstolen seconds of one calibrate.py process running THREADS threads."""
        argv = [sys.executable, str(HERE / "calibrate.py"), str(threads)]
        code, _, seconds, _ = spawn(argv, WORK / "calibrate.log")
        if code != 0:
            raise BenchError(f"calibration failed: {_log_tail(WORK / 'calibrate.log')}")
        return seconds

    def one_pass(self, trace: bool) -> tuple[float, float, list, float]:
        """(unstolen pass seconds, peak RSS MiB, spans, wall seconds) of one checked pass."""
        self.n_pass += 1
        tag = f"{self.name}-pass-{self.n_pass}"
        outputs = [WORK / f"{tag}-{i}.csv" for i in range(len(self.docs))]
        errors, spans = [], []
        if workloads.KIND[self.name] == "inproc":
            code, _, rss, result, log = _child("inproc", self.configs, outputs, tag, trace)
            if result is None:
                raise BenchError(f"benchmark process failed ({code}): {_log_tail(log)}")
            seconds, wall = sum(result["seconds"]), sum(result["wall"])
            errors = result["errors"]
            spans = result.get("spans", [])
        else:
            seconds = wall = rss = 0.0
            for i, (config, out) in enumerate(zip(self.configs, outputs)):
                result = None
                if trace:
                    code, (w, s), r, result, log = _child(
                        "cli", [config], [out], f"{tag}-{i}", True, first_id=i * 10**9
                    )
                else:
                    log = WORK / f"{tag}-{i}.log"
                    argv = [sys.executable, "-m", "relent.cli", "run", "--config", str(config),
                            "--workers", str(workloads.CLI_WORKERS), "--format", "csv",
                            "--output", str(out)]
                    code, w, s, r = spawn(argv, log)
                if result is not None:
                    spans += result["spans"]
                    errors.append(result["errors"][0])
                else:
                    errors.append(None if code == 0 else f"exit code {code}: {_log_tail(log)}")
                seconds += s
                wall += w
                rss = max(rss, r)
        for doc, out, err, ref in zip(self.docs, outputs, errors, self.references):
            text = out.read_text(encoding="utf-8") if err is None and out.exists() else None
            failed, messages = check.check(doc, text, ref)
            self.failed += failed
            self.messages += ([err] if err else []) + messages
            out.unlink(missing_ok=True)
        self.attempted += self.cells
        return seconds, rss, spans, wall


def _mean_metrics(samples: list[dict]) -> dict:
    return {k: statistics.fmean(s[k] for s in samples) for k in samples[0]}


def measure(name: str, seed: int, start: float, seconds: float,
            trace: bool) -> tuple[Run, dict, list[str]]:
    """(run, metrics, summary lines) of one workload, ending SECONDS after START."""
    run = Run(name, seed)
    setup, plain, traced = [], [], []
    calibration = {run.threads: [], 1: []}
    if not trace:
        run.setup()  # warm-up: byte-compiles relent and fills the file cache
    # A round brackets the pass with calibration and setup samples, so all of
    # them see the same stretch of machine speed; no round starts that could
    # end past the deadline.
    longest = 0.0
    while True:
        round_start = time.perf_counter()
        if not trace:
            for threads in (run.threads, 1):
                calibration[threads].append(run.calibrate(threads))
            setup.append(run.setup())
        plain.append(run.one_pass(False))
        if trace:
            pass_s, _, spans, _ = run.one_pass(True)
            traced.append((pass_s, tracer.layer_metrics(spans)))
        else:
            for threads in (run.threads, 1):
                calibration[threads].append(run.calibrate(threads))
            setup.append(run.setup())
        now = time.perf_counter()
        longest = max(longest, now - round_start)
        if len(plain) >= (1 if trace else MIN_ROUNDS) and now - start + longest > seconds:
            break
    elapsed = time.perf_counter() - start

    pass_s = [p[0] for p in plain]
    lines = [f"{name} seed {seed}: {len(plain)} passes of {run.cells} cells in {elapsed:.1f} s"]
    if trace:
        # the spans of the last traced pass, for a closer look
        (WORK / f"{name}.spans.json").write_text(json.dumps(spans), encoding="utf-8")
        layers = [m for _, m in traced]
        exact = {k: v for k, v in layers[0].items() if k.rsplit(".", 1)[1] in tracer.EXACT}
        for other in layers[1:]:
            moved = [k for k in exact if other[k] != exact[k]]
            if moved:
                run.consistent = False
                run.messages.append(f"exact counts differ between traced passes: {moved}")
        metrics = {**_mean_metrics(layers), **exact}
        metrics[tracer.OVERHEAD] = (
            statistics.fmean(t for t, _ in traced) / statistics.fmean(pass_s) - 1.0
        )
        units = dict(tracer.layer_metric_names())
        lines += [f"  {k:<52} {v:>14.6g} {units[k]}" for k, v in metrics.items()]
    else:
        scale = {t: CALIBRATION_REF_S[t] / statistics.fmean(c) for t, c in calibration.items()}
        metrics = {
            "pass_s": statistics.fmean(pass_s) * scale[run.threads],
            "cells_per_s": run.cells * len(pass_s) / (sum(pass_s) * scale[run.threads]),
            "setup_s": statistics.fmean(s for _, s in setup) * scale[1],
            "peak_rss_mb": statistics.median(p[1] for p in plain),
        }
        units = dict(END_TO_END)
        notes = {
            "pass_s": f"unscaled: mean {statistics.fmean(pass_s):.4f}, median "
                      f"{statistics.median(pass_s):.4f}, max {max(pass_s):.4f} of {len(pass_s)}; "
                      f"wall mean {statistics.fmean(p[3] for p in plain):.4f}",
            "setup_s": f"unscaled: mean {statistics.fmean(s for _, s in setup):.4f} of "
                       f"{len(setup)}; wall mean {statistics.fmean(w for w, _ in setup):.4f}",
        }
        lines += [f"  {k:<16} {v:>12.6g} {units[k]:<4} {notes.get(k, '')}".rstrip()
                  for k, v in metrics.items()]
        lines += [f"  {f'calibration_{t}':<16} {statistics.fmean(c):>12.6g} s    mean of "
                  f"{len(c)}; {t}-thread times above are scaled by {scale[t]:.4f}"
                  for t, c in sorted(calibration.items())]
    lines.append(f"  {'cell_error_rate':<16} {run.failed / run.attempted:>12.6g} ratio "
                 f"({run.failed} of {run.attempted} cells failed)")
    lines += [f"  FAILED: {m}" for m in run.messages[:10]]
    return run, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "relent" / "cli.py").is_file():
        sys.stderr.write(f"no relent sources under {SRC}; run from the root of a relent checkout\n")
        return 2

    # stop the running child too when the benchmark is told to stop
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    consistent = True
    metrics = {}
    start = T0  # the first workload's deadline counts the process's own start
    try:
        for name in names:
            run, found, lines = measure(name, args.seed, start, args.seconds, bool(args.trace))
            start = time.perf_counter()
            print("\n".join(lines), flush=True)
            attempted += run.attempted
            failed += run.failed
            consistent &= run.consistent
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in found.items()})
    except BenchError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 3
    print(json.dumps({"correct": failed == 0 and consistent, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
