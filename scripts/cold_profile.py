#!/usr/bin/env python3
"""First-call and warm cost of each relent kernel over a pass of sweep configs.

    PYTHONPATH=src python3 scripts/cold_profile.py CONFIG.json [CONFIG.json ...]

A pass runs every config once with ``relent.cli.run``, as ``relent run`` does.
The first pass runs in this fresh process, so it pays every import-time cache
fill and every page the heap has not yet touched; WARM_PASSES passes follow,
then one pass under ``tracemalloc``.  For each kernel the table gives its calls
per pass, the time and the minor page faults (``resource.getrusage(...)
.ru_minflt``) of the first pass and the median of the warm ones, the largest
``tracemalloc`` peak of one call above the memory held when it was entered,
how far the first pass's calls raised the process's peak RSS
(``ru_maxrss``, KiB; the kernel counts it in coarse steps), and how far they
raised its file-backed and its anonymous resident memory (``RssFile`` and
``RssAnon`` of ``/proc/self/status``, KiB): file-backed growth is library code
paged in on first use, anonymous growth is heap and array pages.  The first line
gives the peak RSS after the first pass beside its faults.  A kernel's
numbers include the kernels it calls: ``xstate_stats`` and
``quantum_correlation`` call ``reduced_spin_density``, ``fidelity`` calls
``build_grid`` and ``build_grid`` calls ``gauss_legendre``.  A last line per
config gives the peak RSS (``ru_maxrss`` from ``os.wait4``) of one cold
``python3 -m relent.cli run`` process on it, as the benchmark's
``peak_rss_mb`` measures it.
"""

import importlib
import resource
import statistics
import sys
import time
import tracemalloc

import relent.cli as cli

WARM_PASSES = 10

#: the kernels, wrapped in every relent module that binds them
KERNELS = ("gauss_legendre", "build_grid", "fidelity", "bell_ABCD", "default_sample_pairs",
           "momentum_density_samples", "xstate_stats", "reduced_spin_density",
           "quantum_correlation")
MODULES = ("relent.wavepacket", "relent.relstate", "relent.entanglement", "relent.correlations",
           "relent.cli")

_stats = {}  # kernel -> [calls, seconds, faults, peak bytes, peak RSS, file, anon growth KiB]
_open = []  # absolute tracemalloc peaks of the calls in progress, before their callees reset it


def _faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _peak_rss() -> int:
    """The process's peak resident set so far, in KiB (Linux units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _rss_split() -> tuple:
    """(file-backed, anonymous) resident memory of this process now, in KiB."""
    with open("/proc/self/status", "rb") as fh:
        fields = dict(line.split(b":") for line in fh if line.startswith((b"RssFile", b"RssAnon")))
    return int(fields[b"RssFile"].split()[0]), int(fields[b"RssAnon"].split()[0])


def _wrap(name, fn):
    def profiled(*args, **kwargs):
        tracing = tracemalloc.is_tracing()
        if tracing:
            base, peak = tracemalloc.get_traced_memory()
            if _open:
                _open[-1] = max(_open[-1], peak)
            _open.append(base)
            tracemalloc.reset_peak()
        (file, anon), rss = _rss_split(), _peak_rss()
        faults, start = _faults(), time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds, faults = time.perf_counter() - start, _faults() - faults
            row = _stats.setdefault(name, [0, 0.0, 0, 0, 0, 0, 0])
            row[0] += 1
            row[1] += seconds
            row[2] += faults
            row[4] += _peak_rss() - rss
            file_now, anon_now = _rss_split()
            row[5] += file_now - file
            row[6] += anon_now - anon
            if tracing:
                top = max(_open.pop(), tracemalloc.get_traced_memory()[1])
                row[3] = max(row[3], top - base)
                if _open:
                    _open[-1] = max(_open[-1], top)
    return profiled


def install() -> None:
    """Replace every relent binding of each kernel by one profiling wrapper."""
    wrappers = {}
    for module in map(importlib.import_module, MODULES):
        for attr in KERNELS:
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            if fn not in wrappers:
                wrappers[fn] = _wrap(f"{fn.__module__.removeprefix('relent.')}.{attr}", fn)
            setattr(module, attr, wrappers[fn])


#: runs argv[1:] and prints its exit code and ru_maxrss (KiB).  Linux keeps a process's
#: peak RSS across exec, so a child started from this profiled process would report at
#: least this process's peak; this small starter keeps that floor below relent's own.
_STARTER = ("import os, subprocess, sys; p = subprocess.Popen(sys.argv[1:]); "
            "_, status, usage = os.wait4(p.pid, 0); "
            "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, file=sys.stderr)")


def cold_run_rss(path) -> tuple:
    """(exit code, peak RSS KiB) of one cold ``relent run`` process on the config at ``path``."""
    import subprocess  # here, after the passes: importing it raises this process's RSS 0.5 MiB

    argv = [sys.executable, "-c", _STARTER, sys.executable, "-m", "relent.cli", "run",
            "--config", path]
    proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          check=True)
    code, rss = proc.stderr.split()[-2:]
    return int(code), int(rss)


def one_pass(configs) -> tuple:
    """(seconds, faults, kernel stats) of one pass over ``configs``."""
    _stats.clear()
    faults, start = _faults(), time.perf_counter()
    for config in configs:
        cli.run(config)
    seconds, faults = time.perf_counter() - start, _faults() - faults
    return seconds, faults, {name: list(row) for name, row in _stats.items()}


def main(paths) -> int:
    if not paths:
        sys.stderr.write(__doc__)
        return 2
    try:
        configs = [cli.load_config(path) for path in paths]
    except cli.ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    install()
    first = one_pass(configs)
    first_rss = _peak_rss()
    warm = [one_pass(configs) for _ in range(WARM_PASSES)]
    tracemalloc.start()
    try:
        traced = one_pass(configs)[2]
    finally:
        tracemalloc.stop()

    median = statistics.median
    print(f"pass of {len(configs)} config(s): first {first[0] * 1e3:.2f} ms, {first[1]} faults, "
          f"peak RSS {first_rss / 1024:.2f} MiB; "
          f"warm {median(w[0] for w in warm) * 1e3:.2f} ms, "
          f"{median(w[1] for w in warm):.0f} faults (median of {WARM_PASSES})")
    header = ("kernel", "calls", "first ms", "warm ms", "first faults", "warm faults",
              "peak KiB", "first RSS KiB", "RssFile KiB", "RssAnon KiB")
    print(f"{header[0]:36s}" + "".join(f"{h:>14s}" for h in header[1:]))
    for name, (calls, seconds, faults, _, rss, file, anon) in first[2].items():
        cells = (f"{calls:d}", f"{seconds * 1e3:.3f}",
                 f"{median(w[2][name][1] for w in warm) * 1e3:.3f}", f"{faults:d}",
                 f"{median(w[2][name][2] for w in warm):.0f}", f"{traced[name][3] / 1024:.0f}",
                 f"{rss:d}", f"{file:d}", f"{anon:d}")
        print(f"{name:36s}" + "".join(f"{c:>14s}" for c in cells))
    for path in paths:
        code, rss = cold_run_rss(path)
        print(f"cold relent run {path}: exit {code}, peak RSS {rss / 1024:.2f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
