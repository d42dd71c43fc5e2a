"""Spans around relent's public functions, installed from outside the package.

relent's modules bind each other's functions with ``from ... import``, so a
function is wrapped in every namespace that holds it (``relent.cli.fidelity``,
``relent.correlations.reduced_spin_density``, ``relent.relstate.wigner_angle``
and so on).  Every binding of one function is replaced by its own wrapper
around the original, so a call is recorded once, whichever namespace made it.
A binding that a later version of relent no longer has is skipped, and its
counts read 0.

Spans are kept in memory as (id, name, start, end, parent, trace, thread,
error, size) and written out when the traced process ends.  ``trace`` is the
id of the enclosing ``cli._cell`` span, so the spans of one (beta, delta) cell
share it.  A span opened on a pool thread with nothing open on that thread
takes the innermost span open on the main thread as its parent, which is
``cli.run`` waiting on the pool.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time

_RELENT = ("relent.kinematics", "relent.wavepacket", "relent.relstate",
           "relent.entanglement", "relent.correlations", "relent.cli")


def _arg(i, name):
    def get(args, kwargs):
        return args[i] if len(args) > i else kwargs[name]
    return get


def _grid_size(i):
    grid = _arg(i, "grid")
    return lambda args, kwargs, result: grid(args, kwargs).size


def _n_pairs(args, kwargs, result):
    return len(_arg(3, "pairs")(args, kwargs))


def _result_size(args, kwargs, result):
    return int(getattr(result, "size", 1))


#: span name -> (attribute, modules that may bind it, size of the work or None)
TARGETS = {
    "kinematics.wigner_angle": ("wigner_angle", _RELENT, _result_size),
    "kinematics.wigner_matrix": ("wigner_matrix", _RELENT, None),
    "wavepacket.leggauss": ("leggauss", ("numpy.polynomial.legendre",) + _RELENT, None),
    "wavepacket.build_grid": ("build_grid", _RELENT, None),
    "relstate.reduced_spin_density": ("reduced_spin_density", _RELENT, _grid_size(2)),
    "relstate.momentum_density_samples": ("momentum_density_samples", _RELENT, _n_pairs),
    "relstate.default_sample_pairs": ("default_sample_pairs", _RELENT, None),
    "entanglement.fidelity": ("fidelity", _RELENT, _grid_size(2)),
    "entanglement.xstate_stats": ("xstate_stats", _RELENT, _grid_size(2)),
    "entanglement.bell_ABCD": ("bell_ABCD", _RELENT, None),
    "entanglement.partial_transpose": ("partial_transpose", _RELENT, None),
    "correlations.quantum_correlation": ("quantum_correlation", _RELENT, None),
    "cli._cell": ("_cell", ("relent.cli",), None),
    "cli.run": ("run", ("relent.cli",), None),
    "cli.parse_config": ("parse_config", ("relent.cli",), None),
    "cli.emit": ("emit", ("relent.cli",), None),
    "cli.main": ("main", ("relent.cli",), None),
}

#: spans that group a cell's work; self time looks through them to the kernels
TRANSPARENT = frozenset({"cli._cell"})

#: per-layer metrics reported for each span name, besides `errors`
LAYER_METRICS = {
    "relstate.momentum_density_samples": ("calls", "pairs", "busy_s", "us_per_pair"),
    "kinematics.wigner_matrix": ("calls", "busy_s"),
    "wavepacket.leggauss": ("calls", "busy_s"),
    "wavepacket.build_grid": ("calls", "busy_s", "ms_per_call"),
    "entanglement.fidelity": ("calls", "nodes", "busy_s", "ms_per_call"),
    "relstate.reduced_spin_density": ("calls", "nodes", "busy_s", "ns_per_node"),
    "entanglement.xstate_stats": ("calls", "nodes", "busy_s", "ns_per_node"),
    "kinematics.wigner_angle": ("calls", "nodes", "busy_s", "ns_per_node"),
    "correlations.quantum_correlation": ("calls", "busy_s", "self_s"),
    "entanglement.bell_ABCD": ("calls", "busy_s", "ms_per_call"),
    "entanglement.partial_transpose": ("calls",),
    "relstate.default_sample_pairs": ("calls", "busy_s"),
    "cli._cell": ("calls",),
    "cli.run": ("busy_s", "self_s"),
    "cli.parse_config": ("busy_s",),
    "cli.emit": ("busy_s",),
    "cli.main": ("busy_s",),
}

UNITS = {
    "calls": "count", "pairs": "count", "nodes": "count", "errors": "count",
    "busy_s": "s", "self_s": "s", "ms_per_call": "ms", "ns_per_node": "ns",
    "us_per_pair": "us",
}

#: metrics that count work and must repeat exactly between traced passes
EXACT = frozenset({"calls", "pairs", "nodes", "errors"})

OVERHEAD = "trace.overhead_frac"


def layer_metric_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    out = []
    for span, metrics in LAYER_METRICS.items():
        out += [(f"{span}.{m}", UNITS[m]) for m in metrics + ("errors",)]
    return out + [(OVERHEAD, "fraction")]


class Tracer:
    """Records spans from wrappers installed over relent's bindings."""

    def __init__(self, first_id: int = 0):
        self.spans = []
        self._ids = itertools.count(first_id)
        self._stacks = {}  # thread ident -> [(span id, trace id)]
        self._main = threading.main_thread().ident

    def install(self) -> None:
        for name, (attr, modules, size) in TARGETS.items():
            for modname in modules:
                module = importlib.import_module(modname)
                fn = getattr(module, attr, None)
                if callable(fn):
                    setattr(module, attr, self._wrap(name, fn, size))

    def _wrap(self, name, fn, size):
        def traced(*args, **kwargs):
            stack = self._stacks.setdefault(threading.get_ident(), [])
            if stack:
                parent, trace = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent, trace = main[-1] if main else (None, None)
            span_id = next(self._ids)
            if trace is None or name in TRANSPARENT:
                trace = span_id
            stack.append((span_id, trace))
            error, result = False, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                error = True
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                n = size(args, kwargs, result) if size and not error else 0
                self.spans.append(
                    (span_id, name, start, end, parent, trace, threading.get_ident(), error, n)
                )

        return traced


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass from its spans (without the overhead)."""
    children = {}
    for s in spans:
        children.setdefault(s[4], []).append(s)

    def kernels(span_id):
        for c in children.get(span_id, ()):
            if c[1] in TRANSPARENT:
                yield from kernels(c[0])
            else:
                yield c

    def self_time(s):
        covered = [(max(c[2], s[2]), min(c[3], s[3])) for c in kernels(s[0])]
        return (s[3] - s[2]) - _union_length([iv for iv in covered if iv[1] > iv[0]])

    out = {}
    for name, metrics in LAYER_METRICS.items():
        mine = [s for s in spans if s[1] == name]
        calls = len(mine)
        busy = sum(s[3] - s[2] for s in mine)
        size = sum(s[8] for s in mine)
        values = {
            "calls": calls,
            "pairs": size,
            "nodes": size,
            "busy_s": busy,
            "self_s": sum(self_time(s) for s in mine),
            # a function that was never called costs nothing per call
            "ms_per_call": 1e3 * busy / calls if calls else 0.0,
            "ns_per_node": 1e9 * busy / size if size else 0.0,
            "us_per_pair": 1e6 * busy / size if size else 0.0,
            "errors": sum(1 for s in mine if s[7]),
        }
        for m in metrics + ("errors",):
            out[f"{name}.{m}"] = values[m]
    return out
