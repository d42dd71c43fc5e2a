"""Command-line driver: scenario sweeps over boost speed and wavepacket width.

Configuration is a single JSON document.  Example:

    {
      "scenario": "spin_bell_momentum_product",
      "betas": [0.0, 0.3, 0.6, 0.9],
      "delta": [1.0],
      "grid": {"n_r": 32, "n_theta": 32, "n_phi": 16, "p_max": "auto"},
      "delta_sign": -1,
      "analytic_limit": false,
      "directions": {"a": [1.0, 0.0, 0.0], "b": [1.0, 0.0, 0.0]},
      "seed": 42
    }

Scenarios populate different columns of the fixed CSV header; cells that a
scenario does not produce stay empty (CSV) or null (JSON).  Identical config
and seed give byte-identical output regardless of worker count: each
(beta, delta) cell is evaluated independently and rows are emitted in config
order.

Exit codes: 0 success, 2 configuration error (including a width outside
[DELTA_MIN, DELTA_MAX] or a fixed grid.p_max above the auto policy's largest
cutoff), 3 numeric/grid-coverage error, 4 I/O error while writing the output
or plot script.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields

import numpy as np

from relent.correlations import (
    ObservableDirection,
    classical_correlation,
    quantum_correlation,
)
from relent.entanglement import (
    bell_ABCD,
    bell_density_from_ABCD,
    entanglement_measure,
    fidelity,
    partial_transpose,
    pt_eigenvalues_from_ABCD,
    separability_verdict,
    xstate_stats,
)
from relent.kinematics import BETA_CAP, Boost
from relent.relstate import (
    BipartiteState,
    bell_phi_plus,
    default_sample_pairs,
    momentum_density_samples,
    product_distance,
)
from relent.wavepacket import (
    EntangledMomentum,
    GaussianProduct,
    GridCoverageError,
    QuadratureGrid,
    build_grid,
    default_p_max,
)

SCENARIOS = (
    "spin_bell_momentum_product",
    "momentum_bell_spin_up",
    "both_bell_correlations",
    "fidelity_only",
)

#: fixed output column order; empty cell means "not produced by the scenario"
CSV_HEADER = (
    "beta,delta,fidelity,E,min_pt_eig,A,B,C,D,eta,"
    "ineq15_margin,ineq16_margin,identity14_residual,product_distance,qcorr,ccorr"
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

#: accepted wavepacket widths (m^2 units).  Inside them the normalisation
#: (pi delta)^-1.5, the four-amplitude products of the momentum-density
#: samples (~ delta^-3), default_p_max and the grid weights (~ p_max^3, with
#: p_max ~ 1.6e5 sqrt(delta) at BETA_CAP) stay far inside the float range;
#: outside about 1e-100 to 1e100 they overflow or underflow.
DELTA_MIN = 1e-12
DELTA_MAX = 1e12

_DEFAULT_BETAS = [round(0.05 * i, 2) for i in range(20)] + [0.99]


class ConfigError(Exception):
    """Configuration problem; the message names the offending field."""


@dataclass(frozen=True)
class GridSpec:
    n_r: int = 32
    n_theta: int = 32
    n_phi: int = 16
    p_max: object = "auto"  # "auto" or a positive number

    def resolve_p_max(self, delta: float, beta: float) -> float:
        if self.p_max == "auto":
            return default_p_max(delta, beta)
        return float(self.p_max)


@dataclass(frozen=True)
class SweepConfig:
    scenario: str = "spin_bell_momentum_product"
    betas: tuple = tuple(_DEFAULT_BETAS)
    delta: tuple = (1.0,)
    grid: GridSpec = GridSpec()
    delta_sign: int = -1
    analytic_limit: bool = False
    direction_a: tuple = (1.0, 0.0, 0.0)
    direction_b: tuple = (1.0, 0.0, 0.0)
    seed: int = 42

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "betas": list(self.betas),
            "delta": list(self.delta),
            "grid": {
                "n_r": self.grid.n_r,
                "n_theta": self.grid.n_theta,
                "n_phi": self.grid.n_phi,
                "p_max": self.grid.p_max,
            },
            "delta_sign": self.delta_sign,
            "analytic_limit": self.analytic_limit,
            "directions": {"a": list(self.direction_a), "b": list(self.direction_b)},
            "seed": self.seed,
        }


@dataclass
class SweepRow:
    """One (beta, delta) cell; None marks columns the scenario does not produce."""

    beta: float
    delta: float
    fidelity: float | None = None
    E: float | None = None
    min_pt_eig: float | None = None
    A: float | None = None
    B: float | None = None
    C: float | None = None
    D: float | None = None
    eta: float | None = None
    ineq15_margin: float | None = None
    ineq16_margin: float | None = None
    identity14_residual: float | None = None
    product_distance: float | None = None
    qcorr: float | None = None
    ccorr: float | None = None


def _expect(cond: bool, field_name: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"config field '{field_name}': {message}")


def _is_int(x) -> bool:
    """A JSON integer; JSON booleans are not numbers here."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    """A JSON number that is a finite float: no boolean, Infinity, NaN or oversize integer."""
    try:
        return (_is_int(x) or isinstance(x, float)) and math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        return False


def parse_config(doc: dict) -> SweepConfig:
    """Validate a JSON document field by field and build the sweep config."""
    if not isinstance(doc, dict):
        raise ConfigError("config root: expected a JSON object")
    known = {
        "scenario", "betas", "delta", "grid", "delta_sign",
        "analytic_limit", "directions", "seed",
    }
    for key in doc:
        if key not in known:
            raise ConfigError(f"config field '{key}': unknown field")

    scenario = doc.get("scenario", "spin_bell_momentum_product")
    _expect(scenario in SCENARIOS, "scenario", f"must be one of {SCENARIOS}, got {scenario!r}")

    betas = doc.get("betas", _DEFAULT_BETAS)
    _expect(isinstance(betas, list) and len(betas) > 0, "betas", "must be a non-empty list")
    for i, x in enumerate(betas):
        _expect(_is_number(x) and 0.0 <= x <= BETA_CAP,
                f"betas[{i}]", f"must be a number in [0, {BETA_CAP}], got {x!r}")
    _expect(all(b2 >= b1 for b1, b2 in zip(betas, betas[1:])), "betas", "must be ascending")

    delta = doc.get("delta", [1.0])
    if _is_number(delta):
        delta = [delta]
    _expect(isinstance(delta, list) and len(delta) > 0, "delta", "must be a number or non-empty list")
    for i, x in enumerate(delta):
        _expect(_is_number(x) and DELTA_MIN <= x <= DELTA_MAX,
                f"delta[{i}]", f"must be a number in [{DELTA_MIN:g}, {DELTA_MAX:g}], got {x!r}")

    grid_doc = doc.get("grid", {})
    _expect(isinstance(grid_doc, dict), "grid", "must be an object")
    grid_kwargs = {}
    for name in ("n_r", "n_theta", "n_phi"):
        if name in grid_doc:
            v = grid_doc[name]
            _expect(_is_int(v) and v >= 2, f"grid.{name}", f"must be an integer >= 2, got {v!r}")
            grid_kwargs[name] = v
    if "p_max" in grid_doc:
        # the largest cutoff the auto policy makes; far above it p_max^2 and
        # the grid weights (~ p_max^3) overflow
        p_max_cap = default_p_max(DELTA_MAX, BETA_CAP)
        v = grid_doc["p_max"]
        _expect(v == "auto" or (_is_number(v) and 0 < v <= p_max_cap), "grid.p_max",
                f"must be 'auto' or a number in (0, {p_max_cap:.6g}], got {v!r}")
        grid_kwargs["p_max"] = v
    unknown_grid = set(grid_doc) - {"n_r", "n_theta", "n_phi", "p_max"}
    _expect(not unknown_grid, f"grid.{sorted(unknown_grid)[0]}" if unknown_grid else "grid", "unknown field")

    delta_sign = doc.get("delta_sign", -1)
    _expect(_is_number(delta_sign) and delta_sign in (-1, 1),
            "delta_sign", f"must be -1 or 1, got {delta_sign!r}")

    analytic_limit = doc.get("analytic_limit", False)
    _expect(isinstance(analytic_limit, bool), "analytic_limit", "must be a boolean")
    _expect(
        not analytic_limit or scenario == "spin_bell_momentum_product",
        "analytic_limit",
        "only applies to the spin_bell_momentum_product scenario",
    )

    directions = doc.get("directions", {"a": [1.0, 0.0, 0.0], "b": [1.0, 0.0, 0.0]})
    _expect(isinstance(directions, dict), "directions", "must be an object with 'a' and 'b'")
    dir_vals = {}
    for key in ("a", "b"):
        v = directions.get(key, [1.0, 0.0, 0.0])
        _expect(isinstance(v, list) and len(v) == 3 and all(_is_number(x) for x in v),
                f"directions.{key}", "must be a 3-vector of finite numbers")
        norm = float(np.linalg.norm(v))
        _expect(abs(norm - 1.0) <= 1e-9, f"directions.{key}", f"must be a unit vector (norm {norm:.6f})")
        dir_vals[key] = tuple(float(x) for x in v)

    seed = doc.get("seed", 42)
    _expect(_is_int(seed) and seed >= 0, "seed", f"must be a non-negative integer, got {seed!r}")

    return SweepConfig(
        scenario=scenario,
        betas=tuple(float(b) for b in betas),
        delta=tuple(float(d) for d in delta),
        grid=GridSpec(**grid_kwargs),
        delta_sign=int(delta_sign),
        analytic_limit=analytic_limit,
        direction_a=dir_vals["a"],
        direction_b=dir_vals["b"],
        seed=seed,
    )


def load_config(path: str) -> SweepConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(doc)


def _set_pt_columns(row: SweepRow, rho) -> None:
    """Lowest partial-transpose eigenvalue and entanglement measure of ``rho``."""
    row.min_pt_eig = float(np.linalg.eigvalsh(partial_transpose(rho))[0])
    row.E = entanglement_measure(rho)


def _cell(
    config: SweepConfig, beta: float, delta: float, base_grid: QuadratureGrid, pairs
) -> SweepRow:
    """Evaluate one (beta, delta) cell of the configured scenario.

    ``base_grid`` and ``pairs`` (None where unused) are the width's
    beta-independent inputs from ``_width_inputs``; the fidelity grid depends
    on beta and is built here.
    """
    row = SweepRow(beta=beta, delta=delta)
    gs = config.grid
    b = Boost(beta)

    if config.scenario in ("spin_bell_momentum_product", "fidelity_only"):
        gp = GaussianProduct(delta)
        state = BipartiteState(gp, bell_phi_plus())
        if not config.analytic_limit:
            fid_grid = build_grid(gs.n_r, gs.n_theta, gs.n_phi, gs.resolve_p_max(delta, beta))
            row.fidelity = fidelity(state, b, fid_grid).fidelity
        if config.scenario == "fidelity_only":
            return row
        v = bell_ABCD(gp, b, base_grid, analytic_limit=config.analytic_limit)
        row.A, row.B, row.C, row.D, row.eta = v.A, v.B, v.C, v.D, v.eta
        _set_pt_columns(row, bell_density_from_ABCD(v))
        if pairs is not None:
            sample = momentum_density_samples(state, b, base_grid, pairs)
            row.product_distance = product_distance(sample)
        return row

    if config.scenario == "momentum_bell_spin_up":
        em = EntangledMomentum(delta, config.delta_sign)
        stats = xstate_stats(em, b, base_grid)
        verdict = separability_verdict(stats)
        row.ineq15_margin = verdict.margin_corner
        row.ineq16_margin = verdict.margin_middle
        row.identity14_residual = stats.mean_product_residual()
        _set_pt_columns(row, stats.density())
        return row

    if config.scenario == "both_bell_correlations":
        em = EntangledMomentum(delta, config.delta_sign)
        a = ObservableDirection(np.array(config.direction_a))
        b_dir = ObservableDirection(np.array(config.direction_b))
        row.qcorr = quantum_correlation(a, b_dir, em, bell_phi_plus(), b, base_grid)
        try:
            row.ccorr = classical_correlation(a, b_dir)
        except ValueError:
            row.ccorr = None  # transverse direction: classical sign undefined
        return row

    raise ConfigError(f"config field 'scenario': unhandled scenario {config.scenario!r}")


def _width_inputs(config: SweepConfig, delta: float):
    """The beta-independent inputs of one width's cells: base grid and sample pairs.

    The base grid has its radial cutoff resolved at beta = 0.  Sample pairs
    are drawn only where the scenario compares the momentum density with its
    marginal product; otherwise ``pairs`` is None.
    """
    gs = config.grid
    base_grid = build_grid(gs.n_r, gs.n_theta, gs.n_phi, gs.resolve_p_max(delta, 0.0))
    pairs = None
    if config.scenario == "spin_bell_momentum_product" and not config.analytic_limit:
        pairs = default_sample_pairs(GaussianProduct(delta), n=64, seed=config.seed)
    return base_grid, pairs


def run(config: SweepConfig, workers: int = 1) -> list[SweepRow]:
    """All (beta, delta) cells in config order; cells are independent.

    Widths are taken one at a time: their beta-independent inputs are built
    once, shared by that width's cells (on the thread pool when ``workers``
    > 1) and released before the next width.
    """
    rows = []
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for delta in config.delta:
            shared = _width_inputs(config, delta)
            if pool is None:
                rows += [_cell(config, beta, delta, *shared) for beta in config.betas]
            else:
                futures = [pool.submit(_cell, config, beta, delta, *shared) for beta in config.betas]
                rows += [f.result() for f in futures]
            del shared
    return rows


def _format_value(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".17g")


def emit(rows: list[SweepRow], fmt: str, path: str | None) -> str:
    """Serialise rows as CSV (fixed header) or JSON; returns the text emitted."""
    if not rows:
        raise ValueError("no rows to emit")
    names = [f.name for f in fields(SweepRow)]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(names)
        for row in rows:
            writer.writerow([_format_value(getattr(row, n)) for n in names])
        text = buf.getvalue()
    elif fmt == "json":
        payload = [
            {n: (None if getattr(r, n) is None else float(getattr(r, n))) for n in names}
            for r in rows
        ]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"cannot write output {path}: {exc}") from exc
    return text


def emit_plotscript(rows: list[SweepRow], path: str, csv_path: str) -> str:
    """gnuplot script drawing the measure and fidelity against boost speed.

    One labelled series per width value and per populated quantity; quantities
    absent from every row are left out.
    """
    deltas = sorted({row.delta for row in rows})
    have_E = any(row.E is not None for row in rows)
    have_F = any(row.fidelity is not None for row in rows)
    lines = [
        "set datafile separator ','",
        "set key outside",
        "set xlabel 'beta'",
        "set ylabel 'value'",
        "set yrange [-0.05:1.05]",
    ]
    series = []
    for d in deltas:
        if have_E:
            series.append(
                f"'{csv_path}' using 1:(column(2)=={_format_value(d)} ? column(4) : 1/0) "
                f"with linespoints title 'E delta={_format_value(d)}'"
            )
        if have_F:
            series.append(
                f"'{csv_path}' using 1:(column(2)=={_format_value(d)} ? column(3) : 1/0) "
                f"with linespoints title 'F delta={_format_value(d)}'"
            )
    if not series:
        raise ValueError("rows contain neither a measure nor a fidelity column")
    lines.append("plot \\")
    lines.append(", \\\n".join("  " + s for s in series))
    text = "\n".join(lines) + "\n"
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write plot script {path}: {exc}") from exc
    return text


def _cmd_run(args) -> int:
    config = load_config(args.config)
    rows = run(config, workers=args.workers)
    text = emit(rows, args.format, args.output)
    if args.output is None:
        sys.stdout.write(text)
    if args.plot is not None:
        emit_plotscript(rows, args.plot, args.output or "sweep.csv")
    return EXIT_OK


def _cmd_validate(args) -> int:
    config = load_config(args.config)
    sys.stdout.write(json.dumps(config.to_json_dict(), indent=2) + "\n")
    return EXIT_OK


def _cmd_limits(_args) -> int:
    """Print the light-speed benchmark table, computed through the pipeline."""
    grid = build_grid(32, 32, 16, default_p_max(1.0))
    v = bell_ABCD(GaussianProduct(1.0), Boost(0.0), grid, analytic_limit=True)
    rho = bell_density_from_ABCD(v)
    spectrum = pt_eigenvalues_from_ABCD(v)
    E = entanglement_measure(rho)
    sys.stdout.write("ultra-relativistic analytic limit (Omega -> theta):\n")
    for name, val in (("A", v.A), ("B", v.B), ("C", v.C), ("D", v.D), ("eta", v.eta)):
        sys.stdout.write(f"  {name} = {val:.12f}\n")
    sys.stdout.write(f"  PT spectrum = [{', '.join(f'{x:.12f}' for x in spectrum)}]\n")
    sys.stdout.write(f"  E = {E:.12f}\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="relent",
        description="Boost sweeps for two-particle spin-momentum entanglement",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured sweep")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--output", default=None, help="output path (default: stdout)")
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_run.add_argument("--plot", default=None, help="write a gnuplot script here")
    p_run.add_argument("--workers", type=int, default=1)
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="validate a config and echo its canonical form")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=_cmd_validate)

    p_lim = sub.add_parser("limits", help="print the analytic-limit reference table")
    p_lim.set_defaults(func=_cmd_limits)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except (GridCoverageError, FloatingPointError, ValueError) as exc:
        sys.stderr.write(f"numeric error: {exc}\n")
        return EXIT_NUMERIC
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
