"""Command-line driver: scenario sweeps over boost speed and wavepacket width.

Configuration is a single JSON document.  Example:

    {
      "scenario": "spin_bell_momentum_product",
      "betas": [0.0, 0.3, 0.6, 0.9],
      "delta": [1.0],
      "grid": {"n_r": 32, "n_theta": 32, "p_max": "auto"},
      "delta_sign": -1,
      "analytic_limit": false,
      "directions": {"a": [1.0, 0.0, 0.0], "b": [1.0, 0.0, 0.0]},
      "seed": 42
    }

The azimuth is integrated by a fixed exact rule
(``wavepacket.AZIMUTH_NODES``), so ``grid.n_phi`` is accepted, validated and
echoed for old configs but has no effect; likewise ``--workers``.
``grid.n_theta`` sets the polar rule of the fidelity and the Bell weights
only: the two momentum-entangled scenarios integrate cos(theta) in closed
form.  A fixed ``grid.p_max`` sets the radial cutoff of the Bell weights, the
spin density and the pair sampler, not the fidelity's, which is always the
auto policy's.  Scenarios populate different columns of the fixed CSV header;
cells that a scenario does not produce stay empty (CSV) or null (JSON).  A
config's widths and betas are evaluated together (``run``), and every row
equals the row of a sweep over its beta and width alone.  Identical config
and seed give byte-identical output, with rows emitted in config order.

Exit codes: 0 success, 2 configuration or usage error (among them a width
outside [DELTA_MIN, DELTA_MAX], grid.n_r or grid.n_theta above GRID_COUNT_MAX,
a fixed grid.p_max above the auto policy's largest cutoff, an unknown field,
and --plot without a CSV --output or naming the --output file), 3
numeric/grid-coverage error, 4 I/O error while writing the output or plot
script.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from typing import NamedTuple, NoReturn

import numpy as np

from relent.correlations import (
    TRANSVERSE_BETA_MAX,
    ObservableDirection,
    classical_correlation,
    quantum_correlation,
)
from relent.entanglement import (
    ABCDValues,
    bell_ABCD,
    fidelity,
    negativity_measure,
    product_residual,
    xstate_pt_spectrum,
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
#: largest accepted grid.n_r and grid.n_theta: a rule's dense n x n Jacobi
#: matrix is 8 MiB at 1,024 nodes, far above the finest grid in use (64)
GRID_COUNT_MAX = 1024

_DEFAULT_BETAS = [round(0.05 * i, 2) for i in range(20)] + [0.99]


class ConfigError(Exception):
    """Configuration problem; the message names the offending field."""


class GridSpec(NamedTuple):
    n_r: int = 32
    n_theta: int = 32
    n_phi: int = 16  # accepted for old configs; the azimuth rule is fixed and exact
    p_max: object = "auto"  # "auto" or a positive number

    def resolve_p_max(self, delta):
        """Lab-frame radial cutoff of each width: the policy's at rest, or the fixed one."""
        return default_p_max(delta) if self.p_max == "auto" else float(self.p_max)


class SweepConfig(NamedTuple):
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


class SweepRow(NamedTuple):
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


def _fail(field_name: str, message: str) -> NoReturn:
    """Reject the field; called only once a check has failed, so valid configs format nothing."""
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
    if scenario not in SCENARIOS:
        _fail("scenario", f"must be one of {SCENARIOS}, got {scenario!r}")

    betas = doc.get("betas", _DEFAULT_BETAS)
    if not (isinstance(betas, list) and len(betas) > 0):
        _fail("betas", "must be a non-empty list")
    for i, x in enumerate(betas):
        if not (_is_number(x) and 0.0 <= x <= BETA_CAP):
            _fail(f"betas[{i}]", f"must be a number in [0, {BETA_CAP}], got {x!r}")
    if not all(b2 >= b1 for b1, b2 in zip(betas, betas[1:])):
        _fail("betas", "must be ascending")

    delta = doc.get("delta", [1.0])
    if _is_number(delta):
        delta = [delta]
    if not (isinstance(delta, list) and len(delta) > 0):
        _fail("delta", "must be a number or non-empty list")
    for i, x in enumerate(delta):
        if not (_is_number(x) and DELTA_MIN <= x <= DELTA_MAX):
            _fail(f"delta[{i}]", f"must be a number in [{DELTA_MIN:g}, {DELTA_MAX:g}], got {x!r}")

    grid_doc = doc.get("grid", {})
    if not isinstance(grid_doc, dict):
        _fail("grid", "must be an object")
    grid_kwargs = {}
    for name in ("n_r", "n_theta", "n_phi"):
        if name in grid_doc:
            v = grid_doc[name]
            if not (_is_int(v) and v >= 2):
                _fail(f"grid.{name}", f"must be an integer >= 2, got {v!r}")
            if name != "n_phi" and v > GRID_COUNT_MAX:
                _fail(f"grid.{name}", f"must be at most {GRID_COUNT_MAX}, got {v}")
            grid_kwargs[name] = v
    if "p_max" in grid_doc:
        # the largest cutoff the auto policy makes; far above it p_max^2 and
        # the grid weights (~ p_max^3) overflow
        p_max_cap = default_p_max(DELTA_MAX, BETA_CAP)
        v = grid_doc["p_max"]
        if not (v == "auto" or (_is_number(v) and 0 < v <= p_max_cap)):
            _fail("grid.p_max", f"must be 'auto' or a number in (0, {p_max_cap:.6g}], got {v!r}")
        grid_kwargs["p_max"] = v
    unknown_grid = set(grid_doc) - {"n_r", "n_theta", "n_phi", "p_max"}
    if unknown_grid:
        _fail(f"grid.{sorted(unknown_grid)[0]}", "unknown field")

    delta_sign = doc.get("delta_sign", -1)
    if not (_is_number(delta_sign) and delta_sign in (-1, 1)):
        _fail("delta_sign", f"must be -1 or 1, got {delta_sign!r}")

    analytic_limit = doc.get("analytic_limit", False)
    if not isinstance(analytic_limit, bool):
        _fail("analytic_limit", "must be a boolean")
    if analytic_limit and scenario != "spin_bell_momentum_product":
        _fail("analytic_limit", "only applies to the spin_bell_momentum_product scenario")

    directions = doc.get("directions", {"a": [1.0, 0.0, 0.0], "b": [1.0, 0.0, 0.0]})
    if not isinstance(directions, dict):
        _fail("directions", "must be an object with 'a' and 'b'")
    unknown_dir = set(directions) - {"a", "b"}
    if unknown_dir:
        _fail(f"directions.{sorted(unknown_dir)[0]}", "unknown field")
    dir_vals = {}
    for key in ("a", "b"):
        v = directions.get(key, [1.0, 0.0, 0.0])
        if not (isinstance(v, list) and len(v) == 3 and all(_is_number(x) for x in v)):
            _fail(f"directions.{key}", "must be a 3-vector of finite numbers")
        norm = float(np.linalg.norm(v))
        if not abs(norm - 1.0) <= 1e-9:
            _fail(f"directions.{key}", f"must be a unit vector (norm {norm:.6f})")
        if scenario == "both_bell_correlations" and v[0] == 0 and betas[-1] >= TRANSVERSE_BETA_MAX:
            _fail(f"directions.{key}", f"transverse, sign undefined at beta >= {TRANSVERSE_BETA_MAX}")
        dir_vals[key] = tuple(float(x) / norm for x in v)

    seed = doc.get("seed", 42)
    if not (_is_int(seed) and seed >= 0):
        _fail("seed", f"must be a non-negative integer, got {seed!r}")

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
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON text is UTF-8
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(doc)


def _bell_pt_spectrum(v: ABCDValues) -> np.ndarray:
    """PT spectrum of the Bell-spin X-state that the four weights fix."""
    outer, inner = (v.A + v.D) / 2, (v.B + v.C) / 2
    diag = np.stack([outer, inner, inner, outer], axis=-1)
    return xstate_pt_spectrum(diag, (v.A - v.D) / 2, -(v.B - v.C) / 2)[0]


def _sweep_columns(config: SweepConfig, delta: np.ndarray) -> dict:
    """The scenario's columns for the widths ``delta`` (n, 1) and every beta, each (n, n_beta).

    Each kernel is called once; the lattice has one cutoff per width
    (``GridSpec.resolve_p_max``), the fidelity lattice the auto policy's cutoff
    of each (width, beta) cell, whatever ``grid.p_max`` says.
    """
    gs = config.grid
    b = Boost(np.array(config.betas))
    cols = {}
    if config.scenario in ("spin_bell_momentum_product", "fidelity_only"):
        gp = GaussianProduct(delta)
        if not config.analytic_limit:
            fid_grid = build_grid(gs.n_r, gs.n_theta, default_p_max(delta, b.beta))
            cols["fidelity"] = fidelity(gp, b, fid_grid)
        if config.scenario == "fidelity_only":
            return cols

    base_grid = build_grid(gs.n_r, gs.n_theta, gs.resolve_p_max(delta))
    if config.scenario == "spin_bell_momentum_product":
        v = bell_ABCD(gp, b, base_grid, analytic_limit=config.analytic_limit)
        cols.update(A=v.A, B=v.B, C=v.C, D=v.D, eta=v.eta)
        spectrum = _bell_pt_spectrum(v)
        cols.update(min_pt_eig=spectrum[..., 0], E=negativity_measure(spectrum))
        if not config.analytic_limit:
            pairs = default_sample_pairs(gp, n=64, seed=config.seed)
            state = BipartiteState(gp, bell_phi_plus())
            sample = momentum_density_samples(state, b, base_grid, pairs)
            cols["product_distance"] = product_distance(*sample)
        return cols

    if config.scenario == "momentum_bell_spin_up":
        em = EntangledMomentum(delta, config.delta_sign)
        entries = xstate_stats(em, b, base_grid)
        spectrum, cols["ineq15_margin"], cols["ineq16_margin"] = xstate_pt_spectrum(*entries)
        cols["identity14_residual"] = product_residual(entries[0])
        cols.update(min_pt_eig=spectrum[..., 0], E=negativity_measure(spectrum))
        return cols

    if config.scenario == "both_bell_correlations":
        em = EntangledMomentum(delta, config.delta_sign)
        a = ObservableDirection(np.array(config.direction_a))
        b_dir = ObservableDirection(np.array(config.direction_b))
        cols["qcorr"] = quantum_correlation(a, b_dir, em, bell_phi_plus(), b, base_grid)
        try:
            cols["ccorr"] = np.full(np.shape(cols["qcorr"]), classical_correlation(a, b_dir))
        except ValueError:
            pass  # transverse direction: classical sign undefined
        return cols

    raise ConfigError(f"config field 'scenario': unhandled scenario {config.scenario!r}")


def run(config: SweepConfig, workers: int = 1) -> list[SweepRow]:
    """All (beta, delta) cells in config order, widths outer and betas inner.

    Widths are evaluated in chunks, each as one array program per kernel with
    the widths and betas on the leading axes (``_sweep_columns``).  A chunk
    holds max(1, 2^20 // (n_beta n_r n_theta)) widths, so that a (width, beta,
    p, cos(theta)) buffer stays within 8 MiB unless one width alone exceeds it.
    Every row equals the row of a sweep over that beta and width alone.
    ``workers`` is accepted for old callers and has no effect.
    """
    gs, betas, rows = config.grid, list(config.betas), []
    chunk = max(1, 2**20 // (len(betas) * gs.n_r * gs.n_theta))
    for start in range(0, len(config.delta), chunk):
        widths = config.delta[start:start + chunk]
        cols = _sweep_columns(config, np.array(widths)[:, None])
        # the chunk's rows, field by field, widths outer and betas inner
        fields = {name: np.asarray(v, dtype=float).ravel().tolist() for name, v in cols.items()}
        fields.update(beta=betas * len(widths), delta=[d for d in widths for _ in betas])
        empty = [None] * len(fields["beta"])
        rows += map(SweepRow._make, zip(*(fields.get(name, empty) for name in SweepRow._fields)))
    return rows


def _format_value(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".17g")


def emit(rows: list[SweepRow], fmt: str, path: str | None) -> str:
    """Serialise rows as CSV (fixed header) or JSON; returns the text emitted."""
    if not rows:
        raise ValueError("no rows to emit")
    names = SweepRow._fields
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(names)
        for row in rows:
            writer.writerow([_format_value(x) for x in row])
        text = buf.getvalue()
    elif fmt == "json":
        payload = [
            {n: (None if x is None else float(x)) for n, x in zip(names, r)} for r in rows
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
    absent from every row are left out.  ``csv_path`` is written in gnuplot
    single quotes, inside which a quote is doubled.
    """
    deltas = sorted({row.delta for row in rows})
    quoted = "'" + csv_path.replace("'", "''") + "'"
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
        for present, col, label in ((have_E, 4, "E"), (have_F, 3, "F")):
            if present:
                series.append(
                    f"{quoted} using 1:(column(2)=={_format_value(d)} ? column({col}) : 1/0) "
                    f"with linespoints title '{label} delta={_format_value(d)}'"
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
        emit_plotscript(rows, args.plot, args.output)
    return EXIT_OK


def _cmd_validate(args) -> int:
    config = load_config(args.config)
    sys.stdout.write(json.dumps(config.to_json_dict(), indent=2) + "\n")
    return EXIT_OK


def _cmd_limits(_args) -> int:
    """Print the light-speed benchmark table, computed through the pipeline."""
    grid = build_grid(32, 32, default_p_max(1.0))
    v = bell_ABCD(GaussianProduct(1.0), Boost(0.0), grid, analytic_limit=True)
    spectrum = _bell_pt_spectrum(v)
    E = negativity_measure(spectrum)
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
    p_run.add_argument("--plot", default=None,
                       help="write a gnuplot script here (needs --output and --format csv)")
    p_run.add_argument("--workers", type=int, default=1, help="accepted; has no effect")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="validate a config and echo its canonical form")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=_cmd_validate)

    p_lim = sub.add_parser("limits", help="print the analytic-limit reference table")
    p_lim.set_defaults(func=_cmd_limits)

    args = parser.parse_args(argv)
    # the plot script reads the sweep back as comma-separated data from --output
    if args.command == "run" and args.plot is not None:
        if args.output is None or args.format != "csv":
            parser.error("--plot needs --output and --format csv")
        if os.path.realpath(args.plot) == os.path.realpath(args.output):
            parser.error("--plot names the --output file, which the script would overwrite")
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
