"""Command-line driver: scenario sweeps over boost speed and wavepacket width.

A sweep is one JSON document.  ``_CONFIG`` lists its fields in canonical order
with each one's default (the value an absent field takes) and check;
``parse_config`` applies them, the config records (``SweepConfig`` and its
``grid`` and ``directions``) are ``namedtuple``s built from the same table, and
``relent validate`` echoes the result in that order, every default filled in.

The kernels average the azimuth in closed form, so ``grid.n_phi`` is
accepted, validated and echoed for old configs but has no effect; likewise
``--workers``.  ``grid.n_theta`` sets the polar rule of the fidelity and the
Bell weights only: the two momentum-entangled scenarios integrate cos(theta)
in closed form.  Every radial cutoff is ``default_p_max``'s.  Scenarios
populate different columns of the fixed CSV header, ``SweepRow``'s fields;
cells that a scenario does not produce stay empty (CSV) or null (JSON).  A
config's widths and betas are evaluated together (``run``), and every row
equals the row of a sweep over its beta and width alone.  Identical config and
seed give byte-identical output, with rows emitted in config order.

Exit codes: 0 success; 2 configuration or usage error (a field that fails its
check, which the message names, or a config file that cannot be read or parsed
as UTF-8 JSON); 3 numeric or grid-coverage error; 4 I/O error while writing
the output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import namedtuple
from typing import NamedTuple, NoReturn

import numpy as np

from relent.correlations import TRANSVERSE_BETA_MAX, classical_correlation, quantum_correlation
from relent.entanglement import (
    bell_ABCD,
    bell_pt_spectrum,
    bell_weights,
    fidelity,
    negativity_measure,
    product_residual,
    xstate_pt_spectrum,
    xstate_stats,
)
from relent.kinematics import BETA_CAP, Boost
from relent.relstate import (
    SAMPLE_PAIRS,
    bell_phi_plus,
    default_sample_pairs,
    momentum_density_samples,
    product_distance,
)
from relent.wavepacket import (
    EntangledMomentum,
    GaussianProduct,
    build_grid,
    default_p_max,
    normalised,
)

SCENARIOS = (
    "spin_bell_momentum_product",
    "momentum_bell_spin_up",
    "both_bell_correlations",
    "fidelity_only",
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
#: largest accepted grid.n_r and grid.n_theta: a rule's Newton steps hold (n/2, n/2 + 1)
#: phase arrays, 16 MiB at 1,024 nodes, far above the finest grid in use (64)
GRID_COUNT_MAX = 1024

_DEFAULT_BETAS = [round(0.05 * i, 2) for i in range(20)] + [0.99]


class ConfigError(Exception):
    """Configuration problem; the message names the offending field."""


class SweepRow(NamedTuple):
    """One (beta, delta) cell; None marks columns the scenario does not produce."""

    beta: float
    delta: float
    fidelity: float | None
    E: float | None
    min_pt_eig: float | None
    A: float | None
    B: float | None
    C: float | None
    D: float | None
    eta: float | None
    ineq15_margin: float | None
    ineq16_margin: float | None
    identity14_residual: float | None
    product_distance: float | None
    qcorr: float | None
    ccorr: float | None


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


def _numbers(name: str, v, lo: float, hi: float, message: str) -> tuple:
    """A non-empty array of numbers in [lo, hi], as floats; a zero is +0.0."""
    if not (isinstance(v, (list, tuple)) and v):
        _fail(name, message)
    for i, x in enumerate(v):
        if not (_is_number(x) and lo <= x <= hi):
            _fail(f"{name}[{i}]", f"must be a number in [{lo:.10g}, {hi:.10g}], got {x!r}")
    return tuple(float(x) + 0.0 for x in v)


def _count(name: str, v, most: float = GRID_COUNT_MAX) -> int:
    if not (_is_int(v) and v >= 2):
        _fail(name, f"must be an integer >= 2, got {v!r}")
    if v > most:
        _fail(name, f"must be at most {most}, got {v}")
    return v


def _direction(name: str, v) -> tuple:
    """A direction within 1e-9 of unit norm, divided by its norm; a zero is +0.0."""
    if not (isinstance(v, (list, tuple)) and len(v) == 3 and all(_is_number(x) for x in v)):
        _fail(name, "must be a 3-vector of finite numbers")
    norm = math.hypot(*v)
    if not abs(norm - 1.0) <= 1e-9:
        _fail(name, f"must be a unit vector (norm {norm:.6f})")
    return tuple(float(x) / norm + 0.0 for x in v)


class _Repeats(dict):
    """A JSON object that repeats ``key``, of which ``dict`` keeps only the last value."""


def _fields(prefix: str, doc: dict, table: dict, record: type) -> tuple:
    """``record`` of ``table``'s fields: each one in ``doc`` checked, each other its default."""
    if isinstance(doc, _Repeats):
        _fail(prefix + doc.key, "repeated key")
    unknown = doc.keys() - table.keys()
    if unknown:
        _fail(prefix + min(unknown), "unknown field")
    return record._make(check(prefix + key, doc[key]) if key in doc else default
                        for key, (default, check) in table.items())


def _object(typename: str, table: dict, message: str = "must be an object") -> tuple:
    """The (default, check) entry of an object field, a ``typename`` record of ``table``'s."""
    record = globals()[typename] = namedtuple(typename, table)  # bound by name, as pickle needs
    def check(name, v):
        if not isinstance(v, dict):
            _fail(name, message)
        return _fields(name + ".", v, table, record)
    return record._make(default for default, _ in table.values()), check


#: config fields in canonical order, name -> (default, check): an absent field takes the
#: default, and check(name, value) turns a JSON value into its canonical one or rejects it
_CONFIG = {
    "scenario": ("spin_bell_momentum_product", lambda name, v: v if v in SCENARIOS
                 else _fail(name, f"must be one of {SCENARIOS}, got {v!r}")),
    "betas": (tuple(_DEFAULT_BETAS), lambda name, v: _numbers(name, v, 0.0, BETA_CAP,
                                                              "must be a non-empty list")),
    "delta": ((1.0,), lambda name, v: _numbers(name, [v] if _is_number(v) else v, DELTA_MIN,
                                               DELTA_MAX, "must be a number or non-empty list")),
    "grid": _object("GridSpec", {
        "n_r": (32, _count),
        "n_theta": (32, _count),
        # accepted for old configs; the azimuth is averaged in closed form
        "n_phi": (16, lambda name, v: _count(name, v, math.inf)),
    }),
    "delta_sign": (-1, lambda name, v: int(v) if _is_number(v) and v in (-1, 1)
                   else _fail(name, f"must be -1 or 1, got {v!r}")),
    "directions": _object("Directions", {"a": ((1.0, 0.0, 0.0), _direction),
                                         "b": ((1.0, 0.0, 0.0), _direction)},
                          "must be an object with 'a' and 'b'"),
    "seed": (42, lambda name, v: v if _is_int(v) and v >= 0
             else _fail(name, f"must be a non-negative integer, got {v!r}")),
}


class SweepConfig(namedtuple("SweepConfig", _CONFIG)):
    """A validated config; its fields, their order, defaults and checks are ``_CONFIG``'s."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        """The canonical JSON form (arrays as tuples), which ``parse_config`` maps back."""
        return {k: v._asdict() if hasattr(v, "_asdict") else v for k, v in self._asdict().items()}


def parse_config(doc: dict) -> SweepConfig:
    """Check a JSON document against ``_CONFIG``, then the rules that span fields."""
    if not isinstance(doc, dict):
        raise ConfigError("config root: expected a JSON object")
    config = _fields("", doc, _CONFIG, SweepConfig)
    if sorted(config.betas) != list(config.betas):
        _fail("betas", "must be ascending")
    if config.scenario == "both_bell_correlations" and config.betas[-1] >= TRANSVERSE_BETA_MAX:
        for key, v in config.directions._asdict().items():
            if v[0] == 0:
                _fail(f"directions.{key}", f"transverse, sign undefined at beta >= {TRANSVERSE_BETA_MAX}")
    return config


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, marked if it repeats a key, which ``_fields`` names by its path."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        doc = _Repeats(doc)
        doc.key = next(key for i, key in enumerate(keys) if key in keys[:i])
    return doc


def load_config(path: str) -> SweepConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8 JSON, too long an int, too deep
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(doc)


def _sweep_columns(config: SweepConfig, delta: np.ndarray) -> dict:
    """The scenario's columns for the widths ``delta`` (n, 1) and every beta, each (n, n_beta).

    Each kernel is called once, on one grid with the policy's cutoff at rest per width;
    ``fidelity`` takes its rules and its own cutoff per cell.
    """
    b = Boost(np.array(config.betas))
    grid = build_grid(config.grid.n_r, config.grid.n_theta, default_p_max(delta))
    product = config.scenario in ("fidelity_only", "spin_bell_momentum_product")
    dist = GaussianProduct(delta) if product else EntangledMomentum(delta, config.delta_sign)
    # one check for every scenario, before any kernel, so that its message names the scenario;
    # fidelity takes only the grid's rules, where an under-resolved rule would show as a
    # fidelity out of [0, 1] or a wrong one inside it
    norm = np.sum(grid.radial_weights * dist.density1(grid.p**2), axis=(-2, -1))
    normalised(1.0, norm * np.sum(grid.polar_weights), config.scenario)
    cols, spectrum = {}, None
    if product:
        cols["fidelity"] = fidelity(dist, b, grid)
        if config.scenario == "spin_bell_momentum_product":
            pairs = default_sample_pairs(dist, seed=config.seed)  # (radii, directions)
            sample = momentum_density_samples(dist, b, *pairs, bell_phi_plus())
            cols["product_distance"] = product_distance(*sample)
            v = bell_ABCD(dist, b, grid)
            cols.update(A=v.A, B=v.B, C=v.C, D=v.D, eta=v.eta)
            spectrum = bell_pt_spectrum(v)
    elif config.scenario == "momentum_bell_spin_up":
        entries = xstate_stats(dist, b, grid)
        spectrum, cols["ineq15_margin"], cols["ineq16_margin"] = xstate_pt_spectrum(*entries)
        cols["identity14_residual"] = product_residual(entries[0])
    elif config.scenario == "both_bell_correlations":
        a, b_dir = config.directions
        cols["qcorr"] = quantum_correlation(a, b_dir, dist, b, grid, bell_phi_plus())
        if a[0] != 0 and b_dir[0] != 0:  # a transverse direction has no classical sign
            cols["ccorr"] = np.full(np.shape(cols["qcorr"]), classical_correlation(a, b_dir))
    else:
        raise ConfigError(f"config field 'scenario': unhandled scenario {config.scenario!r}")
    if spectrum is not None:
        cols.update(min_pt_eig=spectrum[..., 0], E=negativity_measure(spectrum))
    return cols


def run(config: SweepConfig, workers: int = 1) -> list[SweepRow]:
    """All (beta, delta) cells in config order, widths outer and betas inner.

    Widths are evaluated in chunks, each as one array program per kernel with the
    widths and betas on the leading axes (``_sweep_columns``).  A chunk holds max(1,
    2^18 // (n_beta (n_r + 4 * SAMPLE_PAIRS))) widths, which keeps each array with a width axis,
    the (width, beta, p) cells and the pair sampler's (width, beta, 4, SAMPLE_PAIRS) values, under
    2 MiB; ``fidelity`` and ``bell_ABCD`` fill their lattice in tiles that do not grow.
    Every row equals the row of a sweep over that beta and width alone; ``workers`` is
    accepted for old callers and has no effect.
    """
    gs, betas, rows = config.grid, list(config.betas), []
    chunk = max(1, 2**18 // (len(betas) * (gs.n_r + 4 * SAMPLE_PAIRS)))
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
    return "" if x is None else format(float(x), ".17g")


def emit(rows: list[SweepRow], fmt: str, path: str | None) -> str:
    """Serialise rows as CSV (fixed header) or JSON; returns the text emitted."""
    if not rows:
        raise ValueError("no rows to emit")
    if fmt == "csv":  # no field needs quoting: the header is fixed, each value ".17g" or empty
        lines = [SweepRow._fields, *([_format_value(x) for x in row] for row in rows)]
        text = "".join(",".join(line) + "\n" for line in lines)
    elif fmt == "json":
        text = json.dumps([row._asdict() for row in rows], indent=2) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"cannot write output {path}: {exc}") from exc
    return text


def _cmd_run(args) -> int:
    rows = run(load_config(args.config), workers=args.workers)
    text = emit(rows, args.format, args.output)
    if args.output is None:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_validate(args) -> int:
    config = load_config(args.config)
    sys.stdout.write(json.dumps(config.to_json_dict(), indent=2) + "\n")
    return EXIT_OK


def _cmd_limits(_args) -> int:
    """Print the light-speed table in closed form: ``bell_weights(1/2)``, its PT spectrum and E."""
    v = bell_weights(0.5)
    spectrum = bell_pt_spectrum(v)
    sys.stdout.write("ultra-relativistic analytic limit (Omega -> theta):\n")
    for name, x in v._asdict().items():
        sys.stdout.write(f"  {name} = {x:.12f}\n")
    sys.stdout.write(f"  PT spectrum = [{', '.join(f'{x:.12f}' for x in spectrum)}]\n")
    sys.stdout.write(f"  E = {negativity_measure(spectrum):.12f}\n")
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
    p_run.add_argument("--workers", type=int, default=1, help="accepted; has no effect")
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
    except ValueError as exc:  # a GridCoverageError among them
        sys.stderr.write(f"numeric error: {exc}\n")
        return EXIT_NUMERIC
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
