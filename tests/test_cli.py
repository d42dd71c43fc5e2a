import json
import math
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relent.cli as cli
import relent.correlations as correlations
import relent.entanglement as entanglement
import relent.relstate as relstate
from relent.cli import (
    DELTA_MAX,
    DELTA_MIN,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    GRID_COUNT_MAX,
    SCENARIOS,
    ConfigError,
    emit,
    main,
    parse_config,
    run,
)
from oracles import reduced_spin_density_hypot, sample_pairs_loop
from relent import wavepacket
from relent.kinematics import BETA_CAP
from relent.wavepacket import GaussianProduct

README = Path(__file__).resolve().parent.parent / "README.md"

#: config documents, each with its exact ``relent validate`` output: the golden
#: configs, ``{}``, the seed-0 benchmark configs and odd but valid forms
CANONICAL = json.loads(
    (Path(__file__).resolve().parent / "data" / "canonical_configs.json").read_text(encoding="utf-8")
)

#: the output columns, in order; an empty cell means "not produced by the scenario"
CSV_HEADER = (
    "beta,delta,fidelity,E,min_pt_eig,A,B,C,D,eta,"
    "ineq15_margin,ineq16_margin,identity14_residual,product_distance,qcorr,ccorr"
)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


#: "must be one of (...), got " as the scenario check words it
SCENARIO_CHOICES = (
    "must be one of ('spin_bell_momentum_product', 'momentum_bell_spin_up', "
    "'both_bell_correlations', 'fidelity_only'), got "
)

#: (config document, its exact error message), one or more per check; the
#: checks build a message only when they fail
CONFIG_ERRORS = [
    ([],
     "config root: expected a JSON object"),
    ({"scenari": 1},
     "config field 'scenari': unknown field"),
    ({"scenario": "bogus"},
     "config field 'scenario': " + SCENARIO_CHOICES + "'bogus'"),
    ({"scenario": 3},
     "config field 'scenario': " + SCENARIO_CHOICES + "3"),
    ({"betas": []},
     "config field 'betas': must be a non-empty list"),
    ({"betas": 0.5},
     "config field 'betas': must be a non-empty list"),
    ({"betas": [0.1, 1.5]},
     "config field 'betas[1]': must be a number in [0, 0.999999999], got 1.5"),
    ({"betas": [True]},
     "config field 'betas[0]': must be a number in [0, 0.999999999], got True"),
    ({"betas": ["0.5"]},
     "config field 'betas[0]': must be a number in [0, 0.999999999], got '0.5'"),
    ({"betas": [float("nan")]},
     "config field 'betas[0]': must be a number in [0, 0.999999999], got nan"),
    ({"betas": [0.0, float("inf")]},
     "config field 'betas[1]': must be a number in [0, 0.999999999], got inf"),
    ({"betas": [-0.0, -1e-300]},
     "config field 'betas[1]': must be a number in [0, 0.999999999], got -1e-300"),
    ({"betas": [0.5, 0.1]},
     "config field 'betas': must be ascending"),
    ({"delta": []},
     "config field 'delta': must be a number or non-empty list"),
    ({"delta": "1"},
     "config field 'delta': must be a number or non-empty list"),
    ({"delta": [1.0, 0.0]},
     "config field 'delta[1]': must be a number in [1e-12, 1e+12], got 0.0"),
    ({"delta": [10000000000000.0]},
     "config field 'delta[0]': must be a number in [1e-12, 1e+12], got 10000000000000.0"),
    ({"delta": [1e-13]},
     "config field 'delta[0]': must be a number in [1e-12, 1e+12], got 1e-13"),
    ({"delta": [False]},
     "config field 'delta[0]': must be a number in [1e-12, 1e+12], got False"),
    ({"delta": float("nan")},
     "config field 'delta': must be a number or non-empty list"),
    ({"delta": [1.0, None]},
     "config field 'delta[1]': must be a number in [1e-12, 1e+12], got None"),
    ({"grid": []},
     "config field 'grid': must be an object"),
    ({"grid": {"n_r": 1}},
     "config field 'grid.n_r': must be an integer >= 2, got 1"),
    ({"grid": {"n_theta": 2.0}},
     "config field 'grid.n_theta': must be an integer >= 2, got 2.0"),
    ({"grid": {"n_phi": True}},
     "config field 'grid.n_phi': must be an integer >= 2, got True"),
    ({"grid": {"n_r": 1025}},
     "config field 'grid.n_r': must be at most 1024, got 1025"),
    ({"grid": {"n_theta": 4096}},
     "config field 'grid.n_theta': must be at most 1024, got 4096"),
    # every radial cutoff is default_p_max's, so the grid has no cutoff field
    ({"grid": {"p_max": "auto"}},
     "config field 'grid.p_max': unknown field"),
    ({"grid": {"p_max": 10}},
     "config field 'grid.p_max': unknown field"),
    ({"grid": {"n_r": 16, "n_theta": 8, "p_max": 2.5}},
     "config field 'grid.p_max': unknown field"),
    ({"grid": {"p_max": float("inf")}},
     "config field 'grid.p_max': unknown field"),
    ({"grid": {"bogus": 1, "alpha": 2}},
     "config field 'grid.alpha': unknown field"),
    ({"delta_sign": 0},
     "config field 'delta_sign': must be -1 or 1, got 0"),
    ({"delta_sign": True},
     "config field 'delta_sign': must be -1 or 1, got True"),
    ({"delta_sign": "1"},
     "config field 'delta_sign': must be -1 or 1, got '1'"),
    ({"delta_sign": 1.5},
     "config field 'delta_sign': must be -1 or 1, got 1.5"),
    ({"analytic_limit": True},
     "config field 'analytic_limit': unknown field"),
    ({"analytic_limit": False},
     "config field 'analytic_limit': unknown field"),
    ({"directions": []},
     "config field 'directions': must be an object with 'a' and 'b'"),
    ({"directions": {"c": 1, "d": 2}},
     "config field 'directions.c': unknown field"),
    ({"directions": {"a": [1, 0]}},
     "config field 'directions.a': must be a 3-vector of finite numbers"),
    ({"directions": {"a": [1, 1, 0]}},
     "config field 'directions.a': must be a unit vector (norm 1.414214)"),
    ({"directions": {"b": [0.6, 0.8, 0.1]}},
     "config field 'directions.b': must be a unit vector (norm 1.004988)"),
    ({"directions": {"a": [True, 0, 0]}},
     "config field 'directions.a': must be a 3-vector of finite numbers"),
    ({"seed": -1},
     "config field 'seed': must be a non-negative integer, got -1"),
    ({"seed": 1.0},
     "config field 'seed': must be a non-negative integer, got 1.0"),
    ({"seed": True},
     "config field 'seed': must be a non-negative integer, got True"),
    ({"seed": "42"},
     "config field 'seed': must be a non-negative integer, got '42'"),
    ({"scenario": "both_bell_correlations", "betas": [0.5, 0.999999],
      "directions": {"a": [1, 0, 0], "b": [-0.0, 0.6, 0.8]}},
     "config field 'directions.b': transverse, sign undefined at beta >= 0.999999"),
]


class TestConfigParsing:
    @pytest.mark.parametrize("doc, message", CONFIG_ERRORS)
    def test_error_messages_unchanged(self, doc, message):
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert str(err.value) == message

    def test_defaults(self):
        cfg = parse_config({})
        assert cfg.scenario == "spin_bell_momentum_product"
        assert cfg.delta == (1.0,)
        assert cfg.betas[0] == 0.0 and cfg.betas[-1] == 0.99
        assert cfg.delta_sign == -1 and cfg.seed == 42

    def test_rejects_unknown_field(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_config({"scenari": "x"})

    def test_rejects_bad_beta_with_field_name(self):
        for beta in (1.5, True, False, "0.5", float("nan"), float("inf")):
            with pytest.raises(ConfigError, match=r"betas\[0\]"):
                parse_config({"betas": [beta]})

    def test_rejects_descending_betas(self):
        with pytest.raises(ConfigError, match="ascending"):
            parse_config({"betas": [0.5, 0.1]})

    def test_rejects_bad_scenario(self):
        with pytest.raises(ConfigError, match="scenario"):
            parse_config({"scenario": "bogus"})

    def test_rejects_non_unit_direction(self):
        for a in ([1, 1, 0], [True, 0, 0], [float("nan"), 0, 0], [float("inf"), 0, 0]):
            with pytest.raises(ConfigError, match="directions.a"):
                parse_config({"directions": {"a": a, "b": [1, 0, 0]}})

    def test_rejects_bad_grid_counts(self):
        for n_r in (1, True, 16.0, GRID_COUNT_MAX + 1):
            with pytest.raises(ConfigError, match="grid.n_r"):
                parse_config({"grid": {"n_r": n_r}})
        # parsing builds no grid, so the bound itself can be checked for free
        at_bound = {"n_r": GRID_COUNT_MAX, "n_theta": GRID_COUNT_MAX}
        assert parse_config({"grid": at_bound}).grid.n_theta == GRID_COUNT_MAX

    def test_scalar_delta_promoted(self):
        assert parse_config({"delta": 2.0}).delta == (2.0,)

    def test_round_trip(self):
        docs = [{"scenario": "fidelity_only", "betas": [0.0, 0.5], "seed": 7}]
        for doc in docs + [case["config"] for case in CANONICAL]:
            cfg = parse_config(doc)
            assert parse_config(cfg.to_json_dict()) == cfg, doc
            assert parse_config(json.loads(json.dumps(cfg.to_json_dict()))) == cfg, doc
            assert pickle.loads(pickle.dumps(cfg)) == cfg, doc

    def test_readme_config_example(self):
        # a field that _CONFIG drops must leave the README's example with it
        cli_section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
        doc = json.loads(re.search(r"^```json\n(.*?)^```", cli_section, re.M | re.S).group(1))
        parse_config(doc)
        assert list(doc) == list(cli._CONFIG)
        assert doc in [case["config"] for case in CANONICAL]


#: every module-level binding of a Wigner-angle function that a sweep calls: the
#: lattice kernels take t = tanh(a/2) tanh(d/2) on the (beta, p) axes, the
#: density samples the half-angle cosines and sines at their coordinates
ANGLE_BINDINGS = (
    (entanglement, "wigner_tan_product"),
    (relstate, "wigner_tan_product"),
    (relstate, "wigner_half_angle"),
)


#: every binding through which a sweep calls a lattice kernel
LATTICE_KERNELS = (
    (cli, "fidelity"),
    (cli, "bell_ABCD"),
    (cli, "momentum_density_samples"),
    (entanglement, "reduced_spin_density"),
    (correlations, "reduced_spin_density"),
)


class TestRunScenarios:
    def test_trivial_bell_row(self):
        cfg = parse_config({"betas": [0.0]})
        rows = run(cfg)
        assert rows[0].E == pytest.approx(1.0, abs=1e-9)
        assert rows[0].fidelity == pytest.approx(1.0, abs=1e-9)
        assert rows[0].qcorr is None

    def test_momentum_bell_scenario(self):
        cfg = parse_config({"scenario": "momentum_bell_spin_up", "betas": [0.0, 0.6]})
        rows = run(cfg)
        for row in rows:
            assert row.ineq15_margin <= 1e-9
            assert row.ineq16_margin <= 1e-9
            assert row.E == pytest.approx(0.0, abs=1e-9)
            assert row.fidelity is None

    def test_correlation_scenario(self):
        cfg = parse_config(
            {
                "scenario": "both_bell_correlations",
                "betas": [0.0, 0.9],
                "delta": [0.01],
            }
        )
        rows = run(cfg)
        assert rows[0].qcorr == pytest.approx(1.0, abs=1e-6)
        assert rows[0].ccorr == 1.0
        assert abs(rows[1].qcorr) <= 1.0 + 1e-9

    def test_workers_do_not_change_rows(self):
        # the worker count is accepted for old callers and has no effect
        cfg = parse_config(
            {
                "betas": [0.0, 0.4, 0.8],
                "delta": [0.5, 1.0],
                "grid": {"n_r": 16, "n_theta": 16, "n_phi": 8},
            }
        )
        serial = emit(run(cfg, workers=1), "csv", None)
        assert emit(run(cfg, workers=4), "csv", None) == serial

    @pytest.mark.parametrize(
        "scenario", ["momentum_bell_spin_up", "both_bell_correlations", "spin_bell_momentum_product"]
    )
    def test_n_phi_has_no_effect(self, scenario):
        # two azimuth nodes used to alias the Wigner rotation's harmonics and
        # print wrong rows with exit 0 (qcorr 0.992 for 0.810 at beta 0.9)
        doc = {"scenario": scenario, "betas": [0.9]}
        fixed = emit(run(parse_config(doc)), "csv", None)
        assert emit(run(parse_config({**doc, "grid": {"n_phi": 2}})), "csv", None) == fixed

    def test_beta_independent_inputs_built_once(self, monkeypatch):
        pair_draws, kernel_calls = [], Counter()
        draw, rule = cli.default_sample_pairs, wavepacket.gauss_legendre
        stream = relstate._pcg64_doubles

        def counting_draw(dist, *args, **kwargs):
            radii, directions = draw(dist, *args, **kwargs)
            # one draw of the stream gives each width the pairs of its own draw
            for delta, width_radii in zip(dist.delta.ravel(), radii):
                want_radii, want_directions = sample_pairs_loop(GaussianProduct(delta), *args,
                                                                **kwargs)
                assert np.array_equal(width_radii, want_radii)
                assert np.array_equal(directions, want_directions)
            pair_draws.append(dist.delta.ravel().tolist())
            return radii, directions

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                kernel_calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(cli, "default_sample_pairs", counting_draw)
        # every Wigner-angle evaluation, as the tanh product or as half-angle
        # cosines and sines
        for module, name in ANGLE_BINDINGS:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        texts, per_sweep = [], []
        for betas, workers in (([0.0, 0.5], 1), (cli._DEFAULT_BETAS, 1), (cli._DEFAULT_BETAS, 2)):
            cfg = parse_config({"betas": betas, "delta": [0.5, 1.0, 4.0], "grid": {"n_theta": 24}})
            rule.cache_clear()
            stream.cache_clear()
            pair_draws.clear()
            kernel_calls.clear()
            texts.append(emit(run(cfg, workers=workers), "csv", None))
            # only the n_r and n_theta rules are computed
            assert rule.cache_info().misses == rule.cache_info().currsize == 2
            rule(32), rule(24)
            assert rule.cache_info().misses == 2
            assert pair_draws == [[0.5, 1.0, 4.0]]
            # the three widths share one draw of the PCG64 stream
            assert stream.cache_info().misses == 1
            per_sweep.append(dict(kernel_calls))
        # one call per kernel and sweep, whatever the number of betas and
        # widths: fidelity and bell_ABCD take the tanh product, the density
        # samples the half-angles
        want = {"wigner_tan_product": 2, "wigner_half_angle": 1}
        assert per_sweep[0] == per_sweep[1] == want
        assert texts[1] == texts[2]

    @pytest.mark.parametrize("scenario", ["momentum_bell_spin_up", "both_bell_correlations"])
    def test_one_wigner_angle_evaluation_per_width(self, monkeypatch, scenario):
        # the entangled-momentum kernel integrates cos(theta) in closed form
        # from t alone, so it evaluates t once, for all three widths together
        calls = Counter()

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for module, name in ANGLE_BINDINGS:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        run(parse_config({"scenario": scenario, "delta": [0.5, 1.0, 4.0]}))
        assert calls == {"wigner_tan_product": 1}

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize(
        "n_r, n_theta, calls", [(32, 32, 1), (128, 160, 2), (256, 256, 3)]
    )
    def test_lattice_kernels_called_once_per_chunk(self, monkeypatch, scenario, n_r, n_theta, calls):
        # a chunk holds max(1, 2^18 // (21 (n_r + 4 * 64))) widths whatever n_theta: 43 on
        # the default grid, 32 at n_r = 128 and 24 at n_r = 256.  The sweep has the fewest
        # widths that need ``calls`` chunks, and at least the default sweep's three
        per_chunk = {32: 43, 128: 32, 256: 24}[n_r]
        counts = Counter()

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for module, name in LATTICE_KERNELS:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        widths = np.geomspace(0.5, 4.0, max(3, (calls - 1) * per_chunk + 1)).tolist()
        doc = {"scenario": scenario, "delta": widths, "grid": {"n_r": n_r, "n_theta": n_theta}}
        rows = run(parse_config(doc))
        assert len(rows) == len(widths) * len(cli._DEFAULT_BETAS)
        assert set(counts.values()) == {calls}
        if calls == 2:
            split = [row for d in doc["delta"] for row in run(parse_config({**doc, "delta": [d]}))]
            assert emit(rows, "csv", None) == emit(split, "csv", None)

    def test_chunk_caps_the_sampler_whatever_n_theta(self):
        # the pair sampler's (width, beta, slot, pair) arrays do not shrink with n_theta:
        # when a chunk held 2^20 // (21 n_r n_theta) widths, these 200 widths ran as one
        # chunk on the 2-node polar rule and peaked at 47.0 MiB traced (16.6 MiB at 32 nodes)
        doc = {"scenario": "spin_bell_momentum_product",
               "delta": np.geomspace(0.25, 16.0, 200).tolist()}
        peaks, rows = {}, {}
        for n_theta in (2, 32):
            config = parse_config({**doc, "grid": {"n_r": 24, "n_theta": n_theta}})
            run(config)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                rows[n_theta] = run(config)
                peaks[n_theta] = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        # both run in the same chunks; their peaks differ by a few hundred bytes of objects
        assert peaks[2] <= 1.01 * peaks[32]
        assert peaks[2] <= 16 * 2**20
        grid = {"n_r": 24, "n_theta": 2}
        assert rows[2] == [row for d in doc["delta"]
                           for row in run(parse_config({**doc, "delta": [d], "grid": grid}))]


#: (scenario, config fields) for every combination a sweep can batch
BATCHED_CASES = [
    ("spin_bell_momentum_product", {}),
    ("both_bell_correlations", {"directions": {"a": [1, 0, 0], "b": [0, 0.6, 0.8]}}),
    ("fidelity_only", {}),
    ("momentum_bell_spin_up", {"delta_sign": -1}),
    ("momentum_bell_spin_up", {"delta_sign": 1}),
    ("both_bell_correlations", {"delta_sign": -1}),
    (
        "both_bell_correlations",
        {"delta_sign": 1, "directions": {"a": [0.6, 0.8, 0], "b": [1, 0, 0]}},
    ),
]


class TestBatchedSweep:
    """A config's widths and betas run as one batch give the rows of one sweep per cell."""

    @staticmethod
    def _rows(doc):
        names = CSV_HEADER.split(",")
        return [[getattr(row, name) for name in names] for row in run(parse_config(doc))]

    @pytest.mark.parametrize("scenario, fields", BATCHED_CASES)
    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_rows_equal_single_beta_runs(self, scenario, fields, data):
        betas = sorted(data.draw(st.lists(st.floats(0.0, 0.99), min_size=2, max_size=5)))
        doc = {
            "scenario": scenario, "betas": betas, "delta": [0.5, 1.0, 4.0],
            "grid": {"n_r": 24, "n_theta": 16}, **fields,
        }
        single = [
            row
            for delta in doc["delta"]
            for beta in betas
            for row in self._rows({**doc, "betas": [beta], "delta": [delta]})
        ]
        batched = self._rows(doc)
        assert len(batched) == len(single) == 3 * len(betas)
        for got, want in zip(batched, single):
            for g, w in zip(got, want):
                assert (g is None) == (w is None)
                if w is not None:
                    assert math.isclose(g, w, rel_tol=1e-14, abs_tol=1e-14), (got, want)


class TestFixedCutoff:
    """On the policy's cutoff at rest, fixed per width, the rows at beta 0 read their rest
    values, whatever part of the packet the radial rule misses."""

    @pytest.mark.parametrize("delta", [1e-12, 1e12])
    def test_fidelity_is_one_at_rest(self, tmp_path, capsys, delta):
        # at both width bounds the policy's cutoff holds the packet, so the fidelity at rest is 1
        cfg_path = write_config(
            tmp_path, {"scenario": "fidelity_only", "betas": [0.0, 0.5], "delta": delta}
        )
        out_path = str(tmp_path / "out.csv")
        assert main(["run", "--config", cfg_path, "--output", out_path]) == EXIT_OK
        lines = open(out_path).read().splitlines()
        fidelity = lines[0].split(",").index("fidelity")
        at_rest = float(lines[1].split(",")[fidelity])
        assert abs(at_rest - 1.0) <= 1e-14

    #: a 13-node radial rule misses the unit packet's norm by -9.4e-7, inside the coverage
    #: guard; the spin density reaches qcorr = 1 at rest only through its division by that norm
    COARSE = {"betas": [0, 0.5], "delta": [1], "grid": {"n_r": 13}}

    def test_truncated_norm_reaches_no_output(self):
        at_rest = run(parse_config({"scenario": "spin_bell_momentum_product", **self.COARSE}))[0]
        assert abs(at_rest.A - 1.0) <= 1e-15
        assert max(abs(at_rest.B), abs(at_rest.C), abs(at_rest.D)) <= 1e-15
        assert at_rest.product_distance <= 1e-15

    def test_correlation_is_one_at_rest(self):
        doc = {"scenario": "both_bell_correlations", **self.COARSE}
        assert abs(run(parse_config(doc))[0].qcorr - 1.0) <= 1e-15


class TestLargeWidthPolarIntegral:
    """Wide packets at near-light speed, where no fixed cos(theta) rule resolves the spin density.

    At width 1e4 and beta 0.9999, t = tanh(a/2) tanh(d/2) reaches 0.98 across
    the packet, and a 32-node polar rule misses <|a|^2> by 1.4e-4.  Every cell
    must equal the cell computed from the same radial rule with the cos(theta)
    integral taken on graded panels (``oracles.reduced_spin_density_hypot``).
    """

    @pytest.mark.parametrize("scenario", ["momentum_bell_spin_up", "both_bell_correlations"])
    @pytest.mark.parametrize("sign", [-1, 1])
    def test_cells_match_exact_polar_reference(self, monkeypatch, scenario, sign):
        cfg = parse_config(
            {"scenario": scenario, "betas": [0, 0.9999], "delta": 1e4, "delta_sign": sign}
        )
        rows = run(cfg)
        for module in (entanglement, correlations):
            monkeypatch.setattr(module, "reduced_spin_density", reduced_spin_density_hypot)
        for got, want in zip(rows, run(cfg)):
            for g, w in zip(got, want):
                assert (g is None) == (w is None)
                if w is not None:
                    assert abs(g - w) <= 1e-12, (got, want)


@pytest.fixture(scope="module")
def rows():
    cfg = parse_config(
        {"betas": [0.0, 0.5], "grid": {"n_r": 16, "n_theta": 16, "n_phi": 8}}
    )
    return run(cfg)


class TestEmit:

    def test_csv_header_is_pinned(self, rows):
        text = emit(rows, "csv", None)
        assert text.splitlines()[0] == CSV_HEADER

    def test_csv_line_count(self):
        cfg = parse_config(
            {
                "scenario": "fidelity_only",
                "betas": [round(0.1 * i, 1) for i in range(10)],
                "grid": {"n_r": 16, "n_theta": 16, "n_phi": 8},
            }
        )
        text = emit(run(cfg), "csv", None)
        assert len(text.splitlines()) == 11

    def test_empty_cells_for_inapplicable_columns(self, rows):
        line = emit(rows, "csv", None).splitlines()[1]
        cells = line.split(",")
        header = CSV_HEADER.split(",")
        assert cells[header.index("qcorr")] == ""
        assert cells[header.index("ineq15_margin")] == ""
        assert cells[header.index("fidelity")] != ""

    def test_json_round_trip(self, rows, tmp_path):
        path = tmp_path / "rows.json"
        emit(rows, "json", str(path))
        back = json.loads(path.read_text())
        assert len(back) == len(rows)
        for row, rec in zip(rows, back):
            for name, value in rec.items():
                attr = getattr(row, name)
                assert (value is None) == (attr is None)
                if value is not None:
                    assert value == pytest.approx(float(attr), rel=0, abs=0)

    def test_byte_identical_reruns(self):
        cfg = parse_config({"betas": [0.0, 0.3], "grid": {"n_r": 16, "n_theta": 16, "n_phi": 8}})
        assert emit(run(cfg), "csv", None) == emit(run(cfg), "csv", None)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            emit([], "csv", None)


class TestMainEntry:
    def test_run_to_file(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path,
            {"betas": [0.0], "grid": {"n_r": 16, "n_theta": 16, "n_phi": 8}},
        )
        out_path = str(tmp_path / "out.csv")
        assert main(["run", "--config", cfg_path, "--output", out_path]) == EXIT_OK
        lines = open(out_path).read().splitlines()
        assert lines[0] == CSV_HEADER and len(lines) == 2

    def test_validate_accepts_only_what_run_accepts(self, tmp_path, capsys):
        # a direction within parse_config's 1e-9 of unit norm is stored normalised,
        # so ObservableDirection's 1e-12 check passes (run used to exit 3)
        doc = {"scenario": "both_bell_correlations", "betas": [0.5],
               "grid": {"n_r": 16, "n_theta": 16}, "directions": {"a": [1.0000000005, 0, 0]}}
        cfg_path = write_config(tmp_path, doc)
        assert main(["validate", "--config", cfg_path]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["directions"]["a"] == [1.0, 0.0, 0.0]
        assert main(["run", "--config", cfg_path]) == EXIT_OK
        capsys.readouterr()
        # a transverse direction at beta >= 1 - 1e-6 used to pass validate and
        # fail in quantum_correlation (exit 3); both now exit 2 naming the field
        doc = {"scenario": "both_bell_correlations", "betas": [0.0, BETA_CAP],
               "grid": {"n_r": 16, "n_theta": 16}, "directions": {"b": [0, 0, 1]}}
        cfg_path = write_config(tmp_path, doc)
        for command in ("validate", "run"):
            assert main([command, "--config", cfg_path]) == EXIT_CONFIG
            assert "config field 'directions.b': transverse" in capsys.readouterr().err
        # the same direction below that speed, or in another scenario, runs
        for doc["betas"], doc["scenario"] in (([0.0, 0.99], "both_bell_correlations"),
                                              ([0.0, BETA_CAP], "fidelity_only")):
            assert main(["run", "--config", write_config(tmp_path, doc)]) == EXIT_OK
            capsys.readouterr()

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"scenario": "fidelity_only", "seed": 1} \u00e9'.encode("latin-1"))
        for command in ("validate", "run"):
            assert main([command, "--config", str(path)]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and "utf-8" in err, err

    def test_repeated_key_is_config_error(self, tmp_path, capsys):
        # json.load alone keeps the last value: this document used to validate with
        # seed 7 and grid.n_r 32, dropping the n_r of 8 without a word
        path = tmp_path / "repeated.json"
        for text, key in (
            ('{"scenario": "fidelity_only", "betas": [0.5], "seed": 1, "seed": 7, '
             '"grid": {"n_r": 8}, "grid": {"n_theta": 8}}', "seed"),
            ('{"betas": [0.5], "grid": {"n_r": 8}, "grid": {"n_theta": 8}}', "grid"),
            ('{"betas": [0.5], "grid": {"n_r": 8, "n_theta": 8, "n_r": 16}}', "grid.n_r"),
            ('{"directions": {"a": [1, 0, 0], "b": [0, 1, 0], "a": [0, 0, 1]}}', "directions.a"),
        ):
            path.write_text(text)
            for command in ("validate", "run"):
                assert main([command, "--config", str(path)]) == EXIT_CONFIG
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == f"config error: config field '{key}': repeated key\n"

    @pytest.mark.parametrize("case", CANONICAL)
    def test_validate_output_is_pinned(self, tmp_path, capsys, case):
        assert main(["validate", "--config", write_config(tmp_path, case["config"])]) == EXIT_OK
        assert capsys.readouterr().out == case["validate"]

    def test_json_past_interpreter_limits_is_config_error(self, tmp_path, capsys):
        # json.load rejects an integer past the interpreter's digit limit with a
        # ValueError, which used to reach main as a numeric error (exit 3), and
        # nesting past the recursion limit with a RecursionError (a traceback)
        path = tmp_path / "big.json"
        for text in ('{"seed": ' + "9" * (sys.get_int_max_str_digits() + 1) + "}",
                     '{"seed": ' + "[" * 100000 + "]" * 100000 + "}"):
            path.write_text(text)
            for command in ("validate", "run"):
                assert main([command, "--config", str(path)]) == EXIT_CONFIG
                assert capsys.readouterr().err.startswith("config error: ")

    def test_validate_ok(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"betas": [0.0, 0.5]})
        assert main(["validate", "--config", cfg_path]) == EXIT_OK
        echoed = json.loads(capsys.readouterr().out)
        assert echoed["betas"] == [0.0, 0.5]

    #: a -0.0 beta or direction component used to be echoed as -0.0 and the beta
    #: printed as -0, so configs that differ only in a zero's sign had two canonical forms
    NEGATIVE_ZEROS = {"scenario": "fidelity_only", "betas": [-0.0, 0.5],
                      "directions": {"a": [-0.0, 0.6, 0.8]}}

    def test_validate_echoes_negative_zero_as_zero(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, self.NEGATIVE_ZEROS)
        assert main(["validate", "--config", cfg_path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "-0" not in out
        echoed = json.loads(out)
        assert math.copysign(1.0, echoed["betas"][0]) == 1.0
        assert math.copysign(1.0, echoed["directions"]["a"][0]) == 1.0

    def test_run_prints_negative_zero_beta_as_zero(self, tmp_path, capsys):
        assert main(["run", "--config", write_config(tmp_path, self.NEGATIVE_ZEROS)]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1].split(",")[0] == "0"

    def test_config_error_exit_code(self, tmp_path, capsys):
        inf = float("inf")
        cases = [
            ({"betas": [1.5]}, "betas[0]"),
            ({"seed": True}, "'seed'"),
            ({"delta": [True]}, "delta[0]"),
            ({"delta": True}, "'delta'"),
            ({"delta": [inf]}, "delta[0]"),
            ({"delta": [10**400]}, "delta[0]"),  # no float holds it
            ({"delta_sign": True}, "delta_sign"),
            ({"grid": {"n_phi": False}}, "grid.n_phi"),
            ({"directions": {"a": [1, 0, 0], "b": [True, 0, 0]}}, "directions.b"),
            ({"directions": {"A": [0, 1, 0]}}, "directions.A"),  # ran with the default a
            # a dense n x n Jacobi matrix of 74.5 GiB used to end in a MemoryError
            ({"grid": {"n_r": 100000}}, "grid.n_r"),
            ({"grid": {"n_theta": GRID_COUNT_MAX + 1}}, "grid.n_theta"),
        ]
        for doc, field in cases:
            cfg_path = write_config(tmp_path, doc)  # json writes inf as Infinity
            assert main(["validate", "--config", cfg_path]) == EXIT_CONFIG, doc
            assert field in capsys.readouterr().err, doc
        # widths whose normalisation or grid weights leave the float range used to
        # end in an OverflowError traceback (1e-300) or a bare nan message (1e300)
        for width in (1e-300, 1e300, DELTA_MIN * (1 - 1e-9), DELTA_MAX * (1 + 1e-9)):
            cfg_path = write_config(
                tmp_path, {"scenario": "fidelity_only", "betas": [0.5], "delta": width}
            )
            assert main(["run", "--config", cfg_path]) == EXIT_CONFIG, width
            assert "delta[0]" in capsys.readouterr().err, width

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("width", [DELTA_MIN, DELTA_MAX])
    def test_widths_at_the_bounds_run(self, tmp_path, capsys, scenario, width):
        # at BETA_CAP and width 1e12 the fidelity takes the policy's largest cutoff, which
        # runs without overflow (a RuntimeWarning fails the test)
        cfg_path = write_config(
            tmp_path,
            {
                "scenario": scenario,
                "betas": [0.0, 0.5, 0.99, BETA_CAP],
                "delta": width,
                "grid": {"n_r": 16, "n_theta": 16, "n_phi": 8},
            },
        )
        out_path = str(tmp_path / "out.csv")
        assert main(["run", "--config", cfg_path, "--output", out_path]) == EXIT_OK
        cells = [c for line in open(out_path).read().splitlines()[1:] for c in line.split(",")]
        assert all(math.isfinite(float(c)) for c in cells if c)

    @pytest.mark.parametrize("p_max", ["auto", 14.0, 1e200])
    def test_p_max_is_unknown_field(self, tmp_path, capsys, p_max):
        # every radial cutoff is default_p_max's: a config that names one exits 2
        cfg_path = write_config(tmp_path, {"betas": [0.5], "grid": {"n_r": 16, "p_max": p_max}})
        for command in ("validate", "run"):
            assert main([command, "--config", cfg_path]) == EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "config error: config field 'grid.p_max': unknown field\n"

    def test_missing_file_is_config_error(self, capsys):
        assert main(["validate", "--config", "/nonexistent.json"]) == EXIT_CONFIG

    def test_grid_coverage_failure_is_numeric_error(self, tmp_path, capsys):
        # an 8-node radial rule gives the unit packet a norm of 0.999716
        cfg_path = write_config(
            tmp_path, {"scenario": "momentum_bell_spin_up", "betas": [0.5], "grid": {"n_r": 8}}
        )
        assert main(["run", "--config", cfg_path]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numeric error: ") and "grid coverage insufficient" in err, err

    def test_fidelity_range_error_names_the_cell(self, tmp_path, capsys):
        # a 2-node radial rule does not resolve the packet; the message used to
        # print all 21 fidelities and name no cell
        cfg_path = write_config(
            tmp_path, {"scenario": "fidelity_only", "grid": {"n_r": 2, "n_theta": 4}}
        )
        assert main(["run", "--config", cfg_path]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        found = re.fullmatch(
            r"numeric error: fidelity out of \[0, 1\]: (\S+) at beta (\S+), delta (\S+)\n", err
        )
        assert found is not None, err
        value, beta, delta = map(float, found.groups())
        # the worst cell: 22.6 at rest, falling with beta
        assert (value, beta, delta) == (pytest.approx(22.6145284, rel=1e-8), 0.0, 1.0)

    def test_fidelity_only_checks_its_grid(self, tmp_path, capsys):
        # a 4-node radial rule holds 0.687 of the packet, and the fidelity at rest, its fourth
        # power, read 0.2226 with exit 0: inside [0, 1], so only the grid's norm can catch it
        cfg_path = write_config(tmp_path, {"scenario": "fidelity_only", "betas": [0.0, 0.2],
                                           "grid": {"n_r": 4, "n_theta": 4}})
        assert main(["run", "--config", cfg_path]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numeric error: fidelity: distribution norm on the grid is 0.6868")
        assert err.endswith("grid coverage insufficient\n")

    def test_unwritable_output_is_io_error(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path, {"betas": [0.0], "grid": {"n_r": 16, "n_theta": 16, "n_phi": 8}}
        )
        out_path = str(tmp_path / "no_such_dir" / "x.csv")
        assert main(["run", "--config", cfg_path, "--output", out_path]) == EXIT_IO
        assert f"io error: cannot write output {out_path}" in capsys.readouterr().err

    def test_limits_table(self, capsys):
        assert main(["limits"]) == EXIT_OK
        assert capsys.readouterr().out == (
            "ultra-relativistic analytic limit (Omega -> theta):\n"
            "  A = 0.375000000000\n"
            "  B = 0.250000000000\n"
            "  C = 0.125000000000\n"
            "  D = 0.250000000000\n"
            "  eta = 1.000000000000\n"
            "  PT spectrum = [0.125000000000, 0.250000000000, 0.250000000000, 0.375000000000]\n"
            "  E = 0.000000000000\n"
        )

    def test_limits_table_is_closed_form(self, monkeypatch, capsys):
        # the table is bell_weights(1/2): it builds no config, grid or sweep
        assert main(["limits"]) == EXIT_OK
        want = capsys.readouterr().out

        def forbidden(*args, **kwargs):
            raise AssertionError("relent limits ran a sweep kernel")

        for name in ("run", "build_grid", "bell_ABCD", "fidelity"):
            monkeypatch.setattr(cli, name, forbidden)
        assert main(["limits"]) == EXIT_OK
        got = capsys.readouterr().out
        assert got == want and len(got.splitlines()) == 8

    def test_spin_sweeps_do_no_eigensolve(self, monkeypatch):
        # rerun with gauss_legendre's cache cleared, so that the rules are
        # built again, and every np.linalg function (eigensolves, norms) forbidden
        docs = [{"scenario": s} for s in ("spin_bell_momentum_product", "momentum_bell_spin_up")]
        want = [emit(run(parse_config(doc)), "csv", None) for doc in docs]

        def forbidden(*args, **kwargs):
            raise AssertionError("np.linalg on the sweep path")

        wavepacket.gauss_legendre.cache_clear()
        for name in np.linalg.__all__:
            if not isinstance(getattr(np.linalg, name), type):
                monkeypatch.setattr(np.linalg, name, forbidden)
        assert [emit(run(parse_config(doc)), "csv", None) for doc in docs] == want
        assert main(["limits"]) == EXIT_OK

    def test_sweeps_import_no_lazy_numpy_submodule(self, tmp_path):
        # in a fresh interpreter, because pytest and hypothesis import
        # numpy.random themselves
        runs = [
            ["run", "--config", write_config(tmp_path, {"scenario": s}, f"{s}.json"),
             "--output", str(tmp_path / f"{s}.csv")]
            for s in SCENARIOS
        ] + [["limits"]]
        code = (
            "import sys, relent.cli\n"
            f"codes = [relent.cli.main(argv) for argv in {runs!r}]\n"
            "lazy = [m for m in ('numpy.random', 'numpy.polynomial', 'dataclasses')\n"
            "        if m in sys.modules]\n"
            "print(codes, lazy, file=sys.stderr)\n"
        )
        src = Path(cli.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.strip().splitlines()[-1] == f"{[EXIT_OK] * 5} []"

    def test_readme_run_usage_matches_argparse(self, capsys):
        # a flag that argparse drops must leave the README's usage block with it
        usage = re.search(r"^relent run .*?\n(?=relent )", README.read_text(encoding="utf-8"),
                          re.M | re.S)
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        flags = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", capsys.readouterr().out))
        assert set(re.findall(r"(?<![\w-])--[a-z][\w-]*", usage.group())) == flags - {"--help"}

    def test_plot_is_not_an_option(self, tmp_path, capsys):
        # the gnuplot writer lives in scripts/run_default_sweep.py; relent run has no --plot
        cfg_path = write_config(tmp_path, {"betas": [0.0]})
        out_path, plot_path = tmp_path / "out.csv", tmp_path / "plot.gp"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", cfg_path, "--output", str(out_path), "--plot", str(plot_path)])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --plot" in capsys.readouterr().err
        assert not out_path.exists() and not plot_path.exists()
