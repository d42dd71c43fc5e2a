import json
import math
import os
import re
import subprocess
import sys
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
    CSV_HEADER,
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
    emit_plotscript,
    main,
    parse_config,
    run,
)
from oracles import reduced_spin_density_hypot, sample_pairs_loop
from relent import wavepacket
from relent.entanglement import bell_ABCD
from relent.kinematics import BETA_CAP, Boost
from relent.wavepacket import GaussianProduct, build_grid, default_p_max

#: the largest fixed grid.p_max a config may set: the auto policy's largest cutoff
P_MAX_CAP = default_p_max(DELTA_MAX, BETA_CAP)


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
    ({"grid": {"p_max": 0}},
     "config field 'grid.p_max': must be 'auto' or a number in (0, 1.56531e+11], got 0"),
    ({"grid": {"p_max": "Auto"}},
     "config field 'grid.p_max': must be 'auto' or a number in (0, 1.56531e+11], got 'Auto'"),
    ({"grid": {"p_max": 1e+300}},
     "config field 'grid.p_max': must be 'auto' or a number in (0, 1.56531e+11], got 1e+300"),
    ({"grid": {"p_max": float("inf")}},
     "config field 'grid.p_max': must be 'auto' or a number in (0, 1.56531e+11], got inf"),
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
    ({"analytic_limit": 1},
     "config field 'analytic_limit': must be a boolean"),
    ({"analytic_limit": True, "scenario": "fidelity_only"},
     "config field 'analytic_limit': only applies to the spin_bell_momentum_product scenario"),
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
        for p_max in (0, True, float("inf"), float("nan")):
            with pytest.raises(ConfigError, match="grid.p_max"):
                parse_config({"grid": {"p_max": p_max}})

    def test_scalar_delta_promoted(self):
        assert parse_config({"delta": 2.0}).delta == (2.0,)

    def test_round_trip(self):
        cfg = parse_config({"scenario": "fidelity_only", "betas": [0.0, 0.5], "seed": 7})
        assert parse_config(cfg.to_json_dict()) == cfg


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

    def test_analytic_limit_row(self):
        cfg = parse_config({"betas": [0.0], "analytic_limit": True})
        row = run(cfg)[0]
        assert row.A == pytest.approx(0.375, abs=1e-9)
        assert row.B == pytest.approx(0.25, abs=1e-9)
        assert row.C == pytest.approx(0.125, abs=1e-9)
        assert row.D == pytest.approx(0.25, abs=1e-9)
        assert row.E == pytest.approx(0.0, abs=1e-12)

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
            pairs = draw(dist, *args, **kwargs)
            # one draw of the stream gives each width the pairs of its own draw
            for delta, width_pairs in zip(dist.delta.ravel(), pairs):
                want = sample_pairs_loop(GaussianProduct(delta), *args, **kwargs)
                assert np.array_equal(width_pairs, want)
            pair_draws.append(dist.delta.ravel().tolist())
            return pairs

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
        # a chunk holds max(1, 2^20 // (21 n_r n_theta)) widths: all three on the
        # default grid, two then one on 128x160, one at a time on 256x256
        counts = Counter()

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for module, name in LATTICE_KERNELS:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        doc = {"scenario": scenario, "delta": [0.5, 1.0, 4.0],
               "grid": {"n_r": n_r, "n_theta": n_theta}}
        rows = run(parse_config(doc))
        assert len(rows) == 3 * len(cli._DEFAULT_BETAS)
        assert set(counts.values()) == {calls}
        if calls == 2:
            split = [row for d in doc["delta"] for row in run(parse_config({**doc, "delta": [d]}))]
            assert emit(rows, "csv", None) == emit(split, "csv", None)


#: (scenario, config fields) for every combination a sweep can batch
BATCHED_CASES = [
    ("spin_bell_momentum_product", {}),
    ("spin_bell_momentum_product", {"analytic_limit": True}),
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
    @pytest.mark.parametrize("p_max", ["auto", 14.0])
    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_rows_equal_single_beta_runs(self, scenario, fields, p_max, data):
        # a fixed cutoff of 14 resolves the packets and their boosted images up to beta 0.6
        top = 0.99 if p_max == "auto" else 0.6
        betas = sorted(data.draw(st.lists(st.floats(0.0, top), min_size=2, max_size=5)))
        doc = {
            "scenario": scenario, "betas": betas, "delta": [0.5, 1.0, 4.0],
            "grid": {"n_r": 24, "n_theta": 16, "p_max": p_max}, **fields,
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
    """A fixed grid.p_max sets the lab-frame kernels' cutoff and leaves the fidelity's alone."""

    @pytest.mark.parametrize("delta, p_max", [(1e-12, 1.0), (1e12, 1.5653e11)])
    def test_fidelity_is_one_at_rest(self, tmp_path, capsys, delta, p_max):
        # both cutoffs miss the packet, and the fidelity used to print 0 at
        # beta 0 with exit 0
        cfg_path = write_config(
            tmp_path,
            {"scenario": "fidelity_only", "betas": [0.0, 0.5], "delta": delta,
             "grid": {"p_max": p_max}},
        )
        out_path = str(tmp_path / "out.csv")
        assert main(["run", "--config", cfg_path, "--output", out_path]) == EXIT_OK
        lines = open(out_path).read().splitlines()
        fidelity = lines[0].split(",").index("fidelity")
        at_rest = float(lines[1].split(",")[fidelity])
        assert abs(at_rest - 1.0) <= 1e-14

    @pytest.mark.parametrize("scenario", ["spin_bell_momentum_product", "fidelity_only"])
    def test_fidelity_column_equals_auto(self, scenario):
        doc = {
            "scenario": scenario, "betas": [0.0, 0.3, 0.6, 0.99], "delta": [0.5, 1.0, 4.0],
            "grid": {"n_r": 24, "n_theta": 16},
        }
        auto = run(parse_config(doc))
        fixed = run(parse_config({**doc, "grid": {**doc["grid"], "p_max": 14.0}}))
        assert [r.fidelity for r in fixed] == [r.fidelity for r in auto]
        if scenario == "fidelity_only":
            return
        # the Bell weights come from the fixed cutoff
        widths, b = np.array(doc["delta"])[:, None], Boost(np.array(doc["betas"]))
        v = bell_ABCD(GaussianProduct(widths), b, build_grid(24, 16, 14.0))
        for name in ("A", "B", "C", "D"):
            assert [getattr(r, name) for r in fixed] == np.ravel(getattr(v, name)).tolist()
        assert [r.A for r in fixed] != [r.A for r in auto]


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


class TestPlotScript:
    def test_both_quantities(self, tmp_path):
        cfg = parse_config({"betas": [0.0, 0.5], "grid": {"n_r": 16, "n_theta": 16, "n_phi": 8}})
        rows = run(cfg)
        text = emit_plotscript(rows, str(tmp_path / "plot.gp"), "sweep.csv")
        assert "'sweep.csv'" in text
        assert "E delta=1" in text and "F delta=1" in text

    def test_quote_in_csv_path_is_doubled(self, tmp_path):
        # gnuplot reads '' inside a single-quoted string as one quote; the path
        # used to be pasted in as is, which ended the string early
        rows = run(parse_config({"betas": [0.0, 0.5], "delta": [0.5, 1.0]}))
        csv_path = str(tmp_path / "it's a 'sweep'.csv")
        text = emit_plotscript(rows, str(tmp_path / "plot.gp"), csv_path)
        series = [line for line in text.splitlines() if " using 1:" in line]
        assert len(series) == 4
        for line in series:
            quoted = re.match(r"\s*'((?:[^']|'')*)' using 1:", line)
            assert quoted is not None, line
            assert quoted.group(1).replace("''", "'") == csv_path

    def test_fidelity_only_drops_measure_series(self, tmp_path):
        cfg = parse_config(
            {
                "scenario": "fidelity_only",
                "betas": [0.0, 0.5],
                "grid": {"n_r": 16, "n_theta": 16, "n_phi": 8},
            }
        )
        text = emit_plotscript(run(cfg), str(tmp_path / "plot.gp"), "s.csv")
        assert "F delta=" in text
        assert "E delta=" not in text

    def test_two_widths_two_series_each(self, tmp_path):
        cfg = parse_config(
            {
                "betas": [0.0, 0.5],
                "delta": [0.5, 1.0],
                "grid": {"n_r": 16, "n_theta": 16, "n_phi": 8},
            }
        )
        text = emit_plotscript(run(cfg), str(tmp_path / "plot.gp"), "s.csv")
        assert text.count("E delta=") == 2
        assert text.count("F delta=") == 2


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

    def test_validate_ok(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"betas": [0.0, 0.5]})
        assert main(["validate", "--config", cfg_path]) == EXIT_OK
        echoed = json.loads(capsys.readouterr().out)
        assert echoed["betas"] == [0.0, 0.5]

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
            ({"grid": {"p_max": inf}}, "grid.p_max"),
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
        # an unbounded grid used to run through to a nan correlation and exit 0
        cfg_path = write_config(
            tmp_path, {"scenario": "both_bell_correlations", "betas": [0.5], "grid": {"p_max": inf}}
        )
        assert main(["run", "--config", cfg_path]) == EXIT_CONFIG
        assert "grid.p_max" in capsys.readouterr().err
        # a fixed cutoff past the bound used to overflow: p_max^2 raised an
        # uncaught OverflowError at 1e200, and 1e150 ran through numpy overflow
        # warnings to a nan (exit 3)
        for scenario in SCENARIOS:
            for p_max in (1e200, 1e150, P_MAX_CAP * (1 + 1e-9)):
                cfg_path = write_config(
                    tmp_path, {"scenario": scenario, "betas": [0.5], "grid": {"p_max": p_max}}
                )
                assert main(["run", "--config", cfg_path]) == EXIT_CONFIG, (scenario, p_max)
                assert "grid.p_max" in capsys.readouterr().err, (scenario, p_max)
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
        cfg_path = write_config(
            tmp_path,
            {
                "scenario": scenario,
                "betas": [0.0, 0.5, 0.99],
                "delta": width,
                "grid": {"n_r": 16, "n_theta": 16, "n_phi": 8},
            },
        )
        out_path = str(tmp_path / "out.csv")
        assert main(["run", "--config", cfg_path, "--output", out_path]) == EXIT_OK
        cells = [c for line in open(out_path).read().splitlines()[1:] for c in line.split(",")]
        assert all(math.isfinite(float(c)) for c in cells if c)
        # the largest fixed cutoff runs without overflow (a RuntimeWarning fails
        # the test); it may leave the packet unresolved, which is a coverage error
        cfg_path = write_config(
            tmp_path,
            {
                "scenario": scenario,
                "betas": [0.0, BETA_CAP],
                "delta": width,
                "grid": {"n_r": 16, "n_theta": 16, "n_phi": 8, "p_max": P_MAX_CAP},
            },
        )
        capsys.readouterr()
        code = main(["run", "--config", cfg_path, "--output", out_path])
        if code == EXIT_NUMERIC:
            assert "grid" in capsys.readouterr().err
        else:
            assert code == EXIT_OK
            cells = [c for line in open(out_path).read().splitlines()[1:] for c in line.split(",")]
            assert all(math.isfinite(float(c)) for c in cells if c)

    def test_missing_file_is_config_error(self, capsys):
        assert main(["validate", "--config", "/nonexistent.json"]) == EXIT_CONFIG

    def test_grid_coverage_failure_is_numeric_error(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path, {"betas": [0.0], "grid": {"p_max": 0.5}}  # cuts the packet
        )
        assert main(["run", "--config", cfg_path]) == EXIT_NUMERIC
        assert "numeric error" in capsys.readouterr().err

    def test_unwritable_output_is_io_error(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path, {"betas": [0.0], "grid": {"n_r": 16, "n_theta": 16, "n_phi": 8}}
        )
        out_path = str(tmp_path / "no_such_dir" / "x.csv")
        assert main(["run", "--config", cfg_path, "--output", out_path]) == EXIT_IO
        assert "io error" in capsys.readouterr().err

    def test_limits_table(self, capsys):
        assert main(["limits"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "A = 0.375" in out
        assert "eta = 1.0" in out
        assert "E = 0.0" in out

    def test_run_with_plot(self, tmp_path):
        cfg_path = write_config(
            tmp_path,
            {"betas": [0.0, 0.5], "grid": {"n_r": 16, "n_theta": 16, "n_phi": 8}},
        )
        out_path = str(tmp_path / "out.csv")
        plot_path = str(tmp_path / "plot.gp")
        code = main(
            ["run", "--config", cfg_path, "--output", out_path, "--plot", plot_path]
        )
        assert code == EXIT_OK
        assert "plot" in open(plot_path).read()

    def test_spin_sweeps_do_no_eigensolve(self, monkeypatch):
        # the first runs fill gauss_legendre's cache, whose Golub-Welsch rule
        # is the one eigensolve allowed
        docs = [{"scenario": s} for s in ("spin_bell_momentum_product", "momentum_bell_spin_up")]
        want = [emit(run(parse_config(doc)), "csv", None) for doc in docs]

        def no_eigensolve(*args, **kwargs):
            raise AssertionError("eigensolve on the sweep path")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
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

    def test_plot_must_not_overwrite_output(self, tmp_path, capsys):
        # the script used to replace the sweep it plots, with exit 0
        cfg_path = write_config(tmp_path, {"betas": [0.0]})
        out_path = tmp_path / "out.csv"
        for plot in (str(out_path), os.path.join(str(tmp_path), ".", "out.csv")):
            with pytest.raises(SystemExit) as exc:
                main(["run", "--config", cfg_path, "--output", str(out_path), "--plot", plot])
            assert exc.value.code == EXIT_CONFIG, plot
            assert "--plot" in capsys.readouterr().err, plot
            assert not out_path.exists(), plot

    def test_plot_needs_csv_output(self, tmp_path, capsys):
        # the script reads --output as comma-separated data; without it, it
        # used to point at a 'sweep.csv' that nobody wrote, and with JSON it
        # read the JSON file as CSV
        cfg_path = write_config(tmp_path, {"betas": [0.0]})
        plot_path = tmp_path / "plot.gp"
        json_out = str(tmp_path / "out.json")
        for extra in ([], ["--output", json_out, "--format", "json"]):
            with pytest.raises(SystemExit) as exc:
                main(["run", "--config", cfg_path, "--plot", str(plot_path)] + extra)
            assert exc.value.code == EXIT_CONFIG, extra
            assert "--plot" in capsys.readouterr().err, extra
            assert not plot_path.exists(), extra
