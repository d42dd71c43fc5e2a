import json
import math
import sys
from collections import Counter

import numpy as np
import pytest

import relent.cli as cli
from relent.cli import (
    CSV_HEADER,
    DELTA_MAX,
    DELTA_MIN,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    SCENARIOS,
    ConfigError,
    emit,
    emit_plotscript,
    main,
    parse_config,
    run,
)
from relent import wavepacket
from relent.kinematics import BETA_CAP
from relent.wavepacket import default_p_max

#: the largest fixed grid.p_max a config may set: the auto policy's largest cutoff
P_MAX_CAP = default_p_max(DELTA_MAX, BETA_CAP)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfigParsing:
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
        for n_r in (1, True, 16.0):
            with pytest.raises(ConfigError, match="grid.n_r"):
                parse_config({"grid": {"n_r": n_r}})
        for p_max in (0, True, float("inf"), float("nan")):
            with pytest.raises(ConfigError, match="grid.p_max"):
                parse_config({"grid": {"p_max": p_max}})

    def test_scalar_delta_promoted(self):
        assert parse_config({"delta": 2.0}).delta == (2.0,)

    def test_round_trip(self):
        cfg = parse_config({"scenario": "fidelity_only", "betas": [0.0, 0.5], "seed": 7})
        assert parse_config(cfg.to_json_dict()) == cfg


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
        cfg = parse_config(
            {
                "betas": [0.0, 0.4, 0.8],
                "delta": [0.5, 1.0],
                "grid": {"n_r": 16, "n_theta": 16, "n_phi": 8},
            }
        )
        serial = emit(run(cfg, workers=1), "csv", None)
        # more threads than cores, switching often, over each width's shared inputs
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = emit(run(cfg, workers=4), "csv", None)
        finally:
            sys.setswitchinterval(interval)
        assert serial == threaded

    def test_beta_independent_inputs_built_once(self, monkeypatch):
        rule_calls, pair_draws = Counter(), []
        leggauss, draw = np.polynomial.legendre.leggauss, cli.default_sample_pairs

        def counting_leggauss(n):
            rule_calls[n] += 1
            return leggauss(n)

        def counting_draw(dist, *args, **kwargs):
            pair_draws.append(dist.delta)
            return draw(dist, *args, **kwargs)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting_leggauss)
        monkeypatch.setattr(cli, "default_sample_pairs", counting_draw)
        cfg = parse_config({"delta": [0.5, 1.0, 4.0]})  # the default 21 betas, 32x32x16
        texts = []
        for workers in (1, 2):
            wavepacket._cached_rule.cache_clear()
            rule_calls.clear()
            pair_draws.clear()
            texts.append(emit(run(cfg, workers=workers), "csv", None))
            assert dict(rule_calls) == {32: 1, 128: 1}
            assert pair_draws == [0.5, 1.0, 4.0]
        assert texts[0] == texts[1]


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
