"""Experiment-runner subcommands, exit codes and artifact reproducibility."""

import json
import math
import os

import numpy as np
import pytest

from preisach_remnant import cli
from preisach_remnant.cli import (
    EXIT_CONFIG,
    EXIT_DEGENERATE,
    EXIT_OK,
    main,
)
from preisach_remnant import Box, GridWeighting


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def deadbeat_config():
    return {
        "weighting": {"preset": "uniform"},
        "q": {"alpha2": 1.0, "beta2": -1.0},
        "controller": {"gamma_d": 0.5, "lambda": 0.5, "w0": 0.0},
    }


def run(command, config_path, out=None, extra=()):
    argv = [command, "--config", config_path]
    if out is not None:
        argv += ["--out", str(out)]
    argv += list(extra)
    return main(argv)


class TestBounds:
    def test_uniform_closed_forms(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", deadbeat_config())
        assert run("bounds", cfg, tmp_path / "out") == EXIT_OK
        report = json.loads((tmp_path / "out" / "bounds.json").read_text())
        assert report["gamma2_plus_q"] == pytest.approx(2.0)
        assert report["max_gain"] == pytest.approx(1.0)

    def test_butterfly_bounds_are_finite(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "c.json",
            {"weighting": {"preset": "butterfly"}, "controller": {"gamma_d": 0.0}},
        )
        assert run("bounds", cfg, tmp_path / "out", ["--resolution", "128"]) == EXIT_OK
        report = json.loads((tmp_path / "out" / "bounds.json").read_text())
        for key in (
            "gamma1_plus",
            "gamma2_plus",
            "gamma1_minus",
            "gamma2_minus",
            "gamma2_plus_q",
            "gamma1_minus_q",
        ):
            assert math.isfinite(report[key])
        assert report["gamma_max"] > report["gamma_min"]

    def test_zero_density_grid_is_degenerate(self, tmp_path, capsys):
        grid = tmp_path / "zero.csv"
        GridWeighting(Box(0.0, 1.0, -1.0, 0.0), [[0.0]]).save_csv(grid)
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "weighting": {"grid_csv": str(grid)},
                "q": {"alpha2": 1.0, "beta2": -1.0},
                "controller": {"gamma_d": 0.0},
            },
        )
        assert run("bounds", cfg, tmp_path / "out") == EXIT_DEGENERATE

    def test_missing_config_file(self, tmp_path, capsys):
        assert run("bounds", str(tmp_path / "nope.json")) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0.0,1.0,-1.0,0.0,2\n1.0,2.0\n", "bad grid CSV header"),
            ("0.0,1.0,-1.0,0.0,2,1\n1.0,2.0,3.0\n", "bad grid CSV row length"),
            ("0.0,1.0,-1.0,0.0,2,2\n1.0,2.0\n3.0\n", "bad grid CSV row length"),
            ("0.0,1.0,-1.0,0.0,2,2\n1.0,2.0\n", "bad grid CSV row count"),
        ],
        ids=["header", "row_length", "ragged_rows", "row_count"],
    )
    def test_bad_grid_csv_is_config_error(self, tmp_path, capsys, text, message):
        grid = tmp_path / "bad.csv"
        grid.write_text(text)
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "weighting": {"grid_csv": str(grid)},
                "q": {"alpha2": 1.0, "beta2": -1.0},
                "controller": {"gamma_d": 0.0},
            },
        )
        assert run("bounds", cfg, tmp_path / "out") == EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["controller", "weighting", "initial_interface", "q"])
    def test_null_section_is_config_error(self, tmp_path, capsys, key):
        bad = dict(deadbeat_config(), **{key: None})
        cfg = write_config(tmp_path, "c.json", bad)
        assert run("bounds", cfg, tmp_path / "out") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: %s must be a mapping" % key)

    def test_config_that_is_not_a_mapping_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", [deadbeat_config()])
        assert run("bounds", cfg, tmp_path / "out") == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: config must be a mapping")


class TestControl:
    def test_deadbeat_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", deadbeat_config())
        out = tmp_path / "out"
        assert run("control", cfg, out) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is True
        assert summary["pulses"] == 2  # records k = 0 and k = 1
        assert summary["final_error"] == pytest.approx(0.0, abs=1e-12)
        trace = (out / "trace.csv").read_text().strip().splitlines()
        assert trace[0] == "k,w_k,gamma_k,e_k,clamped"
        last = trace[-1].split(",")
        assert int(last[0]) == 1
        assert float(last[1]) == pytest.approx(0.75)

    def test_target_out_of_range_is_config_error(self, tmp_path, capsys):
        bad = deadbeat_config()
        bad["controller"]["gamma_d"] = 3.0
        cfg = write_config(tmp_path, "c.json", bad)
        assert run("control", cfg, tmp_path / "out") == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "top, controller, field",
        [
            ({"tau": 0}, {}, "tau"),
            ({"signal_samples_per_pulse": 0}, {}, "signal_samples_per_pulse"),
            ({}, {"max_pulses": -1}, "max_pulses"),
            ({}, {"max_pulses": 2.5}, "max_pulses"),
            ({}, {"tolerance": -1e-3}, "tolerance"),
            ({"tau": None}, {}, "tau"),
            ({}, {"lambda": None}, "lambda"),
            ({}, {"gamma_d": None}, "gamma_d"),
            ({}, {"w0": None}, "w0"),
        ],
        ids=[
            "zero_tau",
            "zero_samples_per_pulse",
            "negative_max_pulses",
            "fractional_max_pulses",
            "negative_tolerance",
            "null_tau",
            "null_lambda",
            "null_gamma_d",
            "null_w0",
        ],
    )
    def test_bad_setting_is_config_error(self, tmp_path, capsys, top, controller, field):
        bad = dict(deadbeat_config(), **top)
        bad["controller"].update(controller)
        cfg = write_config(tmp_path, "c.json", bad)
        assert run("control", cfg, tmp_path / "out") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and field in err
        assert not (tmp_path / "out" / "trace.csv").exists()

    def test_emitted_numbers_are_finite(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", deadbeat_config())
        out = tmp_path / "out"
        assert run("control", cfg, out) == EXIT_OK
        for name in ("trace.csv", "signal.csv"):
            rows = (out / name).read_text().strip().splitlines()[1:]
            for row in rows:
                assert all(math.isfinite(float(x)) for x in row.split(","))

    def test_identical_config_gives_byte_identical_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", deadbeat_config())
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("control", cfg, a) == EXIT_OK
        assert run("control", cfg, b) == EXIT_OK
        for name in ("trace.csv", "signal.csv", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_trace_is_independent_of_the_pulse_period(self, tmp_path, capsys):
        base = deadbeat_config()
        slow = dict(base, tau=1.0)
        fast = dict(base, tau=0.1)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("control", write_config(tmp_path, "s.json", slow), a) == EXIT_OK
        assert run("control", write_config(tmp_path, "f.json", fast), b) == EXIT_OK
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()


class TestSimulate:
    def test_open_loop_plan(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "weighting": {"preset": "uniform"},
                "q": {"alpha2": 1.0, "beta2": -1.0},
                "amplitudes": [0.75, 0.25, -0.25],
            },
        )
        out = tmp_path / "out"
        assert run("simulate", cfg, out) == EXIT_OK
        rows = (out / "remnants.csv").read_text().strip().splitlines()[1:]
        remnants = [float(r.split(",")[2]) for r in rows]
        assert remnants[0] == pytest.approx(0.5)
        assert remnants[1] == pytest.approx(0.5)  # dead zone
        assert remnants[2] == pytest.approx(0.125)

    def test_needs_no_sector_bounds(self, tmp_path, capsys):
        """A field that misses the alpha >= 0 >= beta quadrant has no sector
        bounds, which simulate never reads."""
        grid = tmp_path / "left.csv"
        GridWeighting(Box(-2.0, -1.0, -1.0, 0.0), [[1.0]]).save_csv(grid)
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "weighting": {"grid_csv": str(grid)},
                "q": {"alpha2": 1.0, "beta2": -1.0},
                "amplitudes": [0.5, -0.5],
            },
        )
        assert run("bounds", cfg, tmp_path / "b") == EXIT_CONFIG
        assert run("simulate", cfg, tmp_path / "s") == EXIT_OK
        rows = (tmp_path / "s" / "remnants.csv").read_text().strip().splitlines()[1:]
        # every relay has alpha < 0, so it holds +1 at zero input
        assert [float(r.split(",")[2]) for r in rows] == [1.0, 1.0]


class TestOracleCheck:
    def test_uniform_scenario_passes(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "c.json", dict(deadbeat_config(), oracle_samples_per_pulse=50)
        )
        out = tmp_path / "out"
        assert run("oracle-check", cfg, out, ["--oracle-n", "300"]) == EXIT_OK
        report = json.loads((out / "oracle_check.json").read_text())
        assert report["pass"] is True
        assert report["max_relative_deviation_n300"] <= 0.01
        # coarse lattice must be no better than a refined one by a clear factor
        ratio = report["max_relative_deviation_n150"] / max(
            report["max_relative_deviation_n300"], 1e-15
        )
        assert ratio >= 1.5


class TestSweep:
    def test_gamma_d_sweep_writes_per_run_directories(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "c.json",
            dict(deadbeat_config(), sweep={"param": "gamma_d", "values": [-0.5, 0.0, 0.5]}),
        )
        out = tmp_path / "sweep"
        assert run("sweep", cfg, out) == EXIT_OK
        results = json.loads((out / "sweep.json").read_text())
        assert [r["exit_code"] for r in results] == [EXIT_OK] * 3
        for r in results:
            run_dir = out / ("gamma_d_%r" % r["value"])
            assert (run_dir / "trace.csv").exists()

    def test_bad_value_is_recorded_and_the_sweep_goes_on(self, tmp_path, capsys):
        """A target outside the reachable range fails its own run with exit
        2; the values after it still run and sweep.json lists all three."""
        cfg = write_config(
            tmp_path,
            "c.json",
            dict(deadbeat_config(), sweep={"param": "gamma_d", "values": [0.0, 99.0, 0.5]}),
        )
        out = tmp_path / "sweep"
        assert run("sweep", cfg, out) == EXIT_CONFIG
        results = json.loads((out / "sweep.json").read_text())
        assert [r["value"] for r in results] == [0.0, 99.0, 0.5]
        assert [r["exit_code"] for r in results] == [EXIT_OK, EXIT_CONFIG, EXIT_OK]
        assert "outside the reachable remnant range" in results[1]["error"]
        assert "error" not in results[0] and "error" not in results[2]
        assert (out / "gamma_d_0.5" / "summary.json").exists()
        assert "gamma_d=99.0" in capsys.readouterr().err

    def test_null_value_is_recorded_and_the_sweep_goes_on(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "c.json",
            dict(deadbeat_config(), sweep={"param": "lambda", "values": [0.5, None, 0.3]}),
        )
        out = tmp_path / "sweep"
        assert run("sweep", cfg, out) == EXIT_CONFIG
        results = json.loads((out / "sweep.json").read_text())
        assert [r["value"] for r in results] == [0.5, None, 0.3]
        assert [r["exit_code"] for r in results] == [EXIT_OK, EXIT_CONFIG, EXIT_OK]
        assert "lambda must be a number" in results[1]["error"]

    def test_runs_share_one_scan_and_match_single_runs(self, tmp_path, capsys, monkeypatch):
        """The swept runs reuse the sweep's sector bounds and write what a
        control run of each value writes alone."""
        values = [0.3, -0.2, 0.6]
        base = dict(deadbeat_config(), weighting={"preset": "butterfly"})
        base["controller"] = {"gamma_d": 0.0, "lambda": "auto"}
        cfg = write_config(tmp_path, "c.json", dict(base, sweep={"param": "gamma_d", "values": values}))
        scans = []
        real = cli.sector_bounds
        monkeypatch.setattr(cli, "sector_bounds", lambda *a: scans.append(a) or real(*a))
        out = tmp_path / "sweep"
        assert run("sweep", cfg, out, ["--resolution", "64"]) == EXIT_OK
        assert len(scans) == 1
        for v in values:
            single = dict(base, controller=dict(base["controller"], gamma_d=v))
            alone = tmp_path / ("alone_%r" % v)
            assert run("control", write_config(tmp_path, "s.json", single), alone,
                       ["--resolution", "64"]) == EXIT_OK
            swept = out / ("gamma_d_%r" % v)
            assert sorted(os.listdir(swept)) == sorted(os.listdir(alone))
            for name in os.listdir(alone):
                assert (swept / name).read_bytes() == (alone / name).read_bytes()
