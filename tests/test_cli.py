"""Experiment-runner subcommands, exit codes and artifact reproducibility."""

import json
import math
import os

import numpy as np
import pytest

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
            ({}, {"tolerance": -1e-3}, "tolerance"),
            ({"tau": None}, {}, "tau"),
        ],
        ids=[
            "zero_tau",
            "zero_samples_per_pulse",
            "negative_max_pulses",
            "negative_tolerance",
            "null_tau",
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
        assert run("control", cfg, a, ["--seed", "7"]) == EXIT_OK
        assert run("control", cfg, b, ["--seed", "7"]) == EXIT_OK
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
