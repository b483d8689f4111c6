"""Experiment-runner subcommands, exit codes and artifact reproducibility."""

import ast
import copy
import inspect
import json
import math
import os
import re
import tempfile
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preisach_remnant import cli, presets
from preisach_remnant.cli import (
    EXIT_CONFIG,
    EXIT_DEGENERATE,
    EXIT_OK,
    main,
)
from preisach_remnant import Box, ConfigurationError, GridWeighting
from preisach_remnant.control import ControlTrace, PulseRecord
from preisach_remnant.presets import number

from conftest import write_grid_csv


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
        write_grid_csv(GridWeighting(Box(0.0, 1.0, -1.0, 0.0), [[0.0]]), grid)
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

    @pytest.mark.parametrize("command", ["bounds", "control"])
    @pytest.mark.parametrize(
        "weighting",
        [
            {"preset": "uniform", "value": 1e-310},
            {"preset": "butterfly", "scale": 1e-310},
            {"preset": "butterfly", "scale": 1e-320},
            {"preset": "butterfly", "scale": 3e-309},
        ],
        ids=["uniform_1e-310", "butterfly_1e-310", "butterfly_1e-320", "butterfly_3e-309"],
    )
    def test_gain_cap_that_overflows_is_degenerate(self, tmp_path, capsys, command, weighting):
        """A field so weak that its steepest Q slope is subnormal has no
        gain cap, whether 2 over the slope overflows (1e-310, 1e-320) or
        not (the butterfly at 3e-309, whose slope is 1.69e-308): both
        commands exit 3, and no artifact holds a cap."""
        changes = {"weighting": weighting, "controller.lambda": "auto"}
        cfg = write_config(tmp_path, "c.json", with_changes(changes))
        out = tmp_path / "out"
        assert run(command, cfg, out) == EXIT_DEGENERATE
        assert "overflows" in capsys.readouterr().err
        written = [p.read_text() for p in out.rglob("*") if p.is_file()]
        assert not any("Infinity" in text or "max_gain" in text for text in written)

    def test_missing_config_file(self, tmp_path, capsys):
        assert run("bounds", str(tmp_path / "nope.json")) == EXIT_CONFIG

    @pytest.mark.parametrize("text", [b"{", b"\xff"], ids=["truncated", "not_utf8"])
    def test_config_that_is_not_json(self, tmp_path, capsys, text):
        path = tmp_path / "c.json"
        path.write_bytes(text)
        assert run("bounds", str(path), tmp_path / "out") == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: %s is not a JSON config: " % path)
        assert not (tmp_path / "out").exists()

    def test_missing_grid_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "weighting": {"grid_csv": str(tmp_path / "nope.csv")},
            "q": {"alpha2": 1.0, "beta2": -1.0},
        })
        assert run("bounds", cfg, tmp_path / "out") == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: [Errno ")
        assert not (tmp_path / "out").exists()

    def test_out_below_a_regular_file(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        cfg = write_config(tmp_path, "c.json", deadbeat_config())
        assert run("bounds", cfg, tmp_path / "file" / "out") == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: [Errno ")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0.0,1.0,-1.0,0.0,2\n1.0,2.0\n", "bad grid CSV header"),
            ("0.0,1.0,-1.0,0.0,2,1\n1.0,2.0,3.0\n", "bad grid CSV row length"),
            ("0.0,1.0,-1.0,0.0,2,2\n1.0,2.0\n3.0\n", "bad grid CSV row length"),
            ("0.0,1.0,-1.0,0.0,2,2\n1.0,2.0\n", "bad grid CSV row count"),
            ("0.0,one,-1.0,0.0,2,1\n1.0,2.0\n", "bad grid CSV header"),
            ("0.0,1.0,-1.0,0.0,2,1\n1.0,two\n", "bad grid CSV value"),
        ],
        ids=["header", "row_length", "ragged_rows", "row_count", "header_field", "cell"],
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
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["controller", "weighting", "initial_interface", "q"])
    def test_null_section_is_config_error(self, tmp_path, capsys, key):
        bad = dict(deadbeat_config(), **{key: None})
        cfg = write_config(tmp_path, "c.json", bad)
        assert run("bounds", cfg, tmp_path / "out") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: %s must be a mapping" % key)
        assert not (tmp_path / "out").exists()

    def test_config_that_is_not_a_mapping_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", [deadbeat_config()])
        assert run("bounds", cfg, tmp_path / "out") == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: config must be a mapping")
        assert not (tmp_path / "out").exists()


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
        assert not (tmp_path / "out").exists()

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
        assert not (tmp_path / "out").exists()

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
        write_grid_csv(GridWeighting(Box(-2.0, -1.0, -1.0, 0.0), [[1.0]]), grid)
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
        assert not (tmp_path / "b").exists()
        assert run("simulate", cfg, tmp_path / "s") == EXIT_OK
        rows = (tmp_path / "s" / "remnants.csv").read_text().strip().splitlines()[1:]
        # every relay has alpha < 0, so it holds +1 at zero input
        assert [float(r.split(",")[2]) for r in rows] == [1.0, 1.0]


#: floats whose ``%r`` the CSV writers must keep: both zeros, which compare
#: equal but print apart, the least subnormal, both sides of the switches to
#: exponent notation (1e-05 and 1e16) and a power of ten past them
AWKWARD = (0.0, -0.0, 5e-324, -5e-324, 1e-05, 0.0001, -1e-05, 1e16, 1e15, 1e22, -1e22, 1.0 / 3.0)


class TestCsvWriters:
    """``signal.csv``, ``remnants.csv`` and ``trace.csv`` are each formatted
    by one ``%``; their bytes are those of one ``"%r,...\\n"`` per row."""

    def test_simulate_artifacts_are_the_per_row_format(self, tmp_path, capsys, monkeypatch):
        amplitudes = [-0.5, 0.0, -0.0, 5e-324, -1e-05, 1e16, 1e22, -1e22]
        remnants = [AWKWARD[k % len(AWKWARD)] for k in range(3, 3 + len(amplitudes))]
        t = np.array(AWKWARD * 3)
        u = np.array(AWKWARD[::-1] * 3)
        y = np.roll(t, 5)
        monkeypatch.setattr(cli, "pulse_remnants", lambda mu, iface, amps: list(remnants))
        monkeypatch.setattr(cli, "dense_response", lambda mu, iface, amps, tau, step: (t, u, y.tolist()))
        cfg = write_config(tmp_path, "c.json", dict(deadbeat_config(), amplitudes=amplitudes))
        out = tmp_path / "out"
        assert run("simulate", cfg, out) == EXIT_OK
        rows = ["%d,%r,%r\n" % row for row in zip(range(len(amplitudes)), amplitudes, remnants)]
        assert (out / "remnants.csv").read_text() == "k,w_k,gamma_k\n" + "".join(rows)
        rows = ["%r,%r,%r\n" % row for row in zip(t.tolist(), u.tolist(), y.tolist())]
        assert (out / "signal.csv").read_text() == "t,u,y\n" + "".join(rows)
        assert "-0.0," in rows[1] and "5e-324" in rows[2] and "1e+22" in rows[9]

    def test_trace_is_the_per_row_format(self, tmp_path, capsys, monkeypatch):
        records = [
            PulseRecord(k, w, AWKWARD[-1 - k], AWKWARD[k // 2], bool(k % 3))
            for k, w in enumerate(AWKWARD)
        ]
        trace = ControlTrace(records, False, 1.0, -1.0, 1e-6, None)
        monkeypatch.setattr(cli, "_controlled", lambda cfg, args: (trace, 0.5))
        monkeypatch.setattr(cli, "dense_response", lambda *a: (np.zeros(1), np.zeros(1), [0.0]))
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "c.json", deadbeat_config())
        assert run("control", cfg, out) == cli.EXIT_NO_CONVERGENCE
        rows = ["%d,%r,%r,%r,%d\n" % (r.k, r.w, r.gamma, r.e, int(r.clamped)) for r in records]
        assert (out / "trace.csv").read_text() == "k,w_k,gamma_k,e_k,clamped\n" + "".join(rows)
        assert rows[1].startswith("1,-0.0,") and rows[3].startswith("3,-5e-324,")

    def test_empty_plans_write_the_header_alone(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", dict(deadbeat_config(), amplitudes=[]))
        assert run("simulate", cfg, tmp_path / "out") == EXIT_OK
        assert (tmp_path / "out" / "remnants.csv").read_text() == "k,w_k,gamma_k\n"
        assert (tmp_path / "out" / "signal.csv").read_text() == "t,u,y\n0.0,0.0,-1.0\n"


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
        assert not (out / "gamma_d_99.0").exists()  # the failed run writes nothing
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
        scans, controls = [], []
        real, control = cli.premised_bounds, cli.cmd_control
        monkeypatch.setattr(cli, "premised_bounds", lambda *a: scans.append(a) or real(*a))
        monkeypatch.setattr(cli, "cmd_control", lambda *a: controls.append(a) or control(*a))
        out = tmp_path / "sweep"
        assert run("sweep", cfg, out, ["--resolution", "64"]) == EXIT_OK
        assert len(scans) == 1
        assert len(controls) == len(values)
        for v in values:
            single = dict(base, controller=dict(base["controller"], gamma_d=v))
            alone = tmp_path / ("alone_%r" % v)
            assert run("control", write_config(tmp_path, "s.json", single), alone,
                       ["--resolution", "64"]) == EXIT_OK
            swept = out / ("gamma_d_%r" % v)
            assert sorted(os.listdir(swept)) == sorted(os.listdir(alone))
            for name in os.listdir(alone):
                assert (swept / name).read_bytes() == (alone / name).read_bytes()


class TestSignOnQ:
    """The gain cap needs a density of one sign on Q, found from the field:
    every command that reads the sector bounds checks it, simulate does
    not."""

    @staticmethod
    def sign_change_config(tmp_path):
        # one cell of 1.0 below one of -0.5, both inside Q: the remnant is
        # not monotone in the pulse amplitude
        grid = tmp_path / "grid.csv"
        grid.write_text("0.0,1.0,-1.0,0.0,1,2\n1.0\n-0.5\n")
        return write_config(tmp_path, "c.json", {
            "weighting": {"grid_csv": str(grid)},
            "q": {"alpha2": 1.0, "beta2": -1.0},
            "controller": {"gamma_d": 0.0, "lambda": 0.5},
            "amplitudes": [0.5, -0.25],
            "sweep": {"param": "gamma_d", "values": [0.0]},
        })

    @pytest.mark.parametrize("command", ["bounds", "control", "oracle-check", "sweep"])
    def test_sign_change_exits_2(self, tmp_path, capsys, command):
        cfg = self.sign_change_config(tmp_path)
        out = tmp_path / "out"
        assert run(command, cfg, out) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == (
            "config error: weighting is negative on Q in the cell [0, 1] x [-0.5, 0];"
            " weighting is positive on Q in the cell [0, 1] x [-1, -0.5]\n"
        )
        assert not out.exists()

    def test_simulate_runs_without_the_premise(self, tmp_path, capsys):
        assert run("simulate", self.sign_change_config(tmp_path), tmp_path / "out") == EXIT_OK

    def test_either_sign_runs(self, tmp_path, capsys):
        """The uniform fields of value 1 and -1 have mirrored Q bounds and
        the same gain cap, and each controller reaches its target."""
        caps = []
        for value in (1.0, -1.0):
            cfg = dict(deadbeat_config(), weighting={"preset": "uniform", "value": value})
            cfg["controller"] = {"gamma_d": 0.5 * value}
            path, out = write_config(tmp_path, "c.json", cfg), tmp_path / ("out%r" % value)
            assert run("bounds", path, out / "bounds") == EXIT_OK
            assert run("control", path, out / "control") == EXIT_OK
            caps.append(json.loads((out / "bounds" / "bounds.json").read_text())["max_gain"])
        assert caps == [1.0, 1.0]

    @pytest.mark.parametrize("mode", ["positive", "negative", "up", None])
    def test_mode_is_not_a_config_key(self, tmp_path, capsys, mode):
        cfg = dict(deadbeat_config(), controller={"gamma_d": 0.5, "mode": mode})
        assert run("bounds", write_config(tmp_path, "c.json", cfg), tmp_path / "out") == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: controller.mode is not a known config key\n"
        assert not (tmp_path / "out").exists()


#: a config value that ``with_changes`` deletes its key for
MISSING = object()


def with_changes(changes, cfg=None):
    """The config ``cfg`` (the deadbeat config when None) with each dotted
    key set to its value, or deleted for ``MISSING``."""
    cfg = copy.deepcopy(cfg) if cfg is not None else deadbeat_config()
    for dotted, value in changes.items():
        *sections, key = dotted.split(".")
        target = cfg
        for section in sections:
            target = target.setdefault(section, {})
        if value is MISSING:
            target.pop(key, None)
        else:
            target[key] = value
    return cfg


BUTTERFLY = {"weighting.preset": "butterfly"}
PZT_SHELF = {"initial_interface.preset": "pzt_shelf"}
SWEEP = {"sweep.param": "gamma_d"}
#: the start of the error of a signal whose sample count breaks its rule
SIGNAL_KEYS = "tau and signal_samples_per_pulse"

#: id -> (config changes, command, flags, the key the error must name)
BAD_INPUTS = {
    "null_q_alpha2": ({"q.alpha2": None}, "bounds", [], "q.alpha2"),
    "string_q_alpha2": ({"q.alpha2": "1"}, "bounds", [], "q.alpha2"),
    "null_amplitudes": ({"amplitudes": None}, "simulate", [], "amplitudes"),
    "null_amplitude": ({"amplitudes": [0.5, None]}, "simulate", [], "amplitudes[1]"),
    "null_extrema": ({"initial_interface.extrema": None}, "bounds", [], "initial_interface.extrema"),
    "null_extremum": (
        {"initial_interface.extrema": [0.5, None]}, "bounds", [], "initial_interface.extrema[1]"
    ),
    "null_scale": (dict(BUTTERFLY, **{"weighting.scale": None}), "bounds", [], "weighting.scale"),
    "null_grid_csv": ({"weighting.grid_csv": None}, "bounds", [], "weighting.grid_csv"),
    "null_oracle_samples": (
        {"oracle_samples_per_pulse": None}, "oracle-check", [], "oracle_samples_per_pulse"
    ),
    "null_sweep_values": (dict(SWEEP, **{"sweep.values": None}), "sweep", [], "sweep.values"),
    "number_sweep_values": (dict(SWEEP, **{"sweep.values": 5}), "sweep", [], "sweep.values"),
    "repeated_sweep_value": (dict(SWEEP, **{"sweep.values": [0.1, 0.1]}), "sweep", [], "sweep.values"),
    "null_alpha_max": (
        dict(PZT_SHELF, **{"initial_interface.alpha_max": None}),
        "bounds",
        [],
        "initial_interface.alpha_max",
    ),
    "string_tolerance": ({"controller.tolerance": "1e-3"}, "control", [], "controller.tolerance"),
    "bool_gamma_d": ({"controller.gamma_d": True}, "control", [], "controller.gamma_d"),
    "bool_tau": ({"tau": True}, "control", [], "tau"),
    "bool_max_pulses": ({"controller.max_pulses": False}, "control", [], "controller.max_pulses"),
    "nan_tau": ({"tau": float("nan")}, "control", [], "tau"),
    "infinite_w0": ({"controller.w0": float("inf")}, "control", [], "controller.w0"),
    "negative_infinite_lambda": ({"controller.lambda": -float("inf")}, "control", [], "controller.lambda"),
    "string_lambda": ({"controller.lambda": "0.5"}, "control", [], "controller.lambda"),
    "typo_lambda": ({"controller.lamda": 0.01}, "control", [], "controller.lamda"),
    "unknown_top_level_key": ({"tua": 1.0}, "bounds", [], "tua"),
    "unknown_q_key": ({"q.gamma": 1.0}, "bounds", [], "q.gamma"),
    "unknown_sweep_key": (
        dict(SWEEP, **{"sweep.values": [0.5], "sweep.value": 0.5}), "sweep", [], "sweep.value"
    ),
    "scale_of_uniform": ({"weighting.scale": 2.0}, "bounds", [], "weighting.scale"),
    "value_of_butterfly": (
        dict(BUTTERFLY, **{"weighting.value": 2.0}), "bounds", [], "weighting.value"
    ),
    "alpha_max_of_virgin": (
        {"initial_interface.alpha_max": 1.0}, "bounds", [], "initial_interface.alpha_max"
    ),
    "preset_beside_extrema": (
        {"initial_interface.extrema": [0.5], "initial_interface.preset": "virgin"},
        "bounds",
        [],
        "initial_interface.preset",
    ),
    "huge_oracle_samples": (
        {"oracle_samples_per_pulse": 1e308}, "oracle-check", [], "oracle_samples_per_pulse"
    ),
    "oracle_samples_2_63": (
        {"oracle_samples_per_pulse": 2**63}, "oracle-check", [], "oracle_samples_per_pulse"
    ),
    "huge_max_pulses": ({"controller.max_pulses": 1e308}, "control", [], "controller.max_pulses"),
    "huge_tau_control": ({"tau": 1e308}, "control", [], SIGNAL_KEYS),
    "huge_tau_simulate": ({"tau": 1e308}, "simulate", [], SIGNAL_KEYS),
    "huge_tau_sweep": (
        dict(SWEEP, **{"tau": 1e308, "sweep.values": [0.5]}), "sweep", [], SIGNAL_KEYS
    ),
    "huge_signal_samples_control": (
        {"signal_samples_per_pulse": 1e308}, "control", [], SIGNAL_KEYS
    ),
    "huge_signal_samples_simulate": (
        {"signal_samples_per_pulse": 1e308}, "simulate", [], SIGNAL_KEYS
    ),
    "huge_signal_samples_sweep": (
        dict(SWEEP, **{"signal_samples_per_pulse": 1e308, "sweep.values": [0.5]}),
        "sweep",
        [],
        SIGNAL_KEYS,
    ),
    "sample_step_underflows": ({"tau": 5e-324}, "simulate", [], SIGNAL_KEYS),
    "sample_step_overflows": (
        {"tau": 1e300, "signal_samples_per_pulse": 1e-10}, "simulate", [], SIGNAL_KEYS
    ),
    "oracle_n_1": ({}, "oracle-check", ["--oracle-n", "1"], "--oracle-n"),
    "oracle_n_0": ({}, "oracle-check", ["--oracle-n", "0"], "--oracle-n"),
    "resolution_0": ({}, "bounds", ["--resolution", "0"], "--resolution"),
    "resolution_1": ({}, "bounds", ["--resolution", "1"], "--resolution"),
    "negative_resolution": ({}, "bounds", ["--resolution", "-4"], "--resolution"),
}


@pytest.mark.parametrize("changes, command, flags, key", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exits_2_naming_its_key(tmp_path, capsys, changes, command, flags, key):
    """Every bad value exits 2 before any artifact is written: a config
    value with a config error that names its key, a flag with a usage
    error."""
    cfg = write_config(tmp_path, "c.json", with_changes(changes))
    out = tmp_path / "out"
    if key.startswith("--"):
        with pytest.raises(SystemExit) as exit_:
            run(command, cfg, out, flags)
        assert exit_.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("usage:") and key in err
    else:
        assert run(command, cfg, out, flags) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: %s " % key)
    assert not out.exists()


def test_integer_keys_must_fit_an_int64():
    rule = "an integer >= 1"
    assert number(2**63 - 1, "k", rule) == 2**63 - 1
    assert number(9.223372036854775e18, "k", rule) == 9223372036854774784
    for value in (2**63, 9.223372036854776e18, 1e308):
        with pytest.raises(ConfigurationError, match=r"^k must be below 2\*\*63, got "):
            number(value, "k", rule)


@pytest.mark.parametrize(
    "samples, code", [(2.0**62, EXIT_OK), (2.0**63, EXIT_CONFIG)], ids=["2_62_loads", "2_63_exits_2"]
)
def test_signal_sample_count_must_be_below_2_63(tmp_path, capsys, samples, code):
    """One pulse at ``samples`` samples per pulse: a count of 2**62 loads
    (``bounds`` renders no signal), 2**63 does not."""
    cfg = with_changes({"signal_samples_per_pulse": samples, "controller.max_pulses": 0})
    assert run("bounds", write_config(tmp_path, "c.json", cfg), tmp_path / "out") == code


HUGE_BUTTERFLY = {"weighting": {"preset": "butterfly", "scale": 1e308}, "amplitudes": [0.5]}
HUGE_GRID = "0.0,1.0,-1.0,0.0,2,2\n1e308,1e308\n1e308,1e308\n"


#: a uniform field whose absolute mass, 1e308, is finite, but twice it,
#: which every output read takes, is not
DOUBLE_OVERFLOW = {"weighting": {"preset": "uniform", "value": 1e308}, "amplitudes": [1.0],
                   "controller": {"gamma_d": 0.0}}


@pytest.mark.parametrize("command", ["bounds", "simulate"])
@pytest.mark.parametrize("field", ["butterfly", "grid", "twice_uniform"])
def test_field_whose_mass_overflows_exits_2(tmp_path, capsys, command, field):
    if field == "grid":
        grid = tmp_path / "huge.csv"
        grid.write_text(HUGE_GRID)
        cfg = {"weighting": {"grid_csv": str(grid)}, "q": {"alpha2": 1.0, "beta2": -1.0},
               "amplitudes": [0.5]}
    else:
        cfg = HUGE_BUTTERFLY if field == "butterfly" else DOUBLE_OVERFLOW
    out = tmp_path / "out"
    assert run(command, write_config(tmp_path, "c.json", cfg), out) == EXIT_CONFIG
    kind = "Gaussian" if field == "butterfly" else "grid"
    assert capsys.readouterr().err.startswith("config error: %s weighting mass is not finite" % kind)
    assert not out.exists()


#: the same value on Q = [0, 1e-10] x [-1, 0]: the mass is 1e298, but the
#: sector bounds, twice a line integral across beta of 1e308, overflow
THIN_STRIP = dict(DOUBLE_OVERFLOW, q={"alpha2": 1e-10, "beta2": -1.0})


@pytest.mark.parametrize("command", ["bounds", "control", "oracle-check", "sweep"])
def test_sector_bounds_that_overflow_exit_3(tmp_path, capsys, command):
    cfg = dict(THIN_STRIP, sweep={"param": "gamma_d", "values": [0.0]})
    out = tmp_path / "out"
    assert run(command, write_config(tmp_path, "c.json", cfg), out) == EXIT_DEGENERATE
    err = capsys.readouterr().err
    assert err.startswith("degenerate bounds: sector bound gamma2_plus is inf")
    assert not out.exists()


@pytest.mark.parametrize("command", ["bounds", "simulate"])
def test_huge_field_with_a_finite_mass_runs(tmp_path, capsys, command):
    cfg = {"weighting": {"preset": "butterfly", "scale": 1e150}, "amplitudes": [0.5]}
    out = tmp_path / "out"
    assert run(command, write_config(tmp_path, "c.json", cfg), out) == EXIT_OK
    for artifact in out.iterdir():
        assert "nan" not in artifact.read_text().lower()


#: a butterfly scale whose coordinates are exact in binary: its remnants
#: are TINY**2 times those at scale 1, and its tolerances TINY times
TINY = 2.0**-40


def butterfly_run(tmp_path, command, scale, **settings):
    """(exit code, summary or None) of ``command`` on the butterfly at
    ``scale``, with the top-level config ``settings``."""
    cfg = dict(settings, weighting={"preset": "butterfly", "scale": scale})
    out = tmp_path / ("%s-%s" % (command, scale.hex()))
    code = run(command, write_config(tmp_path, "c.json", cfg), out)
    summary = out / "summary.json"
    return code, json.loads(summary.read_text()) if summary.exists() else None


def test_tiny_butterfly_control_converges_as_at_scale_one(tmp_path, capsys):
    """The target 0.25 at scale 1 is 0.25 * TINY**2 at scale TINY: the run
    takes the same 7 pulses and ends at the same remnant, TINY**2 times."""
    runs = [butterfly_run(tmp_path, "control", s, controller={"gamma_d": 0.25 * s * s})
            for s in (1.0, TINY)]
    assert [(code, summary["pulses"]) for code, summary in runs] == [(EXIT_OK, 7)] * 2
    assert runs[1][1]["final_remnant"] == TINY**2 * runs[0][1]["final_remnant"]


def test_tiny_butterfly_simulate_is_scale_one_times_tiny_squared(tmp_path, capsys):
    plan = [0.9, -0.9, 0.85, -0.85]
    (_, one), (code, tiny) = [
        butterfly_run(tmp_path, "simulate", s, amplitudes=[w * s for w in plan]) for s in (1.0, TINY)
    ]
    assert code == EXIT_OK
    assert one["final_output"] == -1.199498754481763
    assert tiny["final_output"] == -9.922021144888185e-25 == TINY**2 * one["final_output"]


def test_tiny_butterfly_target_past_its_range_is_config_error(tmp_path, capsys):
    """Its remnants lie within about 1e-24 of zero, so 1e-10 is out of
    reach: the target pad is relative to them, with no floor at 1."""
    code, summary = butterfly_run(tmp_path, "control", TINY, controller={"gamma_d": 1e-10})
    assert (code, summary) == (EXIT_CONFIG, None)
    assert "outside the reachable remnant range" in capsys.readouterr().err


INADMISSIBLE = {
    "weighting": {"preset": "butterfly"},
    "q": {"alpha2": 0.5, "beta2": -0.5},
    "initial_interface": {"extrema": [0.9, -0.9]},
    "controller": {"gamma_d": 0.1},
    "sweep": {"param": "gamma_d", "values": [0.1]},
}


@pytest.mark.parametrize("command", ["bounds", "control", "sweep"])
def test_inadmissible_interface_exits_2(tmp_path, capsys, command):
    """An initial interface in the forbidden strips is a config error; a
    sweep records it for the run it ends."""
    cfg = write_config(tmp_path, "c.json", INADMISSIBLE)
    out = tmp_path / "out"
    assert run(command, cfg, out) == EXIT_CONFIG
    assert "initial interface enters the forbidden strips" in capsys.readouterr().err
    if command == "sweep":  # its record, and no directory for the run it ends
        assert [p.name for p in out.iterdir()] == ["sweep.json"]
    else:
        assert not out.exists()


def test_readme_sample_config_runs_bounds(tmp_path, capsys):
    """The config shown under "Config file" in the README loads as it is."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Config file", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    cfg = write_config(tmp_path, "c.json", json.loads(block))
    assert run("bounds", cfg, tmp_path / "out") == EXIT_OK
    assert json.loads((tmp_path / "out" / "bounds.json").read_text())["max_gain"] > 0.0


def test_readme_names_every_command_exit_code_and_config_key():
    """README names every command of the parser, in its command list; the
    value of every ``EXIT_*`` code of ``cli.py``, in its exit-code line;
    and every config key ``load_config`` accepts, quoted under "Config
    file": the keys of ``cli._KEYS`` and those each per-preset
    ``known_keys`` call of ``cli.py`` and ``presets.py`` lists."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = next(a.choices for a in cli.build_parser()._actions if a.dest == "command")
    assert [c for c in commands if "\n- `%s` — " % c not in readme] == []
    codes = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    listed = readme.split("\nExit codes: ", 1)[1].split(".", 1)[0]
    assert {int(n) for n in re.findall(r"\b(\d+) [a-z]", listed)} == codes
    keys = {key for section in cli._KEYS.values() for key in section}
    for module in (cli, presets):
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            call = isinstance(node, ast.Call) and getattr(node.func, "id", None) == "known_keys"
            if call and isinstance(node.args[2], ast.Tuple):  # not cli._KEYS[key]
                keys.update(ast.literal_eval(node.args[2]))
    config_file = readme.split("### Config file", 1)[1].split("\n## ", 1)[0]
    assert sorted(k for k in keys if '"%s"' % k not in config_file) == []


# -- config fuzz ---------------------------------------------------------------

#: a small valid butterfly config that sets every key of ``cli._KEYS``
FUZZ_BASE = {
    "weighting": {"preset": "butterfly", "scale": 1.0},
    "q": {"alpha2": 1.0, "beta2": -1.0},
    "initial_interface": {"preset": "virgin"},
    "controller": {
        "gamma_d": 0.3, "lambda": "auto", "w0": 0.0, "tolerance": 1e-3,
        "max_pulses": 20,
    },
    "tau": 1.0,
    "signal_samples_per_pulse": 8,
    "oracle_samples_per_pulse": 8,
    "amplitudes": [0.5, -0.3],
    "sweep": {"param": "gamma_d", "values": [0.3, -0.2]},
}
#: the keys of the sections whose layout depends on the preset
PRESET_KEYS = {
    "weighting": ("preset", "scale", "value", "grid_csv"),
    "initial_interface": ("preset", "extrema", "alpha_max", "shelf_beta"),
}
#: every dotted key the loader reads, and an unknown key in every section
FUZZ_KEYS = [
    (section + "." if section else "") + key
    for section, keys in list(cli._KEYS.items()) + list(PRESET_KEYS.items())
    for key in keys + ("unknown",)
]
EXTREMES = (1e308, -1e308, 1e-308, 5e-324, 0.0, -0.0, -1)
#: extremes, wrong types, one-element lists of extremes and a missing key;
#: each count among them is refused or small, as a count that fits below
#: 2**63 but exhausts memory is out of scope (see the README)
FUZZ_VALUES = EXTREMES + ("", None, True, False, [], {}) + tuple([x] for x in EXTREMES) + (MISSING,)


@settings(max_examples=300, deadline=timedelta(seconds=5), derandomize=True)
@given(key=st.sampled_from(FUZZ_KEYS), value=st.sampled_from(FUZZ_VALUES))
def test_every_config_ends_in_a_defined_exit_code(key, value):
    """One key of a valid config set to an extreme or a wrong value, or
    deleted, ends every command in a defined exit code, never in an
    exception."""
    flags = ["--resolution", "64", "--oracle-n", "8"]
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp), "c.json", with_changes({key: value}, FUZZ_BASE))
        for command in ("bounds", "control", "simulate", "oracle-check", "sweep"):
            assert run(command, path, Path(tmp) / "out", flags) in (0, 2, 3, 4, 5)
