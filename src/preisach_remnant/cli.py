"""Experiment runner: bounds, closed-loop control, open-loop simulation,
oracle cross-checks and parameter sweeps driven by a JSON config file;
``load_config`` checks it once into the frozen ``Config`` the commands read."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from .control import (
    ControllerConfig,
    dense_response,
    max_gain,
    premised_bounds,
    pulse_remnants,
    remnant_extrema,
    run_controller,
)
from .errors import ConfigurationError, DegenerateBoundsError
from .interface import MemoryInterface
from .oracle import oracle_pulse_remnants
from .presets import butterfly_preset, interface_from_spec, known_keys, number, numbers
from .weighting import GridWeighting, QRegion, SectorBounds, uniform_field

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_NO_CONVERGENCE = 4
EXIT_ORACLE_MISMATCH = 5

# OSError: the config or grid file cannot be opened
_CONFIG_ERRORS = (ConfigurationError, OSError)

#: the keys of the config's top level and of its sections with one layout;
#: ``weighting`` and ``initial_interface`` have one set per preset
_KEYS = {
    "": (
        "weighting", "q", "initial_interface", "controller", "tau",
        "signal_samples_per_pulse", "oracle_samples_per_pulse", "amplitudes", "sweep",
    ),
    "controller": ("gamma_d", "lambda", "w0", "tolerance", "max_pulses"),
    "sweep": ("param", "values"),
    "q": ("alpha2", "beta2"),
}


@dataclass(frozen=True)
class Config:
    """A checked config with its field, initial interface and controller
    settings built.  In ``controller``, ``gamma_d`` is None when unset and
    ``lam`` a float or ``"auto"``; ``bounds`` are the sector bounds a sweep
    shares among its runs (None: compute them)."""

    mu: object
    iface: MemoryInterface
    tau: float
    sample_step: float
    amplitudes: tuple
    oracle_samples_per_pulse: int
    controller: ControllerConfig
    sweep_param: str
    sweep_values: tuple
    bounds: SectorBounds = None


def _section(cfg, key, default=None):
    """The mapping under ``key``, or ``default`` when the key is absent;
    its keys are checked when the section has one layout."""
    if key not in cfg:
        return default
    value = cfg[key]
    if not isinstance(value, dict):
        raise ConfigurationError("%s must be a mapping, got %r" % (key, value))
    return known_keys(value, key, _KEYS[key]) if key in _KEYS else value


def _controller_value(param, value):
    """A ``gamma_d`` or ``lambda`` setting, from the config or a sweep."""
    if param == "lambda" and value == "auto":
        return value
    return number(value, "controller." + param)


def _field(cfg):
    """(mu, q) of the ``weighting`` and ``q`` sections."""
    spec = _section(cfg, "weighting", {"preset": "uniform"})
    qspec = _section(cfg, "q")
    q = None
    if qspec is not None:
        q = QRegion(number(qspec.get("alpha2"), "q.alpha2"), number(qspec.get("beta2"), "q.beta2"))
    if "grid_csv" in spec:
        path = spec["grid_csv"]
        if not isinstance(path, str):
            raise ConfigurationError("weighting.grid_csv must be a path, got %r" % (path,))
        if q is None:
            raise ConfigurationError("grid weighting needs an explicit q region")
        known_keys(spec, "weighting", ("grid_csv",))
        return GridWeighting.load_csv(path), q
    preset = spec.get("preset")
    if preset == "uniform":
        value = number(spec.get("value", 1.0), "weighting.value")
        known_keys(spec, "weighting", ("preset", "value"))
        q = q or QRegion(1.0, -1.0)
        return uniform_field(q, value), q
    if preset == "butterfly":
        scale = number(spec.get("scale", 1.0), "weighting.scale")
        known_keys(spec, "weighting", ("preset", "scale"))
        mu, own_q = butterfly_preset(scale=scale)
        return mu, q or own_q
    raise ConfigurationError("unknown weighting spec %r" % (spec,))


def load_config(path) -> Config:
    """Read the JSON config at ``path`` and check every key once: its type,
    ``null``, finiteness and range, and the preset and sweep strings."""
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except ValueError as exc:  # not UTF-8 JSON, or an integer too long to parse
            raise ConfigurationError("%s is not a JSON config: %s" % (path, exc)) from None
    if not isinstance(cfg, dict):
        raise ConfigurationError("config must be a mapping")
    known_keys(cfg, "", _KEYS[""])
    c = _section(cfg, "controller", {})
    sweep = _section(cfg, "sweep", {})
    param, values = sweep.get("param"), sweep.get("values")
    if sweep and param not in ("gamma_d", "lambda"):
        raise ConfigurationError("sweep.param must be 'gamma_d' or 'lambda', got %r" % (param,))
    if sweep and not isinstance(values, list):
        raise ConfigurationError("sweep.values must be a list, got %r" % (values,))
    for i, value in enumerate(values or ()):
        if value in values[:i]:  # its run would write over the earlier one's
            raise ConfigurationError("sweep.values repeats %r" % (value,))
    tau = number(cfg.get("tau", 1.0), "tau", "positive")
    spp = number(cfg.get("signal_samples_per_pulse", 50), "signal_samples_per_pulse", "positive")
    oracle_spp = cfg.get("oracle_samples_per_pulse", 1000)
    tolerance = c.get("tolerance")  # null or absent: 1e-6 of the remnant range
    if tolerance is not None:
        tolerance = number(tolerance, "controller.tolerance", "nonnegative")
    mu, q = _field(cfg)
    config = Config(
        mu=mu,
        iface=interface_from_spec(_section(cfg, "initial_interface", {}), mu.support_box),
        tau=tau,
        sample_step=tau / spp,
        amplitudes=numbers(cfg.get("amplitudes", []), "amplitudes"),
        oracle_samples_per_pulse=number(oracle_spp, "oracle_samples_per_pulse", "an integer >= 1"),
        controller=ControllerConfig(
            gamma_d=_controller_value("gamma_d", c["gamma_d"]) if "gamma_d" in c else None,
            lam=_controller_value("lambda", c.get("lambda", "auto")),
            w0=number(c.get("w0", 0.0), "controller.w0"),
            q=q,
            tolerance=tolerance,
            max_pulses=number(c.get("max_pulses", 200), "controller.max_pulses", "an integer >= 0"),
        ),
        sweep_param=param,
        sweep_values=tuple(values or ()),
    )
    # render_signal's count of the longest signal a command may render; NaN
    # when the sample step underflows to 0 or overflows
    pulses = max(len(config.amplitudes), config.controller.max_pulses + 1)
    step = config.sample_step
    samples = pulses * tau / step if 0.0 < step < math.inf else math.nan
    if not samples < 2**63:
        raise ConfigurationError(
            "tau and signal_samples_per_pulse give %r samples for %d pulses at a step of %r;"
            " need a positive finite step and fewer than 2**63 samples" % (samples, pulses, step)
        )
    return config


def _dump_json(obj, out_dir, name):
    text = json.dumps(obj, indent=2, sort_keys=True)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(text + "\n")
    return text


def _write_csv(path, header, row, *columns):
    """The CSV at ``path``: its ``header`` line, then a ``row`` format per
    element of the equally long ``columns`` (lists or tuples of plain
    Python numbers), formatted by one ``%`` over the columns interleaved by
    slice assignment: the bytes of a ``%`` per row."""
    n, k = len(columns[0]), len(columns)
    flat = [None] * (k * n)
    for i, column in enumerate(columns):
        flat[i::k] = column
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(header + "\n" + (row * n) % tuple(flat))


def _controlled(cfg, args):
    """(trace, gain) of the controller run ``cfg`` sets up."""
    c = cfg.controller
    if c.gamma_d is None:
        raise ConfigurationError("controller.gamma_d must be a number, got None")
    bounds = cfg.bounds or premised_bounds(cfg.mu, c.q, args.resolution)
    if c.lam == "auto":
        c = replace(c, lam=0.95 * max_gain(bounds))
    return run_controller(cfg.mu, cfg.iface, c, bounds=bounds), c.lam


def cmd_bounds(cfg, args) -> int:
    c = cfg.controller
    bounds = premised_bounds(cfg.mu, c.q, args.resolution)
    g_max, g_min = remnant_extrema(cfg.mu, cfg.iface, c.q)
    report = asdict(bounds)
    report.update(gamma_max=g_max, gamma_min=g_min, max_gain=max_gain(bounds))
    print(_dump_json(report, args.out, "bounds.json"))
    return EXIT_OK


def cmd_control(cfg, args) -> int:
    trace, lam = _controlled(cfg, args)
    out = args.out or "."
    _write_csv(
        os.path.join(out, "trace.csv"), "k,w_k,gamma_k,e_k,clamped", "%d,%r,%r,%r,%d\n",
        *([getattr(r, key) for r in trace.records] for key in ("k", "w", "gamma", "e", "clamped")),
    )
    t, u, y = dense_response(cfg.mu, cfg.iface, trace.amplitudes, cfg.tau, cfg.sample_step)
    _write_csv(os.path.join(out, "signal.csv"), "t,u,y", "%r,%r,%r\n", t.tolist(), u.tolist(), y)
    summary = {
        "converged": trace.converged,
        "pulses": len(trace.records),
        "final_error": trace.records[-1].e,
        "final_remnant": trace.records[-1].gamma,
        "gamma_max": trace.gamma_max,
        "gamma_min": trace.gamma_min,
        "tolerance": trace.tolerance,
        "lambda": lam,
        "gamma_d": cfg.controller.gamma_d,
    }
    print(_dump_json(summary, out, "summary.json"))
    return EXIT_OK if trace.converged else EXIT_NO_CONVERGENCE


def cmd_simulate(cfg, args) -> int:
    """``remnants.csv`` from ``pulse_remnants``, the pulses pushed and read
    whatever the sampling; ``signal.csv`` from ``dense_response``, and
    ``summary.json``."""
    out = args.out or "."
    t, u, y = dense_response(cfg.mu, cfg.iface, cfg.amplitudes, cfg.tau, cfg.sample_step)
    remnants = pulse_remnants(cfg.mu, cfg.iface, cfg.amplitudes)
    _write_csv(
        os.path.join(out, "remnants.csv"), "k,w_k,gamma_k", "%d,%r,%r\n",
        range(len(remnants)), cfg.amplitudes, remnants,
    )
    _write_csv(os.path.join(out, "signal.csv"), "t,u,y", "%r,%r,%r\n", t.tolist(), u.tolist(), y)
    summary = {"pulses": len(cfg.amplitudes), "final_output": float(y[-1])}
    print(_dump_json(summary, out, "summary.json"))
    return EXIT_OK


def cmd_oracle_check(cfg, args) -> int:
    trace, _ = _controlled(cfg, args)
    span = abs(trace.gamma_max - trace.gamma_min) or 1.0
    exact = np.array([r.gamma for r in trace.records])
    report = {}
    for n in (args.oracle_n // 2, args.oracle_n):
        approx = oracle_pulse_remnants(
            cfg.mu, cfg.iface, trace.amplitudes, n, samples_per_pulse=cfg.oracle_samples_per_pulse
        )
        report["max_relative_deviation_n%d" % n] = float(np.max(np.abs(approx - exact)) / span)
    report["pass"] = report["max_relative_deviation_n%d" % args.oracle_n] <= 0.01
    print(_dump_json(report, args.out, "oracle_check.json"))
    return EXIT_OK if report["pass"] else EXIT_ORACLE_MISMATCH


def cmd_sweep(cfg, args) -> int:
    param = cfg.sweep_param
    if param is None:
        raise ConfigurationError("sweep needs a sweep section with param and values")
    field = "lam" if param == "lambda" else param  # the ControllerConfig field it sets
    out = args.out or "sweep_out"
    # a swept key only sets the controller: the runs share field, interface and bounds
    c = cfg.controller
    shared = replace(cfg, bounds=premised_bounds(cfg.mu, c.q, args.resolution))
    results = []
    worst = EXIT_OK
    for value in cfg.sweep_values:
        run_out = os.path.join(out, "%s_%r" % (param, value))
        run_args = argparse.Namespace(**dict(vars(args), out=run_out))
        record = {"value": value}
        try:
            run = replace(shared, controller=replace(c, **{field: _controller_value(param, value)}))
            record["exit_code"] = cmd_control(run, run_args)
        except ConfigurationError as exc:
            # a bad value (a target outside the reachable range, a gain
            # outside the admissible interval) ends its own run only
            print("config error: %s=%r: %s" % (param, value, exc), file=sys.stderr)
            record.update(exit_code=EXIT_CONFIG, error=str(exc))
        worst = max(worst, record["exit_code"])
        results.append(record)
    _dump_json(results, out, "sweep.json")
    print(json.dumps(results, sort_keys=True))
    return worst


def _at_least_two(text):
    if not (text.strip().isdecimal() and int(text) >= 2):
        raise argparse.ArgumentTypeError("must be an integer >= 2, got %r" % text)
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="preisach-remnant",
        description="Relay-field hysteresis simulation and remnant set-point control. "
        "Config defaults: weighting preset 'uniform' on q, virgin interface, "
        "lambda 'auto' (0.95 * max admissible gain), tolerance 1e-6 of the "
        "remnant range, max_pulses 200, tau 1.0, resolution 512 (the sector-bound scan "
        "of analytic fields; grids are scanned at their own lattice).",
    )
    p.add_argument("command", choices=["bounds", "control", "simulate", "oracle-check", "sweep"])
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument(
        "--resolution", type=_at_least_two, default=512,
        help="sector-bound scan lines and cuts of analytic fields; grids use their own lattice",
    )
    p.add_argument("--oracle-n", type=_at_least_two, default=300, help="relays per lattice axis")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        handler = {
            "bounds": cmd_bounds,
            "control": cmd_control,
            "simulate": cmd_simulate,
            "oracle-check": cmd_oracle_check,
            "sweep": cmd_sweep,
        }[args.command]
        return handler(cfg, args)
    except DegenerateBoundsError as exc:
        print("degenerate bounds: %s" % exc, file=sys.stderr)
        return EXIT_DEGENERATE
    except _CONFIG_ERRORS as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
