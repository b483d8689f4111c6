"""Experiment runner: bounds, closed-loop control, open-loop simulation,
oracle cross-checks and parameter sweeps driven by a JSON config file."""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .control import (
    ControllerConfig,
    dense_response,
    max_gain,
    pulse_remnants,
    remnant_extrema,
    run_controller,
)
from .errors import (
    AdmissibilityError,
    ConfigurationError,
    DegenerateBoundsError,
    EmptyIntersectionError,
)
from .oracle import DEFAULT_SAMPLES_PER_PULSE, oracle_pulse_remnants
from .presets import butterfly_preset, interface_from_spec, uniform_preset
from .weighting import GridWeighting, QRegion, sector_bounds

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_NO_CONVERGENCE = 4
EXIT_ORACLE_MISMATCH = 5

_CONFIG_ERRORS = (
    ConfigurationError,
    AdmissibilityError,
    EmptyIntersectionError,
    KeyError,
    ValueError,
    FileNotFoundError,
)


def _setting(section, key, default):
    try:
        return float(section.get(key, default))
    except (TypeError, ValueError):
        raise ConfigurationError("%s must be a number" % key) from None


def _check_config(cfg):
    """Reject timing and controller settings that would divide by zero,
    index an empty trace or never converge."""
    if not _setting(cfg, "tau", 1.0) > 0.0:
        raise ConfigurationError("tau must be positive")
    if not _setting(cfg, "signal_samples_per_pulse", 50) > 0.0:
        raise ConfigurationError("signal_samples_per_pulse must be positive")
    c = cfg.get("controller") or {}
    if _setting(c, "max_pulses", 200) < 0.0:
        raise ConfigurationError("max_pulses must be nonnegative")
    if c.get("tolerance") is not None and not _setting(c, "tolerance", None) >= 0.0:
        raise ConfigurationError("tolerance must be nonnegative")


def _build_field(cfg):
    spec = cfg.get("weighting", {"preset": "uniform"})
    if "grid_csv" in spec:
        mu = GridWeighting.load_csv(spec["grid_csv"])
        qspec = cfg.get("q")
        if qspec is None:
            raise ConfigurationError("grid weighting needs an explicit q region")
        return mu, QRegion(qspec["alpha2"], qspec["beta2"])
    preset = spec.get("preset")
    if preset == "uniform":
        qspec = cfg.get("q", {"alpha2": 1.0, "beta2": -1.0})
        return uniform_preset(qspec["alpha2"], qspec["beta2"], spec.get("value", 1.0))
    if preset == "butterfly":
        mu, q = butterfly_preset(scale=spec.get("scale", 1.0))
        qspec = cfg.get("q")
        if qspec is not None:
            q = QRegion(qspec["alpha2"], qspec["beta2"])
        return mu, q
    raise ConfigurationError("unknown weighting spec %r" % (spec,))


def _build_scene(cfg):
    mu, q = _build_field(cfg)
    iface = interface_from_spec(cfg.get("initial_interface", {}), mu.support_box)
    return mu, q, iface


def _controller_config(cfg, q, bounds):
    c = cfg.get("controller", {})
    if c.get("lambda", "auto") == "auto":
        lam = 0.95 * max_gain(bounds, c.get("mode", "positive"))
    else:
        lam = _setting(c, "lambda", None)
    if isinstance(c.get("gamma_d"), str):
        raise ConfigurationError("gamma_d must be a number")
    return ControllerConfig(
        gamma_d=_setting(c, "gamma_d", None),
        lam=float(lam),
        w0=_setting(c, "w0", 0.0),
        q=q,
        tolerance=c.get("tolerance"),
        max_pulses=int(c.get("max_pulses", 200)),
        mu_sign_mode=c.get("mode", "positive"),
    )


def _dump_json(obj, out_dir, name):
    text = json.dumps(obj, indent=2, sort_keys=True)
    if out_dir:
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(text + "\n")
    return text


def _write_signal_csv(path, t, u, y):
    with open(path, "w") as fh:
        fh.write("t,u,y\n")
        for ti, ui, yi in zip(t, u, y):
            fh.write("%r,%r,%r\n" % (float(ti), float(ui), float(yi)))


def cmd_bounds(cfg, args) -> int:
    mu, q, iface = _build_scene(cfg)
    bounds = sector_bounds(mu, q, args.resolution)
    g_max, g_min = remnant_extrema(mu, iface, q)
    report = bounds.to_dict()
    report.update(
        {
            "gamma_max": g_max,
            "gamma_min": g_min,
            "max_gain": max_gain(bounds, cfg.get("controller", {}).get("mode", "positive")),
        }
    )
    print(_dump_json(report, args.out, "bounds.json"))
    return EXIT_OK


def _control_scene(cfg, args):
    """(mu, q, iface, bounds) of a control run: the ones a sweep prepared
    for all its runs in ``args.scene``, or built from the config."""
    scene = getattr(args, "scene", None)
    if scene is None:
        mu, q, iface = _build_scene(cfg)
        scene = mu, q, iface, sector_bounds(mu, q, args.resolution)
    return scene


def _run_control(cfg, args):
    mu, q, iface, bounds = _control_scene(cfg, args)
    ccfg = _controller_config(cfg, q, bounds)
    trace = run_controller(mu, iface, ccfg, bounds=bounds)
    return mu, q, iface, ccfg, trace


def cmd_control(cfg, args) -> int:
    mu, q, iface, ccfg, trace = _run_control(cfg, args)
    tau = float(cfg.get("tau", 1.0))
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    trace.write_csv(os.path.join(out, "trace.csv"))
    step = tau / float(cfg.get("signal_samples_per_pulse", 50))
    t, u, y = dense_response(mu, iface, trace.amplitudes, tau, step)
    _write_signal_csv(os.path.join(out, "signal.csv"), t, u, y)
    summary = {
        "converged": trace.converged,
        "pulses": len(trace.records),
        "final_error": trace.records[-1].e,
        "final_remnant": trace.records[-1].gamma,
        "gamma_max": trace.gamma_max,
        "gamma_min": trace.gamma_min,
        "tolerance": trace.tolerance,
        "lambda": ccfg.lam,
        "gamma_d": ccfg.gamma_d,
    }
    print(_dump_json(summary, out, "summary.json"))
    return EXIT_OK if trace.converged else EXIT_NO_CONVERGENCE


def cmd_simulate(cfg, args) -> int:
    mu, _, iface = _build_scene(cfg)
    amplitudes = [float(w) for w in cfg.get("amplitudes", [])]
    tau = float(cfg.get("tau", 1.0))
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "remnants.csv"), "w") as fh:
        fh.write("k,w_k,gamma_k\n")
        for k, (w, g) in enumerate(zip(amplitudes, pulse_remnants(mu, iface, amplitudes))):
            fh.write("%d,%r,%r\n" % (k, w, g))
    step = tau / float(cfg.get("signal_samples_per_pulse", 50))
    t, u, y = dense_response(mu, iface, amplitudes, tau, step)
    _write_signal_csv(os.path.join(out, "signal.csv"), t, u, y)
    print(_dump_json({"pulses": len(amplitudes), "final_output": float(y[-1]) if len(y) else 0.0}, out, "summary.json"))
    return EXIT_OK


def cmd_oracle_check(cfg, args) -> int:
    mu, q, iface, ccfg, trace = _run_control(cfg, args)
    span = abs(trace.gamma_max - trace.gamma_min) or 1.0
    exact = np.array([r.gamma for r in trace.records])
    amplitudes = trace.amplitudes
    spp = int(cfg.get("oracle_samples_per_pulse", DEFAULT_SAMPLES_PER_PULSE))
    report = {}
    deviations = {}
    for n in (args.oracle_n // 2, args.oracle_n):
        approx = oracle_pulse_remnants(mu, iface, amplitudes, n, samples_per_pulse=spp)
        deviations[n] = float(np.max(np.abs(approx - exact)) / span)
        report["max_relative_deviation_n%d" % n] = deviations[n]
    passed = deviations[args.oracle_n] <= 0.01
    report["pass"] = passed
    print(_dump_json(report, args.out, "oracle_check.json"))
    return EXIT_OK if passed else EXIT_ORACLE_MISMATCH


def cmd_sweep(cfg, args) -> int:
    sweep = cfg.get("sweep")
    if not sweep or sweep.get("param") not in ("gamma_d", "lambda"):
        raise ConfigurationError("sweep needs param 'gamma_d' or 'lambda' and values")
    param = sweep["param"]
    out = args.out or "sweep_out"
    os.makedirs(out, exist_ok=True)
    # both swept parameters are controller settings: every run shares the
    # field, the interface and the sector bounds
    scene = _control_scene(cfg, args)
    results = []
    worst = EXIT_OK
    for value in sweep["values"]:
        sub = json.loads(json.dumps(cfg))
        sub.setdefault("controller", {})[param] = value
        sub_args = argparse.Namespace(**vars(args))
        sub_args.scene = scene
        sub_args.out = os.path.join(out, "%s_%r" % (param, value))
        os.makedirs(sub_args.out, exist_ok=True)
        record = {"value": value}
        try:
            record["exit_code"] = cmd_control(sub, sub_args)
        except (ConfigurationError, AdmissibilityError) as exc:
            # a bad value (a target outside the reachable range, a gain
            # outside the admissible interval) ends its own run only
            print("config error: %s=%r: %s" % (param, value, exc), file=sys.stderr)
            record.update(exit_code=EXIT_CONFIG, error=str(exc))
        worst = max(worst, record["exit_code"])
        results.append(record)
    _dump_json(results, out, "sweep.json")
    print(json.dumps(results, sort_keys=True))
    return worst


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="preisach-remnant",
        description="Relay-field hysteresis simulation and remnant set-point control. "
        "Config defaults: weighting preset 'uniform' on q, virgin interface, "
        "lambda 'auto' (0.95 * max admissible gain), tolerance 1e-6 of the "
        "remnant range, max_pulses 200, tau 1.0, resolution 512.",
    )
    p.add_argument("command", choices=["bounds", "control", "simulate", "oracle-check", "sweep"])
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--resolution", type=int, default=512, help="sector-bound scan lines")
    p.add_argument("--oracle-n", type=int, default=300, help="relay lattice size per axis")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
        _check_config(cfg)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
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
