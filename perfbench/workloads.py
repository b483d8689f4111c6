"""Seeded inputs, command sequences and output checks of the benchmark workloads.

Nothing here imports ``preisach_remnant``: the inputs are plain configs and
grid CSVs, so a change to the engine cannot change what it is fed.  The
expected remnant range of a generated grid is computed here from the cell
values, which makes it an independent check of the program's ``bounds``.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

#: remnant range of the butterfly preset (scale 1, virgin interface) as the
#: seed commit computes it; the sweep targets are drawn inside it
BUTTERFLY_GAMMA_MAX = 1.2713730974655328
BUTTERFLY_GAMMA_MIN = -1.2511745460112753

#: relative tolerance of the reference comparison and of the range checks
REL_TOL = 1e-9
#: absolute floor of the reference comparison, for values that are
#: differences of O(1) remnants (final errors) and so carry O(1e-16) noise
ABS_FLOOR = 1e-12
#: signal.csv against the per-pulse remnants
SIGNAL_TOL = 1e-12

#: sizes per workload; "tiny" keeps every code path but runs in well under a
#: second, for the benchmark's own smoke check
SIZES = {
    "full": {
        # a pass of bounds and 2 swept runs fits 4 to 6 times in a 35 s
        # run; more targets per pass would leave too few passes for a
        # steady wall_s, so the swept-run tail (11 runs or more) is absent
        "sweep_targets": 2,
        "resolution": 512,
        "oracle_grid": 100,
        "oracle_n": 600,
        "oracle_spp": 100,
        "history_grid": 200,
        "history_pulses": 80,
        "history_spp": 50,
    },
    "tiny": {
        "sweep_targets": 2,
        "resolution": 24,
        "oracle_grid": 10,
        "oracle_n": 120,
        "oracle_spp": 20,
        "history_grid": 10,
        "history_pulses": 8,
        "history_spp": 10,
    },
}

WORKLOADS = ("butterfly-sweep", "grid-oracle", "grid-history")


# -- input generation -------------------------------------------------------


def _grid_box():
    # zero falls on a cell edge on both axes for any n divisible by 5, so the
    # alpha >= 0 >= beta quadrant is a union of whole cells
    return (-0.25, 1.0, -1.0, 0.25)


def _bumps(rng, centers_a, centers_b, count, amp_lo, amp_hi, signed):
    A, B = np.meshgrid(centers_a, centers_b)
    field = np.zeros_like(A)
    for _ in range(count):
        ca, cb = rng.uniform(-0.25, 1.0), rng.uniform(-1.0, 0.25)
        sa, sb = rng.uniform(0.15, 0.4), rng.uniform(0.15, 0.4)
        amp = rng.uniform(amp_lo, amp_hi) * (rng.choice((-1.0, 1.0)) if signed else 1.0)
        field += amp * np.exp(-0.5 * (((A - ca) / sa) ** 2 + ((B - cb) / sb) ** 2))
    return field


def grid_values(rng, n):
    """n x n cell values, rows ascending in beta: nonnegative (and bounded
    away from zero) on the quadrant, signed outside it, and zero on every
    cell that touches the alpha < beta half-plane."""
    a_lo, a_hi, b_lo, b_hi = _grid_box()
    a_edges = np.linspace(a_lo, a_hi, n + 1)
    b_edges = np.linspace(b_lo, b_hi, n + 1)
    ca = 0.5 * (a_edges[:-1] + a_edges[1:])
    cb = 0.5 * (b_edges[:-1] + b_edges[1:])
    positive = 1.0 + _bumps(rng, ca, cb, 2, 0.02, 0.06, False) + rng.uniform(0.0, 0.02, (n, n))
    signed = _bumps(rng, ca, cb, 3, 0.5, 2.0, True) + rng.normal(0.0, 0.05, (n, n))
    A, B = np.meshgrid(ca, cb)
    values = np.where((A > 0.0) & (B < 0.0), positive, signed)
    values[b_edges[1:][:, None] > a_edges[:-1][None, :]] = 0.0
    # round-trip through the CSV text so the expectations below see exactly
    # the numbers the program parses
    return np.array([[float(repr(float(x))) for x in row] for row in np.round(values, 6)])


def write_grid_csv(path, values):
    a_lo, a_hi, b_lo, b_hi = _grid_box()
    n_beta, n_alpha = values.shape
    with open(path, "w") as fh:
        fh.write("%r,%r,%r,%r,%d,%d\n" % (a_lo, a_hi, b_lo, b_hi, n_alpha, n_beta))
        for row in values:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def grid_remnant_range(values):
    """(gamma_max, gamma_min) of a full-range pulse pair from the virgin
    state when Q is the whole quadrant: the positive pulse leaves every relay
    with beta <= 0 up, the negative one every relay with alpha <= 0."""
    a_lo, a_hi, b_lo, b_hi = _grid_box()
    n_beta, n_alpha = values.shape
    cell = (a_hi - a_lo) / n_alpha * (b_hi - b_lo) / n_beta
    a_edges = np.linspace(a_lo, a_hi, n_alpha + 1)
    b_edges = np.linspace(b_lo, b_hi, n_beta + 1)
    total = values.sum() * cell
    # cell centers decide the side: the edge at zero may carry rounding
    above_beta0 = values[b_edges[:-1] + b_edges[1:] > 0.0, :].sum() * cell
    left_alpha0 = values[:, a_edges[:-1] + a_edges[1:] < 0.0].sum() * cell
    return float(total - 2.0 * above_beta0), float(2.0 * left_alpha0 - total)


def grid_gain_cap(values):
    """2 / max(gamma2_plus_q, gamma1_minus_q) for a field nonnegative on the
    quadrant, where the largest cumulative line integrals are the full
    columns and rows of the quadrant."""
    a_lo, a_hi, b_lo, b_hi = _grid_box()
    n_beta, n_alpha = values.shape
    da, db = (a_hi - a_lo) / n_alpha, (b_hi - b_lo) / n_beta
    a_edges = np.linspace(a_lo, a_hi, n_alpha + 1)
    b_edges = np.linspace(b_lo, b_hi, n_beta + 1)
    quad = values[b_edges[:-1] + b_edges[1:] < 0.0][:, a_edges[:-1] + a_edges[1:] > 0.0]
    return 1.0 / max(quad.sum(axis=0).max() * db, quad.sum(axis=1).max() * da)


def history_plan(rng, pulses):
    """Alternating pulses with strictly shrinking magnitudes, so each one
    nests inside the last and the staircase keeps growing."""
    a_lo, a_hi, b_lo, b_hi = _grid_box()
    decay = rng.uniform(0.955, 0.97)
    jitter = rng.uniform(0.0, 0.4, pulses)
    mags = 0.95 * decay ** (np.arange(pulses) + jitter)
    plan = []
    for k, m in enumerate(mags):
        plan.append(float(m * a_hi) if k % 2 == 0 else float(-m * abs(b_lo)))
    return plan


def generate(workload, seed, size, work):
    """Write the inputs of one workload under ``work``; returns a JSON-able
    mapping with the config path, the CLI invocations of one pass and what
    the checks expect."""
    sz = SIZES[size]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    os.makedirs(work, exist_ok=True)
    res = ["--resolution", str(sz["resolution"])]
    spec = {"workload": workload, "seed": seed, "size": size}
    if workload == "butterfly-sweep":
        span = BUTTERFLY_GAMMA_MAX - BUTTERFLY_GAMMA_MIN
        fracs = rng.uniform(0.1, 0.9, sz["sweep_targets"])
        targets = [float(BUTTERFLY_GAMMA_MIN + f * span) for f in fracs]
        cfg = {
            "weighting": {"preset": "butterfly", "scale": 1.0},
            "initial_interface": {"preset": "virgin"},
            "controller": {"gamma_d": targets[0], "lambda": "auto", "w0": 0.0},
            "signal_samples_per_pulse": 50,
            "sweep": {"param": "gamma_d", "values": targets},
        }
        spec["range"] = (BUTTERFLY_GAMMA_MAX, BUTTERFLY_GAMMA_MIN)
        spec["targets"] = targets
        main = "sweep"
    else:
        n = sz["oracle_grid"] if workload == "grid-oracle" else sz["history_grid"]
        values = grid_values(rng, n)
        csv_path = os.path.join(work, "grid.csv")
        write_grid_csv(csv_path, values)
        a_lo, a_hi, b_lo, b_hi = _grid_box()
        g_max, g_min = grid_remnant_range(values)
        spec["range"] = (g_max, g_min)
        cfg = {
            "weighting": {"grid_csv": csv_path},
            "q": {"alpha2": a_hi, "beta2": b_lo},
            "initial_interface": {"preset": "virgin"},
        }
        if workload == "grid-oracle":
            target = float(g_min + rng.uniform(0.45, 0.55) * (g_max - g_min))
            # well under half the cap, lambda times every per-pulse slope
            # stays below 1: the controller approaches the target from one
            # side and converges in 11 pulses on every seed tried, where
            # lambda=auto (0.95 of the cap) overshoots and stalls for 12 to
            # 200 pulses in the dead zones of a grid
            lam = 0.375 * grid_gain_cap(values)
            cfg["controller"] = {"gamma_d": target, "lambda": lam, "w0": 0.0}
            cfg["oracle_samples_per_pulse"] = sz["oracle_spp"]
            spec["targets"] = [target]
            main = "oracle-check"
            res = res + ["--oracle-n", str(sz["oracle_n"])]
        else:
            plan = history_plan(rng, sz["history_pulses"])
            cfg["controller"] = {"gamma_d": 0.0}
            cfg["amplitudes"] = plan
            cfg["signal_samples_per_pulse"] = sz["history_spp"]
            spec["amplitudes"] = plan
            main = "simulate"
    cfg_path = os.path.join(work, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh, indent=1)
    spec["config"] = cfg_path
    out_b = os.path.join(work, "out-bounds")
    out_m = os.path.join(work, "out-" + main)
    # one pass: the gain cap first, as a user would, then the main command;
    # every command must exit 0
    spec["ops"] = [
        {"name": "bounds", "argv": ["bounds", "--config", cfg_path, "--out", out_b] + res, "out": out_b},
        {"name": main, "argv": [main, "--config", cfg_path, "--out", out_m] + res, "out": out_m},
    ]
    return spec


# -- output checks -------------------------------------------------------------


def _read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(x) for x in r] for r in rows[1:]]


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _close(a, b, rel, scale=1.0):
    return abs(a - b) <= rel * max(abs(a), abs(b), scale)


def _column_stats(rows):
    cols = list(zip(*rows))
    return [[len(c), math.fsum(c), min(c), max(c), c[-1]] for c in cols]


def check_bounds(spec, out):
    """Failures of a ``bounds`` run, and its numbers for the reference."""
    rep = _read_json(os.path.join(out, "bounds.json"))
    fails = []
    if not all(math.isfinite(v) for v in rep.values()):
        fails.append("bounds: non-finite value")
    d = max(rep["gamma2_plus_q"], rep["gamma1_minus_q"])
    if not _close(rep["max_gain"], 2.0 / d, 1e-12):
        fails.append("bounds: max_gain %r != 2 / %r" % (rep["max_gain"], d))
    g_max, g_min = spec["range"]
    span = abs(g_max - g_min)
    for key, want in (("gamma_max", g_max), ("gamma_min", g_min)):
        if not _close(rep[key], want, REL_TOL, span):
            fails.append("bounds: %s %r, expected %r" % (key, rep[key], want))
    return fails, {"bounds.json": rep}


def _check_control_dir(out, target):
    summary = _read_json(os.path.join(out, "summary.json"))
    _, trace = _read_csv(os.path.join(out, "trace.csv"))
    _, signal = _read_csv(os.path.join(out, "signal.csv"))
    fails = []
    if not summary["converged"] or abs(summary["final_error"]) > summary["tolerance"]:
        fails.append("control %s: not converged (e=%r)" % (out, summary["final_error"]))
    if not _close(summary["gamma_d"], target, 0.0):
        fails.append("control %s: ran target %r, not %r" % (out, summary["gamma_d"], target))
    if len(trace) != summary["pulses"] or trace[-1][2] != summary["final_remnant"]:
        fails.append("control %s: trace.csv disagrees with summary.json" % out)
    if abs(signal[-1][2] - summary["final_remnant"]) > SIGNAL_TOL:
        fails.append("control %s: last signal sample is not the remnant" % out)
    numbers = {
        "summary.json": summary,
        "trace.csv": trace,
        "signal.csv": _column_stats(signal),
    }
    return fails, numbers


def sweep_run_dirs(spec, out):
    return [os.path.join(out, "gamma_d_%r" % v) for v in spec["targets"]]


def check_sweep_run(spec, out, target):
    return _check_control_dir(out, target)


def check_sweep(spec, out):
    """Failures of the ``sweep`` invocation itself; the swept runs are
    checked one by one with :func:`check_sweep_run`."""
    results = _read_json(os.path.join(out, "sweep.json"))
    values = [r["value"] for r in results]
    fails = []
    if values != spec["targets"] or any(r["exit_code"] != 0 for r in results):
        fails.append("sweep: sweep.json %r" % results)
    return fails, {"sweep.json": results}


def check_oracle(spec, out):
    rep = _read_json(os.path.join(out, "oracle_check.json"))
    fails = []
    if rep.get("pass") is not True:
        fails.append("oracle-check: %r" % rep)
    return fails, {"oracle_check.json": rep}


def check_simulate(spec, out):
    _, remnants = _read_csv(os.path.join(out, "remnants.csv"))
    _, signal = _read_csv(os.path.join(out, "signal.csv"))
    summary = _read_json(os.path.join(out, "summary.json"))
    plan = spec["amplitudes"]
    fails = []
    if [r[1] for r in remnants] != plan or summary["pulses"] != len(plan):
        fails.append("simulate: remnants.csv does not replay the plan")
    if abs(signal[-1][2] - remnants[-1][2]) > SIGNAL_TOL:
        fails.append(
            "simulate: last signal sample %r != last remnant %r" % (signal[-1][2], remnants[-1][2])
        )
    if summary["final_output"] != signal[-1][2]:
        fails.append("simulate: summary.json final_output != last signal sample")
    numbers = {
        "remnants.csv": remnants,
        "signal.csv": _column_stats(signal),
        "summary.json": summary,
    }
    return fails, numbers


CHECKS = {
    "bounds": check_bounds,
    "sweep": check_sweep,
    "oracle-check": check_oracle,
    "simulate": check_simulate,
}


def compare_reference(got, want, path="", fails=None):
    """Failures where ``got`` differs from the reference: numbers within
    REL_TOL (floored at ABS_FLOOR), integers, booleans and strings exactly."""
    if fails is None:
        fails = []
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            fails.append("%s: keys differ" % path)
        else:
            for k in want:
                compare_reference(got[k], want[k], "%s.%s" % (path, k), fails)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            fails.append("%s: length differs" % path)
        else:
            for i, (g, w) in enumerate(zip(got, want)):
                compare_reference(g, w, "%s[%d]" % (path, i), fails)
    elif isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if abs(got - want) > max(REL_TOL * abs(want), ABS_FLOOR):
            fails.append("%s: %r, reference %r" % (path, got, want))
    elif type(got) is not type(want) or got != want:
        fails.append("%s: %r, reference %r" % (path, got, want))
    return fails
