"""Acceptance gate: one test per published criterion, each printing a
single PASS/FAIL line with the measured margin.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines.
"""

import time

import numpy as np

from preisach_remnant import (
    Box,
    ControllerConfig,
    MemoryInterface,
    QRegion,
    delta_remnant_explicit,
    dense_response,
    evaluate_output,
    make_butterfly,
    max_gain,
    oracle_pulse_remnants,
    remnant,
    remnant_extrema,
    run_controller,
    sector_bounds,
    uniform_field,
)

from conftest import (
    full_range_repair,
    random_gamma_interface,
    random_grid_field,
    random_nonneg_q_scenario,
    random_quadrant_scenario,
)


def report(criterion: int, ok: bool, detail: str):
    print("[criterion %d] %s - %s" % (criterion, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (criterion, detail)


def test_criterion_1_explicit_difference_identity():
    """The closed-form remnant difference equals the direct difference on
    200 random scenarios, within 1e-9 of the total absolute mass."""
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    for _ in range(200):
        mu = random_grid_field(rng)
        box = mu.support_box
        iface = random_gamma_interface(rng, box)
        w_next = float(rng.uniform(box.beta_lo, box.alpha_hi))
        predicted = delta_remnant_explicit(mu, iface, w_next)
        before = evaluate_output(mu, iface)
        after, _ = remnant(mu, iface, w_next)
        err = abs(predicted - (after - before)) / max(mu.abs_mass(), 1e-30)
        worst = max(worst, err)
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed <= 60.0
    report(1, ok, "worst relative mismatch %.3g, %.1f s for 200 scenarios" % (worst, elapsed))


def test_criterion_2_sector_bounds_cage_every_step():
    """General sector inequalities hold for 200 random consecutive pulse
    pairs on sign-indefinite fields, with at most 1e-9 slack."""
    rng = np.random.default_rng(102)
    q = QRegion(1.0, -1.0)
    violations = 0
    checked = 0
    worst_slack = 0.0
    for _ in range(200):
        mu = random_grid_field(rng)
        box = mu.support_box
        b = sector_bounds(mu, q)
        iface = random_gamma_interface(rng, box)
        w_a = float(rng.uniform(box.beta_lo, box.alpha_hi))
        w_b = float(rng.uniform(box.beta_lo, box.alpha_hi))
        if w_a == w_b:
            continue
        g_a, mid = remnant(mu, iface, w_a)
        g_b, _ = remnant(mu, mid, w_b)
        dg, dw = g_b - g_a, w_b - w_a
        if dw > 0:
            lo, hi = b.gamma1_plus * dw, b.gamma2_plus * dw
        else:
            lo, hi = b.gamma1_minus * dw, b.gamma2_minus * dw
        slack = max(lo - dg, dg - hi, 0.0)
        worst_slack = max(worst_slack, slack)
        checked += 1
        if slack > 1e-9:
            violations += 1
    ok = violations == 0 and checked > 0
    report(2, ok, "%d/%d pairs inside the sector, worst slack %.3g" % (checked - violations, checked, worst_slack))


def test_criterion_3_monotone_response_on_q():
    """With a nonnegative density on Q and bounded pulses, the remnant moves
    with the amplitude and never faster than the worst Q slope."""
    rng = np.random.default_rng(103)
    bad = 0
    total = 0
    for _ in range(100):
        mu, q = random_nonneg_q_scenario(rng)
        b = sector_bounds(mu, q)
        cap = max(b.gamma2_plus_q, b.gamma1_minus_q)
        # a single full-range pulse makes the virgin curve admissible
        iface = full_range_repair(MemoryInterface.virgin(mu.support_box), q)
        g_prev, iface = remnant(mu, iface, 0.0)
        w_prev = 0.0
        for _ in range(6):
            w = float(rng.uniform(q.beta2, q.alpha2))
            g, iface = remnant(mu, iface, w)
            dg, dw = g - g_prev, w - w_prev
            total += 1
            if dg * dw < -1e-12 or abs(dg) > cap * abs(dw) + 1e-9:
                bad += 1
            g_prev, w_prev = g, w
    ok = bad == 0
    report(3, ok, "%d/%d steps monotone and slope-bounded" % (total - bad, total))


def test_criterion_4_full_range_pulses_are_extremal():
    """The two full-range pulses bracket the remnant of every amplitude."""
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(20):
        mu, q = random_nonneg_q_scenario(rng, floor=0.05)
        iface0 = full_range_repair(MemoryInterface.virgin(mu.support_box), q)
        g_max, g_min = remnant_extrema(mu, iface0, q)
        ws = np.concatenate([
            rng.uniform(q.beta2, q.alpha2, size=98), [q.alpha2, q.beta2]
        ])
        for w in ws:
            g, _ = remnant(mu, iface0, float(w))
            worst = max(worst, g - g_max, g_min - g)
    ok = worst <= 1e-9
    report(4, ok, "worst excursion beyond the extremes %.3g over 20 fields x 100 amplitudes" % worst)


def test_criterion_5_recursive_controller_converges():
    """50 random (target, gain) draws on the butterfly preset converge with
    nonincreasing error; the uniform field is deadbeat at gain 1/2."""
    mu, q = make_butterfly()
    b = sector_bounds(mu, q, 512)
    gain_cap = max_gain(b)
    iface = MemoryInterface.virgin(mu.support_box)
    g_max, g_min = remnant_extrema(mu, iface, q)
    span = g_max - g_min
    rng = np.random.default_rng(0)
    failures = []
    for i in range(50):
        gamma_d = float(rng.uniform(g_min, g_max))
        lam = gain_cap * float(rng.uniform(0.1, 0.95))
        trace = run_controller(
            mu, iface, ControllerConfig(gamma_d=gamma_d, lam=lam, w0=0.0, q=q), bounds=b
        )
        errors = [abs(r.e) for r in trace.records]
        nonincreasing = all(e2 <= e1 + 1e-12 for e1, e2 in zip(errors, errors[1:]))
        if not (trace.converged and nonincreasing and errors[-1] <= 1e-6 * span):
            failures.append(i)

    # uniform density: slope is exactly 2 everywhere, so gain 1/2 is deadbeat
    uni = uniform_field(QRegion(1.0, -1.0))
    uni_iface = MemoryInterface.virgin(Box(0.0, 1.0, -1.0, 0.0))
    cfg = ControllerConfig(gamma_d=0.5, lam=0.5, w0=0.0, q=QRegion(1.0, -1.0), tolerance=1e-12)
    deadbeat = run_controller(uni, uni_iface, cfg)
    deadbeat_ok = (
        deadbeat.converged
        and len(deadbeat.records) == 2
        and abs(deadbeat.records[1].e) <= 1e-12
    )
    ok = not failures and deadbeat_ok
    report(5, ok, "%d/50 random runs converged, deadbeat %s" % (50 - len(failures), "exact" if deadbeat_ok else "broken"))


def test_criterion_6_reference_style_run():
    """Auto gain, target at 60%% of the range: short transient, then the
    remnant holds through five quiet pulses."""
    t0 = time.time()
    mu, q = make_butterfly()
    b = sector_bounds(mu, q, 512)
    iface = MemoryInterface.virgin(mu.support_box)
    g_max, g_min = remnant_extrema(mu, iface, q)
    gamma_d = g_min + 0.6 * (g_max - g_min)
    cfg = ControllerConfig(gamma_d=gamma_d, lam=0.95 * max_gain(b), w0=0.0, q=q)
    trace = run_controller(mu, iface, cfg, bounds=b)
    pulses = len(trace.records)
    cur = trace.final_interface
    held = True
    for _ in range(5):
        g, cur = remnant(mu, cur, 0.0)
        held = held and abs(g - gamma_d) <= trace.tolerance
    elapsed = time.time() - t0
    ok = trace.converged and pulses <= 20 and held and elapsed <= 10.0
    report(6, ok, "converged in %d pulses, remnant held %s, %.1f s" % (pulses, held, elapsed))


def test_criterion_7_oracle_equivalence():
    """The relay lattice reproduces per-pulse remnants within 1%% of the
    remnant range at n = 300, tightening when n doubles."""
    rng = np.random.default_rng(107)
    t0 = time.time()
    devs = {300: [], 600: []}
    for _ in range(20):
        mu, q = random_quadrant_scenario(rng)
        iface = MemoryInterface.virgin(mu.support_box)
        g_max, g_min = remnant_extrema(mu, iface, q)
        span = g_max - g_min
        amps = [float(rng.uniform(q.beta2, q.alpha2)) for _ in range(4)]
        exact = []
        cur = iface
        for w in amps:
            g, cur = remnant(mu, cur, w)
            exact.append(g)
        exact = np.array(exact)
        for n in (300, 600):
            approx = oracle_pulse_remnants(mu, iface, amps, n, samples_per_pulse=10)
            devs[n].append(float(np.max(np.abs(approx - exact)) / span))
    elapsed = time.time() - t0
    worst300 = max(devs[300])
    worst600 = max(devs[600])
    ok = worst300 <= 0.01 and worst600 < worst300 and elapsed <= 300.0
    report(7, ok, "worst deviation %.4f at n=300, %.4f at n=600, %.0f s" % (worst300, worst600, elapsed))


def test_criterion_8_rate_independence():
    """Per-pulse (w, gamma, e) are identical whether the pulse period is
    1 or 0.1; the dense response agrees at every pulse boundary."""
    mu, q = make_butterfly()
    b = sector_bounds(mu, q, 256)
    iface = MemoryInterface.virgin(mu.support_box)
    g_max, g_min = remnant_extrema(mu, iface, q)
    gamma_d = g_min + 0.4 * (g_max - g_min)
    cfg = ControllerConfig(gamma_d=gamma_d, lam=0.9 * max_gain(b), w0=0.0, q=q)
    trace = run_controller(mu, iface, cfg, bounds=b)
    amps = trace.amplitudes
    samples = 20
    worst = 0.0
    boundary = {}
    for tau in (1.0, 0.1):
        _, _, y = dense_response(mu, iface, amps, tau, tau / samples)
        boundary[tau] = np.array([y[(k + 1) * samples] for k in range(len(amps))])
    worst = float(np.max(np.abs(boundary[1.0] - boundary[0.1])))
    gammas = np.array([r.gamma for r in trace.records])
    worst = max(worst, float(np.max(np.abs(boundary[1.0] - gammas))))
    ok = worst <= 1e-12
    report(8, ok, "largest trace discrepancy between periods %.3g" % worst)
