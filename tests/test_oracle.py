"""Brute-force relay lattice versus the exact staircase engine."""

import bisect
import math

import numpy as np
import pytest

from preisach_remnant import (
    Box,
    MemoryInterface,
    QRegion,
    RelayGrid,
    evaluate_output,
    make_butterfly,
    oracle_pulse_remnants,
    oracle_simulate,
    remnant,
    uniform_field,
)
from preisach_remnant.control import render_signal

from conftest import random_grid_field

UNIT_BOX = Box(0.0, 1.0, -1.0, 0.0)


def uniform_scene():
    mu = uniform_field(QRegion(1.0, -1.0))
    return mu, MemoryInterface.virgin(UNIT_BOX)


class TestOracleSimulate:
    def test_quiet_input_holds_the_virgin_output(self):
        mu, iface = uniform_scene()
        n = 200
        y = oracle_simulate(mu, iface, np.zeros(5), n)
        assert np.all(np.abs(y + 1.0) <= 2.0 / n)

    def test_half_pulse_remnant(self):
        mu, iface = uniform_scene()
        _, u = render_signal([0.5], 1.0, 1.0 / 1000)
        y = oracle_simulate(mu, iface, u, 300)
        assert abs(y[-1] - 0.0) <= 0.02

    def test_full_sweep_matches_the_exact_engine(self):
        mu, iface = uniform_scene()
        n = 300
        u = np.concatenate([
            np.linspace(0.0, 1.0, 200),
            np.linspace(1.0, -1.0, 400),
            np.linspace(-1.0, 0.0, 200),
        ])
        y = oracle_simulate(mu, iface, u, n)
        exact_iface = iface.push_extremum(1.0).push_extremum(-1.0).push_extremum(0.0)
        exact = evaluate_output(mu, exact_iface)
        assert abs(y[-1] - exact) <= 2.0 * mu.abs_mass() / n

    def test_determinism(self):
        mu, iface = uniform_scene()
        _, u = render_signal([0.7, -0.4], 1.0, 0.01)
        y1 = oracle_simulate(mu, iface, u, 120)
        y2 = oracle_simulate(mu, iface, u, 120)
        assert np.array_equal(y1, y2)


class TestOraclePulseRemnants:
    def test_matches_exact_remnants_within_one_percent(self):
        mu, iface = uniform_scene()
        amplitudes = [0.75, -0.25, 0.4]
        approx = oracle_pulse_remnants(mu, iface, amplitudes, 300, samples_per_pulse=100)
        cur = iface
        for k, w in enumerate(amplitudes):
            g, cur = remnant(mu, cur, w)
            assert abs(approx[k] - g) / 2.0 <= 0.01  # remnant range is 2

    def test_sampling_density_does_not_change_final_states(self):
        """Half-pulses are monotone, so per-pulse remnants are sampling-proof."""
        mu, iface = uniform_scene()
        amplitudes = [0.6, -0.8, 0.3]
        coarse = oracle_pulse_remnants(mu, iface, amplitudes, 150, samples_per_pulse=4)
        fine = oracle_pulse_remnants(mu, iface, amplitudes, 150, samples_per_pulse=1000)
        assert np.array_equal(coarse, fine)

    def test_error_decreases_as_the_lattice_refines(self):
        worst = {}
        for n in (75, 150, 300):
            devs = []
            for seed in range(5):
                sub = np.random.default_rng(seed)
                mu = random_grid_field(sub)
                box = mu.support_box
                iface = MemoryInterface.virgin(box)
                amplitudes = [float(sub.uniform(box.beta_lo, box.alpha_hi)) for _ in range(3)]
                approx = oracle_pulse_remnants(mu, iface, amplitudes, n, samples_per_pulse=10)
                cur = iface
                for k, w in enumerate(amplitudes):
                    g, cur = remnant(mu, cur, w)
                    devs.append(abs(approx[k] - g))
            worst[n] = max(devs)
        assert worst[150] < worst[75]
        assert worst[300] < worst[150]


def point_density(mu, a, b):
    """Density at one relay, looked up without numpy."""
    if hasattr(mu, "components"):
        total = 0.0
        for c in mu.components:
            box = c.box
            if box.alpha_lo <= a <= box.alpha_hi and box.beta_lo <= b <= box.beta_hi:
                za = (a - c.center_alpha) / c.sigma_alpha
                zb = (b - c.center_beta) / c.sigma_beta
                total += c.amplitude * math.exp(-0.5 * (za * za + zb * zb))
        return total
    box = mu.support_box
    if not (box.alpha_lo <= a <= box.alpha_hi and box.beta_lo <= b <= box.beta_hi):
        return 0.0
    i = min(max(bisect.bisect_right(list(mu.alpha_edges), a) - 1, 0), mu.n_alpha - 1)
    j = min(max(bisect.bisect_right(list(mu.beta_edges), b) - 1, 0), mu.n_beta - 1)
    return float(mu.values[j, i])


def point_weights(mu, grid):
    box = mu.support_box
    cell = (box.alpha_hi - box.alpha_lo) / grid.n * ((box.beta_hi - box.beta_lo) / grid.n)
    return np.array([
        [point_density(mu, float(a), float(b)) * cell if a >= b else 0.0 for b in grid.betas]
        for a in grid.alphas
    ])


class TestRelayGridWeights:
    """Lattice weights equal a relay-by-relay density lookup bit for bit."""

    def test_random_grids(self):
        rng = np.random.default_rng(51)
        for n in (7, 40, 93):
            mu = random_grid_field(rng)
            grid = RelayGrid(mu, n)
            assert np.array_equal(grid.weights, point_weights(mu, grid))

    def test_uniform_single_cell(self):
        mu, _ = uniform_scene()
        grid = RelayGrid(mu, 50)
        assert np.array_equal(grid.weights, point_weights(mu, grid))

    def test_butterfly(self):
        mu, _ = make_butterfly()
        grid = RelayGrid(mu, 60)
        assert np.array_equal(grid.weights, point_weights(mu, grid))
