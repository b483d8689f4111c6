"""Brute-force relay lattice versus the exact staircase engine."""

import bisect
import gc
import math
import weakref

import numpy as np
import pytest

from preisach_remnant import (
    Box,
    GridWeighting,
    MemoryInterface,
    QRegion,
    RelayGrid,
    evaluate_output,
    make_butterfly,
    oracle_pulse_remnants,
    remnant,
    uniform_field,
)
from preisach_remnant.control import render_signal
from preisach_remnant.oracle import OUTPUT_BLOCK

from conftest import point_density, random_grid_field, upper_beta

UNIT_BOX = Box(0.0, 1.0, -1.0, 0.0)


def uniform_scene():
    mu = uniform_field(QRegion(1.0, -1.0))
    return mu, MemoryInterface.virgin(UNIT_BOX)


def oracle_simulate(mu, init: MemoryInterface, u_samples, n: int):
    """Replay an input sample train; returns the output at every sample."""
    grid = RelayGrid(mu, n)
    grid.initialize(init)
    y = np.zeros(len(u_samples))
    for i, u in enumerate(u_samples):
        grid.step(float(u))
        y[i] = grid.output()
    return y


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


def where_step(states, alphas, betas, u):
    """The literal relay rule on the whole lattice."""
    states = np.where(u > alphas[:, None], 1, states)
    return np.where(u < betas[None, :], -1, states)


class WriteLog(np.ndarray):
    """A lattice that logs the (index, value) of every write into it."""

    def __setitem__(self, key, value):
        self.log.append((key, value))
        super().__setitem__(key, value)


def logged(grid):
    """Swap the states of ``grid`` for a WriteLog view of them."""
    grid.states = grid.states.view(WriteLog)
    grid.states.log = []
    return grid


def assert_steps_follow_the_rule(grid, u_values, per_call=1):
    """Step ``grid`` through ``u_values``, ``per_call`` samples to a call:
    after every call the lattice is the where rule applied to the states
    before the run, sample by sample, and every write the call made is part
    of one of the rule's two writes at one of its samples, in sample order,
    with its value."""
    alphas, betas = grid.alphas, grid.betas
    expected = np.array(grid.states)
    u_values = [float(u) for u in u_values]
    writes = 0
    for start in range(0, len(u_values), per_call):
        us = u_values[start:start + per_call]
        grid.states.log = []
        grid.step(*us)
        rules = []  # per sample: where it writes +1, where -1
        for u in us:
            expected = where_step(expected, alphas, betas, u)
            minus = np.broadcast_to(u < betas[None, :], expected.shape)
            rules.append({1: (u > alphas[:, None]) & ~minus, -1: minus})
        assert np.array_equal(grid.states, expected)
        s = 0
        for key, value in grid.states.log:
            written = np.zeros(expected.shape, dtype=bool)
            written[key] = True
            assert value in (1, -1)
            while s < len(rules) and (written & ~rules[s][value]).any():
                s += 1  # a later sample's write
            assert s < len(rules)
        writes += len(grid.states.log)
    assert writes > 0  # the log sees the writes of step


def random_history(rng, box, nested):
    """A random interface: pushes over the whole support range, or nested
    pushes of shrinking amplitude and alternating sign; it need not end at
    zero input."""
    iface = MemoryInterface.virgin(box)
    if nested:
        sizes = np.sort(rng.uniform(0.0, 1.0, int(rng.integers(1, 9))))[::-1]
        values = [s * (box.alpha_hi if k % 2 == 0 else box.beta_lo) for k, s in enumerate(sizes)]
    else:
        values = rng.uniform(box.beta_lo - 0.2, box.alpha_hi + 0.2, int(rng.integers(0, 8)))
    for v in values:
        iface = iface.push_extremum(float(v))
    return iface


def ramp_samples(rng, grid, lo, hi):
    """Monotone ramps between random levels of [lo, hi], each sample
    repeated one to three times, some levels exactly on lattice lines."""
    levels = list(rng.uniform(lo, hi, 6)) + [rng.choice(grid.alphas), rng.choice(grid.betas)]
    rng.shuffle(levels)
    out, start = [], 0.0
    for level in levels:
        ramp = np.linspace(start, level, int(rng.integers(2, 12)))
        out.extend(np.repeat(ramp, rng.integers(1, 4, len(ramp))).tolist())
        start = level
    return out


class TestRelayGridStep:
    def test_in_place_step_matches_the_where_rule(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            mu = random_grid_field(rng)
            grid = logged(RelayGrid(mu, int(rng.integers(5, 40))))
            grid.initialize(MemoryInterface.virgin(mu.support_box))
            box = mu.support_box
            u = np.concatenate([
                rng.uniform(box.beta_lo - 0.2, box.alpha_hi + 0.2, 40),
                rng.choice(grid.alphas, 20),  # exactly on a lattice alpha
                rng.choice(grid.betas, 20),  # exactly on a lattice beta
                [math.nan, math.inf, -math.inf] * 3,  # the rule switches nothing at NaN
            ])
            rng.shuffle(u)
            assert_steps_follow_the_rule(grid, u)
            # a second initialize mid-sequence, from a random history, then
            # monotone ramps with repeated samples
            for nested in (False, True):
                grid.initialize(random_history(rng, box, nested))
                assert_steps_follow_the_rule(grid, ramp_samples(rng, grid, box.beta_lo, box.alpha_hi))
                assert_steps_follow_the_rule(grid, u[:30])
        mu, _ = make_butterfly()
        box = mu.support_box
        for n in (7, 31, 64):
            grid = logged(RelayGrid(mu, n))
            for nested in (False, True):
                grid.initialize(random_history(rng, box, nested))
                assert_steps_follow_the_rule(grid, ramp_samples(rng, grid, box.beta_lo, box.alpha_hi))
                assert_steps_follow_the_rule(grid, rng.uniform(-1.2, 1.2, 30))

    def test_a_call_of_many_samples_follows_the_rule(self):
        rng = np.random.default_rng(43)
        for mu in (random_grid_field(rng), make_butterfly()[0]):
            box = mu.support_box
            grid = logged(RelayGrid(mu, int(rng.integers(5, 40))))
            for per_call in (2, 7, 1000):
                grid.initialize(random_history(rng, box, nested=True))
                assert_steps_follow_the_rule(
                    grid, ramp_samples(rng, grid, box.beta_lo, box.alpha_hi), per_call
                )

    def test_a_call_of_many_samples_is_the_calls_of_one(self):
        """step(*us) leaves the states that step(u) for each u in turn
        leaves, through NaNs inside ramps and calls with no sample, and the
        steps after it agree too."""
        rng = np.random.default_rng(44)
        for mu in [random_grid_field(rng) for _ in range(4)] + [make_butterfly()[0]]:
            box = mu.support_box
            n = int(rng.integers(5, 60))
            one, many = RelayGrid(mu, n), RelayGrid(mu, n)
            init = random_history(rng, box, nested=bool(rng.integers(2)))
            one.initialize(init)
            many.initialize(init)
            samples = ramp_samples(rng, one, box.beta_lo, box.alpha_hi)
            for k in rng.choice(len(samples), 4, replace=False):
                samples[k] = math.nan
            cuts = np.sort(rng.integers(0, len(samples) + 1, 8)).tolist()
            for lo, hi in zip([0] + cuts, cuts + [len(samples)]):  # some empty
                for u in samples[lo:hi]:
                    one.step(u)
                many.step(*samples[lo:hi])
                assert np.array_equal(many.states, one.states)
            many.step()
            for u in rng.uniform(box.beta_lo - 0.2, box.alpha_hi + 0.2, 10).tolist():
                one.step(u)
                many.step(u)
                assert np.array_equal(many.states, one.states)

    def test_a_sample_that_raises_keeps_the_samples_before_it(self):
        mu, iface = uniform_scene()
        grid, want = RelayGrid(mu, 40), RelayGrid(mu, 40)
        for g in (grid, want):
            g.initialize(iface)
            g.step(0.2)  # blocks that the samples below move
        with pytest.raises(TypeError):
            grid.step(0.6, -0.3, "0.2")
        want.step(0.6, -0.3)
        assert np.array_equal(grid.states, want.states)
        for u in (0.9, 0.1, -0.7, 0.0):
            grid.step(u)
            want.step(u)
            assert np.array_equal(grid.states, want.states)


def row_by_row_states(grid, iface):
    """The relay states of ``iface`` on the lattice, one row per alpha."""
    states = np.full((grid.n, grid.n), -1, dtype=np.int8)
    for i, a in enumerate(grid.alphas):
        states[i, :] = np.where(grid.betas <= upper_beta(iface, float(a)), 1, -1)
    return states


class TableField:
    """A field whose weights on any lattice over ``box`` are a given n x n
    table (rows by alpha), before the scaling by the cell area."""

    def __init__(self, box, table):
        self.support_box = box
        self.table = table

    def eval(self, alphas, betas):
        return np.array(self.table)


def table_grid(weights, rng):
    """A lattice over UNIT_BOX (every beta below every alpha, so no weight
    is zeroed) of the given weights, in random states."""
    n = len(weights)
    grid = RelayGrid(TableField(UNIT_BOX, weights), n)
    grid.states[...] = rng.choice(np.array([-1, 1], dtype=np.int8), (n, n))
    return grid


def assert_output_is_numpys_sum(grid):
    assert grid.output().hex() == float(np.multiply(grid.states, grid.weights).sum()).hex()


def leaf_spans(size, lo=0):
    """The (lo, hi) spans of at most OUTPUT_BLOCK that numpy's pairwise
    split of ``size`` floats sums one by one, in order."""
    if size <= OUTPUT_BLOCK:
        return [(lo, lo + size)]
    half = size // 2 - size // 2 % 8
    return leaf_spans(half, lo) + leaf_spans(size - half, lo + half)


class TestRelayGridStates:
    def test_initialize_matches_the_row_by_row_rule(self):
        rng = np.random.default_rng(61)
        for _ in range(8):
            mu = random_grid_field(rng)
            box = mu.support_box
            grid = RelayGrid(mu, int(rng.integers(5, 60)))
            iface = MemoryInterface.virgin(box)
            for _ in range(int(rng.integers(0, 8))):
                iface = iface.push_extremum(float(rng.uniform(box.beta_lo - 0.2, box.alpha_hi + 0.2)))
            # a curve corner exactly on a lattice alpha
            iface = iface.push_extremum(float(rng.choice(grid.alphas))).push_extremum(0.0)
            grid.initialize(iface)
            assert grid.states.dtype == np.int8
            assert np.array_equal(grid.states, row_by_row_states(grid, iface))

    def test_initialize_with_every_corner_on_lattice_lines(self):
        """A row on a step's upper alpha edge and a column on its level
        are +1."""
        rng = np.random.default_rng(63)
        for _ in range(20):
            mu = random_grid_field(rng)
            grid = RelayGrid(mu, int(rng.integers(10, 60)))
            alphas = np.sort(rng.choice(grid.alphas[grid.alphas > 0.0], 3, replace=False))
            betas = -np.sort(-rng.choice(grid.betas[grid.betas < 0.0], 3, replace=False))
            corners, b = [(0.0, 0.0)], 0.0
            for a, b_next in zip(alphas.tolist(), betas.tolist()):
                corners += [(a, b), (a, b_next)]
                b = b_next
            iface = MemoryInterface.from_corners(corners, mu.support_box)
            grid.initialize(iface)
            assert np.array_equal(grid.states, row_by_row_states(grid, iface))

    def test_output_is_the_sum_of_weighted_states(self):
        rng = np.random.default_rng(62)
        for mu in (make_butterfly()[0], random_grid_field(rng)):
            box = mu.support_box
            grid = RelayGrid(mu, 90)
            grid.initialize(MemoryInterface.virgin(box))
            for u in rng.uniform(box.beta_lo, box.alpha_hi, 30):
                grid.step(float(u))
                assert grid.output() == float((grid.states * grid.weights).sum())

    @pytest.mark.parametrize("n", [2, 3, 181, 182, 256, 257, 300, 601])
    def test_output_is_numpys_sum_bit_for_bit(self, n):
        """181² relays fit in one OUTPUT_BLOCK, 182² do not and 256² are two
        blocks exactly: the block sum is numpy's sum of the n x n products,
        by ``float.hex``, with zero rows, -0.0 weights and magnitudes from
        1e-12 to 1e12, and a lattice of zero weights sums to +0.0."""
        assert 181 ** 2 <= OUTPUT_BLOCK < 182 ** 2
        assert 256 ** 2 == 2 * OUTPUT_BLOCK
        rng = np.random.default_rng(n)
        for _ in range(3):
            weights = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-12, 12, (n, n))
            weights[rng.random(n) < 0.1] = 0.0
            weights[rng.random((n, n)) < 0.05] = -0.0
            grid = table_grid(weights, rng)
            assert_output_is_numpys_sum(grid)
        grid = table_grid(np.where(rng.random((n, n)) < 0.5, -0.0, 0.0), rng)
        assert grid.output().hex() == (0.0).hex()

    @pytest.mark.parametrize("n", [181, 182, 257, 600])
    def test_kept_block_sums_never_go_stale(self, n):
        """After every change of the states, a block edit, its undo, a flip
        where the weight is +-0.0, an initialize or a pulse, the output is
        numpy's sum of the products again, by ``float.hex``."""
        rng = np.random.default_rng(n)
        weights = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-3, 3, (n, n))
        zeros = rng.random((n, n)) < 0.1
        weights[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, -0.0, 0.0)
        grid = RelayGrid(TableField(UNIT_BOX, weights), n)
        with pytest.raises(ValueError):
            grid.weights[0, 0] = 1.0
        with pytest.raises(AttributeError):
            grid.weights = weights
        flat = grid.states.reshape(-1)  # a view: edits reach the lattice
        leaves = leaf_spans(n * n)
        assert len(leaves) == {181: 1, 182: 2, 257: 4, 600: 16}[n]
        # from uniform states, so every block of one size has the same bytes
        assert_output_is_numpys_sum(grid)
        # edits in one block, in all of them, and across each block edge
        spans = leaves + [(0, n * n)] + [(hi - n, hi + n) for _, hi in leaves[:-1]]
        for lo, hi in spans:
            picked = rng.integers(lo, hi, int(rng.integers(1, 50)))
            flat[picked] *= -1
            assert_output_is_numpys_sum(grid)
            flat[picked] *= -1  # the undo: the states of a sum kept before
            assert_output_is_numpys_sum(grid)
            flat[picked] *= -1
            assert_output_is_numpys_sum(grid)
        on_zeros = np.flatnonzero(zeros)
        for _ in range(4):
            flat[rng.choice(on_zeros, 20)] *= -1
            assert_output_is_numpys_sum(grid)
        flat[on_zeros] = 1
        assert_output_is_numpys_sum(grid)
        flat[on_zeros] = -1
        assert_output_is_numpys_sum(grid)
        for nested in (False, True, False):
            grid.initialize(random_history(rng, UNIT_BOX, nested))
            assert_output_is_numpys_sum(grid)
        # pulses from zero that grow, shrink and alternate in sign, each
        # sampled as oracle_pulse_remnants does
        sizes = np.sort(rng.uniform(0.05, 1.0, 6))
        trains = [sizes, -sizes, sizes[::-1], -sizes[::-1], sizes[::-1] * (-1.0) ** np.arange(6)]
        ramp = np.linspace(0.0, 1.0, 11)[1:]
        for amplitudes in trains + [rng.uniform(-1.1, 1.1, 8)]:
            grid.initialize(MemoryInterface.virgin(UNIT_BOX))
            for w in amplitudes.tolist():
                grid.step(*(w * ramp).tolist(), *(w * ramp[-2::-1]).tolist(), 0.0)
                assert_output_is_numpys_sum(grid)
                grid.step(*(w * ramp).tolist(), *(w * ramp[-2::-1]).tolist(), 0.0)  # a repeat
                assert_output_is_numpys_sum(grid)

    def test_a_lattice_is_freed_with_its_last_reference(self):
        """No reference cycle holds a lattice that has stepped and summed:
        with the cyclic collector off, its arrays go with the grid."""
        mu, iface = uniform_scene()
        gc.disable()
        try:
            grid = RelayGrid(mu, 200)  # more than one OUTPUT_BLOCK of relays
            grid.initialize(iface)
            grid.step(0.5, -0.3, 0.0)
            grid.output()
            weights = weakref.ref(grid.weights)
            del grid
            assert weights() is None
        finally:
            gc.enable()


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

    @pytest.mark.parametrize("samples_per_pulse", [1, 2, 3, 10, 101])
    def test_bit_equal_to_a_replay_that_writes_both_blocks(self, samples_per_pulse):
        rng = np.random.default_rng(71 + samples_per_pulse)
        scenes = [(make_butterfly()[0], None)]
        scenes += [(random_grid_field(rng), nested) for nested in (False, True, True)]
        for mu, nested in scenes:
            box = mu.support_box
            if nested is None:
                init = MemoryInterface.virgin(box)
            else:
                init = random_history(rng, box, nested).push_extremum(0.0)
            amplitudes = rng.uniform(box.beta_lo - 0.1, box.alpha_hi + 0.1, 6).tolist()
            n = int(rng.integers(20, 90))
            got = oracle_pulse_remnants(mu, init, amplitudes, n, samples_per_pulse)
            want = two_write_pulse_remnants(mu, init, amplitudes, n, samples_per_pulse)
            assert [x.hex() for x in got.tolist()] == [x.hex() for x in want.tolist()]


def two_write_pulse_remnants(mu, init, amplitudes, n, samples_per_pulse):
    """Per-pulse remnants of a replay whose every step writes the rule's
    whole row block (alpha < u) and then its whole column block (beta > u),
    on samples built as arrays."""
    grid = RelayGrid(mu, n)
    grid.initialize(init)
    alphas, betas = grid.alphas.tolist(), grid.betas.tolist()
    half = max(1, samples_per_pulse // 2)
    ramp = np.arange(1, half + 1) / half
    out = []
    for w in amplitudes:
        for u in np.concatenate([w * ramp, w * ramp[::-1][1:], [0.0]]):
            grid.states[: bisect.bisect_left(alphas, float(u))] = 1
            grid.states[:, bisect.bisect_right(betas, float(u)):] = -1
        out.append(grid.output())
    return np.array(out)


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

    def test_relays_on_the_diagonal_keep_their_weight(self):
        # on a square box the two axes are the same floats: alpha == beta
        # indexes a relay
        mu = GridWeighting(Box(-1.0, 1.0, -1.0, 1.0), np.arange(1.0, 17.0).reshape(4, 4))
        grid = RelayGrid(mu, 30)
        assert np.array_equal(grid.alphas, grid.betas)
        assert np.array_equal(grid.weights, point_weights(mu, grid))
        assert np.all(np.diag(grid.weights) > 0.0)
