"""Brute-force relay lattice used to cross-check the exact staircase engine.

Every lattice relay follows the literal switching rule (strict comparisons,
hold otherwise); the output is the weighted sum of states.  This is a
correctness oracle, not a fast simulator.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from .interface import MemoryInterface

#: default dense sampling per pulse for oracle replays
DEFAULT_SAMPLES_PER_PULSE = 1000


class RelayGrid:
    """Dense n x n lattice of relays over the weighting support box."""

    def __init__(self, mu, n: int):
        box = mu.support_box
        self.n = n
        da = (box.alpha_hi - box.alpha_lo) / n
        db = (box.beta_hi - box.beta_lo) / n
        self.alphas = box.alpha_lo + (np.arange(n) + 0.5) * da
        self.betas = box.beta_lo + (np.arange(n) + 0.5) * db
        self._axes = self.alphas.tolist(), self.betas.tolist()
        A = self.alphas[:, None]
        B = self.betas[None, :]
        weights = mu.eval(A, B)
        weights *= da * db  # in place: the output buffer below takes its room
        weights[A < B] = 0.0  # only alpha >= beta indexes a relay
        self.weights = weights
        self.states = np.full((n, n), -1, dtype=np.int8)
        self._products = np.empty((n, n))

    def initialize(self, iface: MemoryInterface):
        # the steps partition the alpha axis into (lo, hi] intervals with
        # ascending hi, so the step holding each lattice alpha is the first
        # one whose hi reaches it
        steps = iface.steps()
        his = np.array([hi for _, hi, _ in steps])
        levels = np.array([level for _, _, level in steps])
        level = levels[his.searchsorted(self.alphas, "left")]
        self.states[:] = np.where(self.betas[None, :] <= level[:, None], np.int8(1), np.int8(-1))

    def step(self, u: float):
        # both axes ascend, so the relays with alpha < u are a leading block
        # of rows and those with beta > u a trailing block of columns; the
        # bisects compare u as the rule does, so a NaN switches no relay
        alphas, betas = self._axes
        self.states[: bisect_left(alphas, u)] = 1
        self.states[:, bisect_right(betas, u):] = -1

    def output(self) -> float:
        return float(np.multiply(self.states, self.weights, out=self._products).sum())


def oracle_simulate(mu, init: MemoryInterface, u_samples, n: int):
    """Replay an input sample train; returns the output at every sample."""
    grid = RelayGrid(mu, n)
    grid.initialize(init)
    y = np.zeros(len(u_samples))
    for i, u in enumerate(u_samples):
        grid.step(float(u))
        y[i] = grid.output()
    return y


def oracle_pulse_remnants(mu, init: MemoryInterface, amplitudes, n: int,
                          samples_per_pulse: int = DEFAULT_SAMPLES_PER_PULSE):
    """Per-pulse remnants of a pulse train on the relay lattice.

    Each half-pulse is monotone, so any sample density yields the same
    final relay states; density only affects intermediate outputs.
    """
    grid = RelayGrid(mu, n)
    grid.initialize(init)
    half = max(1, samples_per_pulse // 2)
    ramp = np.arange(1, half + 1) / half
    out = []
    for w in amplitudes:
        for u in np.concatenate([w * ramp, w * ramp[::-1][1:], [0.0]]):
            grid.step(float(u))
        out.append(grid.output())
    return np.array(out)
