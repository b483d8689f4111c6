"""Brute-force relay lattice used to cross-check the exact staircase engine.

Every lattice relay follows the literal switching rule (strict comparisons,
hold otherwise); the output is the weighted sum of states.  This is a
correctness oracle, not a fast simulator.
"""

from __future__ import annotations

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
        A = self.alphas[:, None]
        B = self.betas[None, :]
        self._A, self._B = A, B
        weights = mu.eval(A, B) * (da * db)
        weights[A < B] = 0.0  # only alpha >= beta indexes a relay
        self.weights = weights
        self.states = np.full((n, n), -1, dtype=np.int8)

    def initialize(self, iface: MemoryInterface):
        for i, a in enumerate(self.alphas):
            level = iface.upper_beta(float(a))
            self.states[i, :] = np.where(self.betas <= level, 1, -1)

    def step(self, u: float):
        self.states = np.where(u > self._A, 1, self.states)
        self.states = np.where(u < self._B, -1, self.states)

    def output(self) -> float:
        return float((self.states * self.weights).sum())


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
