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
        self._blocks = 0, n

    def initialize(self, iface: MemoryInterface):
        # the steps partition the alpha axis into (lo, hi] intervals with
        # ascending hi, so the step holding each lattice alpha is the first
        # one whose hi reaches it
        steps = iface.steps()
        his = np.array([hi for _, hi, _ in steps])
        levels = np.array([level for _, _, level in steps])
        level = levels[his.searchsorted(self.alphas, "left")]
        self.states[:] = np.where(self.betas[None, :] <= level[:, None], np.int8(1), np.int8(-1))
        self._blocks = 0, self.n

    def step(self, u: float):
        """Switch the relays of the rule at input u: rows with alpha < u to
        +1, then columns with beta > u to -1.

        Both axes ascend, so these are a leading block of k rows and a
        trailing block of columns from j, and the bisects compare u as the
        rule does (a NaN gives k = 0, j = n and switches no relay).  The
        step before left its blocks (k0, j0) in place: every column from j0
        at -1 and rows < k0 at +1 left of j0.  So only the parts of the
        blocks outside those are written, each with the rule's own value;
        (0, n) claims nothing and makes the next step write both blocks.
        """
        alphas, betas = self._axes
        k, j = bisect_left(alphas, u), bisect_right(betas, u)
        k0, j0 = self._blocks
        states = self.states
        if j < j0:
            states[:, j:j0] = -1
        elif j > j0:
            states[:k, j0:j] = 1
        if k > k0:
            states[k0:k, :min(j, j0)] = 1
        self._blocks = k, j

    def output(self) -> float:
        return float(np.multiply(self.states, self.weights, out=self._products).sum())


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
    fractions = ramp.tolist() + ramp[-2::-1].tolist()  # up to 1, back down
    out = []
    for w in amplitudes:
        w = float(w)
        for r in fractions:
            grid.step(w * r)
        grid.step(0.0)
        out.append(grid.output())
    return np.array(out)
