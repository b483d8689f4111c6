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

#: most relays summed in one product buffer by ``RelayGrid.output``
OUTPUT_BLOCK = 1 << 15


def _pairwise_sum(states, weights, block, kept, lo, hi) -> float:
    """Sum of states[lo:hi] * weights[lo:hi] (flat arrays) in numpy's own
    pairwise order, holding at most ``len(block)`` products at a time.

    numpy sums a contiguous float64 span by splitting it at ``half = size
    // 2`` rounded down to a multiple of 8 (``pairwise_sum`` in its
    ``loops_utils.h.src``), so a span split the same way down to at most
    ``OUTPUT_BLOCK`` relays and summed per block by numpy adds the same
    floats in the same order.  The one difference, numpy's ``0.0 +`` on
    each block's sum, turns a -0.0 block into +0.0; that can only feed a
    zero total, which numpy also returns as +0.0.

    ``kept`` maps each block's ``lo`` to the bytes of the states it was
    last summed from and that sum.  The weights do not change, so a block
    whose states are byte-equal to its kept ones returns its kept sum, the
    float numpy would give again; any other block is summed and kept.
    """
    size = hi - lo
    if size <= OUTPUT_BLOCK:
        leaf = states[lo:hi]
        key = leaf.tobytes()
        last = kept.get(lo)
        if last is not None and last[0] == key:
            return last[1]
        total = float(np.multiply(leaf, weights[lo:hi], out=block[:size]).sum())
        kept[lo] = key, total
        return total
    half = size // 2
    half -= half % 8
    return (_pairwise_sum(states, weights, block, kept, lo, lo + half)
            + _pairwise_sum(states, weights, block, kept, lo + half, hi))


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
        weights = mu.eval(self.alphas, self.betas)
        weights *= da * db  # in place: no second n x n array
        # only alpha >= beta indexes a relay: zero each row from the first
        # beta above its alpha
        for row, start in zip(weights, self.betas.searchsorted(self.alphas, "right").tolist()):
            row[start:] = 0.0
        weights.flags.writeable = False
        self._weights = weights
        self.states = np.full((n, n), -1, dtype=np.int8)
        self._block = np.empty(min(n * n, OUTPUT_BLOCK))
        self._kept = {}
        self._blocks = 0, n

    @property
    def weights(self):
        """The n x n relay weights, read-only: the kept block sums of
        ``output`` hold only for these."""
        return self._weights

    def initialize(self, iface: MemoryInterface):
        # the steps partition the alpha axis into (lo, hi] intervals, so each
        # holds a block of rows, +1 in the columns with beta <= its level
        states, (alphas, betas) = self.states, self._axes
        states.fill(-1)
        for lo, hi, level in iface.steps():
            rows = slice(bisect_right(alphas, lo), bisect_right(alphas, hi))
            states[rows, :bisect_right(betas, level)] = 1
        self._blocks = 0, self.n

    def step(self, *us: float):
        """Switch the relays of the rule at each input of ``us`` in turn:
        rows with alpha < u to +1, then columns with beta > u to -1.

        Both axes ascend, so these are a leading block of k rows and a
        trailing block of columns from j, and the bisects compare u as the
        rule does (a NaN gives k = 0, j = n and switches no relay).  The
        sample before left its blocks (k0, j0) in place: every column from
        j0 at -1 and rows < k0 at +1 left of j0.  So only the parts of the
        blocks outside those are written, each with the rule's own value;
        (0, n) claims nothing and makes the next sample write both blocks.
        """
        alphas, betas = self._axes
        states = self.states
        k0, j0 = self._blocks
        try:
            for u in us:
                k, j = bisect_left(alphas, u), bisect_right(betas, u)
                if j < j0:
                    states[:, j:j0] = -1
                elif j > j0:
                    states[:k, j0:j] = 1
                if k > k0:
                    states[k0:k, :min(j, j0)] = 1
                k0, j0 = k, j
        finally:  # the blocks of the last sample applied, should one raise
            self._blocks = k0, j0

    def output(self) -> float:
        """The weighted sum of the states: numpy's sum of their n x n
        products, bit for bit, without an n x n product array; only the
        blocks whose states changed since their last sum are summed again."""
        flat = self.n * self.n
        return _pairwise_sum(self.states.reshape(flat), self._weights.reshape(flat),
                             self._block, self._kept, 0, flat)


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
        grid.step(*[w * r for r in fractions], 0.0)
        out.append(grid.output())
    return np.array(out)
