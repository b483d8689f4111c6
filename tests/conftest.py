"""Shared randomized-scenario builders and interface queries for the test
suite."""

import bisect
import math

import numpy as np

from preisach_remnant import (
    Box,
    GridWeighting,
    MemoryInterface,
    QRegion,
    apply_pulse,
    validate_initial_interface,
)


def write_grid_csv(mu, path):
    """Write the grid ``mu`` as the CSV ``GridWeighting.load_csv`` reads:
    its box and cell counts, then one row of cell values per beta cell."""
    b = mu.support_box
    with open(path, "w") as fh:
        fh.write(
            "%r,%r,%r,%r,%d,%d\n"
            % (b.alpha_lo, b.alpha_hi, b.beta_lo, b.beta_hi, mu.n_alpha, mu.n_beta)
        )
        for row in mu.values:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def full_range_repair(iface, q):
    """``iface`` after the first full-range pulse, to alpha2 or else to
    beta2, that leaves it admissible; None when neither does."""
    for w in (q.alpha2, q.beta2):
        candidate = apply_pulse(iface, w)
        if validate_initial_interface(candidate, q):
            return candidate
    return None


def random_grid_field(rng) -> GridWeighting:
    """Sign-indefinite piecewise-constant density on a random box that
    straddles both axes (so the alpha >= 0 >= beta quadrant is hit)."""
    n_alpha = int(rng.integers(2, 7))
    n_beta = int(rng.integers(2, 7))
    box = Box(
        float(rng.uniform(-0.5, -0.05)),
        float(rng.uniform(0.5, 1.5)),
        float(rng.uniform(-1.5, -0.5)),
        float(rng.uniform(0.05, 0.5)),
    )
    values = rng.normal(size=(n_beta, n_alpha))
    grid = GridWeighting(box, values)
    # densities live on the half-plane alpha >= beta: zero every cell that
    # touches the forbidden triangle so the support invariant holds exactly
    for j in range(n_beta):
        for i in range(n_alpha):
            if grid.beta_edges[j + 1] > grid.alpha_edges[i]:
                values[j, i] = 0.0
    return GridWeighting(box, values)


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


def cell_sum(mu, a_lo, a_hi, b_lo, b_hi):
    """Mass of a grid over a rectangle, cell by cell."""
    total = 0.0
    for j in range(mu.n_beta):
        db = min(mu.beta_edges[j + 1], b_hi) - max(mu.beta_edges[j], b_lo)
        for i in range(mu.n_alpha):
            da = min(mu.alpha_edges[i + 1], a_hi) - max(mu.alpha_edges[i], a_lo)
            if da > 0 and db > 0:
                total += mu.values[j, i] * da * db
    return total


def upper_beta(iface: MemoryInterface, alpha: float) -> float:
    """Largest beta for which the relay (alpha, beta) of ``iface`` is in the
    +1 state."""
    for lo, hi, level in iface.steps():
        if lo < alpha <= hi:
            return level
    return -math.inf


def close_to(iface: MemoryInterface, other: MemoryInterface, tol: float = 1e-9) -> bool:
    """Whether two interfaces have as many corners, each within ``tol``."""
    if len(iface.corners) != len(other.corners):
        return False
    return all(
        abs(a1 - a2) <= tol and abs(b1 - b2) <= tol
        for (a1, b1), (a2, b2) in zip(iface.corners, other.corners)
    )


def random_gamma_interface(rng, box: Box) -> MemoryInterface:
    """Random extremum history finishing at input 0, so the curve passes
    through the diagonal origin."""
    iface = MemoryInterface.virgin(box)
    for _ in range(int(rng.integers(0, 6))):
        iface = iface.push_extremum(float(rng.uniform(box.beta_lo, box.alpha_hi)))
    return iface.push_extremum(0.0)


def random_nonneg_q_scenario(rng, floor: float = 0.0):
    """(field, q) with the density nonnegative on every cell touching Q.

    ``floor`` lifts the Q cells so the remnant range cannot degenerate.
    """
    mu = random_grid_field(rng)
    box = mu.support_box
    alpha2 = float(rng.uniform(0.3, box.alpha_hi))
    beta2 = float(rng.uniform(box.beta_lo, -0.3))
    values = mu.values.copy()
    for j in range(mu.n_beta):
        if mu.beta_edges[j + 1] <= beta2 or mu.beta_edges[j] >= 0.0:
            continue
        for i in range(mu.n_alpha):
            if mu.alpha_edges[i + 1] <= 0.0 or mu.alpha_edges[i] >= alpha2:
                continue
            values[j, i] = abs(values[j, i]) + floor
    return GridWeighting(box, values), QRegion(alpha2, beta2)


def random_quadrant_scenario(rng, floor: float = 0.1):
    """(field, q) where Q is the whole alpha >= 0 >= beta quadrant of the
    support box and the density is nonnegative on every cell meeting it."""
    mu = random_grid_field(rng)
    box = mu.support_box
    values = mu.values.copy()
    for j in range(mu.n_beta):
        if mu.beta_edges[j] >= 0.0:
            continue
        for i in range(mu.n_alpha):
            if mu.alpha_edges[i + 1] <= 0.0:
                continue
            if values[j, i] != 0.0:
                values[j, i] = abs(values[j, i]) + floor
    return GridWeighting(box, values), QRegion(box.alpha_hi, box.beta_lo)
