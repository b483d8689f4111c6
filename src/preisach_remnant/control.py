"""Triangular pulse trains and the recursive remnant set-point controller.

A pulse of amplitude w is a rate-independent excursion 0 -> w -> 0, so its
effect on the memory curve depends only on w.  The controller updates the
amplitude by w_{k+1} = w_k - lambda * e_k (sign flipped when the density is
negative on Q) and contracts the remnant error whenever the gain stays
below twice the inverse of the worst sector slope.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, ConfigurationError, DegenerateBoundsError
from .interface import MemoryInterface
from .weighting import (
    OutputReader,
    QRegion,
    SectorBounds,
    evaluate_output,
    rect_mass,
    sector_bounds,
)


def render_signal(amplitudes, tau: float, sample_step: float):
    """Dense samples of the modulated pulse train.

    Returns (t, u) arrays covering [0, n*tau]; boundary samples are exactly
    zero when sample_step divides tau/2.
    """
    n = len(amplitudes)
    n_samples = int(round(n * tau / sample_step))
    t = np.arange(n_samples + 1) * sample_step
    if not n:
        return t, np.zeros_like(t)
    # pulse k of the train is the unit triangle on [k*tau, (k+1)*tau]
    k = np.minimum((t / tau).astype(int), n - 1)
    t0 = k * tau
    half = t0 + 0.5 * tau
    shape = np.where(t <= half, 2.0 * (t - t0) / tau, 2.0 * (t0 + tau - t) / tau)
    shape[(t < t0) | (t > t0 + tau)] = 0.0
    return t, np.asarray(amplitudes, float)[k] * shape


def _require_zero_crossing(iface: MemoryInterface):
    if abs(iface.current_value) > iface.support_box.input_tol:
        raise AdmissibilityError(
            "interface must pass through the diagonal at zero input"
        )


def apply_pulse(iface: MemoryInterface, w: float) -> MemoryInterface:
    """Memory state after one triangular pulse of amplitude w."""
    _require_zero_crossing(iface)
    if w == 0.0:
        return iface
    return iface.push_extremum(w).push_extremum(0.0)


def remnant(mu, iface: MemoryInterface, w: float):
    """Remnant after a pulse of amplitude w; returns (value, new interface)."""
    new = apply_pulse(iface, w)
    return evaluate_output(mu, new), new


def pulse_remnants(mu, iface: MemoryInterface, amplitudes):
    """Remnant after each pulse of a train, as chained ``remnant`` calls give
    it: every second output of ``_respond`` over ``apply_pulse``'s pushes."""
    values = []
    for w in amplitudes:
        if w == 0.0:  # no push: the input it starts from, which may lie off zero within tolerance
            values += [values[-1] if values else iface.current_value] * 2
        else:
            values += (float(w), 0.0)
    if values:  # apply_pulse checks each pulse; a train of none checks nothing
        _require_zero_crossing(iface)
    return _respond(mu, iface, values)[1::2]


def last_input_extrema(iface: MemoryInterface):
    """(M, m): alpha of the last input maximum and beta of the last minimum.

    At a zero crossing the head corner sits at the origin and the next
    corner ends the curve's first run: a horizontal run along beta = 0 ends
    at alpha = M, a vertical run along alpha = 0 ends at beta = m, and a
    canonical staircase has no third corner on either run.
    """
    _require_zero_crossing(iface)
    corners = iface.corners
    a0, b0 = corners[0]
    a1, b1 = corners[min(1, len(corners) - 1)]  # a box floor at zero leaves one corner
    tol = iface.support_box.merge_tol
    M = a1 if abs(b1 - b0) <= tol else a0
    m = b1 if abs(a1 - a0) <= tol else b0
    return M, m


def delta_remnant_explicit(mu, iface_next: MemoryInterface, w_next: float) -> float:
    """Predicted remnant change of the next pulse without applying it.

    Positive amplitudes above the last maximum switch the band between the
    curve and beta = 0; negative amplitudes below the last minimum switch the
    band between alpha = 0 and the curve; anything in between is a dead zone.
    Both bands are sums of one rectangle per run of the curve, from corner
    (a1, b1) to corner (a2, b2), with (inf, -inf) after the tail: after a
    rise the relays over alpha in (a1, a2] and beta in [b2, 0], after a fall
    those over alpha in [0, a1] and beta in [b2, b1], each cut to the
    pulse's reach.  A ``from_corners`` staircase may step back within the
    merge tolerance.  Where alpha steps back, a rise band starts at the
    largest alpha so far.  Where beta steps back up, the relays of the rows
    between belong to the run after, so the fall band takes them out of
    the run before: the negative slab of ``OutputReader``'s sum.  A fall
    band reaches up to the curve, not to the last minimum m: where the
    first horizontal run ends above beta = 0 within the tolerance, the
    relays between are +1 and the fall switches them too.
    """
    M, m = last_input_extrema(iface_next)
    rise = w_next > M
    if not (rise or w_next < m):
        return 0.0
    beta_lo = mu.support_box.beta_lo
    corners = iface_next.corners
    total, a_lo = 0.0, M
    for (a1, b1), (a2, b2) in zip(corners, corners[1:] + ((math.inf, -math.inf),)):
        if rise:
            a_lo = max(a_lo, a1)
            total += rect_mass(mu, a_lo, min(a2, w_next), max(b2, beta_lo), 0.0)
        elif b2 <= b1:
            total += rect_mass(mu, 0.0, a1, max(b2, w_next, beta_lo), b1)
        else:
            total -= rect_mass(mu, 0.0, a1, max(b1, w_next, beta_lo), b2)
    return 2.0 * total if rise else -2.0 * total


def validate_initial_interface(iface: MemoryInterface, q: QRegion) -> bool:
    """True when no curve point enters the strips that would let bounded
    pulses reach relays outside Q."""
    a2, b2, tol = q.alpha2, q.beta2, iface.support_box.input_tol
    for (x1, y1), (x2, y2) in zip(iface.corners, iface.corners[1:]):
        a_lo, a_hi = min(x1, x2), max(x1, x2)
        b_lo, b_hi = min(y1, y2), max(y1, y2)
        # strip 1: alpha > alpha2, beta2 < beta <= 0
        if a_hi > a2 + tol and b_hi > b2 + tol and b_lo <= tol:
            return False
        # strip 2: beta < beta2, 0 <= alpha < alpha2
        if b_lo < b2 - tol and a_lo < a2 - tol and a_hi >= -tol:
            return False
    return True


def remnant_extrema(mu, iface0: MemoryInterface, q: QRegion):
    """(gamma_max, gamma_min): remnants of the two full-range pulses."""
    if not validate_initial_interface(iface0, q):
        raise AdmissibilityError("initial interface enters the forbidden strips")
    g_max, _ = remnant(mu, iface0, q.alpha2)
    g_min, _ = remnant(mu, iface0, q.beta2)
    return g_max, g_min


def _sign_on_q(mu, q: QRegion) -> float:
    """The sign of the density on Q, the premise of the gain cap: 1.0 when
    it is >= 0 there, -1.0 when it is only <= 0; a field of neither sign is
    a config error that names a wrong cell or lobe of each.  The check is
    exact for grids and conservative for Gaussian sums (``sign_violation``)."""
    positive = mu.sign_violation(q, 1.0)
    if positive is None:
        return 1.0
    negative = mu.sign_violation(q, -1.0)
    if negative is None:
        return -1.0
    raise ConfigurationError("%s; %s" % (positive, negative))


def premised_bounds(mu, q: QRegion, resolution: int = 512) -> SectorBounds:
    """Sector bounds of a field whose density has one sign on Q, the
    premise of the gain cap; any other field is a config error."""
    _sign_on_q(mu, q)
    return sector_bounds(mu, q, resolution)


def max_gain(bounds: SectorBounds) -> float:
    """Supremum of admissible adaptation gains: 2 over the steepest Q slope.
    A density of one sign on Q leaves the two Q bounds of the other sign at
    0.0, so the slopes of that sign decide.  A subnormal slope gives no
    cap: it is not known to full relative precision, and below 2 / max
    float 2 over it overflows; 2 over a normal slope never does."""
    d = max(
        bounds.gamma2_plus_q, bounds.gamma1_minus_q, -bounds.gamma2_minus_q, -bounds.gamma1_plus_q
    )
    if d <= 0.0:
        raise DegenerateBoundsError("sector bounds vanish on Q")
    if d < sys.float_info.min:
        raise DegenerateBoundsError(
            "gain cap 2/%r overflows or loses precision: the slope is subnormal" % d
        )
    return 2.0 / d


@dataclass(frozen=True)
class ControllerConfig:
    """Every setting of a controller run; the CLI's config holds one with
    ``gamma_d`` None when unset and ``lam`` ``"auto"`` until it runs."""

    gamma_d: float
    lam: float
    w0: float
    q: QRegion
    tolerance: float = None
    max_pulses: int = 200


@dataclass
class PulseRecord:
    k: int
    w: float
    gamma: float
    e: float
    clamped: bool


@dataclass
class ControlTrace:
    records: list
    converged: bool  # False: the pulse budget ran out
    gamma_max: float
    gamma_min: float
    tolerance: float
    final_interface: MemoryInterface

    @property
    def amplitudes(self):
        return [r.w for r in self.records]


def run_controller(
    mu,
    iface0: MemoryInterface,
    cfg: ControllerConfig,
    bounds: SectorBounds = None,
) -> ControlTrace:
    """Iterate the amplitude update until the remnant error is within
    tolerance or the pulse budget runs out.  The sign on Q is checked, and
    sets the step's sign, whether ``bounds`` are given or computed.  Each
    pulse is pushed and read on its own, since its amplitude depends on the
    read before it.  The target may lie outside the reachable remnant range
    by 1e-9 of the range's larger magnitude, with no floor, so it is judged
    at the field's own scale."""
    q = cfg.q
    g_max, g_min = remnant_extrema(mu, iface0, q)
    if not (q.beta2 <= cfg.w0 <= q.alpha2):
        raise ConfigurationError("w0 must lie in [beta2, alpha2]")
    step_sign = -_sign_on_q(mu, q)
    if bounds is None:
        bounds = sector_bounds(mu, q)
    gain_cap = max_gain(bounds)
    if not (0.0 < cfg.lam < gain_cap):
        raise ConfigurationError(
            "gain %g outside the admissible interval (0, %g)" % (cfg.lam, gain_cap)
        )
    lo, hi = min(g_min, g_max), max(g_min, g_max)
    span = hi - lo
    tol_pad = 1e-9 * max(abs(hi), abs(lo))
    if not (lo - tol_pad <= cfg.gamma_d <= hi + tol_pad):
        raise ConfigurationError(
            "target %g outside the reachable remnant range [%g, %g]"
            % (cfg.gamma_d, lo, hi)
        )
    tol_e = cfg.tolerance if cfg.tolerance is not None else 1e-6 * span

    iface = iface0
    reader = OutputReader(mu)
    w = cfg.w0
    clamped = False
    records = []
    converged = False
    for k in range(cfg.max_pulses + 1):
        iface = apply_pulse(iface, w)
        gamma_k = reader.read(iface)
        e_k = gamma_k - cfg.gamma_d
        records.append(PulseRecord(k, w, gamma_k, e_k, clamped))
        if abs(e_k) <= tol_e:
            converged = True
            break
        if k == cfg.max_pulses:
            break
        w_raw = w + step_sign * cfg.lam * e_k
        w_new = min(max(w_raw, q.beta2), q.alpha2)
        clamped = w_new != w_raw
        w = w_new
    return ControlTrace(records, converged, g_max, g_min, tol_e, iface)


def dense_response(mu, iface0: MemoryInterface, amplitudes, tau: float, sample_step: float):
    """Sampled input and output (t, u, y) of a pulse train: t and u arrays,
    y the list of floats ``_respond`` reads, which the CSV writer takes as it is."""
    t, u = render_signal(amplitudes, tau, sample_step)
    return t, u, _respond(mu, iface0, u.tolist())


def _respond(mu, iface: MemoryInterface, values) -> list:
    """The output after each push of ``values`` onto ``iface``, as floats.

    Along a monotone ramp every push links a new head to survivors of the
    state at the ramp's start, or wipes every corner.  So a first pass
    walks each ramp once (``ramp_slabs``) and keeps the slab points of its
    pushes, their survivors and the state that ends it; E is evaluated at
    all the points in one array call; and a second pass reads the ramps in
    order (``read_slabs``), each output the survivor's expansion plus its
    slab's terms, from the end of the ramp before, which the reader keeps.
    ``iface`` and a push that starts no ramp are read in full, and a push
    within the merge tolerance of the input before takes the output before
    it (near a peak that falls between two samples, two samples can land
    about 1e-15 apart).  E at a point does not depend on when it is
    evaluated, so every output is the float of a push and a read per value.
    The first pass holds every push's survivor and slab points until the
    one call of E, so its memory grows with the train.
    """
    # per ramp: the survivors of the heads of its pushes (none for a state
    # read in full), its last state and the pushes after it that leave that
    # state as it is
    ramps = [[[], iface, 0]]
    alphas, betas = [], []
    i = 0
    while i < len(values):
        start = iface
        a, b, survivors, iface = start.ramp_slabs(values, i)
        i += len(survivors) or 1
        if iface is start:  # a push within the merge tolerance
            ramps[-1][2] += 1
            continue
        alphas += a
        betas += b
        ramps.append([survivors, iface, 0])
    e = iter(mu.everett_array(alphas, betas).tolist())  # each ramp reads on from the last
    reader = OutputReader(mu)
    y = []
    for survivors, iface, repeats in ramps:
        if survivors:
            y += reader.read_slabs(survivors, e, iface)
        else:
            y.append(reader.read(iface))
        y += y[-1:] * repeats
    return y[1:]  # after the output of iface

