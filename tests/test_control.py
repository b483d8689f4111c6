"""Pulse trains, remnant evaluation, admissibility and the controller."""

import json
import math
import sys

import numpy as np
import pytest

from preisach_remnant import (
    AdmissibilityError,
    Box,
    ConfigurationError,
    ControllerConfig,
    DegenerateBoundsError,
    GaussianComponent,
    GaussianWeighting,
    GridWeighting,
    MemoryInterface,
    QRegion,
    SectorBounds,
    apply_pulse,
    delta_remnant_explicit,
    dense_response,
    evaluate_output,
    last_input_extrema,
    make_butterfly,
    max_gain,
    premised_bounds,
    pulse_remnants,
    remnant,
    remnant_extrema,
    render_signal,
    run_controller,
    sector_bounds,
    uniform_field,
    validate_initial_interface,
)
from preisach_remnant import cli
from preisach_remnant.control import _respond
from preisach_remnant.interface import INPUT_TOL, VERTEX_MERGE_TOL
from preisach_remnant.presets import interface_from_spec
from preisach_remnant.weighting import OutputReader, rect_mass

from conftest import close_to, random_gamma_interface, random_grid_field, random_nonneg_q_scenario

UNIT_BOX = Box(0.0, 1.0, -1.0, 0.0)
Q_UNIT = QRegion(1.0, -1.0)


def pzt_shelf_interface():
    """The shelf preset on its own box: last maximum 1400, flat at -800."""
    return interface_from_spec({"preset": "pzt_shelf"}, Box(0.0, 1400.0, -850.0, 0.0))


def uniform_scene():
    mu = uniform_field(Q_UNIT)
    return mu, MemoryInterface.virgin(UNIT_BOX)


def pulse_value(k: int, t: float, tau: float) -> float:
    """Unit triangular pulse: up on [k*tau, (k+1/2)*tau], down to (k+1)*tau."""
    t0 = k * tau
    if t < t0 or t > t0 + tau:
        return 0.0
    half = t0 + 0.5 * tau
    if t <= half:
        return 2.0 * (t - t0) / tau
    return 2.0 * (t0 + tau - t) / tau


class TestPulseShape:
    def test_peak_at_half_period(self):
        assert pulse_value(0, 0.5, 1.0) == 1.0

    def test_linear_ramp(self):
        assert pulse_value(0, 0.25, 1.0) == 0.5

    def test_zero_outside_support(self):
        assert pulse_value(2, 1.5, 1.0) == 0.0

    def test_render_single_pulse(self):
        t, u = render_signal([1.0], 1.0, 0.25)
        assert np.allclose(u, [0.0, 0.5, 1.0, 0.5, 0.0])

    def test_render_zero_plan(self):
        _, u = render_signal([0.0, 0.0], 1.0, 0.25)
        assert np.all(u == 0.0)

    @pytest.mark.parametrize(
        "amplitudes, tau, step",
        [
            ([1.0], 1.0, 0.25),
            ([0.75, -0.25, 0.4], 1.0, 0.02),
            ([0.3, -0.6, 0.9, -0.1], 0.1, 0.1 / 50),
            ([0.5, -0.5], 0.7, 0.03),  # step divides neither tau nor tau/2
            ([2, -1], 3.0, 0.2),  # integer amplitudes
            ([], 1.0, 0.25),
        ],
    )
    def test_render_is_bit_equal_to_the_sample_loop(self, amplitudes, tau, step):
        def loop(amplitudes, tau, sample_step):
            n = len(amplitudes)
            n_samples = int(round(n * tau / sample_step))
            t = np.arange(n_samples + 1) * sample_step
            u = np.zeros_like(t)
            for i, ti in enumerate(t):
                k = min(int(ti / tau), n - 1) if n else 0
                if n:
                    u[i] = amplitudes[k] * pulse_value(k, float(ti), tau)
            return t, u

        t, u = render_signal(amplitudes, tau, step)
        t_ref, u_ref = loop(amplitudes, tau, step)
        assert t.tobytes() == t_ref.tobytes()
        assert u.tobytes() == u_ref.tobytes()

    def test_render_negative_amplitude(self):
        t, u = render_signal([0.75, -0.25], 1.0, 0.25)
        assert u.min() == pytest.approx(-0.25)
        assert t[np.argmin(u)] == pytest.approx(1.5)


class TestApplyPulse:
    def test_positive_pulse_builds_shelf(self):
        _, iface = uniform_scene()
        after = apply_pulse(iface, 0.75)
        assert close_to(
            after, MemoryInterface.from_corners([(0.0, 0.0), (0.75, 0.0), (0.75, -1.0)], UNIT_BOX)
        )

    def test_zero_pulse_is_identity(self):
        _, iface = uniform_scene()
        assert apply_pulse(iface, 0.0) is iface

    def test_dead_zone_pulse_is_identity(self):
        _, iface = uniform_scene()
        after = apply_pulse(iface, 0.75)
        again = apply_pulse(after, 0.25)
        assert close_to(again, after)

    def test_requires_zero_input_state(self):
        _, iface = uniform_scene()
        lifted = iface.push_extremum(0.4)
        with pytest.raises(AdmissibilityError):
            apply_pulse(lifted, 0.75)

    def test_last_extrema_after_excursion(self):
        _, iface = uniform_scene()
        after = apply_pulse(iface, 0.75)
        assert last_input_extrema(after) == (pytest.approx(0.75), pytest.approx(0.0))

    @pytest.mark.parametrize("box", [UNIT_BOX, Box(-0.5, 1.0, -1.0, 0.5)])
    def test_last_extrema_follow_the_pulse_train(self, box):
        """(M, m) are the last input maximum and minimum, clamped to the box:
        a positive pulse raises M and its return to zero sets m = 0, a
        negative pulse is the mirror image."""
        rng = np.random.default_rng(41)
        for _ in range(300):
            iface = MemoryInterface.virgin(box)
            M, m = 0.0, min(0.0, box.beta_lo)
            for w in rng.uniform(-1.5, 1.5, size=int(rng.integers(1, 10))).tolist():
                iface = apply_pulse(iface, w)
                if w > 0.0:
                    M, m = max(M, min(w, box.alpha_hi)), 0.0
                else:
                    M, m = 0.0, min(m, max(w, box.beta_lo))
                assert last_input_extrema(iface) == (M, m)

    def test_last_extrema_of_the_pzt_shelf(self):
        assert last_input_extrema(pzt_shelf_interface()) == (0.0, -800.0)


class TestRemnant:
    def test_half_pulse(self):
        mu, iface = uniform_scene()
        g, _ = remnant(mu, iface, 0.5)
        assert g == pytest.approx(0.0)

    def test_full_pulse_reaches_the_maximum(self):
        mu, iface = uniform_scene()
        g, _ = remnant(mu, iface, 1.0)
        assert g == pytest.approx(1.0)

    def test_no_pulse_keeps_the_virgin_output(self):
        mu, iface = uniform_scene()
        g, _ = remnant(mu, iface, 0.0)
        assert g == pytest.approx(-1.0)


class TestDeltaExplicit:
    def test_up_case_closed_form(self):
        mu, iface = uniform_scene()
        assert delta_remnant_explicit(mu, iface, 0.75) == pytest.approx(1.5)

    def test_dead_zone_case(self):
        mu, iface = uniform_scene()
        after = apply_pulse(iface, 0.75)
        assert delta_remnant_explicit(mu, after, 0.25) == 0.0

    def test_down_case_closed_form(self):
        mu, iface = uniform_scene()
        after = apply_pulse(iface, 0.75)
        assert delta_remnant_explicit(mu, after, -0.25) == pytest.approx(-0.375)

    def test_one_walk_is_the_frozen_two_branch_formula(self):
        """The corner-pair walk gives the float of the two-branch formula
        it replaced, bit for bit, signed zeros included."""
        kinds = {"rise": 0, "fall": 0, "dead": 0}
        for mu, iface, w in frozen_delta_scenarios():
            got = delta_remnant_explicit(mu, iface, w)
            assert got.hex() == frozen_delta_remnant_explicit(mu, iface, w).hex()
            M, m = last_input_extrema(iface)
            kinds["rise" if w > M else "fall" if w < m else "dead"] += 1
        assert min(kinds.values()) >= 200, kinds

    def test_a_beta_step_back_is_counted_once_in_a_fall(self):
        """Where a ``from_corners`` staircase's beta steps back up within
        the merge tolerance, the fall band counts the rows between once:
        the prediction is the direct after - before difference to a few
        ulps, on the uniform field and on random grids."""
        mu, _ = uniform_scene()
        corners = [(0, 0), (0.3, 0), (0.3, -0.4), (0.6, -0.4 + 5e-13), (0.6, -0.8), (0.9, -0.8)]
        iface = MemoryInterface.from_corners(corners, UNIT_BOX)
        direct = evaluate_output(mu, apply_pulse(iface, -0.6)) - evaluate_output(mu, iface)
        assert direct == -0.48000000000029985
        # 2 ulps; counting the rows twice, or not at all, is off by 3e-13
        assert delta_remnant_explicit(mu, iface, -0.6) == pytest.approx(direct, rel=2**-51, abs=0)
        rng = np.random.default_rng(103)
        falls = 0
        for _ in range(150):
            mu = random_grid_field(rng)
            box = mu.support_box
            alphas = np.sort(rng.uniform(0.0, box.alpha_hi, 4)).tolist()
            betas = (-np.sort(rng.uniform(0.0, -box.beta_lo, 4))).tolist()
            corners, b = [(0.0, 0.0), (alphas[0], 0.0)], betas[0]
            for a, b_next in zip(alphas[1:], betas[1:]):
                # a vertical run down to b, then a horizontal one that ends
                # up to half the merge tolerance above b
                corners += [(corners[-1][0], b), (a, b + 0.5 * box.merge_tol * rng.uniform())]
                b = b_next
            iface = MemoryInterface.from_corners(corners + [(alphas[-1], b)], box)
            for w in rng.uniform(box.beta_lo - 0.2, 0.0, 4).tolist():
                direct = evaluate_output(mu, apply_pulse(iface, w)) - evaluate_output(mu, iface)
                got = delta_remnant_explicit(mu, iface, w)
                assert abs(got - direct) <= 4 * math.ulp(mu.abs_mass())
                falls += w < last_input_extrema(iface)[1]
        assert falls >= 400

    def test_a_fall_reaches_a_first_run_that_ends_above_zero(self):
        """Where a ``from_corners`` staircase's first horizontal run ends
        above beta = 0 within the merge tolerance, the relays between are +1
        and the fall band counts them: the prediction is the direct
        after - before difference to a few ulps of ``abs_mass``, on one grid
        and on random grids."""
        mu = GridWeighting(Box(0.0, 1.0, -1.0, 0.5), [[1.0], [1.0]])
        corners = [(0, 0), (0.5, 5e-13), (0.5, -0.5), (0.9, -0.5)]
        iface = MemoryInterface.from_corners(corners, mu.support_box)
        direct = evaluate_output(mu, apply_pulse(iface, -0.6)) - evaluate_output(mu, iface)
        assert direct == -0.6800000000005
        # a band that stops at the last minimum m = 0 is 5e-13 off
        assert abs(delta_remnant_explicit(mu, iface, -0.6) - direct) <= 4 * math.ulp(mu.abs_mass())
        rng = np.random.default_rng(107)
        slivers = 0
        for _ in range(150):
            mu = random_grid_field(rng)
            box = mu.support_box
            alphas = np.sort(rng.uniform(0.0, box.alpha_hi, 3)).tolist()
            betas = (-np.sort(rng.uniform(0.0, -box.beta_lo, 3))).tolist()
            lift = 0.5 * box.merge_tol * rng.uniform()
            corners = [(0.0, 0.0), (alphas[0], lift)]
            for a, b in zip(alphas[1:], betas):
                corners += [(corners[-1][0], b), (a, b)]
            iface = MemoryInterface.from_corners(corners + [(alphas[-1], betas[-1])], box)
            assert last_input_extrema(iface)[1] == 0.0
            ulps = 4 * math.ulp(mu.abs_mass())
            slivers += abs(rect_mass(mu, 0.0, alphas[0], 0.0, lift)) > ulps
            for w in rng.uniform(box.beta_lo - 0.2, 0.0, 4).tolist():
                direct = evaluate_output(mu, apply_pulse(iface, w)) - evaluate_output(mu, iface)
                assert abs(delta_remnant_explicit(mu, iface, w) - direct) <= ulps
        assert slivers >= 25  # fields with mass in the band above zero


# The two-branch delta_remnant_explicit of the package before it walked the
# corner pairs once, copied with only its name changed: the reference of
# test_one_walk_is_the_frozen_two_branch_formula.
def frozen_delta_remnant_explicit(mu, iface_next: MemoryInterface, w_next: float) -> float:
    """Predicted remnant change of the next pulse without applying it.

    Positive amplitudes above the last maximum switch the band between the
    curve and beta = 0; negative amplitudes below the last minimum switch the
    band between alpha = 0 and the curve; anything in between is a dead zone.
    """
    M, m = last_input_extrema(iface_next)
    box = mu.support_box
    if w_next > M:
        total = 0.0
        for lo, hi, level in iface_next.steps():
            a_lo = max(lo, M)
            a_hi = min(hi, w_next)
            if a_hi <= a_lo:
                continue
            b_lo = max(level if level > -math.inf else box.beta_lo, box.beta_lo)
            total += rect_mass(mu, a_lo, a_hi, b_lo, 0.0)
        return 2.0 * total
    if w_next < m:
        total = 0.0
        corners = iface_next.corners
        # right edge of the switched band as a step function of beta:
        # for beta in (b_{i+1}, b_i] the curve's inner alpha is a_i
        b_prev = corners[0][1]
        for i in range(len(corners)):
            a_i = corners[i][0]
            b_next_corner = corners[i + 1][1] if i + 1 < len(corners) else -math.inf
            hi = min(b_prev, m)
            lo = max(b_next_corner, w_next, box.beta_lo)
            if hi > lo and a_i > 0.0:
                total += rect_mass(mu, 0.0, a_i, lo, hi)
            b_prev = b_next_corner
        return -2.0 * total
    return 0.0


def frozen_delta_scenarios():
    """(mu, iface, w) triples: criterion 1's 200 scenarios, drawn as it
    draws them; pulse histories on grids and on the butterfly, each read at
    amplitudes past the box on both sides, at a corner coordinate and at
    both zeros; and the same amplitudes on staircases whose alpha steps back
    within the merge tolerance at some vertical runs, which only
    ``from_corners`` builds."""
    rng = np.random.default_rng(101)
    for _ in range(200):
        mu = random_grid_field(rng)
        box = mu.support_box
        iface = random_gamma_interface(rng, box)
        yield mu, iface, float(rng.uniform(box.beta_lo, box.alpha_hi))

    rng = np.random.default_rng(17)
    butterfly, _ = make_butterfly()

    def amplitudes(iface):
        box = iface.support_box
        coords = [x for corner in iface.corners for x in corner]
        return rng.uniform(box.beta_lo - 0.5, box.alpha_hi + 0.5, 8).tolist() + [
            coords[int(rng.integers(len(coords)))], 0.0, -0.0,
            box.alpha_hi + 1.0, box.beta_lo - 1.0,
        ]

    for k in range(150):
        mu = butterfly if k % 5 == 0 else random_grid_field(rng)
        box = mu.support_box
        iface = MemoryInterface.virgin(box)
        for w in rng.uniform(box.beta_lo - 0.5, box.alpha_hi + 0.5, int(rng.integers(0, 8))):
            iface = apply_pulse(iface, float(w))
        for w in amplitudes(iface):
            yield mu, iface, w

    for _ in range(100):
        mu = random_grid_field(rng)
        box = mu.support_box
        alphas = np.sort(rng.uniform(0.0, box.alpha_hi, 4)).tolist()
        betas = (-np.sort(rng.uniform(0.0, -box.beta_lo, 4))).tolist()
        corners, b = [(0.0, 0.0)], 0.0
        for a, b_next in zip(alphas, betas):
            corners.append((a, b))
            b = b_next
            corners.append((a - 0.5 * box.merge_tol * int(rng.integers(0, 2)), b))
        iface = MemoryInterface.from_corners(corners, box)
        for w in amplitudes(iface):
            yield mu, iface, w


class TestRemnantExtrema:
    def test_uniform_extremes(self):
        mu, iface = uniform_scene()
        assert remnant_extrema(mu, iface, Q_UNIT) == (
            pytest.approx(1.0),
            pytest.approx(-1.0),
        )

    def test_zero_density_collapses_the_range(self):
        mu = GridWeighting(UNIT_BOX, [[0.0]])
        iface = MemoryInterface.virgin(UNIT_BOX)
        assert remnant_extrema(mu, iface, Q_UNIT) == (0.0, 0.0)

    def test_source_interface_is_not_consumed(self):
        mu, iface = uniform_scene()
        remnant_extrema(mu, iface, Q_UNIT)
        assert close_to(iface, MemoryInterface.virgin(UNIT_BOX))


class TestAdmissibility:
    def test_virgin_is_admissible(self):
        _, iface = uniform_scene()
        assert validate_initial_interface(iface, Q_UNIT)

    def test_reference_shelf_preset_is_admissible(self):
        iface = pzt_shelf_interface()
        assert validate_initial_interface(iface, QRegion(1400.0, -850.0))

    def test_corner_in_forbidden_strip_fails(self):
        box = Box(0.0, 2.0, -1.0, 0.0)
        iface = MemoryInterface.from_corners(
            [(0.0, 0.0), (1.2, 0.0), (1.2, -0.5), (2.0, -0.5)], box
        )
        assert not validate_initial_interface(iface, Q_UNIT)


class TestTolerancesScaleWithTheBox:
    """The checks of a pulse's zero crossing, of the forbidden strips and of
    the last extrema take their slack from the interface's box, so they
    decide the same at every power-of-two scale 2**k."""

    @staticmethod
    def box(k):
        s = math.ldexp(1.0, k)
        return s, Box(0.0, s, -s, 0.0)

    @pytest.mark.parametrize("k", [-40, 0, 40])
    def test_zero_crossing(self, k):
        s, box = self.box(k)
        apply_pulse(MemoryInterface.from_corners([(0.5 * INPUT_TOL * s,) * 2], box), 0.5 * s)
        with pytest.raises(AdmissibilityError):
            apply_pulse(MemoryInterface.from_corners([(2.0 * INPUT_TOL * s,) * 2], box), 0.5 * s)

    @pytest.mark.parametrize("k", [-40, 0, 40])
    def test_forbidden_strip(self, k):
        """A last maximum just past alpha2 enters strip 1 only beyond the
        slack."""
        s, box = self.box(k)
        q = QRegion(0.5 * s, -s)
        for x, admissible in ((0.5 * INPUT_TOL, True), (2.0 * INPUT_TOL, False)):
            a = (0.5 + x) * s
            iface = MemoryInterface.from_corners([(0.0, 0.0), (a, 0.0), (a, -s)], box)
            assert validate_initial_interface(iface, q) is admissible

    @pytest.mark.parametrize("k", [-40, 0, 40])
    def test_last_extrema_of_a_run_within_the_merge_tolerance(self, k):
        """A first run that rises by a quarter of the merge tolerance is
        flat: it ends at the last maximum."""
        s, box = self.box(k)
        corners = [(0.0, 0.0), (0.5 * s, 0.25 * VERTEX_MERGE_TOL * s), (0.5 * s, -s)]
        assert last_input_extrema(MemoryInterface.from_corners(corners, box)) == (0.5 * s, 0.0)


class TestMaxGain:
    def test_uniform_gain(self):
        b = SectorBounds(0.0, 2.0, 2.0, 0.0, 2.0, 2.0, 0.0, 0.0)
        assert max_gain(b) == pytest.approx(1.0)

    def test_reference_magnitudes(self):
        # a published pair of Q bounds: the gain cap is 2 / max of the two
        # and admits the gain 0.28 used alongside them
        b = SectorBounds(0.0, 6.83, 5.50, 0.0, 6.83, 5.50, 0.0, 0.0)
        assert max_gain(b) == pytest.approx(2.0 / 6.83, rel=1e-12)
        assert 0.28 < max_gain(b)

    def test_vanishing_bounds_are_degenerate(self):
        b = SectorBounds(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(DegenerateBoundsError):
            max_gain(b)

    @pytest.mark.parametrize("d", [1e-310, 5e-324, -1e-310], ids=["1e-310", "5e-324", "negative"])
    def test_a_cap_that_overflows_is_degenerate(self, d):
        """2 over a subnormal slope that overflows is no cap; nor is 2 over
        the subnormal 1.25e-308, finite but not known to full precision.
        The smallest normal slope gives a finite cap."""
        b = SectorBounds(0.0, 0.0, 0.0, 0.0, max(d, 0.0), 0.0, 0.0, min(d, 0.0))
        with pytest.raises(DegenerateBoundsError, match="overflows"):
            max_gain(b)
        for slope in (1.25e-308, math.nextafter(sys.float_info.min, 0.0)):
            with pytest.raises(DegenerateBoundsError, match="subnormal"):
                max_gain(SectorBounds(0.0, 0.0, 0.0, 0.0, slope, 0.0, 0.0, 0.0))
        normal = SectorBounds(0.0, 0.0, 0.0, 0.0, sys.float_info.min, 0.0, 0.0, 0.0)
        assert max_gain(normal) == 2.0 / sys.float_info.min < math.inf

    @staticmethod
    def one_sign_fields():
        """(field, q, sign): seeded grids >= 0 and <= 0 on Q, the butterfly
        and the uniform field of value -1."""
        rng = np.random.default_rng(83)
        for _ in range(40):
            mu, q = random_nonneg_q_scenario(rng, floor=0.05)
            yield mu, q, 1.0
            yield GridWeighting(mu.support_box, -mu.values), q, -1.0
        yield make_butterfly() + (1.0,)
        yield uniform_field(Q_UNIT, value=-1.0), Q_UNIT, -1.0

    def test_cap_is_that_of_the_sign_on_q(self):
        """On a field of one sign on Q the sign-free cap is, bit for bit,
        2 over the larger Q bound of that sign: max(gamma2_plus_q,
        gamma1_minus_q) for a density >= 0, |min(gamma2_minus_q,
        gamma1_plus_q)| for one <= 0."""
        for mu, q, sign in self.one_sign_fields():
            b = premised_bounds(mu, q, 64)
            if sign > 0.0:
                d = max(b.gamma2_plus_q, b.gamma1_minus_q)
            else:
                d = abs(min(b.gamma2_minus_q, b.gamma1_plus_q))
            assert max_gain(b).hex() == (2.0 / d).hex()


class TestController:
    def test_uniform_deadbeat(self):
        mu, iface = uniform_scene()
        cfg = ControllerConfig(gamma_d=0.5, lam=0.5, w0=0.0, q=Q_UNIT)
        trace = run_controller(mu, iface, cfg)
        assert trace.converged
        ks = [(r.k, r.w, r.gamma, r.e) for r in trace.records]
        assert ks[0] == (0, 0.0, pytest.approx(-1.0), pytest.approx(-1.5))
        assert ks[1] == (1, pytest.approx(0.75), pytest.approx(0.5), pytest.approx(0.0))
        assert len(ks) == 2

    def test_dead_zone_then_negative_step(self):
        mu, iface = uniform_scene()
        # settle at w = 0.75 first, then chase a lower target
        cfg = ControllerConfig(gamma_d=0.5, lam=0.5, w0=0.0, q=Q_UNIT)
        settled = run_controller(mu, iface, cfg)
        cfg2 = ControllerConfig(gamma_d=-0.5, lam=0.5, w0=0.75, q=Q_UNIT)
        trace = run_controller(mu, settled.final_interface, cfg2)
        recs = trace.records
        assert recs[0].e == pytest.approx(1.0)
        assert recs[1].w == pytest.approx(0.25)  # dead zone: remnant unchanged
        assert recs[1].e == pytest.approx(1.0)
        assert recs[2].w == pytest.approx(-0.25)
        assert recs[2].gamma == pytest.approx(0.125)
        assert recs[2].e == pytest.approx(0.625)
        errors = [abs(r.e) for r in recs]
        assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))
        assert trace.converged

    def test_target_already_met_stops_at_zero(self):
        mu, iface = uniform_scene()
        cfg = ControllerConfig(gamma_d=-1.0, lam=0.5, w0=0.0, q=Q_UNIT)
        trace = run_controller(mu, iface, cfg)
        assert trace.converged
        assert len(trace.records) == 1
        assert trace.records[0].e == pytest.approx(0.0)

    def test_gain_outside_admissible_interval_is_rejected(self):
        mu, iface = uniform_scene()
        cfg = ControllerConfig(gamma_d=0.5, lam=1.5, w0=0.0, q=Q_UNIT)
        with pytest.raises(ConfigurationError):
            run_controller(mu, iface, cfg)

    def test_target_outside_range_is_rejected(self):
        mu, iface = uniform_scene()
        cfg = ControllerConfig(gamma_d=2.0, lam=0.5, w0=0.0, q=Q_UNIT)
        with pytest.raises(ConfigurationError):
            run_controller(mu, iface, cfg)

    def test_negative_density_mode(self):
        """A density <= 0 on Q flips the step's sign, found from the field."""
        mu = uniform_field(Q_UNIT, value=-1.0)
        iface = MemoryInterface.virgin(UNIT_BOX)
        cfg = ControllerConfig(gamma_d=-0.5, lam=0.5, w0=0.0, q=Q_UNIT)
        trace = run_controller(mu, iface, cfg)
        assert trace.converged
        assert trace.records[-1].gamma == pytest.approx(-0.5)

    def test_persistence_after_convergence(self):
        mu, iface = uniform_scene()
        cfg = ControllerConfig(gamma_d=0.5, lam=0.5, w0=0.0, q=Q_UNIT)
        trace = run_controller(mu, iface, cfg)
        cur = trace.final_interface
        g_final = trace.records[-1].gamma
        for _ in range(5):
            g, cur = remnant(mu, cur, 0.0)
            assert abs(g - g_final) <= 1e-12

    @pytest.mark.parametrize("bounds", [None, "given"], ids=["computed", "given"])
    def test_bounds_need_the_sign_on_q(self, bounds):
        """The controller checks the sign premise whether it computes the
        bounds or is given them; the grid is positive on the lower half of
        Q and negative on the upper half."""
        mu = GridWeighting(UNIT_BOX, [[1.0], [-0.5]])
        iface = MemoryInterface.virgin(UNIT_BOX)
        cfg = ControllerConfig(gamma_d=0.2, lam=0.5, w0=0.0, q=Q_UNIT)
        given = sector_bounds(mu, Q_UNIT) if bounds else None
        with pytest.raises(ConfigurationError, match="negative on Q.*; .*positive on Q"):
            run_controller(mu, iface, cfg, given)

    def test_errors_come_in_order(self):
        """Interface, w0, sign premise, gain, target: each run below breaks
        the rules from one of them on, and is refused for that one."""
        box = Box(0.0, 2.0, -1.0, 0.0)
        bad_iface = MemoryInterface.from_corners(
            [(0.0, 0.0), (1.2, 0.0), (1.2, -0.5), (2.0, -0.5)], box
        )
        good_iface = MemoryInterface.virgin(box)
        mixed = GridWeighting(box, [[1.0, 1.0], [-0.5, 1.0]])
        positive = GridWeighting(box, [[1.0, 1.0], [1.0, 1.0]])
        broken = dict(iface=bad_iface, mu=mixed, w0=5.0, lam=50.0, gamma_d=50.0)
        fixes = [
            ("iface", good_iface, AdmissibilityError, "forbidden strips"),
            ("w0", 0.0, ConfigurationError, "w0 must lie"),
            ("mu", positive, ConfigurationError, "negative on Q"),
            ("lam", 0.5, ConfigurationError, "outside the admissible interval"),
            ("gamma_d", 0.0, ConfigurationError, "outside the reachable remnant range"),
        ]
        for key, fixed, error, message in fixes:
            run = broken
            with pytest.raises(error, match=message):
                cfg = ControllerConfig(run["gamma_d"], run["lam"], run["w0"], Q_UNIT)
                run_controller(run["mu"], run["iface"], cfg)
            broken = dict(broken, **{key: fixed})
        cfg = ControllerConfig(broken["gamma_d"], broken["lam"], broken["w0"], Q_UNIT)
        assert run_controller(broken["mu"], broken["iface"], cfg).converged

    def test_trace_csv_round_trip(self, tmp_path, capsys):
        """``control`` writes ``trace.csv`` as a header and one row per
        record of the controller's trace."""
        mu, iface = uniform_scene()
        cfg = ControllerConfig(gamma_d=0.5, lam=0.5, w0=0.0, q=Q_UNIT)
        trace = run_controller(mu, iface, cfg)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "weighting": {"preset": "uniform"},
            "controller": {"gamma_d": 0.5, "lambda": 0.5, "w0": 0.0},
        }))
        assert cli.main(["control", "--config", str(config), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
        assert lines[0] == "k,w_k,gamma_k,e_k,clamped"
        rows = ["%d,%r,%r,%r,%d" % (r.k, r.w, r.gamma, r.e, r.clamped) for r in trace.records]
        assert lines[1:] == rows


def incremental_scenes():
    """Grid fields and the butterfly with pulse trains that include a zero
    pulse, repeats and pulses past the support box; the butterfly under an
    interface whose box floor lies 5e-10 above the field's, within the box
    tolerance, so E at the tail of a curve that wiped every corner is not
    zero; then a Gaussian lobe at the origin under an interface at 8e-10,
    a zero crossing within the input tolerance that a leading zero pulse
    must leave where it is, and zero pulses between the others."""
    rng = np.random.default_rng(71)
    for _ in range(4):
        mu = random_grid_field(rng)
        box = mu.support_box
        amplitudes = [float(w) for w in rng.uniform(box.beta_lo - 0.3, box.alpha_hi + 0.3, 12)]
        yield mu, MemoryInterface.virgin(box), amplitudes + [0.0, amplitudes[3], amplitudes[3]]
    mu, _ = make_butterfly()
    yield mu, MemoryInterface.virgin(mu.support_box), [0.9, -0.7, 0.0, 0.5, -0.2, 0.5, 1.2]
    raised = Box(-1.0, 1.0, -1.0 + 5e-10, 1.0)
    yield mu, MemoryInterface.virgin(raised), [0.4, -0.5, 0.8, -1.2, 0.3, -0.2, 1.1, -0.9]
    mu, iface = off_zero_scene()
    yield mu, iface, [0.0, 0.5, 0.0, 0.0, -0.5, 0.0, 3e-10, 0.0]


def off_zero_scene():
    """A Gaussian lobe at the origin, 1e-9 wide, beside a unit lobe on Q,
    and the interface at 8e-10, inside the input tolerance of zero."""
    box = Box(-1.0, 1.0, -1.0, 1.0)
    mu = GaussianWeighting([
        GaussianComponent(1e18, 5e-10, 2.5e-10, 3e-10, 3e-10, Box(0.0, 1e-9, 0.0, 1e-9)),
        GaussianComponent(1.0, 0.5, -0.5, 0.5, 0.5, Box(0.0, 1.0, -1.0, 0.0)),
    ], box)
    return mu, MemoryInterface.from_corners([(8e-10, 8e-10)], box)


class TestIncrementalReads:
    """Reads along a pulse train give the floats of full reads."""

    def test_pulse_remnants_equal_chained_remnants(self):
        for mu, iface, amplitudes in incremental_scenes():
            expected, cur = [], iface
            for w in amplitudes:
                g, cur = remnant(mu, cur, w)
                expected.append(g)
            assert pulse_remnants(mu, iface, amplitudes) == expected

    def test_pulse_remnants_need_a_zero_crossing(self):
        mu, iface = uniform_scene()
        with pytest.raises(AdmissibilityError):
            pulse_remnants(mu, iface.push_extremum(0.5), [0.2])

    def test_dense_response_equals_full_reads(self):
        for mu, iface, amplitudes in incremental_scenes():
            _, u, y = dense_response(mu, iface, amplitudes, 1.0, 1.0 / 16)
            expected, cur = [], iface
            for v in u.tolist():
                cur = cur.push_extremum(v)
                expected.append(evaluate_output(mu, cur))
            assert y == expected
            assert all(type(x) is float for x in y)  # as the CSV writer takes them


def per_sample_reads(mu, iface, u):
    """The output after each sample of ``u``, pushed and read one by one."""
    reader, out = OutputReader(mu), []
    for v in u.tolist():
        iface = iface.push_extremum(v)
        out.append(reader.read(iface))
    return out


class TestDenseResponse:
    def test_boundary_outputs_match_per_pulse_remnants(self):
        mu, iface = uniform_scene()
        amplitudes = [0.75, -0.25, 0.4]
        expected = []
        cur = iface
        for w in amplitudes:
            g, cur = remnant(mu, cur, w)
            expected.append(g)
        t, u, y = dense_response(mu, iface, amplitudes, 1.0, 0.05)
        for k, g in enumerate(expected):
            i = int(round((k + 1) / 0.05))
            assert y[i] == pytest.approx(g, abs=1e-12)

    def test_ramps_are_read_in_batches_and_the_rest_sample_by_sample(self, monkeypatch):
        """Samples that wipe every corner are read in their ramp's batch
        with no survivor; a ramp that ends wiped builds its last state from
        its last value alone, and a sample that starts no ramp, such as one
        that falls back into the box from past it, is canonicalised whole.
        Both are built by ``from_corners``, and every output is the float
        of a push and a read per sample."""
        mu, iface = uniform_scene()
        amplitudes = [0.75, -0.5, 1.25, 0.0, 0.5, 0.5, -0.25]
        _, u = render_signal(amplitudes, 1.0, 0.1)
        expected = per_sample_reads(mu, iface, u)

        batched, built = [], []
        read_slabs = OutputReader.read_slabs
        from_corners = MemoryInterface.from_corners.__func__

        def spy_read_slabs(reader, survivors, e, end):
            batched.extend(survivors)
            return read_slabs(reader, survivors, e, end)

        def spy_from_corners(cls, corners, box):
            built.append(corners[0][0])
            return from_corners(cls, corners, box)

        monkeypatch.setattr(OutputReader, "read_slabs", spy_read_slabs)
        monkeypatch.setattr(MemoryInterface, "from_corners", classmethod(spy_from_corners))
        _, _, y = dense_response(mu, iface, amplitudes, 1.0, 0.1)
        assert [x.hex() for x in y] == [x.hex() for x in expected]
        values = u.tolist()
        fall = values[values.index(1.25) + 1]  # the fall from past the box
        assert built == [0.75, 1.25, fall]  # and the rises from the virgin state and past the box
        assert batched[:5] == [None] * 5  # the rise of the first pulse wipes every corner
        assert batched.count(None) == 8
        assert len(batched) > len(u) // 2

    @pytest.mark.parametrize("field", ["grid", "butterfly"])
    def test_ramps_that_wipe_every_corner_read_as_single_pushes(self, field, monkeypatch):
        """From the virgin state: a first rise that wipes every corner, then
        three ramps that each link to the corners of the pulses before and
        wipe them all before they end, the second rising past alpha_hi and
        the third falling below beta_lo.  Every output is the float of a
        push and a read per sample."""
        mu = random_grid_field(np.random.default_rng(3)) if field == "grid" else make_butterfly()[0]
        box = mu.support_box
        iface = MemoryInterface.virgin(box)
        a, b = box.alpha_hi, box.beta_lo
        amplitudes = [0.4 * a, 0.4 * b, 0.8 * a, 1.2 * a, 1.2 * b]
        _, u = render_signal(amplitudes, 1.0, 1.0 / 16)
        expected = per_sample_reads(mu, iface, u)

        ramps = []
        read_slabs = OutputReader.read_slabs

        def spy(reader, survivors, e, end):
            ramps.append([s is None for s in survivors])
            return read_slabs(reader, survivors, e, end)

        monkeypatch.setattr(OutputReader, "read_slabs", spy)
        _, _, y = dense_response(mu, iface, amplitudes, 1.0, 1.0 / 16)
        assert [x.hex() for x in y] == [x.hex() for x in expected]
        assert sum(1 for r in ramps if r and not r[0] and r[-1]) == 3  # pulses 3 to 5

    @pytest.mark.parametrize("field", ["grid", "butterfly"])
    def test_one_array_everett_call_per_train(self, field, monkeypatch):
        """E at the heads of every ramp comes from one array call, and
        every output is still the float of a push and a read per sample."""
        mu = random_grid_field(np.random.default_rng(5)) if field == "grid" else make_butterfly()[0]
        iface = MemoryInterface.virgin(mu.support_box)
        amplitudes = [0.9, -0.7, 0.6, -0.5, 0.0, 0.4, -0.3]
        _, u = render_signal(amplitudes, 1.0, 1.0 / 16)
        expected = per_sample_reads(mu, iface, u)

        calls = []
        everett_array = type(mu).everett_array

        def spy(mu, alphas, betas):
            calls.append(len(alphas))
            return everett_array(mu, alphas, betas)

        monkeypatch.setattr(type(mu), "everett_array", spy)
        _, _, y = dense_response(mu, iface, amplitudes, 1.0, 1.0 / 16)
        assert [x.hex() for x in y] == [x.hex() for x in expected]
        assert len(calls) == 1
        assert calls[0] > len(u)  # two points per batched head

    def test_a_zero_pulse_is_read_once(self, monkeypatch):
        """The samples of a zero pulse leave the state as it is, so each
        takes the output before it: a train of zero pulses is read once, at
        its first sample, and a zero pulse inside a train adds no read."""
        mu, iface = uniform_scene()
        amplitudes = [0.5, 0.0, -0.25]
        _, u = render_signal(amplitudes, 1.0, 1.0 / 16)
        expected = per_sample_reads(mu, iface, u)
        virgin = evaluate_output(mu, iface)
        reads = []
        below = OutputReader.below
        monkeypatch.setattr(OutputReader, "below", lambda r, i: reads.append(i) or below(r, i))
        _, u, y = dense_response(mu, iface, [0.0, 0.0, 0.0], 1.0, 1.0 / 16)
        assert len(reads) == 1
        assert y == [virgin] * len(u) == [virgin] * 49
        del reads[:]
        _, _, y = dense_response(mu, iface, amplitudes, 1.0, 1.0 / 16)
        assert [x.hex() for x in y] == [x.hex() for x in expected]
        # the first sample only: the rise from the virgin state wipes every
        # corner, and the reader keeps that ramp's end from its last slab's
        # values; the other ramps end linked and are kept without a read too
        assert len(reads) == 1

    @pytest.mark.parametrize("field", ["grid", "butterfly"])
    def test_a_linked_ramp_end_makes_no_scalar_everett_call(self, field, monkeypatch):
        """From a history whose corners every ramp links to, each ramp's
        last push links too, so E at its head slab comes from the train's
        one array call: the scalar E is called once, for the read of the
        first sample's state."""
        mu = random_grid_field(np.random.default_rng(7)) if field == "grid" else make_butterfly()[0]
        box = mu.support_box
        a, b = box.alpha_hi, box.beta_lo
        iface = MemoryInterface.from_extrema(box, [0.9 * a, 0.9 * b])
        amplitudes = [0.5 * a, 0.4 * b, 0.3 * a]
        _, u = render_signal(amplitudes, 1.0, 1.0 / 16)
        expected = per_sample_reads(mu, iface, u)

        calls = []
        everett = type(mu).everett

        def spy(mu, alphas, betas):
            calls.append(len(alphas))
            return everett(mu, alphas, betas)

        monkeypatch.setattr(type(mu), "everett", spy)
        _, _, y = dense_response(mu, iface, amplitudes, 1.0, 1.0 / 16)
        assert [x.hex() for x in y] == [x.hex() for x in expected]
        assert len(calls) == 1

    @pytest.mark.parametrize("samples_per_pulse", [1, 2, 7, 16, 50, 2.5])
    def test_simulate_writes_pulse_remnants_at_any_samples_per_pulse(
        self, samples_per_pulse, tmp_path, capsys, monkeypatch
    ):
        """``simulate`` pushes and reads the pulses with one
        ``pulse_remnants`` call, however the dense response samples them:
        ``remnants.csv`` holds its floats at every rate."""
        amplitudes = [0.75, -0.5, 0.25, 0.0, -0.125, 0.125]
        mu, iface = uniform_scene()
        rows = "".join("%d,%r,%r\n" % row for row in zip(
            range(len(amplitudes)), amplitudes, pulse_remnants(mu, iface, amplitudes)
        ))
        calls = []
        monkeypatch.setattr(cli, "pulse_remnants", lambda *a: calls.append(a) or pulse_remnants(*a))
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "weighting": {"preset": "uniform"},
            "amplitudes": amplitudes,
            "signal_samples_per_pulse": samples_per_pulse,
        }))
        assert cli.main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "remnants.csv").read_text() == "k,w_k,gamma_k\n" + rows
        assert len(calls) == 1

    def test_an_interface_off_zero_takes_its_pulses_pushed(self):
        """An initial input of 8e-10 passes as a zero crossing (within the
        input tolerance), but the train's first sample pushes it to zero,
        which a lobe at the origin feels: the sampled outputs are not the
        remnants, which come from pushing the pulses."""
        mu, iface = off_zero_scene()
        amplitudes = [0.0, 0.5, -0.5]
        _, _, y = dense_response(mu, iface, amplitudes, 1.0, 0.5)
        assert y[2] != pulse_remnants(mu, iface, amplitudes)[0]

    #: a sampled pulse of 0.5 at 4 samples, then each way a signal can leave
    #: the shape of a rendered pulse, or a field or an interface its edge:
    #: per case the field's value, the interface's corners, the amplitudes
    #: and the samples
    PULSE = [0.0, 0.25, 0.5, 0.25, 0.0]
    OFF_THE_PULSE = {
        "peak missed": (1.0, None, [0.5], [0.0, 0.25, 0.4, 0.25, 0.0]),
        "start off zero": (1.0, None, [0.5], [1e-17, 0.25, 0.5, 0.25, 0.0]),
        "end off zero": (1.0, None, [0.5], [0.0, 0.25, 0.5, 0.25, 1e-17]),
        "rise not monotone": (1.0, None, [0.5], [0.0, 0.3, 0.2, 0.5, 0.25, 0.1, 0.0]),
        "fall not monotone": (1.0, None, [0.5], [0.0, 0.25, 0.5, 0.2, 0.3, 0.1, 0.0]),
        "peak within tolerance": (1.0, None, [0.5], [0.0, 0.5 - 1e-13, 0.5, 0.25, 0.0]),
        "end within tolerance": (1.0, None, [0.5], [0.0, 0.25, 0.5, 1e-13, 0.0]),
        "zero pulse that moves": (1.0, None, [0.0, 0.5], [0.0, 1e-13, 0.0, 0.0] + PULSE),
        "past the box": (1.0, None, [1.5], [0.0, 0.75, 1.5, 0.75, 0.0]),
        "samples that do not split": (1.0, None, [0.5, 0.5], [0.0, 0.5, 0.0, 0.5, 0.0, 0.0]),
        "one sample per pulse": (1.0, None, [0.5, 0.5], [0.0, 0.0, 0.0]),
        "zero total mass": (0.0, None, [0.5], PULSE),
        "corners that share no coordinate": (
            1.0, [(0.0, 0.0), (0.0, -0.3), (0.1 + 5e-13, -0.3 - 5e-13), (0.1 + 1e-12, -1.0)], [0.5], PULSE
        ),
    }

    @pytest.mark.parametrize("case", sorted(OFF_THE_PULSE))
    def test_signals_off_the_pulse_shape_read_as_per_sample_pushes(self, case):
        """``simulate``'s two paths on signals that are not a rendered
        train: the batched reader of the dense response gives the floats of
        a push and a read per sample, whatever the samples, and the pulses
        pushed and read give the chained remnants, whatever the field or
        the interface."""
        value, corners, amplitudes, u = self.OFF_THE_PULSE[case]
        mu = uniform_field(Q_UNIT, value=value)
        iface = MemoryInterface.virgin(UNIT_BOX)
        if corners is not None:
            iface = MemoryInterface.from_corners(corners, UNIT_BOX)
        y = _respond(mu, iface, u)
        assert [x.hex() for x in y] == [x.hex() for x in per_sample_reads(mu, iface, np.array(u))]
        expected, cur = [], iface
        for w in amplitudes:
            g, cur = remnant(mu, cur, w)
            expected.append(g)
        assert [x.hex() for x in pulse_remnants(mu, iface, amplitudes)] == [x.hex() for x in expected]

    def test_rate_independence_of_boundary_outputs(self):
        mu, iface = uniform_scene()
        amplitudes = [0.6, -0.3, 0.8, 0.1]
        _, _, y_slow = dense_response(mu, iface, amplitudes, 1.0, 1.0 / 20)
        _, _, y_fast = dense_response(mu, iface, amplitudes, 0.1, 0.1 / 20)
        for k in range(len(amplitudes)):
            assert abs(y_slow[(k + 1) * 20] - y_fast[(k + 1) * 20]) <= 1e-12
