"""Staircase memory curve: canonical form, relay queries, memory updates."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from preisach_remnant import (
    Box,
    ConfigurationError,
    MemoryInterface,
)
from preisach_remnant.interface import INPUT_TOL, VERTEX_MERGE_TOL
from preisach_remnant.oracle import RelayGrid

from conftest import close_to, random_gamma_interface, upper_beta

UNIT_BOX = Box(0.0, 1.0, -1.0, 0.0)


@dataclass(frozen=True)
class PlanePoint:
    """A relay index (switch-up threshold alpha, switch-down threshold beta)."""

    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha < self.beta:
            raise ValueError(
                "relay thresholds must satisfy alpha >= beta, got (%g, %g)"
                % (self.alpha, self.beta)
            )


def relay_state(iface: MemoryInterface, p: PlanePoint) -> int:
    """Sign of the relay at p; points on the curve count as below (+1)."""
    return 1 if p.beta <= upper_beta(iface, p.alpha) else -1


def shelf_iface(peak=0.75):
    """Curve after a 0 -> peak -> 0 excursion from the virgin state."""
    return MemoryInterface.virgin(UNIT_BOX).push_extremum(peak).push_extremum(0.0)


class TestConstruction:
    def test_virgin_diagonal_corner_and_materialized_tail(self):
        iface = MemoryInterface.virgin(UNIT_BOX)
        assert iface.corners == ((0.0, 0.0), (0.0, -1.0))
        assert iface.current_value == 0.0

    def test_first_corner_must_sit_on_diagonal(self):
        with pytest.raises(ConfigurationError):
            MemoryInterface.from_corners([(0.1, 0.0)], UNIT_BOX)

    def test_rejects_non_monotone_corner_list(self):
        with pytest.raises(ConfigurationError):
            MemoryInterface.from_corners([(0.0, 0.0), (0.5, 0.0), (0.2, -0.5)], UNIT_BOX)

    def test_rejects_diagonal_jump(self):
        with pytest.raises(ConfigurationError):
            MemoryInterface.from_corners([(0.0, 0.0), (0.5, -0.5)], UNIT_BOX)

    def test_from_extrema_replays_history(self):
        iface = MemoryInterface.from_extrema(UNIT_BOX, [0.75])
        assert close_to(iface, shelf_iface())

    def test_deep_corners_are_clamped_to_the_box(self):
        iface = MemoryInterface.from_corners(
            [(0.0, 0.0), (0.75, 0.0), (0.75, -5.0), (9.0, -5.0)], UNIT_BOX
        )
        assert all(b >= -1.0 for _, b in iface.corners)

    @pytest.mark.parametrize(
        "raw, expected",
        [
            (
                [(0, 0), (0.2, 0), (0.5, 0), (0.7, 0), (0.7, -1)],
                ((0.0, 0.0), (0.7, 0.0), (0.7, -1.0)),
            ),
            (
                [(0, 0), (0.4, 0), (0.4, -0.2), (0.4, -0.6), (0.4, -0.9), (0.8, -0.9)],
                ((0.0, 0.0), (0.4, 0.0), (0.4, -0.9), (0.8, -0.9), (0.8, -1.0)),
            ),
            (
                [(0, 0), (0.5, 0), (0.5 + 5e-13, -4e-13), (0.5, -1)],
                ((0.0, 0.0), (0.5, 0.0), (0.5, -1.0)),
            ),
            (
                [(0, 0), (0.3, 0), (0.3 + 9e-13, 0), (0.6, 0), (0.6, -1)],
                ((0.0, 0.0), (0.6, 0.0), (0.6, -1.0)),
            ),
            (
                [(0, 0), (1.5, 0), (1.5, -2), (3, -2)],
                ((0.0, 0.0), (1.0, 0.0), (1.0, -1.0)),
            ),
            ([(0, 0), (0, -0.5), (0, -0.3)], ((0.0, 0.0), (0.0, -1.0))),
            ([(-2, -2)], ((-2.0, -2.0),)),
        ],
        ids=[
            "collinear_alpha_run",
            "collinear_beta_run",
            "near_duplicate",
            "near_duplicate_then_collinear",
            "past_the_box",
            "backtracking_vertical_run",
            "head_below_the_box",
        ],
    )
    def test_canonical_corners_of_raw_lists(self, raw, expected):
        assert MemoryInterface.from_corners(raw, UNIT_BOX).corners == expected


class TestTolerances:
    """Both tolerances are factors times the box's largest |coordinate|,
    so at every power-of-two scale 2**k they sit at the same place."""

    @pytest.mark.parametrize(
        "box",
        [Box(-4.0, 1.0, -2.0, 3.0), Box(-1.0, 4.0, -2.0, 3.0), Box(-1.0, 1.0, -4.0, 3.0),
         Box(-1.0, 1.0, -2.0, 4.0)],
        ids=["alpha_lo", "alpha_hi", "beta_lo", "beta_hi"],
    )
    def test_scale_is_the_largest_coordinate_magnitude(self, box):
        assert (box.merge_tol, box.input_tol) == (4.0 * VERTEX_MERGE_TOL, 4.0 * INPUT_TOL)

    @pytest.mark.parametrize("k", [-40, 0, 40])
    def test_containment_slack(self, k):
        s = math.ldexp(1.0, k)
        box = Box(0.0, s, -s, 0.0)
        for x, inside in ((0.5 * INPUT_TOL, True), (2.0 * INPUT_TOL, False)):
            assert box.contains(Box(0.0, (1.0 + x) * s, -s, 0.0)) is inside
            assert box.contains(Box(0.0, s, -(1.0 + x) * s, 0.0)) is inside

    @pytest.mark.parametrize("k", [-40, 0, 40])
    def test_diagonal_slack_of_the_first_corner(self, k):
        s = math.ldexp(1.0, k)
        box = Box(0.0, s, -s, 0.0)
        MemoryInterface.from_corners([(0.0, 0.5 * INPUT_TOL * s)], box)
        with pytest.raises(ConfigurationError):
            MemoryInterface.from_corners([(0.0, 2.0 * INPUT_TOL * s)], box)


class TestRelayState:
    def test_virgin_state_is_all_minus(self):
        iface = MemoryInterface.virgin(UNIT_BOX)
        assert relay_state(iface, PlanePoint(1.0, -1.0)) == -1

    def test_point_under_the_shelf_is_plus(self):
        assert relay_state(shelf_iface(), PlanePoint(0.3, -0.5)) == +1

    def test_point_past_the_shelf_is_minus(self):
        assert relay_state(shelf_iface(), PlanePoint(0.9, -0.5)) == -1

    def test_point_on_the_curve_counts_as_below(self):
        assert relay_state(shelf_iface(), PlanePoint(0.3, 0.0)) == +1

    def test_plane_point_rejects_lower_triangle(self):
        with pytest.raises(ValueError):
            PlanePoint(-0.5, 0.5)


class TestPushExtremum:
    def test_excursion_builds_the_shelf(self):
        iface = shelf_iface()
        expected = MemoryInterface.from_corners(
            [(0.0, 0.0), (0.75, 0.0), (0.75, -1.0)], UNIT_BOX
        )
        assert close_to(iface, expected)

    def test_idempotent_on_repeated_value(self):
        once = MemoryInterface.virgin(UNIT_BOX).push_extremum(0.5)
        twice = once.push_extremum(0.5)
        assert close_to(twice, once)

    def test_wiping_out_of_dominated_maximum(self):
        via = MemoryInterface.virgin(UNIT_BOX).push_extremum(0.3).push_extremum(0.75)
        direct = MemoryInterface.virgin(UNIT_BOX).push_extremum(0.75)
        assert close_to(via, direct)

    @pytest.mark.parametrize(
        "corners, expected",
        [
            ([(-1.5, -1.5), (0.5, -1.5)], ((0.0, 0.0), (0.0, -1.0), (0.5, -1.0))),
            ([(1.5, 1.5), (1.5, -0.5)], ((0.0, 0.0), (1.0, 0.0), (1.0, -1.0))),
        ],
        ids=["from_below_the_box", "from_above_the_box"],
    )
    def test_sweep_into_the_box_clamps_the_survivors_again(self, corners, expected):
        """A curve whose diagonal corner lies past the box keeps survivors
        clamped to it; a sweep back into the box clamps them to the box,
        so it links no new head to them and starts no ramp."""
        box = Box(-0.5, 1.0, -1.0, 0.5)
        iface = MemoryInterface.from_corners(corners, box)
        assert iface.push_extremum(0.0).corners == expected
        alphas, betas, survivors, pushed = iface.ramp_slabs([0.0], 0)
        assert (alphas, betas, survivors) == ([], [], [])
        assert pushed.corners == expected

    def test_fall_from_alpha_hi_links_to_its_survivor(self):
        """A start on the box's top edge keeps every clamp, so a fall from
        it links the new head to the survivor node it already has."""
        iface = MemoryInterface.virgin(Box(-0.5, 1.0, -1.0, 0.5)).push_extremum(1.0)
        pushed = iface.push_extremum(0.5)
        assert pushed.corners == ((0.5, 0.5), (1.0, 0.5), (1.0, -1.0))
        assert pushed.head[1][1] is iface.head[1]

    def test_a_push_onto_corners_that_merge_in_a_chain(self):
        """Corners that share their coordinates within the merge tolerance
        only: a fall to within it of (0, -0.3) merges that corner into the
        seam, and the corner after it, which lines up with the merged one
        but lies two tolerances below the seam, is lined up with the seam."""
        corners = [(0.0, 0.0), (0.0, -0.3), (0.1000000000005, -0.3000000000005), (0.100000000001, -1.0)]
        iface = MemoryInterface.from_corners(corners, UNIT_BOX)
        for v in (-0.1, -0.2, -0.3):
            iface.push_extremum(v)
        pushed = iface.push_extremum(-0.299999999999)
        assert pushed.corners == (
            (-0.299999999999, -0.299999999999), (0.1000000000005, -0.299999999999), (0.100000000001, -1.0)
        )

    def test_corners_that_line_up_in_a_chain(self):
        """The third corner merges into the second, and the fourth lines up
        with the first two on alpha within the tolerance, one step at a
        time, but 1.5 tolerances off the first: the second corner goes, and
        the fourth is lined up with the first."""
        corners = [(1e-13, 1e-13), (7e-13, -1.4e-12), (1.6e-12, -1.4e-12), (1.6e-12, -1.0)]
        assert MemoryInterface.from_corners(corners, UNIT_BOX).corners == ((1e-13, 1e-13), (1e-13, -1.0))

    def test_module_level_wrapper(self):
        """The function form of a push is the method called on the class."""
        iface = MemoryInterface.push_extremum(MemoryInterface.virgin(UNIT_BOX), 0.5)
        assert iface.current_value == 0.5

    def test_random_histories_stay_canonical(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            iface = MemoryInterface.virgin(UNIT_BOX)
            for _ in range(int(rng.integers(1, 10))):
                iface = iface.push_extremum(float(rng.uniform(-1.0, 1.0)))
            alphas = [a for a, _ in iface.corners]
            betas = [b for _, b in iface.corners]
            assert alphas == sorted(alphas)
            assert betas == sorted(betas, reverse=True)
            a0, b0 = iface.corners[0]
            assert a0 == b0
            for (a1, b1), (a2, b2) in zip(iface.corners, iface.corners[1:]):
                assert abs(a2 - a1) > 1e-12 or abs(b2 - b1) > 1e-12

    def test_random_wiping_out_property(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            base = random_gamma_interface(rng, UNIT_BOX)
            hi = float(rng.uniform(0.2, 1.0))
            lo = float(rng.uniform(0.0, hi))
            assert close_to(base.push_extremum(lo).push_extremum(hi), base.push_extremum(hi))


class TestOracleConsistency:
    def test_relay_states_match_the_brute_force_lattice(self):
        """Exact relay states agree with a 300x300 replayed lattice away
        from the curve; disagreements may only hug the staircase."""
        from preisach_remnant import uniform_field, QRegion

        rng = np.random.default_rng(21)
        mu = uniform_field(QRegion(1.0, -1.0))
        n = 300
        cell = 1.0 / n
        for _ in range(5):
            history = [float(rng.uniform(-1.0, 1.0)) for _ in range(6)] + [0.0]
            iface = MemoryInterface.virgin(UNIT_BOX)
            grid = RelayGrid(mu, n)
            grid.initialize(iface)
            for v in history:
                iface = iface.push_extremum(v)
                grid.step(v)
            agree = 0
            total = 0
            for i in rng.integers(0, n, size=400):
                for j in rng.integers(0, n, size=2):
                    a = float(grid.alphas[i])
                    b = float(grid.betas[j])
                    if a < b:
                        continue
                    total += 1
                    exact = relay_state(iface, PlanePoint(a, b))
                    if exact == int(grid.states[i, j]):
                        agree += 1
                    else:
                        # mismatch must sit within one cell of the curve
                        assert abs(b - upper_beta(iface, a)) <= cell
            assert agree / total >= 0.99
