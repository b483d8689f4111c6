"""Density fields, staircase integration and sector-bound constants."""

import collections
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from preisach_remnant import weighting
from preisach_remnant.control import _sign_on_q
from preisach_remnant import (
    Box,
    ConfigurationError,
    EmptyIntersectionError,
    GaussianComponent,
    GaussianWeighting,
    GridWeighting,
    MemoryInterface,
    OutputReader,
    QRegion,
    SectorBounds,
    evaluate_output,
    make_butterfly,
    premised_bounds,
    remnant,
    sector_bounds,
    uniform_field,
)

from conftest import (
    cell_sum,
    point_density,
    random_gamma_interface,
    random_grid_field,
    random_quadrant_scenario,
    write_grid_csv,
)

UNIT_BOX = Box(0.0, 1.0, -1.0, 0.0)
Q_UNIT = QRegion(1.0, -1.0)


def excursion(box, *values):
    iface = MemoryInterface.virgin(box)
    for v in values:
        iface = iface.push_extremum(v)
    return iface


class TestEval:
    def test_uniform_cell_lookup(self):
        mu = uniform_field(Q_UNIT)
        assert mu.eval(0.5, -0.5) == 1.0

    def test_zero_outside_support(self):
        mu = uniform_field(Q_UNIT)
        assert mu.eval(2.0, -0.5) == 0.0

    def test_gaussian_peak_value(self):
        g = GaussianWeighting(
            [GaussianComponent(1.0, 0.4, -0.4, 0.2, 0.2, UNIT_BOX)]
        )
        assert g.eval(0.4, -0.4) == pytest.approx(1.0)

    def test_two_axes_give_the_scalar_value_at_every_pair(self):
        """eval(alphas, betas) holds at [r, c] the float of the scalar
        eval(alphas[r], betas[c]), and of a lookup without numpy, for grids
        and the butterfly, at signed zeros, cell edges, points outside the
        box, NaN and infinities."""
        rng = np.random.default_rng(81)
        fields = [random_grid_field(rng) for _ in range(6)]
        fields += [uniform_field(Q_UNIT), make_butterfly()[0]]
        for mu in fields:
            box = mu.support_box
            if isinstance(mu, GridWeighting):
                edges = mu.alpha_edges.tolist(), mu.beta_edges.tolist()
            else:  # every component box edge
                boxes = [c.box for c in mu.components]
                edges = (
                    [x for b in boxes for x in (b.alpha_lo, b.alpha_hi)],
                    [x for b in boxes for x in (b.beta_lo, b.beta_hi)],
                )
            axes = []
            for lo, hi, on_edges in ((box.alpha_lo, box.alpha_hi, edges[0]),
                                     (box.beta_lo, box.beta_hi, edges[1])):
                axis = [0.0, -0.0, math.nan, math.inf, -math.inf] + on_edges
                axis += rng.uniform(lo - 0.3, hi + 0.3, 12).tolist()  # some outside the box
                rng.shuffle(axis)
                axes.append(np.array(axis))
            alphas, betas = axes
            lattice = mu.eval(alphas, betas)
            assert lattice.shape == (len(alphas), len(betas))
            got = [[x.hex() for x in row] for row in lattice.tolist()]
            assert got == [[mu.eval(float(a), float(b)).hex() for b in betas] for a in alphas]
            assert got == [[point_density(mu, a, b).hex() for b in betas] for a in alphas]
        assert all(type(mu.eval(0.5, -0.5)) is float for mu in fields)

    def test_grid_rejects_non_finite_values(self):
        with pytest.raises(ConfigurationError):
            GridWeighting(UNIT_BOX, [[1.0, math.inf]])

    @pytest.mark.parametrize(
        "box, values",
        [
            (UNIT_BOX, [[1e308, 1e308], [1e308, 1e308]]),  # total and absolute overflow
            (Box(0.0, 2.0, -2.0, 0.0), [[1e308, -1e308], [-1e308, 1e308]]),  # total 0
        ],
        ids=["total", "absolute"],
    )
    def test_grid_rejects_a_mass_that_overflows(self, box, values):
        # every cell is finite, but a sum of them is not
        with pytest.raises(ConfigurationError, match="grid weighting mass is not finite"):
            GridWeighting(box, values)

    @pytest.mark.parametrize("scale", [1e160, 1e308])
    def test_gaussian_rejects_a_mass_that_overflows(self, scale):
        with pytest.raises(ConfigurationError, match="Gaussian weighting mass is not finite"):
            make_butterfly(scale)

    def test_huge_finite_masses_are_kept(self):
        mu, _ = make_butterfly(1e150)
        assert math.isfinite(mu.total_mass) and math.isfinite(mu.abs_mass())
        grid = GridWeighting(UNIT_BOX, [[1e307, 1e307], [1e307, 1e307]])
        assert grid.total_mass == pytest.approx(1e307) and grid.abs_mass() == pytest.approx(1e307)


class TestStaircaseIntegration:
    def test_virgin_mass_is_all_above(self):
        mu = uniform_field(Q_UNIT)
        iface = MemoryInterface.virgin(UNIT_BOX)
        below = OutputReader(mu).below(iface)
        assert mu.total_mass - below == pytest.approx(1.0)
        assert below == pytest.approx(0.0)

    def test_half_excursion_splits_the_mass(self):
        mu = uniform_field(Q_UNIT)
        iface = excursion(UNIT_BOX, 0.5, 0.0)
        assert OutputReader(mu).below(iface) == pytest.approx(0.5)

    def test_box_mismatch_is_rejected(self):
        mu = uniform_field(QRegion(2.0, -1.0))
        iface = MemoryInterface.virgin(UNIT_BOX)
        with pytest.raises(ConfigurationError):
            OutputReader(mu).below(iface)

    def test_output_examples(self):
        mu = uniform_field(Q_UNIT)
        assert evaluate_output(mu, MemoryInterface.virgin(UNIT_BOX)) == pytest.approx(-1.0)
        assert evaluate_output(mu, excursion(UNIT_BOX, 1.0, 0.0)) == pytest.approx(1.0)
        assert evaluate_output(mu, excursion(UNIT_BOX, 0.5, 0.0)) == pytest.approx(0.0)

    def test_output_bounded_by_absolute_mass(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            mu = random_grid_field(rng)
            iface = random_gamma_interface(rng, mu.support_box)
            assert abs(evaluate_output(mu, iface)) <= mu.abs_mass() + 1e-12

    def test_grid_integration_matches_direct_cell_sum(self):
        """Staircases snapped to cell edges integrate exactly."""
        rng = np.random.default_rng(32)
        for _ in range(25):
            mu = random_grid_field(rng)
            i = int(rng.integers(0, mu.n_alpha))
            a_edge = float(mu.alpha_edges[i + 1])
            if a_edge <= 0:
                continue
            iface = excursion(mu.support_box, a_edge, 0.0)
            expected = cell_sum(mu, mu.support_box.alpha_lo, a_edge,
                                mu.support_box.beta_lo, 0.0)
            got = OutputReader(mu).below(iface)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(33)
        values = random_grid_field(rng).values
        values.flat[:4] = [-0.0, 5e-324, -1.7976931348623157e308, 1.0 / 3.0]
        mu = GridWeighting(Box(-0.5, 1.0, -1.0, 0.5), values)
        path = tmp_path / "grid.csv"
        write_grid_csv(mu, path)
        again = GridWeighting.load_csv(path)
        assert again.support_box == mu.support_box
        assert again.values.tobytes() == mu.values.tobytes()


def nested_history(box, pushes):
    """Interface after ``pushes`` alternating pushes of shrinking size:
    each reversal nests inside the last, so the staircase deepens."""
    iface = MemoryInterface.virgin(box)
    for k in range(pushes):
        iface = iface.push_extremum((-1.0) ** k * 0.95 * 0.96 ** k)
    return iface


class TestOutputReader:
    @pytest.mark.parametrize("pushes", [3, 79])
    def test_a_step_evaluates_e_at_two_points_at_any_depth(self, pushes):
        """After a full read, a push that continues the last sweep and one
        that turns it round each cost at most 2 points of E, on a curve of
        4 corners as on one of 80."""
        rng = np.random.default_rng(5)
        mu = GridWeighting(Box(-1.0, 1.0, -1.0, 1.0), rng.uniform(0.0, 1.0, (20, 20)))
        iface = nested_history(mu.support_box, pushes)
        assert len(iface.corners) == pushes + 1
        points = []
        everett = mu.everett
        mu.everett = lambda alphas, betas: points.append(len(alphas)) or everett(alphas, betas)
        reader = OutputReader(mu)
        reader.read(iface)
        v = iface.current_value
        # on, on, back, on
        for step in (1.02 * v, 1.04 * v, 1.0 * v, 0.98 * v):
            iface = iface.push_extremum(step)
            del points[:]
            got = reader.read(iface)
            assert sum(points) <= 2
            assert got == evaluate_output(mu, iface)
        assert len(iface.corners) == pushes + 2

    @pytest.mark.parametrize("field", ["grid", "butterfly"])
    def test_a_repeated_read_makes_no_e_call(self, field):
        """A read of the curve read last, or of a push that is a no-op,
        adds no node and so evaluates no E; its output is the same float."""
        if field == "grid":
            values = np.random.default_rng(6).uniform(0.0, 1.0, (20, 20))
            mu = GridWeighting(Box(-1.0, 1.0, -1.0, 1.0), values)
        else:
            mu = make_butterfly()[0]
        iface = nested_history(mu.support_box, 7)
        calls = []
        everett = mu.everett
        mu.everett = lambda alphas, betas: calls.append(len(alphas)) or everett(alphas, betas)
        reader = OutputReader(mu)
        first = reader.read(iface)
        assert calls
        del calls[:]
        for again in (iface, iface.push_extremum(iface.current_value)):
            assert reader.read(again).hex() == first.hex()
        assert calls == []


def fsum_of_every_term(mu, iface):
    """Mass below the curve as ``math.fsum`` of every term of Everett's
    identity, those that cancel and the tail's E(a_n, b_n) included."""
    corners = iface.corners
    terms = []
    for (a, b), (_, b_next) in zip(corners, corners[1:]):
        e = mu.everett([a, a], [b, b_next])
        terms += (e[0], -e[1])
    terms += mu.everett(*zip(corners[-1]))
    return math.fsum(terms)


def random_pushes(rng, mu, iface, count):
    """``iface`` after ``count`` pushes to values spread over the support
    box and a little past it."""
    box = mu.support_box
    for v in rng.uniform(1.2 * box.beta_lo, 1.2 * box.alpha_hi, count):
        iface = iface.push_extremum(float(v))
    return iface


class TestTailTerm:
    """A tail at or below the field's beta_lo adds E(a_n, b_n) = +0.0,
    which the reader leaves out; every read is still ``math.fsum`` of all
    the terms, bit for bit."""

    @pytest.mark.parametrize("field", ["grid", "butterfly"])
    def test_reads_are_the_fsum_of_every_term(self, field):
        rng = np.random.default_rng(47)
        for _ in range(40):
            mu = random_grid_field(rng) if field == "grid" else make_butterfly()[0]
            reader = OutputReader(mu)
            iface = MemoryInterface.virgin(mu.support_box)
            for _ in range(6):
                iface = random_pushes(rng, mu, iface, int(rng.integers(1, 5)))
                assert iface.corners[-1][1] <= mu.support_box.beta_lo
                assert reader.below(iface).hex() == fsum_of_every_term(mu, iface).hex()
                assert OutputReader(mu).below(iface).hex() == fsum_of_every_term(mu, iface).hex()

    @pytest.mark.parametrize("field", ["grid", "butterfly"])
    def test_no_e_at_a_tail_on_the_floor(self, field):
        """The virgin curve (0, 0), (0, beta_lo) needs its two slab points
        only."""
        mu = random_grid_field(np.random.default_rng(48)) if field == "grid" else make_butterfly()[0]
        points = []
        everett = mu.everett
        mu.everett = lambda alphas, betas: points.append(len(alphas)) or everett(alphas, betas)
        OutputReader(mu).below(MemoryInterface.virgin(mu.support_box))
        assert points == [2]

    def test_a_box_floor_inside_the_slack_keeps_the_tail_term(self):
        """An interface box whose beta_lo lies above the field's by less
        than ``Box.contains``' slack leaves the tail on a sliver of mass."""
        mu = GridWeighting(Box(-1.0, 1.0, -1.0, 1.0), np.full((4, 4), 1e9))
        box = Box(-1.0, 1.0, -1.0 + 0.5e-9, 1.0)
        assert box.contains(mu.support_box)
        rng = np.random.default_rng(49)
        reader = OutputReader(mu)
        iface = MemoryInterface.virgin(box)
        slivers = 0
        for _ in range(20):
            iface = random_pushes(rng, mu, iface, 1)
            a, b = iface.corners[-1]
            if b > mu.support_box.beta_lo:
                slivers += 1
                assert mu.everett([a], [b])[0] > 0.0
            assert reader.below(iface).hex() == fsum_of_every_term(mu, iface).hex()
        assert 0 < slivers < 20


def slab_field(field):
    """A seeded positive 20 x 20 grid on [-1, 1]^2, or the butterfly."""
    if field == "grid":
        return GridWeighting(Box(-1.0, 1.0, -1.0, 1.0), np.random.default_rng(50).uniform(0.0, 1.0, (20, 20)))
    return make_butterfly()[0]


class TestReadSlabs:
    @pytest.mark.parametrize("field", ["grid", "butterfly"])
    def test_a_ramp_from_a_list_or_a_shared_iterator(self, field):
        """The heads of one ramp, some on one survivor in a run, read from
        a list of their slab points or from an iterator that goes on past
        them: the same floats as a push and a read per sample, and the
        iterator left at the points after the ramp's."""
        mu = slab_field(field)
        iface = nested_history(mu.support_box, 6)  # its last push falls to -0.77
        # a rise past 0.81 and 0.88, the last two maxima, to 1.03, which
        # wipes every corner
        values = [iface.current_value + 0.2 * k for k in range(10)]
        alphas, betas, survivors, end = iface.ramp_slabs(values, 1)
        assert len(survivors) == 9 and len({id(s) for s in survivors}) == 3
        assert survivors[-1] is None
        reader = OutputReader(mu)
        reader.read(iface)
        e = mu.everett_array(alphas, betas).tolist()
        expected = [OutputReader(mu).read(iface.push_extremum(v)) for v in values[1:]]
        assert [x.hex() for x in reader.read_slabs(survivors, e, end)] == [x.hex() for x in expected]
        reader.read(iface)
        rest = iter(e + ["next"])
        got = reader.read_slabs(survivors, rest, end)
        assert [x.hex() for x in got] == [x.hex() for x in expected]
        assert list(rest) == ["next"]

    @pytest.mark.parametrize("field", ["grid", "butterfly"])
    @pytest.mark.parametrize(
        "ramps",
        [
            [[-0.5, -0.2, 0.1, 0.4, 0.6], [0.3, 0.0, -0.3, -0.6], [-0.2, 0.2]],
            [[0.0, 0.5, 0.9, 0.98], [0.5, 0.0, -0.5]],
        ],
        ids=["rise_fall_rise_linked", "wipe_then_linked"],
    )
    def test_the_reader_keeps_the_ramp_end(self, field, ramps):
        """Ramps from -0.77 read back to back through ``read_slabs`` alone:
        a rise, a fall and a rise, each ending linked to the seam of the
        ramp before, or a rise that wipes every corner at 0.98 and a fall
        linked to its tail.  Every output, and a read of the last state, is
        the float of a fresh read per sample."""
        mu = slab_field(field)
        iface = nested_history(mu.support_box, 6)
        reader = OutputReader(mu)
        reader.read(iface)
        got, expected = [], []
        for values in ramps:
            alphas, betas, survivors, end = iface.ramp_slabs([iface.current_value] + values, 1)
            assert len(survivors) == len(values)
            got += reader.read_slabs(survivors, mu.everett_array(alphas, betas).tolist(), end)
            for v in values:
                iface = iface.push_extremum(v)
                expected.append(OutputReader(mu).read(iface))
            assert iface.head == end.head
            iface = end
        assert [x.hex() for x in got] == [x.hex() for x in expected]
        assert reader.read(iface).hex() == expected[-1].hex()

    def test_an_end_not_linked_to_the_last_survivor_is_refused(self):
        """The end of a linked ramp with its corners built anew, so its seam
        links to no survivor of the ramp, is refused, and the reader keeps
        the curve it read last."""
        mu = random_grid_field(np.random.default_rng(52))
        iface = nested_history(mu.support_box, 4)
        values = [iface.current_value, 0.5 * iface.current_value]
        alphas, betas, survivors, end = iface.ramp_slabs(values, 1)
        assert survivors[-1] is not None
        reader = OutputReader(mu)
        reader.read(iface)
        stranger = MemoryInterface.from_corners(end.corners, end.support_box)
        with pytest.raises(ValueError):
            reader.read_slabs(survivors, mu.everett_array(alphas, betas).tolist(), stranger)
        assert reader.read_slabs(survivors, mu.everett_array(alphas, betas).tolist(), end) == [
            OutputReader(mu).read(end)
        ]

    @pytest.mark.parametrize("pushes", [4, 8])
    def test_a_head_off_the_last_curve_read_is_refused(self, pushes):
        """A survivor of another chain, at a depth the reader holds or
        deeper than any it holds, is refused."""
        mu = random_grid_field(np.random.default_rng(51))
        iface = nested_history(mu.support_box, 4)
        reader = OutputReader(mu)
        reader.read(iface)
        stranger = nested_history(mu.support_box, pushes).head[1]
        with pytest.raises(ValueError):
            reader.read_slabs([iface.head[1], stranger], [0.0] * 4, iface)


class TestSectorBounds:
    def test_uniform_closed_forms(self):
        mu = uniform_field(Q_UNIT)
        b = sector_bounds(mu, Q_UNIT)
        assert b.gamma2_plus_q == pytest.approx(2.0)
        assert b.gamma1_minus_q == pytest.approx(2.0)

    def test_nonnegative_density_has_zero_lower_plus_bound(self):
        mu = uniform_field(Q_UNIT)
        b = sector_bounds(mu, Q_UNIT)
        assert b.gamma1_plus == 0.0

    def test_sign_structure_on_random_fields(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            mu = random_grid_field(rng)
            b = sector_bounds(mu, Q_UNIT)
            assert b.gamma1_plus <= 0.0 <= b.gamma2_plus
            assert b.gamma2_minus <= 0.0 <= b.gamma1_minus
            assert b.gamma1_plus <= b.gamma2_plus
            assert b.gamma2_minus <= b.gamma1_minus

    def test_support_missing_the_quadrant_is_rejected(self):
        mu = GridWeighting(Box(-2.0, -1.0, -1.0, 0.0), [[1.0]])
        with pytest.raises(EmptyIntersectionError):
            sector_bounds(mu, Q_UNIT)

    def test_bounds_cage_actual_remnant_changes(self):
        """Random consecutive pulse pairs never break the sector inequalities."""
        rng = np.random.default_rng(35)
        for _ in range(100):
            mu = random_grid_field(rng)
            b = sector_bounds(mu, Q_UNIT)
            iface = random_gamma_interface(rng, mu.support_box)
            w_a = float(rng.uniform(-1.2, 1.2))
            w_b = float(rng.uniform(-1.2, 1.2))
            g_a, mid = remnant(mu, iface, w_a)
            g_b, _ = remnant(mu, mid, w_b)
            dg, dw = g_b - g_a, w_b - w_a
            if dw > 0:
                assert b.gamma1_plus * dw - 1e-9 <= dg <= b.gamma2_plus * dw + 1e-9
            elif dw < 0:
                assert b.gamma1_minus * dw - 1e-9 <= dg <= b.gamma2_minus * dw + 1e-9


class TestButterfly:
    def test_positive_at_q_center(self):
        mu, q = make_butterfly()
        assert mu.eval(q.alpha2 / 2.0, q.beta2 / 2.0) > 0.0

    def test_nonnegative_on_q_lattice(self):
        mu, q = make_butterfly()
        alphas = np.linspace(0.0, q.alpha2, 100)
        betas = np.linspace(q.beta2, 0.0, 100)
        assert min(mu.eval(float(a), float(b)) for a in alphas for b in betas) >= 0.0

    def test_q_bounds_are_positive(self):
        mu, q = make_butterfly()
        b = sector_bounds(mu, q, 512)
        assert b.gamma2_plus_q > 0.0
        assert b.gamma1_minus_q > 0.0

    def test_has_negative_mass_outside_q(self):
        mu, _ = make_butterfly()
        assert mu.eval(-0.3, -0.87) < 0.0
        assert mu.eval(0.8, 0.25) < 0.0

    def test_scaling_moves_the_support(self):
        mu, q = make_butterfly()
        mu2, q2 = make_butterfly(scale=2.0)
        assert q2.alpha2 == pytest.approx(2.0 * q.alpha2)
        assert mu2.support_box.alpha_hi == pytest.approx(2.0 * mu.support_box.alpha_hi)


# -- brute-force per-point reference of the sector-bound scan ----------------


def _gauss_segment(center, sigma, lo, hi):
    if hi <= lo:
        return 0.0
    z0 = (lo - center) / (sigma * math.sqrt(2.0))
    z1 = (hi - center) / (sigma * math.sqrt(2.0))
    return sigma * math.sqrt(math.pi / 2.0) * (math.erf(z1) - math.erf(z0))


def _point_line_integral(mu, axis, line, lo, hi):
    """Integral over [lo, hi] along ``axis`` of mu at the other coordinate
    ``line``, one point at a time."""
    if isinstance(mu, GridWeighting):
        line_edges, edges = (
            (mu.alpha_edges, mu.beta_edges) if axis == "beta" else (mu.beta_edges, mu.alpha_edges)
        )
        if not (line_edges[0] <= line <= line_edges[-1]):
            return 0.0
        k = int(np.searchsorted(line_edges, line, side="right")) - 1
        k = min(max(k, 0), len(line_edges) - 2)
        cells = mu.values[:, k] if axis == "beta" else mu.values[k, :]
        overlap = np.clip(np.minimum(edges[1:], hi) - np.maximum(edges[:-1], lo), 0.0, None)
        return float(overlap @ cells)
    total = 0.0
    for c in mu.components:
        b = c.box
        if axis == "beta":
            inside = b.alpha_lo <= line <= b.alpha_hi
            z = (line - c.center_alpha) / c.sigma_alpha
            seg = _gauss_segment(
                c.center_beta, c.sigma_beta, max(lo, b.beta_lo), min(hi, b.beta_hi)
            )
        else:
            inside = b.beta_lo <= line <= b.beta_hi
            z = (line - c.center_beta) / c.sigma_beta
            seg = _gauss_segment(
                c.center_alpha, c.sigma_alpha, max(lo, b.alpha_lo), min(hi, b.alpha_hi)
            )
        if inside:
            total += c.amplitude * math.exp(-0.5 * z * z) * seg
    return total


def _point_extrema(mu, axis, line_lo, line_hi, cut_end, resolution):
    cut_lo, cut_hi = min(0.0, cut_end), max(0.0, cut_end)
    if isinstance(mu, GridWeighting):
        line_edges, cut_edges = (
            (mu.alpha_edges, mu.beta_edges) if axis == "beta" else (mu.beta_edges, mu.alpha_edges)
        )
        lines = 0.5 * (line_edges[:-1] + line_edges[1:])
        lines = lines[(line_edges[1:] > line_lo) & (line_edges[:-1] < line_hi)]
        cuts = list(np.unique(np.clip(cut_edges, cut_lo, cut_hi)))
    else:
        lines = np.linspace(line_lo, line_hi, resolution)
        cuts = list(np.clip(np.linspace(cut_lo, cut_hi, resolution), cut_lo, cut_hi))
    cuts += [x for x in (cut_lo, cut_hi) if x not in cuts]
    if len(lines) == 0:
        return 0.0, 0.0
    vals = [
        _point_line_integral(mu, axis, float(line), min(0.0, float(c)), max(0.0, float(c)))
        for line in lines
        for c in cuts
    ]
    return min(vals), max(vals)


def point_sector_bounds(mu, q, resolution=512):
    box = mu.support_box
    a_lo, a_hi, b_lo = max(0.0, box.alpha_lo), box.alpha_hi, min(0.0, box.beta_lo)
    qa_hi, qb_lo = min(q.alpha2, a_hi), max(q.beta2, b_lo)
    f_lo, f_hi = _point_extrema(mu, "beta", a_lo, a_hi, b_lo, resolution)
    g_lo, g_hi = _point_extrema(mu, "alpha", b_lo, min(0.0, box.beta_hi), a_hi, resolution)
    fq_lo, fq_hi = _point_extrema(mu, "beta", a_lo, qa_hi, qb_lo, resolution)
    gq_lo, gq_hi = _point_extrema(mu, "alpha", qb_lo, 0.0, qa_hi, resolution)
    return SectorBounds(
        2.0 * f_lo, 2.0 * f_hi, 2.0 * g_hi, 2.0 * g_lo,
        2.0 * fq_hi, 2.0 * gq_hi, 2.0 * fq_lo, 2.0 * gq_lo,
    ).to_dict()


def random_gaussian_field(rng):
    """Signed lobes with overlapping boxes scattered over all four quadrants."""
    comps = []
    for _ in range(4):
        a_lo, b_lo = float(rng.uniform(-0.8, 0.4)), float(rng.uniform(-1.2, 0.0))
        a_w, b_w = float(rng.uniform(0.4, 1.0)), float(rng.uniform(0.4, 1.0))
        box = Box(a_lo, a_lo + a_w, b_lo, b_lo + b_w)
        comps.append(GaussianComponent(
            float(rng.normal()),
            float(rng.uniform(box.alpha_lo, box.alpha_hi)),
            float(rng.uniform(box.beta_lo, box.beta_hi)),
            float(rng.uniform(0.1, 0.6)),
            float(rng.uniform(0.1, 0.6)),
            box,
        ))
    return GaussianWeighting(comps)


def random_single_lobe_field(rng):
    """One lobe of either sign, amplitude 1e-300 to 1e2, whose box may
    straddle alpha = 0 or beta = 0; a third of the lobes have their centre
    30 to 38 sigmas below the box along one axis, so the profile underflows
    to +-0.0 on the far lines there."""
    a_hi, b_lo = float(rng.uniform(0.05, 1.2)), float(rng.uniform(-1.2, -0.05))
    box = Box(a_hi - float(rng.uniform(0.1, 1.2)), a_hi, b_lo, b_lo + float(rng.uniform(0.1, 1.2)))
    centre = [float(rng.uniform(box.alpha_lo, box.alpha_hi)),
              float(rng.uniform(box.beta_lo, box.beta_hi))]
    sigma = [float(rng.uniform(0.05, 0.8)), float(rng.uniform(0.05, 0.8))]
    if rng.random() < 1 / 3:
        k = int(rng.integers(2))
        sigma[k] = 0.02
        centre[k] = (box.alpha_lo, box.beta_lo)[k] - float(rng.uniform(30.0, 38.0)) * 0.02
    amplitude = float(rng.choice([-1.0, 1.0])) * 10.0 ** float(rng.uniform(-300.0, 2.0))
    return GaussianWeighting([GaussianComponent(amplitude, *centre, *sigma, box)])


def two_lobe_field():
    """Two overlapping lobes of opposite sign on [0, 1] x [-1, 0], both
    meeting every scan, so the scan sums two components."""
    return GaussianWeighting([
        GaussianComponent(1.5, 0.1, -0.5, 0.3, 0.4, Box(0.0, 0.6, -1.0, 0.0)),
        GaussianComponent(-0.7, 0.9, -0.2, 0.2, 0.3, Box(0.4, 1.0, -1.0, 0.0)),
    ])


@pytest.fixture
def outer_calls(monkeypatch):
    """The shapes of the profile rows of every ``np.multiply.outer`` call
    that ``weighting`` makes, in a list."""
    calls = []

    class Multiply:
        @staticmethod
        def outer(rows, *args, **kwargs):
            calls.append(rows.shape)
            return np.multiply.outer(rows, *args, **kwargs)

    class Numpy:
        multiply = Multiply

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(weighting, "np", Numpy())
    return calls


class TestScanMatchesPointReference:
    """The array scan gives the bounds of a point-by-point line-integral scan:
    bit-equal for Gaussian sums, within 1e-12 relative for grids."""

    def test_butterfly_is_bit_equal(self):
        mu, q = make_butterfly()
        assert sector_bounds(mu, q, 64).to_dict() == point_sector_bounds(mu, q, 64)

    def test_overlapping_gaussians_with_clipping_q_are_bit_equal(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            mu = random_gaussian_field(rng)
            box = mu.support_box
            q = QRegion(0.6 * box.alpha_hi, 0.6 * box.beta_lo)  # cuts the scan short
            assert sector_bounds(mu, q, 40).to_dict() == point_sector_bounds(mu, q, 40)

    @staticmethod
    def assert_close(mu, q):
        got = sector_bounds(mu, q).to_dict()
        for key, want in point_sector_bounds(mu, q).items():
            assert got[key] == pytest.approx(want, rel=1e-12, abs=0.0), key

    def test_random_grids_with_off_edge_q(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            mu = random_grid_field(rng)
            q = QRegion(float(rng.uniform(0.1, 1.4)), float(rng.uniform(-1.4, -0.1)))
            assert q.alpha2 not in mu.alpha_edges and q.beta2 not in mu.beta_edges
            self.assert_close(mu, q)

    def test_single_cell_uniform_field(self):
        self.assert_close(uniform_field(Q_UNIT, 2.5), Q_UNIT)

    def test_all_zero_grid(self):
        mu = GridWeighting(Box(-0.3, 1.0, -1.0, 0.4), np.zeros((4, 3)))
        self.assert_close(mu, QRegion(0.7, -0.45))
        assert set(sector_bounds(mu, Q_UNIT).to_dict().values()) == {0.0}


# -- frozen reference: the blocked grid scan the lattice scan replaced --------
#
# GridWeighting.scan_blocks, _integrals_below_zero, _cells and the grid
# branch of _cumulative_extrema as they were before the scan became one
# cumulative sum per field, copied unchanged but for their names and the
# inlined block size.


def _frozen_cells(edges, x):
    """(cell index, inside the edges) of every coordinate in ``x``."""
    idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, len(edges) - 2)
    return idx, (edges[0] <= x) & (x <= edges[-1])


def _frozen_integrals_below_zero(edges, rows, cuts):
    """Integral over [c, 0] of each piecewise-constant row (cells between
    ``edges``) for every cut c <= 0: the partial cell at the cut plus an
    exact sum of the cell terms above it, accumulated downward from zero."""
    terms = rows * np.clip(np.minimum(edges[1:], 0.0) - edges[:-1], 0.0, None)
    above = np.zeros_like(terms)
    above[:, :-1] = np.cumsum(terms[:, :0:-1], axis=1)[:, ::-1]
    m = np.clip(np.searchsorted(edges, cuts, side="right") - 1, 0, len(edges) - 2)
    part = np.clip(np.minimum(edges[m + 1], 0.0) - np.maximum(edges[m], cuts), 0.0, None)
    return rows[:, m] * part + above[:, m]


def _frozen_scan_blocks(self, axis, lines, cuts):
    """Row blocks of M[i, j], the integral of mu along ``axis`` at the
    other coordinate lines[i], between 0 and cuts[j]."""
    if axis == "beta":
        line_edges, edges, rows = self.alpha_edges, self.beta_edges, self.values.T
    else:
        line_edges, edges, rows = self.beta_edges, self.alpha_edges, self.values
    lines, cuts = np.asarray(lines, float), np.asarray(cuts, float)
    low = cuts <= 0.0
    for start in range(0, len(lines), 32):
        idx, inside = _frozen_cells(line_edges, lines[start:start + 32])
        vals = np.where(inside[:, None], rows[idx], 0.0)
        block = np.empty((len(vals), len(cuts)))
        block[:, low] = _frozen_integrals_below_zero(edges, vals, cuts[low])
        # cuts above zero: the same sums on the mirrored axis
        block[:, ~low] = _frozen_integrals_below_zero(-edges[::-1], vals[:, ::-1], -cuts[~low])
        yield block


def _frozen_cumulative_extrema(mu, axis, line_lo, line_hi, cut_end):
    cut_lo, cut_hi = min(0.0, cut_end), max(0.0, cut_end)
    # cell centers across the lines and cell edges as cuts hit every
    # extremum exactly
    line_edges, cut_edges = (
        (mu.alpha_edges, mu.beta_edges) if axis == "beta" else (mu.beta_edges, mu.alpha_edges)
    )
    lines = 0.5 * (line_edges[:-1] + line_edges[1:])
    lines = lines[(line_edges[1:] > line_lo) & (line_edges[:-1] < line_hi)]
    cuts = cut_edges[(cut_edges > cut_lo) & (cut_edges < cut_hi)]
    cuts = np.append(cuts, (cut_lo, cut_hi))
    if len(lines) == 0:
        return 0.0, 0.0
    lo, hi = math.inf, -math.inf
    for block in _frozen_scan_blocks(mu, axis, lines, cuts):
        lo, hi = min(lo, float(block.min())), max(hi, float(block.max()))
    return lo, hi


def frozen_grid_sector_bounds(mu, q):
    """``sector_bounds`` of a grid with the frozen blocked scan."""
    box = mu.support_box
    a_lo, a_hi, b_lo = max(0.0, box.alpha_lo), box.alpha_hi, min(0.0, box.beta_lo)
    qa_hi, qb_lo = min(q.alpha2, a_hi), max(q.beta2, b_lo)
    f_lo, f_hi = _frozen_cumulative_extrema(mu, "beta", a_lo, a_hi, b_lo)
    g_lo, g_hi = _frozen_cumulative_extrema(mu, "alpha", b_lo, min(0.0, box.beta_hi), a_hi)
    fq_lo, fq_hi = _frozen_cumulative_extrema(mu, "beta", a_lo, qa_hi, qb_lo)
    gq_lo, gq_hi = _frozen_cumulative_extrema(mu, "alpha", qb_lo, 0.0, qa_hi)
    return SectorBounds(
        2.0 * f_lo, 2.0 * f_hi, 2.0 * g_hi, 2.0 * g_lo,
        2.0 * fq_hi, 2.0 * gq_hi, 2.0 * fq_lo, 2.0 * gq_lo,
    ).to_dict()


def zero_sign_case(rng, k):
    """(grid, Q) number ``k`` of a cycle of shapes, boxes, values and Qs:
    1 x 1, 1 x n, n x 1 and up to 89 cells a side; boxes that straddle both
    axes, with zero on a cell edge, with beta_hi <= 0 or alpha_lo >= 0;
    signed, one-signed, half-zero and all-zero values; Q off the edges,
    covering the quadrant part or on the box's own edges."""
    n = int(rng.integers(2, 40))
    n_alpha, n_beta = [tuple(rng.integers(1, 90, 2).tolist()), (1, 1), (1, n), (n, 1)][k % 4]
    a_lo, a_hi = float(rng.uniform(-1.0, -0.01)), float(rng.uniform(0.05, 1.5))
    b_lo, b_hi = float(rng.uniform(-1.5, -0.05)), float(rng.uniform(0.01, 1.0))
    kind = k // 4 % 5
    if kind == 1:  # zero on a cell edge of both axes
        a_lo, a_hi, b_lo, b_hi = -0.25, 1.0, -1.0, 0.25
        n_alpha, n_beta = 5 * max(1, n_alpha // 5), 5 * max(1, n_beta // 5)
    elif kind == 2:  # beta_hi <= 0
        b_hi = float(rng.choice([0.0, rng.uniform(b_lo + 0.01, 0.0)]))
    elif kind == 3:  # alpha_lo >= 0
        a_lo = float(rng.choice([0.0, rng.uniform(0.0, a_hi - 0.01)]))
    elif kind == 4:  # both
        b_hi, a_lo = 0.0, 0.0
    values = rng.normal(size=(n_beta, n_alpha))
    fill = k // 20 % 4
    if fill == 1:
        values[:] = 0.0
    elif fill == 2:
        values[rng.uniform(size=values.shape) < 0.5] = 0.0
    elif fill == 3:
        values = float(rng.choice([-1.0, 1.0])) * np.abs(values)
    which = k // 80 % 3
    if which == 0:
        q = QRegion(float(rng.uniform(0.05, 1.6)), float(rng.uniform(-1.6, -0.05)))
    elif which == 1:
        q = QRegion(5.0, -5.0)
    else:
        q = QRegion(a_hi, b_lo)
    return GridWeighting(Box(a_lo, a_hi, b_lo, b_hi), values), q


def test_lattice_scan_is_the_frozen_blocked_scan():
    """Over 600 seeded grids, every nonzero bound is the frozen blocked
    scan's float, and every zero bound is +0.0, where the blocked scan gave
    a zero of the sign its first block to reach zero had."""
    rng = np.random.default_rng(46)
    nonzero = negative_zeros = 0
    for k in range(600):
        mu, q = zero_sign_case(rng, k)
        got = sector_bounds(mu, q).to_dict()
        for key, want in frozen_grid_sector_bounds(mu, q).items():
            if want != 0.0:
                nonzero += 1
                assert got[key].hex() == want.hex(), (k, key)
            else:
                negative_zeros += math.copysign(1.0, want) < 0.0
                assert got[key] == 0.0 and math.copysign(1.0, got[key]) == 1.0, (k, key)
    assert nonzero > 1000 and negative_zeros > 0


def test_grid_scan_peak_memory_is_below_the_values():
    """The lattice scan holds one array of the quadrant's cells at a time,
    accumulated in place: its traced peak stays under the grid's own
    values on a 400 x 400 grid."""
    rng = np.random.default_rng(47)
    mu = GridWeighting(Box(-0.25, 1.0, -1.0, 0.25), rng.normal(size=(400, 400)))
    tracemalloc.start()
    try:
        sector_bounds(mu, QRegion(1.0, -1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= mu.values.nbytes


def test_gaussian_scan_peak_memory_is_bounded(outer_calls):
    """The blocked scan of a sum holds ``SCAN_BLOCK_ROWS`` lines of entries
    at a time: at resolution 2048 on two lobes that meet every scan its
    traced peak stays under 8 MB, where the whole lines x cuts matrix alone
    would take 33.6 MB."""
    mu = two_lobe_field()
    tracemalloc.start()
    try:
        sector_bounds(mu, Q_UNIT, 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6
    assert len(outer_calls) == 2 * 2 * 2048 // weighting.SCAN_BLOCK_ROWS  # scans x lobes x blocks


@pytest.mark.parametrize("resolution", [0, 1, -1, 2.5, 2.0, True, "4", None])
def test_gaussian_scan_refuses_a_resolution_that_is_not_an_integer_of_two_or_more(resolution):
    """The Gaussian scan samples ``resolution`` lines and cuts: anything but
    an integer >= 2 is a config error, not an empty or one-line scan, nor
    numpy's own error."""
    mu, q = make_butterfly()
    with pytest.raises(ConfigurationError, match="^resolution must be an integer >= 2"):
        sector_bounds(mu, q, resolution)


def test_gaussian_scan_takes_any_integer_type_and_grids_ignore_the_resolution():
    mu, q = make_butterfly()
    assert sector_bounds(mu, q, np.int64(40)) == sector_bounds(mu, q, 40)
    grid = uniform_field(Q_UNIT)
    assert sector_bounds(grid, Q_UNIT, 0) == sector_bounds(grid, Q_UNIT)


@st.composite
def segment_cases(draw):
    """(center, sigma, box lo, box hi, cuts): cuts anywhere, and at +-0.0,
    at the box edges, just past them and far outside; boxes of zero width
    and on either side of zero."""
    coord = st.floats(-2.0, 2.0, allow_nan=False)
    lo = draw(coord)
    hi = draw(st.one_of(st.just(lo), st.floats(lo, 2.0)))
    edges = [0.0, -0.0, lo, hi, -lo, -hi, -3.0, 3.0]
    edges += [math.nextafter(lo, -3.0), math.nextafter(hi, 3.0)]
    cuts = draw(st.lists(st.one_of(coord, st.sampled_from(edges)), min_size=1, max_size=40))
    return draw(coord), draw(st.floats(0.01, 2.0)), lo, hi, cuts


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=segment_cases())
@example(case=(0.0, 0.5, -1.0, 1.0, [-0.0, 0.0, -1.0, 1.0, 0.5, -0.5]))
def test_array_segments_are_the_scalar_segments(case):
    """The scan's erf segment up to each cut is, float for float,
    ``_gauss_segment`` over the cut's range clamped with Python's min/max."""
    center, sigma, lo, hi, cuts = case
    want = [(max(min(0.0, t), lo), min(max(0.0, t), hi)) for t in cuts]
    constants = weighting._erf_constants(lo, hi, center, sigma)
    segments = weighting._segments_between(constants, np.array(cuts)).tolist()
    assert [x.hex() for x in segments] == [_gauss_segment(center, sigma, *r).hex() for r in want]


@pytest.mark.parametrize(
    "seed", [None, 43, 44, 45], ids=["butterfly", "random_43", "random_44", "random_45"]
)
def test_gaussian_abs_mass_is_the_reference_sum(seed):
    """``abs_mass`` of a Gaussian sum is, float for float, the sum over
    components of |amplitude| times the two box segments of the reference
    ``_gauss_segment``: the butterfly (no seed) and random overlapping sums."""
    mu = make_butterfly()[0] if seed is None else random_gaussian_field(np.random.default_rng(seed))
    want = 0.0
    for c in mu.components:
        b = c.box
        ga = _gauss_segment(c.center_alpha, c.sigma_alpha, b.alpha_lo, b.alpha_hi)
        gb = _gauss_segment(c.center_beta, c.sigma_beta, b.beta_lo, b.beta_hi)
        want += abs(c.amplitude) * ga * gb
    assert mu.abs_mass().hex() == want.hex()


def test_zero_blocks_are_skipped_and_the_rest_added(outer_calls):
    """Across 80 lines, lobe 0 is nonzero only on the first block of
    ``SCAN_BLOCK_ROWS`` lines and lobe 1 only on the last, so the middle
    block adds only zeros; both lobes meet the scan, so it takes the blocked
    loop, two outer products per block, and its extrema are still bit-equal
    to those of a per-point sum, and each lobe reaches one of them."""
    lobes = [
        GaussianComponent(1.5, 0.1, -0.5, 0.3, 0.4, Box(0.0, 0.2, -1.0, 0.0)),
        GaussianComponent(-0.7, 0.9, -0.2, 0.2, 0.3, Box(0.85, 1.0, -1.0, 0.0)),
    ]
    mu = GaussianWeighting(lobes)
    assert weighting.SCAN_BLOCK_ROWS == 32
    got = mu.line_integral_extrema("beta", 0.0, 1.0, -1.0, 80)
    assert outer_calls == [(32,), (32,), (32,), (32,), (16,), (16,)]
    want = _point_extrema(mu, "beta", 0.0, 1.0, -1.0, 80)
    assert [x.hex() for x in got] == [x.hex() for x in want]
    lo, hi = got
    assert lo < 0.0 < hi


class TestSingleLobeCorners:
    """A scan that meets one lobe reads its extrema off the four corner
    products of the extreme profile value and the extreme segment."""

    def test_the_butterfly_scans_make_no_outer_product(self, outer_calls):
        mu, q = make_butterfly()
        sector_bounds(mu, q, 512)
        for q in (q, QRegion(0.5, -0.6)):
            assert sector_bounds(mu, q, 40).to_dict() == point_sector_bounds(mu, q, 40)
        assert outer_calls == []

    @pytest.mark.parametrize("seed", range(3))
    def test_random_single_lobes_are_bit_equal(self, outer_calls, seed):
        """Either sign, boxes on either side of both axes, profiles that
        underflow on some lines, and Q regions that cut the scans short:
        every bound is the point reference's, float for float."""
        rng = np.random.default_rng([48, seed])
        underflows = 0
        for _ in range(20):
            mu = random_single_lobe_field(rng)
            (c,) = mu.components
            b = c.box
            for line, centre, sigma in ((b.alpha_hi, c.center_alpha, c.sigma_alpha),
                                        (b.beta_hi, c.center_beta, c.sigma_beta)):
                underflows += c.amplitude * math.exp(-0.5 * ((line - centre) / sigma) ** 2) == 0.0
            q = QRegion(float(rng.uniform(0.05, 1.3)), float(rng.uniform(-1.3, -0.05)))
            resolution = int(rng.integers(2, 40))
            got = sector_bounds(mu, q, resolution).to_dict()
            want = point_sector_bounds(mu, q, resolution)
            assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}
        assert outer_calls == []
        assert underflows > 0


def counted_calls(monkeypatch, fn, *args):
    """(``fn(*args)``, the exp and erf calls it made): ``exp`` and ``erf``
    count the elements that ``weighting._exp`` and ``weighting._erf`` map,
    ``scalar_erf`` the other ``math.erf`` calls of ``weighting``."""
    calls = collections.Counter()
    exp, erf = weighting._exp, weighting._erf

    class Math:
        def __getattr__(self, name):
            return getattr(math, name)

        @staticmethod
        def erf(x):
            calls["scalar_erf"] += 1
            return math.erf(x)

    with monkeypatch.context() as patch:
        patch.setattr(weighting, "math", Math())
        patch.setattr(weighting, "_exp", lambda x: calls.update(exp=len(x)) or exp(x))
        patch.setattr(weighting, "_erf", lambda x: calls.update(erf=len(x)) or erf(x))
        out = fn(*args)
    calls["scalar_erf"] -= calls["erf"]  # _erf maps math.erf too
    return out, dict(calls)


class TestScanCallsOnlyWhereALobeReaches:
    """The Gaussian scan calls exp and erf only for lobes that meet both its
    lines and its cuts, exp only at the lines inside the lobe's box, and erf
    once per side of zero for the end clamped there."""

    def test_butterfly_calls_at_resolution_512(self, monkeypatch):
        """Each of the butterfly's two distinct scans meets the positive lobe
        on all 512 lines and on 512 of its 514 cuts (the cut at zero, given
        twice, is empty); one negative lobe's box holds no line, the other's
        misses the cuts.  So exp maps 2 x 512 lines and erf 2 x 512 cut
        ends, plus one scalar erf per scan for the end fixed at zero.
        Mapping exp over every line of every lobe and erf over both ends of
        every cut made 3,072 and 2,048 calls."""
        mu, q = make_butterfly()
        _, calls = counted_calls(monkeypatch, sector_bounds, mu, q, 512)
        assert calls == {"exp": 1024, "erf": 1024, "scalar_erf": 2}

    def test_lobes_that_miss_the_scan_make_no_call(self, monkeypatch, outer_calls):
        """The two lobes of ``two_lobe_field`` meet every scan, so the scan
        sums them in blocks.  Beside them go the butterfly's negative lobes:
        in each scan one box holds no line and the other misses the cuts.
        The four-lobe field's bounds are the point reference's, float for
        float, and it makes the two-lobe field's calls, no more."""
        support = Box(-0.7, 1.0, -1.0, 0.5)
        two = GaussianWeighting(two_lobe_field().components, support)
        four = GaussianWeighting(two.components + make_butterfly()[0].components[1:], support)
        for q in (Q_UNIT, QRegion(0.5, -0.6)):
            got, calls = counted_calls(monkeypatch, sector_bounds, four, q, 40)
            want = {k: v.hex() for k, v in point_sector_bounds(four, q, 40).items()}
            assert {k: v.hex() for k, v in got.to_dict().items()} == want
            assert (got, calls) == counted_calls(monkeypatch, sector_bounds, two, q, 40)
            assert min(calls.values()) > 0
        assert outer_calls

    def test_exp_maps_only_the_lines_inside_a_box(self, monkeypatch):
        """Across 40 lines on [0, 1], the two lobes of ``two_lobe_field``
        hold those up to 0.6 and those from 0.4: exp maps just these."""
        mu = two_lobe_field()
        _, calls = counted_calls(monkeypatch, mu.line_integral_extrema, "beta", 0.0, 1.0, -1.0, 40)
        lines = np.linspace(0.0, 1.0, 40)
        assert calls["exp"] == np.sum(lines <= 0.6) + np.sum(lines >= 0.4) < 2 * 40

    @pytest.mark.parametrize("s, n", [(100 * 5e-324, 40), (1e-320, 512)])
    def test_cuts_that_step_past_zero_are_clipped(self, s, n, monkeypatch):
        """In the subnormal range ``linspace`` can step past its end: from
        -s to 0, at s 100 times the smallest subnormal and resolution 40 or
        at s = 1e-320 and 512, some cuts lie above zero.  The scan clips
        them to zero, so a negative lobe whose box starts at beta = 0 lies
        outside the cut range: it is skipped before any exp or erf, and the
        bounds are those of the positive lobe alone, as the point reference
        gives them.  Moved one subnormal below zero, the lobe is scanned,
        and only over [-5e-324, 0]: its share above zero, which the cuts
        past zero would add, does not count."""
        def field(negative_lo):
            return GaussianWeighting([
                GaussianComponent(-1.0, 0.5 * s, 0.2 * s, 0.3 * s, 0.3 * s, Box(0.0, s, negative_lo, s)),
                GaussianComponent(1.0, 0.5 * s, -0.5 * s, 0.3 * s, 0.3 * s, Box(0.0, s, -s, 0.0)),
            ])

        mu = field(0.0)
        positive = GaussianWeighting(mu.components[1:], mu.support_box)
        assert np.linspace(-s, 0.0, n).max() > 0.0
        got, calls = counted_calls(monkeypatch, mu.line_integral_extrema, "beta", 0.0, s, -s, n)
        args = "beta", 0.0, s, -s, n
        assert (got, calls) == counted_calls(monkeypatch, positive.line_integral_extrema, *args)
        assert [x.hex() for x in got] == [x.hex() for x in _point_extrema(mu, *args)]
        assert got[0] == 0.0 < got[1]
        mu = field(-5e-324)
        got = mu.line_integral_extrema(*args)
        assert [x.hex() for x in got] == [x.hex() for x in _point_extrema(mu, *args)]
        assert got[0] > -13 * 5e-324  # the unclipped cuts reach -0x0.000000000000dp-1022


@pytest.mark.parametrize(
    "scene, scans",
    [
        (lambda rng: (uniform_field(Q_UNIT), Q_UNIT), 2),
        (random_quadrant_scenario, 2),
        (lambda rng: make_butterfly(), 2),
        (lambda rng: (make_butterfly()[0], QRegion(0.5, -0.6)), 4),
    ],
    ids=["uniform", "quadrant_grid", "butterfly", "butterfly_small_q"],
)
def test_each_distinct_scan_runs_once(monkeypatch, scene, scans):
    """Q scans whose ranges equal the general ones reuse their results."""
    mu, q = scene(np.random.default_rng(44))
    calls = []
    real = type(mu).line_integral_extrema
    monkeypatch.setattr(
        type(mu), "line_integral_extrema", lambda *a: calls.append(a[1:5]) or real(*a)
    )
    got = sector_bounds(mu, q, 40).to_dict()
    assert len(calls) == len(set(calls)) == scans
    want = point_sector_bounds(mu, q, 40)
    if isinstance(mu, GridWeighting):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    else:
        assert got == want


class TestCheckNonnegative:
    """``premised_bounds`` refuses a density of neither sign on Q, naming a
    wrong cell or lobe of each, and gives the sector bounds of any other."""

    @staticmethod
    def first_offending_cell(mu, q, sign):
        """The first cell, alpha-major, whose overlap with Q has an interior
        and whose value, read by ``eval`` at the overlap's centre, has the
        wrong sign."""
        a, b = mu.alpha_edges, mu.beta_edges
        for i in range(mu.n_alpha):
            a_lo, a_hi = max(a[i], 0.0), min(a[i + 1], q.alpha2)
            for j in range(mu.n_beta):
                b_lo, b_hi = max(b[j], q.beta2), min(b[j + 1], 0.0)
                if a_lo < a_hi and b_lo < b_hi:
                    if sign * mu.eval(0.5 * (a_lo + a_hi), 0.5 * (b_lo + b_hi)) < 0.0:
                        return a[i], a[i + 1], b[j], b[j + 1]
        return None

    def test_grid_check_is_exact_on_cells_meeting_q(self):
        rng = np.random.default_rng(43)
        rejected = 0
        for _ in range(200):
            mu = random_grid_field(rng)
            q = QRegion(float(rng.uniform(0.1, 1.4)), float(rng.uniform(-1.4, -0.1)))
            cells = [self.first_offending_cell(mu, q, sign) for sign in (1.0, -1.0)]
            if None in cells:
                assert _sign_on_q(mu, q) == (1.0 if cells[0] is None else -1.0)
                assert premised_bounds(mu, q) == sector_bounds(mu, q)
                continue
            rejected += 1
            with pytest.raises(ConfigurationError) as err:
                premised_bounds(mu, q)
            want = "weighting is %s on Q in the cell [%g, %g] x [%g, %g]"
            assert str(err.value) == "; ".join(
                want % ((wrong,) + cell) for wrong, cell in zip(("negative", "positive"), cells)
            )
        assert 0 < rejected < 200

    @pytest.mark.parametrize("seed", range(4))
    def test_grid_check_finds_the_first_scattered_wrong_cell(self, seed):
        """Grids of one sign up to 40 x 40 cells with a few cells of the
        other sign or zero scattered over them, on boxes and Q regions that
        meet in every way, the Q rows or columns missing the grid included:
        ``sign_violation`` names the cell the per-cell loop finds first."""
        rng = np.random.default_rng([44, seed])
        found = 0
        for _ in range(60):
            n_beta, n_alpha = rng.integers(1, 41, 2)
            box = Box(*rng.uniform(-1.5, -0.05, 1), *rng.uniform(0.05, 1.5, 1),
                      *rng.uniform(-1.5, -0.05, 1), *rng.uniform(0.05, 1.5, 1))
            if rng.random() < 0.1:  # the grid misses Q's columns
                box = Box(box.alpha_lo - 2.0, box.alpha_lo - 1.0, box.beta_lo, box.beta_hi)
            sign = float(rng.choice([-1.0, 1.0]))
            values = sign * rng.uniform(0.1, 1.0, (n_beta, n_alpha))
            for _ in range(rng.integers(0, 4)):
                j, i = rng.integers(0, n_beta), rng.integers(0, n_alpha)
                values[j, i] = -values[j, i] if rng.random() < 0.8 else 0.0
            mu = GridWeighting(box, values)
            q = QRegion(float(rng.uniform(0.1, 1.4)), float(rng.uniform(-1.4, -0.1)))
            for s in (sign, -sign):
                cell = self.first_offending_cell(mu, q, s)
                got = mu.sign_violation(q, s)
                if cell is None:
                    assert got is None
                    continue
                found += s == sign
                wrong = "negative" if s > 0.0 else "positive"
                assert got == "weighting is %s on Q in the cell [%g, %g] x [%g, %g]" % (
                    (wrong,) + cell
                )
        assert found > 0

    def test_a_grid_wrong_on_all_of_q_lists_no_cells(self):
        """On a 600 x 600 grid < 0 on every cell, the check for >= 0 names
        the first cell of Q from a mask of Q's cells: its traced peak stays
        under a quarter of the grid's values, where a list of every wrong
        cell's indices would take twice them."""
        values = -np.random.default_rng(49).uniform(0.1, 1.0, (600, 600))
        mu = GridWeighting(Box(-0.25, 1.0, -1.0, 0.25), values)
        tracemalloc.start()
        try:
            got = mu.sign_violation(Q_UNIT, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        a, b = mu.alpha_edges, mu.beta_edges
        i, j = np.flatnonzero(a[1:] > 0.0)[0], np.flatnonzero(b[1:] > -1.0)[0]
        assert got == "weighting is negative on Q in the cell [%g, %g] x [%g, %g]" % (
            a[i], a[i + 1], b[j], b[j + 1]
        )
        assert peak <= values.nbytes / 4
        assert mu.sign_violation(Q_UNIT, -1.0) is None

    def test_cells_that_only_touch_q_are_not_checked(self):
        # one positive cell, [0, 1] x [-1, 0], in a ring of negative ones
        values = [[-1.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, -1.0]]
        mu = GridWeighting(Box(-1.0, 2.0, -2.0, 1.0), values)
        premised_bounds(mu, QRegion(1.0, -1.0))
        for q in (QRegion(1.0 + 1e-9, -1.0), QRegion(1.0, -1.0 - 1e-9)):
            with pytest.raises(ConfigurationError):
                premised_bounds(mu, q)

    def test_sign_change_on_q_is_rejected(self):
        # a remnant that is not monotone in the pulse amplitude
        mu = GridWeighting(UNIT_BOX, [[1.0], [-0.5]])
        with pytest.raises(ConfigurationError) as err:
            premised_bounds(mu, Q_UNIT)
        assert str(err.value) == (
            "weighting is negative on Q in the cell [0, 1] x [-0.5, 0]; "
            "weighting is positive on Q in the cell [0, 1] x [-1, -0.5]"
        )

    @pytest.mark.parametrize(
        "values, sign",
        [([[1.0], [0.5]], 1.0), ([[1.0], [0.0]], 1.0), ([[-1.0], [-0.5]], -1.0),
         ([[-1.0], [0.0]], -1.0), ([[0.0], [0.0]], 1.0)],
        ids=["positive", "positive_and_zero", "negative", "negative_and_zero", "zero"],
    )
    def test_the_sign_on_q_is_measured(self, values, sign):
        """Zero cells take either sign; a field that is zero on Q reads as
        >= 0, and its bounds vanish (``max_gain`` calls that degenerate)."""
        mu = GridWeighting(UNIT_BOX, values)
        assert _sign_on_q(mu, Q_UNIT) == sign
        assert premised_bounds(mu, Q_UNIT) == sector_bounds(mu, Q_UNIT)

    def test_gaussian_dip_inside_q(self):
        mu = GaussianWeighting([
            GaussianComponent(1.0, 0.5, -0.5, 0.5, 0.5, UNIT_BOX),
            GaussianComponent(-2.0, 0.3, -0.2, 0.05, 0.05, Box(0.2, 0.4, -0.3, -0.1)),
        ])
        with pytest.raises(ConfigurationError) as err:
            premised_bounds(mu, Q_UNIT)
        assert str(err.value) == (
            "weighting component 1 (amplitude -2) may be negative on Q; "
            "weighting component 0 (amplitude 1) may be positive on Q"
        )

    def test_gaussian_box_touching_q_is_not_checked(self):
        mu = GaussianWeighting([
            GaussianComponent(1.0, 0.5, -0.5, 0.5, 0.5, UNIT_BOX),
            GaussianComponent(-2.0, -0.3, -0.5, 0.1, 0.1, Box(-0.6, 0.0, -1.0, 0.0)),
        ])
        assert _sign_on_q(mu, Q_UNIT) == 1.0
        premised_bounds(mu, Q_UNIT)

    @pytest.mark.parametrize("amplitude, sign", [(1.0, 1.0), (-1.0, -1.0)])
    def test_gaussian_sum_of_one_sign(self, amplitude, sign):
        mu = GaussianWeighting([GaussianComponent(amplitude, 0.5, -0.5, 0.5, 0.5, UNIT_BOX)])
        assert _sign_on_q(mu, Q_UNIT) == sign

    def test_the_third_argument_is_the_resolution(self):
        """A Gaussian sum is scanned at the resolution given third."""
        mu, q = make_butterfly()
        assert premised_bounds(mu, q, 16) == sector_bounds(mu, q, 16) != sector_bounds(mu, q, 32)

    def test_butterfly_passes_for_every_q(self):
        mu, q = make_butterfly()
        for q in (q, QRegion(0.3, -0.2), QRegion(5.0, -5.0)):
            assert _sign_on_q(mu, q) == 1.0
