"""Density fields, staircase integration and sector-bound constants."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from preisach_remnant import weighting
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
        mu.save_csv(path)
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
        cuts = list(np.linspace(cut_lo, cut_hi, resolution))
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
    """The scan's clamped cut ranges and erf segments are, float for float,
    Python's min/max and ``_gauss_segment`` of each cut."""
    center, sigma, lo, hi, cuts = case
    want = [(max(min(0.0, t), lo), min(max(0.0, t), hi)) for t in cuts]
    got_lo, got_hi = weighting._cut_ranges(np.array(cuts), lo, hi)
    got = list(zip(got_lo.tolist(), got_hi.tolist()))
    assert [(a.hex(), b.hex()) for a, b in got] == [(a.hex(), b.hex()) for a, b in want]
    constants = weighting._erf_constants(lo, hi, center, sigma)
    segments = weighting._segments_between(constants, got_lo, got_hi).tolist()
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


def test_zero_blocks_are_skipped_and_the_rest_added():
    """Across 80 lines, lobe 0 is nonzero only on the first block and lobe 1
    only on the last, so each is added to one block of three; every block
    is still bit-equal to a per-point sum."""
    lobes = [
        GaussianComponent(1.5, 0.1, -0.5, 0.3, 0.4, Box(0.0, 0.2, -1.0, 0.0)),
        GaussianComponent(-0.7, 0.9, -0.2, 0.2, 0.3, Box(0.85, 1.0, -1.0, 0.0)),
    ]
    mu = GaussianWeighting(lobes)
    lines, cuts = np.linspace(0.0, 1.0, 80), np.linspace(-1.0, 0.0, 9)
    blocks = list(mu.scan_blocks("beta", lines, cuts))
    assert [len(b) for b in blocks] == [32, 32, 16]
    assert blocks[0].any() and not blocks[1].any() and blocks[2].any()
    want = [
        [_point_line_integral(mu, "beta", line, min(0.0, c), max(0.0, c)) for c in cuts.tolist()]
        for line in lines.tolist()
    ]
    assert np.vstack(blocks).tolist() == want


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
    """``premised_bounds`` refuses a density without the mode's sign on Q
    and gives the sector bounds of any other."""

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
            for mode, sign in (("positive", 1.0), ("negative", -1.0)):
                cell = self.first_offending_cell(mu, q, sign)
                if cell is None:
                    assert premised_bounds(mu, q, mode) == sector_bounds(mu, q)
                    continue
                rejected += 1
                with pytest.raises(ConfigurationError) as err:
                    premised_bounds(mu, q, mode)
                wrong = "negative" if mode == "positive" else "positive"
                want = "weighting is %s on Q in the cell [%g, %g] x [%g, %g]" % ((wrong,) + cell)
                assert str(err.value) == want
        assert 0 < rejected < 400

    def test_cells_that_only_touch_q_are_not_checked(self):
        # one positive cell, [0, 1] x [-1, 0], in a ring of negative ones
        values = [[-1.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, -1.0]]
        mu = GridWeighting(Box(-1.0, 2.0, -2.0, 1.0), values)
        premised_bounds(mu, QRegion(1.0, -1.0), "positive")
        for q in (QRegion(1.0 + 1e-9, -1.0), QRegion(1.0, -1.0 - 1e-9)):
            with pytest.raises(ConfigurationError):
                premised_bounds(mu, q, "positive")

    def test_sign_change_on_q_is_rejected_in_both_modes(self):
        # a remnant that is not monotone in the pulse amplitude
        mu = GridWeighting(UNIT_BOX, [[1.0], [-0.5]])
        for mode in ("positive", "negative"):
            with pytest.raises(ConfigurationError):
                premised_bounds(mu, Q_UNIT, mode)
        premised_bounds(GridWeighting(UNIT_BOX, [[-1.0], [-0.5]]), Q_UNIT, "negative")
        premised_bounds(GridWeighting(UNIT_BOX, [[1.0], [0.0]]), Q_UNIT, "positive")

    def test_gaussian_dip_inside_q(self):
        mu = GaussianWeighting([
            GaussianComponent(1.0, 0.5, -0.5, 0.5, 0.5, UNIT_BOX),
            GaussianComponent(-2.0, 0.3, -0.2, 0.05, 0.05, Box(0.2, 0.4, -0.3, -0.1)),
        ])
        with pytest.raises(ConfigurationError) as err:
            premised_bounds(mu, Q_UNIT, "positive")
        assert str(err.value) == "weighting component 1 (amplitude -2) may be negative on Q"
        with pytest.raises(ConfigurationError) as err:
            premised_bounds(mu, Q_UNIT, "negative")
        assert str(err.value) == "weighting component 0 (amplitude 1) may be positive on Q"

    def test_gaussian_box_touching_q_is_not_checked(self):
        mu = GaussianWeighting([
            GaussianComponent(1.0, 0.5, -0.5, 0.5, 0.5, UNIT_BOX),
            GaussianComponent(-2.0, -0.3, -0.5, 0.1, 0.1, Box(-0.6, 0.0, -1.0, 0.0)),
        ])
        premised_bounds(mu, Q_UNIT, "positive")
        with pytest.raises(ConfigurationError):
            premised_bounds(mu, QRegion(1.0, -1.0), "negative")

    def test_butterfly_passes_for_every_q(self):
        mu, q = make_butterfly()
        for q in (q, QRegion(0.3, -0.2), QRegion(5.0, -5.0)):
            premised_bounds(mu, q, "positive")
            with pytest.raises(ConfigurationError):
                premised_bounds(mu, q, "negative")
