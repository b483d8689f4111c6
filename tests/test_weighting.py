"""Density fields, staircase integration and sector-bound constants."""

import math

import numpy as np
import pytest

from preisach_remnant import (
    Box,
    ConfigurationError,
    EmptyIntersectionError,
    GaussianComponent,
    GaussianWeighting,
    GridWeighting,
    MemoryInterface,
    PlanePoint,
    QRegion,
    SectorBounds,
    eval_mu,
    evaluate_output,
    integrate_staircase_region,
    make_butterfly,
    remnant,
    sector_bounds,
    uniform_field,
)

from conftest import random_gamma_interface, random_grid_field

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
        assert eval_mu(mu, PlanePoint(0.5, -0.5)) == 1.0

    def test_zero_outside_support(self):
        mu = uniform_field(Q_UNIT)
        assert eval_mu(mu, PlanePoint(2.0, -0.5)) == 0.0

    def test_gaussian_peak_value(self):
        g = GaussianWeighting(
            [GaussianComponent(1.0, 0.4, -0.4, 0.2, 0.2, UNIT_BOX)]
        )
        assert g.eval(0.4, -0.4) == pytest.approx(1.0)

    def test_grid_rejects_non_finite_values(self):
        with pytest.raises(ConfigurationError):
            GridWeighting(UNIT_BOX, [[1.0, math.inf]])


class TestStaircaseIntegration:
    def test_virgin_mass_is_all_above(self):
        mu = uniform_field(Q_UNIT)
        iface = MemoryInterface.virgin(UNIT_BOX)
        assert integrate_staircase_region(mu, iface, "above") == pytest.approx(1.0)
        assert integrate_staircase_region(mu, iface, "below") == pytest.approx(0.0)

    def test_half_excursion_splits_the_mass(self):
        mu = uniform_field(Q_UNIT)
        iface = excursion(UNIT_BOX, 0.5, 0.0)
        assert integrate_staircase_region(mu, iface, "below") == pytest.approx(0.5)

    def test_box_mismatch_is_rejected(self):
        mu = uniform_field(QRegion(2.0, -1.0))
        iface = MemoryInterface.virgin(UNIT_BOX)
        with pytest.raises(ConfigurationError):
            integrate_staircase_region(mu, iface, "below")

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
            expected = mu.integrate_rect(mu.support_box.alpha_lo, a_edge,
                                         mu.support_box.beta_lo, 0.0)
            got = integrate_staircase_region(mu, iface, "below")
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(33)
        mu = random_grid_field(rng)
        path = tmp_path / "grid.csv"
        mu.save_csv(path)
        again = GridWeighting.load_csv(path)
        assert again.support_box == mu.support_box
        assert np.array_equal(again.values, mu.values)


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
        from preisach_remnant import ButterflyParams

        mu, q = make_butterfly()
        mu2, q2 = make_butterfly(ButterflyParams(scale=2.0))
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


class TestCheckNonnegative:
    @staticmethod
    def point_message(mu, q, samples=100):
        for a in np.linspace(0.0, q.alpha2, samples):
            for b in np.linspace(q.beta2, 0.0, samples):
                if mu.eval(float(a), float(b)) < 0.0:
                    return "weighting is negative on Q at (%g, %g)" % (a, b)
        return None

    def test_reports_the_first_offender_of_the_point_loop(self):
        values = np.ones((5, 4))
        values[1, 2] = values[3, 1] = -0.5  # two offenders, alpha-major order decides
        mu = GridWeighting(Box(-0.2, 1.0, -1.0, 0.2), values)
        q = QRegion(0.9, -0.9)
        expected = self.point_message(mu, q)
        assert expected is not None
        with pytest.raises(ConfigurationError) as err:
            q.check_nonnegative(mu)
        assert str(err.value) == expected

    def test_gaussian_dip_inside_q(self):
        mu = GaussianWeighting([
            GaussianComponent(1.0, 0.5, -0.5, 0.5, 0.5, UNIT_BOX),
            GaussianComponent(-2.0, 0.3, -0.2, 0.05, 0.05, Box(0.2, 0.4, -0.3, -0.1)),
        ])
        expected = self.point_message(mu, Q_UNIT)
        assert expected is not None
        with pytest.raises(ConfigurationError) as err:
            Q_UNIT.check_nonnegative(mu)
        assert str(err.value) == expected
