"""Weighting densities over the relay plane and the sector-bound constants.

Two representations are supported: a cell-centered piecewise-constant grid
and a sum of signed Gaussian components, each truncated to its own
rectangle.  Each supplies one integration primitive, the Everett function
E(alpha, beta): the mass of the density over [alpha_lo, alpha] x
[beta_lo, beta] of its support box, in plain floats for the few points
of a read (``everett``) and as an array of the same floats for the many
points of a pulse train (``everett_array``).  Every region the engine
integrates (the area under the staircase memory curve, a remnant band, a
rectangle) is a signed sum of E at a few corners, and ``OutputReader``
reads the output along a sequence of pushes by re-evaluating E only at
the corners a push changed.  Sector bounds are the extrema of
one-dimensional cumulative integrals of the density, scanned over the
quadrant alpha >= 0 >= beta.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateBoundsError, EmptyIntersectionError
from .interface import Box, MemoryInterface

_SQRT2 = math.sqrt(2.0)
_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)

#: scan lines per block of the Gaussian sector-bound scan; bounds its memory
SCAN_BLOCK_ROWS = 32


def _erf_constants(lo, hi, center, sigma):
    """Constants of one lobe's profile exp(-(x - center)^2 / (2 sigma^2))
    on its box's range [lo, hi] along one axis: (lo, hi, center, sigma,
    sigma * sqrt 2, erf at lo, sigma * sqrt(pi / 2)).  Every integral of the
    profile is sigma * sqrt(pi / 2) times a difference of erf at
    (x - center) / (sigma * sqrt 2)."""
    scale = sigma * _SQRT2
    return lo, hi, center, sigma, scale, math.erf((lo - center) / scale), sigma * _SQRT_HALF_PI


def _segments_from_lo(constants, xs):
    """Integral of one component's profile along an axis from its box's low
    edge up to each x in ``xs``, in plain floats: numpy's per-call cost would
    outweigh the few corners of a typical read."""
    lo, hi, mid, _, scale, erf_lo, k = constants
    erf = math.erf
    return [k * (erf((min(x, hi) - mid) / scale) - erf_lo) if x > lo else 0.0 for x in xs]


def _segments_from_lo_array(constants, xs):
    """``_segments_from_lo`` as array expressions over an array ``xs``,
    with ``np.where(hi < x, hi, x)`` for Python's ``min(x, hi)``: the same
    floats."""
    lo, hi, mid, _, scale, erf_lo, k = constants
    out = np.zeros(len(xs))
    on = xs > lo
    x = xs[on]
    out[on] = k * (_erf((np.where(hi < x, hi, x) - mid) / scale) - erf_lo)
    return out


def _segments_between(constants, cuts):
    """Integral of one component's profile over [max(min(0.0, t), lo),
    min(max(0.0, t), hi)] for every cut t where that is not empty, else 0:
    the clamps keep the tie rule of Python's min and max (a cut of -0.0
    gives +0.0), so each element is the float of the scalar expression.
    The end clamped at zero is one float for every cut on the same side of
    zero, so its erf is taken once per side."""
    lo, hi, mid, _, scale, _, k = constants
    out = np.zeros(len(cuts))
    # cuts below zero: [max(t, lo), min(0.0, hi)]
    start, stop = np.where(lo > cuts, lo, cuts), hi if hi < 0.0 else 0.0
    on = (cuts < 0.0) & (stop > start)
    if on.any():
        out[on] = k * (math.erf((stop - mid) / scale) - _erf((start[on] - mid) / scale))
    # cuts above zero: [max(0.0, lo), min(t, hi)]
    start, stop = lo if lo > 0.0 else 0.0, np.where(hi < cuts, hi, cuts)
    on = (cuts > 0.0) & (stop > start)
    if on.any():
        out[on] = k * (_erf((stop[on] - mid) / scale) - math.erf((start - mid) / scale))
    return out


def _exp(x):
    """Elementwise math.exp: np.exp differs from it in the last bit on some
    inputs, and the array paths must give the per-point values exactly."""
    return np.fromiter(map(math.exp, x), float, len(x))


def _erf(x):
    """Elementwise math.erf: numpy has no erf, and the segments must be the
    per-point values exactly."""
    return np.fromiter(map(math.erf, x), float, len(x))


def _cell_fractions(edges, x):
    """(cell index, fraction of the cell below the point) of every
    coordinate in ``x`` clamped to the edges; the last cell holds the top
    edge."""
    x = np.clip(np.asarray(x, float), edges[0], edges[-1])
    idx = np.minimum(np.searchsorted(edges, x, side="right") - 1, len(edges) - 2)
    return idx, (x - edges[idx]) / (edges[idx + 1] - edges[idx])


class GridWeighting:
    """Piecewise-constant density on a uniform lattice over its support box.

    ``values[j, i]`` is the cell value at beta row j (ascending) and alpha
    column i (ascending), matching the CSV layout.
    """

    def __init__(self, box: Box, values):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.size == 0:
            raise ConfigurationError("grid values must be a non-empty 2-D array")
        if not np.all(np.isfinite(values)):
            raise ConfigurationError("grid values must be finite")
        self.support_box = box
        self.values = values
        self.n_beta, self.n_alpha = values.shape
        self.alpha_edges = np.linspace(box.alpha_lo, box.alpha_hi, self.n_alpha + 1)
        self.beta_edges = np.linspace(box.beta_lo, box.beta_hi, self.n_beta + 1)
        self._edge_lists = self.alpha_edges.tolist(), self.beta_edges.tolist()
        # _prefix[j, i]: sum of the cell values below beta row j and left
        # of alpha column i; times the cell area it is E at the lattice nodes
        self._prefix = np.zeros((self.n_beta + 1, self.n_alpha + 1))
        inner = self._prefix[1:, 1:]
        with np.errstate(over="ignore"):  # an overflow is refused below
            np.cumsum(values, axis=0, out=inner)
            np.cumsum(inner, axis=1, out=inner)
        self._cell_area = (box.alpha_hi - box.alpha_lo) / self.n_alpha * (
            (box.beta_hi - box.beta_lo) / self.n_beta
        )
        self.total_mass = self.everett([box.alpha_hi], [box.beta_hi])[0]
        _require_finite_mass(self, "grid weighting")

    def eval(self, alphas, betas):
        """Cell value at every (alphas[r], betas[c]) of two 1-D float
        arrays, a row per alpha and a column per beta, 0 outside the
        support: each axis finds its cells once, and two gathers of whole
        rows and columns of the values give the lattice."""
        a, b = self.alpha_edges, self.beta_edges
        (i, _), (j, _) = _cell_fractions(a, alphas), _cell_fractions(b, betas)
        out = self.values.T.take(i, axis=0).take(j, axis=1)
        out[~((a[0] <= alphas) & (alphas <= a[-1]))] = 0.0
        out[:, ~((b[0] <= betas) & (betas <= b[-1]))] = 0.0
        return out

    def everett(self, alphas, betas):
        """E(alphas[k], betas[k]) for every k, as a list of floats.

        The density is constant on each cell, so E is bilinear inside a
        cell and its bilinear interpolation of the prefix table is exact.
        Plain floats: a read along a push sequence asks for a few points,
        where numpy's per-call cost would outweigh the work.
        """
        alpha_edges, beta_edges = self._edge_lists
        a_lo, a_hi, n_a = alpha_edges[0], alpha_edges[-1], self.n_alpha
        b_lo, b_hi, n_b = beta_edges[0], beta_edges[-1], self.n_beta
        item, area = self._prefix.item, self._cell_area
        out = []
        for a, b in zip(alphas, betas):
            # clamp to the box, find the cell (the last one holds the top
            # edge) and the fraction of the cell below the point
            a = a_lo if a < a_lo else a_hi if a > a_hi else a
            b = b_lo if b < b_lo else b_hi if b > b_hi else b
            i = bisect_right(alpha_edges, a, 0, n_a) - 1
            j = bisect_right(beta_edges, b, 0, n_b) - 1
            fa = (a - alpha_edges[i]) / (alpha_edges[i + 1] - alpha_edges[i])
            fb = (b - beta_edges[j]) / (beta_edges[j + 1] - beta_edges[j])
            lower = (1.0 - fa) * item(j, i) + fa * item(j, i + 1)
            upper = (1.0 - fa) * item(j + 1, i) + fa * item(j + 1, i + 1)
            out.append(area * ((1.0 - fb) * lower + fb * upper))
        return out

    def everett_array(self, alphas, betas):
        """E at the same points as ``everett``, as an array of the same
        floats: its clamp, cell search and interpolation as array
        expressions.  For the many points of a whole pulse train, where
        numpy's per-call cost is paid once."""
        i, fa = _cell_fractions(self.alpha_edges, alphas)
        j, fb = _cell_fractions(self.beta_edges, betas)
        p, row = self._prefix.ravel(), self.n_alpha + 1
        k = j * row + i  # the flat index of the cell's lower left node
        lower = (1.0 - fa) * p.take(k) + fa * p.take(k + 1)
        k += row
        upper = (1.0 - fa) * p.take(k) + fa * p.take(k + 1)
        return self._cell_area * ((1.0 - fb) * lower + fb * upper)

    def line_integral_extrema(self, axis, line_lo, line_hi, cut_end, resolution):
        """Extrema of the integral of mu along ``axis``, between 0 and a cut
        toward ``cut_end``, over the cells across (line_lo, line_hi).  The
        density is constant on each cell, so one line per cell and cuts at
        the cell edges and the two ends hit every extremum exactly; the
        lattice sets the scan, not ``resolution``.

        The cuts run below zero, on the mirrored axis for a cut end above
        it.  Each cell term is its value times the width of the cell between
        the far cut and zero, and one cumulative sum of the terms downward
        from zero gives the integral to every edge and to the far cut.  The
        cut at 0 gives 0, which enters the extrema as +0.0 ahead of every
        term, so a zero bound is +0.0.  A term or sum that overflows gives
        an infinite extremum, and one where +inf meets -inf gives NaN for
        both; ``sector_bounds`` refuses either.
        """
        if axis == "beta":
            line_edges, edges, cells = self.alpha_edges, self.beta_edges, self.values
        else:
            line_edges, edges, cells = self.beta_edges, self.alpha_edges, self.values.T
        across = np.flatnonzero((line_edges[1:] > line_lo) & (line_edges[:-1] < line_hi))
        if len(across) == 0:
            return 0.0, 0.0
        cells = cells[:, across[0]:across[-1] + 1]  # cut axis first, one column per line
        if cut_end > 0.0:
            edges, cells, cut_end = -edges[::-1], cells[::-1], -cut_end
        # from the far cut's cell up to the last cell below zero
        m = int(np.clip(np.searchsorted(edges, cut_end, side="right") - 1, 0, len(edges) - 2))
        top = min(int(np.searchsorted(edges, 0.0)), len(edges) - 1)
        widths = np.minimum(edges[m + 1:top + 1], 0.0) - np.maximum(edges[m:top], cut_end)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused
            terms = cells[m:top] * np.clip(widths, 0.0, None)[:, None]
            np.cumsum(terms[::-1], axis=0, out=terms[::-1])
        lo, hi = terms.min(initial=0.0), terms.max(initial=0.0)
        if math.isnan(lo):  # Python's min and max below would drop the NaN
            return math.nan, math.nan
        return float(min(0.0, lo)), float(max(0.0, hi))

    def sign_violation(self, q, sign):
        """Why the density has not the sign of ``sign`` on Q, or None: exact,
        every cell whose interior meets Q's interior is checked, alpha
        column by alpha column.  Those cells are a contiguous block of
        rows and columns, read as a view; the first column with a wrong
        cell, then its first wrong cell, come from argmax, so only a mask
        of the block is made, not a list of every wrong cell."""
        a, b = self.alpha_edges, self.beta_edges
        cols = np.flatnonzero((a[1:] > 0.0) & (a[:-1] < q.alpha2))
        rows = np.flatnonzero((b[1:] > q.beta2) & (b[:-1] < 0.0))
        if len(cols) == 0 or len(rows) == 0:
            return None
        i, j = cols[0], rows[0]
        cells = self.values[j:rows[-1] + 1, i:cols[-1] + 1]
        bad = cells < 0.0 if sign > 0.0 else cells > 0.0
        bad_cols = bad.any(axis=0)
        k = int(bad_cols.argmax())
        if not bad_cols[k]:
            return None
        i, j = i + k, j + int(bad[:, k].argmax())
        wrong = "negative" if sign > 0.0 else "positive"
        return "weighting is %s on Q in the cell [%g, %g] x [%g, %g]" % (
            wrong, a[i], a[i + 1], b[j], b[j + 1]
        )

    def abs_mass(self) -> float:
        da = np.diff(self.alpha_edges)
        db = np.diff(self.beta_edges)
        return float(db @ (np.abs(self.values) @ da))

    # -- CSV interchange ----------------------------------------------------

    @classmethod
    def load_csv(cls, path) -> "GridWeighting":
        with open(path, errors="replace") as fh:  # a stray byte fails as a bad field
            head = fh.readline().strip().split(",")
            lines = [line for line in fh if line.strip()]
        try:
            a_lo, a_hi, b_lo, b_hi = map(float, head[:4])
            n_alpha, n_beta = map(int, head[4:])
        except ValueError:  # not six fields, or one that is not a number
            raise ConfigurationError("bad grid CSV header in %s" % path) from None
        if not (np.isfinite([a_lo, a_hi, b_lo, b_hi]).all() and min(n_alpha, n_beta) >= 1):
            raise ConfigurationError("bad grid CSV header in %s" % path)
        if len(lines) != n_beta:
            raise ConfigurationError("bad grid CSV row count in %s" % path)
        try:
            rows = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
        except ValueError:
            # rows of unequal length, or a value that is not a number
            if any(line.count(",") != n_alpha - 1 for line in lines):
                raise ConfigurationError("bad grid CSV row length in %s" % path) from None
            raise ConfigurationError("bad grid CSV value in %s" % path) from None
        if rows.shape[1] != n_alpha:
            raise ConfigurationError("bad grid CSV row length in %s" % path)
        return cls(Box(a_lo, a_hi, b_lo, b_hi), rows)


@dataclass(frozen=True)
class GaussianComponent:
    """One signed Gaussian lobe truncated to its own rectangle."""

    amplitude: float
    center_alpha: float
    center_beta: float
    sigma_alpha: float
    sigma_beta: float
    box: Box


class GaussianWeighting:
    """Signed sum of truncated Gaussian lobes."""

    def __init__(self, components, support_box: Box = None):
        if not components:
            raise ConfigurationError("need at least one component")
        self.components = tuple(components)
        if support_box is None:
            support_box = Box(
                min(c.box.alpha_lo for c in components),
                max(c.box.alpha_hi for c in components),
                min(c.box.beta_lo for c in components),
                max(c.box.beta_hi for c in components),
            )
        for c in components:
            if not support_box.contains(c.box):
                raise ConfigurationError("component box escapes the support box")
        self.support_box = support_box
        # per component: amplitude and the constants along alpha and beta,
        # which E, the sector scan and abs_mass all read
        self._erf_terms = [
            (
                c.amplitude,
                _erf_constants(c.box.alpha_lo, c.box.alpha_hi, c.center_alpha, c.sigma_alpha),
                _erf_constants(c.box.beta_lo, c.box.beta_hi, c.center_beta, c.sigma_beta),
            )
            for c in self.components
        ]
        self.total_mass = self.everett([support_box.alpha_hi], [support_box.beta_hi])[0]
        _require_finite_mass(self, "Gaussian weighting")

    def eval(self, alphas, betas):
        """Sum of the lobes at every (alphas[r], betas[c]) of two 1-D float
        arrays, each lobe 0 outside its box, added into one lattice in
        component order."""
        alpha, beta = np.broadcast_arrays(alphas[:, None], betas[None, :])
        out = np.zeros(alpha.shape)
        for c in self.components:
            b = c.box
            inside = (b.alpha_lo <= alpha) & (alpha <= b.alpha_hi)
            inside &= (b.beta_lo <= beta) & (beta <= b.beta_hi)
            za = (alpha[inside] - c.center_alpha) / c.sigma_alpha
            zb = (beta[inside] - c.center_beta) / c.sigma_beta
            out[inside] += c.amplitude * _exp(-0.5 * (za * za + zb * zb))
        return out

    def everett(self, alphas, betas):
        """E(alphas[k], betas[k]) for every k, as a list of floats: per
        component, amplitude times the two erf segments.  Staircase corners
        repeat each coordinate, so every segment is computed once per
        distinct coordinate."""
        ua, ub = {}, {}
        ia = [ua.setdefault(a, len(ua)) for a in alphas]
        ib = [ub.setdefault(b, len(ub)) for b in betas]
        out = [0.0] * len(ia)
        for amp, along_alpha, along_beta in self._erf_terms:
            fa = _segments_from_lo(along_alpha, ua)
            fb = _segments_from_lo(along_beta, ub)
            out = [e + amp * fa[i] * fb[j] for e, i, j in zip(out, ia, ib)]
        return out

    def everett_array(self, alphas, betas):
        """E at the same points as ``everett``, as an array of the same
        floats: the segments once per distinct coordinate and the
        components added in order.  ``np.unique`` keeps one of +0.0 and
        -0.0 where ``everett`` keeps the first; a segment at either is the
        same float or a zero of either sign, and adding a signed zero to
        the running sum, which starts at +0.0, changes nothing."""
        ua, ia = np.unique(np.asarray(alphas, float), return_inverse=True)
        ub, ib = np.unique(np.asarray(betas, float), return_inverse=True)
        out = np.zeros(len(ia))
        for amp, along_alpha, along_beta in self._erf_terms:
            fa = _segments_from_lo_array(along_alpha, ua)
            fb = _segments_from_lo_array(along_beta, ub)
            out += amp * fa[ia] * fb[ib]
        return out

    def line_integral_extrema(self, axis, line_lo, line_hi, cut_end, resolution):
        """Extrema of the integral of mu along ``axis``, between 0 and a cut
        toward ``cut_end``, sampled on ``resolution`` lines across [line_lo,
        line_hi] and as many cuts, plus the two ends.

        Each component adds the outer product of its Gaussian profile across
        the lines and its erf segment up to each cut, in component order, so
        every entry is the same float as a per-point sum of the same terms.
        A component whose profile or segments are all zero is left out:
        entries start at +0.0 and a sum never becomes -0.0, so adding +-0.0
        changes nothing.  A box that holds no line, or whose range along the
        scan ends at or outside the cuts' range, is left out before any exp
        or erf: its profile or its segments are all +0.0.  In the subnormal
        range ``linspace`` can step past its ends, so the cuts are clipped
        to [cut_lo, cut_hi], the range the bound covers.  The profile takes
        exp at the lines inside the box only, and is +0.0 elsewhere.

        With one component left, every entry is 0.0 + p * s for a profile
        value p and a segment s.  The real product is bilinear, so its
        extremes over the lines and cuts lie at an extreme p and an extreme
        s; rounding is monotone, so the extreme entries are the rounded
        products at those four corners, and 0.0 + turns a -0.0 into +0.0 as
        the matrix sum does.  With more, ``SCAN_BLOCK_ROWS`` lines at a time
        go through one reused product buffer, which bounds the scan's memory.
        A product or sum that overflows gives an infinite extremum, and one
        where +inf meets -inf gives NaN for both; ``sector_bounds`` refuses
        either.
        """
        n = operator.index(resolution) if hasattr(resolution, "__index__") else 0
        if n < 2:
            raise ConfigurationError("resolution must be an integer >= 2, not %r" % (resolution,))
        cut_lo, cut_hi = min(0.0, cut_end), max(0.0, cut_end)
        lines = np.linspace(line_lo, line_hi, n)
        cuts = np.linspace(cut_lo, cut_hi, n)
        np.clip(cuts, cut_lo, cut_hi, out=cuts)  # subnormal steps can pass the ends
        cuts = np.append(cuts, (cut_lo, cut_hi))
        factors = []
        for amp, *constants in self._erf_terms:
            # the lines run across ``axis`` and the cuts along it
            across, along = constants if axis == "beta" else constants[::-1]
            if along[0] >= cut_hi or along[1] <= cut_lo:
                continue
            l_lo, l_hi, l_mid, l_sig = across[:4]
            inside = (l_lo <= lines) & (lines <= l_hi)
            if not inside.any():
                continue
            z = (lines[inside] - l_mid) / l_sig
            profile = np.zeros(n)
            profile[inside] = amp * _exp(-0.5 * z * z)
            if profile.any():
                segment = _segments_between(along, cuts)
                if segment.any():
                    factors.append((profile, segment))
        if len(factors) == 1:
            profile, segment = factors[0]
            corners = [0.0 + float(p) * float(s) for p in (profile.min(), profile.max())
                       for s in (segment.min(), segment.max())]
            return min(corners), max(corners)
        product = np.empty((min(SCAN_BLOCK_ROWS, n), len(cuts)))
        lo, hi = math.inf, -math.inf
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused
            for start in range(0, n, SCAN_BLOCK_ROWS):
                rows = slice(start, min(start + SCAN_BLOCK_ROWS, n))
                block = np.zeros((rows.stop - start, len(cuts)))
                for profile, segment in factors:
                    block += np.multiply.outer(profile[rows], segment, out=product[:len(block)])
                b_lo, b_hi = float(block.min()), float(block.max())
                if math.isnan(b_lo):  # Python's min and max below would drop the NaN
                    return math.nan, math.nan
                lo, hi = min(lo, b_lo), max(hi, b_hi)
        return lo, hi

    def sign_violation(self, q, sign):
        """Why the density may not have the sign of ``sign`` on Q, or None:
        conservative, no component whose box interior meets Q's interior
        has an amplitude of the other sign."""
        for k, c in enumerate(self.components):
            b = c.box
            meets_q = b.alpha_lo < q.alpha2 and b.alpha_hi > 0.0
            meets_q = meets_q and b.beta_lo < 0.0 and b.beta_hi > q.beta2
            if meets_q and sign * c.amplitude < 0.0:
                wrong = "negative" if sign > 0.0 else "positive"
                return "weighting component %d (amplitude %g) may be %s on Q" % (
                    k, c.amplitude, wrong
                )
        return None

    def abs_mass(self) -> float:
        # components with disjoint boxes make this exact; overlapping boxes
        # give an upper bound, which is the safe direction for tolerances
        total = 0.0
        for amp, along_alpha, along_beta in self._erf_terms:
            (fa,) = _segments_from_lo(along_alpha, [along_alpha[1]])
            (fb,) = _segments_from_lo(along_beta, [along_beta[1]])
            total += abs(amp) * fa * fb
        return total


def _require_finite_mass(mu, kind: str):
    """Refuse a field whose total or twice its absolute mass overflows:
    every output is read as twice the mass below the curve minus the total,
    and every tolerance scales with the absolute mass."""
    with np.errstate(over="ignore"):  # an overflow is what is refused
        abs_mass = mu.abs_mass()
    if not (math.isfinite(mu.total_mass) and math.isfinite(2.0 * abs_mass)):
        raise ConfigurationError(
            "%s mass is not finite, or twice it overflows: total %r, absolute %r"
            % (kind, mu.total_mass, abs_mass)
        )


def rect_mass(mu, a_lo, a_hi, b_lo, b_hi) -> float:
    """Mass of mu over [a_lo, a_hi] x [b_lo, b_hi], 0 when the rectangle is
    empty: a four-corner difference of E."""
    if a_hi <= a_lo or b_hi <= b_lo:
        return 0.0
    e = mu.everett([a_hi, a_lo, a_hi, a_lo], [b_hi, b_hi, b_lo, b_lo])
    return (e[0] - e[1]) - (e[2] - e[3])


def _grow(expansion, terms):
    """Exact sum of the floats of ``expansion`` and of ``terms``, as a new
    list of floats (an expansion; Shewchuk 1997, the ``msum`` recipe):
    every addition keeps its rounding error as a further float, so
    ``math.fsum`` of the result is ``math.fsum`` of all the inputs."""
    partials = list(expansion)
    for x in terms:
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]
    return partials


class OutputReader:
    """Relay-field output of one weighting, read incrementally along a
    sequence of interfaces.

    With corners (a_j, b_j) from the diagonal outward to the tail corner
    (a_n, b_n), the region below the curve is the union of the slabs
    [alpha_lo, a_j] x [b_{j+1}, b_j] and [alpha_lo, a_n] x [beta_lo, b_n],
    so its mass is, by Everett's identity,

        sum over j < n of E(a_j, b_j) - E(a_j, b_{j+1}),  plus E(a_n, b_n).

    A corner's terms depend only on the corner and the next one toward the
    tail; where b_j == b_{j+1} the two terms cancel exactly and are left
    out.  E clamps its arguments to the support box, so no corner needs
    clipping.

    The reader keeps, for each depth of the corner chain, the node it last
    saw there and an exact expansion of the terms of that node and every
    node behind it.  A push shares the surviving nodes by identity, so a
    read walks in from the head to the first node it has seen and evaluates
    E only for the nodes in front of it.  The expansion holds the exact sum
    and math.fsum rounds it correctly, so every read is the same float as
    ``math.fsum`` of all the terms, whatever the order of the pushes.
    """

    def __init__(self, mu):
        self.mu = mu
        self._seen = []  # per depth: (node, expansion of its terms to the tail)

    def below(self, iface: MemoryInterface) -> float:
        """Mass of mu below the memory curve of ``iface``."""
        if not iface.support_box.contains(self.mu.support_box):
            raise ConfigurationError(
                "interface support box does not contain the weighting support"
            )
        seen = self._seen
        node, new = iface.head, []
        while node is not None:
            depth = node[2]
            if depth < len(seen) and seen[depth][0] is node:
                break
            new.append(node)
            node = node[1]
        del seen[0 if node is None else node[2] + 1:]
        # the points of E each new node needs: E(a_j, b_j) and E(a_j, b_{j+1})
        # where the next corner is lower, E(a_n, b_n) at a tail above the
        # field's beta_lo (at or below it, E is +0.0 on every field)
        alphas, betas = [], []
        tail = False
        for (a, b), nxt, _ in new:
            if nxt is None:
                tail = b > self.mu.support_box.beta_lo
                if tail:
                    alphas.append(a)
                    betas.append(b)
            elif nxt[0][1] != b:
                alphas += (a, a)
                betas += (b, nxt[0][1])
        e = self.mu.everett(alphas, betas) if alphas else ()  # a repeated read adds no point
        # the nodes from the tail side in, each one's terms from the end of e
        expansion = seen[-1][1] if seen else []
        end = len(e)
        for node in reversed(new):
            nxt = node[1]
            if nxt is None:
                terms = (e[end - 1],) if tail else ()
                end -= len(terms)
            elif nxt[0][1] != node[0][1]:
                terms = (e[end - 2], -e[end - 1])
                end -= 2
            else:
                terms = ()
            if terms:
                expansion = _grow(expansion, terms)
            seen.append((node, expansion))
        return math.fsum(expansion)

    def read(self, iface: MemoryInterface) -> float:
        """Output of ``iface``: mass below the curve minus mass above it."""
        return 2.0 * self.below(iface) - self.mu.total_mass

    def read_slabs(self, survivors, e, end: MemoryInterface) -> list:
        """Outputs of the pushes, one or more, of a ramp from the last
        curve read, whose heads link to ``survivors``, with ``e`` the values
        of E at the heads' slab points (``MemoryInterface.ramp_slabs``), two
        per head; then the reader keeps ``end``, the state after the last
        push.  From an iterator, ``e`` is consumed as far as the heads go,
        so a caller can pass the points of a whole train ramp after ramp.

        ``math.fsum`` of the survivor's expansion and the slab's two terms
        rounds their exact sum correctly, so every output is the float
        ``read`` gives.  The heads of a ramp that link to one survivor come
        in a run, which looks it up once and fills the slab's two terms
        into one list.  A head with no survivor (None) is the whole curve
        (v, v), (v, b), whose full read sums to E(v, v).  An ``end`` that
        wiped every corner keeps that read's terms, from the last slab's E;
        one whose seam links to the last survivor takes its expansion grown
        by the last slab's terms, at the seam and the head after a fall, at
        the head only after a rise, where the seam shares the head's alpha.
        """
        seen, total, fsum = self._seen, self.mu.total_mass, math.fsum
        e = iter(e)
        out = []
        last = terms = None
        for survivor, e1, e2 in zip(survivors, e, e):
            if survivor is None:
                out.append(2.0 * e1 - total)
                continue
            if survivor is not last:  # a run of heads on one survivor shares its terms
                node, expansion = seen[survivor[2]] if survivor[2] < len(seen) else (None, None)
                if node is not survivor:
                    raise ValueError("head is not linked to the last curve read")
                last, terms = survivor, expansion + [0.0, 0.0]
            terms[-2] = e1
            terms[-1] = -e2
            out.append(2.0 * fsum(terms) - total)
        head, seam = end.head, end.head[1]
        if survivor is None:
            # the terms ``below`` sums for the curve (v, v), (v, b) the push leaves:
            # E(v, b) at a tail above the field's beta_lo, then the head's slab
            tail = [e2] if (seam or head)[0][1] > self.mu.support_box.beta_lo else []
            seen[:] = [(seam, tail), (head, _grow(tail, (e1, -e2)))] if seam else [(head, tail)]
        elif seam is None or seam[1] is not survivor:
            raise ValueError("ramp end is not linked to the last survivor")
        else:
            grown = _grow(expansion, (e1, -e2))
            del seen[survivor[2] + 1:]
            seen += ((seam, expansion if seam[0][0] == head[0][0] else grown), (head, grown))
        return out


def evaluate_output(mu, iface: MemoryInterface) -> float:
    """Relay-field output: mass below the curve minus mass above it."""
    return OutputReader(mu).read(iface)


@dataclass(frozen=True)
class QRegion:
    """Box [0, alpha2] x [beta2, 0] on which the density is sign-definite."""

    alpha2: float
    beta2: float

    def __post_init__(self):
        if not (self.alpha2 > 0.0 and self.beta2 < 0.0):
            raise ConfigurationError("need alpha2 > 0 and beta2 < 0")


@dataclass(frozen=True)
class SectorBounds:
    """Extremal secant slopes of the remnant with respect to pulse amplitude."""

    gamma1_plus: float
    gamma2_plus: float
    gamma1_minus: float
    gamma2_minus: float
    gamma2_plus_q: float
    gamma1_minus_q: float
    gamma1_plus_q: float
    gamma2_minus_q: float


def sector_bounds(mu, q: QRegion, resolution: int = 512) -> SectorBounds:
    """Sector-bound constants for the remnant response of ``mu``.

    The general bounds scan the whole support inside the quadrant
    alpha >= 0 >= beta; the Q-restricted variants scan only Q.  Grid fields
    are resolved exactly at their own lattice; the resolution controls the
    scan density for analytic fields (``line_integral_extrema``).  A bound
    is twice a line integral, which can overflow on a field of finite mass:
    a non-finite bound gives no gain cap and is refused.
    """
    box = mu.support_box
    if box.alpha_hi < 0.0 or box.beta_lo > 0.0:
        raise EmptyIntersectionError("weighting support misses the quadrant")
    a_lo = max(0.0, box.alpha_lo)
    a_hi = box.alpha_hi
    b_lo = min(0.0, box.beta_lo)

    qa_hi = min(q.alpha2, a_hi)
    qb_lo = max(q.beta2, b_lo)
    scans = [
        ("beta", a_lo, a_hi, b_lo),
        ("alpha", b_lo, min(0.0, box.beta_hi), a_hi),
        ("beta", a_lo, qa_hi, qb_lo),
        ("alpha", qb_lo, 0.0, qa_hi),
    ]
    # where Q covers the quadrant part of the support, the Q scans are the
    # general ones and run once: q's limits are nonzero, so equal limits
    # are the same floats, signed zeros included
    extrema = {s: mu.line_integral_extrema(*s, resolution) for s in dict.fromkeys(scans)}
    (f_lo, f_hi), (g_lo, g_hi), (fq_lo, fq_hi), (gq_lo, gq_hi) = map(extrema.get, scans)

    bounds = SectorBounds(
        gamma1_plus=2.0 * f_lo,
        gamma2_plus=2.0 * f_hi,
        gamma1_minus=2.0 * g_hi,
        gamma2_minus=2.0 * g_lo,
        gamma2_plus_q=2.0 * fq_hi,
        gamma1_minus_q=2.0 * gq_hi,
        gamma1_plus_q=2.0 * fq_lo,
        gamma2_minus_q=2.0 * gq_lo,
    )
    for name, value in vars(bounds).items():
        if not math.isfinite(value):
            raise DegenerateBoundsError("sector bound %s is %r: a slope overflows" % (name, value))
    return bounds


def make_butterfly(scale: float = 1.0):
    """The butterfly preset and its Q region, (field, q_region): one positive
    lobe on Q and two negative lobes whose boxes miss Q, so the density is
    nonnegative there, all scaled by a common coordinate factor."""
    s = float(scale)
    if s <= 0:
        raise ConfigurationError("scale must be positive")
    q = QRegion(s, -s)
    # wide in alpha, narrow in beta: keeps the per-pulse slope inside a
    # narrow band relative to the gain cap, so admissible gains converge
    # monotonically without dead-zone stalls
    pos = GaussianComponent(
        amplitude=3.0,
        center_alpha=0.55 * s,
        center_beta=-0.5 * s,
        sigma_alpha=0.8 * s,
        sigma_beta=0.18 * s,
        box=Box(0.0, s, -s, 0.0),
    )
    neg_low = GaussianComponent(
        amplitude=-1.2,
        center_alpha=-0.3 * s,
        center_beta=-0.87 * s,
        sigma_alpha=0.15 * s,
        sigma_beta=0.1 * s,
        box=Box(-0.7 * s, -0.05 * s, -1.0 * s, -0.75 * s),
    )
    neg_high = GaussianComponent(
        amplitude=-1.2,
        center_alpha=0.8 * s,
        center_beta=0.25 * s,
        sigma_alpha=0.12 * s,
        sigma_beta=0.12 * s,
        box=Box(0.55 * s, 1.0 * s, 0.05 * s, 0.5 * s),
    )
    support = Box(-0.7 * s, 1.0 * s, -1.0 * s, 0.5 * s)
    return GaussianWeighting([pos, neg_low, neg_high], support_box=support), q


def uniform_field(q: QRegion = QRegion(1.0, -1.0), value: float = 1.0) -> GridWeighting:
    """Constant density on the Q box (single exact cell)."""
    return GridWeighting(Box(0.0, q.alpha2, q.beta2, 0.0), [[value]])
