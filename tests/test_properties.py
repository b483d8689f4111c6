"""Property tests of the Everett corner sums, the incremental output reads,
the batched reads along a ramp and the head-only staircase update, each
against a reference kept in this file."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preisach_remnant import (
    Box,
    GaussianComponent,
    GaussianWeighting,
    GridWeighting,
    MemoryInterface,
    dense_response,
    evaluate_output,
)
from preisach_remnant.interface import VERTEX_MERGE_TOL, _canonical_corners
from preisach_remnant.weighting import OutputReader, _grow, rect_mass

from conftest import cell_sum

#: derandomized so the suite gives the same verdict on every run
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)

BOX = Box(-0.5, 1.0, -1.0, 0.5)


# -- histories ------------------------------------------------------------------

#: an input value anywhere, also outside the box on either side
anywhere = st.floats(-1.6, 1.6, allow_nan=False)
#: an earlier value again, moved by a multiple of the merge tolerance
repeat = st.tuples(st.integers(0, 10**6), st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]))


@st.composite
def histories(draw):
    """A nested swing, each reversal a fraction of the last one, which
    builds a deep staircase, with values anywhere and repeats put in."""
    ratios = draw(st.lists(st.floats(0.3, 0.95), min_size=4, max_size=40))
    ops = [("nest", r) for r in ratios]
    for op in draw(st.lists(st.one_of(anywhere, repeat), max_size=12)):
        ops.insert(draw(st.integers(0, len(ops))), op)
    return ops


def input_values(ops):
    """The input values a history of ``ops`` describes."""
    values = []
    for op in ops:
        if isinstance(op, float):
            v = op
        elif op[0] == "nest":
            v = -op[1] * (values[-1] if values else 1.0)
        else:
            index, shift = op
            v = (values[index % len(values)] if values else 0.0) + shift * VERTEX_MERGE_TOL
        values.append(v)
    return values


def reference_push(iface, v):
    """push_extremum with every corner canonicalised."""
    v0 = iface.current_value
    if abs(v - v0) <= VERTEX_MERGE_TOL:
        return iface.corners
    if v > v0:
        surv = [c for c in iface.corners if c[0] > v]
        raw = [(v, v), (v, surv[0][1])] + surv if surv else [(v, v)]
    else:
        surv = [c for c in iface.corners if c[1] < v]
        raw = [(v, v), (surv[0][0], v)] + surv if surv else [(v, v)]
    return _canonical_corners(raw, iface.support_box)


@pytest.mark.parametrize("plays", [1, 2, 4])
@PROPERTY
@given(ops=histories())
def test_head_only_push_equals_full_canonicalisation(plays, ops):
    """Pushes that link a new head to the survivors, and those that fall
    back to the full canonicalisation (values outside the box, repeats
    within the merge tolerance), give the corners of a full
    canonicalisation, also when the history is played again and its
    values land on corners already in the staircase."""
    iface = MemoryInterface.virgin(BOX)
    for v in input_values(ops) * plays:
        expected = reference_push(iface, v)
        iface = iface.push_extremum(v)
        assert iface.corners == expected


# -- fields -----------------------------------------------------------------------


@st.composite
def boxes(draw):
    a_lo = draw(st.floats(-1.0, 0.5))
    b_lo = draw(st.floats(-1.5, 0.0))
    return Box(a_lo, a_lo + draw(st.floats(0.1, 2.0)), b_lo, b_lo + draw(st.floats(0.1, 2.0)))


@st.composite
def grids(draw):
    box = draw(boxes())
    n_alpha, n_beta = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    value = st.floats(-2.0, 2.0, allow_nan=False)
    rows = draw(st.lists(st.lists(value, min_size=n_alpha, max_size=n_alpha),
                         min_size=n_beta, max_size=n_beta))
    return GridWeighting(box, rows)


@st.composite
def gaussian_sums(draw):
    support = draw(boxes())
    components = []
    for _ in range(draw(st.integers(1, 3))):
        box = []
        for lo, hi in ((support.alpha_lo, support.alpha_hi), (support.beta_lo, support.beta_hi)):
            f_lo = draw(st.floats(0.0, 0.9))
            f_hi = draw(st.floats(f_lo + 0.05, 1.0))
            box += [lo + f_lo * (hi - lo), lo + f_hi * (hi - lo)]
        components.append(GaussianComponent(
            amplitude=draw(st.floats(-3.0, 3.0)),
            center_alpha=draw(st.floats(support.alpha_lo, support.alpha_hi)),
            center_beta=draw(st.floats(support.beta_lo, support.beta_hi)),
            sigma_alpha=draw(st.floats(0.05, 1.0)),
            sigma_beta=draw(st.floats(0.05, 1.0)),
            box=Box(*box),
        ))
    return GaussianWeighting(components, support_box=support)


def erf_sum(mu, a_lo, a_hi, b_lo, b_hi):
    """Mass of a Gaussian sum over a rectangle, component by component."""

    def segment(center, sigma, lo, hi):
        if hi <= lo:
            return 0.0
        s = sigma * math.sqrt(2.0)
        return sigma * math.sqrt(math.pi / 2.0) * (math.erf((hi - center) / s) - math.erf((lo - center) / s))

    total = 0.0
    for c in mu.components:
        ga = segment(c.center_alpha, c.sigma_alpha, max(a_lo, c.box.alpha_lo), min(a_hi, c.box.alpha_hi))
        gb = segment(c.center_beta, c.sigma_beta, max(b_lo, c.box.beta_lo), min(b_hi, c.box.beta_hi))
        total += c.amplitude * ga * gb
    return total


def rectangle_output(mu, iface, mass):
    """Output as the sum over the rectangles under the staircase steps,
    clipped to the support box, each integrated by ``mass``."""
    box = mu.support_box
    below = 0.0
    for lo, hi, level in iface.steps():
        a_lo, a_hi = max(lo, box.alpha_lo), min(hi, box.alpha_hi)
        b_hi = min(level, box.beta_hi)
        if a_hi > a_lo and b_hi > box.beta_lo:
            below += mass(mu, a_lo, a_hi, box.beta_lo, b_hi)
    return 2.0 * below - mass(mu, box.alpha_lo, box.alpha_hi, box.beta_lo, box.beta_hi)


def inputs_on(box, ops):
    """The inputs of ``ops``, mapped from [-1.6, 1.6] onto the box's span
    widened by half of it on either side."""
    span = box.alpha_hi - box.beta_lo
    return [box.beta_lo + (v / 1.6 + 0.5) * span for v in input_values(ops)]


def history_on(box, ops):
    """Interface after the inputs of ``ops`` mapped onto the box."""
    iface = MemoryInterface.virgin(box)
    for v in inputs_on(box, ops):
        iface = iface.push_extremum(v)
    return iface


def assert_close(got, expected, mu):
    """Within 1e-12 of the field's absolute mass; the smallest normal float
    is the floor, because products that underflow into subnormals keep no
    relative precision in either sum."""
    assert abs(got - expected) <= 1e-12 * mu.abs_mass() + sys.float_info.min


@PROPERTY
@given(mu=grids(), ops=histories())
def test_grid_output_matches_the_rectangle_sum(mu, ops):
    iface = history_on(mu.support_box, ops)
    got = evaluate_output(mu, iface)
    assert type(got) is float
    assert_close(got, rectangle_output(mu, iface, cell_sum), mu)


@PROPERTY
@given(mu=gaussian_sums(), ops=histories())
def test_gaussian_output_matches_the_rectangle_sum(mu, ops):
    iface = history_on(mu.support_box, ops)
    got = evaluate_output(mu, iface)
    assert type(got) is float
    assert_close(got, rectangle_output(mu, iface, erf_sum), mu)


@PROPERTY
@given(mu=grids(), corners=st.lists(st.floats(-2.5, 2.5), min_size=4, max_size=4))
def test_grid_rect_mass_matches_the_cell_sum(mu, corners):
    """Rectangles also reach past the box or are empty."""
    a_lo, a_hi, b_lo, b_hi = corners
    assert_close(rect_mass(mu, a_lo, a_hi, b_lo, b_hi), cell_sum(mu, a_lo, a_hi, b_lo, b_hi), mu)


# -- incremental reads ----------------------------------------------------------


def corner_run_output(mu, iface):
    """Output as fsum of the Everett terms by horizontal run: E(a_0, b_0),
    and E(a_k, b_k) - E(a_{k-1}, b_k) for every k with a_k != a_{k-1}."""
    c = iface.corners
    runs = [k for k in range(1, len(c)) if c[k][0] != c[k - 1][0]]
    e = mu.everett([c[0][0]] + [c[k][0] for k in runs] + [c[k - 1][0] for k in runs],
                   [c[0][1]] + [c[k][1] for k in runs] * 2)
    return 2.0 * math.fsum(e[:len(runs) + 1] + [-x for x in e[len(runs) + 1:]]) - mu.total_mass


@pytest.mark.parametrize("stride", [1, 2, 4])
@PROPERTY
@given(mu=st.one_of(grids(), gaussian_sums()), ops=histories())
def test_incremental_reads_equal_full_reads(stride, mu, ops):
    """A reader's output after every ``stride`` pushes is the full Everett
    sum, also after a push that falls back to the full canonicalisation and
    builds every corner afresh, and the same float as the sum by horizontal
    run.  Reads that skip pushes must catch up over nodes the reader never
    saw."""
    reader = OutputReader(mu)
    iface = MemoryInterface.virgin(mu.support_box)
    assert reader.read(iface) == evaluate_output(mu, iface)
    for i, v in enumerate(inputs_on(mu.support_box, ops)):
        iface = iface.push_extremum(v)
        if i % stride != stride - 1:
            continue
        got = reader.read(iface)
        assert type(got) is float
        assert got == evaluate_output(mu, iface) == corner_run_output(mu, iface)


# -- ramps -------------------------------------------------------------------------


#: a step along a ramp: up to 0.3, or a few merge tolerances, or none
ramp_step = st.one_of(
    st.floats(0.0, 0.3),
    st.sampled_from([0.5, 1.0, 1.5, 2.0, 4.0]).map(lambda k: k * VERTEX_MERGE_TOL),
)


@PROPERTY
@given(ops=histories(), rising=st.booleans(), steps=st.lists(ramp_step, min_size=1, max_size=30))
def test_ramp_heads_are_the_heads_of_single_pushes(ops, rising, steps):
    """Each head of a ramp is the head of the pushes of the ramp one after
    another and of its value pushed directly.  The ramp stops only where
    the next push links no new head to the survivors either: it is a no-op
    or builds a chain that shares no node with the one before."""
    iface = MemoryInterface.virgin(BOX)
    for v in input_values(ops):
        iface = iface.push_extremum(v)
    values = [iface.current_value]
    for step in steps:
        values.append(values[-1] + (step if rising else -step))
    heads = iface.ramp_heads(values, 1)
    chained = iface
    for v, head in zip(values[1:], heads):
        chained = chained.push_extremum(v)
        assert chained.head == head
        assert iface.push_extremum(v).head == head
    if len(heads) < len(steps):
        nxt = chained.push_extremum(values[len(heads) + 1])
        assert nxt is chained or not chain_ids(nxt) & chain_ids(chained)


def chain_ids(iface):
    """Identities of the nodes of an interface's chain."""
    node, ids = iface.head, set()
    while node is not None:
        ids.add(id(node))
        node = node[1]
    return ids


def per_sample_response(mu, iface, u):
    """Output after each input sample, pushed and read one at a time."""
    reader = OutputReader(mu)
    out = []
    for v in u:
        iface = iface.push_extremum(v)
        out.append(reader.read(iface))
    return out


@st.composite
def pulse_trains(draw):
    """A field, an initial interface and a pulse train: amplitudes anywhere
    (also past the box), zero pulses and repeats within a few merge
    tolerances, at odd and even samples per pulse."""
    mu = draw(st.one_of(grids(), gaussian_sums()))
    box = mu.support_box
    iface = history_on(box, draw(histories())) if draw(st.booleans()) else MemoryInterface.virgin(box)
    amplitudes = inputs_on(box, draw(histories()))
    for i in draw(st.lists(st.integers(0, len(amplitudes) - 1), max_size=4)):
        amplitudes[i] = 0.0
    return mu, iface, amplitudes, draw(st.integers(2, 16))


@PROPERTY
@given(case=pulse_trains())
def test_dense_response_equals_per_sample_reads(case):
    mu, iface, amplitudes, samples_per_pulse = case
    _, u, y = dense_response(mu, iface, amplitudes, 1.0, 1.0 / samples_per_pulse)
    expected = per_sample_response(mu, iface, u.tolist())
    assert [x.hex() for x in y.tolist()] == [x.hex() for x in expected]


# -- exact expansions ------------------------------------------------------------

#: magnitudes from subnormal to 1e300, so that sums of a few dozen stay finite
wide = st.one_of(
    st.floats(-1e300, 1e300, allow_nan=False),
    st.floats(-1e-300, 1e-300, allow_nan=False),
    st.integers(-60, 60).map(lambda k: math.ldexp(1.0, k)),
)


@st.composite
def cancelling_terms(draw):
    """Terms of wide magnitudes with some of them added again negated,
    some nudged by an ulp, in any order, cut into groups of 0 to 3."""
    terms = draw(st.lists(wide, max_size=30))
    for t in draw(st.lists(st.sampled_from(terms), max_size=10)) if terms else []:
        terms.append(-draw(st.sampled_from([t, math.nextafter(t, math.inf)])))
    terms = draw(st.permutations(terms))
    groups = []
    while terms:
        k = draw(st.integers(0, 3))
        groups.append(terms[:k])
        terms = terms[k:]
    return groups


@PROPERTY
@given(groups=cancelling_terms())
def test_expansion_fsum_equals_fsum_of_the_terms(groups):
    """Growing an expansion group by group, as a reader does node by node,
    keeps the exact sum, and leaves the expansions it grew from as they
    were."""
    expansion, terms = [], []
    for group in groups:
        before = list(expansion)
        grown = _grow(expansion, group)
        assert expansion == before
        expansion = grown
        terms += group
        assert math.fsum(expansion).hex() == math.fsum(terms).hex()


# -- grid E in plain floats -------------------------------------------------------


def numpy_everett(mu, alphas, betas):
    """Grid E at arrays of points: clip, searchsorted and the bilinear
    interpolation of the prefix table, as numpy array expressions."""

    def cell_fractions(edges, x):
        x = np.clip(np.asarray(x, float), edges[0], edges[-1])
        idx = np.minimum(np.searchsorted(edges, x, side="right") - 1, len(edges) - 2)
        return idx, (x - edges[idx]) / (edges[idx + 1] - edges[idx])

    p = np.zeros((mu.n_beta + 1, mu.n_alpha + 1))
    p[1:, 1:] = np.cumsum(np.cumsum(mu.values, axis=0), axis=1)
    box = mu.support_box
    area = (box.alpha_hi - box.alpha_lo) / mu.n_alpha * ((box.beta_hi - box.beta_lo) / mu.n_beta)
    i, fa = cell_fractions(mu.alpha_edges, alphas)
    j, fb = cell_fractions(mu.beta_edges, betas)
    lower = (1.0 - fa) * p[j, i] + fa * p[j, i + 1]
    upper = (1.0 - fa) * p[j + 1, i] + fa * p[j + 1, i + 1]
    return (area * ((1.0 - fb) * lower + fb * upper)).tolist()


#: box bounds that put an edge at a signed zero, inside the box or on it
ZERO_EDGE_LO = st.one_of(st.sampled_from([0.0, -0.0, -0.5, -1.0]), st.floats(-1.0, 0.5))
ZERO_EDGE_HI = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0]), st.floats(-0.5, 1.0))


@st.composite
def grids_and_points(draw):
    """A grid whose box may have an edge at +0.0 or -0.0, and points on its
    cell edges, at signed zeros, outside the box and anywhere."""
    a_lo = draw(ZERO_EDGE_LO)
    b_hi = draw(ZERO_EDGE_HI)
    a_hi = draw(st.one_of(st.sampled_from([-a_lo, 1.0]), st.floats(0.1, 2.0).map(lambda w: a_lo + w)))
    b_lo = draw(st.one_of(st.sampled_from([-b_hi, -1.0]), st.floats(0.1, 2.0).map(lambda w: b_hi - w)))
    if not (a_hi > a_lo and b_hi > b_lo):
        a_hi, b_lo = a_lo + 1.0, b_hi - 1.0
    n_alpha, n_beta = draw(st.sampled_from([1, 2, 4, 7])), draw(st.sampled_from([1, 2, 4, 7]))
    value = st.floats(-2.0, 2.0, allow_nan=False)
    rows = draw(st.lists(st.lists(value, min_size=n_alpha, max_size=n_alpha),
                         min_size=n_beta, max_size=n_beta))
    mu = GridWeighting(Box(a_lo, a_hi, b_lo, b_hi), rows)

    def coordinate(edges):
        lo, hi = edges[0], edges[-1]
        return st.one_of(
            st.sampled_from(edges),
            st.sampled_from([0.0, -0.0, lo - 1.0, hi + 1.0]),
            st.floats(lo - 1.0, hi + 1.0),
        )

    n = draw(st.integers(1, 12))
    alphas = draw(st.lists(coordinate(mu.alpha_edges.tolist()), min_size=n, max_size=n))
    betas = draw(st.lists(coordinate(mu.beta_edges.tolist()), min_size=n, max_size=n))
    return mu, alphas, betas


@PROPERTY
@given(case=grids_and_points())
def test_grid_everett_is_bit_equal_to_the_array_formula(case):
    mu, alphas, betas = case
    got = mu.everett(alphas, betas)
    assert all(type(e) is float for e in got)
    assert [e.hex() for e in got] == [e.hex() for e in numpy_everett(mu, alphas, betas)]
