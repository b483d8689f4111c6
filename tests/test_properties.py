"""Property tests of the Everett corner sums, the incremental output reads,
the batched reads along a ramp and the head-only staircase update, each
against a reference kept in this file, of the exact scaling of every
answer under a power-of-two rescale of the field, of the controller's
non-expansion on random grids below the gain cap, and of the remnants
``simulate`` writes at every sampling rate."""

import math
import os
import sys
import tempfile
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from preisach_remnant import (
    Box,
    ConfigurationError,
    ControllerConfig,
    GaussianComponent,
    GaussianWeighting,
    GridWeighting,
    MemoryInterface,
    QRegion,
    dense_response,
    evaluate_output,
    make_butterfly,
    max_gain,
    premised_bounds,
    pulse_remnants,
    remnant,
    remnant_extrema,
    run_controller,
    sector_bounds,
    uniform_field,
    validate_initial_interface,
)
from preisach_remnant import cli
from preisach_remnant.interface import VERTEX_MERGE_TOL, _canonical_corners
from preisach_remnant.weighting import OutputReader, _grow, rect_mass

from conftest import cell_sum, full_range_repair

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


@pytest.mark.parametrize(
    "values", [[-0.5, 2e-12, -0.25, 1e-12], [0.5, -2e-12, 0.25, -1e-12]], ids=["rise", "fall"]
)
def test_a_push_exactly_one_tolerance_inside_its_survivor_canonicalises(values):
    """The last push lands exactly VERTEX_MERGE_TOL inside the corner of
    its survivor, (2e-12, -0.25) after the rise and (0.25, -2e-12) after
    the fall.  The seam rule is strict there: the seam corner merges with
    the survivor, so the push must give a full canonicalisation."""
    assert 2e-12 - 1e-12 == VERTEX_MERGE_TOL  # exact: 2e-12 is twice 1e-12 in binary too
    iface = MemoryInterface.virgin(BOX)
    for v in values:
        expected = reference_push(iface, v)
        iface = iface.push_extremum(v)
        assert iface.corners == expected


#: a shift within the merge tolerance, and one of a few tolerances
jitter = st.sampled_from([-0.4, -0.2, 0.0, 0.2, 0.4]).map(lambda k: k * VERTEX_MERGE_TOL)
near = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]).map(lambda k: k * VERTEX_MERGE_TOL)


@PROPERTY
@given(ops=histories(), data=st.data())
def test_pushes_onto_jittered_corners_never_raise(ops, data):
    """A history's corners, each two in a row made to share the coordinate
    they share within the merge tolerance, then each coordinate moved by up
    to 0.4 tolerances, so that they share it within the tolerance only:
    ``from_corners`` takes the list, and pushes to values anywhere or
    within a few tolerances of a corner's coordinate, where corners merge
    in chains, never raise."""
    iface = MemoryInterface.virgin(BOX)
    for v in input_values(ops):
        iface = iface.push_extremum(v)
    exact = [iface.corners[0]]
    for a, b in iface.corners[1:]:
        a1, b1 = exact[-1]
        exact.append((a1, b) if abs(a - a1) <= VERTEX_MERGE_TOL else (a, b1))
    iface = MemoryInterface.from_corners([(a + data.draw(jitter), b + data.draw(jitter)) for a, b in exact], BOX)
    for _ in range(data.draw(st.integers(1, 12))):
        if data.draw(st.booleans()):
            v = data.draw(anywhere)
        else:
            v = data.draw(st.sampled_from(iface.corners))[data.draw(st.integers(0, 1))] + data.draw(near)
        iface = iface.push_extremum(v)


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


def head_slab(head):
    """(alphas, betas, survivor) of a head that links a diagonal corner and a
    seam corner to a survivor: the two points of E of its one slab, below
    the diagonal corner down to the seam after a rise and below the seam
    down to the survivor after a fall."""
    (v, _), ((a, b), survivor, _), _ = head
    if b != v:  # a rise
        return [v, v], [v, b], survivor
    return [a, a], [v, survivor[0][1]], survivor


def hexes(xs):
    return [x.hex() for x in xs]


def wipes_every_corner(iface, v):
    """Whether a push of ``iface`` to v leaves no corner standing."""
    if v > iface.current_value:
        return all(a <= v for a, _ in iface.corners)
    return all(b >= v for _, b in iface.corners)


@PROPERTY
@given(ops=histories(), rising=st.booleans(), steps=st.lists(ramp_step, min_size=1, max_size=30))
# from 0.0625: a rise that links, then wipes every corner and goes past
# alpha_hi; a fall that links four times, then wipes every corner below beta_lo
@example(ops=[("nest", 0.5)] * 4, rising=True, steps=[0.1, 0.1, 0.2, 0.3, 0.3])
@example(ops=[("nest", 0.5)] * 4, rising=False, steps=[0.1, 0.3, 0.3, 0.3, 0.3, 0.3])
# from 1.5, past alpha_hi: a fall that wipes every corner below beta_lo and
# is walked on; a fall back into the box, which links nothing and is not walked
@example(ops=[("nest", 0.5)] * 4 + [1.5], rising=False, steps=[2.75, 0.25, 0.25])
@example(ops=[("nest", 0.5)] * 4 + [1.5], rising=False, steps=[1.0, 0.25])
def test_ramp_slabs_are_those_of_single_pushes(ops, rising, steps):
    """The walk takes the samples that, pushed one after another, each move
    the input and either wipe every corner, from any start, or link a new
    head to the chain before, from a start in the box; it stops at a
    no-op or at a push that does neither (the seam rule fails, or the
    start lies outside the box).  For every walked sample, the last one
    too, the slab points and survivor are, bit for bit, those of the head
    that the pushes one after another build, and that pushing its value
    directly builds; a sample that wipes every corner has no survivor and
    the points (v, v), (v, min(beta_lo, v)) of the whole curve it leaves.
    The interface returned is that of the last walked push, or the full
    canonicalisation of the first push when nothing is walked.  Steps of a
    few merge tolerances and values past the box on either side are
    drawn."""
    iface = MemoryInterface.virgin(BOX)
    for v in input_values(ops):
        iface = iface.push_extremum(v)
    values = [iface.current_value]
    for step in steps:
        values.append(values[-1] + (step if rising else -step))
    alphas, betas, survivors, last = iface.ramp_slabs(values, 1)
    assert len(alphas) == len(betas) == 2 * len(survivors)

    chained, walked = iface, 0
    in_box = BOX.beta_lo <= iface.current_value <= BOX.alpha_hi
    for k, v in enumerate(values[1:]):
        nxt = chained.push_extremum(v)
        wiped = wipes_every_corner(chained, v)
        links = in_box and chain_ids(nxt) & chain_ids(chained)
        if nxt is chained or not (wiped or links):
            break
        assert reference_push(chained, v) == reference_push(iface, v)
        assert wiped == wipes_every_corner(iface, v)
        chained, walked = nxt, walked + 1
        assert iface.push_extremum(v).head == chained.head
        if wiped:
            a, b, survivor = [v, v], [v, min(BOX.beta_lo, v)], None
        else:
            a, b, survivor = head_slab(chained.head)
        assert hexes(alphas[2 * k:2 * k + 2]) == hexes(a)
        assert hexes(betas[2 * k:2 * k + 2]) == hexes(b)
        assert survivors[k] is survivor
    assert len(survivors) == walked
    if walked:
        assert last.head == chained.head
    else:
        assert last.corners == reference_push(iface, values[1])


@PROPERTY
@given(ops=histories(), rising=st.booleans(), steps=st.lists(ramp_step, min_size=1, max_size=30))
# from 0.0625: steps of 0.6 merge tolerances, so only every other push moves
# the input, and the last sample does not
@example(ops=[("nest", 0.5)] * 4, rising=True, steps=[0.1] + [0.6 * VERTEX_MERGE_TOL] * 5)
# from 1.5, past alpha_hi: a fall back into the box and on down past beta_lo
@example(ops=[("nest", 0.5)] * 4 + [1.5], rising=False, steps=[0.25, 0.5, 0.25, 1.0, 0.25])
def test_a_sampled_monotone_ramp_ends_in_a_direct_push(ops, rising, steps):
    """Pushing the samples of a monotone ramp one after another ends in the
    state of one push, from the ramp's start, to the last sample that moved
    the input by more than the merge tolerance: the wiping-out property,
    tolerance included.  Steps of a few merge tolerances and values past
    the box on either side are drawn."""
    iface = MemoryInterface.virgin(BOX)
    for v in input_values(ops):
        iface = iface.push_extremum(v)
    sampled, moved, v = iface, None, iface.current_value
    for step in steps:
        v += step if rising else -step
        pushed = sampled.push_extremum(v)
        if pushed is not sampled:
            sampled, moved = pushed, v
    if moved is None:
        assert sampled is iface
    else:
        assert sampled.head == iface.push_extremum(moved).head


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
    assert [x.hex() for x in y] == [x.hex() for x in expected]


@st.composite
def remnant_trains(draw):
    """A field, an initial interface at zero input and a pulse train for
    ``simulate``: amplitudes in the box, zero pulses and repeats of earlier
    amplitudes within a few merge tolerances, and in half the trains one
    amplitude past the box."""
    mu = draw(st.one_of(grids(), gaussian_sums()))
    box = mu.support_box
    iface = MemoryInterface.virgin(box)
    if draw(st.booleans()):
        iface = history_on(box, draw(histories())).push_extremum(0.0)
    in_box = st.floats(*sorted((box.beta_lo, box.alpha_hi)))
    amplitudes = []
    for op in draw(st.lists(st.one_of(in_box, in_box, st.just(0.0), repeat), min_size=1, max_size=12)):
        if isinstance(op, tuple):
            index, shift = op
            op = amplitudes[index % len(amplitudes)] if amplitudes else 0.0
            op += 2 * shift * box.merge_tol
        amplitudes.append(op)
    if draw(st.booleans()):
        past = draw(st.sampled_from([box.alpha_hi + 0.25, box.beta_lo - 0.25]))
        amplitudes.insert(draw(st.integers(0, len(amplitudes))), past)
    return mu, iface, amplitudes


@pytest.mark.parametrize(
    "samples_per_pulse, tau", [(1, 1.0), (2, 1.0), (5, 1.0), (8, 1.0), (16, 1.0), (2.5, 1.0), (10, 0.3)]
)
@PROPERTY
@given(case=remnant_trains())
# a pulse that ends at -0.0, where the next one starts
@example(case=(uniform_field(QRegion(1.0, -1.0)), MemoryInterface.virgin(Box(0.0, 1.0, -1.0, 0.0)),
               [0.5, 0.25, -0.5, 0.0, -0.25]))
def test_simulate_writes_chained_remnants_at_every_rate(samples_per_pulse, tau, case):
    """``remnants.csv`` holds the floats of chained ``remnant`` calls, at
    even, odd and non-integer samples per pulse; at tau = 0.3 the samples
    miss the peaks by an ulp.  The rate sets only ``signal.csv``."""
    mu, iface, amplitudes = case
    expected, cur = [], iface
    for w in amplitudes:
        g, cur = remnant(mu, cur, w)
        expected.append(g)
    cfg = SimpleNamespace(mu=mu, iface=iface, amplitudes=amplitudes, tau=tau, sample_step=tau / samples_per_pulse)
    with tempfile.TemporaryDirectory() as out:
        assert cli.cmd_simulate(cfg, SimpleNamespace(out=out)) == cli.EXIT_OK
        with open(os.path.join(out, "remnants.csv")) as f:
            rows = f.read().splitlines()[1:]
    assert hexes(float(row.split(",")[2]) for row in rows) == hexes(expected)


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


# -- E in plain floats and as arrays -------------------------------------------------


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
def zero_edge_boxes(draw):
    """A box that may have an edge at +0.0 or -0.0, inside the box or on it."""
    a_lo = draw(ZERO_EDGE_LO)
    b_hi = draw(ZERO_EDGE_HI)
    a_hi = draw(st.one_of(st.sampled_from([-a_lo, 1.0]), st.floats(0.1, 2.0).map(lambda w: a_lo + w)))
    b_lo = draw(st.one_of(st.sampled_from([-b_hi, -1.0]), st.floats(0.1, 2.0).map(lambda w: b_hi - w)))
    if not (a_hi > a_lo and b_hi > b_lo):
        a_hi, b_lo = a_lo + 1.0, b_hi - 1.0
    return Box(a_lo, a_hi, b_lo, b_hi)


def points(draw, alpha_marks, beta_marks, box):
    """0 to 12 points at the marks, at signed zeros, outside ``box`` and
    anywhere, then some of their coordinates again in new pairs."""

    def coordinate(marks, lo, hi):
        return st.one_of(
            st.sampled_from(marks),
            st.sampled_from([0.0, -0.0, lo - 1.0, hi + 1.0]),
            st.floats(lo - 1.0, hi + 1.0),
        )

    n = draw(st.integers(0, 12))
    alphas = draw(st.lists(coordinate(alpha_marks, box.alpha_lo, box.alpha_hi), min_size=n, max_size=n))
    betas = draw(st.lists(coordinate(beta_marks, box.beta_lo, box.beta_hi), min_size=n, max_size=n))
    if n:
        for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6)):
            alphas.append(alphas[i])
            betas.append(betas[j])
    return alphas, betas


@st.composite
def grids_and_points(draw):
    """A grid on a box that may have an edge at a signed zero, and points
    on its cell edges, at signed zeros, outside the box and anywhere."""
    box = draw(zero_edge_boxes())
    n_alpha, n_beta = draw(st.sampled_from([1, 2, 4, 7])), draw(st.sampled_from([1, 2, 4, 7]))
    value = st.floats(-2.0, 2.0, allow_nan=False)
    rows = draw(st.lists(st.lists(value, min_size=n_alpha, max_size=n_alpha),
                         min_size=n_beta, max_size=n_beta))
    mu = GridWeighting(box, rows)
    return (mu,) + points(draw, mu.alpha_edges.tolist(), mu.beta_edges.tolist(), box)


@st.composite
def gaussian_sums_and_points(draw):
    """A Gaussian sum on a support box that may have an edge at a signed
    zero, whose component boxes may have edges at the support's edges or
    at signed zeros, and points on the component edges and centres, at
    signed zeros, outside the support and anywhere."""
    support = draw(zero_edge_boxes())
    components, alpha_marks, beta_marks = [], [], []
    for _ in range(draw(st.integers(1, 3))):
        along = []
        for lo, hi in ((support.alpha_lo, support.alpha_hi), (support.beta_lo, support.beta_hi)):
            edge = st.one_of(
                st.sampled_from([lo, hi] + [z for z in (0.0, -0.0) if lo <= z <= hi]),
                st.floats(lo, hi),
            )
            e0, e1 = sorted([draw(edge), draw(edge)])
            if not e1 > e0:
                e0, e1 = lo, hi
            center = draw(st.one_of(st.sampled_from([e0, e1, 0.0, -0.0]), st.floats(lo - 0.5, hi + 0.5)))
            along.append((e0, e1, center, draw(st.floats(0.05, 1.0))))
        (a0, a1, ca, sa), (b0, b1, cb, sb) = along
        components.append(GaussianComponent(draw(st.floats(-3.0, 3.0)), ca, cb, sa, sb, Box(a0, a1, b0, b1)))
        alpha_marks += [a0, a1, ca]
        beta_marks += [b0, b1, cb]
    mu = GaussianWeighting(components, support_box=support)
    return (mu,) + points(draw, alpha_marks, beta_marks, support)


def assert_array_everett_is_everett(mu, alphas, betas):
    got = mu.everett_array(alphas, betas)
    assert got.dtype == np.float64 and got.shape == (len(alphas),)
    assert [e.hex() for e in got.tolist()] == [e.hex() for e in mu.everett(alphas, betas)]


@PROPERTY
@given(case=grids_and_points())
def test_grid_everett_is_bit_equal_to_the_array_formula(case):
    """Both forms of grid E: ``everett`` and ``everett_array``."""
    mu, alphas, betas = case
    got = mu.everett(alphas, betas)
    assert all(type(e) is float for e in got)
    assert [e.hex() for e in got] == [e.hex() for e in numpy_everett(mu, alphas, betas)]
    assert_array_everett_is_everett(mu, alphas, betas)


@PROPERTY
@given(case=gaussian_sums_and_points())
def test_gaussian_array_everett_is_bit_equal_to_everett(case):
    assert_array_everett_is_everett(*case)


@pytest.mark.parametrize("field", ["grid", "butterfly"])
@pytest.mark.parametrize("alphas, betas", [
    ([], []),
    ([0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]),
    ([-0.0, 0.0, 0.5], [0.0, -0.0, -0.0]),
])
def test_array_everett_at_signed_zeros_and_no_points(field, alphas, betas):
    """Both fields have box edges at 0.0: the grid's box and the butterfly's
    positive lobe."""
    mu = uniform_field() if field == "grid" else make_butterfly()[0]
    assert_array_everett_is_everett(mu, alphas, betas)


# -- scale invariance ------------------------------------------------------------


def clear(lo, hi):
    """Floats in [lo, hi] whose products with cell areas and with powers of
    two down to 2**-160 stay clear of the subnormals, where a rescale would
    lose bits."""
    return st.floats(lo, hi).filter(lambda x: x == 0.0 or abs(x) >= 1e-200)


@st.composite
def quadrant_grids(draw):
    """A grid whose box meets the alpha >= 0 >= beta quadrant, so that it
    has sector bounds, and the Q region of its part there."""
    a_lo, b_hi = draw(clear(-1.0, 0.5)), draw(clear(-0.5, 1.0))
    a_hi = max(a_lo, 0.0) + draw(st.floats(0.1, 2.0))
    b_lo = min(b_hi, 0.0) - draw(st.floats(0.1, 2.0))
    n_alpha, n_beta = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(clear(-2.0, 2.0), min_size=n_alpha, max_size=n_alpha),
                         min_size=n_beta, max_size=n_beta))
    return (a_lo, a_hi, b_lo, b_hi), np.array(rows)


#: the exponent of a rescale, its ends drawn often
powers = st.one_of(st.sampled_from([-40, 40]), st.integers(-40, 40))


def answers(mu, q, values, samples_per_pulse):
    """(corners, outputs, bounds) of a field: every corner along the pushes
    to ``values``, the reads after them, the remnants and the dense output
    of ``values`` as a pulse train from the virgin state, the remnant
    extrema, and the sector bounds."""
    virgin = MemoryInterface.virgin(mu.support_box)
    reader, iface = OutputReader(mu), virgin
    corners, outputs = [], []
    for v in values:
        iface = iface.push_extremum(v)
        corners += [x for corner in iface.corners for x in corner]
        outputs.append(reader.read(iface))
    outputs += pulse_remnants(mu, virgin, values)
    outputs += dense_response(mu, virgin, values, 1.0, 1.0 / samples_per_pulse)[2]
    outputs += remnant_extrema(mu, virgin, q)
    return corners, outputs, list(asdict(sector_bounds(mu, q)).values())


def assert_scaled(k, base, scaled, output_scale):
    """``scaled`` holds the answers of the field rescaled by 2**k: its
    corners 2**k times those of ``base``, its outputs ``output_scale``
    times, and its sector bounds ``output_scale / 2**k`` times, bit for
    bit."""
    s = math.ldexp(1.0, k)
    for got, want, factor in zip(scaled, base, (s, output_scale, output_scale / s)):
        assert hexes(x / factor for x in got) == hexes(want)


@PROPERTY
@given(grid=quadrant_grids(), ops=histories(), samples_per_pulse=st.integers(2, 9), k=powers)
def test_grid_answers_scale_exactly(grid, ops, samples_per_pulse, k):
    """A grid with its box times 2**k and its cell values times 2**(-2k)
    holds the same mass in every cell, so at inputs times 2**k every read
    is the same float, every corner is 2**k times its own and every sector
    bound 2**(-k) times.  In binary every one of these products is exact,
    so every comparison of a coordinate must scale with the box too."""
    (a_lo, a_hi, b_lo, b_hi), values = grid

    def answers_at(k):
        s = math.ldexp(1.0, k)
        mu = GridWeighting(Box(a_lo * s, a_hi * s, b_lo * s, b_hi * s), values / (s * s))
        inputs = [v * s for v in inputs_on(Box(a_lo, a_hi, b_lo, b_hi), ops)]
        return answers(mu, QRegion(a_hi * s, b_lo * s), inputs, samples_per_pulse)

    assert_scaled(k, answers_at(0), answers_at(k), 1.0)


@PROPERTY
@given(ops=histories(), samples_per_pulse=st.integers(2, 9), k=powers)
def test_butterfly_answers_scale_exactly(ops, samples_per_pulse, k):
    """The butterfly at scale 2**k keeps its amplitudes, so at inputs
    times 2**k every output is 2**(2k) times its own, every corner 2**k
    times and every sector bound 2**k times."""

    def answers_at(k):
        s = math.ldexp(1.0, k)
        mu, q = make_butterfly(s)
        inputs = [v * s for v in inputs_on(make_butterfly()[0].support_box, ops)]
        return answers(mu, q, inputs, samples_per_pulse)

    assert_scaled(k, answers_at(0), answers_at(k), math.ldexp(1.0, 2 * k))


# -- the convergence guarantee ---------------------------------------------------


@st.composite
def controlled_grids(draw):
    """A controller run on a grid of at most 12 x 12 cells: (field, q,
    admissible initial interface, gamma_d, gain, w0).

    The box straddles both axes, sometimes with an axis on its edge, and Q
    lies in its quadrant part.  Every cell whose interior meets Q's has one
    drawn sign (zero cells included), the others any sign.  The
    initial interface comes from a random history, repaired by one
    full-range pulse when it enters the forbidden strips.  The target is
    anywhere in the reachable range, often at one of its ends, where the
    clamp works, and the gain is anywhere below the cap."""
    a_lo, b_hi = draw(st.sampled_from([0.0, -0.5])), draw(st.sampled_from([0.0, 0.5]))
    a_hi, b_lo = draw(st.floats(0.1, 2.0)), -draw(st.floats(0.1, 2.0))
    box = Box(a_lo, a_hi, b_lo, b_hi)
    n_alpha, n_beta = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    values = np.array(draw(st.lists(clear(-2.0, 2.0), min_size=n_alpha * n_beta,
                                    max_size=n_alpha * n_beta))).reshape(n_beta, n_alpha)
    fraction = st.one_of(st.just(1.0), st.floats(0.05, 1.0))
    q = QRegion(draw(fraction) * a_hi, draw(fraction) * b_lo)
    sign = draw(st.sampled_from([1.0, -1.0]))
    grid = GridWeighting(box, values)
    a, b = grid.alpha_edges, grid.beta_edges
    on_q = np.outer((b[1:] > q.beta2) & (b[:-1] < 0.0), (a[1:] > 0.0) & (a[:-1] < q.alpha2))
    assume(np.any(values[on_q] != 0.0))  # zero bounds on Q: the controller refuses (exit 3)
    values[on_q] = sign * np.abs(values[on_q])
    mu = GridWeighting(box, values)

    iface = MemoryInterface.virgin(box)
    for v in draw(st.lists(st.floats(b_lo - 0.2, a_hi + 0.2), max_size=5)):
        iface = iface.push_extremum(v)
    iface = iface.push_extremum(0.0)
    if not validate_initial_interface(iface, q):
        iface = full_range_repair(iface, q) or full_range_repair(MemoryInterface.virgin(box), q)

    g_max, g_min = remnant_extrema(mu, iface, q)
    at = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    gamma_d = min(g_min, g_max) + at * abs(g_max - g_min)
    gain = draw(st.floats(0.05, 0.999)) * max_gain(premised_bounds(mu, q))
    return mu, q, iface, gamma_d, gain, draw(st.floats(q.beta2, q.alpha2))


def clamped_case(sign, rising):
    """A run whose first update overshoots Q on the uniform field of sign
    ``sign``, whose cap is 1: from the virgin curve toward the remnant of
    the alpha2 pulse when ``rising``, else from the state after a full
    positive pulse toward that of the beta2 pulse."""
    q = QRegion(1.0, -1.0)
    mu, iface = uniform_field(q, sign), MemoryInterface.virgin(Box(0.0, 1.0, -1.0, 0.0))
    if not rising:
        iface = iface.push_extremum(1.0).push_extremum(0.0)
    g_alpha2, g_beta2 = remnant_extrema(mu, iface, q)
    return mu, q, iface, g_alpha2 if rising else g_beta2, 0.999, 0.0


@PROPERTY
@given(case=controlled_grids(), max_pulses=st.integers(1, 60))
@example(case=clamped_case(1.0, True), max_pulses=60)
@example(case=clamped_case(1.0, False), max_pulses=60)
@example(case=clamped_case(-1.0, True), max_pulses=60)
@example(case=clamped_case(-1.0, False), max_pulses=60)
def test_the_controller_never_expands_the_error(case, max_pulses):
    """On Q the smaller sector bound is exactly 0 (each scan includes the
    cut at 0 and the density has one sign there), so below the gain cap
    the sector argument gives non-expansion, |e_{k+1}| <= |e_k|, not a
    rate.  Every step must keep it, up to the rounding of the reads, a few
    ulps of the field's absolute mass; every pulse that moves the remnant
    must have its secant slope in its Q sector; and every amplitude must
    lie in [beta2, alpha2]."""
    mu, q, iface, gamma_d, gain, w0 = case
    bounds = premised_bounds(mu, q)
    cfg = ControllerConfig(gamma_d, gain, w0, q, max_pulses=max_pulses)
    records = run_controller(mu, iface, cfg, bounds=bounds).records
    slack = 16 * math.ulp(mu.abs_mass())
    assert all(q.beta2 <= r.w <= q.alpha2 for r in records)
    for before, after in zip(records, records[1:]):
        assert abs(after.e) <= abs(before.e) + slack
        dg, dw = after.gamma - before.gamma, after.w - before.w
        if dg != 0.0:
            if dw > 0.0:
                lo, hi = bounds.gamma1_plus_q * dw, bounds.gamma2_plus_q * dw
            else:
                lo, hi = bounds.gamma1_minus_q * dw, bounds.gamma2_minus_q * dw
            assert min(lo, hi) - slack <= dg <= max(lo, hi) + slack


def test_a_gain_just_above_the_cap_expands_the_error():
    """The uniform field has slope exactly 2 on Q, so its gain cap is 1.
    From the virgin curve the first pulse of the update law at a gain just
    above 1 leaves a larger error than it started from, and one just below
    a smaller one: the controller's refusal of the gain (exit 2) guards a
    real expansion."""
    q = QRegion(1.0, -1.0)
    mu, virgin = uniform_field(q), MemoryInterface.virgin(Box(0.0, 1.0, -1.0, 0.0))
    assert max_gain(premised_bounds(mu, q)) == 1.0
    gamma_d, w0 = -0.5, 0.0
    e0 = remnant(mu, virgin, w0)[0] - gamma_d
    assert e0 == -0.5
    for gain, grows in ((1.0 + 2**-10, True), (1.0 - 2**-10, False)):
        w1 = min(max(w0 - gain * e0, q.beta2), q.alpha2)  # the law of run_controller
        e1 = remnant(mu, virgin, w1)[0] - gamma_d
        assert (abs(e1) > abs(e0)) == grows
    with pytest.raises(ConfigurationError, match="outside the admissible interval"):
        run_controller(mu, virgin, ControllerConfig(gamma_d, 1.0 + 2**-10, w0, q))
