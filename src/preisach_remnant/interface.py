"""Staircase memory curve of the scalar Preisach relay field.

The memory state of the relay field is a monotonically decreasing staircase
in the half-plane ``alpha >= beta``.  Relays below the curve hold state +1,
relays above hold -1.  The curve is stored as its corner vertices, ordered
from the diagonal outward; its infinite tail is clamped to the support box
because the weighting density vanishes outside it, so nothing observable is
lost.

The corners are held as a chain of nodes ``(corner, next, depth)``: the
head node is the diagonal corner, ``next`` is the node one step toward the
tail (``None`` after the tail) and ``depth`` counts the nodes behind it, so
the tail has depth 0.  A push builds new nodes only for the new head and
links them to the first surviving node, which all later interfaces share
by identity.

All values are immutable; every update returns a new interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError

#: tolerances per unit of box scale: corners this close merge; inputs get this slack
VERTEX_MERGE_TOL = 1e-12
INPUT_TOL = 1e-9

_NEG_INF = float("-inf")


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle [alpha_lo, alpha_hi] x [beta_lo, beta_hi]; every coordinate
    comparison takes its tolerance from it, scaled by its largest |coordinate|.

    ``merge_tol`` is ``VERTEX_MERGE_TOL`` times that scale: corners within
    it merge or line up, and a push must move on by more than it.
    ``input_tol`` is ``INPUT_TOL`` times the scale: the slack of
    ``contains`` (so an interface box may reach that far past the field's
    beta_lo, and a tail corner on that floor keeps its term of E), of the
    first corner's diagonal check, of a pulse's zero crossing and of the
    forbidden strips.  On a box of scale 1, as the butterfly's and the
    benchmark grids' are, these are absolute tolerances of 1e-12 and 1e-9.
    Scaling every coordinate and input by a power of two 2^k scales both
    tolerances by 2^k, so every decision stays the same and every answer is
    its exact image, as long as no number turns subnormal: corners 2^k
    times, grid outputs unchanged (cell values times 2^-2k), butterfly
    outputs 2^2k times.
    """

    alpha_lo: float
    alpha_hi: float
    beta_lo: float
    beta_hi: float

    def __post_init__(self):
        if not (self.alpha_hi > self.alpha_lo and self.beta_hi > self.beta_lo):
            raise ConfigurationError("degenerate box: %r" % (self,))
        scale = max(map(abs, (self.alpha_lo, self.alpha_hi, self.beta_lo, self.beta_hi)))
        object.__setattr__(self, "merge_tol", VERTEX_MERGE_TOL * scale)
        object.__setattr__(self, "input_tol", INPUT_TOL * scale)

    def contains(self, other: "Box") -> bool:
        tol = self.input_tol
        return (
            self.alpha_lo <= other.alpha_lo + tol
            and self.alpha_hi >= other.alpha_hi - tol
            and self.beta_lo <= other.beta_lo + tol
            and self.beta_hi >= other.beta_hi - tol
        )


def _canonical_corners(corners, box: Box):
    """Clamp, merge and validate a raw corner list.

    The first corner must lie on the diagonal.  Corners deeper than the
    support box are clamped to it, near-duplicates (within the box's
    ``merge_tol``) are merged, collinear middle corners are dropped (a
    corner lined up with them only then lines up with the corner kept,
    ``_line_up``) and the tail down to the box floor is materialized.
    """
    if not corners:
        raise ConfigurationError("empty corner list")
    a0, b0 = corners[0]
    if abs(a0 - b0) > box.input_tol:
        raise ConfigurationError(
            "first corner must lie on the diagonal, got (%g, %g)" % (a0, b0)
        )
    v = 0.5 * (a0 + b0)
    tail_beta = min(box.beta_lo, v)
    head_alpha = max(box.alpha_hi, v)

    pts = [(v, v)]
    for a, b in corners[1:]:
        pts.append((min(a, head_alpha), max(b, tail_beta)))

    if pts[-1][1] > tail_beta:
        pts.append((pts[-1][0], tail_beta))

    tol = box.merge_tol
    out = [pts[0]]
    for prev, p in zip(pts, pts[1:]):
        q = out[-1]
        if abs(p[0] - q[0]) > tol and abs(p[1] - q[1]) > tol:
            p = _line_up(p, q, prev, tol)
        elif abs(p[0] - q[0]) <= tol and abs(p[1] - q[1]) <= tol:
            continue
        if len(out) > 1:
            r = out[-2]
            if (
                abs(r[0] - q[0]) <= tol and abs(q[0] - p[0]) <= tol
            ) or (
                abs(r[1] - q[1]) <= tol and abs(q[1] - p[1]) <= tol
            ):
                # q is the middle of three on one alpha or beta line
                out[-1] = _line_up(p, r, q, tol)
                continue
        out.append(p)

    for (a1, b1), (a2, b2) in zip(out, out[1:]):
        if a2 < a1 - tol or b2 > b1 + tol:
            raise ConfigurationError("corner list is not a monotone staircase")
        da, db = abs(a2 - a1), abs(b2 - b1)
        if da > tol and db > tol:
            raise ConfigurationError(
                "segments must be axis-aligned; corner jump (%g,%g)->(%g,%g)"
                % (a1, b1, a2, b2)
            )
    return tuple(out)


def _line_up(p, q, dropped, tol):
    """Corner p, which follows ``dropped`` in the list, as the next after q,
    the last corner kept: where p shares neither coordinate with q within
    ``tol`` but one with ``dropped`` (merged into q or lined up with it), p
    takes q's value of that coordinate.  Any other p is returned as it is,
    so only a list that would be refused canonicalises otherwise."""
    if abs(p[0] - q[0]) > tol and abs(p[1] - q[1]) > tol:
        if abs(p[0] - dropped[0]) <= tol:
            return (q[0], p[1])
        if abs(p[1] - dropped[1]) <= tol:
            return (p[0], q[1])
    return p


def _chain(corners):
    """Head node of a chain holding ``corners`` (diagonal corner first)."""
    node = None
    for depth, corner in enumerate(reversed(corners)):
        node = (corner, node, depth)
    return node


class MemoryInterface:
    """Canonical staircase memory curve plus the support box it is clamped to.

    ``corners`` runs from the diagonal corner outward; consecutive corners
    share either the alpha or the beta coordinate.  ``head`` is the chain
    node of the diagonal corner (see the module docstring); the tuple
    ``corners`` is built from the chain when first asked for.  Build
    interfaces with ``from_corners``, ``virgin``, ``from_extrema`` and
    ``push_extremum``.
    """

    __slots__ = ("head", "support_box", "_corners")

    def __init__(self, head, support_box: Box, corners=None):
        self.head = head
        self.support_box = support_box
        self._corners = corners

    @property
    def corners(self) -> tuple:
        if self._corners is None:
            out = []
            node = self.head
            while node is not None:
                out.append(node[0])
                node = node[1]
            self._corners = tuple(out)
        return self._corners

    def __repr__(self):
        return "MemoryInterface(corners=%r, support_box=%r)" % (self.corners, self.support_box)

    @classmethod
    def from_corners(cls, corners, box: Box) -> "MemoryInterface":
        corners = _canonical_corners([tuple(map(float, c)) for c in corners], box)
        return cls(_chain(corners), box, corners)

    @classmethod
    def virgin(cls, box: Box) -> "MemoryInterface":
        """All relays with alpha > 0 in the -1 state."""
        return cls.from_corners([(0.0, 0.0)], box)

    @classmethod
    def from_extrema(cls, box: Box, extrema) -> "MemoryInterface":
        """Replay an alternating extremum sequence (largest first) from the
        virgin state, finishing with a sweep to zero so the curve passes
        through the diagonal at zero input."""
        iface = cls.virgin(box)
        for v in extrema:
            iface = iface.push_extremum(float(v))
        return iface.push_extremum(0.0)

    # -- basic queries ----------------------------------------------------

    @property
    def current_value(self) -> float:
        return self.head[0][0]

    def steps(self):
        """Upper-envelope of the +1 region as a step function of alpha.

        Returns tuples ``(a_lo, a_hi, level)`` meaning relays with
        ``a_lo < alpha <= a_hi`` are +1 iff ``beta <= level``.
        """
        out = []
        prev = _NEG_INF
        for a, b in self.corners:
            if a > prev:
                out.append((prev, a, b))
                prev = a
        out.append((prev, math.inf, _NEG_INF))
        return out

    # -- memory updates ---------------------------------------------------

    def push_extremum(self, v: float) -> "MemoryInterface":
        """Monotone input sweep to value v: a ramp of one sample (see
        ``ramp_slabs``)."""
        return self.ramp_slabs((float(v),), 0)[3]

    def ramp_slabs(self, values, start: int):
        """Walk the pushes of values[start], values[start + 1], ... one
        after another, for as long as they sweep on in one direction, each
        by more than the merge tolerance, and each either links a new head
        to the survivors or wipes every corner.  Returns (alphas, betas,
        survivors, interface): for every walked push, the two points of E
        of the one slab its head adds to its survivor (below the diagonal
        corner down to the seam after a rise, below the seam down to the
        survivor after a fall) and that survivor; then the interface after
        the last walked push.  A push that wipes every corner has no
        survivor (None), and its points are those of the whole curve it
        leaves, (v, v) and (v, min(beta_lo, v)).  When nothing is walked,
        the lists are empty and the interface is this one pushed to
        values[start]: this one itself for a push within the merge
        tolerance, else the canonicalised new head, seam corner and
        survivors.

        The seam rule links the head of a push to v to its survivor (a_s,
        b_s) when b_s < v < a_s by more than the merge tolerance: the new
        diagonal corner and seam corner then neither merge with the
        survivor nor line up with it, so canonicalising would return them
        plus the survivors.  Linking also keeps the clamps of the box, which
        needs the value the walk starts from in [beta_lo, alpha_hi]: then
        every corner lies in the box, and so does every value that passes
        the seam rule.  A push that wipes every corner keeps no clamp, so it
        is walked from any start.

        Each push wipes the two nodes the one before it built, and the
        survivors of this interface it walks past were wiped by that push
        too.  So every head is also the head of this interface pushed to
        its value directly, and links to a node of this interface; only
        the last one is built, in O(1) when it links.  Once a push wipes
        every corner, so does every later push of the walk, and the curve
        it leaves depends on its value alone.
        """
        box = self.support_box
        tol = box.merge_tol
        v0 = self.current_value
        in_box = box.beta_lo <= v0 <= box.alpha_hi
        node = self.head
        alphas, betas, survivors = [], [], []
        rising = values[start] > v0
        for i in range(start, len(values)):
            v = values[i]
            # one test of the direction per sample
            if rising:
                if v - v0 <= tol:
                    break
                while node is not None and node[0][0] <= v:
                    node = node[1]
            elif v0 - v <= tol:
                break
            else:
                while node is not None and node[0][1] >= v:
                    node = node[1]
            if node is None:
                a, b = v, min(box.beta_lo, v)
            else:
                a, b = node[0]
                if not (in_box and a - v > tol and v - b > tol):
                    break
            alphas += (v, v) if rising else (a, a)
            betas += (v, b)
            survivors.append(node)
            v0 = v
        if not survivors:
            if node is self.head:  # a push within the merge tolerance
                return alphas, betas, survivors, self
            corners = [(v, v), (v, b) if rising else (a, v)]
            corners += MemoryInterface(node, box).corners
        elif survivors[-1] is None:
            corners = [(v0, v0)]
        else:
            last = survivors[-1]
            # the seam of the last walked push: (v, b_s) after a rise, (a_s, v) after a fall
            seam = (v0, betas[-1]) if rising else (alphas[-1], v0)
            head = ((v0, v0), (seam, last, last[2] + 1), last[2] + 2)
            return alphas, betas, survivors, MemoryInterface(head, box)
        return alphas, betas, survivors, MemoryInterface.from_corners(corners, box)
