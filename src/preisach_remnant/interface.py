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

#: absolute tolerance below which adjacent corners are merged
VERTEX_MERGE_TOL = 1e-12

_NEG_INF = float("-inf")


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle [alpha_lo, alpha_hi] x [beta_lo, beta_hi]."""

    alpha_lo: float
    alpha_hi: float
    beta_lo: float
    beta_hi: float

    def __post_init__(self):
        if not (self.alpha_hi > self.alpha_lo and self.beta_hi > self.beta_lo):
            raise ConfigurationError("degenerate box: %r" % (self,))

    def contains(self, other: "Box", tol: float = 1e-9) -> bool:
        return (
            self.alpha_lo <= other.alpha_lo + tol
            and self.alpha_hi >= other.alpha_hi - tol
            and self.beta_lo <= other.beta_lo + tol
            and self.beta_hi >= other.beta_hi - tol
        )


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


def _canonical_corners(corners, box: Box):
    """Clamp, merge and validate a raw corner list.

    The first corner must lie on the diagonal.  Corners deeper than the
    support box are clamped to it, near-duplicates (within
    VERTEX_MERGE_TOL) are merged, collinear middle corners are dropped and
    the tail down to the box floor is materialized.
    """
    if not corners:
        raise ConfigurationError("empty corner list")
    a0, b0 = corners[0]
    if abs(a0 - b0) > 1e-9 * max(1.0, abs(a0), abs(b0)):
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

    out = [pts[0]]
    for p in pts[1:]:
        q = out[-1]
        if abs(p[0] - q[0]) <= VERTEX_MERGE_TOL and abs(p[1] - q[1]) <= VERTEX_MERGE_TOL:
            continue
        if len(out) > 1:
            r = out[-2]
            if (
                abs(r[0] - q[0]) <= VERTEX_MERGE_TOL and abs(q[0] - p[0]) <= VERTEX_MERGE_TOL
            ) or (
                abs(r[1] - q[1]) <= VERTEX_MERGE_TOL and abs(q[1] - p[1]) <= VERTEX_MERGE_TOL
            ):
                out[-1] = p  # q is the middle of three on one alpha or beta line
                continue
        out.append(p)

    for (a1, b1), (a2, b2) in zip(out, out[1:]):
        if a2 < a1 - VERTEX_MERGE_TOL or b2 > b1 + VERTEX_MERGE_TOL:
            raise ConfigurationError("corner list is not a monotone staircase")
        da, db = abs(a2 - a1), abs(b2 - b1)
        if da > VERTEX_MERGE_TOL and db > VERTEX_MERGE_TOL:
            raise ConfigurationError(
                "segments must be axis-aligned; corner jump (%g,%g)->(%g,%g)"
                % (a1, b1, a2, b2)
            )
    return tuple(out)


def _chain(corners):
    """Head node of a chain holding ``corners`` (diagonal corner first)."""
    node = None
    for depth, corner in enumerate(reversed(corners)):
        node = (corner, node, depth)
    return node


def _survivor(node, v: float, rising: bool):
    """First node, from ``node`` toward the tail, that a monotone sweep to v
    leaves standing; None when the sweep wipes them all."""
    if rising:
        while node is not None and node[0][0] <= v:
            node = node[1]
    else:
        while node is not None and node[0][1] >= v:
            node = node[1]
    return node


def _linked_head(box: Box, v0: float, v: float, survivor):
    """Head node of a sweep from v0 to v that links a diagonal corner and a
    seam corner to ``survivor``, or None when the sweep must canonicalise.

    The survivors are a suffix of a canonical staircase with the clamps of
    the box.  When v and v0 keep those clamps and v lies more than the merge
    tolerance inside the survivor's corner (the seam rule), the new head
    neither merges with the survivor nor lines up with it, so
    canonicalising would return the head plus the survivors.
    """
    if survivor is None:
        return None
    a_s, b_s = survivor[0]
    if not (
        a_s - v > VERTEX_MERGE_TOL
        and v - b_s > VERTEX_MERGE_TOL
        and box.beta_lo <= min(v, v0)
        and max(v, v0) <= box.alpha_hi
    ):
        return None
    depth = survivor[2]
    seam = (v, b_s) if v > v0 else (a_s, v)
    return ((v, v), (seam, survivor, depth + 1), depth + 2)


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

    def __eq__(self, other):
        if not isinstance(other, MemoryInterface):
            return NotImplemented
        return self.corners == other.corners and self.support_box == other.support_box

    def __hash__(self):
        return hash((self.corners, self.support_box))

    def __repr__(self):
        return "MemoryInterface(corners=%r, support_box=%r)" % (self.corners, self.support_box)

    @classmethod
    def from_corners(cls, corners, box: Box) -> "MemoryInterface":
        corners = _canonical_corners([tuple(map(float, c)) for c in corners], box)
        return cls(_chain(corners), box, corners)

    @classmethod
    def virgin(cls, box: Box, value: float = 0.0) -> "MemoryInterface":
        """All relays with alpha > value in the -1 state."""
        return cls.from_corners([(value, value)], box)

    @classmethod
    def from_extrema(cls, box: Box, extrema, end_value: float = 0.0) -> "MemoryInterface":
        """Replay an alternating extremum sequence (largest first) from the
        virgin state, finishing with a sweep to ``end_value`` so the curve
        passes through the diagonal at that input value."""
        iface = cls.virgin(box, 0.0)
        for v in extrema:
            iface = iface.push_extremum(float(v))
        return iface.push_extremum(float(end_value))

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

    def upper_beta(self, alpha: float) -> float:
        """Largest beta for which the relay (alpha, beta) is in the +1 state."""
        for lo, hi, level in self.steps():
            if lo < alpha <= hi:
                return level
        return _NEG_INF

    def relay_state(self, p: PlanePoint) -> int:
        """Sign of the relay at p; points on the curve count as below (+1)."""
        return 1 if p.beta <= self.upper_beta(p.alpha) else -1

    # -- memory updates ---------------------------------------------------

    def push_extremum(self, v: float) -> "MemoryInterface":
        """Monotone input sweep to value v.

        An increase switches every relay with alpha < v to +1 and wipes the
        dominated corners; a decrease is the mirror image.  The survivors
        are a suffix of the chain and are kept as they are.
        """
        v = float(v)
        v0 = self.current_value
        if abs(v - v0) <= VERTEX_MERGE_TOL:
            return self
        rising = v > v0
        node = _survivor(self.head, v, rising)
        box = self.support_box
        head = _linked_head(box, v0, v, node)
        if head is not None:
            return MemoryInterface(head, box)
        surv = []
        while node is not None:
            surv.append(node[0])
            node = node[1]
        head = [(v, v)]
        if surv:
            head.append((v, surv[0][1]) if rising else (surv[0][0], v))
        corners = _canonical_corners(head + surv, box)
        return MemoryInterface(_chain(corners), box, corners)

    def ramp_heads(self, values, start: int = 0) -> list:
        """Head nodes of the interfaces that pushing values[start],
        values[start + 1], ... one after another passes through, for as
        long as the pushes sweep on in one direction, each by more than
        the merge tolerance, and each links a new head to the survivors.

        Each push wipes the two nodes the one before it built, and the
        survivors of this interface it walks past were wiped by that push
        too.  So every head is also the head of this interface pushed to
        its value directly, and links to a node of this interface.
        """
        box = self.support_box
        v0 = self.current_value
        node = self.head
        heads = []
        rising = values[start] > v0
        for i in range(start, len(values)):
            v = values[i]
            if (v - v0 if rising else v0 - v) <= VERTEX_MERGE_TOL:
                break
            node = _survivor(node, v, rising)
            head = _linked_head(box, v0, v, node)
            if head is None:
                break
            heads.append(head)
            v0 = v
        return heads

    # -- comparison ----------------------------------------------------------

    def close_to(self, other: "MemoryInterface", tol: float = 1e-9) -> bool:
        if len(self.corners) != len(other.corners):
            return False
        return all(
            abs(a1 - a2) <= tol and abs(b1 - b2) <= tol
            for (a1, b1), (a2, b2) in zip(self.corners, other.corners)
        )
