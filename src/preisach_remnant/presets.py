"""Ready-made weighting fields and initial interfaces for experiments."""

from __future__ import annotations

from .errors import ConfigurationError
from .interface import Box, MemoryInterface
from .weighting import ButterflyParams, QRegion, make_butterfly, uniform_field


def uniform_preset(alpha2: float = 1.0, beta2: float = -1.0, value: float = 1.0):
    """Constant density on Q; the textbook deadbeat scenario."""
    q = QRegion(alpha2, beta2)
    return uniform_field(q, value), q


def butterfly_preset(scale: float = 1.0):
    return make_butterfly(ButterflyParams(scale=scale))


def pzt_shelf_interface(
    box: Box = None,
    alpha_max: float = 1400.0,
    shelf_beta: float = -800.0,
) -> MemoryInterface:
    """Shelf interface: last maximum at alpha_max with a flat at shelf_beta."""
    if box is None:
        box = Box(0.0, alpha_max, -850.0, 0.0)
    return MemoryInterface.from_corners(
        [(0.0, 0.0), (0.0, shelf_beta), (alpha_max, shelf_beta)], box
    )


def interface_from_spec(spec: dict, box: Box) -> MemoryInterface:
    """Build an initial interface from a config mapping."""
    if "extrema" in spec:
        return MemoryInterface.from_extrema(box, spec["extrema"])
    preset = spec.get("preset", "virgin")
    if preset == "virgin":
        return MemoryInterface.virgin(box)
    if preset == "pzt_shelf":
        return pzt_shelf_interface(
            box,
            alpha_max=spec.get("alpha_max", 1400.0),
            shelf_beta=spec.get("shelf_beta", -800.0),
        )
    raise ConfigurationError("unknown interface preset %r" % preset)
