"""Ready-made weighting fields and initial interfaces for experiments, and
the rule every number of a JSON config obeys."""

from __future__ import annotations

import math

from .errors import ConfigurationError
from .interface import Box, MemoryInterface
from .weighting import make_butterfly


#: range rules of config numbers, by the words of their error message
_RULES = {
    "positive": lambda v: v > 0.0,
    "nonnegative": lambda v: v >= 0.0,
    "an integer >= 1": lambda v: v >= 1.0 and v.is_integer(),
    "an integer >= 0": lambda v: v >= 0.0 and v.is_integer(),
}


def number(value, name: str, rule: str = None):
    """``value`` as a float (an int under an integer rule) when it is a finite
    JSON number that is ``rule``: not a string, a bool, ``null``, NaN or
    Infinity, and under an integer rule below 2**63.  Otherwise a
    ConfigurationError names the config key ``name``."""
    try:
        finite = type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        finite = False
    if not finite:
        raise ConfigurationError("%s must be a number, got %r" % (name, value))
    if rule is not None and not _RULES[rule](float(value)):
        raise ConfigurationError("%s must be %s, got %r" % (name, rule, value))
    if rule is None or "integer" not in rule:
        return float(value)
    if not value < 2**63:  # a count or an index must fit an int64
        raise ConfigurationError("%s must be below 2**63, got %r" % (name, value))
    return int(value)


def numbers(value, name: str) -> tuple:
    """``value`` as a tuple of floats when it is a list of numbers."""
    if not isinstance(value, list):
        raise ConfigurationError("%s must be a list of numbers, got %r" % (name, value))
    return tuple(number(v, "%s[%d]" % (name, i)) for i, v in enumerate(value))


def known_keys(mapping: dict, name: str, known) -> dict:
    """``mapping`` when every key of it is in ``known``; otherwise a
    ConfigurationError names the first other key by its dotted path under
    the config section ``name`` ("" for the top level)."""
    for key in mapping:
        if key not in known:
            raise ConfigurationError("%s%s is not a known config key" % (name and name + ".", key))
    return mapping


butterfly_preset = make_butterfly


def interface_from_spec(spec: dict, box: Box) -> MemoryInterface:
    """The initial interface an ``initial_interface`` mapping describes; the
    ``pzt_shelf`` has its last maximum at alpha_max, a flat at shelf_beta."""
    if "extrema" in spec:
        extrema = numbers(spec["extrema"], "initial_interface.extrema")
        known_keys(spec, "initial_interface", ("extrema",))
        return MemoryInterface.from_extrema(box, extrema)
    preset = spec.get("preset", "virgin")
    if preset == "virgin":
        known_keys(spec, "initial_interface", ("preset",))
        return MemoryInterface.virgin(box)
    if preset == "pzt_shelf":
        alpha_max = number(spec.get("alpha_max", 1400.0), "initial_interface.alpha_max")
        shelf_beta = number(spec.get("shelf_beta", -800.0), "initial_interface.shelf_beta")
        known_keys(spec, "initial_interface", ("preset", "alpha_max", "shelf_beta"))
        return MemoryInterface.from_corners(
            [(0.0, 0.0), (0.0, shelf_beta), (alpha_max, shelf_beta)], box
        )
    raise ConfigurationError("unknown interface preset %r" % (preset,))
