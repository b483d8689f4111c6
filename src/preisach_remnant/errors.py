"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Inconsistent inputs: box mismatches, bad parameters, invalid config."""


class EmptyIntersectionError(ConfigurationError):
    """The weighting support does not meet the remnant quadrant."""


class DegenerateBoundsError(ValueError):
    """Sector bounds that give no gain cap: they vanish on Q, or a slope is
    subnormal or overflows."""


class AdmissibilityError(ConfigurationError):
    """Initial interface violates the controller's admissibility conditions."""
