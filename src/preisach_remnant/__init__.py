"""Preisach relay-field simulation with exact staircase memory and
recursive remnant set-point control."""

from .errors import (
    AdmissibilityError,
    ConfigurationError,
    DegenerateBoundsError,
    EmptyIntersectionError,
)
from .interface import Box, MemoryInterface
from .weighting import (
    GaussianComponent,
    GaussianWeighting,
    GridWeighting,
    OutputReader,
    QRegion,
    SectorBounds,
    evaluate_output,
    make_butterfly,
    sector_bounds,
    uniform_field,
)
from .control import (
    ControllerConfig,
    ControlTrace,
    PulseRecord,
    apply_pulse,
    delta_remnant_explicit,
    dense_response,
    last_input_extrema,
    max_gain,
    premised_bounds,
    pulse_remnants,
    remnant,
    remnant_extrema,
    render_signal,
    run_controller,
    validate_initial_interface,
)
from .oracle import RelayGrid, oracle_pulse_remnants

__version__ = "0.1.0"
