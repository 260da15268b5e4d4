"""Average AoI of dense CSMA random access over noisy channels.

Subpackages: :mod:`aoi_csma.core` (types that check themselves),
:mod:`aoi_csma.closedform` (explicit AoI expressions),
:mod:`aoi_csma.shs` (generic chain solver, the independent oracle),
:mod:`aoi_csma.meanfield` (ODE, equilibria, monotonicity),
:mod:`aoi_csma.sim` (event-driven finite-N simulation),
:mod:`aoi_csma.cli` (command-line experiments).
"""

from .core import (
    AoiError,
    InfeasibleOccupancy,
    InvalidParameter,
    Policy,
    PolicyScheme,
    Scheme,
    StateFractions,
    SystemParams,
)

__all__ = [
    "AoiError",
    "InfeasibleOccupancy",
    "InvalidParameter",
    "Policy",
    "PolicyScheme",
    "Scheme",
    "StateFractions",
    "SystemParams",
]

__version__ = "0.1.0"
