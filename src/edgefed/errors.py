"""Exception types shared across the simulator."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameterError(SimulationError, ValueError):
    """A configuration or solver parameter is out of its admissible range."""


class DimensionMismatchError(SimulationError, ValueError):
    """Two vectors or histograms that must share a length do not."""


class InvalidInputError(SimulationError, ValueError):
    """Malformed input data (empty dataset, bad config key or type, negative counts)."""


class InvalidComparisonError(SimulationError, ValueError):
    """Paired runs or audits were given trajectories that are not comparable."""


class NumericalFailureError(SimulationError, ArithmeticError):
    """An iterative computation produced non-finite values."""


class UnknownPairError(SimulationError, LookupError):
    """A device/server pair is missing from a subcarrier map or allocation."""


class UnreachableDeviceError(SimulationError, ValueError):
    """A transfer was requested over a link with zero rate."""
