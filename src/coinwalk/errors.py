"""Exception types shared across the package."""

__all__ = ["WalkError", "InvalidParameterError", "CapacityError", "NormDriftError"]


class WalkError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameterError(WalkError, ValueError):
    """An argument lies outside its documented domain."""


class CapacityError(WalkError):
    """An evolution would push amplitude past the edge of the lattice."""


class NormDriftError(WalkError):
    """Accumulated numerical error has degraded the state norm."""
