"""Exception types shared across the package."""

__all__ = [
    "GraphTestError",
    "DimensionMismatchError",
    "EmptySampleError",
    "InsufficientSampleError",
    "EnumerationRefusedError",
    "ConfigurationError",
    "UndefinedCorrelationError",
    "DataFormatError",
]


class GraphTestError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatchError(GraphTestError, ValueError):
    """Operands are defined over different vertex sets."""


class EmptySampleError(GraphTestError, ValueError):
    """A graph sample with no members was supplied."""


class InsufficientSampleError(GraphTestError, ValueError):
    """The sample is too small for the requested estimator."""


class EnumerationRefusedError(GraphTestError, ValueError):
    """Exact enumeration over all graphs was requested above the size cap."""


class ConfigurationError(GraphTestError, ValueError):
    """A test or sampler configuration cannot be fulfilled."""


class UndefinedCorrelationError(GraphTestError, ValueError):
    """Rank correlation is undefined (zero variance in a window)."""


class DataFormatError(GraphTestError, ValueError):
    """An input file does not conform to the documented format."""

    def __init__(self, message: str, path: str | None = None,
                 line: int | None = None):
        loc = ""
        if path is not None:
            loc = f"{path}: "
        if line is not None:
            loc = f"{loc}line {line}: "
        super().__init__(f"{loc}{message}")
        self.path = path
        self.line = line
