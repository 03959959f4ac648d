"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand dimensions are incompatible."""


class NumericError(ValueError):
    """Non-finite values or numerically invalid input."""


class ConfigError(ValueError):
    """Invalid configuration or experiment setup."""


class DataFormatError(ValueError):
    """Malformed input file or dataset."""


class WorkerError(RuntimeError):
    """A worker process ended before it had answered."""
