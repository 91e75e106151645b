"""Exception types shared across the library."""


class CrossmodalError(Exception):
    """Base class for all library-specific errors."""


class DimensionError(CrossmodalError):
    """Operands have incompatible shapes or sizes."""


class NumericError(CrossmodalError):
    """Non-finite values or numerically undefined inputs."""


class SamplingError(CrossmodalError):
    """A batch request cannot be satisfied by the dataset."""


class ConfigError(CrossmodalError):
    """Invalid configuration value or combination."""


class LabelError(CrossmodalError):
    """A label lies outside the valid class range."""


class StageError(CrossmodalError):
    """Batch modality composition does not match the training stage."""


class DegenerateError(CrossmodalError):
    """A denominator or selection set collapsed below usable tolerance."""


class StateError(CrossmodalError):
    """Model or optimizer state needed for the operation is missing or invalid."""


class ParseError(CrossmodalError):
    """Malformed file content; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
