"""Exception taxonomy shared across the package."""


class GeofuseError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(GeofuseError):
    """Operand shapes are incompatible; message carries both shapes."""


class NumericError(GeofuseError):
    """A tensor picked up NaN/Inf, or a loss became non-finite."""


class DomainError(GeofuseError):
    """A scalar argument fell outside its valid range."""


class ConfigError(GeofuseError):
    """Invalid configuration value or malformed config file."""


class SchemeContractError(GeofuseError):
    """A fusion scheme was used outside its contract (e.g. missing geometry)."""


class CheckpointError(GeofuseError):
    """Checkpoint file is malformed, truncated, or from another version."""


class TrainingError(GeofuseError):
    """Training diverged (non-finite loss); message carries the step index."""
