"""Exception taxonomy shared across the package.

Each error below derives from GeofuseError; the CLI reports any of them as
`error: ...` with exit code 1."""


class GeofuseError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(GeofuseError):
    """Operand shapes are incompatible; message carries both shapes."""


class NumericError(GeofuseError):
    """A tensor or an Euler state picked up NaN/Inf, or sqrt met a negative."""


class ConfigError(GeofuseError):
    """Invalid configuration value or malformed config file."""


class SchemeContractError(GeofuseError):
    """A fusion scheme was used outside its contract (e.g. missing geometry)."""


class CheckpointError(GeofuseError):
    """Checkpoint file is malformed, truncated, or from another version."""


class TrainingError(GeofuseError):
    """Training diverged (non-finite loss); message carries the step index.
    Each Tensor's finiteness check raises NumericError before it can fire."""
