"""Exception taxonomy shared across the package.

Each error below derives from GeofuseError; the CLI reports any of them as
`error: ...` with exit code 1."""


class GeofuseError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(GeofuseError):
    """Operand shapes are incompatible; message carries both shapes."""


class NumericError(GeofuseError):
    """A tensor or an Euler state picked up NaN/Inf.  A diverging training
    run and sqrt of a negative both end here, as a non-finite tensor."""


class ConfigError(GeofuseError):
    """Invalid configuration value or malformed config file."""


class CheckpointError(GeofuseError):
    """Checkpoint file is malformed, truncated, fails its SHA-256 digest, or
    is from another format version (version-1 files, which have no digest,
    included)."""
