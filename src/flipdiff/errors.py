"""Exception types shared across the package."""


class FlipdiffError(Exception):
    """Base class for package-specific errors."""


class EnumerationLimitError(FlipdiffError, ValueError):
    """Raised when an operation would need a 2^d table beyond the configured limit."""


class InvalidScoreError(FlipdiffError, ValueError):
    """A score vector violates 1 - s >= 0, so backward rates would be negative."""


class AssumptionViolationError(FlipdiffError, ValueError):
    """A distribution fails a full-support requirement; the message names the state."""


class ModelCorruptError(FlipdiffError, RuntimeError):
    """Model parameters contain NaN or infinity."""


class TrainingError(FlipdiffError, RuntimeError):
    """Training produced a non-finite or diverging loss."""


class CheckpointFormatError(FlipdiffError, ValueError):
    """Checkpoint file is malformed (bad magic, truncation, size mismatch)."""


class CheckpointVersionError(FlipdiffError, ValueError):
    """Checkpoint format version is not supported."""


class ConfigMismatchError(FlipdiffError, ValueError):
    """Checkpoint metadata disagrees with the requested run configuration."""


class PlanningError(FlipdiffError, ValueError):
    """Step-size planning has no valid solution for the requested accuracy."""


class SamplerError(FlipdiffError, RuntimeError):
    """Backward simulation failed (non-finite rate, bad schedule state)."""


class SampleFormatError(FlipdiffError, ValueError):
    """Sample dump is malformed (empty, ragged, or a character other than 0/1)."""


class ConfigError(FlipdiffError, ValueError):
    """Run configuration file is invalid (unknown keys, bad values)."""
