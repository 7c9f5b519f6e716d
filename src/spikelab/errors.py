"""Exception types shared across spikelab modules."""


class SpikelabError(Exception):
    """Base class for all spikelab errors."""


class ConfigError(SpikelabError):
    """Invalid or inconsistent run configuration."""


class DivergedEvaluation(SpikelabError):
    """A loss, gradient, or HVP evaluation produced a non-finite value."""


class DivergedRun(SpikelabError):
    """An optimizer step diverged: a non-finite v_hat, or a huge parameter."""


class InvalidDirection(SpikelabError):
    """HVP requested along an all-zero direction."""


class OracleSizeExceeded(SpikelabError):
    """Dense-matrix oracle requested above its size cap."""


class ZeroGradient(SpikelabError):
    """Directional curvature requested along a zero gradient."""


class InvalidSeries(SpikelabError):
    """Series violates fit preconditions (too short or non-positive)."""


class PreconditionViolation(SpikelabError):
    """Descent, momentum or real-spectrum check given input outside its domain
    (five-stage and lr-decay return a SKIPPED (hypothesis) body instead)."""


class OracleMisuse(SpikelabError):
    """Oracle applied to a trace of the wrong optimizer or objective kind."""


class Indeterminate(SpikelabError):
    """Classifier could not decide within its resolution near a boundary."""
