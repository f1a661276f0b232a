"""Exception types raised across the pipeline."""


class ClarityBenchError(Exception):
    """Base class for all pipeline-specific errors."""


class FormatError(ClarityBenchError):
    """Unsupported or malformed audio file."""


class RateMismatchError(ClarityBenchError):
    """An audio file whose sample rate is not audio.DEFAULT_RATE."""


class MixError(ClarityBenchError):
    """SNR mixing could not be performed (e.g. silent interferers)."""


class SceneValidationError(ClarityBenchError):
    """A scene description violates the schema. Carries all offending fields."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class StatisticsError(ClarityBenchError):
    """Degenerate statistical computation (e.g. zero variance in a correlation)."""
