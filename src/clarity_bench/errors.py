"""Exception types raised across the pipeline."""


class ClarityBenchError(Exception):
    """Base class for all pipeline-specific errors."""


class FormatError(ClarityBenchError):
    """Unsupported or malformed audio file."""


class RateMismatchError(ClarityBenchError):
    """A sample rate (audio file or HRTF set) differs from the rate the caller demands."""


class InsufficientDecayError(ClarityBenchError):
    """Impulse response never decays far enough for the requested RT measurement."""


class AlignmentError(ClarityBenchError):
    """Reference/processed alignment failed (degenerate input)."""


class MixError(ClarityBenchError):
    """SNR mixing could not be performed (e.g. silent interferers)."""


class SceneValidationError(ClarityBenchError):
    """A scene description violates the schema. Carries all offending fields."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class StatisticsError(ClarityBenchError):
    """Degenerate statistical computation (e.g. zero variance in a correlation)."""
