"""Exception hierarchy shared by all vergescope modules."""


class VergescopeError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(VergescopeError, ValueError):
    """A command line that the CLI's argument grammar rejects."""


class DomainError(VergescopeError, ValueError):
    """A numeric argument is outside the mathematical domain of the operation."""


class RankDeficiencyError(VergescopeError, ValueError):
    """A least-squares design has no unique solution (collinear or constant columns)."""


class NestingError(VergescopeError, ValueError):
    """Model comparison requested for formulas that are not properly nested."""


class LevelError(VergescopeError, ValueError):
    """A categorical value is not among the declared levels for its variable."""


class MissingLevelError(VergescopeError, ValueError):
    """An expected categorical level is absent from the data."""


class FormulaError(VergescopeError, ValueError):
    """A model formula string or term set is malformed or violates marginality."""


class CorrelationError(VergescopeError, ValueError):
    """Pearson correlation is undefined for the given inputs."""


class VarianceShareError(VergescopeError, ValueError):
    """Variance attribution is undefined (zero-R-squared denominator)."""


class UnitError(VergescopeError, ValueError):
    """An unrecognized measurement unit."""


class MissingBaselineError(VergescopeError, ValueError):
    """A ratio table is missing its reference-environment baseline value."""


class CalibrationError(VergescopeError, ValueError):
    """Base for calibration-model problems."""


class InvalidModelError(CalibrationError):
    """A participant model is unusable (non-positive slope)."""


class CalibrationRangeError(CalibrationError):
    """A depth estimate falls outside the trusted calibration range."""


class ParticipantMismatchError(CalibrationError, LookupError):
    """An observation was paired with another participant's model."""


class NoFixationError(VergescopeError, ValueError):
    """No qualifying fixation found in a trial."""


class ShortTrialError(VergescopeError, ValueError):
    """The analysis window extends past the end of the recorded samples."""


class GazeParseError(VergescopeError, ValueError):
    """A data file failed strict parsing.

    Carries the offending path and 1-based line number when known.
    """

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f" [{path}" + (f":{line}" if line is not None else "") + "]"
        super().__init__(message + where)
