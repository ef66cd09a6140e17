"""Exception and warning types shared across the package."""

__all__ = [
    "DiagnosticError",
    "DomainError",
    "FitFailureError",
    "FormatVersionError",
    "InconsistentConstantsError",
    "InsufficientDataError",
    "ParseError",
    "ScalingLawError",
    "ScalingLawWarning",
    "SolverError",
    "UnreachableLossError",
    "ValidationError",
]


class ScalingLawError(Exception):
    """Base class for every error this package raises on purpose."""


class DomainError(ScalingLawError, ValueError):
    """An argument lies outside an operation's mathematical domain."""


class SolverError(ScalingLawError, RuntimeError):
    """A numerical routine failed to converge on a root, or to resolve its grid."""


class InsufficientDataError(ScalingLawError, ValueError):
    """Too few runs or points to determine the requested quantities."""


class FitFailureError(ScalingLawError, RuntimeError):
    """A regression produced constants outside their valid ranges."""


class InconsistentConstantsError(FitFailureError):
    """Observed losses sit at or below the floor implied by earlier stages."""


class UnreachableLossError(ScalingLawError, ValueError):
    """The requested loss lies at or below an asymptotic floor."""


class ValidationError(ScalingLawError, ValueError):
    """Structured data violates one of its declared invariants."""


class DiagnosticError(ScalingLawError, ValueError):
    """A diagnostic cannot run because its input lacks required structure."""


class ParseError(ScalingLawError, ValueError):
    """A file could not be parsed.

    The 1-based line number, when known, is attached as ``line`` and
    prefixed to the message.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class FormatVersionError(ParseError):
    """A document declares a schema version this package does not know."""


class ScalingLawWarning(UserWarning):
    """Advisory condition noticed while fitting or planning."""
