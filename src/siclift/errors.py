"""Shared exception types."""


class SicliftError(Exception):
    """Base class for package errors."""


class PrecisionError(SicliftError):
    """Raised when a computation cannot be decided at the working precision.

    Callers are expected to retry with more digits.
    """


class FiducialPrecisionError(PrecisionError):
    """The fiducial supports fewer digits than requested; more cannot help."""


class SingularMatrixError(SicliftError):
    """Linear solve hit a (numerically) singular matrix."""


class FieldError(SicliftError):
    """Inconsistent number-field data (bad tower, reducible adjunction, ...)."""


class LiftError(SicliftError):
    """Exact lifting failed: no acceptable integer relation, or inconsistent
    field degrees across coefficients."""


class SearchError(SicliftError):
    """No random restart converged; carries the best error seen."""

    def __init__(self, message, best_error=None):
        super().__init__(message)
        self.best_error = best_error


class RefinementError(SicliftError):
    """Newton refinement diverged or stagnated; carries diagnostics."""

    def __init__(self, message, best_error=None, sweeps=None):
        super().__init__(message)
        self.best_error = best_error
        self.sweeps = sweeps


class RelationError(SicliftError):
    """Degenerate integer relation (e.g. vanishing leading coefficient where a
    basis expression requires division by it)."""
