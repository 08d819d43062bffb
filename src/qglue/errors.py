"""Exception taxonomy shared across the package.

DomainError maps to CLI exit code 2, NumericalError to exit code 3 and
ManifestError to exit code 1.
"""

__all__ = ["QGlueError", "DomainError", "NumericalError",
           "IllConditionedError", "ManifestError"]


class QGlueError(Exception):
    """Base class for all package errors."""


class DomainError(QGlueError, ValueError):
    """Input outside the mathematical domain (n < 5, nonpositive conformal
    factor, necksize outside (0, eps_bar], evaluation at a singular point)."""


class NumericalError(QGlueError, RuntimeError):
    """A numerical procedure failed: trajectory escape before the requested
    time, orbit continuation stalled, divergent iteration, degenerate fit."""


class IllConditionedError(NumericalError):
    """Linear system too ill-conditioned to trust; carries the estimate.

    For the bordered right inverse it is the 1-norm condition estimate
    (Hager-Higham, as in LAPACK gecon) of the row-equilibrated bordered
    matrix, raised above corrector.COND_LIMIT = 1e13."""

    def __init__(self, message, cond_estimate):
        super().__init__(f"{message} (condition estimate {cond_estimate:.3e})")
        self.cond_estimate = cond_estimate


class ManifestError(QGlueError, ValueError):
    """Run manifest failed schema validation; message carries a JSON pointer."""
