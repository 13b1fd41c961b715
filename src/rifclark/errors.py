"""Error types shared across the package.

DomainError marks inputs that violate a mathematical precondition (unstable
polynomial, evaluation at a singularity, a value off the unit circle).
NumericError marks computations that failed to reach the required accuracy
(non-convergent root iteration, a certificate residual above tolerance).
The CLI maps them to distinct exit codes.
"""

from __future__ import annotations


class RifClarkError(Exception):
    """Base class for package errors."""


class DomainError(RifClarkError):
    """Input violates a precondition of the operation."""


class NumericError(RifClarkError):
    """Computation could not certify the requested accuracy."""

    def __init__(self, message: str, residual: float | None = None):
        if residual is not None:
            message = f"{message} (residual {residual:.3e})"
        super().__init__(message)
        self.residual = residual


def _check_seed(seed) -> None:
    """DomainError for a seed numpy's generators refuse as negative."""
    if not seed >= 0:
        raise DomainError(f"seed must be nonnegative, not {seed!r}")
