"""Error types shared across the package.

DomainError marks inputs that violate a mathematical precondition (unstable
polynomial, evaluation at a singularity, a value off the unit circle).
NumericError marks computations that failed to reach the required accuracy
(non-convergent root iteration, a certificate residual above tolerance).
The CLI maps them to distinct exit codes.  The checks of inputs that
several modules take live here too, one message each.
"""

from __future__ import annotations

import operator


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


def _as(convert, value, message: str):
    """convert(value), or DomainError(message.format(value)) on its Type- or ValueError."""
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise DomainError(message.format(value)) from None


def _integer(value, message: str) -> int:
    """value as an int, numpy's included; a bool or whatever operator.index
    refuses (2.5, "3") raises DomainError(message.format(value))."""
    if isinstance(value, bool):
        raise DomainError(message.format(value))
    return _as(operator.index, value, message)


def _check_seed(seed) -> None:
    """DomainError unless seed is a nonnegative integer, numpy's included."""
    if _integer(seed, "seed must be an integer, not {!r}") < 0:
        raise DomainError(f"seed must be nonnegative, not {seed!r}")


def _node_count(count) -> int:
    """count once it is a positive integer; 2.5 is refused, not truncated."""
    count = _integer(count, "node count must be a positive integer, not {!r}")
    if count < 1:
        raise DomainError("node count must be positive")
    return count


def _unimodular(value, name: str = "alpha") -> complex:
    """value projected onto the unit circle once it lies within 1e-6 of it;
    otherwise DomainError naming it: "Blaschke constant must be unimodular"."""
    a = _as(complex, value, f"{name} must be a complex number, not {{!r}}")
    if not abs(abs(a) - 1.0) <= 1e-6:
        raise DomainError(f"{name} must be unimodular")
    return a / abs(a)
