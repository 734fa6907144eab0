"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: precondition violations, zero factors
and poles exit 2, failed checks exit 3, resource caps and quadrature that
does not converge exit 4.
"""

from __future__ import annotations


class PrecondError(ValueError):
    """An operation was called outside its stated preconditions."""


class PoleError(ArithmeticError):
    """A cotangent (or similar) evaluation landed on a pole."""

    def __init__(self, message: str, n: int | None = None):
        super().__init__(message)
        self.n = n


class ZeroFactorError(ArithmeticError):
    """A product hit an exact zero factor; carries the offending index."""

    def __init__(self, message: str, n: int | None = None):
        super().__init__(message)
        self.n = n


class EnumerationCapError(RuntimeError):
    """An enumeration exceeded the configured resource cap."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge to the requested tolerance."""
