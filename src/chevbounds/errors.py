"""Exception types shared by every module."""

from __future__ import annotations


class InputError(ValueError):
    """Raised when an argument violates a documented precondition."""


class ResourceLimitError(RuntimeError):
    """Raised when a computation would exceed a configured size cap."""


class OracleError(RuntimeError):
    """Raised when an internal cross-check fails; indicates a bug, not bad input."""
