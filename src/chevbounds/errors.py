"""Exception types shared by every module."""

from __future__ import annotations


class InputError(ValueError):
    """Raised when an argument violates a documented precondition."""


class ResourceLimitError(RuntimeError):
    """Raised when a computation would exceed a configured size cap.

    `knob` names the parameter that sets the cap: "cap" for the entry cap,
    or a page-shape cap such as "levels_cap".
    """

    def __init__(self, message: str, knob: str = "cap") -> None:
        super().__init__(message)
        self.knob = knob


class OracleError(RuntimeError):
    """Raised when an internal cross-check fails; indicates a bug, not bad input."""
