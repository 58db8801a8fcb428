"""Exception types shared by every module, and the two gates that raise them.

`require_int` is the one check of an integer argument.  `_check_cap` is the
one place that builds a ResourceLimitError: each stage that a cap bounds
passes it the count it reached, so every exit-3 message has one form.
"""

from __future__ import annotations


class InputError(ValueError):
    """Raised when an argument violates a documented precondition."""


class ResourceLimitError(RuntimeError):
    """Raised when a computation would exceed a configured size cap."""


class OracleError(RuntimeError):
    """Raised when an internal cross-check fails; indicates a bug, not bad input."""


def _shown(value: object) -> str:
    """repr(value) for a message; a value too long to print, alone or in a tuple, is named."""
    try:
        return repr(value)
    except ValueError:  # an int past sys.get_int_max_str_digits()
        if not isinstance(value, tuple):
            return f"<{type(value).__name__} too long to print>"
    parts = [_shown(x) for x in value]
    return f"({', '.join(parts)}{',' if len(parts) == 1 else ''})"


def require_int(value: object, what: str, low: int, high: int | None = None) -> int:
    """value if it is an int (not a bool or 2.0) in low..high, else InputError naming `what`.

    With high None the range has no upper end.
    """
    if type(value) is not int:
        raise InputError(f"{what} must be an integer, got {_shown(value)}")
    if value < low or (high is not None and value > high):
        bounds = f"below {low}" if high is None else f"outside {low}..{high}"
        raise InputError(f"{what} = {_shown(value)} {bounds}")
    return value


def _check_cap(stage: str, size: int, cap: int, what: str) -> None:
    """Raise ResourceLimitError naming the stage, its size and the cap when size passes cap."""
    if size > cap:
        raise ResourceLimitError(
            f"{stage}: {what} {_shown(size)}, above the cap {_shown(cap)}; raise the cap to allow"
        )
