"""Exception types shared by every module, the two gates that raise them, and `Record`.

`require_int` is the one check of an integer argument.  `_check_cap` is the
one place that builds a ResourceLimitError: each stage that a cap bounds
passes it the count it reached, so every exit-3 message has one form.
`Record` is the frozen base of every result type.
"""

from __future__ import annotations

from types import SimpleNamespace


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


class _RecordType(type):
    """Builds each record class: slots, and __init__, __eq__ and __hash__ from one exec.

    The fields are the class annotations, in order; a value in the class body
    is that field's default.  `__init__` writes every field through its slot
    descriptor, which `Record.__setattr__` does not reach, and then calls
    `__post_init__` if the class has one.  Unless the class is declared with
    eq=False, __eq__ and __hash__ compare and hash the tuple of fields, as a
    frozen dataclass does.  A method the class body writes itself is kept.
    """

    def __new__(mcls, name, bases, ns, eq=True):
        fields = tuple(ns.get("__annotations__", ()))
        defaults = {f"_d_{f}": ns.pop(f) for f in fields if f in ns}
        ns["__slots__"] = fields
        cls = super().__new__(mcls, name, bases, ns)
        params = ", ".join(f"{f}=_d_{f}" if f"_d_{f}" in defaults else f for f in fields)
        lines = [f"def __init__(self, {params}):"]
        lines += [f" _set_{f}(self, {f})" for f in fields]
        lines.append(" self.__post_init__()" if hasattr(cls, "__post_init__") else " pass")
        row = "".join(f"self.{f}," for f in fields)
        lines += [
            "def __eq__(self, other):",
            " if other.__class__ is self.__class__:",
            f"  return ({row}) == ({row.replace('self.', 'other.')})",
            " return NotImplemented",
            "def __hash__(self):",
            f" return hash(({row}))",
        ]
        made = {}
        setters = {f"_set_{f}": cls.__dict__[f].__set__ for f in fields}
        exec("\n".join(lines), {**setters, **defaults}, made)
        for method in ("__init__", "__eq__", "__hash__") if eq else ("__init__",):
            if method not in ns:
                made[method].__qualname__ = f"{cls.__qualname__}.{method}"
                setattr(cls, method, made[method])
        # What dataclasses.replace reads of each field.
        cls.__dataclass_fields__ = {
            f: SimpleNamespace(name=f, init=True, _field_type=None) for f in fields
        }
        return cls


class Record(metaclass=_RecordType, eq=False):
    """A frozen record with slots; `dataclasses.replace` copies one with changes.

    Setting or deleting a field raises dataclasses.FrozenInstanceError.
    `dataclasses.fields`, `asdict` and `astuple` see no fields.
    """

    def __repr__(self) -> str:
        parts = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({parts})"

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError  # only on this error path

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild through __init__, since the fields refuse setattr.
        return type(self), tuple(getattr(self, f) for f in self.__slots__)
