"""Every ResourceLimitError in src/ is built by one gate, `errors._check_cap`.

The scan names the function (the innermost def, or <module>) around each
call of a given name and each bare `raise` of it, whether it is written
`name` or `module.name`.  A ResourceLimitError built anywhere but the gate is
a second copy of the cap rule, with its own message; and each stage that a
cap bounds reaches the gate through a call of `_check_cap`.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _named(node: ast.AST | None, name: str) -> bool:
    """Whether node is `name` or `something.name`."""
    if isinstance(node, ast.Attribute):
        return node.attr == name
    return isinstance(node, ast.Name) and node.id == name


def _callers(source: str, name: str) -> list[str]:
    """The enclosing function of every call or bare raise of `name`, in source order."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Call) and _named(node.func, name)) or (
            isinstance(node, ast.Raise) and _named(node.exc, name)
        ):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def _src_callers(name: str) -> list[str]:
    return [
        f"{path.relative_to(SRC).as_posix()}::{where}"
        for path in sorted(SRC.rglob("*.py"))
        for where in _callers(path.read_text(encoding="utf-8"), name)
    ]


def test_the_scan_finds_every_build_of_the_error() -> None:
    source = (
        "def gate():\n    raise ResourceLimitError('x')\n"
        "def a():\n    raise errors.ResourceLimitError('y')\n"
        "class C:\n    def b(self):\n        def inner():\n"
        "            return ResourceLimitError()\n"
        "def c():\n    raise ResourceLimitError\n"
        "def d():\n    try:\n        pass\n    except ResourceLimitError:\n"
        "        raise InputError('z')\n"
        "def e():\n    return isinstance(x, ResourceLimitError), OtherResourceLimitError()\n"
        "top = ResourceLimitError('top')\n"
    )
    assert _callers(source, "ResourceLimitError") == ["gate", "a", "inner", "c", "<module>"]


def test_only_the_gate_builds_a_resource_limit_error() -> None:
    assert _src_callers("ResourceLimitError") == ["chevbounds/errors.py::_check_cap"]


def test_every_capped_stage_calls_the_gate() -> None:
    assert sorted(_src_callers("_check_cap")) == [
        "chevbounds/bounds.py::lemma61_scan",
        "chevbounds/e1oracle.py::_carry_class",
        "chevbounds/modchar.py::_degree_fold",
        "chevbounds/modchar.py::_freudenthal_multiplicities",
        "chevbounds/modchar.py::dominant",
    ]
