"""Every memo cache in src/ is bounded, returns an immutable value, and is typed if public.

The scan reads the decorators of every function: `functools.cache` and an
`lru_cache` without a positive integer `maxsize` are unbounded.  The one
exception is `build_root_system`: its keys are the 48 supported systems.
Every other cache keys on a `RootSystem` object, so only `rootsys` calls
`build_root_system`.

A cache on a public function sits in front of that function's checks of its
arguments, and an untyped one answers 2.0 or True from the entry of 2 or 1
without checking them.  So such a cache must be `typed=True`: then bad
input misses the cache and raises before anything is stored.

An `lru_cache` bounds its entries, not what a caller adds to a mutable
result, so every cached function states its return type, and the outer
type is not a dict, list or set.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


# Lower-cased, so that typing.Dict, List and Set count too.
MUTABLE = {"dict", "list", "set"}


def _outer_return(node: ast.FunctionDef | ast.AsyncFunctionDef) -> str | None:
    """The outer type name of the return annotation, e.g. `dict` for `dict[str, int]`."""
    ann = node.returns
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        ann = ast.parse(ann.value, mode="eval").body
    if ann is None:
        return None
    if isinstance(ann, ast.Subscript):
        ann = ann.value
    return ast.unparse(ann).rpartition(".")[2]


def _unsafe(returns: str | None) -> bool:
    """Whether a cached function's return is unstated or a mutable container."""
    return returns is None or returns.lower() in MUTABLE


def _caches(source: str) -> list[tuple[str, bool, bool, str | None]]:
    """(name, bounded?, typed?, outer return type) for every function with a cache decorator."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        returns = _outer_return(node)
        for dec in node.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            target = call.func if call else dec
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
            if name == "cache":
                found.append((node.name, False, False, returns))
            elif name == "lru_cache":
                size = typed = None
                if call is not None:
                    keywords = {k.arg: k.value for k in call.keywords}
                    size = call.args[0] if call.args else keywords.get("maxsize")
                    typed = call.args[1] if len(call.args) > 1 else keywords.get("typed")
                bounded = (
                    isinstance(size, ast.Constant) and type(size.value) is int and size.value > 0
                )
                is_typed = isinstance(typed, ast.Constant) and typed.value is True
                found.append((node.name, bounded, is_typed, returns))
    return found


def test_the_scan_finds_unbounded_caches() -> None:
    source = (
        "@lru_cache(maxsize=None)\ndef a(): pass\n"
        "@functools.lru_cache\ndef b(): pass\n"
        "@cache\ndef c(): pass\n"
        "@lru_cache(maxsize=64)\ndef d(): pass\n"
        "@functools.lru_cache(32)\ndef e(): pass\n"
        "@lru_cache(maxsize=LIMIT)\ndef f(): pass\n"
        "@staticmethod\ndef g(): pass\n"
    )
    assert [(name, bounded) for name, bounded, _, _ in _caches(source)] == [
        ("a", False), ("b", False), ("c", False), ("d", True), ("e", True), ("f", False)
    ]


def test_the_scan_finds_untyped_caches() -> None:
    source = (
        "@lru_cache(maxsize=8, typed=True)\ndef a(): pass\n"
        "@functools.lru_cache(8, True)\ndef b(): pass\n"
        "@lru_cache(maxsize=8)\ndef c(): pass\n"
        "@lru_cache(maxsize=8, typed=False)\ndef d(): pass\n"
        "@lru_cache(maxsize=8, typed=TYPED)\ndef e(): pass\n"
        "@functools.lru_cache\ndef f(): pass\n"
        "@cache\ndef g(): pass\n"
    )
    assert [(name, typed) for name, _, typed, _ in _caches(source)] == [
        ("a", True), ("b", True), ("c", False), ("d", False), ("e", False), ("f", False),
        ("g", False),
    ]


def test_the_scan_finds_mutable_or_unstated_returns() -> None:
    source = (
        "@lru_cache(maxsize=8)\ndef a() -> dict[str, int]: pass\n"
        "@lru_cache(maxsize=8)\ndef b() -> typing.List[int]: pass\n"
        "@lru_cache(maxsize=8)\ndef c() -> 'set[int]': pass\n"
        "@lru_cache(maxsize=8)\ndef d(): pass\n"
        "@lru_cache(maxsize=8)\ndef e() -> tuple[int, dict[str, int]]: pass\n"
        "@cache\ndef f() -> frozenset[int]: pass\n"
        "@lru_cache(maxsize=8)\ndef g() -> Optional[int]: pass\n"
        "def h() -> dict: pass\n"
    )
    assert [(name, returns) for name, _, _, returns in _caches(source)] == [
        ("a", "dict"), ("b", "List"), ("c", "set"), ("d", None), ("e", "tuple"),
        ("f", "frozenset"), ("g", "Optional"),
    ]
    assert [name for name, _, _, returns in _caches(source) if _unsafe(returns)] == [
        "a", "b", "c", "d"
    ]


def _src_caches() -> dict[str, tuple[bool, bool, str | None]]:
    return {
        f"{path.relative_to(SRC).as_posix()}::{name}": (bounded, typed, returns)
        for path in sorted(SRC.rglob("*.py"))
        for name, bounded, typed, returns in _caches(path.read_text(encoding="utf-8"))
    }


def test_every_cache_in_src_is_bounded() -> None:
    caches = _src_caches()
    assert len(caches) >= 7
    assert [name for name, (bounded, _, _) in caches.items() if not bounded] == [
        "chevbounds/rootsys.py::build_root_system"
    ]


def test_every_cache_in_src_returns_a_stated_immutable_type() -> None:
    caches = _src_caches()
    assert [name for name, (_, _, returns) in caches.items() if _unsafe(returns)] == []
    assert "chevbounds/e1oracle.py::_carry_class" in caches


def test_every_cache_on_a_public_function_is_typed() -> None:
    public = {
        name: typed
        for name, (_, typed, _) in _src_caches().items()
        if not name.rpartition("::")[2].startswith("_")
    }
    assert sorted(public) == [
        "chevbounds/bounds.py::bs_vanish_threshold", "chevbounds/rootsys.py::build_root_system"
    ]
    assert [name for name, typed in public.items() if not typed] == []


def _calls(source: str, func: str) -> bool:
    """Whether the source calls `func` by name or as an attribute."""
    return any(
        isinstance(node, ast.Call)
        and func in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        for node in ast.walk(ast.parse(source))
    )


def test_only_rootsys_builds_root_systems() -> None:
    assert _calls("rs = rootsys.build_root_system('A', 1)", "build_root_system")
    assert not _calls("from .rootsys import build_root_system", "build_root_system")
    callers = [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        if _calls(path.read_text(encoding="utf-8"), "build_root_system")
    ]
    assert callers == ["chevbounds/rootsys.py"]
