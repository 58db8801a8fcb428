"""Every memo cache in src/ is bounded, and every cache on a public function is typed.

The scan reads the decorators of every function: `functools.cache` and an
`lru_cache` without a positive integer `maxsize` are unbounded.  The one
exception is `build_root_system`: its keys are the 48 supported systems.
Every other cache keys on a `RootSystem` object, so only `rootsys` calls
`build_root_system`.

A cache on a public function sits in front of that function's checks of its
arguments, and an untyped one answers 2.0 or True from the entry of 2 or 1
without checking them.  So such a cache must be `typed=True`: then bad
input misses the cache and raises before anything is stored.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _caches(source: str) -> list[tuple[str, bool, bool]]:
    """(function name, bounded?, typed?) for every function with a cache decorator."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            target = call.func if call else dec
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
            if name == "cache":
                found.append((node.name, False, False))
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
                found.append((node.name, bounded, is_typed))
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
    assert [(name, bounded) for name, bounded, _ in _caches(source)] == [
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
    assert [(name, typed) for name, _, typed in _caches(source)] == [
        ("a", True), ("b", True), ("c", False), ("d", False), ("e", False), ("f", False),
        ("g", False),
    ]


def _src_caches() -> dict[str, tuple[bool, bool]]:
    return {
        f"{path.relative_to(SRC).as_posix()}::{name}": (bounded, typed)
        for path in sorted(SRC.rglob("*.py"))
        for name, bounded, typed in _caches(path.read_text(encoding="utf-8"))
    }


def test_every_cache_in_src_is_bounded() -> None:
    caches = _src_caches()
    assert len(caches) >= 7
    assert [name for name, (bounded, _) in caches.items() if not bounded] == [
        "chevbounds/rootsys.py::build_root_system"
    ]


def test_every_cache_on_a_public_function_is_typed() -> None:
    public = {
        name: typed
        for name, (_, typed) in _src_caches().items()
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
