"""Every memo cache in src/ is bounded, so no long run grows one without limit.

The scan reads the decorators of every function: `functools.cache` and an
`lru_cache` without a positive integer `maxsize` are unbounded.  The one
exception is `build_root_system`: its keys are the 48 supported systems, and
invalid input raises before anything is cached.  Every other cache keys on a
`RootSystem` object, so only `rootsys` calls `build_root_system`.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _caches(source: str) -> list[tuple[str, bool]]:
    """(function name, bounded?) for every function with a cache decorator."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in node.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            target = call.func if call else dec
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
            if name == "cache":
                found.append((node.name, False))
            elif name == "lru_cache":
                size = None
                if call is not None:
                    keywords = [k.value for k in call.keywords if k.arg == "maxsize"]
                    size = (call.args or keywords or [None])[0]
                bounded = (
                    isinstance(size, ast.Constant) and type(size.value) is int and size.value > 0
                )
                found.append((node.name, bounded))
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
    assert _caches(source) == [
        ("a", False), ("b", False), ("c", False), ("d", True), ("e", True), ("f", False)
    ]


def test_every_cache_in_src_is_bounded() -> None:
    caches = {
        f"{path.relative_to(SRC).as_posix()}::{name}": bounded
        for path in sorted(SRC.rglob("*.py"))
        for name, bounded in _caches(path.read_text(encoding="utf-8"))
    }
    assert len(caches) >= 7
    assert [name for name, bounded in caches.items() if not bounded] == [
        "chevbounds/rootsys.py::build_root_system"
    ]


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
