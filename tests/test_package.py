"""The package root exports exactly the names it binds."""

from __future__ import annotations

import chevbounds


def test_every_exported_name_is_bound_once() -> None:
    exported = chevbounds.__all__
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(chevbounds, name)] == []
    namespace: dict = {}
    exec("from chevbounds import *", namespace)
    assert set(exported) <= set(namespace)
