"""The library stays exact: no float or complex literal, no `float` and no true division in src/."""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _inexact_tokens(source: str) -> list[tuple[int, str]]:
    """(line, text) of every float or complex literal, name `float` and `/` or `/=`.

    True division turns two ints into a float; exact quotients are written
    `Fraction(a, b)`.
    """
    found = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NUMBER:
            inexact = isinstance(ast.literal_eval(tok.string), (float, complex))
        elif tok.type == tokenize.OP:
            inexact = tok.string in ("/", "/=")
        else:
            inexact = tok.type == tokenize.NAME and tok.string == "float"
        if inexact:
            found.append((tok.start[0], tok.string))
    return found


def test_the_scan_finds_inexact_tokens() -> None:
    source = "a = 1.5\nb = 2j\nc = 1e3\nd = float(a)\ne = 10**7 + 0x1e + 1_000\n"
    assert _inexact_tokens(source) == [(1, "1.5"), (2, "2j"), (3, "1e3"), (4, "float")]
    assert _inexact_tokens("f = a / b\ng /= 2\nh = a // b\n") == [(1, "/"), (2, "/=")]
    # Strings and comments are not code.
    assert _inexact_tokens('s = "0.5 float a / b"  # 2.5 float a / b\n') == []


def test_src_has_no_float_or_complex() -> None:
    files = sorted(SRC.rglob("*.py"))
    assert len(files) >= 8
    found = {
        str(path.relative_to(SRC)): hits
        for path in files
        if (hits := _inexact_tokens(path.read_text(encoding="utf-8")))
    }
    assert found == {}
