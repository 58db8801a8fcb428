"""The frozen record base: each result type keeps what its dataclass gave.

Every record class is sampled once.  A record hashes and prints as a frozen
dataclass with the same fields did, which the twin built by
`dataclasses.make_dataclass` checks; `RootSystem` keeps identity equality,
`WeightMultiset` its own equality, hash and repr, and `ThresholdReport`
leaves `inputs_echo` out of its hash.  `dataclasses.replace` copies a record
through its `__init__`, so `__post_init__` checks the copy.

A CLI process imports neither `dataclasses` nor `inspect`, and no module in
src/ imports `dataclasses` when it is loaded.
"""

from __future__ import annotations

import ast
import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path
from types import MappingProxyType

import pytest

from chevbounds.bounds import (
    ThresholdReport,
    compare_thresholds,
    generic_thresholds,
    stability_constants,
)
from chevbounds.e1oracle import (
    ExponentTuple,
    check_bs_vanishing,
    check_weight_bounds,
    invariant_page,
    verify_e1,
)
from chevbounds.errors import InputError, OracleError, Record
from chevbounds.modchar import WeightMultiset, weyl_character
from chevbounds.rootsys import RootSystem, Weight, build_root_system
from chevbounds.weightcomb import BInvariant

SRC = Path(__file__).resolve().parent.parent / "src"

RS = build_root_system("A", 2)
PAGE = invariant_page(RS, 3, 1, 0, (2, 1), WeightMultiset.trivial(RS), 2)
THRESHOLDS = generic_thresholds(RS, 3, 2, 2)
SAMPLES = (
    Weight((2, 1)),
    RS.positive_roots[-1],
    RS,
    PAGE.gammas,
    BInvariant(3),
    ExponentTuple(2, (0, 1), None, (1, 0)),
    PAGE,
    check_weight_bounds(PAGE, "rough"),
    check_bs_vanishing(RS, 3, (2, 1), 1, 2),
    verify_e1(PAGE),
    stability_constants(RS, 3, 2),
    THRESHOLDS,
    compare_thresholds(RS, 3, 2, weyl_character(RS, (1, 0))),
)
IDS = [type(r).__name__ for r in SAMPLES]
# The records whose equality or hash is not the dataclass one.
OWN_EQUALITY = (RootSystem, WeightMultiset, ThresholdReport)


def _values(record: Record) -> tuple:
    return tuple(getattr(record, f) for f in record.__slots__)


def _twin(record: Record) -> object:
    """A frozen dataclass with the record's name, fields and values."""
    cls = dataclasses.make_dataclass(type(record).__qualname__, record.__slots__, frozen=True)
    return cls(*_values(record))


def test_every_record_class_is_sampled() -> None:
    assert sorted(IDS) == sorted(cls.__name__ for cls in Record.__subclasses__())
    assert len(IDS) == 13


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_hash_and_repr_are_those_of_a_frozen_dataclass(record: Record) -> None:
    if not isinstance(record, OWN_EQUALITY):
        twin = _twin(record)
        assert hash(record) == hash(twin) == hash(_values(record))
        assert repr(record) == repr(twin)
    for other in (object(), *SAMPLES):
        if type(other) is not type(record):
            assert record.__eq__(other) is NotImplemented
    if not isinstance(record, RootSystem):
        assert record == type(record)(*_values(record))


def test_the_records_with_their_own_equality() -> None:
    twin = dataclasses.replace(RS)
    assert _values(twin) == _values(RS) and twin != RS and RS == RS
    assert hash(RS) == object.__hash__(RS)
    gammas = PAGE.gammas
    assert hash(gammas) == hash((gammas.items,))
    assert repr(gammas) == f"WeightMultiset(A2, items={gammas.items!r})"
    report = THRESHOLDS
    echoed = dataclasses.replace(report, inputs_echo={"other": 1})
    assert hash(echoed) == hash(report) == hash(_values(report)[:-1])
    assert echoed != report
    assert repr(report) == repr(_twin(report))


def test_the_repr_names_each_field() -> None:
    assert repr(Weight((2, 1))) == "Weight(coords=(2, 1))"
    assert repr(BInvariant(3)) == "BInvariant(value=3)"
    assert repr(ExponentTuple(2, (0, 1), None, (1, 0))) == (
        "ExponentTuple(p=2, a=(0, 1), b=None, bidegree=(1, 0))"
    )


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_arguments_by_position_and_by_keyword(record: Record) -> None:
    cls = type(record)
    values = _values(record)
    keywords = dict(zip(cls.__slots__, values))
    assert _values(cls(*values)) == _values(cls(**keywords)) == values
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(**keywords, extra=None)


def test_defaults() -> None:
    items = PAGE.gammas.items
    assert _values(WeightMultiset(RS, items)) == (RS, items, None, None, None)
    report = ThresholdReport("T511", 1, 0, 1, ())
    assert report.inputs_echo == {} and isinstance(report.inputs_echo, MappingProxyType)


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_replace_copies_every_field_it_is_not_given(record: Record) -> None:
    copied = dataclasses.replace(record)
    assert copied is not record and _values(copied) == _values(record)


def test_replace_runs_post_init() -> None:
    with pytest.raises(InputError, match="tuple of integers"):
        dataclasses.replace(Weight((2, 1)), coords=(2, True))
    report = THRESHOLDS
    with pytest.raises(OracleError, match="r_min"):
        dataclasses.replace(report, r_min=0)
    with pytest.raises(OracleError, match="unknown theorem tag"):
        dataclasses.replace(report, theorem_tag="T999")
    # The copy's echo is a read-only copy of the mapping given.
    echo = {"m": 2}
    copied = dataclasses.replace(report, inputs_echo=echo)
    echo["m"] = 3
    assert copied.inputs_echo == {"m": 2} and isinstance(copied.inputs_echo, MappingProxyType)
    with pytest.raises(TypeError):
        dataclasses.replace(report, extra=1)


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_records_are_frozen_and_slotted(record: Record) -> None:
    assert not hasattr(record, "__dict__")
    name = record.__slots__[0]
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign"):
        setattr(record, name, None)
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot delete"):
        delattr(record, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.other = None


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
def test_copy_rebuilds_through_init(record: Record) -> None:
    assert _values(copy.copy(record)) == _values(record)


def test_pickle_round_trip() -> None:
    for record in (Weight((2, 1)), BInvariant(3), ExponentTuple(2, (0, 1), None, (1, 0))):
        assert pickle.loads(pickle.dumps(record)) == record


def test_a_cli_process_imports_neither_dataclasses_nor_inspect() -> None:
    # -S: a site-packages .pth file may import anything, and is not the library's.
    script = (
        "import sys\n"
        "from chevbounds.cli import run\n"
        "code = run(sys.argv[1:])\n"
        "print(code, sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    argv = ["verify-e1", "--type", "A1", "--p", "2", "--s", "1", "--f", "0", "--m", "1",
            "--weight", "1"]
    done = subprocess.run(
        [sys.executable, "-S", "-c", script, *argv],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1"),
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert "verdict=ok" in lines
    assert lines[-1] == "0 []"


def _eager_dataclasses_imports(source: str) -> list[int]:
    """Lines that import dataclasses when the module is loaded, that is outside any function."""
    found = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                if any(a.name.partition(".")[0] == "dataclasses" for a in child.names):
                    found.append(child.lineno)
            elif isinstance(child, ast.ImportFrom) and (child.level, child.module) == (
                0, "dataclasses"
            ):
                found.append(child.lineno)
            visit(child)

    visit(ast.parse(source))
    return found


def test_the_scan_finds_eager_dataclasses_imports() -> None:
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "import os, dataclasses as dc\n"
        "if True:\n    from dataclasses import field\n"
        "class A:\n    import dataclasses\n"
        "def f():\n    from dataclasses import FrozenInstanceError\n"
        "class B:\n    def g(self):\n        import dataclasses\n"
        "import dataclasses_json\n"
        "from .dataclasses import x\n"
    )
    assert _eager_dataclasses_imports(source) == [1, 2, 3, 5, 7]


def test_no_module_in_src_imports_dataclasses_when_loaded() -> None:
    eager = {
        path.relative_to(SRC).as_posix(): lines
        for path in sorted(SRC.rglob("*.py"))
        if (lines := _eager_dataclasses_imports(path.read_text(encoding="utf-8")))
    }
    assert eager == {}
