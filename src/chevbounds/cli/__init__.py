"""Command-line front end.

Subcommands cover root-system inspection, the closed-form threshold
calculators, the brute-force page verifications, and the static reference
tables, with text, JSON, and CSV output.  All numbers are exact; rationals
render as "a/b".  `argparse` and `csv` load only when a command runs, so
`import chevbounds`, which loads this module, does not pay for them.
"""

from __future__ import annotations

import io
import json
import os
import sys
from fractions import Fraction as Q
from typing import TYPE_CHECKING, Any, Optional, Sequence

from ..bounds import (
    LEMMA61_PRIMES,
    compare_thresholds,
    finite_group_vanishing_range,
    generic_thresholds,
    lemma61_scan,
    stability_constants,
)
from ..e1oracle import invariant_page, verify_e1
from ..errors import InputError, OracleError, ResourceLimitError, require_int
from ..modchar import DEFAULT_ENTRY_CAP, WeightMultiset, weyl_character
from ..rootsys import RootSystem, Weight, parse_type
from ..weightcomb import b_invariant, structural_constants

if TYPE_CHECKING:
    import argparse

SCHEMA = "chevbounds/1"
DEFAULT_INT_DIGITS = 4300  # Python's default limit on printing an int

STRUCTURAL_HEADER = ("family", "c", "t", "ct")
STRUCTURAL_ROWS = (
    ("A_n", "1", "n+1", "n+1"),
    ("B_n", "2", "2", "4"),
    ("C_n", "2", "2", "4"),
    ("D_n", "2", "2", "4"),
    ("E6", "3", "3", "9"),
    ("E7", "4", "2", "8"),
    ("E8", "6", "1", "6"),
    ("F4", "4", "1", "4"),
    ("G2", "3", "1", "3"),
)

COMPARISON_HEADER = ("source", "e_formula", "f_formula")
COMPARISON_P2_ROWS = (
    ("CPSVDK", "max{c*t*m-1, 0}", "floor(log_2(t*c(M)+1))+1"),
    ("T811", "m", "ceil(log_2(b(M)+1))"),
)
COMPARISON_ODD_ROWS = (
    (
        "CPSVDK",
        "max{floor((c*t*m-1)/(p-1)), floor((c*t_p(M)*(m-1)-1)/(p-1))+1}",
        "floor(log_p(t*c(M)+1))+1",
    ),
    ("T811", "m/(p-2)", "ceil(log_p(b(M)+1))"),
)
COMPARISON_NOTE = (
    "f values share one normalization; add 1 to the CPSVDK row to recover "
    "its raw convention, which absorbs the shift into r >= floor(e)+f+1"
)

_TABLES = {  # kind: (header, rows, note)
    "structural": (STRUCTURAL_HEADER, STRUCTURAL_ROWS, None),
    "comparison-p2": (COMPARISON_HEADER, COMPARISON_P2_ROWS, COMPARISON_NOTE),
    "comparison-odd": (COMPARISON_HEADER, COMPARISON_ODD_ROWS, COMPARISON_NOTE),
}
TABLE_KINDS = tuple(_TABLES)


def _print_digits() -> int:
    """The most digits a report prints: the interpreter's limit, or DEFAULT_INT_DIGITS if lifted."""
    # Python before 3.10.7 has no limit and no getter.
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or DEFAULT_INT_DIGITS


def _int_text(n: int) -> str:
    """str(n); every int a report prints passes here, and one past the print limit is bad input."""
    digits = _print_digits()
    # 8**digits < 10**digits, so 10**digits is built only when n is about as long.
    if n.bit_length() > 3 * digits and abs(n) >= 10**digits:
        raise InputError(f"a report number has more than {digits} digits; use smaller inputs")
    return str(n)


def _coords_text(coords: Sequence[int]) -> str:
    return ",".join(map(_int_text, coords))


def _entries_text(entries: Sequence[tuple[Sequence[int], int]]) -> str:
    """Multiset entries as space-separated 'coords:multiplicity' words."""
    return " ".join(f"{_coords_text(c)}:{_int_text(n)}" for c, n in entries)


def _jsonable(value: Any) -> Any:
    if isinstance(value, bool) or isinstance(value, str):
        return value
    if isinstance(value, int):
        _int_text(value)  # JSON and text print it as it stands, so refuse it here if too long
        return value
    if isinstance(value, Q):
        text = _int_text(value.numerator)
        return text if value.denominator == 1 else f"{text}/{_int_text(value.denominator)}"
    if isinstance(value, Weight):
        return _coords_text(value.coords)
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    raise OracleError(f"cannot serialize {value!r}")


def _text_scalar(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ",".join(_text_scalar(v) for v in value)
    return str(value)


def _flatten(doc: dict[str, Any], prefix: str = "") -> list[tuple[str, str]]:
    pairs: list[tuple[str, str]] = []
    for key, value in doc.items():
        if not prefix and key in ("schema", "command"):
            continue
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            pairs.extend(_flatten(value, f"{name}."))
        else:
            pairs.append((name, _text_scalar(value)))
    return pairs


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    import csv

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue().rstrip("\n")


def _render(doc: dict[str, Any], fmt: str, raw_keys: Sequence[str] = ()) -> str:
    """Render one report document.

    `raw_keys` name string fields printed as bare sentence lines in text
    mode; JSON and CSV keep them as ordinary fields.
    """
    if fmt == "json":
        return json.dumps(doc, indent=2)
    if "rows" in doc:
        header = tuple(doc["header"])
        rows = [tuple(row[h] for h in header) for row in doc["rows"]]
        if fmt == "csv":
            return _csv_text(header, rows)
        lines = [f"table={doc['kind']}"]
        if "note" in doc:
            lines.append(f"note={doc['note']}")
        lines.append(",".join(header))
        lines.extend(",".join(row) for row in rows)
        return "\n".join(lines)
    pairs = _flatten(doc)
    if fmt == "csv":
        return _csv_text(("key", "value"), pairs)
    lines = []
    for key, value in pairs:
        if key in raw_keys:
            lines.append(value)
        else:
            lines.append(f"{key}={value}")
    return "\n".join(lines)


def _parse_coords(text: str) -> tuple[int, ...]:
    """The integers of a comma-separated weight; the library checks them against a system."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad weight {text!r}: {exc}") from None


def _resolve_module(
    rs: RootSystem, module_weight: Optional[list[str]], weight: Optional[str]
) -> WeightMultiset:
    """Module selection: explicit weight entries win over a character weight."""
    if module_weight:
        table: dict[tuple[int, ...], int] = {}
        for entry in module_weight:
            body, colon, mult_text = entry.partition(":")
            try:
                mult = int(mult_text) if colon else 1
            except ValueError:
                raise InputError(f"bad multiplicity in {entry!r}") from None
            if mult < 1:
                raise InputError(f"multiplicity must be positive in {entry!r}")
            coords = _parse_coords(body)
            table[coords] = table.get(coords, 0) + mult
        return WeightMultiset.from_dict(rs, table)
    if weight is not None:
        return weyl_character(rs, _parse_coords(weight))
    return WeightMultiset.trivial(rs)


def _cap(args: argparse.Namespace) -> int:
    return DEFAULT_ENTRY_CAP if args.cap is None else require_int(args.cap, "--cap", 1)


# A handler's report body and whether it found a violation (exit 1).
_Report = tuple[dict[str, Any], bool]


def _threshold_doc(report) -> dict[str, Any]:
    return {
        "theorem": report.theorem_tag,
        "e": report.e,
        "f": report.f,
        "s_min": report.s_min,
        "r_min": report.r_min,
        "conditions": report.conditions,
        "echo": dict(report.inputs_echo),
    }


def _cmd_info(args: argparse.Namespace) -> _Report:
    rs = parse_type(args.type)
    c, t = structural_constants(rs)
    return {
        "type": rs.name,
        "rank": rs.rank,
        "positive_roots": len(rs.positive_roots),
        "h": rs.coxeter_number,
        "h_dual": rs.dual_coxeter_number,
        "det": rs.cartan_det,
        "fundamental_group": rs.fundamental_group_invariants,
        "c": c,
        "t": t,
        "ct": c * t,
        "highest_root": rs.highest_root,
    }, False


def _cmd_vanish_range(args: argparse.Namespace) -> _Report:
    upper = finite_group_vanishing_range(args.p, args.r)
    digits = _print_digits()
    # q >= 2**(r * (bit_length(p) - 1)) and 16**digits > 10**digits, so a long
    # r is refused before q is built; `_jsonable` refuses the q just past it.
    if args.r * (args.p.bit_length() - 1) >= 4 * digits:
        raise InputError(f"q = p^r has more than {digits} digits; use a smaller --r")
    return {
        "theorem": "T711",
        "p": args.p,
        "r": args.r,
        "q": args.p**args.r,
        "upper": upper,
        "statement": f"H^m(G(F_q),k)=0 for 0<m<{_int_text(upper)}",
    }, False


def _cmd_generic(args: argparse.Namespace) -> _Report:
    rs = parse_type(args.type)
    module = _resolve_module(rs, args.module_weight, args.weight)
    b_m = b_invariant(rs, module).value
    return {**_threshold_doc(generic_thresholds(rs, args.p, args.m, b_m)), "b_M": b_m}, False


def _cmd_compare(args: argparse.Namespace) -> _Report:
    rs = parse_type(args.type)
    module = _resolve_module(rs, args.module_weight, args.weight)
    report = compare_thresholds(rs, args.p, args.m, module)
    return {
        "bnp": _threshold_doc(report.bnp),
        "cpsvdk": _threshold_doc(report.cpsvdk),
        "f_delta": report.f_delta,
        "e_delta": report.e_delta,
        "exception": report.exception_flag,
        "notes": report.notes,
    }, False


def _cmd_stability(args: argparse.Namespace) -> _Report:
    rs = parse_type(args.type)
    report = stability_constants(rs, args.p, args.m)
    return {
        "theorems": ("T511", "T521"),
        "type": rs.name,
        "p": args.p,
        "m": args.m,
        "C": report.c_stability,
        "F": report.f_stability,
        "notes": report.notes,
    }, False


def _cmd_verify_e1(args: argparse.Namespace) -> _Report:
    rs = parse_type(args.type)
    cap = _cap(args)
    lam = rs.zero if args.weight is None else Weight(_parse_coords(args.weight))
    mu_set = _resolve_module(rs, args.module_weight, None)
    page = invariant_page(rs, args.p, args.s, args.f, lam, mu_set, args.m, cap=cap)
    report = verify_e1(page)
    rough, exact, vanish = report.rough, report.exact, report.vanish
    body: dict[str, Any] = {
        "type": rs.name,
        "p": args.p,
        "s": args.s,
        "f": args.f,
        "m": args.m,
        "lambda": page.lam,
        "mu": _entries_text(page.mu_set.items),
        "page_size": page.gammas.total_dimension,
        "gammas": _entries_text(page.gammas.items),
        "rough_bound": rough.bound,
        "rough_pass": rough.passed,
        "exact_applicable": not isinstance(exact, str),
    }
    if not isinstance(exact, str):
        body["exact_bound"] = exact.bound
        body["exact_pass"] = exact.passed
        body["equality_hits"] = len(exact.equality_hits)
        body["equality_consistent"] = exact.equality_consistent
    if not isinstance(vanish, str):
        body["vanish_theorems"] = vanish.theorems
        body["vanish_thresholds"] = [thr for _, thr in vanish.thresholds]
        body["vanish_met"] = vanish.met
        body["vanish_page_empty"] = vanish.page_empty
        body["vanish_consistent"] = vanish.consistent
    body["verdict"] = "fail" if report.failed else "ok"
    return body, report.failed


def _cmd_verify_lemma61(args: argparse.Namespace) -> _Report:
    counterexamples = lemma61_scan(args.max, _cap(args))
    return {
        "primes": LEMMA61_PRIMES,
        "max": args.max,
        "counterexamples": len(counterexamples),
        "summary": f"{len(counterexamples)} counterexamples over "
        f"{len(LEMMA61_PRIMES)}×{args.max}³ grid",
    }, bool(counterexamples)


def _table_body(kind: str) -> dict[str, Any]:
    if kind not in TABLE_KINDS:
        raise InputError(f"unknown table kind {kind!r}; expected one of {TABLE_KINDS}")
    header, rows, note = _TABLES[kind]
    body: dict[str, Any] = {"kind": kind}
    if note:
        body["note"] = note
    body["header"] = header
    body["rows"] = [dict(zip(header, row)) for row in rows]
    return body


def _cmd_table(args: argparse.Namespace) -> _Report:
    return _table_body(args.kind), False


def _document(command: str, body: dict[str, Any]) -> dict[str, Any]:
    """One report as JSON-ready values, headed by the schema and the command."""
    return _jsonable({"schema": SCHEMA, "command": command, **body})


def emit_table(kind: str, fmt: str = "text") -> str:
    """Render one static reference table in the requested format."""
    return _render(_document("table", _table_body(kind)), fmt)


# Every flag a subcommand may take, with its add_argument keywords.
_FLAGS: dict[str, dict[str, Any]] = {
    "--type": dict(required=True, help="root system, e.g. A5 or G2"),
    "--p": dict(type=int, required=True, help="prime"),
    "--r": dict(type=int, required=True, help="Frobenius power / field exponent"),
    "--s": dict(type=int, default=1, help="twist height (default 1)"),
    "--f": dict(type=int, default=0, help="extra height (default 0)"),
    "--m": dict(type=int, required=True, help="cohomological degree"),
    "--weight": dict(help="fundamental-weight coordinates, e.g. 1,0,2"),
    "--module-weight": dict(action="append", help="module weight entry coords[:mult], repeatable"),
    "--max": dict(type=int, default=12, help="scan bound (default 12)"),
    "--cap": dict(
        type=int,
        help="size cap (default 10^7): verify-e1 counts a page's distinct weights and "
        "carry states, verify-lemma61 grid cells",
    ),
    "kind": dict(nargs="?", default="structural", choices=TABLE_KINDS),
    "--format": dict(
        choices=("text", "json", "csv"), default="text", help="output format (default text)"
    ),
}

_MODULE_FLAGS = ("--type", "--p", "--m", "--weight", "--module-weight")

# Each subcommand: its handler, its help, its flags before --format, and the
# string fields printed as bare sentence lines in text mode.
_COMMANDS = {
    "info": (_cmd_info, "root-system constants", ("--type",), ()),
    "vanish-range": (
        _cmd_vanish_range, "trivial-coefficient vanishing range", ("--p", "--r"), ("statement",)
    ),
    "generic": (_cmd_generic, "generic-cohomology thresholds", _MODULE_FLAGS, ()),
    "compare": (_cmd_compare, "threshold comparison against CPSVDK", _MODULE_FLAGS, ()),
    "stability": (_cmd_stability, "stability constants", ("--type", "--p", "--m"), ()),
    "verify-e1": (
        _cmd_verify_e1,
        "brute-force page verification",
        ("--type", "--p", "--s", "--f", "--m", "--weight", "--module-weight", "--cap"),
        (),
    ),
    "verify-lemma61": (
        _cmd_verify_lemma61, "exhaustive inequality scan", ("--max", "--cap"), ("summary",)
    ),
    "table": (_cmd_table, "static reference tables", ("kind",), ()),
}


def _parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="chevbounds",
        description="Exact root-system bounds, thresholds, and page verifications.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text, flags, _) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag in (*flags, "--format"):
            command.add_argument(flag, **_FLAGS[flag])
    return parser


def run(argv: Sequence[str]) -> int:
    try:
        args = _parser().parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    handler, _, _, raw_keys = _COMMANDS[args.subcommand]
    try:
        body, failed = handler(args)
        doc = _document(args.subcommand, body)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc} (on the command line: --cap)", file=sys.stderr)
        return 3
    except OracleError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1
    try:
        print(_render(doc, args.format, raw_keys))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone.  Point stdout at devnull so that the flush at
        # shutdown is silent too, as the signal module documentation advises.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1 if failed else 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))
