"""Command-line front end.

Subcommands cover root-system inspection, the closed-form threshold
calculators, the brute-force page verifications, and the static reference
tables, with text, JSON, and CSV output.  All numbers are exact; rationals
render as "a/b".
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction as Q
from typing import Any, Optional, Sequence

from ..bounds import (
    bs_vanish_variants,
    compare_thresholds,
    finite_group_vanishing_range,
    generic_thresholds,
    lemma61_scan,
    stability_constants,
)
from ..e1oracle import (
    check_bs_vanishing,
    check_weight_bounds,
    exact_bound_failure,
    invariant_page,
)
from ..errors import InputError, OracleError, ResourceLimitError
from ..modchar import DEFAULT_ENTRY_CAP, WeightMultiset, weyl_character
from ..rootsys import RootSystem, Weight, parse_type
from ..weightcomb import b_invariant, structural_constants

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

TABLE_KINDS = ("structural", "comparison-p2", "comparison-odd")


def _jsonable(value: Any) -> Any:
    if isinstance(value, bool) or isinstance(value, int) or isinstance(value, str):
        return value
    if isinstance(value, Q):
        return str(value)
    if isinstance(value, Weight):
        return ",".join(str(c) for c in value.coords)
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
            out = io.StringIO()
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
            return out.getvalue().rstrip("\n")
        lines = [f"table={doc['kind']}"]
        if "note" in doc:
            lines.append(f"note={doc['note']}")
        lines.append(",".join(header))
        lines.extend(",".join(row) for row in rows)
        return "\n".join(lines)
    pairs = _flatten(doc)
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(("key", "value"))
        writer.writerows(pairs)
        return out.getvalue().rstrip("\n")
    lines = []
    for key, value in pairs:
        if key in raw_keys:
            lines.append(value)
        else:
            lines.append(f"{key}={value}")
    return "\n".join(lines)


def _root_system(type_name: Optional[str]) -> RootSystem:
    if not type_name:
        raise InputError("missing --type")
    return parse_type(type_name)


def _parse_coords(rs: RootSystem, text: str) -> tuple[int, ...]:
    try:
        coords = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad weight {text!r}: {exc}") from None
    if len(coords) != rs.rank:
        raise InputError(
            f"weight {text!r} has {len(coords)} coordinates, {rs.name} needs {rs.rank}"
        )
    return coords


def _resolve_module(
    rs: RootSystem, module_weight: Optional[list[str]], weight: Optional[str], cap: int
) -> WeightMultiset:
    """Module selection: explicit weight entries win over a character weight."""
    if module_weight:
        table: dict[tuple[int, ...], int] = {}
        for entry in module_weight:
            body, _, mult_text = entry.partition(":")
            mult = 1
            if mult_text:
                try:
                    mult = int(mult_text)
                except ValueError:
                    raise InputError(f"bad multiplicity in {entry!r}") from None
            if mult < 1:
                raise InputError(f"multiplicity must be positive in {entry!r}")
            coords = _parse_coords(rs, body)
            table[coords] = table.get(coords, 0) + mult
        return WeightMultiset.from_dict(table)
    if weight is not None:
        lam = rs.weight(_parse_coords(rs, weight))
        if not lam.is_dominant():
            raise InputError("--weight must be dominant to induce a character")
        return weyl_character(rs, lam, cap)
    return WeightMultiset.trivial(rs)


def _cap(args: argparse.Namespace) -> int:
    if getattr(args, "cap", None) is not None:
        if args.cap < 1:
            raise InputError("--cap must be positive")
        return args.cap
    env = os.environ.get("CHEVBOUNDS_CAP")
    if env:
        try:
            value = int(env)
        except ValueError:
            raise InputError(f"CHEVBOUNDS_CAP must be an integer, got {env!r}") from None
        if value < 1:
            raise InputError("CHEVBOUNDS_CAP must be positive")
        return value
    return DEFAULT_ENTRY_CAP


def _threshold_doc(report) -> dict[str, Any]:
    return {
        "theorem": report.theorem_tag,
        "e": _jsonable(report.e),
        "f": report.f,
        "s_min": _jsonable(report.s_min),
        "r_min": report.r_min,
        "conditions": list(report.conditions),
        "echo": _jsonable(report.inputs_echo),
    }


def _cmd_info(args: argparse.Namespace) -> tuple[dict[str, Any], tuple[str, ...], bool]:
    rs = _root_system(args.type)
    c, t = structural_constants(rs)
    doc = {
        "schema": SCHEMA,
        "command": "info",
        "type": rs.name,
        "rank": rs.rank,
        "positive_roots": len(rs.positive_roots),
        "h": rs.coxeter_number,
        "h_dual": rs.dual_coxeter_number,
        "det": rs.cartan_det,
        "fundamental_group": list(rs.fundamental_group_invariants),
        "c": c,
        "t": t,
        "ct": c * t,
        "highest_root": rs.highest_root,
    }
    return {k: _jsonable(v) for k, v in doc.items()}, (), False


def _cmd_vanish_range(args: argparse.Namespace) -> tuple[dict[str, Any], tuple[str, ...], bool]:
    if args.p is None or args.r is None:
        raise InputError("vanish-range needs --p and --r")
    if args.r < 1:
        raise InputError("--r must be positive")
    upper = finite_group_vanishing_range(args.p, args.r)
    # Python before 3.10.7 has no limit and no getter.
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)() or DEFAULT_INT_DIGITS
    # 8**digits < 10**digits < 16**digits and q >= 2**(r * (bit_length(p) - 1)):
    # a long r is refused before q is built, and 10**digits is built only
    # when q is about as long.
    too_long = args.r * (args.p.bit_length() - 1) >= 4 * digits
    q = 0 if too_long else args.p**args.r
    if too_long or (q.bit_length() > 3 * digits and q >= 10**digits):
        raise InputError(f"q = p^r has more than {digits} digits; use a smaller --r")
    doc = {
        "schema": SCHEMA,
        "command": "vanish-range",
        "theorem": "T711",
        "p": args.p,
        "r": args.r,
        "q": q,
        "upper": upper,
        "statement": f"H^m(G(F_q),k)=0 for 0<m<{upper}",
    }
    return doc, ("statement",), False


def _cmd_generic(args: argparse.Namespace) -> tuple[dict[str, Any], tuple[str, ...], bool]:
    rs = _root_system(args.type)
    if args.p is None or args.m is None:
        raise InputError("generic needs --p and --m")
    module = _resolve_module(rs, args.module_weight, args.weight, _cap(args))
    b_m = b_invariant(rs, module).value
    report = generic_thresholds(rs, args.p, args.m, b_m)
    doc = {"schema": SCHEMA, "command": "generic"}
    doc.update(_threshold_doc(report))
    doc["b_M"] = b_m
    return doc, (), False


def _cmd_compare(args: argparse.Namespace) -> tuple[dict[str, Any], tuple[str, ...], bool]:
    rs = _root_system(args.type)
    if args.p is None or args.m is None:
        raise InputError("compare needs --p and --m")
    if args.m < 1:
        raise InputError("compare needs --m at least 1")
    module = _resolve_module(rs, args.module_weight, args.weight, _cap(args))
    report = compare_thresholds(rs, args.p, args.m, module)
    doc = {
        "schema": SCHEMA,
        "command": "compare",
        "bnp": _threshold_doc(report.bnp),
        "cpsvdk": _threshold_doc(report.cpsvdk),
        "f_delta": report.f_delta,
        "e_delta": _jsonable(report.e_delta),
        "exception": report.exception_flag,
        "notes": list(report.notes),
    }
    return doc, (), False


def _cmd_stability(args: argparse.Namespace) -> tuple[dict[str, Any], tuple[str, ...], bool]:
    rs = _root_system(args.type)
    if args.p is None or args.m is None:
        raise InputError("stability needs --p and --m")
    if args.m < 0:
        raise InputError("--m must be non-negative")
    report = stability_constants(rs, args.p, args.m)
    doc = {
        "schema": SCHEMA,
        "command": "stability",
        "theorems": ["T511", "T521"],
        "type": rs.name,
        "p": args.p,
        "m": args.m,
        "C": _jsonable(report.c_stability),
        "F": _jsonable(report.f_stability),
        "notes": list(report.notes),
    }
    return doc, (), False


def _cmd_verify_e1(args: argparse.Namespace) -> tuple[dict[str, Any], tuple[str, ...], bool]:
    rs = _root_system(args.type)
    if args.p is None:
        raise InputError("verify-e1 needs --p")
    if args.m is None:
        raise InputError("verify-e1 needs --m")
    cap = _cap(args)
    lam = rs.zero if args.weight is None else rs.weight(_parse_coords(rs, args.weight))
    mu_set = _resolve_module(rs, args.module_weight, None, cap)
    page = invariant_page(rs, args.p, args.s, args.f, lam, mu_set, args.m, cap=cap)
    bs_vanish_variants(args.p, args.variant)  # refuse the variant even if unused
    doc: dict[str, Any] = {
        "schema": SCHEMA,
        "command": "verify-e1",
        "type": rs.name,
        "p": args.p,
        "s": args.s,
        "f": args.f,
        "m": args.m,
        "lambda": _jsonable(lam),
        "mu": " ".join(f"{','.join(map(str, c))}:{n}" for c, n in mu_set.items),
        "page_size": page.gammas.total_dimension,
        "gammas": " ".join(
            f"{','.join(map(str, c))}:{n}" for c, n in page.gammas.items
        ),
    }
    rough = check_weight_bounds(page, "rough")
    doc["rough_bound"] = _jsonable(rough.bound)
    doc["rough_pass"] = rough.passed
    failed = not rough.passed

    exact_ok = exact_bound_failure(page) is None
    doc["exact_applicable"] = exact_ok
    if exact_ok:
        exact = check_weight_bounds(page, "exact")
        doc["exact_bound"] = _jsonable(exact.bound)
        doc["exact_pass"] = exact.passed
        doc["equality_hits"] = len(exact.equality_hits)
        doc["equality_consistent"] = exact.equality_consistent
        failed = failed or not exact.passed

    # The page above needs s + f >= 1, so f = 0 already means s >= 1.
    if args.f == 0 and rs.pairing(lam) >= 1:
        vanish = check_bs_vanishing(
            rs, args.p, lam, args.s, args.m, cap=cap, variant=args.variant
        )
        doc["vanish_theorems"] = list(vanish.theorems)
        doc["vanish_thresholds"] = [_jsonable(thr) for _, thr in vanish.thresholds]
        doc["vanish_met"] = vanish.met
        doc["vanish_page_empty"] = vanish.page_empty
        doc["vanish_consistent"] = vanish.consistent
        failed = failed or not vanish.consistent

    doc["verdict"] = "fail" if failed else "ok"
    return doc, (), failed


def _cmd_verify_lemma61(args: argparse.Namespace) -> tuple[dict[str, Any], tuple[str, ...], bool]:
    limit = args.max if args.max is not None else 12
    if limit < 1:
        raise InputError("--max must be positive")
    primes = (2, 3, 5, 7)
    counterexamples = lemma61_scan(limit, primes)
    doc = {
        "schema": SCHEMA,
        "command": "verify-lemma61",
        "primes": list(primes),
        "max": limit,
        "counterexamples": len(counterexamples),
        "summary": f"{len(counterexamples)} counterexamples over "
        f"{len(primes)}×{limit}³ grid",
    }
    return doc, ("summary",), bool(counterexamples)


def emit_table(kind: str, fmt: str = "text") -> str:
    """Render one static reference table in the requested format."""
    return _render(_table_doc(kind), fmt)


def _table_doc(kind: str) -> dict[str, Any]:
    if kind not in TABLE_KINDS:
        raise InputError(f"unknown table kind {kind!r}; expected one of {TABLE_KINDS}")
    if kind == "structural":
        header, rows, note = STRUCTURAL_HEADER, STRUCTURAL_ROWS, None
    elif kind == "comparison-p2":
        header, rows, note = COMPARISON_HEADER, COMPARISON_P2_ROWS, COMPARISON_NOTE
    else:
        header, rows, note = COMPARISON_HEADER, COMPARISON_ODD_ROWS, COMPARISON_NOTE
    doc: dict[str, Any] = {"schema": SCHEMA, "command": "table", "kind": kind}
    if note:
        doc["note"] = note
    doc["header"] = list(header)
    doc["rows"] = [dict(zip(header, row)) for row in rows]
    return doc


def _cmd_table(args: argparse.Namespace) -> tuple[dict[str, Any], tuple[str, ...], bool]:
    return _table_doc(args.kind), (), False


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chevbounds",
        description="Exact root-system bounds, thresholds, and page verifications.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser, *names: str) -> None:
        if "type" in names:
            p.add_argument("--type", help="root system, e.g. A5 or G2")
        if "p" in names:
            p.add_argument("--p", type=int, help="prime")
        if "r" in names:
            p.add_argument("--r", type=int, help="Frobenius power / field exponent")
        if "s" in names:
            p.add_argument("--s", type=int, default=1, help="twist height (default 1)")
        if "f" in names:
            p.add_argument("--f", type=int, default=0, help="extra height (default 0)")
        if "m" in names:
            p.add_argument("--m", type=int, help="cohomological degree")
        if "weight" in names:
            p.add_argument("--weight", help="fundamental-weight coordinates, e.g. 1,0,2")
        if "module-weight" in names:
            p.add_argument(
                "--module-weight",
                action="append",
                help="module weight entry coords[:mult], repeatable",
            )
        if "variant" in names:
            p.add_argument("--variant", choices=("a", "b", "c"), help="threshold clause")
        if "max" in names:
            p.add_argument("--max", type=int, help="scan bound (default 12)")
        if "cap" in names:
            p.add_argument("--cap", type=int, help="multiset entry cap override")
        p.add_argument(
            "--format",
            choices=("text", "json", "csv"),
            default="text",
            help="output format (default text)",
        )

    common(sub.add_parser("info", help="root-system constants"), "type")
    common(sub.add_parser("vanish-range", help="trivial-coefficient vanishing range"), "p", "r")
    common(
        sub.add_parser("generic", help="generic-cohomology thresholds"),
        "type", "p", "m", "weight", "module-weight", "cap",
    )
    common(
        sub.add_parser("compare", help="threshold comparison against CPSVDK"),
        "type", "p", "m", "weight", "module-weight", "cap",
    )
    common(sub.add_parser("stability", help="stability constants"), "type", "p", "m")
    common(
        sub.add_parser("verify-e1", help="brute-force page verification"),
        "type", "p", "s", "f", "m", "weight", "module-weight", "variant", "cap",
    )
    common(sub.add_parser("verify-lemma61", help="exhaustive inequality scan"), "max")
    table = sub.add_parser("table", help="static reference tables")
    table.add_argument("kind", nargs="?", default="structural", choices=TABLE_KINDS)
    table.add_argument("--format", choices=("text", "json", "csv"), default="text")
    return parser


_DISPATCH = {
    "info": _cmd_info,
    "vanish-range": _cmd_vanish_range,
    "generic": _cmd_generic,
    "compare": _cmd_compare,
    "stability": _cmd_stability,
    "verify-e1": _cmd_verify_e1,
    "verify-lemma61": _cmd_verify_lemma61,
    "table": _cmd_table,
}


def run(argv: Sequence[str]) -> int:
    try:
        args = _parser().parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        doc, raw_keys, failed = _DISPATCH[args.subcommand](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
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
