from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chevbounds
from chevbounds.bounds import bs_vanish_threshold, bs_vanish_variants
from chevbounds.cli import DEFAULT_INT_DIGITS, _parser, emit_table, run
from chevbounds.e1oracle import invariant_page, verify_e1
from chevbounds.errors import InputError
from chevbounds.modchar import WeightMultiset, weyl_character
from chevbounds.rootsys import build_root_system
from chevbounds.weightcomb import b_of_weight, t_invariant

STRUCTURAL_CSV = [
    "family,c,t,ct",
    "A_n,1,n+1,n+1",
    "B_n,2,2,4",
    "C_n,2,2,4",
    "D_n,2,2,4",
    "E6,3,3,9",
    "E7,4,2,8",
    "E8,6,1,6",
    "F4,4,1,4",
    "G2,3,1,3",
]


def lines_of(capsys) -> list[str]:
    return capsys.readouterr().out.splitlines()


def test_info_text(capsys) -> None:
    assert run(["info", "--type", "G2"]) == 0
    out = lines_of(capsys)
    for expected in ("type=G2", "h=6", "h_dual=4", "c=3", "t=1", "ct=3"):
        assert expected in out


def test_info_json_round_trip(capsys) -> None:
    assert run(["info", "--type", "E8", "--format", "json"]) == 0
    raw = capsys.readouterr().out
    doc = json.loads(raw)
    assert doc["schema"] == "chevbounds/1"
    assert doc["h"] == 30
    assert raw == json.dumps(doc, indent=2) + "\n"


def test_vanish_range_statement(capsys) -> None:
    assert run(["vanish-range", "--p", "7", "--r", "2"]) == 0
    out = lines_of(capsys)
    assert "theorem=T711" in out
    assert "H^m(G(F_q),k)=0 for 0<m<10" in out


def test_vanish_range_huge_p_is_bad_input(capsys) -> None:
    assert run(["vanish-range", "--p", str(10**399 + 1), "--r", "2"]) == 2
    captured = capsys.readouterr()
    assert "p must be below" in captured.err
    assert captured.out == ""


def test_vanish_range_large_prime_answers_quickly(capsys) -> None:
    start = perf_counter()
    assert run(["vanish-range", "--p", "1000000000000000003", "--r", "2"]) == 0
    assert perf_counter() - start < 1.0
    out = lines_of(capsys)
    assert "theorem=T711" in out
    assert f"H^m(G(F_q),k)=0 for 0<m<{2 * (10**18 + 1)}" in out


def test_vanish_range_q_too_long_to_print(capsys) -> None:
    # The interpreter's int-to-str limit, read as vanish-range reads it.
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)() or DEFAULT_INT_DIGITS
    # 2**r stays below 10**digits, so q prints in at most `digits` digits.
    r_max = (10**digits).bit_length() - 1
    assert 2**r_max < 10**digits <= 2 ** (r_max + 1)
    assert run(["vanish-range", "--p", "2", "--r", str(r_max)]) == 0
    assert f"q={2**r_max}" in lines_of(capsys)

    for r in (r_max + 1, 20000):
        assert run(["vanish-range", "--p", "2", "--r", str(r)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"more than {digits} digits" in captured.err

    start = perf_counter()
    assert run(["vanish-range", "--p", "3", "--r", str(10**30)]) == 2
    assert perf_counter() - start < 1.0
    capsys.readouterr()


def run_module(
    argv: list[str], env: Optional[dict[str, str]] = None, **kwargs
) -> subprocess.CompletedProcess:
    """Run `python -m chevbounds.cli` on argv with this checkout's sources."""
    src = str(Path(chevbounds.__file__).resolve().parents[1])
    full_env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))
    ), **(env or {}))
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run(
        [sys.executable, "-m", "chevbounds.cli", *argv],
        stderr=subprocess.PIPE,
        env=full_env,
        timeout=60,
        **kwargs,
    )


def test_module_entry_point_prints_no_warning() -> None:
    done = run_module(["generic", "--type", "A1", "--p", "3", "--m", "1"])
    assert done.returncode == 0
    assert done.stderr == b""
    assert b"theorem=T821" in done.stdout.splitlines()


@pytest.mark.parametrize("limit, digits", [("640", 640), ("0", 4300)])
def test_vanish_range_follows_the_int_digit_limit(limit: str, digits: int) -> None:
    # A limit of 0 lifts the interpreter's check; q is still kept printable.
    r_max = (10**digits).bit_length() - 1
    for r in (r_max, r_max + 1, 3000, 20000):
        done = run_module(
            ["vanish-range", "--p", "2", "--r", str(r)], {"PYTHONINTMAXSTRDIGITS": limit}
        )
        assert b"Traceback" not in done.stderr
        if r <= r_max:
            assert done.returncode == 0
            (q_line,) = [line for line in done.stdout.splitlines() if line.startswith(b"q=")]
            assert len(q_line) - len(b"q=") <= digits
            continue
        assert done.returncode == 2
        assert done.stdout == b""
        # r_max + 1 builds q and meets the report's print limit; a longer r is
        # refused before q is built.
        message = (
            f"a report number has more than {digits} digits; use smaller inputs"
            if r == r_max + 1
            else f"q = p^r has more than {digits} digits; use a smaller --r"
        )
        assert done.stderr.decode() == f"error: {message}\n"


_NINES = "9" * DEFAULT_INT_DIGITS  # as long as an int may be read, so its report outgrows it


@pytest.mark.parametrize("limit", ["4300", "0"])
@pytest.mark.parametrize("argv", [
    ["stability", "--type", "A1", "--p", "3", "--m", _NINES],
    ["generic", "--type", "A1", "--p", "2", "--m", _NINES],
    ["compare", "--type", "A1", "--p", "2", "--m", _NINES],
    # the rough bound's numerator outgrows the limit
    ["verify-e1", "--type", "A2", "--p", "2", "--s", "1", "--m", "1",
     "--weight", f"{_NINES},{_NINES}"],
    # a gamma multiplicity outgrows the limit
    ["verify-e1", "--type", "A2", "--p", "2", "--s", "1", "--m", "2",
     "--module-weight", f"0,0:{_NINES}"],
], ids=["stability", "generic", "compare", "verify-e1-weight", "verify-e1-module"])
def test_a_report_number_past_the_print_limit_is_bad_input(argv: list[str], limit: str) -> None:
    # A limit of 0 lifts the interpreter's check; the report keeps DEFAULT_INT_DIGITS.
    done = run_module(argv, {"PYTHONINTMAXSTRDIGITS": limit})
    assert b"Traceback" not in done.stderr
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr.decode() == (
        f"error: a report number has more than {DEFAULT_INT_DIGITS} digits; use smaller inputs\n"
    )


@pytest.mark.parametrize("argv", [
    ["info", "--type", "E8", "--format", "json"],
    ["table", "comparison-odd"],
])
def test_closed_stdout_is_not_a_traceback(argv: list[str]) -> None:
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = run_module(argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert done.returncode == 0
    assert b"Traceback" not in done.stderr
    assert b"BrokenPipeError" not in done.stderr


def test_verify_e1_refuses_a_variant_the_vanishing_check_would_not_run(capsys) -> None:
    base = ["verify-e1", "--type", "A1", "--p", "2", "--s", "1", "--m", "1", "--weight", "1"]
    for f in ("1", "0"):
        assert run(base + ["--f", f, "--variant", "b"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: variant 'b' does not apply at p=2\n"
        assert run(base + ["--f", f, "--variant", "a"]) == 0
        capsys.readouterr()


def test_generic_text_has_tag(capsys) -> None:
    assert run(["generic", "--type", "B2", "--p", "3", "--m", "2"]) == 0
    out = capsys.readouterr().out
    assert "theorem=T811" in out


def test_compare_text_has_both_tags(capsys) -> None:
    code = run(["compare", "--type", "A1", "--p", "2", "--m", "2", "--weight", "1"])
    assert code == 0
    out = lines_of(capsys)
    assert "bnp.theorem=T811" in out
    assert "cpsvdk.theorem=CPSVDK" in out
    assert "f_delta=1" in out


def test_compare_reads_a_weight_and_its_dominant_representative_alike(capsys) -> None:
    # (-2, 0) on G2 lies in the orbit of (2, 0); read raw, its c_m once fell below b_M's.
    base = ["compare", "--type", "G2", "--p", "2", "--m", "3"]
    assert run(base + ["--module-weight=2,0"]) == 0
    expected = capsys.readouterr()
    assert run(base + ["--module-weight=-2,0"]) == 0
    got = capsys.readouterr()
    assert got.out == expected.out and not got.err
    assert "f_delta=1" in got.out.splitlines()


def test_compare_json_round_trip(capsys) -> None:
    code = run(
        [
            "compare",
            "--type",
            "A1",
            "--p",
            "2",
            "--m",
            "2",
            "--weight",
            "1",
            "--format",
            "json",
        ]
    )
    assert code == 0
    raw = capsys.readouterr().out
    doc = json.loads(raw)
    assert raw == json.dumps(doc, indent=2) + "\n"
    assert doc["cpsvdk"]["echo"]["raw_f"] == 3


def test_stability_text_has_tags(capsys) -> None:
    assert run(["stability", "--type", "A1", "--p", "2", "--m", "1"]) == 0
    out = lines_of(capsys)
    assert "theorems=T511,T521" in out
    assert "C=2" in out
    assert "F=1" in out


def test_verify_e1_defaults(capsys) -> None:
    assert run(["verify-e1", "--type", "A1", "--p", "3", "--s", "1", "--m", "2"]) == 0
    out = lines_of(capsys)
    assert "gammas=2:1" in out
    assert "rough_pass=true" in out
    assert "exact_applicable=false" in out
    assert "verdict=ok" in out


def test_verify_e1_exact_case(capsys) -> None:
    code = run(
        ["verify-e1", "--type", "A1", "--p", "3", "--s", "1", "--m", "1", "--weight", "1"]
    )
    assert code == 0
    out = lines_of(capsys)
    assert "exact_pass=true" in out
    assert "equality_hits=1" in out
    assert "equality_consistent=true" in out
    assert "vanish_theorems=P241b,P241c" in out
    assert "vanish_consistent=true" in out


def test_verify_e1_json_round_trip(capsys) -> None:
    code = run(
        [
            "verify-e1",
            "--type",
            "B2",
            "--p",
            "2",
            "--s",
            "1",
            "--f",
            "1",
            "--m",
            "2",
            "--format",
            "json",
        ]
    )
    assert code == 0
    raw = capsys.readouterr().out
    assert raw == json.dumps(json.loads(raw), indent=2) + "\n"


def test_verify_e1_module_weight(capsys) -> None:
    code = run(
        [
            "verify-e1",
            "--type",
            "A1",
            "--p",
            "3",
            "--s",
            "1",
            "--f",
            "1",
            "--m",
            "2",
            "--module-weight",
            "1",
            "--module-weight",
            "-1",
        ]
    )
    assert code == 0
    out = lines_of(capsys)
    assert "mu=-1:1 1:1" in out


def test_verify_lemma61(capsys) -> None:
    assert run(["verify-lemma61", "--max", "12"]) == 0
    out = lines_of(capsys)
    assert "0 counterexamples over 4×12³ grid" in out


def test_table_structural_text(capsys) -> None:
    assert run(["table"]) == 0
    out = lines_of(capsys)
    assert out[0] == "table=structural"
    assert out[1:] == STRUCTURAL_CSV


def test_table_structural_csv(capsys) -> None:
    assert run(["table", "structural", "--format", "csv"]) == 0
    assert lines_of(capsys) == STRUCTURAL_CSV


def test_table_comparison_rows(capsys) -> None:
    assert run(["table", "comparison-p2"]) == 0
    p2 = capsys.readouterr().out
    assert "CPSVDK," in p2
    assert "T811,m," in p2
    assert "note=" in p2

    assert run(["table", "comparison-odd"]) == 0
    odd = capsys.readouterr().out
    assert "T811,m/(p-2)," in odd


def test_table_json_round_trip(capsys) -> None:
    assert run(["table", "structural", "--format", "json"]) == 0
    raw = capsys.readouterr().out
    doc = json.loads(raw)
    assert raw == json.dumps(doc, indent=2) + "\n"
    assert len(doc["rows"]) == 9


@pytest.mark.parametrize(
    "argv",
    (
        ["vanish-range", "--p", "7", "--r", "2"],
        ["generic", "--type", "D4", "--p", "3", "--m", "2", "--weight", "0,1,0,0"],
        ["stability", "--type", "B2", "--p", "5", "--m", "3"],
        ["verify-lemma61", "--max", "6"],
    ),
)
def test_json_round_trip(argv, capsys) -> None:
    assert run(argv + ["--format", "json"]) == 0
    raw = capsys.readouterr().out
    doc = json.loads(raw)
    assert doc["schema"] == "chevbounds/1"
    assert json.dumps(doc, indent=2) == raw.removesuffix("\n")


_COMPARE_A1_P3 = (
    ("bnp.theorem", "T831"),
    ("bnp.e", "1"),
    ("bnp.f", "1"),
    ("bnp.s_min", "1"),
    ("bnp.r_min", "3"),
    ("bnp.conditions", "T831 override, part b: type A1 with p = 3 gives s >= m-1 and "
     "r >= m+1+floor(log3(b_m+1)),special form: r_min uses a floor, not floor(e)+f+1"),
    ("bnp.echo.p", "3"),
    ("bnp.echo.m", "2"),
    ("bnp.echo.b_m", "1"),
    ("cpsvdk.theorem", "CPSVDK"),
    ("cpsvdk.e", "1"),
    ("cpsvdk.f", "1"),
    ("cpsvdk.s_min", "1"),
    ("cpsvdk.r_min", "3"),
    ("cpsvdk.conditions", "f stated in this package's normalization; the source convention "
     "is one larger (echoed as raw_f),per-weight constants c and t_p taken as maxima over "
     "the Weyl orbits of the module's weights"),
    ("cpsvdk.echo.p", "3"),
    ("cpsvdk.echo.m", "2"),
    ("cpsvdk.echo.c", "1"),
    ("cpsvdk.echo.t", "2"),
    ("cpsvdk.echo.c_m", "1/2"),
    ("cpsvdk.echo.tpmax", "1"),
    ("cpsvdk.echo.raw_f", "2"),
    ("f_delta", "0"),
    ("e_delta", "0"),
    ("exception", "true"),
    ("notes", ""),
)


def _csv_field(value: str) -> str:
    return f'"{value}"' if "," in value else value


@pytest.mark.parametrize("argv, expected", [
    (
        ["compare", "--type", "A1", "--p", "3", "--m", "2", "--weight", "1"],
        [f"{key}={value}" for key, value in _COMPARE_A1_P3],
    ),
    (
        ["compare", "--type", "A1", "--p", "3", "--m", "2", "--weight", "1", "--format", "csv"],
        ["key,value"] + [f"{key},{_csv_field(value)}" for key, value in _COMPARE_A1_P3],
    ),
    (
        ["verify-e1", "--type", "A1", "--p", "3", "--s", "1", "--m", "1", "--weight", "1"],
        [
            "type=A1", "p=3", "s=1", "f=0", "m=1", "lambda=1", "mu=0:1", "page_size=1",
            "gammas=1:1", "rough_bound=4/3", "rough_pass=true", "exact_applicable=true",
            "exact_bound=1", "exact_pass=true", "equality_hits=1",
            "equality_consistent=true", "vanish_theorems=P241b,P241c",
            "vanish_thresholds=2,2", "vanish_met=false", "vanish_page_empty=false",
            "vanish_consistent=true", "verdict=ok",
        ],
    ),
    (
        # The exact bound's first term (the 'c' form) is 1 and its second
        # (the 'b' form) is 3; the page attains 1, the smaller.
        ["verify-e1", "--type", "A1", "--p", "5", "--s", "2", "--m", "3", "--weight", "5"],
        [
            "type=A1", "p=5", "s=2", "f=0", "m=3", "lambda=5", "mu=0:1", "page_size=1",
            "gammas=1:1", "rough_bound=16/5", "rough_pass=true", "exact_applicable=true",
            "exact_bound=1", "exact_pass=true", "equality_hits=1",
            "equality_consistent=true", "vanish_theorems=P241b,P241c",
            "vanish_thresholds=3,7/3", "vanish_met=false", "vanish_page_empty=false",
            "vanish_consistent=true", "verdict=ok",
        ],
    ),
    (
        ["vanish-range", "--p", "7", "--r", "2"],
        ["theorem=T711", "p=7", "r=2", "q=49", "upper=10", "H^m(G(F_q),k)=0 for 0<m<10"],
    ),
    (
        ["verify-lemma61", "--max", "6"],
        ["primes=2,3,5,7", "max=6", "counterexamples=0", "0 counterexamples over 4×6³ grid"],
    ),
    (
        ["info", "--type", "E8", "--format", "csv"],
        [
            "key,value", "type,E8", "rank,8", "positive_roots,120", "h,30", "h_dual,30",
            "det,1", "fundamental_group,1", "c,6", "t,1", "ct,6",
            'highest_root,"0,0,0,0,0,0,0,1"',
        ],
    ),
    (["table", "--format", "csv"], STRUCTURAL_CSV),
    (
        ["table", "comparison-p2", "--format", "csv"],
        [
            "source,e_formula,f_formula",
            'CPSVDK,"max{c*t*m-1, 0}",floor(log_2(t*c(M)+1))+1',
            "T811,m,ceil(log_2(b(M)+1))",
        ],
    ),
], ids=[
    "compare text", "compare csv", "verify-e1 text", "verify-e1 c form attained",
    "vanish-range text", "lemma61 text",
    "info csv", "table csv", "quoted table csv",
])
def test_whole_stdout(argv: list[str], expected: list[str], capsys) -> None:
    assert run(argv) == 0
    assert capsys.readouterr().out == "\n".join(expected) + "\n"


@pytest.mark.parametrize("p", ["1", "0", "-1"])
def test_compare_refuses_a_non_prime_before_it_scans_the_module(p: str, capsys) -> None:
    # p = 1 or -1 once looped forever in the module scan, and p = 0 raised a traceback.
    assert run(["compare", "--type", "A1", "--p", p, "--m", "1"]) == 2
    assert capsys.readouterr().err == f"error: p must be prime, got {p}\n"


@pytest.mark.parametrize("argv, message", [
    (["compare", "--type", "A2", "--p", "4", "--m", "1"], "p must be prime, got 4"),
    (["generic", "--type", "A2", "--p", "4", "--m", "1"], "p must be prime, got 4"),
    (["compare", "--type", "A2", "--p", "3", "--m", "0"], "m = 0 below 1"),
    (["generic", "--type", "A2", "--p", "4", "--m", "0"], "p must be prime, got 4"),
], ids=["compare p", "generic p", "compare m", "generic p and m"])
def test_bad_p_or_m_is_bad_input_before_the_module_hits_its_cap(
    argv: list[str], message: str, capsys
) -> None:
    # The character of (9, 9) has dimension 1000, above the cap: the library
    # checks p and m before the module is built, so the exit code is 2, not 3.
    assert run(argv + ["--weight", "9,9", "--cap", "10"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_import_loads_no_command_line_only_module() -> None:
    # argparse and csv load only when a command runs; `import chevbounds`
    # still loads the CLI module, which perfbench's tracer patches.
    src = str(Path(chevbounds.__file__).resolve().parents[1])
    probe = (
        "import sys, chevbounds; "
        "print(sorted(m for m in ('argparse', 'csv', 'chevbounds.cli') if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "['chevbounds.cli']\n"


def test_emit_table_unknown_kind() -> None:
    with pytest.raises(InputError):
        emit_table("frieze")


def test_exit_code_input_errors(capsys) -> None:
    generic_a2 = ["generic", "--type", "A2", "--p", "3", "--m", "1"]
    for argv, message in (
        (["info", "--type", "Z9"], "cannot parse root system label 'Z9'"),
        (["info", "--type", "Ax"], "cannot parse rank in label 'Ax'"),
        # A leading zero would give one system a second label.
        (["info", "--type", "A01"], "cannot parse rank in label 'A01'"),
        (["info", "--type", "A010"], "cannot parse rank in label 'A010'"),
        (["info", "--type", "E0008"], "cannot parse rank in label 'E0008'"),
        (["generic", "--type", "A1", "--p", "4", "--m", "1"], "must be prime"),
        (["generic", "--type", "A1", "--p", "3", "--m", "1", "--weight", "1,2"], "A1 needs 1"),
        (generic_a2 + ["--weight", "1,x"], "bad weight '1,x': "),
        (generic_a2 + ["--module-weight", "1,0:x"], "bad multiplicity in '1,0:x'"),
        (generic_a2 + ["--module-weight", "1,0:"], "bad multiplicity in '1,0:'"),
        (
            ["verify-e1", "--type", "A1", "--p", "2", "--s", "1", "--m", "1", "--weight", "1"]
            + ["--variant", "b"],
            "does not apply at p=2",
        ),
    ):
        assert run(argv) == 2, argv
        assert message in capsys.readouterr().err, argv


def test_a_rank_of_two_digits_still_parses(capsys) -> None:
    for label in ("A10", "B12"):
        assert run(["info", "--type", label]) == 0
        assert lines_of(capsys)[0] == f"type={label}"


# Every required flag of each subcommand, with a value that runs.
_REQUIRED_FLAGS = {
    "info": {"--type": "A1"},
    "vanish-range": {"--p": "3", "--r": "1"},
    "generic": {"--type": "A1", "--p": "3", "--m": "1"},
    "compare": {"--type": "A1", "--p": "3", "--m": "1"},
    "stability": {"--type": "A1", "--p": "3", "--m": "1"},
    "verify-e1": {"--type": "A1", "--p": "3", "--m": "1"},
}


@pytest.mark.parametrize(
    "sub, missing", [(sub, flag) for sub, flags in _REQUIRED_FLAGS.items() for flag in flags]
)
def test_leaving_out_a_required_flag_exits_2_and_names_it(sub: str, missing: str, capsys) -> None:
    flags = _REQUIRED_FLAGS[sub]
    assert run([sub, *itertools.chain(*flags.items())]) == 0
    capsys.readouterr()
    argv = [sub, *itertools.chain(*((k, v) for k, v in flags.items() if k != missing))]
    assert run(argv) == 2
    assert f"the following arguments are required: {missing}" in capsys.readouterr().err


def test_exit_code_argparse_error(capsys) -> None:
    assert run(["no-such-command"]) == 2
    capsys.readouterr()
    assert run([]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, reached", [
    (["verify-e1", "--type", "B2", "--p", "2", "--s", "2", "--f", "1", "--m", "4", "--cap", "10"],
     "page level: distinct weights 11"),
    (["verify-e1", "--type", "A1", "--p", "2", "--s", "4", "--m", "8", "--weight", "16",
      "--cap", "20"],
     "page carry: carry states 21"),
    (["generic", "--type", "A2", "--p", "3", "--m", "1", "--weight", "9,9", "--cap", "10"],
     "character of (9, 9): dimension 1000"),
    (["compare", "--type", "A1", "--p", "3", "--m", "2", "--weight", "10", "--cap", "14"],
     "character of (10,): Freudenthal steps 15"),
    (["verify-lemma61", "--max", "5", "--cap", "499"], "lemma61 scan: grid cells 500"),
], ids=["page level", "page carry", "dimension", "Freudenthal steps", "grid"])
def test_every_capped_stage_exits_3_with_one_message(
    argv: list[str], reached: str, capsys
) -> None:
    # Each message names the stage, the size it reached, the cap and its one knob.
    assert run(argv) == 3
    assert capsys.readouterr() == ("", (
        f"resource limit: {reached}, above the cap {argv[-1]}; raise the cap to allow "
        "(on the command line: --cap)\n"
    ))
    # The default cap lets each of them run.
    assert run(argv[:-2]) in (0, 1)


def test_cap_goes_through_the_integer_gate(capsys) -> None:
    argv = ["compare", "--type", "A1", "--p", "3", "--m", "2", "--weight", "10", "--cap"]
    assert run(argv + ["15"]) == 0
    capsys.readouterr()
    assert run(argv + ["0"]) == 2
    assert capsys.readouterr().err == "error: --cap = 0 below 1\n"


def test_page_shape_is_an_input_range_not_a_cap(capsys) -> None:
    # The page shape is a fixed input range: outside it the input is refused.
    argv = ["verify-e1", "--type", "A1", "--p", "3", "--s", "3", "--f", "2", "--m", "1"]
    assert run(argv + ["--weight", "1"]) == 2
    assert capsys.readouterr().err == "error: page levels s + f = 5 outside 1..4\n"
    argv = ["verify-e1", "--type", "A1", "--p", "3", "--s", "1", "--m", "9"]
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: page degree m = 9 outside 0..8\n"


def test_verify_lemma61_cap(capsys) -> None:
    start = perf_counter()
    assert run(["verify-lemma61", "--max", "10000", "--cap", "1000"]) == 3
    assert perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "resource limit: lemma61 scan: grid cells 4000000000000, above the cap 1000; "
        "raise the cap to allow (on the command line: --cap)\n"
    )
    assert run(["verify-lemma61", "--max", "6", "--cap", str(4 * 6**3 - 1)]) == 3
    capsys.readouterr()
    assert run(["verify-lemma61", "--max", "6", "--cap", str(4 * 6**3)]) == 0
    assert "0 counterexamples over 4×6³ grid" in lines_of(capsys)


def test_weight_requires_dominant_for_character(capsys) -> None:
    code = run(["generic", "--type", "A1", "--p", "3", "--m", "1", "--weight", "-1"])
    assert code == 2
    capsys.readouterr()


def test_module_weight_multiplicity_syntax(capsys) -> None:
    code = run(
        [
            "generic",
            "--type",
            "A1",
            "--p",
            "3",
            "--m",
            "1",
            "--module-weight",
            "1:2",
            "--module-weight=-1:2",
        ]
    )
    assert code == 0
    assert "b_M=1" in lines_of(capsys)

    bad = run(
        ["generic", "--type", "A1", "--p", "3", "--m", "1", "--module-weight", "1:0"]
    )
    assert bad == 2
    capsys.readouterr()


GRID_WEIGHTS = {"A1": "1", "A2": "1,1", "B2": "0,2"}
GRID_MODULES = {"A1": ["2", "-2"], "A2": ["1,1", "-1,-1"], "B2": ["1,0:3"]}


def test_verify_e1_decisions_match_the_paper(capsys) -> None:
    # The test derives exact_applicable and the P241 fields from t_invariant
    # and bs_vanish_threshold itself, pairing with the highest coroot inline.
    seen = set()
    for name, p, s, f in itertools.product(("A1", "A2", "B2"), (2, 3, 5), range(3), range(3)):
        if s + f < 1:
            continue
        rs = build_root_system(name[0], int(name[1]))
        for weight, module, variant in itertools.product(
            (None, GRID_WEIGHTS[name]), (None, GRID_MODULES[name]), (None, "a", "b", "c")
        ):
            argv = ["verify-e1", "--type", name, "--p", str(p), "--s", str(s),
                    "--f", str(f), "--m", "2", "--format", "json"]
            if weight:
                argv.append(f"--weight={weight}")
            for entry in module or ():
                argv.append(f"--module-weight={entry}")
            if variant:
                argv += ["--variant", variant]
            lam = tuple(int(c) for c in weight.split(",")) if weight else (0,) * rs.rank
            d = sum(v * c for v, c in zip(rs.highest_root_pairing, lam))
            b_mu = max(
                (b_of_weight(rs, tuple(int(c) for c in e.split(":")[0].split(",")))
                 for e in module or ()),
                default=0,
            )
            applies = ("a",) if p == 2 else ("b", "c")
            vanish = f == 0 and d >= 1
            code = run(argv)
            captured = capsys.readouterr()
            if variant is not None and variant not in applies:
                assert code == 2
                assert f"does not apply at p={p}" in captured.err
                seen.add(("variant refused", True))
                continue
            doc = json.loads(captured.out)
            exact = (
                min(lam) >= 0 and d >= 1 and s >= t_invariant(d, p) and f >= t_invariant(b_mu, p)
            )
            assert doc["exact_applicable"] == exact, argv
            seen.add(("exact", exact))
            assert ("vanish_met" in doc) == vanish, argv
            if not vanish:
                continue
            chosen = applies if variant is None else (variant,)
            thresholds = [bs_vanish_threshold(d, p, 2, v) for v in chosen]
            met = any(s >= thr for thr in thresholds)
            assert doc["vanish_theorems"] == [f"P241{v}" for v in chosen], argv
            assert doc["vanish_thresholds"] == [str(thr) for thr in thresholds], argv
            assert doc["vanish_met"] == met, argv
            assert doc["vanish_consistent"] == (not met or doc["vanish_page_empty"]), argv
            assert code == (0 if doc["verdict"] == "ok" else 1)
            seen.add(("met", met))
    # The grid reaches both outcomes of every decision.
    assert seen == {
        ("variant refused", True), ("exact", True), ("exact", False), ("met", True), ("met", False)
    }


REPORT_SYSTEMS = {name: build_root_system(name[0], int(name[1])) for name in ("A1", "A2", "B2")}
# verify-e1 fields that echo the input or print the page, not a check.
ECHO_FIELDS = (
    "schema", "command", "type", "p", "s", "f", "m", "lambda", "mu", "page_size", "gammas"
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_verify_e1_prints_the_library_report(data) -> None:
    # Cells of the ACCEPTANCE 3 and 4 grids; the CLI takes L(omega_1) as its weight entries.
    name = data.draw(st.sampled_from(sorted(REPORT_SYSTEMS)), label="system")
    rs = REPORT_SYSTEMS[name]
    p = data.draw(st.sampled_from((2, 3, 5)), label="p")
    levels = data.draw(st.integers(1, 3), label="s + f")
    s = data.draw(st.integers(0, levels), label="s")
    m = data.draw(st.integers(0, 4), label="m")
    dominant = [c for c in itertools.product(range(9), repeat=rs.rank) if rs.pairing(c) <= 8]
    lam = data.draw(st.sampled_from(dominant), label="lambda")
    omega_1 = data.draw(st.booleans(), label="mu = L(omega_1)")
    variant = data.draw(st.sampled_from((None,) + bs_vanish_variants(p)), label="variant")
    argv = ["verify-e1", "--type", name, "--p", str(p), "--s", str(s), "--f", str(levels - s),
            "--m", str(m), "--weight", ",".join(map(str, lam)), "--format", "json"]
    mu_set = WeightMultiset.trivial(rs)
    if omega_1:
        mu_set = weyl_character(rs, rs.fundamental_weight(1))
        argv += [f"--module-weight={','.join(map(str, c))}:{n}" for c, n in mu_set.items]
    if variant is not None:
        argv += ["--variant", variant]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = run(argv)
    doc = json.loads(out.getvalue())

    page = invariant_page(rs, p, s, levels - s, lam, mu_set, m)
    report = verify_e1(page, variant=variant)
    rough, exact, vanish = report.rough, report.exact, report.vanish
    want = {
        "rough_bound": str(rough.bound),
        "rough_pass": rough.passed,
        "exact_applicable": not isinstance(exact, str),
        "verdict": "fail" if report.failed else "ok",
    }
    if not isinstance(exact, str):
        want["exact_bound"] = exact.bound
        want["exact_pass"] = exact.passed
        want["equality_hits"] = len(exact.equality_hits)
        want["equality_consistent"] = exact.equality_consistent
    if not isinstance(vanish, str):
        want["vanish_theorems"] = list(vanish.theorems)
        want["vanish_thresholds"] = [str(thr) for _, thr in vanish.thresholds]
        want["vanish_met"] = vanish.met
        want["vanish_page_empty"] = vanish.page_empty
        want["vanish_consistent"] = vanish.consistent
    assert {k: v for k, v in doc.items() if k not in ECHO_FIELDS} == want, argv
    assert doc["page_size"] == page.gammas.total_dimension, argv
    assert code == (1 if report.failed else 0), argv


def test_verify_e1_renders_a_failed_report_as_exit_1(monkeypatch, capsys) -> None:
    # No page in range breaks a bound, so the library's report is made to fail.
    real = chevbounds.cli.verify_e1
    monkeypatch.setattr(
        chevbounds.cli, "verify_e1", lambda *args: dataclasses.replace(real(*args), failed=True)
    )
    argv = ["verify-e1", "--type", "A1", "--p", "3", "--s", "1", "--m", "1", "--weight", "1"]
    assert run(argv) == 1
    assert lines_of(capsys)[-1] == "verdict=fail"


# Every subcommand with the options it takes, for the argv fuzzer.
_FUZZ_OPTIONS = {
    "info": ("type",),
    "vanish-range": ("p", "r"),
    "generic": ("type", "p", "m", "weight", "module-weight", "cap"),
    "compare": ("type", "p", "m", "weight", "module-weight", "cap"),
    "stability": ("type", "p", "m"),
    "verify-e1": ("type", "p", "s", "f", "m", "weight", "module-weight", "variant", "cap"),
    "verify-lemma61": ("max", "cap"),
    "table": ("kind",),
}
_FUZZ_RANKS = {"A1": 1, "A2": 2, "B2": 2, "G2": 2, "A3": 3}
_FUZZ_VALID = {
    "type": st.sampled_from(list(_FUZZ_RANKS)),
    "p": st.sampled_from((2, 3, 5, 7)),
    "r": st.integers(1, 40),
    "s": st.integers(1, 3),
    "f": st.integers(0, 1),
    "m": st.integers(0, 8),
    "variant": st.sampled_from(("a", "b", "c")),
    "max": st.integers(1, 60),
    "cap": st.integers(1, 5000),
    "kind": st.sampled_from(("structural", "comparison-p2", "comparison-odd")),
    "format": st.sampled_from(("text", "json", "csv")),
}
# Values a wild draw adds: bad types, non-primes, negatives and shapes past the limits.
_FUZZ_WILD = {
    "type": st.sampled_from(("A0", "X2", "")),
    "p": st.integers(-2, 12),
    "r": st.integers(-2, 0),
    "s": st.integers(-1, 5),
    "f": st.integers(-1, 5),
    "m": st.integers(-2, 10),
    "variant": st.just("d"),
    "max": st.integers(-2, 0),
    "cap": st.integers(-1, 0),
    "kind": st.just("none"),
    "format": st.just("xml"),
}


def test_parser_flags_are_the_fuzzed_ones() -> None:
    # A flag the parser drops or gains fails here, not only in the fuzzer.
    (subparsers,) = [a for a in _parser()._actions if a.choices and a.dest == "subcommand"]
    assert list(subparsers.choices) == list(_FUZZ_OPTIONS)
    for sub, parser in subparsers.choices.items():
        names = tuple(
            action.option_strings[0].removeprefix("--") if action.option_strings else action.dest
            for action in parser._actions
            if "-h" not in action.option_strings
        )
        assert names == _FUZZ_OPTIONS[sub] + ("format",), sub


@st.composite
def _fuzz_argv(draw) -> list[str]:
    sub = draw(st.sampled_from(sorted(_FUZZ_OPTIONS)))
    # One draw in three is wild: it may leave out options and go out of range.
    # The cap is always given, so that no draw runs at the default cap.
    wild = draw(st.integers(0, 2)) == 2
    argv = [sub]
    rank = 1
    for name in _FUZZ_OPTIONS[sub] + ("format",):
        if wild and name != "cap" and draw(st.booleans()):
            continue
        if name in ("weight", "module-weight"):
            size = draw(st.integers(0, 3)) if wild else rank
            low = -1 if wild else 0
            coords = draw(st.lists(st.integers(low, 3), min_size=size, max_size=size))
            value = ",".join(map(str, coords))
            if name == "module-weight":
                value += draw(st.sampled_from(("", ":2", ":0", ":x")[: 4 if wild else 2]))
        else:
            pool = _FUZZ_VALID[name]
            if wild:
                pool = st.one_of(pool, _FUZZ_WILD[name])
            value = str(draw(pool))
        if name == "type":
            rank = _FUZZ_RANKS.get(value, 1)
        argv += [value] if name == "kind" else [f"--{name}", value]
    return argv


def _timed_run(argv: list[str]) -> tuple[int, float]:
    """cli.run on argv in this process, with its output discarded."""
    start = perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, perf_counter() - start


@settings(max_examples=150, deadline=None)
@given(argv=_fuzz_argv())
def test_every_argv_exits_with_a_documented_code(argv: list[str]) -> None:
    code, seconds = _timed_run(argv)
    assert code in (0, 1, 2, 3), argv
    assert seconds < 2.0, argv


@pytest.mark.parametrize("argv, code", [
    (["verify-e1", "--type", "A1", "--p", "3", "--s", "3", "--f", "1", "--m", "1"], 0),
    (["verify-e1", "--type", "A1", "--p", "3", "--s", "3", "--f", "2", "--m", "1"], 2),
    (["verify-e1", "--type", "A1", "--p", "3", "--s", "1", "--m", "8"], 0),
    (["verify-e1", "--type", "A1", "--p", "3", "--s", "1", "--m", "9"], 2),
    # About 1.25e7 Freudenthal steps: the step cap refuses it at once.
    (["generic", "--type", "A1", "--p", "3", "--m", "1", "--weight", "9998", "--cap", "10000"], 3),
])
def test_page_shape_and_step_cap_boundaries(argv: list[str], code: int) -> None:
    got, seconds = _timed_run(argv)
    assert got == code
    assert seconds < 1.0
