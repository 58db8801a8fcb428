from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Optional

import pytest

import chevbounds
from chevbounds.bounds import bs_vanish_threshold
from chevbounds.cli import emit_table, run
from chevbounds.errors import InputError
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
    # 2**r stays below 10**4300, so q prints in at most 4300 digits.
    r_max = (10**4300).bit_length() - 1
    assert 2**r_max < 10**4300 <= 2 ** (r_max + 1)
    assert run(["vanish-range", "--p", "2", "--r", str(r_max)]) == 0
    assert f"q={2**r_max}" in lines_of(capsys)

    for r in (r_max + 1, 20000):
        assert run(["vanish-range", "--p", "2", "--r", str(r)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "more than 4300 digits" in captured.err

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
        assert done.stderr.decode() == (
            f"error: q = p^r has more than {digits} digits; use a smaller --r\n"
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


def test_emit_table_unknown_kind() -> None:
    with pytest.raises(InputError):
        emit_table("frieze")


def test_exit_code_input_errors(capsys) -> None:
    assert run(["info", "--type", "Z9"]) == 2
    assert "cannot parse" in capsys.readouterr().err

    assert run(["generic", "--type", "A1", "--p", "4", "--m", "1"]) == 2
    assert "must be prime" in capsys.readouterr().err

    assert run(["generic", "--type", "A1", "--p", "3", "--m", "1", "--weight", "1,2"]) == 2
    capsys.readouterr()

    assert (
        run(
            [
                "verify-e1",
                "--type",
                "A1",
                "--p",
                "2",
                "--s",
                "1",
                "--m",
                "1",
                "--weight",
                "1",
                "--variant",
                "b",
            ]
        )
        == 2
    )
    assert "does not apply at p=2" in capsys.readouterr().err


def test_exit_code_argparse_error(capsys) -> None:
    assert run(["no-such-command"]) == 2
    capsys.readouterr()
    assert run([]) == 2
    capsys.readouterr()


def test_exit_code_resource_limit(capsys) -> None:
    code = run(
        [
            "verify-e1",
            "--type",
            "B2",
            "--p",
            "2",
            "--s",
            "2",
            "--f",
            "1",
            "--m",
            "4",
            "--cap",
            "10",
        ]
    )
    assert code == 3
    assert "resource limit" in capsys.readouterr().err


def test_cap_env_and_flag(capsys, monkeypatch) -> None:
    monkeypatch.setenv("CHEVBOUNDS_CAP", "10")
    argv = ["verify-e1", "--type", "B2", "--p", "2", "--s", "2", "--f", "1", "--m", "4"]
    assert run(argv) == 3
    capsys.readouterr()
    assert run(argv + ["--cap", "100000"]) == 0
    capsys.readouterr()


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
