from __future__ import annotations

import json
from time import perf_counter

import pytest

from chevbounds.cli import emit_table, run
from chevbounds.errors import InputError

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
