"""The threshold rules against the Fraction formulas they replaced, and the report's guards.

`generic_thresholds`, `cpsvdk_thresholds` and `compare_thresholds` compute
on integer numerators and denominators and build a Fraction only for the
values a report holds.  The Fraction formulas they replaced (floor and ceil
of Fractions, `max(c_m, 0)`, Fraction subtraction and comparison, and a
logarithm by comparing the Fraction itself with powers of p) are kept here
as oracles.  The remaining tests pin what a caller may rely on: a report
refuses a float or bool field, hashes, and keeps its echo unchanged.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import ceil, floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevbounds.bounds import (
    ThresholdReport,
    _module_stats,
    compare_thresholds,
    cpsvdk_thresholds,
    generic_thresholds,
)
from chevbounds.errors import OracleError
from chevbounds.modchar import WeightMultiset, weyl_character, weyl_dimension
from chevbounds.rootsys import build_root_system
from chevbounds.weightcomb import b_invariant, structural_constants

# The families and ranks of ACCEPTANCE 8, and its dimension cap.
ACCEPTANCE_RANKS = {
    "A": range(1, 9),
    "B": range(2, 9),
    "C": range(3, 9),
    "D": range(4, 9),
    "E": range(6, 9),
    "F": (4,),
    "G": (2,),
}
SYSTEMS = {
    f"{family}{rank}": build_root_system(family, rank)
    for family, ranks in ACCEPTANCE_RANKS.items()
    for rank in ranks
}
DIMENSION_CAP = 10**5
PRIMES = (2, 3, 5, 7, 11, 13)


def oracle_ceil_log(p: int, x) -> int:
    """Smallest t with p**t >= x, comparing x itself with each power."""
    t = 0
    while p**t < x:
        t += 1
    return t


def oracle_floor_log(p: int, x) -> int:
    """Largest t with p**t <= x, comparing x itself with each power."""
    t = 0
    while p ** (t + 1) <= x:
        t += 1
    return t


def _fields(rep: ThresholdReport) -> dict:
    return {
        "theorem_tag": rep.theorem_tag,
        "e": rep.e,
        "s_min": rep.s_min,
        "f": rep.f,
        "r_min": rep.r_min,
        "inputs_echo": dict(rep.inputs_echo),
    }


def oracle_generic(rs, p: int, m: int, b_m: int) -> dict:
    """generic_thresholds' fields by floor and ceil of Fractions (conditions aside)."""
    f_val = oracle_ceil_log(p, b_m + 1)
    base_e = Q(m, p - 2 if p > 2 else 1)
    a1 = rs.family == "A" and rs.rank == 1
    r_min = None
    if p == 2 or (m != 1 and not a1):
        tag, e = "T811", base_e
    elif m == 1:
        tag, e = "T821", Q(0)
        if a1 and p == 3:
            r_min = max(f_val + 1, 2)
    elif p >= 5:
        tag, e = "T831", Q(ceil(Q(m - 1, p - 2)))
    else:
        tag, e = "T831", Q(max(m - 1, 0))
        r_min = max(m + 1 + oracle_floor_log(3, b_m + 1), 1)
    return {
        "theorem_tag": tag,
        "e": e,
        "s_min": e,
        "f": f_val,
        "r_min": floor(e) + f_val + 1 if r_min is None else r_min,
        "inputs_echo": {"p": p, "m": m, "b_m": b_m},
    }


def oracle_cpsvdk(rs, p: int, m: int, c_m, tpmax: int) -> dict:
    """cpsvdk_thresholds' fields with c_m copied to a Fraction and floor_log on t*c_m + 1."""
    c_m = Q(c_m)
    c, t = structural_constants(rs)
    if p == 2:
        e = Q(max(c * t * m - 1, 0))
    else:
        first = (c * t * m - 1) // (p - 1)
        second = (c * tpmax * (m - 1) - 1) // (p - 1) + 1
        e = Q(max(first, second, 0))
    f_val = oracle_floor_log(p, t * c_m + 1) + 1
    return {
        "theorem_tag": "CPSVDK",
        "e": e,
        "s_min": e,
        "f": f_val,
        "r_min": floor(e) + f_val + 1,
        "inputs_echo": {
            "p": p, "m": m, "c": c, "t": t, "c_m": c_m, "tpmax": tpmax, "raw_f": f_val + 1,
        },
    }


def oracle_compare(rs, p: int, m: int, module: WeightMultiset) -> dict:
    """compare_thresholds' fields by Fraction subtraction and comparison."""
    b_m = b_invariant(rs, module).value
    c_m, tpmax = _module_stats(rs, module, p)
    bnp = oracle_generic(rs, p, m, b_m)
    cpsvdk = oracle_cpsvdk(rs, p, m, c_m, tpmax)
    f_delta = cpsvdk["f"] - bnp["f"]
    if f_delta < 0:
        raise OracleError(f"f comparison violated: cpsvdk f {cpsvdk['f']} < bnp f {bnp['f']}")
    e_delta = cpsvdk["e"] - bnp["e"]
    exception = p != 2 and (m == 1 or (rs.family == "A" and rs.rank == 1))
    notes = []
    if e_delta < 0:
        notes.append("e comparison reversed; expected only for odd p with m = 1 or type A1")
        if not exception:
            raise OracleError("e comparison reversed outside the exception cases")
    return {
        "bnp": bnp,
        "cpsvdk": cpsvdk,
        "f_delta": f_delta,
        "e_delta": e_delta,
        "exception_flag": exception,
        "notes": tuple(notes),
    }


def _compare_fields(rs, p: int, m: int, module: WeightMultiset) -> dict:
    rep = compare_thresholds(rs, p, m, module)
    for threshold in (rep.bnp, rep.cpsvdk):
        assert type(threshold.e) is Q and type(threshold.s_min) is Q
    assert type(rep.e_delta) is Q
    assert type(rep.cpsvdk.inputs_echo["c_m"]) is Q
    return {
        "bnp": _fields(rep.bnp),
        "cpsvdk": _fields(rep.cpsvdk),
        "f_delta": rep.f_delta,
        "e_delta": rep.e_delta,
        "exception_flag": rep.exception_flag,
        "notes": rep.notes,
    }


def _outcome(fn, *args):
    """fn(*args), or the message of the OracleError it raises."""
    try:
        return fn(*args)
    except OracleError as exc:
        return ("OracleError", str(exc))


@st.composite
def modules(draw, rs) -> WeightMultiset:
    """A fundamental character under the cap, or a from_dict module whose
    weights may all have negative coefficients, so that c_m is read at
    dominant representatives that are not among them."""
    i = draw(st.integers(1, rs.rank))
    if draw(st.booleans()) and weyl_dimension(rs, rs.fundamental_weight(i)) <= DIMENSION_CAP:
        return weyl_character(rs, rs.fundamental_weight(i))
    coords = st.tuples(*[st.integers(-3, 2)] * rs.rank)
    table = draw(st.dictionaries(coords, st.integers(1, 3), min_size=1, max_size=4))
    return WeightMultiset.from_dict(rs, table)


C_MS = st.one_of(
    st.integers(0, 10**6),
    st.builds(Q, st.integers(0, 10**6), st.integers(1, 10**6)),
)


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(sorted(SYSTEMS)),
    p=st.sampled_from(PRIMES),
    m=st.integers(1, 12),
    b_m=st.integers(0, 10**6),
    c_m=C_MS,
    k=st.integers(0, 3),
    data=st.data(),
)
def test_threshold_rules_match_the_fraction_formulas(name, p, m, b_m, c_m, k, data) -> None:
    rs = SYSTEMS[name]
    rep = generic_thresholds(rs, p, m, b_m)
    assert _fields(rep) == oracle_generic(rs, p, m, b_m)
    assert type(rep.e) is Q and type(rep.s_min) is Q

    rep = cpsvdk_thresholds(rs, p, m, c_m, p**k)
    assert _fields(rep) == oracle_cpsvdk(rs, p, m, c_m, p**k)
    assert type(rep.e) is Q and type(rep.s_min) is Q
    assert type(rep.inputs_echo["c_m"]) is Q

    module = data.draw(modules(rs))
    assert _outcome(_compare_fields, rs, p, m, module) == _outcome(oracle_compare, rs, p, m, module)


def test_negative_weights_read_c_m_at_their_dominant_representatives() -> None:
    """A module whose largest coefficient is negative reads c_m on its orbits.

    {(-1)} on A1 has root coefficient -1/2, its orbit {(-1), (1)} has 1/2;
    (0, -1) on A2 lies in the orbit of (1, 0), whose coefficients are 2/3 and 1/3.
    """
    for name, table, reps, c_m in (
        ("A1", {(-1,): 1}, {(1,): 1}, Q(1, 2)),
        ("A2", {(0, -1): 2}, {(1, 0): 2}, Q(2, 3)),
    ):
        rs = SYSTEMS[name]
        module = WeightMultiset.from_dict(rs, table)
        dominant = WeightMultiset.from_dict(rs, reps)
        for p in PRIMES:
            assert _module_stats(rs, module, p) == _module_stats(rs, dominant, p)
            assert _module_stats(rs, module, p)[0] == c_m
            rep = _outcome(_compare_fields, rs, p, 3, module)
            assert rep == _outcome(oracle_compare, rs, p, 3, module)
            assert rep == _compare_fields(rs, p, 3, dominant)
            assert rep["cpsvdk"]["inputs_echo"]["c_m"] == c_m


@pytest.mark.parametrize(
    "field, value",
    [
        ("e", 0.5), ("e", True), ("e", "1"), ("e", Q(-1, 3)), ("e", -1),
        ("f", True), ("f", 1.0), ("f", Q(1)), ("f", -1),
        ("r_min", 1.5), ("r_min", True), ("r_min", Q(2)), ("r_min", 0),
    ],
)
def test_threshold_report_refuses_what_is_not_an_exact_threshold(field, value) -> None:
    args = dict(theorem_tag="T811", e=Q(1, 2), f=0, r_min=1, conditions=())
    ThresholdReport(**args)
    args[field] = value
    with pytest.raises(OracleError, match=f"^{field} must be"):
        ThresholdReport(**args)


def test_threshold_report_takes_an_int_e() -> None:
    assert ThresholdReport(theorem_tag="T811", e=2, f=0, r_min=3, conditions=()).s_min == 2


def test_reports_hash_and_keep_their_echo() -> None:
    rs = SYSTEMS["B3"]
    module = weyl_character(rs, rs.fundamental_weight(3))
    generic = generic_thresholds(rs, 5, 3, 4)
    compared = compare_thresholds(rs, 5, 3, module)
    assert hash(generic) == hash(generic_thresholds(rs, 5, 3, 4))
    assert hash(compared) == hash(compare_thresholds(rs, 5, 3, module))
    assert generic.inputs_echo == {"p": 5, "m": 3, "b_m": 4}
    for rep in (generic, compared.bnp, compared.cpsvdk):
        with pytest.raises(TypeError):
            rep.inputs_echo["p"] = 99
        assert rep.inputs_echo["p"] == 5
    given_echo = {"p": 2}
    rep = ThresholdReport(theorem_tag="T811", e=Q(0), f=0, r_min=1, conditions=(),
                          inputs_echo=given_echo)
    given_echo["p"] = 99
    assert rep.inputs_echo == {"p": 2}
