from __future__ import annotations

import itertools
from fractions import Fraction as Q
from math import floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevbounds import bounds
from chevbounds.bounds import (
    ComparisonReport,
    ThresholdReport,
    bs_vanish_threshold,
    compare_thresholds,
    cpsvdk_thresholds,
    finite_group_vanishing_range,
    g_ext_vanishing_holds,
    generic_thresholds,
    lemma61,
    lemma61_scan,
    prop62_vanishing_holds,
    stability_constants,
)
from chevbounds.errors import InputError, OracleError, ResourceLimitError
from chevbounds.modchar import WeightMultiset, weyl_character
from chevbounds.rootsys import MAX_CLASSICAL_RANK, build_root_system

A1 = build_root_system("A", 1)
A5 = build_root_system("A", 5)
B2 = build_root_system("B", 2)


def test_bs_vanish_threshold_values() -> None:
    assert bs_vanish_threshold(1, 2, 3, "a") == 4
    assert bs_vanish_threshold(1, 3, 1, "b") == 2
    assert bs_vanish_threshold(1, 3, 1, "c") == 2
    assert bs_vanish_threshold(2, 3, 1, "c") == 3
    assert bs_vanish_threshold(4, 5, 2, "b") == Q(2, 3) + 1


def test_variant_c_exceeds_b_when_the_leading_digit_is_p_minus_1() -> None:
    # c - b = top/(p-2) - 1, top the leading base-p digit of d.
    for m in range(5):
        assert bs_vanish_threshold(2, 3, m, "b") == m + 1
        assert bs_vanish_threshold(2, 3, m, "c") == m + 2
    for p in (3, 5, 7, 11):
        for d in range(1, 3 * p * p):
            top = d
            while top >= p:
                top //= p
            gap = bs_vanish_threshold(d, p, 4, "c") - bs_vanish_threshold(d, p, 4, "b")
            assert gap == Q(top, p - 2) - 1
            assert (gap > 0) == (top == p - 1)


def test_bs_vanish_threshold_guards() -> None:
    with pytest.raises(InputError):
        bs_vanish_threshold(0, 2, 1, "a")
    with pytest.raises(InputError):
        bs_vanish_threshold(1, 3, 1, "a")  # 'a' needs p = 2
    with pytest.raises(InputError):
        bs_vanish_threshold(1, 2, 1, "b")  # 'b' needs odd p
    with pytest.raises(InputError):
        bs_vanish_threshold(1, 3, 1, "d")


def test_g_ext_vanishing() -> None:
    assert g_ext_vanishing_holds(1, 2, 3, 2) is True
    assert g_ext_vanishing_holds(1, 3, 2, 2) is False
    assert g_ext_vanishing_holds(1, 3, 3, 2) is True
    with pytest.raises(InputError):
        g_ext_vanishing_holds(0, 2, 3, 2)


def test_stability_constants() -> None:
    rep = stability_constants(A1, 2, 1)
    assert rep.c_stability == 2
    assert rep.f_stability == 1
    assert stability_constants(A1, 5, 4).f_stability == Q(4, 3)
    assert stability_constants(A1, 3, 1).f_stability == 0
    assert stability_constants(B2, 3, 2).f_stability == 2
    assert any("large prime" in note for note in stability_constants(A1, 5, 1).notes)


def test_lemma61_examples() -> None:
    assert lemma61(2, 2, 1, 2, "a") == (True, True)
    assert lemma61(3, 1, 1, 1, "b") == (True, True)
    assert lemma61(3, 1, 1, 1, "c") == (False, True)
    with pytest.raises(InputError):
        lemma61(3, 1, 1, 1, "a")
    with pytest.raises(InputError):
        lemma61(2, 1, 1, 1, "b")
    with pytest.raises(InputError):
        lemma61(2, 0, 1, 1, "a")
    with pytest.raises(InputError, match="unknown part 'd'"):
        lemma61(3, 1, 1, 1, "d")


def test_lemma61_checks_in_order() -> None:
    # s, f and t first, then the part, then p, then the part against p.
    for args, message in (
        ((4, 0, 1, 1, "d"), "s = 0 below 1"),
        ((4, 1, 1, 1, "d"), "unknown part 'd'; expected 'a', 'b' or 'c'"),
        ((4, 1, 1, 1, "a"), "p must be prime, got 4"),
        ((3, 1, 1, 1, "a"), "part 'a' applies only to p = 2"),
        ((2, 1, 1, 1, "c"), "this clause needs an odd prime"),
    ):
        with pytest.raises(InputError) as caught:
            lemma61(*args)
        assert str(caught.value) == message


def _lemma61_fractions(p: int, s: int, f: int, t: int, part: str) -> tuple[bool, bool]:
    """The hypothesis p^(t-1) <= rhs with rhs built as a Fraction: the oracle."""
    total = s + f
    denom = p**total - 1
    if part == "a":
        rhs = Q(2 ** (total - 1) - 2**s, denom) + Q(2**total, denom) * s
    elif part == "b":
        rhs = Q(p ** (total - 1) - p**s, denom) + Q(p**total, denom) * s * (p - 2)
    else:
        rhs = Q(p**total - p**s, denom) + Q(p**total, denom) * (s * (p - 2) - 1)
    return (p ** (t - 1) <= rhs, s >= t)


def test_lemma61_cross_multiplication_matches_the_fractions() -> None:
    seen = set()
    for p, part in ((2, "a"), (3, "b"), (3, "c"), (5, "b"), (5, "c"), (7, "b"), (7, "c")):
        for s, f, t in itertools.product(range(1, 17), repeat=3):
            got = lemma61(p, s, f, t, part)
            assert got == _lemma61_fractions(p, s, f, t, part), (p, s, f, t, part)
            seen.add((part, got[0]))
    # Every part's hypothesis both holds and fails somewhere on the grid.
    assert seen == {(part, hyp) for part in "abc" for hyp in (True, False)}


def test_lemma61_scan_is_clean() -> None:
    assert lemma61_scan(6) == []


def _lemma61_grid(max_value: int, primes=(2, 3, 5, 7)) -> list:
    """The scan as one pass over every cell of the grid: the oracle."""
    bad = []
    for p in primes:
        parts = ("a",) if p == 2 else ("b", "c")
        for s in range(1, max_value + 1):
            for f in range(1, max_value + 1):
                for t in range(1, max_value + 1):
                    for part in parts:
                        hyp, concl = bounds.lemma61(p, s, f, t, part)
                        if hyp and not concl:
                            bad.append((p, s, f, t, part))
    return bad


@pytest.mark.parametrize("max_value", (12, 24, 48))
def test_lemma61_scan_matches_the_full_grid(max_value) -> None:
    assert lemma61_scan(max_value) == _lemma61_grid(max_value)


def test_lemma61_scan_stops_where_the_full_grid_does(monkeypatch) -> None:
    # A weaker hypothesis, still monotone in t, that holds for one to three
    # t > s depending on the part and on f: the grid has counterexamples, and
    # the scan must find them in the grid's order.
    def weaker(p, s, f, t, part):
        return p ** (t - 1) <= p ** (s + (1 if part == "c" else 2)) - f % 2, s >= t

    monkeypatch.setattr(bounds, "lemma61", weaker)
    for max_value in (5, 9):
        expected = _lemma61_grid(max_value)
        assert expected and lemma61_scan(max_value) == expected


def test_lemma61_scan_is_capped_before_it_starts() -> None:
    assert lemma61_scan(5, cap=4 * 5**3) == []
    with pytest.raises(
        ResourceLimitError,
        match=r"^lemma61 scan: grid cells 500, above the cap 499; raise the cap",
    ):
        lemma61_scan(5, cap=499)
    # A grid too large to print is named, not a ValueError from str().
    with pytest.raises(ResourceLimitError, match=r"^lemma61 scan: grid cells <int too long"):
        lemma61_scan(10**1500)


def test_prop62_vanishing() -> None:
    assert prop62_vanishing_holds(2, 2, 2, 1, 0) is True
    assert prop62_vanishing_holds(3, 1, 1, 1, 0) is True
    assert prop62_vanishing_holds(3, 2, 1, 0, 0) is False
    assert prop62_vanishing_holds(2, 2, 2, 0, 0) is False  # p = 2 needs f >= 1


def test_finite_group_vanishing_range() -> None:
    assert finite_group_vanishing_range(2, 3) == 3
    assert finite_group_vanishing_range(7, 2) == 10
    assert finite_group_vanishing_range(3, 1) == 1
    with pytest.raises(InputError):
        finite_group_vanishing_range(4, 2)
    with pytest.raises(InputError):
        finite_group_vanishing_range(2, 0)


IDENTITY_SYSTEMS = tuple(
    build_root_system(family, rank)
    for family, rank in (
        ("A", 1), ("A", 2), ("B", 2), ("C", 3), ("D", 4), ("E", 6), ("E", 8), ("F", 4), ("G", 2)
    )
)


def test_t811_field_size_floor_is_the_finite_group_range() -> None:
    # With b_M = 0, T811's r_min = floor(m/(p-2)) + 1, and r > m/(p-2) is
    # m < r(p - 2), T711's range (p - 2 read as 1 at p = 2).
    cells = 0
    for rs in IDENTITY_SYSTEMS:
        for p in (2, 3, 5, 7, 11, 13):
            for m in range(1, 25):
                rep = generic_thresholds(rs, p, m, 0)
                if rep.theorem_tag != "T811":
                    continue
                for r in range(1, 30):
                    vanishes = m < finite_group_vanishing_range(p, r)
                    assert (r >= rep.r_min) == vanishes, (rs, p, m, r)
                    cells += 1
    # Every system at p = 2; at odd p all but A1, where m = 1 is T821 and the rest T831.
    assert cells == (9 * 24 + 8 * 5 * 23) * 29


def test_prop62_is_the_t811_report_at_odd_p() -> None:
    # P621 at odd p: s >= e and s + f >= floor(e) + t(b) + 1, T811's s_min and
    # r_min.  B2 is not A1, so m != 1 is tagged T811.
    for p in (3, 5, 7, 11, 13):
        for b in sorted({0, 1, 2, p - 1, p, p * p - 1, p * p}):
            for m in (0, *range(2, 13)):
                rep = generic_thresholds(B2, p, m, b)
                assert rep.theorem_tag == "T811"
                for s, f in itertools.product(range(15), range(7)):
                    expected = s >= rep.e and s + f >= rep.r_min
                    assert prop62_vanishing_holds(p, m, s, f, b) == expected, (p, m, s, f, b)


ALL_SYSTEMS = [
    build_root_system(family, rank)
    for family, low in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
    for rank in range(low, MAX_CLASSICAL_RANK + 1)
] + [build_root_system(*fr) for fr in (("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2))]


def test_p2_clauses_match_their_closed_forms() -> None:
    # The p = 2 clauses as the paper states them, written out on their own:
    # the code reads each as its odd-prime formula with p - 2 read as 1.
    def digits2(n: int) -> int:  # t(n): the number of binary digits of n
        return n.bit_length()

    def ceil_log2(x: int) -> int:
        return (x - 1).bit_length()

    assert len(ALL_SYSTEMS) == 48
    for m in range(11):
        for rs in ALL_SYSTEMS:
            rep = stability_constants(rs, 2, m)
            assert rep.c_stability == m + ceil_log2(2 * (rs.dual_coxeter_number - 1) + 1) - 1
            assert rep.f_stability == m
        for d in range(1, 41):
            t = digits2(d)
            assert bs_vanish_threshold(d, 2, m, "a") == m + t
            # Both P241 terms are m + t, so the exact bound at s is m - (s - t).
            assert bounds._p241_terms(2, m, d, t) == (1, m + t, m + t)
        for b_m in range(41):
            rep = generic_thresholds(B2, 2, m, b_m)
            assert (rep.theorem_tag, rep.e, rep.r_min) == ("T811", m, m + digits2(b_m) + 1)
    for r in range(1, 41):
        assert finite_group_vanishing_range(2, r) == r
    for s, f, t in itertools.product(range(1, 11), repeat=3):
        num = 2 ** (s + f - 1) - 2**s + 2 ** (s + f) * s
        assert lemma61(2, s, f, t, "a") == (2 ** (t - 1) * (2 ** (s + f) - 1) <= num, s >= t)


def test_generic_thresholds_base_rule() -> None:
    rep = generic_thresholds(B2, 3, 2, 0)
    assert rep.theorem_tag == "T811"
    assert rep.e == 2
    assert rep.f == 0
    assert rep.s_min == 2
    assert rep.r_min == 3

    rep2 = generic_thresholds(B2, 2, 3, 5)
    assert rep2.theorem_tag == "T811"
    assert (rep2.e, rep2.f, rep2.r_min) == (3, 3, 7)


def test_generic_thresholds_degree_one_override() -> None:
    rep = generic_thresholds(B2, 5, 1, 0)
    assert rep.theorem_tag == "T821"
    assert rep.e == 0
    assert rep.f == 0
    assert rep.r_min == 1

    rep_a1 = generic_thresholds(A1, 3, 1, 0)
    assert rep_a1.theorem_tag == "T821"
    assert rep_a1.r_min == 2  # the p = 3 type-A1 case needs r >= 2


def test_generic_thresholds_a1_override() -> None:
    rep = generic_thresholds(A1, 5, 4, 4)
    assert rep.theorem_tag == "T831"
    assert (rep.e, rep.f, rep.r_min) == (1, 1, 3)

    rep_b = generic_thresholds(A1, 3, 2, 0)
    assert rep_b.theorem_tag == "T831"
    assert rep_b.e == 1
    assert rep_b.r_min == 3


_T821 = "T821 override: degree-1 case at an odd prime gives e = 0"


@pytest.mark.parametrize(
    "system, p, m, b_m, expected",
    [
        ("B2", 2, 3, 5, ("T811", 3, 7, ("base rule: e = m at p = 2",))),
        ("B2", 5, 1, 4, ("T821", 0, 2, (_T821, "improves T811 (e = 1/3)"))),
        ("A1", 3, 1, 0, ("T821", 0, 2, (
            _T821, "type A1 with p = 3 additionally needs r >= 2", "improves T811 (e = 1)"
        ))),
        ("A1", 7, 1, 3, ("T821", 0, 2, (
            _T821, "type A1 needs p >= 5: satisfied", "improves T811 (e = 1/5)"
        ))),
        ("A1", 5, 5, 7, ("T831", 2, 5, (
            "T831 override, part a: type A1 with p >= 5 gives e = ceil((m-1)/(p-2))",
            "improves T811 (e = 5/3)",
        ))),
        ("A1", 3, 4, 8, ("T831", 3, 7, (
            "T831 override, part b: type A1 with p = 3 gives s >= m-1 "
            "and r >= m+1+floor(log3(b_m+1))",
            "special form: r_min uses a floor, not floor(e)+f+1",
        ))),
        ("G2", 7, 7, 2, ("T811", Q(7, 5), 3, ("base rule: e = m/(p-2) at an odd prime",))),
    ],
    ids=[
        "T811 p=2", "T821 off A1", "T821 A1 p=3", "T821 A1 p>=5",
        "T831 part a", "T831 part b", "T811 odd p",
    ],
)
def test_generic_thresholds_rule_per_branch(system, p, m, b_m, expected) -> None:
    rep = generic_thresholds(build_root_system(system[0], int(system[1])), p, m, b_m)
    assert (rep.theorem_tag, rep.e, rep.r_min, rep.conditions) == expected
    assert rep.s_min == rep.e
    assert rep.inputs_echo == {"p": p, "m": m, "b_m": b_m}


def test_generic_thresholds_monotone() -> None:
    for rs in (A1, B2):
        for p in (2, 3, 5):
            for b_m in (0, 1, 4):
                prev = None
                for m in range(0, 8):
                    rep = generic_thresholds(rs, p, m, b_m)
                    if prev is not None:
                        assert rep.s_min >= prev.s_min
                        assert rep.r_min >= prev.r_min
                    prev = rep
            for m in range(0, 8):
                prev_f = -1
                for b_m in range(0, 30):
                    f = generic_thresholds(rs, p, m, b_m).f
                    assert f >= prev_f
                    prev_f = f


def test_a1_refinement_never_worse() -> None:
    # The rank-one rule rounds up, so compare against the rounded base rule.
    for p in (5, 7, 11):
        for m in range(2, 20):
            a1_e = generic_thresholds(A1, p, m, 0).e
            assert a1_e <= -(-m // (p - 2))


def test_cpsvdk_thresholds() -> None:
    rep = cpsvdk_thresholds(A1, 2, 2, Q(1, 2), 2)
    assert (rep.e, rep.f, rep.r_min) == (3, 2, 6)
    assert rep.inputs_echo["raw_f"] == 3

    rep2 = cpsvdk_thresholds(A5, 2, 2, Q(5, 6), 1)
    assert (rep2.e, rep2.f, rep2.r_min) == (11, 3, 15)

    assert cpsvdk_thresholds(A1, 2, 0, Q(1, 2), 2).e == 0

    with pytest.raises(InputError):
        cpsvdk_thresholds(A1, 2, 2, Q(-1, 2), 2)
    with pytest.raises(InputError):
        cpsvdk_thresholds(A1, 2, 2, Q(1, 2), 3)  # tpmax must be a power of 2


def test_compare_thresholds_example() -> None:
    module = weyl_character(A1, A1.fundamental_weight(1))
    rep = compare_thresholds(A1, 2, 2, module)
    assert (rep.bnp.e, rep.bnp.f, rep.bnp.r_min) == (2, 1, 4)
    assert (rep.cpsvdk.e, rep.cpsvdk.f, rep.cpsvdk.r_min) == (3, 2, 6)
    assert rep.f_delta == 1
    assert rep.e_delta == 1
    assert rep.exception_flag is False


def test_compare_thresholds_trivial_module() -> None:
    for rs in (A1, B2, A5):
        rep = compare_thresholds(rs, 2, 2, WeightMultiset.trivial(rs))
        assert rep.bnp.f == 0
        assert rep.f_delta >= 1


def test_compare_thresholds_guards() -> None:
    with pytest.raises(InputError):
        compare_thresholds(A1, 2, 2, WeightMultiset.from_dict(A1, {}))


def test_threshold_report_validation() -> None:
    with pytest.raises(OracleError):
        ThresholdReport(
            theorem_tag="T999",
            e=Q(0),
            f=0,
            r_min=1,
            conditions=(),
        )
    with pytest.raises(OracleError):
        ThresholdReport(
            theorem_tag="T811",
            e=Q(-1),
            f=0,
            r_min=1,
            conditions=(),
        )


def test_r_min_consistency_with_floor_rule() -> None:
    # The r bound follows floor(e) + f + 1 except in the tagged special forms.
    for rs in (B2, A5):
        for p in (2, 3, 5, 7):
            for m in range(0, 7):
                for b_m in (0, 2, 9):
                    rep = generic_thresholds(rs, p, m, b_m)
                    if rep.theorem_tag == "T811":
                        assert rep.r_min == floor(rep.e) + rep.f + 1


ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)
MONOTONE_SYSTEMS = tuple(
    build_root_system(family, rank)
    for family, rank in (("A", 1), ("A", 2), ("B", 3), ("E", 8), ("G", 2))
)


@settings(max_examples=150, deadline=None)
@given(
    d=st.integers(1, 10**6),
    k=st.integers(0, len(ODD_PRIMES) - 2),
    m=st.integers(0, 60),
)
def test_bs_vanish_threshold_is_monotone(d, k, m) -> None:
    """t(d, p) is the number of base-p digits of d, top the leading one.

    'a' = m + t(d, 2) and 'b' = m/(p-2) + t(d, p) grow with m and with d, as
    t does.  'c' = (m + top)/(p-2) + t - 1 grows with m; in d, top grows while
    t stays, and where t gains a digit top falls from p-1 to 1, which costs
    (p-2)/(p-2) = 1 and leaves 'c' unchanged.  For a larger odd prime p'
    neither m/(p-2) nor t grows, so 'b' does not grow; nor does 'c': with the
    same t, top does not grow, and with t smaller by j >= 1 the term
    top/(p-2) grows by at most (p'-1)/(p'-2) - 1/(p-2) < 1 <= j.
    """
    p, q = ODD_PRIMES[k], ODD_PRIMES[k + 1]
    cases = [(2, "a")] + [(p, "b"), (p, "c")]
    for prime, variant in cases:
        here = bs_vanish_threshold(d, prime, m, variant)
        assert bs_vanish_threshold(d, prime, m + 1, variant) >= here
        assert bs_vanish_threshold(d + 1, prime, m, variant) >= here
    for variant in ("b", "c"):
        assert bs_vanish_threshold(d, q, m, variant) <= bs_vanish_threshold(d, p, m, variant)


@settings(max_examples=150, deadline=None)
@given(
    system=st.sampled_from(MONOTONE_SYSTEMS),
    p=st.sampled_from((2,) + ODD_PRIMES),
    m=st.integers(0, 40),
    b_m=st.integers(0, 10**5),
)
def test_generic_thresholds_are_monotone(system, p, m, b_m) -> None:
    """s_min and r_min do not fall as m grows, and r_min does not fall as b_m grows.

    T811 gives s_min = e and r_min = floor(e) + t + 1, t the number of base-p
    digits of b_m, with e = m at p = 2 and m/(p-2) at odd p.  T831 (A1, odd
    p, m != 1) gives e = ceil((m-1)/(p-2)) and r_min = e + t + 1 at p >= 5,
    and e = max(m-1, 0) and r_min = max(m + 1 + floor(log3(b_m+1)), 1) at
    p = 3.  Each grows with m, and t and floor(log3(b_m+1)) grow with b_m.
    T821 (m = 1, odd p) gives s_min = 0 and r_min = t + 1, at least 2 for A1
    at p = 3.  At m = 0 the rules give s_min = 0 and r_min <= t + 1
    (floor(log3(b_m+1)) <= t); at m = 2 they give s_min > 0 and
    r_min >= t + 1, at least 3 for A1 at p = 3.  So the steps through m = 1
    do not fall either.
    """
    here = generic_thresholds(system, p, m, b_m)
    more_m = generic_thresholds(system, p, m + 1, b_m)
    assert more_m.s_min >= here.s_min and more_m.r_min >= here.r_min
    assert generic_thresholds(system, p, m, b_m + 1).r_min >= here.r_min


@pytest.mark.parametrize("system", MONOTONE_SYSTEMS, ids=lambda rs: rs.name)
def test_stability_constants_are_monotone(system) -> None:
    """C = m + ceil_log(2, 2(h'-1)+1) - 1 at p = 2 and m/(p-2) + const at odd p;
    F = m at p = 2 and 0 for m <= 1, m/(p-2) after, at odd p.  Both grow with m.
    """
    for p in (2,) + ODD_PRIMES:
        prev = stability_constants(system, p, 0)
        for m in range(1, 30):
            rep = stability_constants(system, p, m)
            assert rep.c_stability >= prev.c_stability
            assert rep.f_stability >= prev.f_stability
            prev = rep


@settings(max_examples=100, deadline=None)
@given(k=st.integers(0, len(ODD_PRIMES) - 2), r=st.integers(1, 10**6))
def test_finite_group_vanishing_range_is_monotone(k, r) -> None:
    """The range is r at p = 2 and r(p-2) at odd p: it grows strictly with r,
    since p - 2 >= 1, and does not fall as the odd prime grows.
    """
    p, q = ODD_PRIMES[k], ODD_PRIMES[k + 1]
    for prime in (2, p):
        assert finite_group_vanishing_range(prime, r + 1) > finite_group_vanishing_range(prime, r)
    assert finite_group_vanishing_range(q, r) >= finite_group_vanishing_range(p, r)
