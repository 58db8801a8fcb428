from __future__ import annotations

import dataclasses
import itertools
from fractions import Fraction as Q
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevbounds import e1oracle
from chevbounds.bounds import bs_vanish_threshold, bs_vanish_variants
from chevbounds.e1oracle import (
    _LEVEL_SHAPES,
    MAX_DEGREE,
    MAX_LEVELS,
    _compositions,
    _page_level,
    check_bs_vanishing,
    check_weight_bounds,
    dyadic_sharpness,
    enumerate_tuples,
    invariant_page,
    verify_e1,
)
from chevbounds.errors import InputError, ResourceLimitError
from chevbounds.modchar import (
    DEFAULT_ENTRY_CAP,
    WeightMultiset,
    graded_power,
    nilradical_dual_weights,
    weyl_character,
)
from chevbounds.rootsys import Coords, Weight, build_root_system
from chevbounds.weightcomb import b_of_weight, t_invariant

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
B2 = build_root_system("B", 2)


def paper_exact_bound(p: int, s: int, m: int, d: int) -> int:
    """The paper's exact bound on b(gamma) for d = <lambda, theta-vee> >= 1.

    t is the number of base-p digits of d and top the leading one:
    m - (s - t) at p = 2, min(m - (s - t + 1)(p - 2) + top, m - (s - t)(p - 2))
    at odd p.
    """
    t = 0
    while p**t <= d:
        t += 1
    top = d // p ** (t - 1)
    if p == 2:
        return m - (s - t)
    return min(m - (s - t + 1) * (p - 2) + top, m - (s - t) * (p - 2))


def test_exact_bound_is_the_vanishing_threshold_less_s() -> None:
    """The exact bound is (p - 2)(s0 - s), s0 the smallest variant's threshold.

    p - 2 is read as 1 at p = 2.  d < 180 gives every p <= 13 three base-p
    digits.
    """
    for p in (2, 3, 5, 7, 11, 13):
        c = p - 2 if p > 2 else 1
        for d in range(1, 180):
            for m in range(13):
                s0 = min(bs_vanish_threshold(d, p, m, v) for v in bs_vanish_variants(p))
                for s in range(15):
                    assert paper_exact_bound(p, s, m, d) == c * (s0 - s), (p, d, m, s)


def test_enumerate_tuples_odd_degree_one() -> None:
    tuples = enumerate_tuples(3, 1, 1)
    assert len(tuples) == 1
    (only,) = tuples
    assert only.a == (0, 0)
    assert only.b == (1, 0)
    assert only.total_degree == 1
    assert only.bidegree == (1, 0)


def test_enumerate_tuples_even_single_level() -> None:
    for k in range(0, 6):
        tuples = enumerate_tuples(2, 1, k)
        assert len(tuples) == 1
        (only,) = tuples
        assert only.a == (0, k)
        assert only.b is None
        assert only.bidegree == (k, 0)


def test_enumerate_tuples_odd_degree_two() -> None:
    tuples = enumerate_tuples(3, 1, 2)
    shapes = {(t.a, t.b) for t in tuples}
    assert shapes == {((0, 0), (2, 0)), ((0, 1), (0, 0))}


def test_enumerate_tuples_degree_invariant() -> None:
    for p in (2, 3, 5):
        for levels in (1, 2, 3):
            for m in range(0, 6):
                tuples = enumerate_tuples(p, levels, m)
                assert list(tuples) == sorted(
                    tuples, key=lambda t: (t.a, t.b or ())
                )
                for t in tuples:
                    assert t.total_degree == m
                    if p == 2:
                        assert t.b is None
                        assert sum(t.a) == m
                        assert t.bidegree[0] == sum(
                            a * 2 ** (n - 1) for n, a in enumerate(t.a)
                        )
                    else:
                        assert t.a[0] == 0
                        assert t.b is not None
                        assert t.b[-1] == 0
                        assert sum(2 * a + b for a, b in zip(t.a, t.b)) == m
                        assert t.bidegree[0] == sum(
                            a * p**n for n, a in enumerate(t.a)
                        ) + sum(b * p**n for n, b in enumerate(t.b[:-1]))


def _two_branch_tuples(p: int, levels: int, m: int) -> list[tuple]:
    """The exponent tuples as a p = 2 and an odd-p enumeration wrote them out."""
    found = []
    if p == 2:
        for comp in _compositions(m, levels):
            a = (0,) + comp
            i = sum(a[n] * 2 ** (n - 1) for n in range(1, levels + 1))
            found.append((a, None, (i, m - i)))
    else:
        for sym_total in range(m // 2 + 1):
            for a_tail in _compositions(sym_total, levels):
                a = (0,) + a_tail
                for b_head in _compositions(m - 2 * sym_total, levels):
                    b = b_head + (0,)
                    i = sum(a[n] * p**n for n in range(1, levels + 1)) + sum(
                        b[n] * p**n for n in range(levels)
                    )
                    found.append((a, b, (i, m - i)))
    found.sort(key=lambda t: (t[0], t[1] if t[1] is not None else ()))
    return found


def test_enumerate_tuples_match_the_two_branch_enumeration() -> None:
    count = 0
    for p in (2, 3, 5, 7):
        for levels in range(1, MAX_LEVELS + 1):
            for m in range(MAX_DEGREE + 1):
                tuples = enumerate_tuples(p, levels, m)
                assert [(t.a, t.b, t.bidegree) for t in tuples] == _two_branch_tuples(
                    p, levels, m
                )
                assert all(t.p == p for t in tuples)
                count += len(tuples)
    assert count == 10650


def test_enumerate_tuples_caps() -> None:
    levels = "page levels s + f = 5 outside 1..4"
    degree = "page degree m = 9 outside 0..8"
    triv = WeightMultiset.trivial(A1)
    for build, message in (
        (lambda: enumerate_tuples(3, 5, 1), levels),
        (lambda: enumerate_tuples(3, 1, 9), degree),
        (lambda: invariant_page(A1, 3, 2, 3, A1.zero, triv, 1), levels),
        (lambda: invariant_page(A1, 3, 1, 0, A1.zero, triv, 9), degree),
    ):
        with pytest.raises(InputError) as info:
            build()
        assert str(info.value) == message
    assert enumerate_tuples(3, 4, 8)
    assert invariant_page(A1, 3, 2, 2, A1.zero, triv, 8)


def test_page_odd_lambda_is_odd() -> None:
    page = invariant_page(
        A1, 2, 1, 0, A1.fundamental_weight(1), WeightMultiset.trivial(A1), 3
    )
    assert page.gammas.is_empty()
    assert check_weight_bounds(page, "exact").equality_hits == ()


def test_page_symmetric_survivor() -> None:
    page = invariant_page(A1, 3, 1, 0, A1.zero, WeightMultiset.trivial(A1), 2)
    assert page.gammas.as_dict() == {(2,): 1}


def test_page_equality_hit() -> None:
    page = invariant_page(
        A1, 3, 1, 0, A1.fundamental_weight(1), WeightMultiset.trivial(A1), 1
    )
    assert page.gammas.as_dict() == {(1,): 1}
    assert check_weight_bounds(page, "exact").equality_hits == ((1,),)


def test_page_nontrivial_mu() -> None:
    mu = weyl_character(A1, A1.fundamental_weight(1))
    page = invariant_page(A1, 3, 1, 1, A1.zero, mu, 2)
    assert page.gammas.as_dict().get((1,), 0) == 1


def test_invariant_page_guards() -> None:
    triv = WeightMultiset.trivial(A1)
    with pytest.raises(InputError):
        invariant_page(A1, 3, 0, 0, A1.zero, triv, 1)
    with pytest.raises(InputError):
        invariant_page(A1, 3, 1, 0, A1.zero, triv, -1)
    with pytest.raises(InputError):
        invariant_page(A1, 3, 1, 0, Weight((1, 0)), triv, 1)
    with pytest.raises(InputError):
        invariant_page(A1, 3, 1, 0, A1.zero, WeightMultiset.from_dict(A1, {}), 1)
    with pytest.raises(InputError):
        invariant_page(A1, 4, 1, 0, A1.zero, triv, 1)


def test_exact_bound_value() -> None:
    omega = A1.fundamental_weight(1)
    triv = WeightMultiset.trivial(A1)
    for p, s, m, bound in ((3, 1, 1, 1), (2, 2, 3, 2)):
        page = invariant_page(A1, p, s, 0, omega, triv, m)
        assert check_weight_bounds(page, "exact").bound == bound == paper_exact_bound(p, s, m, 1)
    for lam in (A1.zero, Weight((-1,))):
        page = invariant_page(A1, 3, 1, 0, lam, triv, 1)
        with pytest.raises(InputError, match="exact bound needs lambda dominant and nonzero"):
            check_weight_bounds(page, "exact")


def test_check_exact_bound_on_hit_page() -> None:
    page = invariant_page(
        A1, 3, 1, 0, A1.fundamental_weight(1), WeightMultiset.trivial(A1), 1
    )
    report = check_weight_bounds(page, "exact")
    assert report.passed
    assert report.bound == 1
    assert report.equality_hits == ((1,),)
    assert report.equality_consistent


def test_check_exact_bound_vacuous_on_empty_page() -> None:
    page = invariant_page(
        A1, 2, 1, 0, A1.fundamental_weight(1), WeightMultiset.trivial(A1), 3
    )
    report = check_weight_bounds(page, "exact")
    assert report.passed
    assert report.equality_hits == ()


def test_check_exact_bound_a2_sweep() -> None:
    lam = A2.fundamental_weight(1)
    for m in range(0, 5):
        page = invariant_page(A2, 3, 1, 0, lam, WeightMultiset.trivial(A2), m)
        report = check_weight_bounds(page, "exact")
        assert report.passed
        assert report.equality_consistent


def test_check_exact_bound_hypotheses() -> None:
    triv = WeightMultiset.trivial(A1)
    zero_page = invariant_page(A1, 3, 1, 0, A1.zero, triv, 2)
    with pytest.raises(InputError, match="dominant"):
        check_weight_bounds(zero_page, "exact")

    omega = A1.fundamental_weight(1)
    low_s = invariant_page(A1, 3, 0, 1, omega, triv, 1)
    with pytest.raises(InputError, match="s >= t"):
        check_weight_bounds(low_s, "exact")

    mu = weyl_character(A1, A1.fundamental_weight(1))
    low_f = invariant_page(A1, 3, 1, 0, omega, mu, 1)
    with pytest.raises(InputError, match="f >= t"):
        check_weight_bounds(low_f, "exact")

    with pytest.raises(InputError):
        check_weight_bounds(zero_page, "sharp")


def test_check_rough_bound_unconditional() -> None:
    triv = WeightMultiset.trivial(A1)
    page = invariant_page(A1, 3, 1, 0, A1.zero, triv, 2)
    report = check_weight_bounds(page, "rough")
    assert report.passed
    assert report.bound == Q(2 * 3, 3)

    skew = invariant_page(A1, 3, 1, 1, Weight((-2,)), triv, 3)
    assert check_weight_bounds(skew, "rough").passed


def test_rough_bound_value_matches_formula() -> None:
    mu = weyl_character(B2, B2.fundamental_weight(1))
    b_mu = max(b_of_weight(B2, c) for c, _ in mu.items)
    lam = B2.fundamental_weight(2)
    page = invariant_page(B2, 3, 1, 1, lam, mu, 2)
    report = check_weight_bounds(page, "rough")
    q = 3**2
    assert report.bound == Q(3 * b_mu + b_of_weight(B2, lam.coords) + 2 * q, q)


def test_bs_vanishing_examples() -> None:
    omega = A1.fundamental_weight(1)

    met = check_bs_vanishing(A1, 3, omega, 2, 1)
    assert met.met and met.page_empty and met.consistent

    even = check_bs_vanishing(A1, 2, omega, 1, 0)
    assert even.met and even.page_empty and even.consistent

    unmet = check_bs_vanishing(A1, 3, omega, 1, 1)
    assert not unmet.met
    assert not unmet.page_empty
    assert unmet.consistent


def test_bs_vanishing_guards() -> None:
    omega = A1.fundamental_weight(1)
    with pytest.raises(InputError):
        check_bs_vanishing(A1, 3, omega, 0, 1)
    with pytest.raises(InputError):
        check_bs_vanishing(A1, 3, A1.zero, 1, 1)


def test_the_vanishing_reason_is_the_guard_of_the_check() -> None:
    omega = A1.fundamental_weight(1)
    trivial = WeightMultiset.trivial(A1)
    failure = "vanishing check needs f = 0, got f = 1"
    assert verify_e1(invariant_page(A1, 3, 2, 1, omega, trivial, 1)).vanish == failure
    ran = verify_e1(invariant_page(A1, 3, 1, 0, omega, trivial, 1)).vanish
    assert ran == check_bs_vanishing(A1, 3, omega, 1, 1)
    no_pairing = "vanishing thresholds need a positive highest-coroot pairing"
    for lam, s, reason in (
        (omega, 0, "kernel height s must be at least 1, got 0"),
        (A1.zero, 1, no_pairing),
        (Weight((-1,)), 2, no_pairing),
    ):
        with pytest.raises(InputError) as info:
            check_bs_vanishing(A1, 3, lam, s, 1)
        assert str(info.value) == reason
        if s >= 1:
            assert verify_e1(invariant_page(A1, 3, s, 0, lam, trivial, 1)).vanish == reason


def test_bs_vanishing_variant_labels() -> None:
    omega = A1.fundamental_weight(1)
    assert [v for v, _ in check_bs_vanishing(A1, 2, omega, 1, 0).thresholds] == ["a"]
    assert [v for v, _ in check_bs_vanishing(A1, 3, omega, 1, 1).thresholds] == [
        "b",
        "c",
    ]


def test_bs_vanishing_is_met_when_one_clause_is() -> None:
    omega = A1.fundamental_weight(1)
    for p, s, m in ((3, 1, 1), (3, 2, 1), (5, 1, 3), (5, 3, 2), (2, 1, 0), (2, 1, 2)):
        report = check_bs_vanishing(A1, p, omega, s, m)
        chosen = ("a",) if p == 2 else ("b", "c")
        assert report.thresholds == tuple((v, bs_vanish_threshold(1, p, m, v)) for v in chosen)
        assert report.theorems == tuple(f"P241{v}" for v in chosen)
        assert report.met == any(s >= threshold for _, threshold in report.thresholds)
        assert report.consistent == (not report.met or report.page_empty)


def _dominant_upto(rs, hi: int) -> list[Weight]:
    """Dominant weights with highest-coroot pairing in 1..hi, as in ACCEPTANCE 4."""
    return [
        Weight(coords)
        for coords in itertools.product(range(hi + 1), repeat=rs.rank)
        if 1 <= rs.pairing(coords) <= hi
    ]


def test_vanishing_check_reads_the_page_it_predicts_empty() -> None:
    """On the ACCEPTANCE 4 grid, page_empty is the emptiness of the built page.

    At f = 0 every mu weight u selects the class -(lambda + p^s u) = -lambda
    mod p^s, so verify_e1 reads the same report off the page of any mu.
    """
    checked = with_mu = 0
    for rs in (A1, A2, B2):
        trivial = WeightMultiset.trivial(rs)
        zeros = (0,) * (rs.rank - 1)
        modules = (
            weyl_character(rs, rs.fundamental_weight(1)),
            # -omega_1 is not dominant, and the multiset is not W-stable.
            WeightMultiset.from_dict(rs, {(-1,) + zeros: 2, (2,) + zeros: 1}),
        )
        for lam in _dominant_upto(rs, 8):
            for p in (2, 3, 5):
                for s in (1, 2, 3):
                    for m in range(5):
                        report = check_bs_vanishing(rs, p, lam, s, m)
                        page = invariant_page(rs, p, s, 0, lam, trivial, m)
                        assert report.page_empty == page.gammas.is_empty(), (rs.name, lam, p, s, m)
                        assert report.lam == lam
                        assert verify_e1(page).vanish == report
                        checked += 1
                        for mu_set in modules:
                            page = invariant_page(rs, p, s, 0, lam, mu_set, m)
                            assert verify_e1(page).vanish == report, (rs.name, lam, p, s, m)
                            with_mu += 1
    assert checked == 4320
    assert with_mu == 8640


def test_verify_e1_reads_no_carry_class(monkeypatch) -> None:
    # verify_e1 reads only its page: with the class cache refused, every
    # report, the P241 one included, is the same.
    omega = A2.fundamental_weight(1)
    pages = [
        invariant_page(A2, p, s, f, lam, mu_set, m)
        for p, s, f, m in ((2, 1, 0, 2), (3, 1, 0, 1), (3, 2, 0, 3), (3, 1, 1, 2))
        for lam in (omega, Weight((2, 1)), A2.zero)
        for mu_set in (WeightMultiset.trivial(A2), weyl_character(A2, omega))
    ]
    expected = [verify_e1(page) for page in pages]
    assert any(not isinstance(report.vanish, str) for report in expected)

    def refuse(*args):
        raise AssertionError("verify_e1 read a carry class")

    monkeypatch.setattr(e1oracle, "_carry_class", refuse)
    assert [verify_e1(page) for page in pages] == expected


# Each refused input of the vanishing check, with its error.  The check builds
# no page.  It refuses by its own rules first: the guard on s, f and lambda,
# then the thresholds, which refuse p and a negative m.  Only then come the
# page's rules: the cap and page-shape checks, and the caps of the page levels
# and carry states that reading the one carry class, lambda mod p^s, applies.
# So m = -1 gets the threshold's message, not the page shape's.
VANISH_REFUSALS = {
    "p=4": ((A2, 4, (1, 0), 1, 2), {}, InputError, "p must be prime, got 4"),
    "s=0": ((A2, 3, (1, 0), 0, 2), {}, InputError, "kernel height s must be at least 1, got 0"),
    "s=5": ((A2, 3, (1, 0), 5, 2), {}, InputError, "page levels s + f = 5 outside 1..4"),
    "m=9": ((A2, 3, (1, 0), 1, 9), {}, InputError, "page degree m = 9 outside 0..8"),
    "m=-1": ((A2, 3, (1, 0), 1, -1), {}, InputError, "m = -1 below 0"),
    "cap=0": ((A2, 3, (1, 0), 1, 2), {"cap": 0}, InputError, "cap = 0 below 1"),
    "wrong rank": (
        (A2, 3, (1, 0, 0), 1, 2), {}, InputError, "weight (1, 0, 0) has 3 coordinates, A2 needs 2"
    ),
    "bool s": ((A2, 3, (1, 0), True, 2), {}, InputError, "s must be an integer, got True"),
    "p=4 and m=9": ((A2, 4, (1, 0), 1, 9), {}, InputError, "p must be prime, got 4"),
    "s=5, m=9, cap=0": ((A2, 3, (1, 0), 5, 9), {"cap": 0}, InputError, "cap = 0 below 1"),
    "s=5 and m=9": ((A2, 3, (1, 0), 5, 9), {}, InputError, "page levels s + f = 5 outside 1..4"),
    "level cap": (
        (A2, 3, (1, 0), 1, 4), {"cap": 3}, ResourceLimitError,
        "page level: distinct weights 4, above the cap 3; "
        "raise the cap to allow",
    ),
    "carry cap": (
        (A1, 2, (16,), 4, 8), {"cap": 20}, ResourceLimitError,
        "page carry: carry states 21, above the cap 20; "
        "raise the cap to allow",
    ),
}


@pytest.mark.parametrize("name", sorted(VANISH_REFUSALS))
def test_vanishing_check_refuses_by_thresholds_before_page_rules(name: str) -> None:
    args, kwargs, error, message = VANISH_REFUSALS[name]
    with pytest.raises(error) as info:
        check_bs_vanishing(*args, **kwargs)
    assert type(info.value) is error
    assert str(info.value) == message


def test_exact_bound_reasons() -> None:
    trivial = WeightMultiset.trivial(A1)
    omega = A1.fundamental_weight(1)
    mu = WeightMultiset.from_dict(A1, {(4,): 1})  # b = 4, so t(mu) = 2 at p = 3
    cases = (
        (Weight((-1,)), 1, 0, trivial, "exact bound needs lambda dominant and nonzero"),
        (A1.zero, 1, 0, trivial, "exact bound needs lambda dominant and nonzero"),
        (Weight((3,)), 1, 0, trivial, "hypothesis s >= t(lambda) fails: s = 1, t = 2"),
        (omega, 1, 1, mu, "hypothesis f >= t(mu_set) fails: f = 1, t = 2"),
        (omega, 1, 2, mu, None),
    )
    for lam, s, f, mu_set, reason in cases:
        page = invariant_page(A1, 3, s, f, lam, mu_set, 2)
        assert verify_e1(page).exact == (reason or check_weight_bounds(page, "exact"))
        if reason is None:
            bound = paper_exact_bound(3, s, 2, A1.pairing(lam))
            report = check_weight_bounds(page, "exact")
            assert report.bound == bound
            assert report.equality_hits == tuple(
                c for c, _ in page.gammas.items if b_of_weight(A1, c) == bound
            )
        else:
            with pytest.raises(InputError) as info:
                check_weight_bounds(page, "exact")
            assert str(info.value) == reason


def test_verify_e1_fails_when_one_check_that_ran_fails(monkeypatch) -> None:
    # No page in range breaks a bound, so each check in turn is made to fail
    # in the one function verify_e1 runs it through.
    page = invariant_page(A1, 3, 1, 0, A1.fundamental_weight(1), WeightMultiset.trivial(A1), 1)
    bounds, vanish = e1oracle._bound_check, e1oracle._vanish_check
    report = verify_e1(page)
    assert not report.failed
    assert not isinstance(report.exact, str) and not isinstance(report.vanish, str)
    for broken in ("rough", "exact", "vanish"):
        monkeypatch.setattr(
            e1oracle,
            "_bound_check",
            lambda page, which: dataclasses.replace(bounds(page, which), passed=which != broken),
        )
        monkeypatch.setattr(
            e1oracle,
            "_vanish_check",
            lambda *args: dataclasses.replace(vanish(*args), consistent=broken != "vanish"),
        )
        assert verify_e1(page).failed, broken


def test_verify_e1_runs_each_check_once(monkeypatch) -> None:
    # One call reads t(lambda) and t(mu) once each for the exact bound, and
    # the vanishing guard once.
    page = invariant_page(A1, 3, 1, 0, A1.fundamental_weight(1), WeightMultiset.trivial(A1), 1)
    calls: list[str] = []
    for name in ("_bound_check", "_vanish_pairing", "t_invariant"):
        real = getattr(e1oracle, name)
        monkeypatch.setattr(
            e1oracle, name, lambda *args, real=real, name=name: calls.append(name) or real(*args)
        )
    report = verify_e1(page)
    assert not isinstance(report.exact, str) and not isinstance(report.vanish, str)
    assert sorted(calls) == ["_bound_check"] * 2 + ["_vanish_pairing"] + ["t_invariant"] * 2


def test_page_cap_is_checked_on_the_carry_states() -> None:
    # A1 at p = 2 with four levels in degree 8: the carry states of the class
    # r = 0 outnumber the working set of every level that the page builds.
    p, levels, m, r = 2, 4, 8, (0,)
    nil = nilradical_dual_weights(A1)
    # At p = 2 every level is S^d in degree d, and a level holds all of its
    # degrees 0..m while it folds.
    sym = [{w for w, _ in graded_power("sym", nil, d).items} for d in range(m + 1)]
    largest_other = sum(map(len, sym))
    # After level n, twisted p^n, the carry states are the prefix sums
    # sum_{j <= n} p^j w_j, with the degree they use, that are r mod p^(n+1).
    # Every level is filtered, and the last one takes the missing degree.
    prefixes = {((0,), 0)}
    largest_carry = 0
    for n in range(levels):
        last = n == levels - 1
        prefixes = {
            (tuple(x + p**n * y for x, y in zip(prefix, w)), used + d)
            for prefix, used in prefixes
            for d in range(m - used + 1) if d == m - used or not last
            for w in sym[d]
        }
        prefixes = {
            (prefix, used) for prefix, used in prefixes
            if all((x - c) % p ** (n + 1) == 0 for x, c in zip(prefix, r))
        }
        largest_carry = max(largest_carry, len(prefixes))
    assert largest_other < largest_carry - 1
    lam, trivial = Weight((0,)), WeightMultiset.trivial(A1)
    assert tuple((-c) % p**levels for c in lam.coords) == r
    for s in range(levels + 1):
        f = levels - s
        page = invariant_page(A1, p, s, f, lam, trivial, m, cap=largest_carry)
        assert page == invariant_page(A1, p, s, f, lam, trivial, m)
        with pytest.raises(ResourceLimitError, match="page carry"):
            invariant_page(A1, p, s, f, lam, trivial, m, cap=largest_carry - 1)


LEVEL_SYSTEMS = {
    name: build_root_system(name[0], int(name[1:]))
    for name in ("A1", "A2", "B2", "G2", "A3", "D4", "F4")
}


@lru_cache(maxsize=None)
def _level_by_products(name: str, kind: str, d: int) -> dict[Coords, int]:
    """The degree-d table of a page level: the sum of S^a (x) Lambda^b over its (a, b)."""
    nil = nilradical_dual_weights(LEVEL_SYSTEMS[name])
    table: dict[Coords, int] = {}
    for a, b in _LEVEL_SHAPES[kind](d):
        for w1, m1 in graded_power("sym", nil, a).items:
            for w2, m2 in graded_power("ext", nil, b).items:
                key = tuple(x + y for x, y in zip(w1, w2))
                table[key] = table.get(key, 0) + m1 * m2
    return table


@pytest.mark.parametrize("name", sorted(LEVEL_SYSTEMS))
def test_page_level_fold_matches_the_graded_power_products(name: str) -> None:
    # The fold over the roots gives each level table, degree by degree and
    # residue by residue, as the products of graded powers do.
    rs = LEVEL_SYSTEMS[name]
    grid = [(3, 4)] if name == "F4" else [(p, m) for p in (2, 3, 5) for m in range(6)]
    for p, m in grid:
        for kind in sorted(_LEVEL_SHAPES):
            modulus, level = _page_level(rs, p, m, DEFAULT_ENTRY_CAP, kind)
            assert modulus == (1 if kind == "top" else p)
            expected: dict[Coords, list[dict[Coords, int]]] = {}
            for d in range(m + 1):
                for w, mult in _level_by_products(name, kind, d).items():
                    residue = tuple(c % modulus for c in w)
                    expected.setdefault(residue, [{} for _ in range(m + 1)])[d][w] = mult
            assert {r: [dict(row) for row in rows] for r, rows in level.items()} == expected


def test_page_refuses_mu_of_the_wrong_rank() -> None:
    # mu_set must be a multiset of the page's system, whatever its rank; one
    # that mixes ranks cannot be built.
    lam = Weight((1, 1))
    for mu_set in (
        WeightMultiset.from_dict(A1, {(1,): 1}),
        weyl_character(A1, A1.fundamental_weight(1)),
        weyl_character(B2, B2.fundamental_weight(2)),
        WeightMultiset.trivial(B2),
    ):
        with pytest.raises(InputError, match="weight multiset of (A1|B2) is not one of A2"):
            invariant_page(A2, 3, 1, 0, lam, mu_set, 2)
    with pytest.raises(InputError, match=r"weight \(1,\) has 1 coordinates, A2 needs 2"):
        WeightMultiset.from_dict(A2, {(0, 0): 1, (1,): 1})


def test_exact_bound_value_refuses_lambda_of_the_wrong_rank() -> None:
    with pytest.raises(InputError, match=r"weight \(1,\) has 1 coordinates, A2 needs 2"):
        invariant_page(A2, 3, 1, 0, Weight((1,)), WeightMultiset.trivial(A2), 2)


def test_dyadic_sharpness_examples() -> None:
    assert dyadic_sharpness(1, 1)
    assert dyadic_sharpness(2, 1)
    assert dyadic_sharpness(1, 0)
    with pytest.raises(InputError):
        dyadic_sharpness(0, 0)


def test_dyadic_sharpness_range() -> None:
    assert all(
        dyadic_sharpness(s, k - s) for k in range(1, 31) for s in range(0, k + 1)
    )


def test_equality_needs_matching_f() -> None:
    # A hit with f above t(mu_set) would contradict the equality clause.
    omega = A1.fundamental_weight(1)
    for s, f in ((1, 0), (2, 0), (1, 1), (2, 1)):
        for m in range(0, 4):
            page = invariant_page(
                A1, 3, s, f, omega, WeightMultiset.trivial(A1), m
            )
            if check_weight_bounds(page, "exact").equality_hits:
                assert page.f == t_invariant(1, 3) - 1 or page.f == 0


def test_page_weights_divisible_before_untwisting() -> None:
    mu = weyl_character(B2, B2.fundamental_weight(1))
    lam = B2.fundamental_weight(2)
    page = invariant_page(B2, 2, 1, 1, lam, mu, 3)
    q = 2 ** (page.s + page.f)
    for coords, mult in page.gammas.items:
        assert mult > 0
        scaled = tuple(q * c for c in coords)
        assert all(isinstance(c, int) for c in scaled)


PROPERTY_SYSTEMS = {
    "A1": A1, "A2": A2, "B2": B2, "G2": build_root_system("G", 2),
}


@lru_cache(maxsize=None)
def brute_force_summands(name: str, p: int, levels: int, m: int) -> dict[Coords, int]:
    """Every weight of the degree-m page with its multiplicity, multiplied out.

    The n-th factor of a summand is twisted by p^n (p^(n-1) for the
    symmetric factors at p = 2), and the products are summed in full.
    """
    rs = PROPERTY_SYSTEMS[name]
    nil = nilradical_dual_weights(rs)
    total: dict[Coords, int] = {}
    for et in enumerate_tuples(p, levels, m):
        if p == 2:
            factors = [("sym", a, 2 ** (n - 1)) for n, a in enumerate(et.a) if n]
        else:
            factors = [("sym", a, p**n) for n, a in enumerate(et.a)]
            factors += [("ext", b, p**n) for n, b in enumerate(et.b)]
        prod = {(0,) * rs.rank: 1}
        for kind, k, twist in factors:
            nxt: dict[Coords, int] = {}
            for w1, m1 in prod.items():
                for w2, m2 in graded_power(kind, nil, k).items:
                    key = tuple(a + twist * b for a, b in zip(w1, w2))
                    nxt[key] = nxt.get(key, 0) + m1 * m2
            prod = nxt
        for w, mult in prod.items():
            total[w] = total.get(w, 0) + mult
    return total


def brute_force_page(
    summands: dict[Coords, int], p: int, s: int, f: int, lam: Coords, mu: dict[Coords, int]
) -> dict[Coords, int]:
    """Shift every summand by lam + p^s u, keep what p^(s+f) divides, divide."""
    q = p ** (s + f)
    page: dict[Coords, int] = {}
    for w, mult in summands.items():
        for u, mult_u in mu.items():
            v = tuple(a + p**s * b + c for a, b, c in zip(lam, u, w))
            if all(c % q == 0 for c in v):
                gamma = tuple(c // q for c in v)
                page[gamma] = page.get(gamma, 0) + mult * mult_u
    return page


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_page_lookup_matches_brute_force(data) -> None:
    name = data.draw(st.sampled_from(sorted(PROPERTY_SYSTEMS)), label="system")
    rs = PROPERTY_SYSTEMS[name]
    p = data.draw(st.sampled_from((2, 3, 5, 7)), label="p")
    # Rank 1 reaches four carry levels and degree 6.
    levels = data.draw(st.integers(1, 4 if rs.rank == 1 else 3), label="s + f")
    m = data.draw(st.integers(0, 6 if rs.rank == 1 else 4), label="m")

    def coords(lo: int, hi: int):
        return st.tuples(*[st.integers(lo, hi)] * rs.rank)

    weights = st.one_of(st.just((0,) * rs.rank), coords(-2, 2))
    mu = data.draw(
        st.dictionaries(weights, st.integers(1, 3), min_size=1, max_size=3), label="mu"
    )
    if data.draw(st.booleans(), label="collide"):
        # u and u + p^(s+f) * delta select the same residue class at every split.
        u = data.draw(st.sampled_from(sorted(mu)), label="u")
        delta = data.draw(coords(-1, 1).filter(any), label="delta")
        twin = tuple(a + p**levels * b for a, b in zip(u, delta))
        mu[twin] = mu.get(twin, 0) + data.draw(st.integers(1, 3), label="twin mult")
    summands = brute_force_summands(name, p, levels, m)
    how = data.draw(st.sampled_from(("aimed", "dominant", "any")), label="lambda")
    if how == "aimed":
        # Make one shifted summand divisible by q at the split s = s0.
        s0 = data.draw(st.integers(0, levels), label="s0")
        w = data.draw(st.sampled_from(sorted(summands)), label="w")
        u = data.draw(st.sampled_from(sorted(mu)), label="u")
        gamma = data.draw(coords(0, 2), label="gamma")
        lam = tuple(p**levels * g - p**s0 * b - c for g, b, c in zip(gamma, u, w))
    else:
        lam = data.draw(coords(0, 3) if how == "dominant" else coords(-4, 6), label="lambda")
    mu_set = WeightMultiset.from_dict(rs, mu)
    # Every split of s + f in one process shares the page cache.
    for s in range(levels + 1):
        f = levels - s
        expected = brute_force_page(summands, p, s, f, lam, mu)
        page = invariant_page(rs, p, s, f, lam, mu_set, m)
        assert page.gammas.as_dict() == expected
        report = verify_e1(page).exact
        if not isinstance(report, str):
            bound = paper_exact_bound(p, s, m, rs.pairing(lam))
            assert report.bound == bound
            assert report.equality_hits == tuple(
                g for g in sorted(expected) if b_of_weight(rs, g) == bound
            )


COSET_SYSTEMS = {
    name: build_root_system(name[0], int(name[1:]))
    for name in ("A1", "A2", "B2", "G2", "A3", "B3", "C3")
}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_page_weights_lie_in_the_root_lattice_coset(data) -> None:
    # A summand weight w is a sum of positive roots and q * gamma = v + w with
    # v = lam + p^s u.  The weights of a character lie in one coset of the
    # root lattice, so q * gamma - lam - p^s u is in it for every weight u of
    # mu: cartan_det divides its scaled root-basis coordinates.
    name = data.draw(st.sampled_from(sorted(COSET_SYSTEMS)), label="system")
    rs = COSET_SYSTEMS[name]
    p = data.draw(st.sampled_from((2, 3, 5, 7)), label="p")
    levels = data.draw(st.integers(1, 3 if rs.rank < 3 else 2), label="s + f")
    s = data.draw(st.integers(0, levels), label="s")
    m = data.draw(st.integers(0, 4 if rs.rank < 3 else 3), label="m")
    i = data.draw(st.integers(0, rs.rank), label="mu index")
    mu_set = WeightMultiset.trivial(rs) if i == 0 else weyl_character(rs, rs.fundamental_weight(i))
    q, ps = p**levels, p**s

    def coords(lo: int, hi: int):
        return st.tuples(*[st.integers(lo, hi)] * rs.rank)

    roots = [root.omega_coords for root in rs.positive_roots]
    aimed = m <= len(roots) and data.draw(st.booleans(), label="aimed")
    if aimed:
        # m distinct positive roots sum to a weight of the untwisted level in
        # degree m, so this lam puts gamma on the page.
        picked = data.draw(
            st.lists(st.sampled_from(roots), min_size=m, max_size=m, unique=True), label="roots"
        )
        w = [sum(root[k] for root in picked) for k in range(rs.rank)]
        u = data.draw(st.sampled_from([c for c, _ in mu_set.items]), label="u")
        gamma = data.draw(coords(-1, 2), label="gamma")
        lam = tuple(q * g - ps * b - c for g, b, c in zip(gamma, u, w))
    else:
        lam = data.draw(coords(-4, 6), label="lambda")
    page = invariant_page(rs, p, s, levels - s, lam, mu_set, m)
    if aimed:
        assert gamma in page.gammas.as_dict()
    for g, _ in page.gammas.items:
        for u, _ in mu_set.items:
            x = tuple(q * c - a - ps * b for c, a, b in zip(g, lam, u))
            assert all(c % rs.cartan_det == 0 for c in rs.root_basis_scaled(x)), (g, u)
