from __future__ import annotations

from fractions import Fraction as Q
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevbounds.bounds import bs_vanish_threshold
from chevbounds.e1oracle import (
    check_bs_vanishing,
    check_weight_bounds,
    dyadic_sharpness,
    enumerate_tuples,
    exact_bound_failure,
    exact_bound_value,
    invariant_page,
)
from chevbounds.errors import InputError, ResourceLimitError
from chevbounds.modchar import (
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


def test_enumerate_tuples_caps() -> None:
    with pytest.raises(ResourceLimitError):
        enumerate_tuples(3, 5, 1)
    with pytest.raises(ResourceLimitError):
        enumerate_tuples(3, 1, 9)
    assert enumerate_tuples(3, 5, 1, levels_cap=5)


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
    assert page.gammas.multiplicity((1,)) == 1


def test_invariant_page_guards() -> None:
    triv = WeightMultiset.trivial(A1)
    with pytest.raises(InputError):
        invariant_page(A1, 3, 0, 0, A1.zero, triv, 1)
    with pytest.raises(InputError):
        invariant_page(A1, 3, 1, 0, A1.zero, triv, -1)
    with pytest.raises(InputError):
        invariant_page(A1, 3, 1, 0, Weight((1, 0)), triv, 1)
    with pytest.raises(InputError):
        invariant_page(A1, 3, 1, 0, A1.zero, WeightMultiset.from_dict({}), 1)
    with pytest.raises(InputError):
        invariant_page(A1, 4, 1, 0, A1.zero, triv, 1)


def test_exact_bound_value() -> None:
    omega = A1.fundamental_weight(1)
    assert exact_bound_value(A1, 3, 1, 1, omega) == 1
    assert exact_bound_value(A1, 2, 2, 3, omega) == 2
    with pytest.raises(InputError):
        exact_bound_value(A1, 3, 1, 1, A1.zero)
    with pytest.raises(InputError):
        exact_bound_value(A1, 3, 1, 1, Weight((-1,)))


def test_check_exact_bound_on_hit_page() -> None:
    page = invariant_page(
        A1, 3, 1, 0, A1.fundamental_weight(1), WeightMultiset.trivial(A1), 1
    )
    report = check_weight_bounds(page, "exact")
    assert report.passed
    assert report.bound == 1
    assert report.equality_hits == ((1,),)
    assert report.equality_consistent
    assert report.t_mu == 0


def test_check_exact_bound_vacuous_on_empty_page() -> None:
    page = invariant_page(
        A1, 2, 1, 0, A1.fundamental_weight(1), WeightMultiset.trivial(A1), 3
    )
    report = check_weight_bounds(page, "exact")
    assert report.passed
    assert report.details == ()


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
    b_mu = max(b_of_weight(B2, c) for c, _ in mu.coords_items())
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


def test_bs_vanishing_variant_labels() -> None:
    omega = A1.fundamental_weight(1)
    assert [v for v, _ in check_bs_vanishing(A1, 2, omega, 1, 0).thresholds] == ["a"]
    assert [v for v, _ in check_bs_vanishing(A1, 3, omega, 1, 1).thresholds] == [
        "b",
        "c",
    ]


def test_bs_vanishing_selected_variant() -> None:
    omega = A1.fundamental_weight(1)
    for p, s, m in ((3, 1, 1), (3, 2, 1), (5, 1, 3), (5, 3, 2), (2, 1, 0), (2, 1, 2)):
        full = check_bs_vanishing(A1, p, omega, s, m)
        chosen = ("a",) if p == 2 else ("b", "c")
        assert full.theorems == tuple(f"P241{v}" for v in chosen)
        for v in chosen:
            one = check_bs_vanishing(A1, p, omega, s, m, variant=v)
            threshold = bs_vanish_threshold(1, p, m, v)
            assert one.thresholds == ((v, threshold),)
            assert one.theorems == (f"P241{v}",)
            assert one.met == (s >= threshold)
            assert one.page_empty == full.page_empty
            assert one.consistent == (not one.met or one.page_empty)
        assert full.met == any(
            check_bs_vanishing(A1, p, omega, s, m, variant=v).met for v in chosen
        )
        for v in sorted({"a", "b", "c"} - set(chosen)):
            with pytest.raises(InputError, match=f"variant '{v}' does not apply at p={p}"):
                check_bs_vanishing(A1, p, omega, s, m, variant=v)


def test_exact_bound_failure_reasons() -> None:
    trivial = WeightMultiset.trivial(A1)
    omega = A1.fundamental_weight(1)
    mu = WeightMultiset.from_dict({(4,): 1})  # b = 4, so t(mu) = 2 at p = 3
    cases = (
        (A1.weight((-1,)), 1, 0, trivial, "exact bound needs lambda dominant and nonzero"),
        (A1.zero, 1, 0, trivial, "exact bound needs lambda dominant and nonzero"),
        (A1.weight((3,)), 1, 0, trivial, "hypothesis s >= t(lambda) fails: s = 1, t = 2"),
        (omega, 1, 1, mu, "hypothesis f >= t(mu_set) fails: f = 1, t = 2"),
        (omega, 1, 2, mu, None),
    )
    for lam, s, f, mu_set, reason in cases:
        page = invariant_page(A1, 3, s, f, lam, mu_set, 2)
        assert exact_bound_failure(page) == reason
        if reason is None:
            bound = exact_bound_value(A1, 3, s, 2, lam)
            report = check_weight_bounds(page, "exact")
            assert report.equality_hits == tuple(
                c for c, _ in page.gammas.coords_items() if b_of_weight(A1, c) == bound
            )
        else:
            with pytest.raises(InputError) as info:
                check_weight_bounds(page, "exact")
            assert str(info.value) == reason


def test_page_cap_is_checked_while_the_product_grows() -> None:
    # A2 at p = 2 with three levels: the tuple (0, 1, 1, 1) multiplies three
    # twisted copies of the nilradical, a product larger than any graded power.
    p, levels, m = 2, 3, 3
    nil = nilradical_dual_weights(A2)
    largest_power = largest_product = 0
    for et in enumerate_tuples(p, levels, m):
        prod = {(0, 0): 1}
        for n in range(1, levels + 1):
            if not et.a[n]:
                continue
            power = graded_power("sym", nil, et.a[n])
            largest_power = max(largest_power, sum(
                graded_power("sym", nil, k).support_size for k in range(et.a[n] + 1)
            ))
            nxt: dict = {}
            for w1, m1 in prod.items():
                for w2, m2 in power.items:
                    key = tuple(a + 2 ** (n - 1) * b for a, b in zip(w1, w2))
                    nxt[key] = nxt.get(key, 0) + m1 * m2
            prod = nxt
            largest_product = max(largest_product, len(prod))
    assert largest_power < largest_product - 1
    lam, trivial = A2.weight((2, 2)), WeightMultiset.trivial(A2)
    page = invariant_page(A2, p, 2, 1, lam, trivial, m, cap=largest_product)
    assert page == invariant_page(A2, p, 2, 1, lam, trivial, m)
    with pytest.raises(ResourceLimitError, match="page product"):
        invariant_page(A2, p, 2, 1, lam, trivial, m, cap=largest_product - 1)


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
    for coords, mult in page.gammas.coords_items():
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
    p = data.draw(st.sampled_from((2, 3, 5)), label="p")
    levels = data.draw(st.integers(1, 3), label="s + f")
    m = data.draw(st.integers(0, 4), label="m")

    def coords(lo: int, hi: int):
        return st.tuples(*[st.integers(lo, hi)] * rs.rank)

    weights = st.one_of(st.just((0,) * rs.rank), coords(-2, 2))
    mu = data.draw(
        st.dictionaries(weights, st.integers(1, 3), min_size=1, max_size=3), label="mu"
    )
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
    mu_set = WeightMultiset.from_dict(mu)
    # Every split of s + f in one process shares the page cache.
    for s in range(levels + 1):
        f = levels - s
        expected = brute_force_page(summands, p, s, f, lam, mu)
        page = invariant_page(rs, p, s, f, rs.weight(lam), mu_set, m)
        assert page.gammas.as_dict() == expected
        if exact_bound_failure(page) is None:
            bound = exact_bound_value(rs, p, s, m, page.lam)
            hits = tuple(g for g in sorted(expected) if b_of_weight(rs, g) == bound)
            assert check_weight_bounds(page, "exact").equality_hits == hits
