"""The per-query page path against the loops it replaced, and its guards.

`invariant_page` takes each mu weight's shift and class key from one divmod
per coordinate, and `check_weight_bounds` compares b(gamma) with the bound in
integers.  The loops they replaced (per-weight tuples,
`WeightMultiset.from_dict`, Fraction comparison) are kept here as oracles.  The remaining tests pin what a caller
may rely on: the records stay frozen dataclasses, a repeated query reuses its
residue classes, the class cache stays bounded, and a warm primality cache
still refuses pseudoprimes.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction as Q
from itertools import count, product
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevbounds.bounds import bs_vanish_threshold, bs_vanish_variants, compare_thresholds
from chevbounds.e1oracle import (
    _carry_class,
    check_bs_vanishing,
    check_weight_bounds,
    invariant_page,
    verify_e1,
)
from chevbounds.errors import InputError
from chevbounds.modchar import DEFAULT_ENTRY_CAP, WeightMultiset, weyl_character
from chevbounds.primes import _is_prime, require_prime
from chevbounds.rootsys import Weight, build_root_system
from chevbounds.weightcomb import BInvariant, b_of_weight

SYSTEMS = {
    name: build_root_system(name[0], int(name[1:]))
    for name in ("A1", "A2", "B2", "G2", "A3")
}
MAX_D = 8


def _dominant_upto(rs, d_max: int) -> list[tuple[int, ...]]:
    """Dominant weights with highest-coroot pairing at most d_max."""
    found = [()]
    for _ in range(rs.rank):
        found = [c + (k,) for c in found for k in range(d_max + 1)]
    return [c for c in found if rs.pairing(c) <= d_max]


LAMBDAS = {name: _dominant_upto(rs, MAX_D) for name, rs in SYSTEMS.items()}


def _step_into_range(c: int, q: int) -> tuple[int, int]:
    """(shift, t) with c = q * shift + t and 0 <= t < q, by steps of q."""
    shift, t = 0, c
    while t < 0:
        shift, t = shift - 1, t + q
    while t >= q:
        shift, t = shift + 1, t - q
    return shift, t


def oracle_gammas(rs, p, s, f, lam, mu_set, m) -> WeightMultiset:
    """The page weights by the per-weight tuples v, t and shift, then from_dict.

    Each class comes from the uncached carry pass, keyed by t = v mod q with
    v = q * shift + t.  The oracle also checks that the class cache answers
    the key t in [0, q), which every page of the class shares, with the same
    tuple.
    """
    q = p ** (s + f)
    gathered: dict = {}
    for u, mult_u in mu_set.items:
        v = tuple(a + p**s * b for a, b in zip(lam.coords, u))
        shift, t = zip(*(_step_into_range(c, q) for c in v))
        entries = _carry_class.__wrapped__(rs, p, s + f, m, DEFAULT_ENTRY_CAP, t)
        assert _carry_class(rs, p, s + f, m, DEFAULT_ENTRY_CAP, t) == entries, t
        for gamma0, mult in entries:
            gamma = tuple(map(add, gamma0, shift))
            gathered[gamma] = gathered.get(gamma, 0) + mult * mult_u
    return WeightMultiset.from_dict(rs, gathered)


def _digits(n: int, p: int) -> int:
    """t(n), the number of base-p digits of n, by counting powers of p."""
    return next(k for k in count() if p**k > n)


def oracle_check(page, which: str) -> dict:
    """The bound report's fields by b_of_weight per weight and Fraction comparison.

    The exact bound is the paper's formula in d = d(lambda), with t the number
    of base-p digits of d and top the leading one.
    """
    rs, p, s, f, m = page.system, page.p, page.s, page.f, page.m
    b_mu = max(b_of_weight(rs, c) for c, _ in page.mu_set.items)
    if which == "exact":
        d = rs.pairing(page.lam)
        t = _digits(d, p)
        top = d // p ** (t - 1)
        if p == 2:
            bound = m - (s - t)
        else:
            bound = min(m - (s - t + 1) * (p - 2) + top, m - (s - t) * (p - 2))
    else:
        q = p ** (s + f)
        bound = Q(p**s * b_mu + b_of_weight(rs, page.lam.coords) + m * q, q)
    details = tuple(
        (c, b_of_weight(rs, c), Q(b_of_weight(rs, c)) <= bound) for c, _ in page.gammas.items
    )
    hits = tuple(c for c, bg, _ in details if which == "exact" and bg == bound)
    consistent = not hits or f == _digits(b_mu, p)
    return {
        "bound": bound,
        "equality_hits": hits,
        "equality_consistent": consistent,
        "passed": all(w for _, _, w in details) and consistent,
    }


def _drawn_module(data, rs) -> WeightMultiset:
    """The trivial module, a fundamental character, or a few weights through `from_dict`.

    The last is not known to be W-stable, so its b is scanned from its weights.
    """
    i = data.draw(st.integers(0, rs.rank + 1), label="mu index")
    if i == 0:
        return WeightMultiset.trivial(rs)
    if i <= rs.rank:
        return weyl_character(rs, rs.fundamental_weight(i))
    weights = st.tuples(*[st.integers(-2, 2)] * rs.rank)
    table = data.draw(
        st.dictionaries(weights, st.integers(1, 3), min_size=1, max_size=3), label="mu weights"
    )
    return WeightMultiset.from_dict(rs, table)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_page_query_matches_the_per_weight_oracle(data) -> None:
    name = data.draw(st.sampled_from(sorted(SYSTEMS)), label="system")
    rs = SYSTEMS[name]
    p = data.draw(st.sampled_from((2, 3, 5, 7)), label="p")
    levels = data.draw(st.integers(1, 4), label="s + f")
    s = data.draw(st.integers(0, levels), label="s")
    f = levels - s
    m = data.draw(st.integers(0, 6), label="m")
    lam = Weight(data.draw(st.sampled_from(LAMBDAS[name]), label="lambda"))
    mu_set = _drawn_module(data, rs)

    page = invariant_page(rs, p, s, f, lam, mu_set, m)
    assert page.gammas.items == oracle_gammas(rs, p, s, f, lam, mu_set, m).items
    # The same weights checked at a lower degree: both bounds fall with m, so
    # some weights may now pass a bound and others break it.
    lowered = dataclasses.replace(page, m=m - data.draw(st.integers(1, 3), label="m drop"))
    exact = verify_e1(page).exact
    reason = exact if isinstance(exact, str) else None
    # The hypotheses: lambda dominant and nonzero, s >= t(lambda) and f >= t(mu).
    b_mu = max(b_of_weight(rs, c) for c, _ in mu_set.items)
    d = rs.pairing(lam)
    assert (reason is None) == (
        min(lam.coords) >= 0 and d > 0 and s >= _digits(d, p) and f >= _digits(b_mu, p)
    )
    for checked, which in product((page, lowered), ("rough", "exact")):
        if which == "exact" and reason is not None:
            with pytest.raises(InputError) as refused:
                check_weight_bounds(checked, which)
            assert str(refused.value) == reason
            continue
        report = check_weight_bounds(checked, which)
        want = oracle_check(checked, which)
        assert {key: getattr(report, key) for key in want} == want
        assert type(report.bound) is type(want["bound"])
    if f == 0 and s >= 1 and d >= 1:
        report = check_bs_vanishing(rs, p, lam, s, m)
        uncached = tuple(
            (v, bs_vanish_threshold.__wrapped__(d, p, m, v)) for v in bs_vanish_variants(p)
        )
        assert report.thresholds == uncached
        assert report.met == any(s >= value for _, value in uncached)


def test_records_stay_frozen_dataclasses() -> None:
    # Callers copy reports with dataclasses.replace; slots must not change that.
    rs = SYSTEMS["A2"]
    lam = Weight((2, 1))
    page = invariant_page(rs, 3, 1, 0, lam, WeightMultiset.trivial(rs), 2)
    report = check_weight_bounds(page, "rough")
    assert dataclasses.replace(report, passed=False).passed is False
    module = weyl_character(rs, rs.fundamental_weight(1))
    cmp = compare_thresholds(rs, 3, 2, module)
    assert dataclasses.replace(cmp, f_delta=cmp.f_delta + 1).f_delta == cmp.f_delta + 1
    vanish = check_bs_vanishing(rs, 3, lam, 1, 2)
    e1 = verify_e1(page)
    assert dataclasses.replace(e1, failed=True).failed is True
    slotted = (
        (lam, "coords"),
        (page.gammas, "dominant"),
        (page, "m"),
        (report, "passed"),
        (vanish, "met"),
        (e1, "failed"),
        (BInvariant(1), "value"),
    )
    for record, field in slotted:
        assert not hasattr(record, "__dict__"), type(record).__name__
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, None)


def test_repeated_page_query_runs_no_carry_pass() -> None:
    # A carry pass is a miss of the class cache; the repeated query answers
    # every mu weight from the cache.
    _carry_class.cache_clear()
    rs = SYSTEMS["A2"]
    mu = weyl_character(rs, rs.fundamental_weight(1))
    args = (rs, 5, 1, 1, Weight((2, 1)), mu, 3)
    first = invariant_page(*args)
    before = _carry_class.cache_info()
    assert before.misses >= 1
    assert invariant_page(*args).gammas == first.gammas
    after = _carry_class.cache_info()
    assert after.misses == before.misses
    assert after.hits - before.hits == len(mu.items)


def test_carry_class_cache_is_bounded_and_evicts() -> None:
    # A2 at p = 3 and s + f = 4 has 81^2 = 6 561 residue classes mod 3^4,
    # and each lambda in [0, 81)^2 selects a different one under trivial mu.
    # The sweep starts at lambda = (27, 27), whose page is not empty.
    rs, p, s, f, m = SYSTEMS["A2"], 3, 2, 2, 1
    trivial = WeightMultiset.trivial(rs)
    lams = [Weight(((a + 27) % 81, (b + 27) % 81)) for a in range(81) for b in range(81)]
    _carry_class.cache_clear()
    first = invariant_page(rs, p, s, f, lams[0], trivial, m)
    assert first.gammas.as_dict() == {(1, 0): 1, (0, 1): 1}
    for lam in lams[1:]:
        invariant_page(rs, p, s, f, lam, trivial, m)
    info = _carry_class.cache_info()
    assert info.misses == len(lams) > info.maxsize == 4096
    assert info.currsize <= 4096
    # The first class was evicted long ago: asking again recomputes it once.
    assert invariant_page(rs, p, s, f, lams[0], trivial, m) == first
    assert _carry_class.cache_info().misses == info.misses + 1


def test_warm_primality_cache_still_rejects_pseudoprimes() -> None:
    # 561 is a Carmichael number; the others are strong pseudoprimes to the
    # bases up to 7, 23 and 37.
    composites = (561, 3215031751, 3825123056546413051, 318665857834031151167461)
    hits = []
    for _ in range(2):
        hits.append(_is_prime.cache_info().hits)
        for n in composites:
            with pytest.raises(InputError, match="must be prime"):
                require_prime(n)
        require_prime(2**61 - 1)
    # The second round is answered from the cache.
    assert _is_prime.cache_info().hits - hits[1] >= len(composites) + 1
