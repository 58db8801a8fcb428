from __future__ import annotations

from fractions import Fraction as Q
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevbounds.bounds import _module_stats
from chevbounds.errors import InputError
from chevbounds.modchar import WeightMultiset
from chevbounds.primes import PRIME_CERTIFIED_BELOW, require_prime
from chevbounds.rootsys import RootSystem, build_root_system
from chevbounds.weightcomb import (
    b_invariant,
    b_of_weight,
    ceil_log,
    floor_log,
    order_in_fundamental_group,
    p_adic_digits,
    structural_constants,
    t_invariant,
)


def _trial_division_prime(n: int) -> bool:
    return n >= 2 and all(n % q for q in range(2, isqrt(n) + 1))


def _passes(p: int) -> bool:
    try:
        require_prime(p)
    except InputError:
        return False
    return True


def test_ceil_and_floor_log() -> None:
    assert ceil_log(2, 1) == 0
    assert ceil_log(2, 2) == 1
    assert ceil_log(2, 3) == 2
    assert ceil_log(3, 9) == 2
    assert ceil_log(3, 10) == 3
    assert ceil_log(3, Q(10)) == 3
    assert floor_log(2, 1) == 0
    assert floor_log(2, 7) == 2
    assert floor_log(2, 8) == 3
    assert floor_log(3, Q(26, 3)) == 1
    assert floor_log(5, Q(25)) == 2
    with pytest.raises(InputError):
        floor_log(2, Q(1, 2))
    with pytest.raises(InputError):
        ceil_log(2, 0)
    with pytest.raises(InputError):
        ceil_log(1, 4)


def test_log_functions_agree_with_powers() -> None:
    for p in (2, 3, 5, 7):
        for x in range(1, 200):
            c = ceil_log(p, x)
            f = floor_log(p, x)
            assert p ** f <= x <= p ** c
            if f:
                assert p ** (f + 1) > x
            if c:
                assert p ** (c - 1) < x


def _power_loop_logs(p: int, x: Q) -> tuple[int, int]:
    """(ceil, floor) of log_p x by comparing the Fraction x itself with powers of p."""
    c = 0
    while p**c < x:
        c += 1
    f = 0
    while p ** (f + 1) <= x:
        f += 1
    return c, f


BIG = 2**200 + 2**100 + 1


@pytest.mark.parametrize("p", (2, 3, 5, 7, 13))
def test_logs_of_fractions_at_powers_of_p(p) -> None:
    """x = 1 and x = p**k exactly, and p**k -/+ 1/D, against the power loop.

    p**130 is past 2**200 for every p here, so those numerators are too.
    """
    for k in (0, 1, 2, 5, 40, 130):
        power = Q(p**k)
        for d in (1, 2, 3, 10, 999_983, 10**6):
            xs = [power, power + Q(1, d), Q(BIG, d) + power]
            if k:
                xs.append(power - Q(1, d))
            for x in xs:
                assert (ceil_log(p, x), floor_log(p, x)) == _power_loop_logs(p, x), x


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from((2, 3, 5, 7, 11, 13)),
    n=st.integers(1, 2**230),
    d=st.integers(1, 10**6),
)
def test_logs_of_fractions_match_the_power_loop(p, n, d) -> None:
    x = Q(n, d)
    if x < 1:
        with pytest.raises(InputError):
            ceil_log(p, x)
        with pytest.raises(InputError):
            floor_log(p, x)
    else:
        assert (ceil_log(p, x), floor_log(p, x)) == _power_loop_logs(p, x)


def test_t_invariant() -> None:
    assert t_invariant(0, 2) == 0
    assert t_invariant(1, 2) == 1
    assert t_invariant(2, 2) == 2
    assert t_invariant(3, 2) == 2
    assert t_invariant(4, 2) == 3
    assert t_invariant(1, 3) == 1
    assert t_invariant(3, 3) == 2
    assert t_invariant(8, 3) == 2
    assert t_invariant(9, 3) == 3


def test_p_adic_digits() -> None:
    assert p_adic_digits(0, 3) == ()
    assert p_adic_digits(10, 3) == (1, 0, 1)
    assert p_adic_digits(8, 2) == (0, 0, 0, 1)
    for n in range(1, 100):
        digits = p_adic_digits(n, 5)
        assert digits[-1] != 0
        assert sum(d * 5**i for i, d in enumerate(digits)) == n


def test_b_invariant_single_weights() -> None:
    a1 = build_root_system("A", 1)
    rep = b_invariant(a1, WeightMultiset.from_dict(a1, {(-1,): 1}))
    assert rep.value == 1

    a2 = build_root_system("A", 2)
    rep2 = b_invariant(a2, WeightMultiset.from_dict(a2, {(1, 1): 1, (-1, 2): 1}))
    assert rep2.value == 2
    with pytest.raises(InputError, match="needs a non-empty weight multiset"):
        b_invariant(a2, WeightMultiset(a2, ()))


def test_b_of_weight_is_orbit_invariant() -> None:
    rs = build_root_system("B", 2)
    for c1 in range(-2, 3):
        for c2 in range(-2, 3):
            value = b_of_weight(rs, (c1, c2))
            for i in range(rs.rank):
                assert b_of_weight(rs, rs.reflect((c1, c2), i)) == value
    assert b_of_weight(rs, (0, 0)) == 0


def test_structural_constants_table() -> None:
    expected = {
        ("A", 1): (1, 2),
        ("A", 4): (1, 5),
        ("B", 3): (2, 2),
        ("C", 4): (2, 2),
        ("D", 5): (2, 2),
        ("E", 6): (3, 3),
        ("E", 7): (4, 2),
        ("E", 8): (6, 1),
        ("F", 4): (4, 1),
        ("G", 2): (3, 1),
    }
    for (family, rank), pair in expected.items():
        assert structural_constants(build_root_system(family, rank)) == pair


def _c_and_t_p(rs: RootSystem, coords: tuple[int, ...], p: int) -> tuple[Q, int]:
    """c(lambda) and t_p(lambda): the module statistics of the one weight lambda."""
    return _module_stats(rs, WeightMultiset.from_dict(rs, {coords: 1}), p)


def test_lambda_stats_examples() -> None:
    a1 = build_root_system("A", 1)
    assert _c_and_t_p(a1, (1,), 2) == (Q(1, 2), 2)
    assert a1.pairing((1,)) == 1
    assert order_in_fundamental_group(a1, (1,)) == 2

    a2 = build_root_system("A", 2)
    assert _c_and_t_p(a2, (1, 0), 3) == (Q(2, 3), 3)
    assert a2.pairing((1, 0)) == 1
    assert order_in_fundamental_group(a2, (1, 0)) == 3


def test_d_at_most_c_outside_type_a() -> None:
    for family, rank in (("B", 3), ("C", 3), ("D", 4), ("F", 4), ("G", 2), ("E", 6)):
        rs = build_root_system(family, rank)
        for i in range(1, rank + 1):
            coords = rs.fundamental_weight(i).coords
            assert rs.pairing(coords) <= _c_and_t_p(rs, coords, 2)[0]
    for rank in (1, 2, 3, 4):
        rs = build_root_system("A", rank)
        for i in range(1, rank + 1):
            coords = rs.fundamental_weight(i).coords
            assert rs.pairing(coords) <= 2 * _c_and_t_p(rs, coords, 2)[0]


def test_order_in_fundamental_group() -> None:
    a2 = build_root_system("A", 2)
    assert order_in_fundamental_group(a2, a2.zero) == 1
    assert order_in_fundamental_group(a2, a2.fundamental_weight(1)) == 3
    assert order_in_fundamental_group(a2, a2.highest_root) == 1

    d5 = build_root_system("D", 5)
    orders = [order_in_fundamental_group(d5, d5.fundamental_weight(i)) for i in range(1, 6)]
    assert orders == [2, 1, 2, 4, 4]

    assert order_in_fundamental_group(
        build_root_system("B", 3), build_root_system("B", 3).fundamental_weight(3)
    ) == 2
    e7 = build_root_system("E", 7)
    assert order_in_fundamental_group(e7, e7.fundamental_weight(7)) == 2


def test_order_divides_group_exponent() -> None:
    for family, rank in (("A", 3), ("B", 4), ("C", 3), ("D", 4), ("D", 5), ("E", 6)):
        rs = build_root_system(family, rank)
        exponent = max(rs.fundamental_group_invariants)
        for i in range(1, rank + 1):
            order = order_in_fundamental_group(rs, rs.fundamental_weight(i))
            assert exponent % order == 0


def test_require_prime_matches_trial_division() -> None:
    # Both sides of the switch from trial division to Miller-Rabin.
    for n in list(range(-3, 2000)) + list(range((1 << 20) - 500, (1 << 20) + 2500)):
        assert _passes(n) == _trial_division_prime(n), n


def test_require_prime_rejects_strong_pseudoprimes() -> None:
    assert not _passes(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7
    assert not _passes(3825123056546413051)  # ... to every prime base up to 23
    assert not _passes(318665857834031151167461)  # ... to every prime base up to 37
    assert _passes(1000000000000000003)
    assert _passes(2**61 - 1)


def test_require_prime_refuses_what_it_cannot_decide() -> None:
    with pytest.raises(InputError, match="must be prime"):
        require_prime(PRIME_CERTIFIED_BELOW - 1)  # even, but below the bound
    for p in (PRIME_CERTIFIED_BELOW, 10**399 + 1, 2**127 - 1):
        with pytest.raises(InputError, match="must be below"):
            require_prime(p)
