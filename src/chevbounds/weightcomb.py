"""Size invariants of weights and weight multisets.

Everything here is exact: logarithm ceilings and floors are computed by
integer power comparison, never by floating point, and rational quantities
are fractions.Fraction values.
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import Union

from .errors import InputError, Record, _shown, require_int
from .modchar import WeightMultiset, _class_order
from .rootsys import RootSystem, WeightLike


def ceil_log(p: int, x: Union[int, Q]) -> int:
    """Smallest t >= 0 with p**t >= x, for an int or Fraction x >= 1, by power comparison.

    A Fraction x is first replaced by its ceiling: p**t is an integer, so
    p**t >= x holds exactly when p**t >= ceil(x).  The loop then compares ints.
    """
    require_int(p, "base p", 2)
    if type(x) is Q and x.numerator >= x.denominator:
        x = -(-x.numerator // x.denominator)
    if type(x) is not int or x < 1:
        raise InputError(f"ceil_log needs an int or Fraction x >= 1, got {_shown(x)}")
    t = 0
    power = 1
    while power < x:
        power *= p
        t += 1
    return t


def floor_log(p: int, x: Union[int, Q]) -> int:
    """Largest t >= 0 with p**t <= x, for an int or Fraction x >= 1, by power comparison."""
    require_int(p, "base p", 2)
    # The integer p**t is <= x exactly when it is <= floor(x); floor(x) >= 1 exactly when x >= 1.
    n = x.numerator // x.denominator if type(x) is Q else x
    if type(n) is not int or n < 1:
        raise InputError(f"floor_log needs an int or Fraction x >= 1, got {_shown(x)}")
    return ceil_log(p, n + 1) - 1


def t_invariant(b: int, p: int) -> int:
    """Digit length of b in base p: smallest t with b < p**t."""
    return ceil_log(p, require_int(b, "b", 0) + 1)


def p_adic_digits(n: int, p: int) -> tuple[int, ...]:
    """Base-p digits of n, least significant first; empty for n == 0."""
    require_int(n, "n", 0)
    require_int(p, "base p", 2)
    digits = []
    while n:
        n, r = divmod(n, p)
        digits.append(r)
    return tuple(digits)


class BInvariant(Record):
    """Largest coroot pairing against any long root.

    value: max over weights sigma and long roots beta of <sigma, beta-vee>.
    """

    value: int


def b_invariant(rs: RootSystem, weights: WeightMultiset) -> BInvariant:
    """The largest long-root coroot pairing over a multiset.

    The long roots form a single Weyl orbit, so for one weight sigma the
    maximum over all long roots equals <dom(sigma), highest-root-vee>; that
    identity gives the exact value without enumerating the orbit.  A Weyl
    character attains the maximum at its highest weight, which is read alone.
    The value is the b of `weights.summary`, read once per multiset.
    A multiset of another root system raises InputError.
    """
    return BInvariant(_module_b(rs, weights))


def _module_b(rs: RootSystem, weights: WeightMultiset) -> int:
    """The value of `b_invariant(rs, weights)`, after the same checks, without the record."""
    weights.check_system(rs)
    if weights.is_empty():
        raise InputError("b_invariant needs a non-empty weight multiset")
    return weights.summary[0]


def b_of_weight(rs: RootSystem, w: WeightLike) -> int:
    """Largest long-root coroot pairing of a single weight."""
    return rs.pairing(rs.dominant_representative(rs.coords_of(w)))


# Family-level constants (c, t): largest simple-root coefficient of the
# highest root, and the published exponent convention for X(T)/Z-span(roots).
# The D rows use t=2 for every rank.
_STRUCTURAL_T = {"A": None, "B": 2, "C": 2, "D": 2, "E6": 3, "E7": 2, "E8": 1, "F": 1, "G": 1}


def structural_constants(rs: RootSystem) -> tuple[int, int]:
    """The pair (c, t) used by the comparison thresholds."""
    c = max(rs.positive_roots[-1].root_coords)  # the highest root comes last
    if rs.family == "A":
        t = rs.rank + 1
    elif rs.family == "E":
        t = _STRUCTURAL_T[f"E{rs.rank}"]
    else:
        t = _STRUCTURAL_T[rs.family]
    return c, t


def order_in_fundamental_group(rs: RootSystem, w: WeightLike) -> int:
    """Order of the image of w in X(T) modulo the root lattice."""
    return _class_order(rs.root_basis_scaled(rs.coords_of(w)), rs.cartan_det)


def _p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out
