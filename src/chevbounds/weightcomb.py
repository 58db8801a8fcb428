"""Size invariants of weights and weight multisets.

Everything here is exact: logarithm ceilings and floors are computed by
integer power comparison, never by floating point, and rational quantities
are fractions.Fraction values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import gcd
from typing import Mapping, Union

from .errors import InputError, OracleError
from .rootsys import Coords, RootSystem, Weight, WeightLike


def ceil_log(p: int, x: Union[int, Q]) -> int:
    """Smallest t >= 0 with p**t >= x, for x >= 1, by power comparison."""
    if p < 2:
        raise InputError(f"base must be at least 2, got {p}")
    if x < 1:
        raise InputError(f"ceil_log needs x >= 1, got {x}")
    t = 0
    power = 1
    while power < x:
        power *= p
        t += 1
    return t


def floor_log(p: int, x: Union[int, Q]) -> int:
    """Largest t >= 0 with p**t <= x, for x >= 1, by power comparison."""
    if p < 2:
        raise InputError(f"base must be at least 2, got {p}")
    if x < 1:
        raise InputError(f"floor_log needs x >= 1, got {x}")
    t = 0
    power = p
    while power <= x:
        power *= p
        t += 1
    return t


def t_invariant(b: int, p: int) -> int:
    """Digit length of b in base p: smallest t with b < p**t."""
    if b < 0:
        raise InputError(f"t_invariant needs b >= 0, got {b}")
    return ceil_log(p, b + 1)


def p_adic_digits(n: int, p: int) -> tuple[int, ...]:
    """Base-p digits of n, least significant first; empty for n == 0."""
    if n < 0:
        raise InputError(f"p_adic_digits needs n >= 0, got {n}")
    if p < 2:
        raise InputError(f"base must be at least 2, got {p}")
    digits = []
    while n:
        n, r = divmod(n, p)
        digits.append(r)
    return tuple(digits)


def pair_with_coroot(rs: RootSystem, w: WeightLike, alpha: WeightLike) -> int:
    """<w, alpha-vee> for any root alpha, given in omega coordinates."""
    coords = rs.coords_of(w)
    target = rs.coords_of(alpha)
    for root in rs.positive_roots:
        if root.omega_coords == target:
            return rs.pairing(coords, root.coroot_pairing)
        if tuple(-x for x in root.omega_coords) == target:
            return -rs.pairing(coords, root.coroot_pairing)
    raise InputError(f"{target} is not a root of {rs.name}")


@dataclass(frozen=True)
class BInvariant:
    """Largest coroot pairing against any long root.

    value: max over weights sigma and long roots beta of <sigma, beta-vee>.
    via_highest_root: max over weights of <sigma, highest-root-vee> only.
    agree: whether the two maxima coincide (always true for Weyl-stable sets).
    """

    value: int
    via_highest_root: int
    agree: bool


def _entry_items(weights) -> list[tuple[Coords, int]]:
    """Normalize multiset-ish input to a list of (coords, multiplicity)."""
    if hasattr(weights, "coords_items"):
        return list(weights.coords_items())
    if isinstance(weights, Mapping):
        out = []
        for k, v in weights.items():
            out.append((k.coords if isinstance(k, Weight) else tuple(k), int(v)))
        return out
    out = []
    for w in weights:
        out.append((w.coords if isinstance(w, Weight) else tuple(w), 1))
    return out


def b_invariant(rs: RootSystem, weights) -> BInvariant:
    """Both variants of the largest long-root coroot pairing over a multiset.

    The long roots form a single Weyl orbit, so for one weight sigma the
    maximum over all long roots equals <dom(sigma), highest-root-vee>; that
    identity gives the exact value without enumerating the orbit.  A W-stable
    multiset (one with `dominant` entries set, such as a Weyl character)
    attains both maxima at a dominant weight, so only those are scanned.
    """
    dominant = getattr(weights, "dominant", None)
    items = dominant or _entry_items(weights)
    if not items:
        raise InputError("b_invariant needs a non-empty weight multiset")
    plain = max(rs.pairing(coords) for coords, _ in items)
    if dominant:
        return BInvariant(value=plain, via_highest_root=plain, agree=True)
    full = max(rs.pairing(rs.dominant_representative(coords)) for coords, _ in items)
    return BInvariant(value=full, via_highest_root=plain, agree=full == plain)


def b_of_weight(rs: RootSystem, coords: Coords) -> int:
    """Largest long-root coroot pairing of a single weight."""
    return rs.pairing(rs.dominant_representative(coords))


# Family-level constants (c, t): largest simple-root coefficient of the
# highest root, and the published exponent convention for X(T)/Z-span(roots).
# The D rows use t=2 for every rank.
_STRUCTURAL_T = {"A": None, "B": 2, "C": 2, "D": 2, "E6": 3, "E7": 2, "E8": 1, "F": 1, "G": 1}


def structural_constants(rs: RootSystem) -> tuple[int, int]:
    """The pair (c, t) used by the comparison thresholds."""
    c = max(
        rc
        for root in rs.positive_roots
        if root.omega_coords == rs.highest_root.coords
        for rc in root.root_coords
    )
    if rs.family == "A":
        t = rs.rank + 1
    elif rs.family == "E":
        t = _STRUCTURAL_T[f"E{rs.rank}"]
    else:
        t = _STRUCTURAL_T[rs.family]
    return c, t


def order_in_fundamental_group(rs: RootSystem, w: WeightLike) -> int:
    """Order of the image of w in X(T) modulo the root lattice."""
    coords = rs.coords_of(w)
    scaled = rs.root_basis_scaled(coords)
    det = rs.cartan_det
    g = det
    for x in scaled:
        g = gcd(g, x % det)
    return det // g


def _p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


@dataclass(frozen=True)
class LambdaStats:
    """Per-weight constants entering the comparison thresholds."""

    c_lambda: Q
    d_lambda: int
    t_p_lambda: int
    order_in_fundamental_group: int


def _d_from_root_coords(rs: RootSystem, rc: tuple[Q, ...]) -> Q:
    """Case formula for d(lambda) from root-basis coordinates."""
    fam, n = rs.family, rs.rank
    if fam == "A":
        return 2 * rc[0] if n == 1 else rc[0] + rc[n - 1]
    if fam in ("C", "F") or (fam, n) == ("E", 7):
        return rc[0]
    if fam in ("B", "D", "G") or (fam, n) == ("E", 6):
        return rc[1]
    if (fam, n) == ("E", 8):
        # The highest root is the 8th fundamental weight.
        return rc[7]
    raise OracleError(f"no d(lambda) case for {rs.name}")


def lambda_stats(rs: RootSystem, w: WeightLike, p: int) -> LambdaStats:
    """c, d, t_p and fundamental-group order for a dominant weight."""
    coords = rs.coords_of(w)
    if any(c < 0 for c in coords):
        raise InputError("lambda_stats needs a dominant weight")
    if p < 2:
        raise InputError(f"p must be at least 2, got {p}")
    rc = rs.root_basis_coords(Weight(coords))
    c_lambda = max(rc) if rc else Q(0)
    d_pairing = rs.pairing(coords)
    d_case = _d_from_root_coords(rs, rc)
    if d_case != d_pairing:
        raise OracleError(
            f"d(lambda) case formula {d_case} disagrees with pairing {d_pairing}"
        )
    order = order_in_fundamental_group(rs, coords)
    return LambdaStats(
        c_lambda=c_lambda,
        d_lambda=d_pairing,
        t_p_lambda=_p_part(order, p),
        order_in_fundamental_group=order,
    )
