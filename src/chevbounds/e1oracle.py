"""Brute-force oracle for the twist-invariant part of the first page.

For a Frobenius kernel of height s+f with coefficient weight lam + p^s * mu,
the first page in total degree m is a direct sum of twisted symmetric and
exterior powers of the dual nilradical, indexed by exponent tuples.  The
invariant part keeps exactly the summand weights that are divisible by
p^(s+f) in every fundamental-weight coordinate; the quotients gamma are what
the closed-form bounds constrain.  This module enumerates all of it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from typing import Iterator, Optional, Union

from .bounds import bs_vanish_threshold, bs_vanish_variants
from .errors import InputError, ResourceLimitError
from .modchar import (
    DEFAULT_ENTRY_CAP,
    WeightMultiset,
    _twisted_product,
    graded_power,
    nilradical_dual_weights,
)
from .primes import require_prime
from .rootsys import Coords, RootSystem, Weight, build_root_system
from .weightcomb import b_invariant, b_of_weight, p_adic_digits, t_invariant

DEFAULT_LEVELS_CAP = 4
DEFAULT_DEGREE_CAP = 8


@dataclass(frozen=True)
class ExponentTuple:
    """Exponents of one first-page summand, with its (i, j) bidegree.

    For odd p both a and b are indexed 0..levels with a[0] = 0 and
    b[levels] = 0; the n-th symmetric and exterior factors are twisted n
    times.  For p = 2 there is no exterior part (b is None), a[0] = 0 is
    unused, and the n-th symmetric factor is twisted n - 1 times.
    """

    p: int
    a: tuple[int, ...]
    b: Optional[tuple[int, ...]]
    bidegree: tuple[int, int]

    @property
    def total_degree(self) -> int:
        return self.bidegree[0] + self.bidegree[1]


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` non-negative integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def enumerate_tuples(
    p: int,
    levels: int,
    m: int,
    levels_cap: int = DEFAULT_LEVELS_CAP,
    degree_cap: int = DEFAULT_DEGREE_CAP,
) -> tuple[ExponentTuple, ...]:
    """All exponent tuples of total degree m, in lexicographic order."""
    require_prime(p)
    if levels < 1:
        raise InputError(f"levels must be at least 1, got {levels}")
    if m < 0:
        raise InputError(f"total degree must be non-negative, got {m}")
    if levels > levels_cap:
        raise ResourceLimitError(
            f"levels {levels} above cap {levels_cap}; raise levels_cap to allow"
        )
    if m > degree_cap:
        raise ResourceLimitError(
            f"degree {m} above cap {degree_cap}; raise degree_cap to allow"
        )
    found = []
    if p == 2:
        for comp in _compositions(m, levels):
            a = (0,) + comp
            i = sum(a[n] * 2 ** (n - 1) for n in range(1, levels + 1))
            found.append(ExponentTuple(p=2, a=a, b=None, bidegree=(i, m - i)))
    else:
        for sym_total in range(m // 2 + 1):
            for a_tail in _compositions(sym_total, levels):
                a = (0,) + a_tail
                for b_head in _compositions(m - 2 * sym_total, levels):
                    b = b_head + (0,)
                    i = sum(a[n] * p**n for n in range(1, levels + 1)) + sum(
                        b[n] * p**n for n in range(levels)
                    )
                    found.append(
                        ExponentTuple(p=p, a=a, b=b, bidegree=(i, m - i))
                    )
    found.sort(key=lambda et: (et.a, et.b if et.b is not None else ()))
    return tuple(found)


@lru_cache(maxsize=None)
def _nilradical_power(
    family: str, rank: int, kind: str, degree: int, cap: int
) -> tuple[tuple[Coords, int], ...]:
    rs = build_root_system(family, rank)
    power = graded_power(kind, nilradical_dual_weights(rs), degree, cap)
    return power.items


@lru_cache(maxsize=None)
def _degree_weights(
    family: str,
    rank: int,
    p: int,
    levels: int,
    m: int,
    levels_cap: int,
    degree_cap: int,
    cap: int,
) -> dict[Coords, tuple[tuple[Coords, int], ...]]:
    """Summand weights of the full degree-m page, grouped by residue mod p^levels.

    lambda, mu and the split of levels into s + f only shift these weights
    and pick one residue class, so every such page shares this table.
    """
    rs = build_root_system(family, rank)
    n_pos = len(rs.positive_roots)
    zero = (0,) * rank
    total: dict[Coords, int] = {}
    for et in enumerate_tuples(p, levels, m, levels_cap, degree_cap):
        factors: list[tuple[tuple[tuple[Coords, int], ...], int]] = []
        empty = False
        if p == 2:
            for n in range(1, levels + 1):
                if et.a[n]:
                    factors.append(
                        (_nilradical_power(family, rank, "sym", et.a[n], cap), n - 1)
                    )
        else:
            for n in range(levels + 1):
                if et.a[n]:
                    factors.append(
                        (_nilradical_power(family, rank, "sym", et.a[n], cap), n)
                    )
                if et.b[n]:
                    if et.b[n] > n_pos:
                        empty = True
                        break
                    factors.append(
                        (_nilradical_power(family, rank, "ext", et.b[n], cap), n)
                    )
        if empty:
            continue
        prod: dict[Coords, int] = {zero: 1}
        for items, twist in factors:
            prod = _twisted_product(prod.items(), items, p**twist, cap, "page product")
        for w, mult in prod.items():
            total[w] = total.get(w, 0) + mult
    q = p**levels
    buckets: dict[Coords, list[tuple[Coords, int]]] = {}
    for w, mult in total.items():
        buckets.setdefault(tuple(c % q for c in w), []).append((w, mult))
    return {key: tuple(entries) for key, entries in buckets.items()}


@dataclass(frozen=True)
class InvariantPage:
    """The twist-invariant first page in one total degree."""

    system: RootSystem
    p: int
    s: int
    f: int
    m: int
    lam: Weight
    mu_set: WeightMultiset
    gammas: WeightMultiset


def exact_bound_value(rs: RootSystem, p: int, s: int, m: int, lam: Weight) -> int:
    """The sharp upper bound on b(gamma) for a dominant nonzero lam."""
    d = rs.pairing(lam)
    if d < 1 or not lam.is_dominant():
        raise InputError("exact bound needs lambda dominant and nonzero")
    return _exact_bound(p, s, m, d, t_invariant(d, p))


def _exact_bound(p: int, s: int, m: int, d: int, t: int) -> int:
    """The exact bound for <lambda, theta-vee> = d >= 1 with t = t(d)."""
    if p == 2:
        return m - (s - t)
    top = p_adic_digits(d, p)[-1]
    return min(m - (s - t + 1) * (p - 2) + top, m - (s - t) * (p - 2))


def invariant_page(
    rs: RootSystem,
    p: int,
    s: int,
    f: int,
    lam: Weight,
    mu_set: WeightMultiset,
    m: int,
    levels_cap: int = DEFAULT_LEVELS_CAP,
    degree_cap: int = DEFAULT_DEGREE_CAP,
    cap: int = DEFAULT_ENTRY_CAP,
) -> InvariantPage:
    """Compute the invariant first page for coefficient lam + p^s * mu."""
    require_prime(p)
    if s < 0 or f < 0 or s + f < 1:
        raise InputError("need s, f >= 0 with s + f >= 1")
    if m < 0:
        raise InputError(f"total degree must be non-negative, got {m}")
    if len(lam.coords) != rs.rank:
        raise InputError(f"lambda has wrong rank for {rs.name}")
    if mu_set.is_empty():
        raise InputError("mu_set must be non-empty; use the trivial multiset")
    levels = s + f
    q = p**levels
    buckets = _degree_weights(
        rs.family, rs.rank, p, levels, m, levels_cap, degree_cap, cap
    )
    gathered: dict[Coords, int] = {}
    for u, mult_u in mu_set.items:
        v = tuple(a + p**s * b for a, b in zip(lam.coords, u))
        for w, mult in buckets.get(tuple((-c) % q for c in v), ()):
            gamma = tuple((a + b) // q for a, b in zip(v, w))
            gathered[gamma] = gathered.get(gamma, 0) + mult * mult_u
    return InvariantPage(
        system=rs,
        p=p,
        s=s,
        f=f,
        m=m,
        lam=lam,
        mu_set=mu_set,
        gammas=WeightMultiset.from_dict(gathered),
    )


@dataclass(frozen=True)
class BoundCheckReport:
    """Outcome of checking every page weight against one bound."""

    which: str
    passed: bool
    bound: Union[int, Q]
    details: tuple[tuple[Coords, int, bool], ...]  # (gamma, b(gamma), within)
    equality_hits: tuple[Coords, ...]
    equality_consistent: bool
    t_lambda: Optional[int]
    t_mu: int


def exact_bound_failure(page: InvariantPage) -> Optional[str]:
    """Why the exact bound does not apply to the page, or None when it does.

    It needs lambda dominant and nonzero, s >= t(lambda) and f >= t(mu_set).
    """
    t_mu = t_invariant(b_invariant(page.system, page.mu_set).value, page.p)
    return _exact_failure(page, t_mu)[0]


def _exact_failure(page: InvariantPage, t_mu: int) -> tuple[Optional[str], Optional[int]]:
    """The exact bound's failed hypothesis or None, and t(lambda) if it is defined."""
    lam = page.lam
    if not lam.is_dominant() or lam.is_zero():
        return "exact bound needs lambda dominant and nonzero", None
    t_lam = t_invariant(page.system.pairing(lam), page.p)
    if page.s < t_lam:
        return f"hypothesis s >= t(lambda) fails: s = {page.s}, t = {t_lam}", t_lam
    if page.f < t_mu:
        return f"hypothesis f >= t(mu_set) fails: f = {page.f}, t = {t_mu}", t_lam
    return None, t_lam


def check_weight_bounds(page: InvariantPage, which: str) -> BoundCheckReport:
    """Check page weights against the exact or the rough bound.

    The exact bound raises InputError with the reason from
    `exact_bound_failure` when its hypotheses fail, and reports as equality
    hits the page weights gamma with b(gamma) equal to the bound.  The rough
    bound applies unconditionally.
    """
    rs = page.system
    p = page.p
    b_mu = b_invariant(rs, page.mu_set).value
    t_mu = t_invariant(b_mu, p)
    if which == "exact":
        reason, t_lam = _exact_failure(page, t_mu)
        if reason is not None:
            raise InputError(reason)
        bound = _exact_bound(p, page.s, page.m, rs.pairing(page.lam), t_lam)
    elif which == "rough":
        q = p ** (page.s + page.f)
        bound = Q(p**page.s * b_mu + b_of_weight(rs, page.lam.coords) + page.m * q, q)
        t_lam = None
    else:
        raise InputError(f"unknown check {which!r}; expected 'exact' or 'rough'")
    details = []
    for coords, _ in page.gammas.coords_items():
        bg = b_of_weight(rs, coords)
        details.append((coords, bg, bg <= bound))
    hits = tuple(c for c, bg, _ in details if which == "exact" and bg == bound)
    equality_consistent = not hits or page.f == t_mu
    return BoundCheckReport(
        which=which,
        passed=all(within for _, _, within in details) and equality_consistent,
        bound=bound,
        details=tuple(details),
        equality_hits=hits,
        equality_consistent=equality_consistent,
        t_lambda=t_lam,
        t_mu=t_mu,
    )


@dataclass(frozen=True)
class VanishReport:
    """Threshold evaluation next to the page it predicts empty."""

    p: int
    s: int
    m: int
    lam: Weight
    d: int
    thresholds: tuple[tuple[str, Q], ...]
    met: bool
    page_empty: bool
    consistent: bool

    @property
    def theorems(self) -> tuple[str, ...]:
        """The P241 tag of each threshold, in the same order."""
        return tuple(f"P241{v}" for v, _ in self.thresholds)


def check_bs_vanishing(
    rs: RootSystem,
    p: int,
    lam: Weight,
    s: int,
    m: int,
    levels_cap: int = DEFAULT_LEVELS_CAP,
    degree_cap: int = DEFAULT_DEGREE_CAP,
    cap: int = DEFAULT_ENTRY_CAP,
    variant: Optional[str] = None,
) -> VanishReport:
    """One-directional consistency: threshold met implies an empty page.

    The thresholds are those of `bs_vanish_variants(p, variant)`.
    """
    if s < 1:
        raise InputError(f"kernel height s must be at least 1, got {s}")
    d = rs.pairing(lam)
    if d < 1:
        raise InputError(
            "vanishing thresholds need a positive highest-coroot pairing"
        )
    thresholds = tuple(
        (v, bs_vanish_threshold(d, p, m, v)) for v in bs_vanish_variants(p, variant)
    )
    met = any(s >= value for _, value in thresholds)
    page = invariant_page(
        rs,
        p,
        s,
        0,
        lam,
        WeightMultiset.trivial(rs),
        m,
        levels_cap,
        degree_cap,
        cap,
    )
    empty = page.gammas.is_empty()
    return VanishReport(
        p=p,
        s=s,
        m=m,
        lam=lam,
        d=d,
        thresholds=thresholds,
        met=met,
        page_empty=empty,
        consistent=(not met) or empty,
    )


def dyadic_sharpness(s: int, f: int) -> bool:
    """Whether (2^(s+f) - 1) * 2^(s+f-1) has exactly s+f binary ones."""
    if s < 0 or f < 0 or s + f < 1:
        raise InputError("need s, f >= 0 with s + f >= 1")
    k = s + f
    value = (2**k - 1) << (k - 1)
    return bin(value).count("1") == k
