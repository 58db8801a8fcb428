"""Brute-force oracle for the twist-invariant part of the first page.

For a Frobenius kernel of height s+f with coefficient weight lam + p^s * mu,
the first page in total degree m is a direct sum of twisted symmetric and
exterior powers of the dual nilradical, indexed by exponent tuples.  The
invariant part keeps exactly the summand weights that are divisible by
p^(s+f) in every fundamental-weight coordinate; the quotients gamma are what
the closed-form bounds constrain.  Divisibility is decided one p-adic digit
at a time, by carries through the twist levels, so only the residue class
that lam + p^s * mu selects is ever built.  Everything is exact.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import lru_cache
from itertools import product
from operator import add, mul
from typing import Iterator, Optional, Union

from .bounds import _p_minus_2, bs_vanish_threshold, bs_vanish_variants
from .errors import InputError, Record, _check_cap, require_int
from .modchar import DEFAULT_ENTRY_CAP, WeightMultiset, _degree_fold, _scale_coords
from .primes import require_prime
from .rootsys import Coords, RootSystem, Weight, WeightLike
from .weightcomb import b_invariant, b_of_weight, p_adic_digits, t_invariant

# The page shapes this oracle builds: s + f levels and total degree m.
MAX_LEVELS = 4
MAX_DEGREE = 8


class ExponentTuple(Record):
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


def _check_page_shape(levels: int, m: int) -> None:
    """Refuse a page outside 1 <= s + f <= MAX_LEVELS and 0 <= m <= MAX_DEGREE."""
    require_int(levels, "page levels s + f", 1, MAX_LEVELS)
    require_int(m, "page degree m", 0, MAX_DEGREE)


# The (a, b) with S^a (x) Lambda^b of the dual nilradical in each level of
# degree d.  For odd p a level has degree 2a + b, the bottom level has no
# symmetric part and the top level no exterior part; for p = 2 every level
# is S^a in degree a.
_LEVEL_SHAPES = {
    "bottom": lambda d: ((0, d),),
    "middle": lambda d: tuple((a, d - 2 * a) for a in range(d // 2 + 1)),
    "top": lambda d: ((d // 2, 0),) if d % 2 == 0 else (),
    "sym": lambda d: ((d, 0),),
}


def _level_kinds(p: int, levels: int) -> tuple[str, ...]:
    """The kind of each page level, untwisted first; level n is twisted p^n."""
    if p == 2:
        return ("sym",) * levels
    return ("bottom",) + ("middle",) * (levels - 1) + ("top",)


def enumerate_tuples(p: int, levels: int, m: int) -> tuple[ExponentTuple, ...]:
    """All exponent tuples of total degree m, in lexicographic order."""
    require_prime(p)
    _check_page_shape(levels, m)
    kinds = _level_kinds(p, levels)
    found = []
    for comp in _compositions(m, len(kinds)):
        shapes = [_LEVEL_SHAPES[kind](d) for kind, d in zip(kinds, comp)]
        for ab in product(*shapes):
            i = sum((a + b) * p**n for n, (a, b) in enumerate(ab))
            a = tuple(a for a, _ in ab)
            if p == 2:
                a, b = (0,) + a, None
            else:
                b = tuple(b for _, b in ab)
            found.append(ExponentTuple(p=p, a=a, b=b, bidegree=(i, m - i)))
    found.sort(key=lambda et: (et.a, et.b if et.b is not None else ()))
    return tuple(found)


# One page level grouped by residue: {residue: (entries of degree 0, ..., m)}.
Level = dict[Coords, tuple[tuple[tuple[Coords, int], ...], ...]]


@lru_cache(maxsize=256)
def _page_level(rs: RootSystem, p: int, m: int, cap: int, kind: str) -> tuple[int, Level]:
    """One untwisted page level in degrees 0..m and the modulus it is grouped by.

    The dual nilradical is one line L per positive root alpha, and
    S^a(L) (x) Lambda^b(L) is (a + b) alpha when b <= 1 and zero otherwise.
    The (a, b) a level allows add up over the roots, so the level is a
    product of one factor per root, read off the same shape table.  The carry
    pass divides by the modulus: p for a filtered level, and 1 for the top
    level, which it does not filter.
    """
    shape = [(d, a + b) for d in range(1, m + 1) for a, b in _LEVEL_SHAPES[kind](d) if b < 2]
    factors = (
        [(d, _scale_coords(root.omega_coords, k), 1) for d, k in shape]
        for root in rs.positive_roots
    )
    modulus = 1 if kind == "top" else p
    grouped: dict[Coords, list[list[tuple[Coords, int]]]] = {}
    for d, table in enumerate(_degree_fold((0,) * rs.rank, factors, m, cap, "page level")):
        for w, mult in table.items():
            rows = grouped.setdefault(
                tuple(c % modulus for c in w), [[] for _ in range(m + 1)]
            )
            rows[d].append((w, mult))
    return modulus, {key: tuple(map(tuple, rows)) for key, rows in grouped.items()}


@lru_cache(maxsize=4096)
def _carry_class(
    rs: RootSystem, p: int, levels: int, m: int, cap: int, r: Coords
) -> tuple[tuple[Coords, int], ...]:
    """The carries (w - r) / p^levels of the degree-m page's weights w = r (mod p^levels).

    A summand weight is sum_n p^n w_n over its levels.  Starting from the
    carry -r, a filtered level keeps only the w_n with carry + w_n = 0 (mod p)
    and carries (carry + w_n) / p; after the filtered levels the carry is
    (w - r) / p^levels.  For odd p the top level, twisted p^levels, adds its
    weights unfiltered; for p = 2 the levels are twisted 0 .. levels - 1 and
    all of them are filtered.  The last level takes the degree still missing.
    A level is built only when some carry state reaches it.  lambda, mu and
    the split of levels into s + f only shift a page by one weight and pick
    one residue class r in [0, p^levels), so every such page shares its class.
    """
    states: dict[tuple[Coords, int], int] = {(tuple([-c for c in r]), 0): 1}
    kinds = _level_kinds(p, levels)
    last = len(kinds) - 1
    for n, kind in enumerate(kinds):
        div, level = _page_level(rs, p, m, cap, kind)
        nxt: dict[tuple[Coords, int], int] = {}
        for (carry, used), mult in states.items():
            rows = level.get(tuple([-c % div for c in carry]))
            if rows is None:
                continue
            for d in (m - used,) if n == last else range(m - used + 1):
                for w, mult_w in rows[d]:
                    key = (tuple([(c + x) // div for c, x in zip(carry, w)]), used + d)
                    nxt[key] = nxt.get(key, 0) + mult * mult_w
            _check_cap("page carry", len(nxt), cap, "carry states")
        if not nxt:
            return ()
        states = nxt
    return tuple((gamma, mult) for (gamma, _), mult in states.items())


class InvariantPage(Record):
    """The twist-invariant first page in one total degree."""

    system: RootSystem
    p: int
    s: int
    f: int
    m: int
    lam: Weight
    mu_set: WeightMultiset
    gammas: WeightMultiset


def _exact_bound(p: int, s: int, m: int, d: int, t: int) -> int:
    """The exact bound for <lambda, theta-vee> = d >= 1 with t = t(d)."""
    # At p = 2, c = 1 and d's leading binary digit is 1: both terms are m - (s - t).
    c = _p_minus_2(p)
    top = p_adic_digits(d, p)[-1]
    return min(m - (s - t + 1) * c + top, m - (s - t) * c)


def invariant_page(
    rs: RootSystem,
    p: int,
    s: int,
    f: int,
    lam: WeightLike,
    mu_set: WeightMultiset,
    m: int,
    cap: int = DEFAULT_ENTRY_CAP,
) -> InvariantPage:
    """Compute the invariant first page for coefficient lam + p^s * mu, mu in mu_set.

    mu_set must be a non-empty weight multiset of rs.
    """
    require_prime(p)
    require_int(s, "s", 0)
    require_int(f, "f", 0)
    require_int(cap, "cap", 1)
    levels = s + f
    _check_page_shape(levels, m)
    lam = Weight.of(lam)
    lam_coords = rs.coords_of(lam)
    mu_set.check_system(rs)
    if mu_set.is_empty():
        raise InputError("mu_set must be non-empty; use the trivial multiset")
    q = p**levels
    ps = p**s
    gathered: dict[Coords, int] = {}
    for u, mult_u in mu_set.items:
        # v = lam + p^s u; a weight w of the class r = -v (mod q) is
        # q * gamma0 + r, and (v + w) / q = gamma0 + ceil(v / q).
        shift = [-((-a - ps * b) // q) for a, b in zip(lam_coords, u)]
        r = tuple([q * c - a - ps * b for c, a, b in zip(shift, lam_coords, u)])
        for gamma0, mult in _carry_class(rs, p, levels, m, cap, r):
            gamma = tuple(map(add, gamma0, shift))
            gathered[gamma] = gathered.get(gamma, 0) + mult * mult_u
    # Keys are coordinate tuples and counts are positive by construction.
    return InvariantPage(
        system=rs,
        p=p,
        s=s,
        f=f,
        m=m,
        lam=lam,
        mu_set=mu_set,
        gammas=WeightMultiset(rs, tuple(sorted(gathered.items()))),
    )


class BoundCheckReport(Record):
    """Outcome of checking every page weight against one bound."""

    passed: bool
    bound: Union[int, Q]
    equality_hits: tuple[Coords, ...]
    equality_consistent: bool


def exact_bound_failure(page: InvariantPage) -> Optional[str]:
    """Why the exact bound does not apply to the page, or None when it does.

    It needs lambda dominant and nonzero, s >= t(lambda) and f >= t(mu_set).
    """
    lam = page.lam
    if not lam.is_dominant() or lam.is_zero():
        return "exact bound needs lambda dominant and nonzero"
    t_lam = t_invariant(page.system.pairing(lam), page.p)
    if page.s < t_lam:
        return f"hypothesis s >= t(lambda) fails: s = {page.s}, t = {t_lam}"
    t_mu = t_invariant(b_invariant(page.system, page.mu_set).value, page.p)
    if page.f < t_mu:
        return f"hypothesis f >= t(mu_set) fails: f = {page.f}, t = {t_mu}"
    return None


def check_weight_bounds(page: InvariantPage, which: str) -> BoundCheckReport:
    """Check page weights against the exact or the rough bound.

    The exact bound raises InputError with the reason from
    `exact_bound_failure` when its hypotheses fail, and reports as equality
    hits the page weights gamma with b(gamma) equal to the bound.  The rough
    bound applies unconditionally.
    """
    rs = page.system
    p = page.p
    if which == "exact":
        reason = exact_bound_failure(page)
        if reason is not None:
            raise InputError(reason)
        d = rs.pairing(page.lam)
        bound = num = _exact_bound(p, page.s, page.m, d, t_invariant(d, p))
        den = 1
    elif which == "rough":
        den = p ** (page.s + page.f)
        b_mu = b_invariant(rs, page.mu_set).value
        num = p**page.s * b_mu + b_of_weight(rs, page.lam) + page.m * den
        bound = Q(num, den)
    else:
        raise InputError(f"unknown check {which!r}; expected 'exact' or 'rough'")
    hrp = rs.highest_root_pairing
    dominant = rs.dominant_representative
    items = page.gammas.items
    bs = [sum(map(mul, hrp, dominant(coords))) for coords, _ in items]
    hits: tuple[Coords, ...] = ()
    if which == "exact":
        hits = tuple(coords for (coords, _), bg in zip(items, bs) if bg == bound)
    consistent = not hits or page.f == t_invariant(b_invariant(rs, page.mu_set).value, p)
    return BoundCheckReport(
        # b(gamma) <= bound as b * den <= num, in integers.
        passed=consistent and all(bg * den <= num for bg in bs),
        bound=bound,
        equality_hits=hits,
        equality_consistent=consistent,
    )


def bs_vanishing_failure(rs: RootSystem, lam: WeightLike, s: int, f: int) -> Optional[str]:
    """Why the P241 vanishing check does not apply, or None when it does.

    It needs f = 0, s >= 1 and a positive highest-coroot pairing of lambda.
    A lambda that is not a weight of rs, or an s or f that is not an int
    >= 0, raises InputError.
    """
    coords = rs.coords_of(lam)
    require_int(s, "s", 0)
    require_int(f, "f", 0)
    if f != 0:
        return f"vanishing check needs f = 0, got f = {f}"
    if s < 1:
        return f"kernel height s must be at least 1, got {s}"
    if rs.pairing(coords) < 1:
        return "vanishing thresholds need a positive highest-coroot pairing"
    return None


class VanishReport(Record):
    """Threshold evaluation next to the page it predicts empty."""

    lam: Weight
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
    lam: WeightLike,
    s: int,
    m: int,
    cap: int = DEFAULT_ENTRY_CAP,
    variant: Optional[str] = None,
) -> VanishReport:
    """One-directional consistency: threshold met implies an empty page.

    The thresholds are those of `bs_vanish_variants(p, variant)`.  Raises
    InputError with the reason from `bs_vanishing_failure` when the check
    does not apply.  The page is the f = 0, trivial-mu page of
    `invariant_page`, but no page is built: it is empty exactly when the one
    residue class it reads, -lambda mod p^s, is empty, and that class comes
    from the `_carry_class` cache after the same checks of cap, s and m.
    """
    reason = bs_vanishing_failure(rs, lam, s, 0)
    if reason is not None:
        raise InputError(reason)
    lam = Weight.of(lam)
    d = rs.pairing(lam)
    thresholds = tuple(
        (v, bs_vanish_threshold(d, p, m, v)) for v in bs_vanish_variants(p, variant)
    )
    met = any(s >= value for _, value in thresholds)
    require_int(cap, "cap", 1)
    _check_page_shape(s, m)
    q = p**s
    empty = not _carry_class(rs, p, s, m, cap, tuple([-c % q for c in lam.coords]))
    return VanishReport(
        lam=lam,
        thresholds=thresholds,
        met=met,
        page_empty=empty,
        consistent=(not met) or empty,
    )


class E1Report(Record):
    """The checks of one page: each report, or the reason its check does not apply."""

    rough: BoundCheckReport
    exact: Union[BoundCheckReport, str]
    vanish: Union[VanishReport, str]
    failed: bool


def verify_e1(
    page: InvariantPage, cap: int = DEFAULT_ENTRY_CAP, variant: Optional[str] = None
) -> E1Report:
    """Run each check that applies to the page and decide whether a check fails.

    The exact and P241 checks hold the reason from `exact_bound_failure` or
    `bs_vanishing_failure` when they do not apply; a variant that does not
    apply at p is refused even then.  Pass the cap the page was built with.
    """
    rs, p, lam, s = page.system, page.p, page.lam, page.s
    bs_vanish_variants(p, variant)
    rough = check_weight_bounds(page, "rough")
    exact = exact_bound_failure(page) or check_weight_bounds(page, "exact")
    vanish = bs_vanishing_failure(rs, lam, s, page.f) or check_bs_vanishing(
        rs, p, lam, s, page.m, cap, variant
    )
    failed = not rough.passed
    failed |= not isinstance(exact, str) and not exact.passed
    failed |= not isinstance(vanish, str) and not vanish.consistent
    return E1Report(rough, exact, vanish, failed)


def dyadic_sharpness(s: int, f: int) -> bool:
    """Whether (2^(s+f) - 1) * 2^(s+f-1) has exactly s+f binary ones.

    In binary that number is k = s+f ones followed by k - 1 zeros, so this
    holds for every k >= 1; acceptance criterion 6 pins it as a regression check.
    """
    require_int(s, "s", 0)
    require_int(f, "f", 0)
    k = require_int(s + f, "s + f", 1)
    value = (2**k - 1) << (k - 1)
    return bin(value).count("1") == k
