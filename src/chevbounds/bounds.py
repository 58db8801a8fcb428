"""Closed-form vanishing, stability, and comparison thresholds.

Everything is exact.  The generic and comparison rules compute in integers,
on numerators and denominators, and build a Fraction only for a value a
report holds (e, s_min, e_delta and the echoed c_m); floors and ceilings of
base-p logarithms go through the integer power comparisons in weightcomb.
Reports carry a theorem tag from THEOREM_TAGS so output formats can name the
rule that produced each number.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import lru_cache
from math import floor
from types import MappingProxyType
from typing import Mapping, Union

from .errors import InputError, OracleError, Record, _check_cap, _shown, require_int
from .modchar import DEFAULT_ENTRY_CAP, WeightMultiset
from .primes import require_prime
from .rootsys import RootSystem
from .weightcomb import (
    b_invariant,
    ceil_log,
    floor_log,
    structural_constants,
    t_invariant,
    _p_part,
)

THEOREM_TAGS = (
    "P241a",
    "P241b",
    "P241c",
    "T511",
    "T521",
    "P621",
    "T711",
    "T811",
    "T821",
    "T831",
    "CPSVDK",
)


def _p_minus_2(p: int) -> int:
    """p - 2, read as 1 at p = 2, where the odd formula m/(p - 2) gives the clause m."""
    return p - 2 if p > 2 else 1


def _p241_terms(p: int, m: int, d: int, t: int) -> tuple[int, int, int]:
    """(c, first, second) for d >= 1 of t = t(d) base-p digits, the first of them top.

    c is p - 2, read as 1 at p = 2; first = m + t c and second = m + top + (t - 1) c
    are c times the 'a'/'b' and the 'c' P241 thresholds, and the exact E1 bound at
    twist s is min(first, second) - s c: each threshold is where its term less s c is 0.
    """
    c = _p_minus_2(p)
    return c, m + t * c, m + d // p ** (t - 1) + (t - 1) * c


@lru_cache(maxsize=1024, typed=True)
def bs_vanish_threshold(d: int, p: int, m: int, variant: str) -> Q:
    """Smallest admissible tower height s forcing degree-m vanishing.

    d is the pairing of the coefficient weight against the highest coroot and
    must be positive.  Variant 'a' is the p=2 clause, 'b' with p-2 read as 1;
    'b' and 'c' are the two odd-prime clauses.  'c' differs from 'b' by
    top/(p-2) - 1, top the leading base-p digit of d: it is at most 'b' unless
    top = p - 1, where it is 1/(p-2) larger (d = 2, p = 3 gives 'b' m + 1 and
    'c' m + 2).  Both are read off `_p241_terms`, as the exact bound is, so
    P241 is met exactly when the exact bound is <= 0.  A pure
    function of its arguments with an immutable result, so it is memoized;
    typed, so that d = 2.0 misses d = 2's entry and is refused.
    """
    require_int(d, "d", 1)
    require_int(m, "m", 0)
    if variant is None:
        raise InputError("a threshold needs one variant, got None")
    if variant not in bs_vanish_variants(p):
        raise InputError(f"variant {variant!r} does not apply at p={p}")
    c, first, second = _p241_terms(p, m, d, t_invariant(d, p))
    return Q(second if variant == "c" else first, c)


def bs_vanish_variants(p: int) -> tuple[str, ...]:
    """The threshold variants that apply at the prime p: 'a' at p = 2, 'b' and 'c' at odd p."""
    require_prime(p)
    return ("a",) if p == 2 else ("b", "c")


def g_ext_vanishing_holds(d: int, p: int, s: int, m: int) -> bool:
    """Whether s clears the transfer threshold for twisted Ext vanishing.

    Same thresholds as variants 'a'/'b' above; a zero coefficient pairing is
    excluded because the statement fails there.  The threshold checks d, p and m.
    """
    require_int(s, "s", 0)
    return s >= bs_vanish_threshold(d, p, m, bs_vanish_variants(p)[0])


class StabilityConstants(Record):
    """Twist thresholds for stable cohomology in a fixed degree."""

    c_stability: Q  # tag T511: twists s >= C give the stable value
    f_stability: Q  # tag T521: the stable-range function F(m)
    notes: tuple[str, ...]


def stability_constants(rs: RootSystem, p: int, m: int) -> StabilityConstants:
    require_prime(p)
    require_int(m, "m", 0)
    e = Q(m, _p_minus_2(p))
    c_val = e + ceil_log(p, 2 * (p - 1) * (rs.dual_coxeter_number - 1) + 1) - 1
    f_val = Q(0) if p != 2 and m <= 1 else e
    notes = [
        "T511: H^m(G_s, k)^(-s) is independent of the twist once s >= C",
        "T521: restriction H^m(G, V^(s)) -> H^m(G_s, V)^(-s) is injective for s >= F(m)",
        "good filtration case: s >= m suffices for the T521 conclusion at any prime",
    ]
    if p != 2 and p >= rs.coxeter_number - 1:
        notes.append(
            f"large prime case (p >= h-1 = {rs.coxeter_number - 1}): "
            "s >= m/(p-2) suffices for the T521 conclusion"
        )
    return StabilityConstants(c_stability=c_val, f_stability=f_val, notes=tuple(notes))


def lemma61(p: int, s: int, f: int, t: int, part: str) -> tuple[bool, bool]:
    """Evaluate one arithmetic implication tying s, f and the digit length t.

    Returns (hypothesis_holds, conclusion_holds) where the conclusion is
    s >= t.  The hypothesis p^(t-1) <= N / D, with D = p^(s+f) - 1 > 0, is
    decided exactly as p^(t-1) * D <= N.
    """
    require_int(s, "s", 1)
    require_int(f, "f", 1)
    require_int(t, "t", 1)
    if part not in ("a", "b", "c"):
        raise InputError(f"unknown part {part!r}; expected 'a', 'b' or 'c'")
    require_prime(p)
    if (part == "a") != (p == 2):
        raise InputError("part 'a' applies only to p = 2" if part == "a" else
                         "this clause needs an odd prime")
    total = s + f
    c = _p_minus_2(p)  # part 'a' is part 'b' with p - 2 read as 1
    if part == "c":
        num = p**total - p**s + p**total * (s * c - 1)
    else:
        num = p ** (total - 1) - p**s + p**total * s * c
    return (p ** (t - 1) * (p**total - 1) <= num, s >= t)


# The primes lemma61_scan runs over.
LEMMA61_PRIMES = (2, 3, 5, 7)


def lemma61_scan(
    max_value: int = 12, cap: int = DEFAULT_ENTRY_CAP
) -> list[tuple[int, int, int, int, str]]:
    """All (p, s, f, t, part) in the grid where the hypothesis holds but s < t.

    The grid has len(LEMMA61_PRIMES) * max_value**3 cells, max_value >= 1;
    above `cap` cells it is refused before the scan starts.  Only t > s can
    fail the conclusion, and the hypothesis p^(t-1) <= rhs only gets harder as
    t grows, since rhs does not depend on t.  So for each (p, s, f) the scan
    starts at t = s + 1 and stops at the first t where no part's hypothesis
    holds.
    """
    require_int(max_value, "max_value", 1)
    require_int(cap, "cap", 1)
    _check_cap("lemma61 scan", len(LEMMA61_PRIMES) * max_value**3, cap, "grid cells")
    bad = []
    for p in LEMMA61_PRIMES:
        parts = bs_vanish_variants(p)
        for s in range(1, max_value + 1):
            for f in range(1, max_value + 1):
                for t in range(s + 1, max_value + 1):
                    held = [
                        (p, s, f, t, part) for part in parts if lemma61(p, s, f, t, part)[0]
                    ]
                    if not held:
                        break
                    bad.extend(held)
    return bad


def prop62_vanishing_holds(p: int, m: int, s: int, f: int, b_m: int) -> bool:
    """Tag P621: whether (s, f) clears the untwisting threshold for Ext vanishing."""
    require_prime(p)
    for name, value in (("m", m), ("s", s), ("f", f), ("b_m", b_m)):
        require_int(value, name, 0)
    if p == 2:
        return s >= m and f >= t_invariant(b_m, 2) + 1
    e = Q(m, p - 2)
    return s >= e and s + f >= floor(e) + t_invariant(b_m, p) + 1


def finite_group_vanishing_range(p: int, r: int) -> int:
    """Tag T711: H^m of the finite group vanishes for 0 < m < this value."""
    require_prime(p)
    require_int(r, "r", 1)
    return r * _p_minus_2(p)


class ThresholdReport(Record):
    """One theorem's thresholds: twist floor s_min = e and field-size floor r_min.

    inputs_echo is a read-only copy of the mapping given, left out of the hash.
    """

    theorem_tag: str
    e: Q
    f: int
    r_min: int
    conditions: tuple[str, ...]
    inputs_echo: Mapping = MappingProxyType({})

    @property
    def s_min(self) -> Q:
        return self.e

    def __hash__(self) -> int:
        return hash((self.theorem_tag, self.e, self.f, self.r_min, self.conditions))

    def __post_init__(self) -> None:
        if self.theorem_tag not in THEOREM_TAGS:
            raise OracleError(f"unknown theorem tag {self.theorem_tag!r}")
        # Each type check comes before its sign test, which reads e.numerator.
        if type(self.e) not in (int, Q) or self.e.numerator < 0:
            raise OracleError(f"e must be a non-negative int or Fraction, got {_shown(self.e)}")
        if type(self.f) is not int or self.f < 0:
            raise OracleError(f"f must be a non-negative int, got {_shown(self.f)}")
        if type(self.r_min) is not int or self.r_min < 1:
            raise OracleError(f"r_min must be an int >= 1, got {_shown(self.r_min)}")
        object.__setattr__(self, "inputs_echo", MappingProxyType(dict(self.inputs_echo)))


def _is_a1(rs: RootSystem) -> bool:
    return rs.family == "A" and rs.rank == 1


def generic_thresholds(rs: RootSystem, p: int, m: int, b_m: int) -> ThresholdReport:
    """Strongest applicable generic-cohomology threshold for the inputs.

    The base rule is tag T811 (e = m for p = 2, e = m/(p-2) otherwise, with
    f the base-p digit length of b_m and r_min = floor(e) + f + 1).  Two
    overrides refine it: T821 for degree 1 at odd primes, and T831 for type
    A1 at odd primes.  Conditions record which rule fired and why.
    """
    require_prime(p)
    require_int(m, "m", 0)
    require_int(b_m, "b_m", 0)
    f_val = t_invariant(b_m, p)
    base_e = Q(m, _p_minus_2(p))
    r_min = None  # set only by the two special forms
    if p == 2:
        tag, e, conditions = "T811", base_e, ("base rule: e = m at p = 2",)
    elif m == 1:
        tag, e = "T821", Q(0)
        conditions = ["T821 override: degree-1 case at an odd prime gives e = 0"]
        if _is_a1(rs) and p == 3:
            r_min = max(f_val + 1, 2)
            conditions.append("type A1 with p = 3 additionally needs r >= 2")
        elif _is_a1(rs):
            conditions.append("type A1 needs p >= 5: satisfied")
        conditions.append(f"improves T811 (e = {base_e})")
    elif not _is_a1(rs):
        tag, e, conditions = "T811", base_e, ("base rule: e = m/(p-2) at an odd prime",)
    elif p >= 5:
        tag, e = "T831", Q(-((1 - m) // (p - 2)))  # ceil((m-1)/(p-2))
        conditions = (
            "T831 override, part a: type A1 with p >= 5 gives e = ceil((m-1)/(p-2))",
            f"improves T811 (e = {base_e})",
        )
    else:
        tag, e = "T831", Q(max(m - 1, 0))
        r_min = max(m + 1 + floor_log(3, b_m + 1), 1)
        conditions = (
            "T831 override, part b: type A1 with p = 3 gives s >= m-1 "
            "and r >= m+1+floor(log3(b_m+1))",
            "special form: r_min uses a floor, not floor(e)+f+1",
        )
    return ThresholdReport(
        theorem_tag=tag,
        e=e,
        f=f_val,
        r_min=e.numerator // e.denominator + f_val + 1 if r_min is None else r_min,
        conditions=tuple(conditions),
        inputs_echo={"p": p, "m": m, "b_m": b_m},
    )


def cpsvdk_thresholds(
    rs: RootSystem, p: int, m: int, c_m: Union[Q, int], tpmax: int
) -> ThresholdReport:
    """Comparison thresholds built from the structural constants (c, t).

    The f reported here is already converted to this package's normalization
    (one less than the source convention); the raw value is echoed in
    inputs_echo.  c_m is an int or a Fraction; tpmax must be a power of p.
    """
    require_prime(p)
    require_int(m, "m", 0)
    if type(c_m) not in (int, Q) or c_m.numerator < 0:
        raise InputError(f"c_m must be a non-negative int or Fraction, got {_shown(c_m)}")
    if _p_part(require_int(tpmax, "tpmax", 1), p) != tpmax:
        raise InputError(f"tpmax must be a power of {p}, got {tpmax}")
    c, t = structural_constants(rs)
    if p == 2:
        e = max(c * t * m - 1, 0)
    else:
        first = (c * t * m - 1) // (p - 1)
        second = (c * tpmax * (m - 1) - 1) // (p - 1) + 1
        e = max(first, second, 0)
    # floor(t * c_m + 1), from c_m's numerator and denominator
    f_val = floor_log(p, t * c_m.numerator // c_m.denominator + 1) + 1
    return ThresholdReport(
        theorem_tag="CPSVDK",
        e=Q(e),
        f=f_val,
        r_min=e + f_val + 1,
        conditions=(
            "f stated in this package's normalization; the source convention "
            "is one larger (echoed as raw_f)",
            "per-weight constants c and t_p taken as maxima over the Weyl orbits "
            "of the module's weights",
        ),
        inputs_echo={
            "p": p,
            "m": m,
            "c": c,
            "t": t,
            "c_m": c_m if type(c_m) is Q else Q(c_m),
            "tpmax": tpmax,
            "raw_f": f_val + 1,
        },
    )


class ComparisonReport(Record):
    """Side-by-side thresholds with their gaps."""

    bnp: ThresholdReport
    cpsvdk: ThresholdReport
    f_delta: int
    e_delta: Q
    exception_flag: bool
    notes: tuple[str, ...]


def _module_stats(rs: RootSystem, module: WeightMultiset, p: int) -> tuple[Q, int]:
    """(max coefficient over the weights' orbits, max p-part of fundamental-group order).

    Both maxima over a Weyl orbit are attained at its dominant weight, since
    mu - w(mu) lies in the positive root cone and W fixes each class modulo
    the root lattice, so `module.summary` reads the dominant representatives
    only, as b_M does, and a character its highest weight alone.  A dominant
    weight has non-negative root-basis coefficients, so c_M >= 0.  Only the
    p-part is taken here.  The caller passes a non-empty module of rs.
    """
    _, c, orders = module.summary
    return Q(c, rs.cartan_det), max(_p_part(order, p) for order in orders)


def compare_thresholds(
    rs: RootSystem, p: int, m: int, module: WeightMultiset
) -> ComparisonReport:
    """Compare the generic thresholds against the structural-constant ones, for m >= 1."""
    require_prime(p)  # before the module scan, which divides by p
    require_int(m, "m", 1)
    if module.is_empty():
        raise InputError("compare_thresholds needs a non-empty module multiset")
    b_m = b_invariant(rs, module).value
    c_m, tpmax = _module_stats(rs, module, p)
    bnp = generic_thresholds(rs, p, m, b_m)
    cpsvdk = cpsvdk_thresholds(rs, p, m, c_m, tpmax)
    f_delta = cpsvdk.f - bnp.f
    if f_delta < 0:
        raise OracleError(
            f"f comparison violated: cpsvdk f {cpsvdk.f} < bnp f {bnp.f}"
        )
    ec, eb = cpsvdk.e, bnp.e
    delta_num = ec.numerator * eb.denominator - eb.numerator * ec.denominator
    exception = p != 2 and (m == 1 or _is_a1(rs))
    notes = []
    if delta_num < 0:
        notes.append(
            "e comparison reversed; expected only for odd p with m = 1 or type A1"
        )
        if not exception:
            raise OracleError("e comparison reversed outside the exception cases")
    return ComparisonReport(
        bnp=bnp,
        cpsvdk=cpsvdk,
        f_delta=f_delta,
        e_delta=Q(delta_num, ec.denominator * eb.denominator),
        exception_flag=exception,
        notes=tuple(notes),
    )
