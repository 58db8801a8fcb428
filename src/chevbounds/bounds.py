"""Closed-form vanishing, stability, and comparison thresholds.

Every bound is carried as an exact Fraction; adjacent floors and ceilings of
base-p logarithms go through the integer power comparisons in weightcomb.
Reports carry a theorem tag from THEOREM_TAGS so output formats can name the
rule that produced each number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from math import ceil, floor, gcd
from typing import Optional, Union

from .errors import InputError, OracleError
from .modchar import WeightMultiset
from .primes import require_prime
from .rootsys import RootSystem
from .weightcomb import (
    b_invariant,
    ceil_log,
    floor_log,
    p_adic_digits,
    structural_constants,
    t_invariant,
    _p_part,
)

THEOREM_TAGS = (
    "P241a",
    "P241b",
    "P241c",
    "P311",
    "T321",
    "T511",
    "T521",
    "P621",
    "T711",
    "T811",
    "T821",
    "T831",
    "CPSVDK",
)


def _check_odd_prime(p: int) -> None:
    require_prime(p)
    if p == 2:
        raise InputError("this clause needs an odd prime")


def bs_vanish_threshold(d: int, p: int, m: int, variant: str) -> Q:
    """Smallest admissible tower height s forcing degree-m vanishing.

    d is the pairing of the coefficient weight against the highest coroot and
    must be positive.  Variant 'a' is the p=2 clause; 'b' and 'c' are the two
    odd-prime clauses ('c' sharpens 'b' using the leading base-p digit of d).
    """
    if d < 1:
        raise InputError(f"threshold needs d >= 1, got {d}")
    if m < 0:
        raise InputError(f"threshold needs m >= 0, got {m}")
    require_prime(p)
    t = t_invariant(d, p)
    if variant == "a":
        if p != 2:
            raise InputError("variant 'a' applies only to p = 2")
        return Q(m + t)
    if variant == "b":
        _check_odd_prime(p)
        return Q(m, p - 2) + t
    if variant == "c":
        _check_odd_prime(p)
        top = p_adic_digits(d, p)[-1]
        return Q(m, p - 2) + t + (Q(top, p - 2) - 1)
    raise InputError(f"unknown variant {variant!r}; expected 'a', 'b' or 'c'")


def bs_vanish_variants(p: int, variant: Optional[str] = None) -> tuple[str, ...]:
    """The threshold variants that apply at p: 'a' at p = 2, 'b' and 'c' at odd p.

    With `variant` given, only that one; a variant that does not apply at p
    is an InputError.
    """
    variants = ("a",) if p == 2 else ("b", "c")
    if variant is None:
        return variants
    if variant not in variants:
        raise InputError(f"variant {variant!r} does not apply at p={p}")
    return (variant,)


def g_ext_vanishing_holds(d: int, p: int, s: int, m: int) -> bool:
    """Whether s clears the transfer threshold for twisted Ext vanishing.

    Same thresholds as variants 'a'/'b' above; a zero coefficient pairing is
    excluded because the statement fails there.
    """
    if d < 1:
        raise InputError(f"vanishing condition needs d >= 1, got {d}")
    if s < 0 or m < 0:
        raise InputError("s and m must be non-negative")
    return s >= bs_vanish_threshold(d, p, m, bs_vanish_variants(p)[0])


@dataclass(frozen=True)
class StabilityConstants:
    """Twist thresholds for stable cohomology in a fixed degree."""

    c_stability: Q  # tag T511: twists s >= C give the stable value
    f_stability: Q  # tag T521: the stable-range function F(m)
    notes: tuple[str, ...]


def stability_constants(rs: RootSystem, p: int, m: int) -> StabilityConstants:
    require_prime(p)
    if m < 0:
        raise InputError(f"degree must be non-negative, got {m}")
    h_dual = rs.dual_coxeter_number
    if p == 2:
        c_val = Q(m + ceil_log(2, 2 * (h_dual - 1) + 1) - 1)
        f_val = Q(m)
    else:
        c_val = Q(m, p - 2) + ceil_log(p, 2 * (p - 1) * (h_dual - 1) + 1) - 1
        f_val = Q(0) if m <= 1 else Q(m, p - 2)
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
    s >= t.  All three parts are exact rational comparisons.
    """
    if min(s, f, t) < 1:
        raise InputError("lemma61 needs s, f, t >= 1")
    total = s + f
    if part == "a":
        if p != 2:
            raise InputError("part 'a' applies only to p = 2")
        lhs = 2 ** (t - 1)
        denom = 2**total - 1
        rhs = Q(2 ** (total - 1) - 2**s, denom) + Q(2**total, denom) * s
    elif part == "b":
        _check_odd_prime(p)
        lhs = p ** (t - 1)
        denom = p**total - 1
        rhs = Q(p ** (total - 1) - p**s, denom) + Q(p**total, denom) * s * (p - 2)
    elif part == "c":
        _check_odd_prime(p)
        lhs = p ** (t - 1)
        denom = p**total - 1
        rhs = Q(p**total - p**s, denom) + Q(p**total, denom) * (s * (p - 2) - 1)
    else:
        raise InputError(f"unknown part {part!r}; expected 'a', 'b' or 'c'")
    return (lhs <= rhs, s >= t)


def lemma61_scan(
    max_value: int = 12, primes: tuple[int, ...] = (2, 3, 5, 7)
) -> list[tuple[int, int, int, int, str]]:
    """All (p, s, f, t, part) in the grid where the hypothesis holds but s < t."""
    bad = []
    for p in primes:
        parts = ("a",) if p == 2 else ("b", "c")
        for s in range(1, max_value + 1):
            for f in range(1, max_value + 1):
                for t in range(1, max_value + 1):
                    for part in parts:
                        hyp, concl = lemma61(p, s, f, t, part)
                        if hyp and not concl:
                            bad.append((p, s, f, t, part))
    return bad


def prop62_vanishing_holds(p: int, m: int, s: int, f: int, b_m: int) -> bool:
    """Tag P621: whether (s, f) clears the untwisting threshold for Ext vanishing."""
    require_prime(p)
    if min(m, s, f) < 0 or b_m < 0:
        raise InputError("m, s, f, b_m must be non-negative")
    if p == 2:
        return s >= m and f >= t_invariant(b_m, 2) + 1
    e = Q(m, p - 2)
    return s >= e and s + f >= floor(e) + t_invariant(b_m, p) + 1


def finite_group_vanishing_range(p: int, r: int) -> int:
    """Tag T711: H^m of the finite group vanishes for 0 < m < this value."""
    require_prime(p)
    if r < 1:
        raise InputError(f"r must be positive, got {r}")
    return r if p == 2 else r * (p - 2)


@dataclass(frozen=True)
class ThresholdReport:
    """One theorem's thresholds: twist floor s_min and field-size floor r_min."""

    theorem_tag: str
    e: Q
    f: int
    s_min: Q
    r_min: int
    conditions: tuple[str, ...]
    inputs_echo: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.theorem_tag not in THEOREM_TAGS:
            raise OracleError(f"unknown theorem tag {self.theorem_tag!r}")
        if self.e < 0 or self.f < 0:
            raise OracleError("thresholds must be non-negative")


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
    if m < 0:
        raise InputError(f"degree must be non-negative, got {m}")
    if b_m < 0:
        raise InputError(f"b_m must be non-negative, got {b_m}")
    f_val = t_invariant(b_m, p)
    echo = {"p": p, "m": m, "b_m": b_m}

    if p == 2:
        e = Q(m)
        return ThresholdReport(
            theorem_tag="T811",
            e=e,
            f=f_val,
            s_min=e,
            r_min=m + f_val + 1,
            conditions=("base rule: e = m at p = 2",),
            inputs_echo=echo,
        )

    base_e = Q(m, p - 2)
    if m == 1:
        conditions = ["T821 override: degree-1 case at an odd prime gives e = 0"]
        r_min = f_val + 1
        if _is_a1(rs):
            if p == 3:
                r_min = max(r_min, 2)
                conditions.append("type A1 with p = 3 additionally needs r >= 2")
            else:
                conditions.append("type A1 needs p >= 5: satisfied")
        conditions.append(f"improves T811 (e = {base_e})")
        return ThresholdReport(
            theorem_tag="T821",
            e=Q(0),
            f=f_val,
            s_min=Q(0),
            r_min=r_min,
            conditions=tuple(conditions),
            inputs_echo=echo,
        )

    if _is_a1(rs):
        if p >= 5:
            e = Q(ceil(Q(m - 1, p - 2)))
            return ThresholdReport(
                theorem_tag="T831",
                e=e,
                f=f_val,
                s_min=e,
                r_min=int(e) + f_val + 1,
                conditions=(
                    "T831 override, part a: type A1 with p >= 5 gives "
                    "e = ceil((m-1)/(p-2))",
                    f"improves T811 (e = {base_e})",
                ),
                inputs_echo=echo,
            )
        e = Q(max(m - 1, 0))
        r_min = max(m + 1 + floor_log(3, b_m + 1), 1)
        return ThresholdReport(
            theorem_tag="T831",
            e=e,
            f=f_val,
            s_min=e,
            r_min=r_min,
            conditions=(
                "T831 override, part b: type A1 with p = 3 gives s >= m-1 "
                "and r >= m+1+floor(log3(b_m+1))",
                "special form: r_min uses a floor, not floor(e)+f+1",
            ),
            inputs_echo=echo,
        )

    return ThresholdReport(
        theorem_tag="T811",
        e=base_e,
        f=f_val,
        s_min=base_e,
        r_min=floor(base_e) + f_val + 1,
        conditions=("base rule: e = m/(p-2) at an odd prime",),
        inputs_echo=echo,
    )


def cpsvdk_thresholds(
    rs: RootSystem, p: int, m: int, c_m: Union[Q, int], tpmax: int
) -> ThresholdReport:
    """Comparison thresholds built from the structural constants (c, t).

    The f reported here is already converted to this package's normalization
    (one less than the source convention); the raw value is echoed in
    inputs_echo.  c_m may be rational; tpmax must be a power of p.
    """
    require_prime(p)
    if m < 0:
        raise InputError(f"degree must be non-negative, got {m}")
    c_m = Q(c_m)
    if c_m < 0:
        raise InputError(f"c_m must be non-negative, got {c_m}")
    if tpmax < 1 or _p_part(tpmax, p) != tpmax:
        raise InputError(f"tpmax must be a power of {p}, got {tpmax}")
    c, t = structural_constants(rs)
    if p == 2:
        e = Q(max(c * t * m - 1, 0))
    else:
        first = floor(Q(c * t * m - 1, p - 1))
        second = floor(Q(c * tpmax * (m - 1) - 1, p - 1)) + 1
        e = Q(max(first, second, 0))
    f_val = floor_log(p, t * c_m + 1) + 1
    r_min = floor(e) + f_val + 1
    return ThresholdReport(
        theorem_tag="CPSVDK",
        e=e,
        f=f_val,
        s_min=e,
        r_min=r_min,
        conditions=(
            "f stated in this package's normalization; the source convention "
            "is one larger (echoed as raw_f)",
            "per-weight constants c and t_p taken as maxima over the module's weights",
        ),
        inputs_echo={
            "p": p,
            "m": m,
            "c": c,
            "t": t,
            "c_m": c_m,
            "tpmax": tpmax,
            "raw_f": f_val + 1,
        },
    )


@dataclass(frozen=True)
class ComparisonReport:
    """Side-by-side thresholds with their gaps."""

    bnp: ThresholdReport
    cpsvdk: ThresholdReport
    f_delta: int
    e_delta: Q
    exception_flag: bool
    notes: tuple[str, ...]


def _module_stats(rs: RootSystem, module: WeightMultiset, p: int) -> tuple[Q, int]:
    """(max coefficient over entries, max p-part of fundamental-group order).

    Both maxima are attained at a dominant weight of a W-stable module, since
    mu - w(mu) lies in the positive root cone and W fixes each class modulo
    the root lattice; such a module scans its dominant entries only.
    """
    det = rs.cartan_det
    c_max: Optional[Q] = None
    tp_max = 1
    for coords, _ in module.dominant or module.items:
        scaled = rs.root_basis_scaled(coords)
        top = Q(max(scaled), det)
        if c_max is None or top > c_max:
            c_max = top
        g = det
        for x in scaled:
            g = gcd(g, x % det)
        tp_max = max(tp_max, _p_part(det // g, p))
    return (c_max if c_max is not None else Q(0)), tp_max


def compare_thresholds(
    rs: RootSystem, p: int, m: int, module: WeightMultiset
) -> ComparisonReport:
    """Compare the generic thresholds against the structural-constant ones."""
    if module.is_empty():
        raise InputError("compare_thresholds needs a non-empty module multiset")
    b_m = b_invariant(rs, module).value
    c_m, tpmax = _module_stats(rs, module, p)
    c_m = max(c_m, Q(0))
    bnp = generic_thresholds(rs, p, m, b_m)
    cpsvdk = cpsvdk_thresholds(rs, p, m, c_m, tpmax)
    f_delta = cpsvdk.f - bnp.f
    if f_delta < 0:
        raise OracleError(
            f"f comparison violated: cpsvdk f {cpsvdk.f} < bnp f {bnp.f}"
        )
    e_delta = cpsvdk.e - bnp.e
    exception = p != 2 and (m == 1 or _is_a1(rs))
    notes = []
    if e_delta < 0:
        notes.append(
            "e comparison reversed; expected only for odd p with m = 1 or type A1"
        )
        if not exception:
            raise OracleError("e comparison reversed outside the exception cases")
    return ComparisonReport(
        bnp=bnp,
        cpsvdk=cpsvdk,
        f_delta=f_delta,
        e_delta=e_delta,
        exception_flag=exception,
        notes=tuple(notes),
    )
