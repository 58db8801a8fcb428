"""Every public function that takes an integer refuses what is not an integer in its range.

`errors.require_int` is the one check: an `int` (not a bool, not a float
with an integer value) between a low and an optional high bound.  Each entry
point is called here with each of its integer parameters set to 2.0, True,
one below its low bound and one above its high bound where it has one.  A
cache in front of a function's checks must not answer 2.0 or True from the
entry of 2 or 1.  The three rational parameters take an int or a Fraction,
and refuse a float.
"""

from __future__ import annotations

from fractions import Fraction as Q

import pytest

from chevbounds.bounds import (
    bs_vanish_threshold,
    bs_vanish_variants,
    compare_thresholds,
    cpsvdk_thresholds,
    finite_group_vanishing_range,
    g_ext_vanishing_holds,
    generic_thresholds,
    lemma61,
    lemma61_scan,
    prop62_vanishing_holds,
    stability_constants,
)
from chevbounds.e1oracle import (
    check_bs_vanishing,
    dyadic_sharpness,
    enumerate_tuples,
    invariant_page,
)
from chevbounds.errors import InputError, ResourceLimitError
from chevbounds.modchar import (
    WeightMultiset,
    graded_power,
    nilradical_dual_weights,
    weyl_character,
)
from chevbounds.primes import require_prime
from chevbounds.rootsys import build_root_system
from chevbounds.weightcomb import ceil_log, floor_log, p_adic_digits, t_invariant

A2 = build_root_system("A", 2)
TRIVIAL = WeightMultiset.trivial(A2)
MODULE = weyl_character(A2, (1, 0))
NIL = nilradical_dual_weights(A2)

# Each integer parameter: a call with every other argument valid, and the
# parameter's low and high bounds (None: no upper end).
PARAMS = {
    "ceil_log p": (lambda v: ceil_log(v, 5), 2, None),
    "floor_log p": (lambda v: floor_log(v, 5), 2, None),
    "t_invariant b": (lambda v: t_invariant(v, 3), 0, None),
    "t_invariant p": (lambda v: t_invariant(4, v), 2, None),
    "p_adic_digits n": (lambda v: p_adic_digits(v, 3), 0, None),
    "p_adic_digits p": (lambda v: p_adic_digits(7, v), 2, None),
    "require_prime p": (require_prime, 2, None),
    "bs_vanish_variants p": (bs_vanish_variants, 2, None),
    "bs_vanish_threshold d": (lambda v: bs_vanish_threshold(v, 3, 2, "b"), 1, None),
    "bs_vanish_threshold p": (lambda v: bs_vanish_threshold(2, v, 2, "a"), 2, None),
    "bs_vanish_threshold m": (lambda v: bs_vanish_threshold(2, 3, v, "b"), 0, None),
    "g_ext_vanishing_holds d": (lambda v: g_ext_vanishing_holds(v, 3, 1, 1), 1, None),
    "g_ext_vanishing_holds p": (lambda v: g_ext_vanishing_holds(2, v, 1, 1), 2, None),
    "g_ext_vanishing_holds s": (lambda v: g_ext_vanishing_holds(2, 3, v, 1), 0, None),
    "g_ext_vanishing_holds m": (lambda v: g_ext_vanishing_holds(2, 3, 1, v), 0, None),
    "stability_constants p": (lambda v: stability_constants(A2, v, 1), 2, None),
    "stability_constants m": (lambda v: stability_constants(A2, 3, v), 0, None),
    "lemma61 p": (lambda v: lemma61(v, 1, 1, 1, "a"), 2, None),
    "lemma61 s": (lambda v: lemma61(3, v, 1, 1, "b"), 1, None),
    "lemma61 f": (lambda v: lemma61(3, 1, v, 1, "b"), 1, None),
    "lemma61 t": (lambda v: lemma61(3, 1, 1, v, "b"), 1, None),
    "lemma61_scan max_value": (lemma61_scan, 1, None),
    "lemma61_scan cap": (lambda v: lemma61_scan(1, cap=v), 1, None),
    "prop62_vanishing_holds p": (lambda v: prop62_vanishing_holds(v, 1, 1, 1, 1), 2, None),
    "prop62_vanishing_holds m": (lambda v: prop62_vanishing_holds(3, v, 1, 1, 1), 0, None),
    "prop62_vanishing_holds s": (lambda v: prop62_vanishing_holds(3, 1, v, 1, 1), 0, None),
    "prop62_vanishing_holds f": (lambda v: prop62_vanishing_holds(3, 1, 1, v, 1), 0, None),
    "prop62_vanishing_holds b_m": (lambda v: prop62_vanishing_holds(3, 1, 1, 1, v), 0, None),
    "finite_group_vanishing_range p": (lambda v: finite_group_vanishing_range(v, 1), 2, None),
    "finite_group_vanishing_range r": (lambda v: finite_group_vanishing_range(3, v), 1, None),
    "generic_thresholds p": (lambda v: generic_thresholds(A2, v, 1, 1), 2, None),
    "generic_thresholds m": (lambda v: generic_thresholds(A2, 3, v, 1), 0, None),
    "generic_thresholds b_m": (lambda v: generic_thresholds(A2, 3, 1, v), 0, None),
    "cpsvdk_thresholds p": (lambda v: cpsvdk_thresholds(A2, v, 1, 1, 1), 2, None),
    "cpsvdk_thresholds m": (lambda v: cpsvdk_thresholds(A2, 3, v, 1, 1), 0, None),
    "cpsvdk_thresholds tpmax": (lambda v: cpsvdk_thresholds(A2, 3, 1, 1, v), 1, None),
    "compare_thresholds p": (lambda v: compare_thresholds(A2, v, 1, MODULE), 2, None),
    "compare_thresholds m": (lambda v: compare_thresholds(A2, 3, v, MODULE), 1, None),
    "enumerate_tuples p": (lambda v: enumerate_tuples(v, 1, 2), 2, None),
    "enumerate_tuples levels": (lambda v: enumerate_tuples(3, v, 2), 1, 4),
    "enumerate_tuples m": (lambda v: enumerate_tuples(3, 1, v), 0, 8),
    "invariant_page p": (lambda v: invariant_page(A2, v, 1, 0, (1, 0), TRIVIAL, 2), 2, None),
    "invariant_page s": (lambda v: invariant_page(A2, 3, v, 1, (1, 0), TRIVIAL, 2), 0, None),
    "invariant_page f": (lambda v: invariant_page(A2, 3, 1, v, (1, 0), TRIVIAL, 2), 0, None),
    "invariant_page m": (lambda v: invariant_page(A2, 3, 1, 0, (1, 0), TRIVIAL, v), 0, 8),
    "invariant_page cap": (
        lambda v: invariant_page(A2, 3, 1, 0, (1, 0), TRIVIAL, 2, cap=v), 1, None
    ),
    "check_bs_vanishing p": (lambda v: check_bs_vanishing(A2, v, (1, 0), 1, 2), 2, None),
    "check_bs_vanishing s": (lambda v: check_bs_vanishing(A2, 3, (1, 0), v, 2), 1, None),
    "check_bs_vanishing m": (lambda v: check_bs_vanishing(A2, 3, (1, 0), 1, v), 0, 8),
    "check_bs_vanishing cap": (
        lambda v: check_bs_vanishing(A2, 3, (1, 0), 1, 2, cap=v), 1, None
    ),
    "dyadic_sharpness s": (lambda v: dyadic_sharpness(v, 1), 0, None),
    "dyadic_sharpness f": (lambda v: dyadic_sharpness(1, v), 0, None),
    "graded_power n": (lambda v: graded_power("sym", NIL, v), 0, None),
    "graded_power cap": (lambda v: graded_power("sym", NIL, 2, cap=v), 1, None),
    "weyl_character cap": (lambda v: weyl_character(A2, (1, 1), v), 1, None),
    "from_dict multiplicity": (lambda v: WeightMultiset.from_dict(A2, {(1, 0): v}), 0, None),
    "build_root_system rank": (lambda v: build_root_system("A", v), 1, 12),
    "fundamental_weight i": (A2.fundamental_weight, 1, 2),
}

CASES = [
    pytest.param(call, bad, id=f"{name}={bad!r}")
    for name, (call, low, high) in PARAMS.items()
    for bad in (2.0, True, low - 1) + (() if high is None else (high + 1,))
]


@pytest.mark.parametrize("call, bad", CASES)
def test_every_integer_parameter_refuses_a_non_integer_or_an_out_of_range_value(
    call, bad
) -> None:
    with pytest.raises(InputError):
        call(bad)


def test_every_integer_parameter_takes_its_bounds() -> None:
    for call, low, high in PARAMS.values():
        for value in (low,) if high is None else (low, high):
            try:
                call(value)
            except ResourceLimitError:  # a cap of 1 passes the gate and then fires
                pass


RATIONAL = {
    "ceil_log x": lambda x: ceil_log(2, x),
    "floor_log x": lambda x: floor_log(2, x),
    "cpsvdk_thresholds c_m": lambda x: cpsvdk_thresholds(A2, 3, 2, x, 1),
}


@pytest.mark.parametrize("call", RATIONAL.values(), ids=RATIONAL.keys())
def test_a_rational_parameter_takes_an_int_or_a_fraction_and_refuses_a_float(call) -> None:
    call(Q(3, 2))
    call(1)
    for bad in (1.5, 2.0, True):
        with pytest.raises(InputError):
            call(bad)


def test_a_cache_does_not_answer_a_float_or_a_bool_from_an_int_entry() -> None:
    build_root_system("A", 2)
    build_root_system("A", 1)
    for rank in (2.0, True):
        with pytest.raises(InputError):
            build_root_system("A", rank)
    bs_vanish_threshold(2, 3, 2, "b")
    with pytest.raises(InputError):
        bs_vanish_threshold(2.0, 3, 2, "b")


PROBES = {
    "finite_group_vanishing_range r=2.5": lambda: finite_group_vanishing_range(3, 2.5),
    "lemma61 s=1.5": lambda: lemma61(2, 1.5, 1, 1, "a"),
    "invariant_page m=2.0": lambda: invariant_page(A2, 3, 1, 0, (1, 0), TRIVIAL, m=2.0),
    "build_root_system rank=2.0": lambda: build_root_system("A", 2.0),
    "fundamental_weight True": lambda: A2.fundamental_weight(True),
    "from_dict multiplicity True": lambda: WeightMultiset.from_dict(A2, {(1, 0): True}),
    "compare_thresholds m=0": lambda: compare_thresholds(A2, 3, 0, MODULE),
    "lemma61_scan 0": lambda: lemma61_scan(0),
    "lemma61_scan -3": lambda: lemma61_scan(-3),
    "check_bs_vanishing s=1.5": lambda: check_bs_vanishing(A2, 3, (1, 0), 1.5, 2),
    "invariant_page f=0.0": lambda: invariant_page(A2, 3, 1, 0.0, (1, 0), TRIVIAL, 2),
    "invariant_page s=True f=False": lambda: invariant_page(
        A2, 3, True, False, (1, 0), TRIVIAL, 2
    ),
}


@pytest.mark.parametrize("probe", PROBES.values(), ids=PROBES.keys())
def test_a_value_read_wrongly_before_is_bad_input(probe) -> None:
    with pytest.raises(InputError):
        probe()


def test_the_gate_returns_the_value_and_names_what_it_refuses() -> None:
    from chevbounds.errors import require_int

    assert require_int(3, "x", 1, 4) == 3
    assert require_int(10**30, "x", 0) == 10**30
    for value, message in (
        (2.0, "x must be an integer, got 2.0"),
        (True, "x must be an integer, got True"),
        ("3", "x must be an integer, got '3'"),
        (0, "x = 0 outside 1..4"),
        (5, "x = 5 outside 1..4"),
        (-(10**5000), "x = <int too long to print> outside 1..4"),
    ):
        with pytest.raises(InputError) as info:
            require_int(value, "x", 1, 4)
        assert str(info.value) == message
    with pytest.raises(InputError, match="^x = -1 below 0$"):
        require_int(-1, "x", 0)


def test_bs_vanish_threshold_reads_its_clause_from_bs_vanish_variants() -> None:
    for p, variant in ((2, "b"), (2, "c"), (3, "a"), (5, "x")):
        with pytest.raises(InputError, match=f"^variant '{variant}' does not apply at p={p}$"):
            bs_vanish_threshold(1, p, 1, variant)
    with pytest.raises(InputError, match="needs one variant"):
        bs_vanish_threshold(1, 3, 1, None)
