"""Every public function that takes a weight refuses one that is not a weight of its system.

`RootSystem.coords_of` is the one check: integer (not bool) coordinates, as
many as the rank.  A weight cut short by `zip` would give a wrong pairing and
a wrong verdict with no error, so each entry point is called here with a
weight of the wrong rank, a bool coordinate and a float coordinate.
"""

from __future__ import annotations

import pytest

from chevbounds.bounds import compare_thresholds
from chevbounds.e1oracle import bs_vanishing_failure, check_bs_vanishing, invariant_page
from chevbounds.errors import InputError
from chevbounds.modchar import WeightMultiset, weyl_character, weyl_dimension
from chevbounds.rootsys import Weight, apply_w0, build_root_system, dominance_leq, dual_weight
from chevbounds.weightcomb import b_invariant, b_of_weight, order_in_fundamental_group

A2 = build_root_system("A", 2)


def _module(w) -> WeightMultiset:
    return WeightMultiset.from_dict({w: 1})


# Each takes a weight of A2 and fixes every other argument to a valid value.
TAKERS = {
    "coords_of": lambda w: A2.coords_of(w),
    "b_of_weight": lambda w: b_of_weight(A2, w),
    "b_invariant": lambda w: b_invariant(A2, _module(w)),
    "compare_thresholds": lambda w: compare_thresholds(A2, 3, 2, _module(w)),
    "apply_w0": lambda w: apply_w0(A2, w),
    "dual_weight": lambda w: dual_weight(A2, w),
    "dominance_leq mu": lambda w: dominance_leq(A2, w, A2.zero),
    "dominance_leq lam": lambda w: dominance_leq(A2, A2.zero, w),
    "bs_vanishing_failure": lambda w: bs_vanishing_failure(A2, w, 1, 0),
    "check_bs_vanishing": lambda w: check_bs_vanishing(A2, 3, w, 1, 2),
    "invariant_page": lambda w: invariant_page(A2, 3, 1, 0, w, WeightMultiset.trivial(A2), 2),
    "weyl_character": lambda w: weyl_character(A2, w),
    "weyl_dimension": lambda w: weyl_dimension(A2, w),
    "order_in_fundamental_group": lambda w: order_in_fundamental_group(A2, w),
}

BAD = {
    "wrong rank": (1, 0, 0),
    "wrong rank Weight": Weight((1, 0, 0)),
    "short": (1,),
    "bool coordinate": (True, 0),
    "float coordinate": (1.5, 0),
}


@pytest.mark.parametrize("bad", BAD.values(), ids=BAD.keys())
@pytest.mark.parametrize("taker", TAKERS.values(), ids=TAKERS.keys())
def test_every_weight_taker_refuses_what_is_not_a_weight(taker, bad) -> None:
    with pytest.raises(InputError):
        taker(bad)


@pytest.mark.parametrize("taker", TAKERS.values(), ids=TAKERS.keys())
def test_every_weight_taker_accepts_a_weight_as_a_weight_or_a_tuple(taker) -> None:
    assert taker((1, 0)) == taker(Weight((1, 0)))


def test_bool_is_not_an_integer_coordinate() -> None:
    with pytest.raises(InputError, match="Weight coordinates must be a tuple of integers"):
        Weight((True,))

