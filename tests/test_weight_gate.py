"""Every public function that takes a weight refuses one that is not a weight of its system.

`RootSystem.coords_of` is the one check: integer (not bool) coordinates, as
many as the rank.  A weight cut short by `zip` would give a wrong pairing and
a wrong verdict with no error, so each entry point is called here with a
weight of the wrong rank, a bool coordinate and a float coordinate.  A weight
multiset records its system, and `WeightMultiset.check_system` is the one
check that it is a module of the system it is read against.  The constructor
checks nothing, so `check_system` also reads every entry of a multiset that
is not known to be W-stable, as `from_dict` would.
"""

from __future__ import annotations

import pytest

from chevbounds.bounds import compare_thresholds
from chevbounds.e1oracle import check_bs_vanishing, invariant_page
from chevbounds.errors import InputError
from chevbounds.modchar import (
    WeightMultiset,
    graded_power,
    nilradical_dual_weights,
    weyl_character,
    weyl_dimension,
)
from chevbounds.rootsys import Weight, apply_w0, build_root_system, dominance_leq, dual_weight
from chevbounds.weightcomb import b_invariant, b_of_weight, order_in_fundamental_group

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
B2 = build_root_system("B", 2)
G2 = build_root_system("G", 2)


def _module(w) -> WeightMultiset:
    return WeightMultiset.from_dict(A2, {w: 1})


# Each takes a weight of A2 and fixes every other argument to a valid value.
TAKERS = {
    "coords_of": lambda w: A2.coords_of(w),
    "from_dict": lambda w: WeightMultiset.from_dict(A2, {w: 1}),
    "b_of_weight": lambda w: b_of_weight(A2, w),
    "b_invariant": lambda w: b_invariant(A2, _module(w)),
    "compare_thresholds": lambda w: compare_thresholds(A2, 3, 2, _module(w)),
    "apply_w0": lambda w: apply_w0(A2, w),
    "dual_weight": lambda w: dual_weight(A2, w),
    "dominance_leq mu": lambda w: dominance_leq(A2, w, A2.zero),
    "dominance_leq lam": lambda w: dominance_leq(A2, A2.zero, w),
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



def test_a_message_names_an_integer_too_long_to_print() -> None:
    # Formatting one would raise ValueError past the interpreter's digit limit.
    huge = 10**5000
    shown = r"\(<int too long to print>,\)"
    with pytest.raises(InputError, match="got <int too long to print>$"):
        A1.coords_of(huge)
    with pytest.raises(
        InputError, match=r"^weight \(<int too long to print>, 1\) has 2 coordinates, A1 needs 1$"
    ):
        A1.coords_of((huge, 1))
    with pytest.raises(InputError, match=f"^negative multiplicity for {shown}$"):
        WeightMultiset.from_dict(A1, {(huge,): -1})
    with pytest.raises(InputError, match=f"^multiplicity of {shown} must be an integer, got 1.5$"):
        WeightMultiset.from_dict(A1, {(huge,): 1.5})


# Multisets of systems other than A2: of another rank, and of the same rank.
# A character reads its dominant entries and a table its items.
FOREIGN = {
    "A1 character": weyl_character(A1, (1,)),
    "A1 trivial": WeightMultiset.trivial(A1),
    "A1 table": WeightMultiset.from_dict(A1, {(1,): 1, (-1,): 1}),
    "B2 character": weyl_character(B2, (0, 1)),
    "B2 table": WeightMultiset.from_dict(B2, {(0, 1): 2}),
    "G2 character": weyl_character(G2, (1, 0)),
    "G2 table": WeightMultiset.from_dict(G2, {(1, 0): 1, (-1, 1): 1}),
}

# Each reads a multiset against A2 and fixes every other argument.
MULTISET_TAKERS = {
    "b_invariant": lambda ws: b_invariant(A2, ws),
    "compare_thresholds": lambda ws: compare_thresholds(A2, 3, 2, ws),
    "invariant_page mu_set": lambda ws: invariant_page(A2, 3, 1, 0, (1, 0), ws, 2),
}


@pytest.mark.parametrize("ws", FOREIGN.values(), ids=FOREIGN.keys())
@pytest.mark.parametrize("taker", MULTISET_TAKERS.values(), ids=MULTISET_TAKERS.keys())
def test_every_multiset_taker_refuses_a_multiset_of_another_system(taker, ws) -> None:
    with pytest.raises(InputError, match=f"multiset of {ws.system.name} is not one of A2$"):
        taker(ws)


@pytest.mark.parametrize("taker", MULTISET_TAKERS.values(), ids=MULTISET_TAKERS.keys())
def test_every_multiset_taker_reads_a_multiset_of_its_system(taker) -> None:
    for own in (weyl_character(A2, (1, 0)), WeightMultiset.from_dict(A2, {(1, 0): 1})):
        taker(own)


def test_multisets_of_different_systems_differ() -> None:
    assert WeightMultiset.trivial(A2) != WeightMultiset.trivial(B2)
    assert WeightMultiset.trivial(A2) == WeightMultiset.from_dict(A2, {(0, 0): 1})


# Multisets of A2 built with the unchecked constructor, each with one entry
# that `from_dict` would refuse.
RAW = {
    "short weight": ((1,), 1),
    "bool coordinate": ((True, 0), 1),
    "zero multiplicity": ((1, 0), 0),
    "negative multiplicity": ((1, 0), -3),
    "float multiplicity": ((1, 0), 1.5),
    "bool multiplicity": ((1, 0), True),
}

RAW_TAKERS = {
    **MULTISET_TAKERS,
    "graded_power sym": lambda ws: graded_power("sym", ws, 2),
    "graded_power ext": lambda ws: graded_power("ext", ws, 2),
}


@pytest.mark.parametrize("entry", RAW.values(), ids=RAW.keys())
@pytest.mark.parametrize("taker", RAW_TAKERS.values(), ids=RAW_TAKERS.keys())
def test_every_multiset_taker_refuses_an_entry_from_dict_refuses(taker, entry) -> None:
    with pytest.raises(InputError):
        taker(WeightMultiset(A2, (entry,)))


@pytest.mark.parametrize("taker", RAW_TAKERS.values(), ids=RAW_TAKERS.keys())
def test_every_multiset_taker_reads_a_raw_multiset_of_weights(taker) -> None:
    raw = WeightMultiset(A2, (((-1, 0), 2), ((1, 0), 1)))
    assert taker(raw) == taker(WeightMultiset.from_dict(A2, {(1, 0): 1, (-1, 0): 2}))


# Raw multisets of A2 whose entries `from_dict` would never list: it gives each
# weight once, in increasing order.
UNORDERED = {
    "repeated weight": (((1, 0), 1), ((1, 0), 1)),
    "unsorted weights": (((1, 0), 1), ((0, 1), 1)),
}


@pytest.mark.parametrize("items", UNORDERED.values(), ids=UNORDERED.keys())
@pytest.mark.parametrize("taker", RAW_TAKERS.values(), ids=RAW_TAKERS.keys())
def test_every_multiset_taker_refuses_weights_out_of_order(taker, items) -> None:
    with pytest.raises(InputError, match=r"^weights out of order: \(\d, \d\) after \(1, 0\)$"):
        taker(WeightMultiset(A2, items))


def test_every_multiset_the_library_builds_is_in_order() -> None:
    nil = nilradical_dual_weights(A2)
    built = [
        nil,
        WeightMultiset.from_dict(A2, {(1, 0): 1, (0, 1): 2, (-1, 1): 1}),
        graded_power("sym", nil, 3),
        graded_power("ext", nil, 2),
        invariant_page(A2, 2, 1, 0, (0, 0), WeightMultiset.trivial(A2), 4).gammas,
        invariant_page(A2, 2, 1, 1, (0, 0), nil, 4).gammas,
    ]
    for ws in built:
        assert ws.dominant is None and len(ws.items) > 1
        ws.check_system(A2)


def test_a_w_stable_multiset_is_not_scanned() -> None:
    # A character keeps only its dominant entries until `items` is read.
    character = weyl_character(A2, (2, 1))
    character.check_system(A2)
    assert character._items is None
