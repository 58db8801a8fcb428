from __future__ import annotations

import pytest

from chevbounds.errors import InputError, ResourceLimitError
from chevbounds.modchar import (
    WeightMultiset,
    combine,
    graded_power,
    nilradical_dual_weights,
    weyl_character,
    weyl_dimension,
)
from chevbounds.rootsys import build_root_system

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
B2 = build_root_system("B", 2)


def test_multiset_construction() -> None:
    ws = WeightMultiset.from_dict({(1, 0): 2, (0, 1): 1, (2, 2): 0})
    assert ws.items == (((0, 1), 1), ((1, 0), 2))
    assert ws.total_dimension == 3
    assert ws.support_size == 2
    assert ws.multiplicity((1, 0)) == 2
    assert ws.multiplicity((5, 5)) == 0
    assert not ws.is_empty()
    assert WeightMultiset.trivial(A2).items == (((0, 0), 1),)
    assert WeightMultiset.single(A2, A2.fundamental_weight(1), 3).items == (
        ((1, 0), 3),
    )


def test_nilradical_dual_weights() -> None:
    nil = nilradical_dual_weights(A2)
    assert nil.items == (((-1, 2), 1), ((1, 1), 1), ((2, -1), 1))
    assert nilradical_dual_weights(B2).total_dimension == 4


def test_small_characters() -> None:
    ch3 = weyl_character(A1, A1.weight((3,)))
    assert ch3.as_dict() == {(3,): 1, (1,): 1, (-1,): 1, (-3,): 1}

    adjoint = weyl_character(A2, A2.weight((1, 1)))
    assert adjoint.total_dimension == 8
    assert adjoint.multiplicity((0, 0)) == 2
    assert adjoint.support_size == 7


def test_characters_are_weyl_symmetric() -> None:
    for rs, coords in ((A2, (1, 1)), (B2, (1, 1))):
        ch = weyl_character(rs, rs.weight(coords))
        for w, mult in ch.coords_items():
            for i in range(rs.rank):
                assert ch.multiplicity(rs.reflect(w, i)) == mult


def test_dimensions_match_weyl_formula() -> None:
    cases = {
        ("A", 3, 2): 6,
        ("B", 3, 1): 7,
        ("B", 3, 2): 21,
        ("B", 3, 3): 8,
        ("C", 3, 1): 6,
        ("C", 3, 2): 14,
        ("G", 2, 1): 7,
        ("G", 2, 2): 14,
    }
    for (family, rank, i), dim in cases.items():
        rs = build_root_system(family, rank)
        lam = rs.fundamental_weight(i)
        assert weyl_dimension(rs, lam) == dim
        assert weyl_character(rs, lam).total_dimension == dim


def test_weyl_dimension_landmarks() -> None:
    e8 = build_root_system("E", 8)
    assert weyl_dimension(e8, e8.fundamental_weight(8)) == 248
    assert weyl_dimension(A2, A2.weight((1, 1))) == 8
    assert weyl_dimension(B2, B2.fundamental_weight(2)) == 4
    with pytest.raises(InputError):
        weyl_dimension(A2, A2.weight((-1, 0)))


def test_graded_powers() -> None:
    nil = nilradical_dual_weights(A2)
    sym2 = graded_power("sym", nil, 2)
    assert sym2.total_dimension == 6
    ext3 = graded_power("ext", nil, 3)
    assert ext3.items == (((2, 2), 1),)  # the full top power has weight 2*rho
    assert graded_power("ext", nil, 4).is_empty()
    assert graded_power("sym", nil, 0).items == (((0, 0), 1),)
    with pytest.raises(InputError):
        graded_power("tensor", nil, 2)


def test_graded_power_dimensions() -> None:
    nil = nilradical_dual_weights(B2)
    n = nil.total_dimension
    from math import comb

    for k in range(0, 5):
        assert graded_power("sym", nil, k).total_dimension == comb(n + k - 1, k)
        assert graded_power("ext", nil, k).total_dimension == comb(n, k)


def test_combine() -> None:
    ch = weyl_character(A1, A1.fundamental_weight(1))
    out = combine(ch, ch, 2, 3)
    assert out.as_dict() == {(10,): 1, (8,): 1, (-8,): 1, (-10,): 1}

    nil = nilradical_dual_weights(A2)
    sq = combine(nil, nil, 0, 2)
    assert sq.total_dimension == 9
    assert sq.multiplicity((1, 1)) == 2


def test_resource_caps() -> None:
    with pytest.raises(ResourceLimitError):
        weyl_character(A2, A2.weight((9, 9)), cap=10)
    with pytest.raises(ResourceLimitError):
        graded_power("sym", nilradical_dual_weights(B2), 9, cap=5)
    # combine's cap is its number of distinct weights.
    nil = nilradical_dual_weights(B2)
    full = combine(nil, nil, 1, 3)
    assert combine(nil, nil, 1, 3, cap=full.support_size) == full
    with pytest.raises(ResourceLimitError, match="combine"):
        combine(nil, nil, 1, 3, cap=full.support_size - 1)


def test_character_cache_returns_consistent_objects() -> None:
    first = weyl_character(A2, A2.weight((1, 1)))
    second = weyl_character(A2, A2.weight((1, 1)))
    assert first.items == second.items
