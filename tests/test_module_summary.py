"""The module summary against direct scans of every weight.

`WeightMultiset.summary` holds b, the largest root-basis coefficient and the
class orders modulo the root lattice over the Weyl orbits of the weights,
scanned once per multiset; a W-stable multiset scans its dominant entries
only, any other one its weights' dominant representatives.  `b_invariant`
and `bounds._module_stats` read it.  The oracle here expands every weight
and takes each maximum over all of them, the root-basis coordinates through
an inverse of the Cartan matrix built here with fractions, not through the
library's adjugate.  A plain multiset's weights are first closed under the
simple reflections, so the oracle scans each one's whole Weyl orbit.  b is
the largest pairing with a long coroot: the oracle pairs every weight of a
plain multiset's orbits with every long coroot, and every weight of a
character with the highest coroot, whose Weyl orbit is the long coroots
while the character's weights are one union of Weyl orbits.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import gcd, lcm
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevbounds.bounds import _module_stats, compare_thresholds
from chevbounds.modchar import WeightMultiset, weyl_character, weyl_dimension
from chevbounds.rootsys import MAX_CLASSICAL_RANK, Coords, RootSystem, build_root_system
from chevbounds.weightcomb import b_invariant

# The systems and dimension cap of ACCEPTANCE 8: 155 fundamental characters.
CONCRETE_RANKS = {
    "A": range(1, 9),
    "B": range(2, 9),
    "C": range(3, 9),
    "D": range(4, 9),
    "E": range(6, 9),
    "F": (4,),
    "G": (2,),
}
PRIMES = (2, 3, 5, 7)
RANK_TWO = tuple(
    build_root_system(f, r) for f, r in (("A", 1), ("A", 2), ("B", 2), ("C", 2), ("G", 2))
)


def _scaled_inverse(rs: RootSystem) -> tuple[list[list[int]], int]:
    """(D * C^-1, D) with D the least common denominator, by Gauss-Jordan over fractions.

    Row i of the Cartan matrix C is alpha_i in fundamental-weight
    coordinates, so a weight w has root-basis coordinates w C^-1.
    """
    n = rs.rank
    rows = [[Q(x) for x in row] + [Q(int(i == j)) for j in range(n)]
            for i, row in enumerate(rs.cartan_matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                rows[r] = [a - rows[r][col] * b for a, b in zip(rows[r], rows[col])]
    inverse = [row[n:] for row in rows]
    den = lcm(*(x.denominator for row in inverse for x in row))
    return [[int(x * den) for x in row] for row in inverse], den


def _long_coroots(rs: RootSystem) -> list[Coords]:
    top = max(root.length2 for root in rs.positive_roots)
    return [root.coroot_pairing for root in rs.positive_roots if root.length2 == top]


def _direct_scan(
    rs: RootSystem, weights: list[Coords], coroots: list[Coords]
) -> tuple[int, Q, tuple[int, ...]]:
    """(b over these positive coroots, largest root-basis coefficient, sorted class orders)."""
    # The negative coroots pair to the negatives, hence abs.
    b = max(abs(sum(map(mul, v, w))) for w in weights for v in coroots)
    inverse, den = _scaled_inverse(rs)
    columns = list(zip(*inverse))
    coefficient = None
    orders = set()
    for w in weights:
        scaled = [sum(map(mul, w, col)) for col in columns]
        top_coefficient = Q(max(scaled), den)
        if coefficient is None or top_coefficient > coefficient:
            coefficient = top_coefficient
        orders.add(den // gcd(den, *scaled))
    return b, coefficient, tuple(sorted(orders))


def _orbit_closure(rs: RootSystem, weights: list[Coords]) -> list[Coords]:
    """Every weight of the Weyl orbits of these weights, by closing under the simple reflections."""
    seen = set(weights)
    stack = list(seen)
    while stack:
        w = stack.pop()
        for i, row in enumerate(rs.cartan_matrix):
            image = tuple(x - w[i] * r for x, r in zip(w, row))
            if image not in seen:
                seen.add(image)
                stack.append(image)
    return sorted(seen)


def _p_part(n: int, p: int) -> int:
    part = 1
    while n % p == 0:
        n, part = n // p, part * p
    return part


def _assert_summary_matches(
    rs: RootSystem, module: WeightMultiset, coroots: list[Coords], orbits: bool = False
) -> None:
    """The summary of module against a direct scan of its weights, or of their orbits."""
    weights = [w for w, _ in module.items]
    if orbits:
        weights = _orbit_closure(rs, weights)
    b, coefficient, orders = _direct_scan(rs, weights, coroots)
    assert b_invariant(rs, module).value == b
    for p in PRIMES:
        assert _module_stats(rs, module, p) == (coefficient, max(_p_part(o, p) for o in orders))


def _fundamental_characters() -> list[tuple[RootSystem, WeightMultiset]]:
    out = []
    for family, ranks in CONCRETE_RANKS.items():
        for rank in ranks:
            rs = build_root_system(family, rank)
            for i in range(1, rank + 1):
                omega = rs.fundamental_weight(i)
                if weyl_dimension(rs, omega) <= 10**5:
                    out.append((rs, weyl_character(rs, omega)))
    return out


def test_summary_of_every_acceptance_character_is_a_scan_of_all_its_weights() -> None:
    characters = _fundamental_characters()
    assert len(characters) == 155
    for rs, character in characters:
        _assert_summary_matches(rs, character, [rs.highest_root_pairing])


weight_tables = st.sampled_from(RANK_TWO).flatmap(
    lambda rs: st.tuples(
        st.just(rs),
        st.dictionaries(
            st.tuples(*[st.integers(-6, 6)] * rs.rank), st.integers(1, 3), min_size=1, max_size=8
        ),
    )
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(weight_tables)
def test_summary_of_a_plain_multiset_is_a_scan_of_its_weights(case) -> None:
    rs, table = case
    module = WeightMultiset.from_dict(rs, table)
    _assert_summary_matches(rs, module, _long_coroots(rs), orbits=True)
    # Only the orbits count: the dominant representatives give the same summary.
    reps = {rs.dominant_representative(w): 1 for w in table}
    assert module.summary == WeightMultiset.from_dict(rs, reps).summary


def test_the_trivial_module_is_the_character_of_zero() -> None:
    # k = L(0) is built as every character is, and page queries share it.
    systems = [
        build_root_system(family, rank)
        for family, low in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
        for rank in range(low, MAX_CLASSICAL_RANK + 1)
    ] + [build_root_system(*fr) for fr in (("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2))]
    assert len(systems) == 48
    for rs in systems:
        trivial = WeightMultiset.trivial(rs)
        assert WeightMultiset.trivial(rs) is trivial
        character = weyl_character(rs, rs.zero)
        assert hash(trivial) == hash(character) and trivial.dominant == character.dominant
        assert trivial.items == character.items and trivial.summary == character.summary
        scanned = WeightMultiset.from_dict(rs, {rs.zero: 1})
        assert trivial == scanned and hash(trivial) == hash(scanned)
        assert trivial.summary == scanned.summary == (0, 0, frozenset({1}))
        _assert_summary_matches(rs, trivial, _long_coroots(rs))
    # What is not a root system is refused before the character cache is read.
    for bad in ([], "A2", None):
        with pytest.raises(AttributeError, match="object has no attribute 'rank'"):
            WeightMultiset.trivial(bad)


def test_a_second_comparison_scans_no_weight(monkeypatch) -> None:
    e8 = build_root_system("E", 8)
    character = weyl_character(e8, e8.fundamental_weight(1))
    # A fresh W-stable multiset whose summary nobody has read yet.
    module = WeightMultiset(e8, None, character.dominant)
    calls = []
    scaled = RootSystem.root_basis_scaled

    def counted(self, coords):
        calls.append(coords)
        return scaled(self, coords)

    monkeypatch.setattr(RootSystem, "root_basis_scaled", counted)
    first = compare_thresholds(e8, 3, 2, module)
    assert len(calls) == len(character.dominant)
    for p, m in ((3, 2), (2, 5), (7, 1)):
        compare_thresholds(e8, p, m, module)
    assert len(calls) == len(character.dominant)
    assert compare_thresholds(e8, 3, 2, module) == first


def _small_weights(rs: RootSystem) -> list[Coords]:
    """The zero weight, each 2·omega_i, and each omega_i + omega_j with i <= j."""
    n = rs.rank
    out = [rs.zero]
    for i in range(n):
        for j in range(i, n):
            lam = [0] * n
            lam[i] += 1
            lam[j] += 1
            out.append(tuple(lam))
    return out


def test_a_characters_summary_is_that_of_its_dominant_entries() -> None:
    # The summary of a character reads its highest weight alone; a multiset
    # holding the same dominant entries scans every one of them.
    cases = _fundamental_characters()
    for family, ranks in CONCRETE_RANKS.items():
        for rank in ranks:
            rs = build_root_system(family, rank)
            for lam in _small_weights(rs):
                if weyl_dimension(rs, lam) <= 10**4:
                    cases.append((rs, weyl_character(rs, lam)))
    assert len(cases) == 485
    for rs, character in cases:
        assert character.summary == WeightMultiset(rs, None, character.dominant).summary
