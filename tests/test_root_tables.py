"""The per-system root tables against the per-call builds they replaced.

`modchar._root_tables` builds, once per root system, the root data that the
Weyl dimension, the dominant search and the W_J-orbits read.  The oracles
here are those three functions as they were before the tables: each builds
its own root data from `rs.positive_roots` on every call.  The table-driven
versions must give equal results, in the same order.
"""

from __future__ import annotations

import itertools
from operator import mul

from hypothesis import given, settings
from hypothesis import strategies as st

from chevbounds import modchar
from chevbounds.errors import OracleError
from chevbounds.modchar import _root_tables, _stabilizer_orbits, weyl_character, weyl_dimension
from chevbounds.rootsys import FAMILIES, MAX_CLASSICAL_RANK, Coords, RootSystem, build_root_system

LOWEST_RANK = {"A": 1, "B": 2, "C": 2, "D": 4, "E": 6, "F": 4, "G": 2}
HIGHEST_RANK = {"E": 8, "F": 4, "G": 2}
ALL_SYSTEMS = [
    build_root_system(family, rank)
    for family in FAMILIES
    for rank in range(LOWEST_RANK[family], HIGHEST_RANK.get(family, MAX_CLASSICAL_RANK) + 1)
]


def oracle_weyl_dimension(rs: RootSystem, coords: Coords) -> int:
    shifted = tuple(c + 1 for c in coords)
    num = 1
    den = 1
    for root in rs.positive_roots:
        num *= sum(map(mul, shifted, root.coroot_pairing))
        den *= sum(root.coroot_pairing)
    if num % den:
        raise OracleError("Weyl dimension formula did not give an integer")
    return num // den


def oracle_dominant_levels(rs: RootSystem, lam: Coords) -> dict[Coords, int]:
    steps = []
    for root in rs.positive_roots:
        need = [(i, c) for i, c in enumerate(root.omega_coords) if c > 0]
        steps.append((root.omega_coords, sum(root.root_coords), need))
    level = {lam: 0}
    frontier = [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            for omega, height, need in steps:
                for i, c in need:
                    if mu[i] < c:
                        break
                else:
                    cand = tuple(a - b for a, b in zip(mu, omega))
                    if cand not in level:
                        level[cand] = level[mu] + height
                        nxt.append(cand)
        frontier = nxt
    return level


def oracle_stabilizer_orbits(rs: RootSystem, zeros: Coords) -> tuple:
    component: dict[int, int] = {}
    for start in zeros:
        stack = [] if start in component else [start]
        while stack:
            i = stack.pop()
            component[i] = start
            stack += [j for j in zeros if j not in component and rs.cartan_matrix[i][j]]
    orbits: dict[tuple, list[int]] = {}
    num = den = 1
    for k, root in enumerate(rs.positive_roots):
        coeffs = root.root_coords
        shape = tuple(c for i, c in enumerate(coeffs) if i not in component)
        if any(shape):
            height = sum(coeffs)
            num *= height + 1
            den *= height
        else:
            shape = component[next(i for i, c in enumerate(coeffs) if c)]
        orbit = orbits.setdefault((shape, root.length2), [k, 0])
        orbit[1] += 1
    return tuple(map(tuple, orbits.values())), num // den


def _check_orbits(rs: RootSystem, zeros: Coords) -> None:
    assert _stabilizer_orbits.__wrapped__(rs, zeros) == oracle_stabilizer_orbits(rs, zeros), (
        rs.name, zeros,
    )


def test_the_tables_agree_on_every_fundamental_weight_and_rho() -> None:
    assert len(ALL_SYSTEMS) == 48
    for rs in ALL_SYSTEMS:
        rho = (1,) * rs.rank
        for lam in [rs.fundamental_weight(i).coords for i in range(1, rs.rank + 1)] + [rho]:
            assert weyl_dimension(rs, lam) == oracle_weyl_dimension(rs, lam), (rs.name, lam)
            _check_orbits(rs, modchar._zero_set(lam))
            # Below rho lie 1.5 * 10**4 to 6.6 * 10**5 dominant weights at E8
            # and at ranks 9-12 (a minute in all), and at most 3 584 elsewhere.
            if lam != rho or (rs.rank <= 8 and rs.name != "E8"):
                got = modchar._dominant_levels(rs, lam)
                # Same weights, same heights, found in the same order.
                assert list(got.items()) == list(oracle_dominant_levels(rs, lam).items())


def test_the_tables_agree_on_every_j_up_to_rank_6() -> None:
    pairs = 0
    for rs in ALL_SYSTEMS:
        if rs.rank <= 6:
            for size in range(rs.rank + 1):
                for zeros in itertools.combinations(range(rs.rank), size):
                    _check_orbits(rs, zeros)
                    pairs += 1
    # 2^rank subsets each: A1-A6, B2-B6, C2-C6, D4-D6, E6, F4, G2.
    assert pairs == 126 + 2 * 124 + 112 + 64 + 16 + 4


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([rs for rs in ALL_SYSTEMS if rs.rank >= 7]),
    st.lists(st.booleans(), min_size=MAX_CLASSICAL_RANK, max_size=MAX_CLASSICAL_RANK),
)
def test_the_tables_agree_on_drawn_j_at_ranks_7_to_12(rs: RootSystem, flags: list[bool]) -> None:
    _check_orbits(rs, tuple(i for i in range(rs.rank) if flags[i]))


def test_every_fundamental_character_of_b8_and_e8_builds_the_tables_once() -> None:
    # The character, orbit and table caches start empty, so every character
    # is built; each system's first one builds its tables, and the rest share them.
    systems = [build_root_system("B", 8), build_root_system("E", 8)]
    modchar._character_cached.cache_clear()
    _stabilizer_orbits.cache_clear()
    _root_tables.cache_clear()
    for rs in systems:
        for i in range(1, rs.rank + 1):
            lam = rs.fundamental_weight(i)
            # E8's omega_4 has dimension 6 899 079 264.
            assert weyl_character(rs, lam, cap=10**10).total_dimension == weyl_dimension(rs, lam)
    info = _root_tables.cache_info()
    assert info.misses == len(systems) == info.currsize
    assert info.hits > 0
