"""Dominant-first Weyl characters against a full-support brute force.

The library builds a character from its dominant weights only.  The oracle
here searches the whole weight support, runs Freudenthal's recursion with
plain support membership, and fills in every weight; the two must agree
entry for entry.  The orbit invariants read from the dominant entries must
also match the ones read from the same multiset without its W-stable flag.
A character spreads its dominant entries along their orbits only when
`items` is read; the sizes it reports before that come from orbit sizes.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction as Q
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevbounds import modchar
from chevbounds.bounds import _module_stats, compare_thresholds, generic_thresholds
from chevbounds.cli import run
from chevbounds.errors import ResourceLimitError
from chevbounds.modchar import (
    DEFAULT_ENTRY_CAP,
    WeightMultiset,
    _character_cached,
    _orbit,
    _orbit_size,
    weyl_character,
    weyl_dimension,
)
from chevbounds.rootsys import Coords, RootSystem, build_root_system
from chevbounds.weightcomb import b_invariant

SYSTEMS = (
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4),
    ("D", 4), ("F", 4), ("G", 2),
)
MAX_COORD = {1: 6, 2: 4, 3: 3, 4: 2}
MAX_DIM = 2000


def _support(rs: RootSystem, lam: Coords) -> set[Coords]:
    """All weights of the highest-weight module with highest weight lam.

    Level-by-level search downward from lam.  A candidate that is dominant is
    always a weight; a non-dominant candidate is a weight exactly when its
    reflection through any strictly negative coordinate (which lands on an
    earlier level) is one.
    """
    alpha_rows = rs.cartan_matrix
    support = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for w in frontier:
            for row in alpha_rows:
                cand = tuple(a - b for a, b in zip(w, row))
                if cand in support:
                    continue
                for i, c in enumerate(cand):
                    if c < 0:
                        mirrored = tuple(
                            x - c * r for x, r in zip(cand, alpha_rows[i])
                        )
                        accept = mirrored in support
                        break
                else:
                    accept = True
                if accept:
                    support.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return support


def full_support_character(rs: RootSystem, lam: Coords) -> dict[Coords, int]:
    """Every weight of L(lam) with its multiplicity, from the full support."""
    n, det, d = rs.rank, rs.cartan_det, rs.d_symmetrizer
    support = _support(rs, lam)

    def scaled_norm(coords: Coords) -> int:
        v = tuple(c + 1 for c in coords)
        scaled = rs.root_basis_scaled(v)
        return sum(scaled[j] * d[j] * v[j] for j in range(n))

    def level(coords: Coords) -> int:
        diff = tuple(a - b for a, b in zip(lam, coords))
        return sum(rs.root_basis_scaled(diff)) // det

    root_data = [
        (root.omega_coords, tuple(root.root_coords[j] * d[j] for j in range(n)))
        for root in rs.positive_roots
    ]
    dominants = sorted((c for c in support if min(c) >= 0), key=level)
    top_norm = scaled_norm(lam)
    mult = {lam: 1}
    for mu in dominants[1:]:
        total = 0
        for omega, ip_vec in root_data:
            nu = tuple(a + b for a, b in zip(mu, omega))
            while nu in support:
                m_nu = mult[rs.dominant_representative(nu)]
                total += m_nu * sum(v * c for v, c in zip(ip_vec, nu))
                nu = tuple(a + b for a, b in zip(nu, omega))
        value = Q(2 * det * total, top_norm - scaled_norm(mu))
        assert value.denominator == 1 and value > 0
        mult[mu] = int(value)
    return {w: mult[rs.dominant_representative(w)] for w in support}


def _cases() -> list[tuple[str, int, Coords]]:
    out = []
    for family, rank in SYSTEMS:
        rs = build_root_system(family, rank)
        for lam in itertools.product(range(MAX_COORD[rank] + 1), repeat=rank):
            if weyl_dimension(rs, lam) <= MAX_DIM:
                out.append((family, rank, lam))
    return out


CASES = _cases()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CASES))
def test_dominant_first_character_matches_full_support(case) -> None:
    family, rank, lam = case
    rs = build_root_system(family, rank)
    ch = weyl_character(rs, lam)
    oracle = full_support_character(rs, lam)
    assert ch.items == tuple(sorted(oracle.items()))
    assert ch.dominant == tuple(
        sorted((w, m) for w, m in oracle.items() if min(w) >= 0)
    )

    plain = WeightMultiset.from_dict(rs, ch.as_dict())
    assert plain.dominant is None
    assert plain == ch and hash(plain) == hash(ch) and repr(plain) == repr(ch)
    assert b_invariant(rs, plain) == b_invariant(rs, ch)
    for p in (2, 3, 5, 7):
        assert _module_stats(rs, plain, p) == _module_stats(rs, ch, p)
        assert compare_thresholds(rs, p, 2, plain) == compare_thresholds(rs, p, 2, ch)


def test_case_pool_covers_every_family() -> None:
    assert {family for family, _, _ in CASES} == set("ABCDFG")
    assert len(CASES) > 200


def test_trivial_module_carries_its_dominant_entry() -> None:
    for family, rank in SYSTEMS:
        rs = build_root_system(family, rank)
        triv = WeightMultiset.trivial(rs)
        zero = (0,) * rank
        assert triv.dominant == ((zero, 1),)
        assert triv == WeightMultiset.from_dict(rs, {zero: 1})
        assert b_invariant(rs, triv).value == 0
        assert _module_stats(rs, triv, 3) == (Q(0), 1)


def test_dominant_entries_of_exceptional_characters() -> None:
    e8 = build_root_system("E", 8)
    adjoint = weyl_character(e8, e8.fundamental_weight(8))
    assert adjoint.dominant == (((0,) * 8, 8), (e8.fundamental_weight(8).coords, 1))
    assert adjoint.support_size == 241 and adjoint.total_dimension == 248


LAZY_SYSTEMS = {
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("D", 4), ("F", 4), ("G", 2),
}
LAZY_CASES = [case for case in CASES if case[:2] in LAZY_SYSTEMS]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(LAZY_CASES))
def test_lazy_character_is_the_eager_orbit_expansion(case) -> None:
    family, rank, lam = case
    rs = build_root_system(family, rank)
    # A fresh character, not the cached one an earlier test may have expanded.
    fresh = _character_cached.__wrapped__(rs, lam, DEFAULT_ENTRY_CAP)
    dim = weyl_dimension(rs, lam)
    assert fresh.total_dimension == dim
    support = fresh.support_size

    eager: dict[Coords, int] = {}
    for mu, m in fresh.dominant:
        orbit = _orbit(rs, mu)
        assert _orbit_size(rs, mu) == len(orbit)
        eager.update(dict.fromkeys(orbit, m))
    assert fresh.items == tuple(sorted(eager.items()))
    assert support == len(fresh.items) == fresh.support_size
    assert sum(m for _, m in fresh.items) == dim == fresh.total_dimension

    # W-invariance: every simple reflection permutes the weights and keeps
    # their multiplicities.
    table = fresh.as_dict()
    for i in range(rank):
        assert {rs.reflect(w, i): m for w, m in table.items()} == table


def test_threshold_readers_never_expand_a_character(monkeypatch, capsys) -> None:
    def refuse(rs, start):
        raise AssertionError("orbit expanded")

    monkeypatch.setattr(modchar, "_orbit", refuse)
    _character_cached.cache_clear()
    for family, rank in (("A", 3), ("B", 3), ("G", 2), ("F", 4), ("E", 6)):
        rs = build_root_system(family, rank)
        for i in range(1, min(rank, 4) + 1):
            ch = weyl_character(rs, rs.fundamental_weight(i))
            assert not ch.is_empty()
            assert ch.total_dimension == weyl_dimension(rs, rs.fundamental_weight(i))
            assert ch.support_size >= len(ch.dominant)
            for p, m in ((2, 1), (3, 2), (5, 3)):
                generic_thresholds(rs, p, m, b_invariant(rs, ch).value)
                compare_thresholds(rs, p, m, ch)
    for command in ("generic", "compare"):
        argv = [command, "--type", "D4", "--p", "3", "--m", "2", "--weight", "0,1,0,0"]
        assert run(argv) == 0
    capsys.readouterr()
    # Only a reader of every weight expands.
    with pytest.raises(AssertionError, match="orbit expanded"):
        ch.items


def test_thresholds_never_run_freudenthal(monkeypatch, capsys) -> None:
    cases = [("A", 3, (1, 0, 1)), ("B", 3, (0, 1, 1)), ("G", 2, (2, 1)), ("F", 4, (1, 0, 0, 1))]
    expected = []
    for family, rank, lam in cases:
        rs = build_root_system(family, rank)
        built = WeightMultiset(rs, None, weyl_character(rs, lam).dominant)
        expected.append((b_invariant(rs, built), compare_thresholds(rs, 3, 2, built)))

    def refuse(*args):
        raise AssertionError("Freudenthal ran")

    monkeypatch.setattr(modchar, "_freudenthal_multiplicities", refuse)
    _character_cached.cache_clear()
    for (family, rank, lam), (b, report) in zip(cases, expected):
        rs = build_root_system(family, rank)
        ch = weyl_character(rs, lam)
        assert b_invariant(rs, ch) == b and compare_thresholds(rs, 3, 2, ch) == report
        generic_thresholds(rs, 5, 2, b_invariant(rs, ch).value)
    # E8 at rho has dimension 2**120, far above the default cap, and
    # b = <rho, theta-vee> = h - 1 = 29.
    argv = ["--type", "E8", "--p", "5", "--m", "3", "--weight", "1,1,1,1,1,1,1,1"]
    for command in ("generic", "compare"):
        assert run([command, *argv]) == 0
    assert "\nb_M=29\n" in capsys.readouterr().out
    with pytest.raises(AssertionError, match="Freudenthal ran"):
        ch.total_dimension


# Each cap passes the dimension and is below the Freudenthal steps.
@pytest.mark.parametrize("family, rank, lam, cap", [
    ("A", 1, (10,), 14), ("A", 1, (100,), 1274), ("A", 2, (60, 0), 1891),
])
def test_the_first_read_raises_what_the_eager_build_raised(family, rank, lam, cap) -> None:
    rs = build_root_system(family, rank)
    with pytest.raises(ResourceLimitError) as eager:
        modchar._freudenthal_multiplicities(rs, lam, modchar._dominant_levels(rs, lam), cap)
    character = weyl_character(rs, lam, cap)
    # Every reader of the multiplicities raises it, each time.
    for read in ("dominant", "items", "total_dimension", "support_size", "dominant"):
        with pytest.raises(ResourceLimitError) as lazy:
            getattr(character, read)
        assert str(lazy.value) == str(eager.value)
    assert character._dominant is None and not character.is_empty()
    if lam == (10,):
        assert str(eager.value) == (
            "character of (10,): Freudenthal steps 15, above the cap 14; raise the cap to allow"
        )


def _dominant_by_reflection(rs: RootSystem, coords: Coords) -> Coords:
    """Reflect through the first negative coordinate until none is left."""
    while True:
        for i, c in enumerate(coords):
            if c < 0:
                coords = rs.reflect(coords, i)
                break
        else:
            return coords


def all_roots_freudenthal(
    rs: RootSystem, lam: Coords, level: dict[Coords, int]
) -> tuple[dict[Coords, int], int]:
    """Freudenthal's recursion summed over every positive root, and its steps."""
    n, det, d = rs.rank, rs.cartan_det, rs.d_symmetrizer

    def scaled_norm(coords: Coords) -> int:
        v = tuple(c + 1 for c in coords)
        scaled = rs.root_basis_scaled(v)
        return sum(scaled[j] * d[j] * v[j] for j in range(n))

    root_data = [
        (root.omega_coords, tuple(root.root_coords[j] * d[j] for j in range(n)))
        for root in rs.positive_roots
    ]
    top_norm = scaled_norm(lam)
    mult = {lam: 1}
    steps = 0
    for mu in sorted(level, key=level.__getitem__):
        if mu == lam:
            continue
        total = 0
        for omega, ip_vec in root_data:
            nu = tuple(a + b for a, b in zip(mu, omega))
            while (dom := _dominant_by_reflection(rs, nu)) in level:
                total += mult[dom] * sum(v * c for v, c in zip(ip_vec, nu))
                nu = tuple(a + b for a, b in zip(nu, omega))
                steps += 1
        value = Q(2 * det * total, top_norm - scaled_norm(mu))
        assert value.denominator == 1 and value > 0
        mult[mu] = int(value)
    return mult, steps


def uncut_freudenthal(
    rs: RootSystem, lam: Coords, level: dict[Coords, int]
) -> tuple[dict[Coords, int], int, list[Coords]]:
    """The library's W_J-orbit recursion without the norm bound: its
    multiplicities, its steps and the weights it reflects, in order.

    Each alpha-string walk reflects every weight it builds, one reflection
    at a time, and ends at the first one outside the module.
    """
    n, det, d = rs.rank, rs.cartan_det, rs.d_symmetrizer

    def scaled_norm(coords: Coords) -> int:
        v = tuple(c + 1 for c in coords)
        scaled = rs.root_basis_scaled(v)
        return sum(scaled[j] * d[j] * v[j] for j in range(n))

    roots = modchar._root_tables(rs)[0]
    top_norm = scaled_norm(lam)
    mult = {lam: 1}
    steps = 0
    built = []
    for mu in sorted(level, key=level.__getitem__):
        if mu == lam:
            continue
        total = 0
        for k, count in modchar._stabilizer_orbits(rs, modchar._zero_set(mu))[0]:
            omega, ip_vec = roots[k][0], roots[k][3]
            term = 0
            nu = tuple(a + b for a, b in zip(mu, omega))
            while True:
                built.append(nu)
                dom = _dominant_by_reflection(rs, nu)
                if dom not in level:
                    break
                term += mult[dom] * sum(v * c for v, c in zip(ip_vec, nu))
                nu = tuple(a + b for a, b in zip(nu, omega))
                steps += 1
            total += count * term
        value = Q(2 * det * total, top_norm - scaled_norm(mu))
        assert value.denominator == 1 and value > 0
        mult[mu] = int(value)
    return mult, steps, built


def _orbit_sum_freudenthal(monkeypatch, rs: RootSystem, lam: Coords, level) -> tuple:
    """The library's recursion and the last step count it checked against the cap."""
    checked = [0]
    real_check = modchar._check_cap

    def record(stage, size, cap, what="distinct weights"):
        checked.append(size)
        real_check(stage, size, cap, what)

    with monkeypatch.context() as patch:
        patch.setattr(modchar, "_check_cap", record)
        mult = modchar._freudenthal_multiplicities(rs, lam, level, DEFAULT_ENTRY_CAP)
    return mult, checked[-1]


# The 155 fundamental characters of ACCEPTANCE 8 (dimension at most 10**5).
ACCEPTANCE_8_RANKS = {
    "A": range(1, 9), "B": range(2, 9), "C": range(3, 9), "D": range(4, 9),
    "E": range(6, 9), "F": (4,), "G": (2,),
}


def _fundamental_cases() -> list[tuple[str, int, int, Coords]]:
    out = []
    for family, ranks in ACCEPTANCE_8_RANKS.items():
        for rank in ranks:
            rs = build_root_system(family, rank)
            for i in range(1, rank + 1):
                lam = rs.fundamental_weight(i).coords
                if weyl_dimension(rs, lam) <= 10**5:
                    out.append((family, rank, i, lam))
    return out


FUNDAMENTAL_CASES = _fundamental_cases()


def test_orbit_sum_matches_every_root_on_the_fundamental_characters(monkeypatch) -> None:
    assert len(FUNDAMENTAL_CASES) == 155
    for family, rank, i, lam in FUNDAMENTAL_CASES:
        rs = build_root_system(family, rank)
        level = modchar._dominant_levels(rs, lam)
        expected, old_steps = all_roots_freudenthal(rs, lam, level)
        got, steps = _orbit_sum_freudenthal(monkeypatch, rs, lam, level)
        assert got == expected, (rs.name, i)
        assert steps <= old_steps
        # The norm bound cuts only steps that would fail.
        assert (got, steps) == uncut_freudenthal(rs, lam, level)[:2], (rs.name, i)


def test_orbit_sum_matches_every_root_on_the_case_pool(monkeypatch) -> None:
    fewer = 0
    for family, rank, lam in CASES:
        rs = build_root_system(family, rank)
        level = modchar._dominant_levels(rs, lam)
        expected, old_steps = all_roots_freudenthal(rs, lam, level)
        got, steps = _orbit_sum_freudenthal(monkeypatch, rs, lam, level)
        assert got == expected, (family, rank, lam)
        assert steps <= old_steps
        assert (got, steps) == uncut_freudenthal(rs, lam, level)[:2], (family, rank, lam)
        fewer += steps < old_steps
    assert fewer > len(CASES) // 2


@pytest.mark.parametrize(
    "family, rank, lam",
    [("G", 2, (2, 2)), ("B", 3, (2, 2, 2)), ("F", 4, (1, 1, 1, 1)), ("E", 6, (1, 0, 0, 0, 0, 1))],
)
def test_the_step_cap_fires_one_below_the_uncut_count(family, rank, lam) -> None:
    rs = build_root_system(family, rank)
    level = modchar._dominant_levels(rs, lam)
    mult, steps, _ = uncut_freudenthal(rs, lam, level)
    assert modchar._freudenthal_multiplicities(rs, lam, level, steps) == mult
    message = (
        rf"^character of {re.escape(str(lam))}: Freudenthal steps {steps}, "
        rf"above the cap {steps - 1}; raise the cap to allow$"
    )
    with pytest.raises(ResourceLimitError, match=message):
        modchar._freudenthal_multiplicities(rs, lam, level, steps - 1)


def _norm(rs: RootSystem, coords: Coords) -> int:
    """det |coords|^2, from the root-basis coordinates scaled by det."""
    return sum(map(mul, rs.root_basis_scaled(coords), map(mul, rs.d_symmetrizer, coords)))


def test_the_walk_reflects_only_the_uncut_walks_weights_inside_the_ball(monkeypatch) -> None:
    reflected = []
    real = RootSystem.dominant_representative

    def record(self, coords):
        reflected.append(coords)
        return real(self, coords)

    monkeypatch.setattr(RootSystem, "dominant_representative", record)
    cut = 0
    for family, rank, i, lam in FUNDAMENTAL_CASES:
        rs = build_root_system(family, rank)
        level = modchar._dominant_levels(rs, lam)
        reflected.clear()
        modchar._freudenthal_multiplicities(rs, lam, level, DEFAULT_ENTRY_CAP)
        top = _norm(rs, lam)
        built = uncut_freudenthal(rs, lam, level)[2]
        assert reflected == [nu for nu in built if _norm(rs, nu) <= top], (rs.name, i)
        cut += len(built) - len(reflected)
    # 582 of the 995 weights the uncut walks reflect lie outside the ball.
    assert cut == 582


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(LAZY_CASES))
def test_every_weight_of_a_character_lies_in_the_ball_of_its_highest_weight(case) -> None:
    family, rank, lam = case
    rs = build_root_system(family, rank)
    top = _norm(rs, lam)
    assert all(_norm(rs, nu) <= top for nu, _ in weyl_character(rs, lam).items)


def unpruned_dominant_levels(rs: RootSystem, lam: Coords) -> dict[Coords, int]:
    """The downward search that builds mu - alpha for every root before testing it."""
    steps = [(root.omega_coords, sum(root.root_coords)) for root in rs.positive_roots]
    level = {lam: 0}
    frontier = [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            for omega, height in steps:
                cand = tuple(a - b for a, b in zip(mu, omega))
                if cand not in level and all(c >= 0 for c in cand):
                    level[cand] = level[mu] + height
                    nxt.append(cand)
        frontier = nxt
    return level


def test_pruned_dominant_search_matches_the_unpruned_one() -> None:
    cases = [case[:2] + case[3:] for case in FUNDAMENTAL_CASES] + CASES
    for family, rank, lam in cases:
        rs = build_root_system(family, rank)
        got = modchar._dominant_levels(rs, lam)
        # Same weights, same heights, found in the same order.
        assert list(got.items()) == list(unpruned_dominant_levels(rs, lam).items())
