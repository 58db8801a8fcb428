from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chevbounds import modchar
from chevbounds.errors import InputError, OracleError, ResourceLimitError
from chevbounds.modchar import (
    WeightMultiset,
    _degree_fold,
    _orbit,
    _orbit_size,
    _stabilizer_orbits,
    graded_power,
    nilradical_dual_weights,
    weyl_character,
    weyl_dimension,
)
from chevbounds.rootsys import Weight, build_root_system

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
B2 = build_root_system("B", 2)


def test_multiset_construction() -> None:
    ws = WeightMultiset.from_dict(A2, {(1, 0): 2, (0, 1): 1, (2, 2): 0})
    assert ws.items == (((0, 1), 1), ((1, 0), 2))
    assert ws.total_dimension == 3
    assert ws.support_size == 2
    assert ws.as_dict().get((1, 0), 0) == 2
    assert ws.as_dict().get((5, 5), 0) == 0
    assert not ws.is_empty()
    assert WeightMultiset.trivial(A2).items == (((0, 0), 1),)
    assert WeightMultiset.from_dict(A2, {A2.fundamental_weight(1): 3}).items == (((1, 0), 3),)


@pytest.mark.parametrize(
    "table, message",
    [
        ({(0.0,): 1}, "Weight coordinates must be a tuple of integers"),
        ({"ab": 1}, "Weight coordinates must be a tuple of integers"),
        ({(1,): 1.5}, r"multiplicity of \(1,\) must be an integer, got 1.5"),
        ({(1,): Fraction(1, 2)}, r"multiplicity of \(1,\) must be an integer, got Fraction"),
    ],
    ids=["float coordinate", "string coordinate", "float multiplicity", "Fraction multiplicity"],
)
def test_from_dict_refuses_what_is_not_an_integer(table, message) -> None:
    with pytest.raises(InputError, match=message):
        WeightMultiset.from_dict(A1, table)


def test_a_weight_that_is_not_integers_is_bad_input() -> None:
    for lam in ((1.5,), (2.0,), "2"):
        with pytest.raises(InputError, match="Weight coordinates must be a tuple of integers"):
            weyl_character(A1, lam)
    with pytest.raises(InputError, match="a weight is a sequence of integers, got 1"):
        WeightMultiset.from_dict(A1, {1: 1})


def test_nilradical_dual_weights() -> None:
    nil = nilradical_dual_weights(A2)
    assert nil.items == (((-1, 2), 1), ((1, 1), 1), ((2, -1), 1))
    assert nilradical_dual_weights(B2).total_dimension == 4


def test_small_characters() -> None:
    ch3 = weyl_character(A1, Weight((3,)))
    assert ch3.as_dict() == {(3,): 1, (1,): 1, (-1,): 1, (-3,): 1}

    adjoint = weyl_character(A2, Weight((1, 1)))
    assert adjoint.total_dimension == 8
    assert adjoint.as_dict()[(0, 0)] == 2
    assert adjoint.support_size == 7


def test_characters_are_weyl_symmetric() -> None:
    for rs, coords in ((A2, (1, 1)), (B2, (1, 1))):
        ch = weyl_character(rs, Weight(coords))
        table = ch.as_dict()
        for w, mult in ch.items:
            for i in range(rs.rank):
                assert table.get(rs.reflect(w, i), 0) == mult


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
    assert weyl_dimension(A2, Weight((1, 1))) == 8
    assert weyl_dimension(B2, B2.fundamental_weight(2)) == 4
    with pytest.raises(InputError):
        weyl_dimension(A2, Weight((-1, 0)))


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


def test_graded_power_of_the_empty_multiset() -> None:
    # Every positive power of the zero module is zero; its degree-0 power,
    # like that of any module, is the trivial module of its system.
    empty = WeightMultiset(A2, ())
    for kind in ("sym", "ext"):
        for n in (1, 2, 5):
            assert graded_power(kind, empty, n) == empty
        assert graded_power(kind, empty, 0) == WeightMultiset.trivial(A2)


def test_graded_power_dimensions() -> None:
    nil = nilradical_dual_weights(B2)
    n = nil.total_dimension
    from math import comb

    for k in range(0, 5):
        assert graded_power("sym", nil, k).total_dimension == comb(n + k - 1, k)
        assert graded_power("ext", nil, k).total_dimension == comb(n, k)


def test_graded_power_refuses_weights_of_different_ranks() -> None:
    # A multiset holds the weights of one system, so from_dict refuses mixed
    # ranks before any product could cut one weight short against another.
    with pytest.raises(InputError, match=r"weight \(1,\) has 1 coordinates, A2 needs 2"):
        WeightMultiset.from_dict(A2, {(1,): 1, (1, 2): 1})
    nil = nilradical_dual_weights(A2)
    for kind in ("sym", "ext"):
        for n in (0, 2, 4):
            assert graded_power(kind, nil, n).system is A2


def test_resource_caps() -> None:
    # Each message names the stage, the size it reached, the cap and the knob.
    knob = "above the cap {}; raise the cap to allow$"
    # A character checks its dimension on the first read of its multiplicities,
    # so a graded power of it refuses the character too.
    for read in (lambda ch: ch.total_dimension, lambda ch: graded_power("sym", ch, 1)):
        with pytest.raises(
            ResourceLimitError, match=r"^character of \(9, 9\): dimension 1000, " + knob.format(10)
        ):
            read(weyl_character(A2, Weight((9, 9)), cap=10))
    with pytest.raises(
        ResourceLimitError,
        match=r"^graded power sym\^9: distinct weights \d+, " + knob.format(5),
    ):
        graded_power("sym", nilradical_dual_weights(B2), 9, cap=5)
    # A dimension and a cap too long to print are named, not a ValueError from str().
    too_long = "<int too long to print>"
    with pytest.raises(
        ResourceLimitError,
        match=re.escape(f"character of ({too_long},): dimension {too_long}, above the cap "),
    ):
        weyl_character(A1, (10**5000,), cap=10**4400).total_dimension


def test_a_built_character_reads_its_weyl_dimension_once(monkeypatch) -> None:
    calls = []

    def counted(rs, lam):
        calls.append(lam)
        return weyl_dimension(rs, lam)

    monkeypatch.setattr(modchar, "weyl_dimension", counted)
    modchar._character_cached.cache_clear()
    for rs, lam in ((A1, (7,)), (A2, (2, 1)), (B2, (1, 3))):
        ch = weyl_character(rs, lam)
        assert calls == []
        assert ch.total_dimension == weyl_dimension(rs, lam)
        ch.items, ch.support_size, ch.dominant
        assert calls == [lam]
        calls.clear()


def test_a_built_dimension_off_the_weyl_formula_is_an_oracle_error(monkeypatch) -> None:
    real = modchar._freudenthal_multiplicities

    def one_off(rs, lam, level, cap):
        mult = real(rs, lam, level, cap)
        mult[lam] += 1
        return mult

    monkeypatch.setattr(modchar, "_freudenthal_multiplicities", one_off)
    modchar._character_cached.cache_clear()
    with pytest.raises(OracleError) as built:
        weyl_character(A2, (1, 1)).dominant
    assert str(built.value) == "character of (1, 1): built dimension 14, Weyl formula says 8"
    # Numbers too long to print are named, as in every message.  The search
    # is cut to lam alone, so A1 at 10**5000 builds one weight, not 5e4999.
    monkeypatch.setattr(modchar, "_dominant_levels", lambda rs, lam: {lam: 0})
    too_long = "<int too long to print>"
    with pytest.raises(OracleError) as built:
        weyl_character(A1, (10**5000,), cap=10**5001).dominant
    assert str(built.value) == (
        f"character of ({too_long},): built dimension 4, Weyl formula says {too_long}"
    )


def test_graded_power_cap_is_checked_inside_the_fold() -> None:
    # While it folds, graded_power holds every degree up to its own.
    nil = nilradical_dual_weights(B2)
    for kind, n in (("sym", 4), ("ext", 3)):
        largest = sum(graded_power(kind, nil, k).support_size for k in range(n + 1))
        full = graded_power(kind, nil, n)
        assert graded_power(kind, nil, n, cap=largest) == full
        with pytest.raises(ResourceLimitError, match=f"graded power {kind}\\^{n}"):
            graded_power(kind, nil, n, cap=largest - 1)
    # One weight folds into degrees 0..5 one row at a time, so the cap fires
    # at the third row, not after the whole fold.
    with pytest.raises(ResourceLimitError, match="distinct weights 3,"):
        graded_power("sym", WeightMultiset.from_dict(A1, {(1,): 1}), 5, cap=2)


def test_freudenthal_steps_are_capped() -> None:
    # For A1 and weight w the dominant weights are w, w - 2, ..., w - 2K with
    # K = floor(w / 2), and the recursion at w - 2j walks j steps back to w.
    # The multiplicities, and so the step cap, wait for their first read.
    for w, steps in ((100, 1275), (101, 1275), (1000, 125250)):
        k = w // 2
        assert steps == k * (k + 1) // 2
        assert weyl_character(A1, Weight((w,)), cap=steps).total_dimension == w + 1
        character = weyl_character(A1, Weight((w,)), cap=steps - 1)
        with pytest.raises(
            ResourceLimitError,
            match=rf"^character of \({w},\): Freudenthal steps {steps}, "
            rf"above the cap {steps - 1};",
        ):
            character.total_dimension


def test_freudenthal_step_cap_fires_before_the_dimension_cap() -> None:
    # A2 at (60, 0) has dimension 1891; one root per stabilizer orbit takes
    # 9455 steps (9775 over every positive root), so the step count decides.
    assert weyl_dimension(A2, (60, 0)) == 1891
    assert weyl_character(A2, Weight((60, 0)), cap=9455).total_dimension == 1891
    character = weyl_character(A2, Weight((60, 0)), cap=9454)
    with pytest.raises(
        ResourceLimitError,
        match=r"^character of \(60, 0\): Freudenthal steps 9455, above the cap 9454;",
    ):
        character.total_dimension


def _root_orbit(rs, roots, position, start: int, zeros) -> set:
    """Indices of the W_J-orbit of one root, by closing under the reflections in J."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for k in frontier:
            for j in zeros:
                img = position[rs.reflect(roots[k], j)]
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


def _check_stabilizer_orbits(rs, zeros, orbit_cap: int = 2000) -> int:
    """Check the cached W_J-orbits and index of one J against the BFS oracle."""
    positive = [root.omega_coords for root in rs.positive_roots]
    roots = positive + [tuple(-c for c in w) for w in positive]
    position = {w: k for k, w in enumerate(roots)}
    npos = len(positive)
    orbits, index = _stabilizer_orbits(rs, zeros)
    assert sum(count for _, count in orbits) == npos
    assert [first for first, _ in orbits] == sorted(first for first, _ in orbits)
    covered = set()
    for first, count in orbits:
        orbit = _root_orbit(rs, roots, position, first, zeros)
        members = sorted(k for k in orbit if k < npos)
        assert members[0] == first and len(members) == count
        covered.update(members)
    assert covered == set(range(npos))
    mu = tuple(0 if i in zeros else 1 for i in range(rs.rank))
    assert _orbit_size(rs, mu) == index
    if index <= orbit_cap:
        assert index == len(_orbit(rs, mu))
    return index


@pytest.mark.parametrize(
    "family, rank, lengths, weyl_order",
    (
        ("A", 3, 1, 24), ("B", 3, 2, 48), ("D", 4, 1, 192), ("G", 2, 2, 12),
        ("E", 6, 1, 51840),
    ),
)
def test_stabilizer_orbits_of_the_roots(family, rank, lengths, weyl_order) -> None:
    rs = build_root_system(family, rank)
    for size in range(rank + 1):
        for zeros in itertools.combinations(range(rank), size):
            _check_stabilizer_orbits(rs, zeros)
    npos = len(rs.positive_roots)
    singletons = tuple((k, 1) for k in range(npos))
    assert _stabilizer_orbits(rs, ()) == (singletons, weyl_order)
    whole, index = _stabilizer_orbits(rs, tuple(range(rank)))
    assert len(whole) == lengths and index == 1


# The 31 systems of ACCEPTANCE 8, with the order of each Weyl group.
ACCEPTANCE_8_SYSTEMS = {
    **{("A", n): factorial(n + 1) for n in range(1, 9)},
    **{("B", n): 2**n * factorial(n) for n in range(2, 9)},
    **{("C", n): 2**n * factorial(n) for n in range(3, 9)},
    **{("D", n): 2 ** (n - 1) * factorial(n) for n in range(4, 9)},
    ("E", 6): 51840, ("E", 7): 2903040, ("E", 8): 696729600,
    ("F", 4): 1152, ("G", 2): 12,
}


def test_stabilizer_orbits_on_every_acceptance_8_system() -> None:
    pairs = 0
    for (family, rank), weyl_order in ACCEPTANCE_8_SYSTEMS.items():
        rs = build_root_system(family, rank)
        for size in range(rank + 1):
            for zeros in itertools.combinations(range(rank), size):
                index = _check_stabilizer_orbits(rs, zeros, orbit_cap=200)
                pairs += 1
                if not zeros:
                    assert index == weyl_order
    assert len(ACCEPTANCE_8_SYSTEMS) == 31 and pairs == 2486


@settings(max_examples=40, deadline=None)
@given(st.sampled_from("ABCD"), st.sets(st.integers(0, 11)))
def test_stabilizer_orbits_at_rank_12(family, zeros) -> None:
    rs = build_root_system(family, 12)
    _check_stabilizer_orbits(rs, tuple(sorted(zeros)), orbit_cap=0)


def test_character_cache_returns_consistent_objects() -> None:
    first = weyl_character(A2, Weight((1, 1)))
    second = weyl_character(A2, Weight((1, 1)))
    assert first.items == second.items


def _naive_fold(zero, factors, n):
    """Pick the zero or one term from each factor; keep the picks of degree <= n."""
    levels = [dict() for _ in range(n + 1)]
    for picks in itertools.product(*([(0, zero, 1)] + list(factor) for factor in factors)):
        deg = sum(k for k, _, _ in picks)
        if deg > n:
            continue
        key = tuple(map(sum, zip(zero, *(shift for _, shift, _ in picks))))
        levels[deg][key] = levels[deg].get(key, 0) + prod(c for _, _, c in picks)
    return levels


@st.composite
def _fold_factors(draw):
    n = draw(st.integers(1, 5))
    rank = draw(st.integers(1, 3))
    shift = st.tuples(*[st.integers(-2, 2)] * rank)
    factor = st.lists(
        st.integers(1, n), min_size=1, max_size=min(4, n), unique=True
    ).flatmap(lambda ks: st.tuples(
        *[st.tuples(st.just(k), shift, st.integers(1, 3)) for k in sorted(ks)]
    ))
    return (0,) * rank, draw(st.lists(factor, min_size=1, max_size=4)), n


# A factor with terms of degree 1 and 2 after one of degree 1: degree 2 is
# reached from degree 1 and from degree 0 within one factor.
@example(((0, 0), [((1, (1, 0), 1),), ((1, (0, 1), 2), (2, (1, -1), 3))], 3))
@settings(max_examples=300, deadline=None)
@given(_fold_factors())
def test_degree_fold_matches_the_naive_expansion(drawn) -> None:
    zero, factors, n = drawn
    expected = _naive_fold(zero, factors, n)
    total = sum(len(table) for table in expected)
    assert _degree_fold(zero, factors, n, total, "fold test") == expected
    with pytest.raises(ResourceLimitError, match=f"^fold test: distinct weights {total}, "):
        _degree_fold(zero, factors, n, total - 1, "fold test")


def test_a_long_power_of_one_weight_reads_only_its_filled_degree(monkeypatch) -> None:
    # Sym^n of A1's one positive root is one weight.  Only degree 0 holds an
    # entry when the fold reads the one factor, so it makes one cap check per
    # term, n in all; a fold that also walked the empty degrees makes n(n + 1)/2.
    checks = []
    check_cap = modchar._check_cap

    def counted(*args):
        checks.append(args[1])
        check_cap(*args)

    monkeypatch.setattr(modchar, "_check_cap", counted)
    n = 20_000
    power = graded_power("sym", nilradical_dual_weights(A1), n)
    assert power.as_dict() == {(2 * n,): 1}
    assert checks == list(range(2, n + 2))
