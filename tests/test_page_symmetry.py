"""Structural facts the first page rests on, as derandomized Hypothesis tests.

* With trivial mu, the coefficient lam + p^s * 0 does not depend on the
  split of the levels into s + f, so neither does the page.
* A diagram automorphism sigma permutes the simple roots and so the
  positive roots.  The page of (sigma lam, sigma mu) is then sigma of the
  page of (lam, mu), and b, the highest-coroot pairing and the bound
  verdicts are sigma-invariant.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from chevbounds.e1oracle import (
    check_bs_vanishing,
    check_weight_bounds,
    invariant_page,
    verify_e1,
)
from chevbounds.modchar import WeightMultiset, weyl_character
from chevbounds.rootsys import Coords, RootSystem, build_root_system
from chevbounds.weightcomb import b_invariant


def _systems(*names: str) -> dict[str, RootSystem]:
    return {name: build_root_system(name[0], int(name[1:])) for name in names}


SPLIT_SYSTEMS = _systems("A1", "A2", "B2", "G2", "A3", "B3", "C3")


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_trivial_mu_page_depends_only_on_s_plus_f(data) -> None:
    name = data.draw(st.sampled_from(sorted(SPLIT_SYSTEMS)), label="system")
    rs = SPLIT_SYSTEMS[name]
    p = data.draw(st.sampled_from((2, 3, 5)), label="p")
    levels = data.draw(st.integers(1, 4), label="s + f")
    m = data.draw(st.integers(0, 6), label="m")
    lam = data.draw(st.tuples(*[st.integers(0, 4)] * rs.rank), label="lambda")
    trivial = WeightMultiset.trivial(rs)
    pages = [
        invariant_page(rs, p, s, levels - s, lam, trivial, m).gammas for s in range(levels + 1)
    ]
    assert all(gammas == pages[0] for gammas in pages[1:])
    if rs.pairing(lam) >= 1:
        assert check_bs_vanishing(rs, p, lam, levels, m).page_empty == pages[0].is_empty()


SYMMETRY_SYSTEMS = _systems("A2", "A3", "A4", "A5", "A6", "D4", "D5", "E6")


@lru_cache(maxsize=None)
def diagram_automorphisms(rs: RootSystem) -> tuple[Coords, ...]:
    """Every sigma other than the identity with C[sigma i][sigma j] = C[i][j]."""
    c = rs.cartan_matrix
    n = rs.rank
    return tuple(
        sigma
        for sigma in permutations(range(n))
        if sigma != tuple(range(n))
        and all(c[sigma[i]][sigma[j]] == c[i][j] for i in range(n) for j in range(n))
    )


def test_the_search_finds_the_known_automorphisms() -> None:
    # The A_n reversal, the D_n swap (D4: the five non-trivial triality
    # permutations) and the E6 reversal; A1, B, C, F and G have none.
    counts = {name: len(diagram_automorphisms(rs)) for name, rs in SYMMETRY_SYSTEMS.items()}
    assert counts == {"A2": 1, "A3": 1, "A4": 1, "A5": 1, "A6": 1, "D4": 5, "D5": 1, "E6": 1}
    for name in ("A1", "B3", "C4", "F4", "G2"):
        rs = build_root_system(name[0], int(name[1:]))
        assert diagram_automorphisms(rs) == ()


def _moved(sigma: Coords, coords: Coords) -> Coords:
    """sigma of the weight sum_i c_i omega_i, which is sum_i c_i omega_sigma(i)."""
    out = [0] * len(coords)
    for i, c in enumerate(coords):
        out[sigma[i]] = c
    return tuple(out)


def _moved_set(rs: RootSystem, sigma: Coords, ws: WeightMultiset) -> WeightMultiset:
    return WeightMultiset.from_dict(rs, {_moved(sigma, c): n for c, n in ws.items})


def _verdicts(page) -> tuple:
    rough = check_weight_bounds(page, "rough")
    exact = verify_e1(page).exact
    if isinstance(exact, str):
        return (rough.passed, rough.bound, exact)
    return (
        rough.passed, rough.bound, None,
        exact.passed, exact.bound, len(exact.equality_hits), exact.equality_consistent,
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_diagram_automorphisms_commute_with_the_page(data) -> None:
    name = data.draw(st.sampled_from(sorted(SYMMETRY_SYSTEMS)), label="system")
    rs = SYMMETRY_SYSTEMS[name]
    sigma = data.draw(st.sampled_from(diagram_automorphisms(rs)), label="sigma")
    p = data.draw(st.sampled_from((2, 3, 5)), label="p")
    levels = data.draw(st.integers(1, 3), label="s + f")
    s = data.draw(st.integers(0, levels), label="s")
    m = data.draw(st.integers(0, 4), label="m")
    i = data.draw(st.integers(0, rs.rank), label="mu index")  # 0: trivial mu
    if i == 0:
        mu = moved_mu = WeightMultiset.trivial(rs)
    else:
        mu = weyl_character(rs, rs.fundamental_weight(i))
        moved_mu = weyl_character(rs, rs.fundamental_weight(sigma[i - 1] + 1))
        assert moved_mu == _moved_set(rs, sigma, mu)
    roots = [root.omega_coords for root in rs.positive_roots]
    aimed = m <= len(roots) and data.draw(st.booleans(), label="aimed")
    if aimed:
        # m distinct positive roots sum to a weight w of the untwisted level,
        # so lam = q * gamma - p^s * u - w puts gamma on the page.
        picked = data.draw(
            st.lists(st.sampled_from(roots), min_size=m, max_size=m, unique=True), label="roots"
        )
        u = data.draw(st.sampled_from([c for c, _ in mu.items]), label="u")
        gamma = data.draw(st.tuples(*[st.integers(-1, 1)] * rs.rank), label="gamma")
        lam = tuple(
            p**levels * g - p**s * b - sum(root[k] for root in picked)
            for k, (g, b) in enumerate(zip(gamma, u))
        )
    else:
        lam = data.draw(st.tuples(*[st.integers(-1, 3)] * rs.rank), label="lambda")
    page = invariant_page(rs, p, s, levels - s, lam, mu, m)
    moved = invariant_page(rs, p, s, levels - s, _moved(sigma, lam), moved_mu, m)
    if aimed:
        assert gamma in page.gammas.as_dict()
    assert moved.gammas == _moved_set(rs, sigma, page.gammas)
    assert rs.pairing(_moved(sigma, lam)) == rs.pairing(lam)
    assert b_invariant(rs, moved_mu) == b_invariant(rs, mu)
    if not page.gammas.is_empty():
        assert b_invariant(rs, moved.gammas) == b_invariant(rs, page.gammas)
    assert _verdicts(moved) == _verdicts(page)
