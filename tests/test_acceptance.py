"""Acceptance suite.

Each test prints exactly one ACCEPTANCE line (PASS or FAIL) so the run
log doubles as a checklist.  Runtime budgets are asserted where the
contract pins one.
"""
from __future__ import annotations

import itertools
from fractions import Fraction as Q
from time import perf_counter

import chevbounds
from chevbounds.bounds import (
    compare_thresholds,
    finite_group_vanishing_range,
    lemma61_scan,
    prop62_vanishing_holds,
)
from chevbounds.cli import emit_table
from chevbounds.e1oracle import (
    check_bs_vanishing,
    check_weight_bounds,
    dyadic_sharpness,
    invariant_page,
)
from chevbounds.modchar import WeightMultiset, weyl_character, weyl_dimension
from chevbounds.rootsys import RootSystem, Weight, build_root_system
from chevbounds.weightcomb import (
    b_of_weight,
    floor_log,
    structural_constants,
    t_invariant,
)

STRUCTURAL_EXPECTED = [
    ("A_n", "1", "n+1", "n+1"),
    ("B_n", "2", "2", "4"),
    ("C_n", "2", "2", "4"),
    ("D_n", "2", "2", "4"),
    ("E6", "3", "3", "9"),
    ("E7", "4", "2", "8"),
    ("E8", "6", "1", "6"),
    ("F4", "4", "1", "4"),
    ("G2", "3", "1", "3"),
]

CONCRETE_RANKS = {
    "A": range(1, 9),
    "B": range(2, 9),
    "C": range(3, 9),
    "D": range(4, 9),
    "E": range(6, 9),
    "F": (4,),
    "G": (2,),
}

SMALL_SYSTEMS = (
    build_root_system("A", 1),
    build_root_system("A", 2),
    build_root_system("B", 2),
)


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _dominant_range(rs: RootSystem, lo: int, hi: int) -> list[Weight]:
    """Dominant weights whose highest-coroot pairing lies in [lo, hi]."""
    pairing = rs.highest_root_pairing
    out = []
    for coords in itertools.product(range(hi + 1), repeat=rs.rank):
        d = sum(v * c for v, c in zip(pairing, coords))
        if lo <= d <= hi:
            out.append(Weight(coords))
    return out


def _max_b(rs: RootSystem, mu: WeightMultiset) -> int:
    return max(b_of_weight(rs, coords) for coords, _ in mu.items)


def test_criterion_01_structural_table() -> None:
    start = perf_counter()
    rows = [tuple(line.split(",")) for line in emit_table("structural", "csv").splitlines()[1:]]
    table_ok = rows == STRUCTURAL_EXPECTED

    cross_ok = True
    for family, ranks in CONCRETE_RANKS.items():
        for rank in ranks:
            rs = build_root_system(family, rank)
            c, t = structural_constants(rs)
            label = f"{family}_n" if family in "ABCD" else f"{family}{rank}"
            row = next(r for r in rows if r[0] == label)
            want_t = rank + 1 if family == "A" else int(row[2])
            cross_ok = cross_ok and c == int(row[1]) and t == want_t
    elapsed = perf_counter() - start
    ok = table_ok and cross_ok and elapsed < 1.0
    print(f"ACCEPTANCE 1: {_verdict(ok)} structural table, 9 rows exact, cross-checked at {sum(len(tuple(r)) for r in CONCRETE_RANKS.values())} concrete ranks ({elapsed:.3f}s < 1s)")
    assert table_ok
    assert cross_ok
    assert elapsed < 1.0


def test_criterion_02_lemma61_exhaustive() -> None:
    start = perf_counter()
    counterexamples = lemma61_scan(12)
    elapsed = perf_counter() - start
    ok = counterexamples == [] and elapsed < 5.0
    print(f"ACCEPTANCE 2: {_verdict(ok)} lemma61 scan, 0 counterexamples over 4x12^3 grid ({elapsed:.2f}s < 5s)")
    assert counterexamples == []
    assert elapsed < 5.0


def test_criterion_03_e1_bound_suite() -> None:
    start = perf_counter()
    pages = exact_pages = hits = violations = 0
    for rs in SMALL_SYSTEMS:
        lams = _dominant_range(rs, 1, 8)
        mus = (
            WeightMultiset.trivial(rs),
            weyl_character(rs, rs.fundamental_weight(1)),
        )
        for p in (2, 3, 5):
            t_mu_of = {mu: t_invariant(_max_b(rs, mu), p) for mu in mus}
            for s in range(0, 4):
                for f in range(0, 4 - s):
                    if s + f < 1:
                        continue
                    for m in range(0, 5):
                        for mu in mus:
                            for lam in lams:
                                page = invariant_page(rs, p, s, f, lam, mu, m)
                                pages += 1
                                if not check_weight_bounds(page, "rough").passed:
                                    violations += 1
                                d = sum(
                                    v * c
                                    for v, c in zip(
                                        rs.highest_root_pairing, lam.coords
                                    )
                                )
                                if s < t_invariant(d, p) or f < t_mu_of[mu]:
                                    continue
                                report = check_weight_bounds(page, "exact")
                                exact_pages += 1
                                hits += len(report.equality_hits)
                                if not (report.passed and report.equality_consistent):
                                    violations += 1
    elapsed = perf_counter() - start
    ok = violations == 0 and elapsed < 300.0
    print(f"ACCEPTANCE 3: {_verdict(ok)} E1 bounds, {pages} pages rough, {exact_pages} exact, {hits} equality hits, {violations} violations ({elapsed:.1f}s < 300s)")
    assert violations == 0
    assert elapsed < 300.0


def test_criterion_04_bs_vanishing_consistency() -> None:
    start = perf_counter()
    checked = violations = 0
    for rs in SMALL_SYSTEMS:
        for lam in _dominant_range(rs, 1, 8):
            for p in (2, 3, 5):
                for s in (1, 2, 3):
                    for m in range(0, 5):
                        report = check_bs_vanishing(rs, p, lam, s, m)
                        checked += 1
                        if not report.consistent:
                            violations += 1
    elapsed = perf_counter() - start
    ok = violations == 0
    print(f"ACCEPTANCE 4: {_verdict(ok)} vanishing thresholds, {checked} checks, {violations} inconsistencies ({elapsed:.1f}s)")
    assert violations == 0


def test_criterion_05_specific_pages() -> None:
    a1 = SMALL_SYSTEMS[0]
    triv = WeightMultiset.trivial(a1)
    root_page = invariant_page(a1, 3, 1, 0, a1.zero, triv, 2)
    root_ok = root_page.gammas.as_dict() == {(2,): 1}

    omega = a1.fundamental_weight(1)
    empty_ok = all(
        invariant_page(a1, 2, 1, 0, omega, triv, m).gammas.is_empty()
        for m in range(0, 5)
    )
    ok = root_ok and empty_ok
    print(f"ACCEPTANCE 5: {_verdict(ok)} pinned pages, degree-2 page is the positive root, odd-weight pages empty through m=4")
    assert root_ok
    assert empty_ok


def test_criterion_06_dyadic_sharpness() -> None:
    start = perf_counter()
    ok = all(
        dyadic_sharpness(s, k - s)
        for k in range(1, 31)
        for s in range(0, k + 1)
    )
    elapsed = perf_counter() - start
    print(f"ACCEPTANCE 6: {_verdict(ok)} dyadic sharpness for every split with 1 <= s+f <= 30 ({elapsed:.3f}s)")
    assert ok
    assert elapsed < 5.0


def test_criterion_07_vanishing_ranges() -> None:
    start = perf_counter()
    mismatches = []
    for p in (2, 3, 5, 7, 11, 13):
        for r in range(1, 11):
            produced = finite_group_vanishing_range(p, r)
            expected = r if p == 2 else r * (p - 2)
            s, f = (r - 1, 1) if p == 2 else (r, 0)
            certified = max(
                m
                for m in range(0, produced + 2)
                if prop62_vanishing_holds(p, m, s, f, 0)
            )
            if not produced == expected == certified + 1:
                mismatches.append((p, r, produced, expected, certified))
    elapsed = perf_counter() - start
    ok = not mismatches
    print(f"ACCEPTANCE 7: {_verdict(ok)} vanishing ranges for p <= 13, r <= 10, each one past the certified degree ({elapsed:.3f}s)")
    assert mismatches == []
    assert elapsed < 5.0


def test_criterion_08_threshold_comparison() -> None:
    start = perf_counter()
    modules = comparisons = skipped = violations = 0
    for family, ranks in CONCRETE_RANKS.items():
        for rank in ranks:
            rs = build_root_system(family, rank)
            for i in range(1, rank + 1):
                omega = rs.fundamental_weight(i)
                if weyl_dimension(rs, omega) > 10**5:
                    skipped += 1
                    continue
                module = weyl_character(rs, omega)
                modules += 1
                for p in (2, 3, 5, 7):
                    floor_gap = floor_log(p, Q(rank + 1, 2))
                    for m in range(1, 7):
                        rep = compare_thresholds(rs, p, m, module)
                        comparisons += 1
                        if rep.f_delta < 0:
                            violations += 1
                        if family == "A":
                            if p == 2 and rep.cpsvdk.e < rank * rep.bnp.e:
                                violations += 1
                            if rep.f_delta < floor_gap:
                                violations += 1
    elapsed = perf_counter() - start
    ok = violations == 0 and elapsed < 120.0
    print(f"ACCEPTANCE 8: {_verdict(ok)} threshold comparison, {comparisons} comparisons over {modules} modules ({skipped} over the dimension cap), {violations} violations ({elapsed:.1f}s < 120s)")
    assert violations == 0
    assert elapsed < 120.0


def test_criterion_09_character_sanity() -> None:
    start = perf_counter()
    mismatches = []
    for family, ranks in CONCRETE_RANKS.items():
        for rank in ranks:
            if rank > 4:
                continue
            rs = build_root_system(family, rank)
            for i in range(1, rank + 1):
                omega = rs.fundamental_weight(i)
                produced = weyl_character(rs, omega).total_dimension
                expected = weyl_dimension(rs, omega)
                if produced != expected:
                    mismatches.append((rs.name, i, produced, expected))

    a2 = SMALL_SYSTEMS[1]
    adjoint = weyl_character(a2, Weight((1, 1)))
    adjoint_ok = (
        adjoint.total_dimension == 8 and adjoint.as_dict()[(0, 0)] == 2
    )
    elapsed = perf_counter() - start
    ok = not mismatches and adjoint_ok
    print(f"ACCEPTANCE 9: {_verdict(ok)} multiplicity sums equal the dimension formula for every fundamental weight of rank <= 4, adjoint of A2 exact ({elapsed:.1f}s)")
    assert mismatches == []
    assert adjoint_ok


def test_criterion_10_scope_exclusion() -> None:
    # Boolean threshold evaluators (..._holds, ..._range) are in scope;
    # anything that would return a cohomology or Ext module is not.
    claiming = [
        name
        for name in chevbounds.__all__
        if any(
            marker in name.lower()
            for marker in ("cohomology", "ext_group", "e_infinity", "differential")
        )
    ]
    ok = claiming == []
    print(f"ACCEPTANCE 10: {_verdict(ok)} actual cohomology groups are out of scope; no public name claims to compute them")
    assert claiming == []
