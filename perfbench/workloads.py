"""Query lists, query execution and output checks for the benchmark workloads.

Each workload turns a seed into a fixed list of queries.  A query is plain
data (tuples of ints and strings); executing it calls only public
`chevbounds` functions, or for `page-deep` the `chevbounds.cli` command.
`check_*` decides whether a result is correct and `canonical_*` renders it
as one line for the output digest, so two commits can be compared byte for
byte.

Why these workloads:

* `page-sweep` asks many small first-page questions that share a page class
  (system, p, s, f, m, mu), so it measures cache sharing and per-call cost.
* `page-deep` runs a few large pages, one CLI process each, so nothing is
  shared and the product-then-filter page build and its memory dominate.
* `compare-sweep` builds no page; it stresses characters, `b_invariant` and
  the threshold comparison.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction as Q
from functools import lru_cache
from math import comb, floor

import chevbounds as cb

# page-sweep: the ACCEPTANCE 3/4 grid (m <= 4) widened to G2 and d <= 10.
SWEEP_SYSTEMS = (("A", 1), ("A", 2), ("B", 2), ("G", 2))
SWEEP_PRIMES = (2, 3, 5)
SWEEP_MAX_LEVELS = 3
SWEEP_MAX_M = 4
SWEEP_MAX_D = 10
VANISH_SHARE = 0.25
# ACCEPTANCE 5: (type, p, s, f, m, lambda) with trivial mu -> expected page.
PINNED_PAGES = {("A1", 3, 1, 0, 2, (0,)): {(2,): 1}}
PINNED_PAGES.update({("A1", 2, 1, 0, m, (1,)): {} for m in range(5)})

# page-deep: large single pages, (family, rank, p, s, f, m), 0.4-2 s each.
# The m = 8 A4/D4 cases of ROADMAP take 140-186 s and up to 2.9 GB each; even
# 5-6 s cases leave room for too few passes to be steady (README.md).
DEEP_CASES = (
    ("A", 3, 5, 3, 0, 6),  # f = 0: the CLI also runs the vanishing check, which holds
    ("A", 3, 2, 3, 1, 7),
    ("A", 4, 2, 3, 1, 4),
    ("C", 3, 3, 2, 1, 6),
    ("D", 4, 3, 2, 1, 4),
    ("G", 2, 5, 2, 2, 6),
)
DEEP_MAX_D = 4

# compare-sweep: the ACCEPTANCE 8 module set.
COMPARE_RANKS = {
    "A": range(1, 9),
    "B": range(2, 9),
    "C": range(3, 9),
    "D": range(4, 9),
    "E": range(6, 9),
    "F": (4,),
    "G": (2,),
}
COMPARE_MAX_DIM = 10**5
COMPARE_MODULES = 155
COMPARE_PRIMES = (2, 3, 5, 7)
COMPARE_DEGREES = range(1, 7)
COMPARE_PAIRS = 4


def systems(workload: str) -> list[tuple[str, int]]:
    """Root systems a workload uses, as (family, rank)."""
    if workload == "page-sweep":
        return list(SWEEP_SYSTEMS)
    if workload == "page-deep":
        return sorted({case[:2] for case in DEEP_CASES})
    return [(fam, rank) for fam, ranks in COMPARE_RANKS.items() for rank in ranks]


def _name(family: str, rank: int) -> str:
    return f"{family}{rank}"


def _pairing(rs, coords) -> int:
    return sum(v * c for v, c in zip(rs.highest_root_pairing, coords))


def _dominant_upto(rs, lo: int, hi: int) -> list[tuple[int, ...]]:
    """Dominant weights whose highest-coroot pairing lies in [lo, hi]."""
    return [
        coords
        for coords in itertools.product(range(hi + 1), repeat=rs.rank)
        if lo <= _pairing(rs, coords) <= hi
    ]


def make_queries(workload: str, seed: int) -> list[tuple]:
    """The workload's query list for one seed; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "page-sweep":
        return _sweep_queries(rng)
    if workload == "page-deep":
        return _deep_queries(rng)
    if workload == "compare-sweep":
        return _compare_queries(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _sweep_queries(rng: random.Random) -> list[tuple]:
    """(family, rank, p, s, f, m, lambda, mu index, exact?, vanish?) per query.

    Every lambda is asked twice per page class: with the trivial module
    (mu index 0) and with the character of a fundamental weight the seed
    picks per query (mu index i).  Over the many lambdas of a class every
    fundamental weight gets picked, so the set of pages built, and with it
    the work, hardly depends on the seed.  The exact bound is checked where
    its hypotheses s >= t(lambda) and f >= t(mu) hold; a character is
    W-stable, so b(mu) is the pairing of its highest weight.
    """
    out = []
    for family, rank in SWEEP_SYSTEMS:
        rs = cb.build_root_system(family, rank)
        lams = _dominant_upto(rs, 0, SWEEP_MAX_D)
        for p in SWEEP_PRIMES:
            for s in range(SWEEP_MAX_LEVELS + 1):
                for f in range(SWEEP_MAX_LEVELS + 1 - s):
                    if s + f < 1:
                        continue
                    for m in range(SWEEP_MAX_M + 1):
                        for lam in lams:
                            d = _pairing(rs, lam)
                            for mu in (0, rng.randint(1, rank)):
                                b_mu = rs.highest_root_pairing[mu - 1] if mu else 0
                                exact = (
                                    d >= 1
                                    and s >= cb.t_invariant(d, p)
                                    and f >= cb.t_invariant(b_mu, p)
                                )
                                vanish = s >= 1 and d >= 1 and rng.random() < VANISH_SHARE
                                out.append((family, rank, p, s, f, m, lam, mu, exact, vanish))
    return out


def _deep_queries(rng: random.Random) -> list[tuple]:
    """(family, rank, p, s, f, m, lambda) per query; the seed picks lambda."""
    out = []
    for family, rank, p, s, f, m in DEEP_CASES:
        rs = cb.build_root_system(family, rank)
        lam = rng.choice(_dominant_upto(rs, 1, DEEP_MAX_D))
        out.append((family, rank, p, s, f, m, lam))
    return out


def compare_modules() -> list[tuple[str, int, int]]:
    """(family, rank, i) for every fundamental-weight character in the sweep."""
    mods = []
    for family, ranks in COMPARE_RANKS.items():
        for rank in ranks:
            rs = cb.build_root_system(family, rank)
            for i in range(1, rank + 1):
                if cb.weyl_dimension(rs, rs.fundamental_weight(i)) <= COMPARE_MAX_DIM:
                    mods.append((family, rank, i))
    if len(mods) != COMPARE_MODULES:
        raise RuntimeError(f"expected {COMPARE_MODULES} modules, found {len(mods)}")
    return mods


def _compare_queries(rng: random.Random) -> list[tuple]:
    """(kind, family, rank, i, p, m) per query, grouped by module."""
    grid = [(p, m) for p in COMPARE_PRIMES for m in COMPARE_DEGREES]
    out = []
    for family, rank, i in compare_modules():
        mine = [("compare", family, rank, i, p, m) for p, m in rng.sample(grid, COMPARE_PAIRS)]
        mine.append(("generic", family, rank, i) + rng.choice(grid))
        rng.shuffle(mine)
        out.extend(mine)
    return out


# ---------------------------------------------------------------- execution


def _module(rs, i: int):
    if i == 0:
        return cb.WeightMultiset.trivial(rs)
    return cb.weyl_character(rs, rs.fundamental_weight(i))


def execute_sweep(q: tuple):
    family, rank, p, s, f, m, lam, mu, exact, vanish = q
    rs = cb.build_root_system(family, rank)
    weight = cb.Weight(lam)
    page = cb.invariant_page(rs, p, s, f, weight, _module(rs, mu), m)
    rough = cb.check_weight_bounds(page, "rough")
    exact_report = cb.check_weight_bounds(page, "exact") if exact else None
    vanish_report = cb.check_bs_vanishing(rs, p, weight, s, m) if vanish else None
    return page, rough, exact_report, vanish_report


def check_sweep(q: tuple, result) -> bool:
    family, rank, p, s, f, m, lam, mu, want_exact, vanish = q
    page, rough, exact, report = result
    ok = rough.passed and (exact is not None) == want_exact
    if exact is not None:
        ok = ok and exact.passed and exact.equality_consistent
    if vanish:
        ok = ok and report is not None and report.consistent
        if f == 0 and mu == 0:
            ok = ok and report.page_empty == page.gammas.is_empty()
    pinned = PINNED_PAGES.get((_name(family, rank), p, s, f, m, lam))
    if pinned is not None and mu == 0:
        ok = ok and page.gammas.as_dict() == pinned
    return ok


def canonical_sweep(q: tuple, result) -> str:
    page, rough, exact, report = result
    parts = [
        repr(q),
        repr(page.gammas.items),
        f"rough={rough.bound}:{rough.passed}",
        "exact=-" if exact is None else
        f"exact={exact.bound}:{exact.passed}:{len(exact.equality_hits)}",
        "vanish=-" if report is None else
        f"vanish={report.met}:{report.page_empty}:{report.consistent}",
    ]
    return "|".join(parts)


def execute_compare(q: tuple):
    """Resolve the module from its highest weight, as the CLI does, then query."""
    kind, family, rank, i, p, m = q
    rs = cb.build_root_system(family, rank)
    module = cb.weyl_character(rs, rs.fundamental_weight(i))
    if kind == "compare":
        return module, cb.compare_thresholds(rs, p, m, module)
    b_m = cb.b_invariant(rs, module).value
    return module, b_m, cb.generic_thresholds(rs, p, m, b_m)


def _threshold_ok(rep, p: int, m: int, b_m: int) -> bool:
    """Internal consistency of one generic-threshold report."""
    ok = rep.theorem_tag in cb.THEOREM_TAGS and rep.f == cb.t_invariant(b_m, p)
    if rep.theorem_tag == "T811":
        ok = ok and rep.e == (m if p == 2 else Q(m, p - 2))
        ok = ok and rep.r_min == floor(rep.e) + rep.f + 1
    return ok


def check_compare(q: tuple, result) -> bool:
    kind, family, rank, i, p, m = q
    rs = cb.build_root_system(family, rank)
    omega = rs.fundamental_weight(i)
    module = result[0]
    # A character is W-stable, so b is the pairing of its highest weight.
    b_m = _pairing(rs, omega.coords)
    ok = module.total_dimension == cb.weyl_dimension(rs, omega)
    if kind == "generic":
        _, b_reported, rep = result
        return ok and b_reported == b_m and _threshold_ok(rep, p, m, b_m)
    rep = result[1]
    ok = ok and rep.f_delta >= 0 and rep.f_delta == rep.cpsvdk.f - rep.bnp.f
    ok = ok and _threshold_ok(rep.bnp, p, m, b_m)
    if family == "A":
        if p == 2 and rep.cpsvdk.e < rank * rep.bnp.e:
            ok = False
        if rep.f_delta < cb.floor_log(p, Q(rank + 1, 2)):
            ok = False
    return ok


def canonical_compare(q: tuple, result) -> str:
    def thr(rep) -> str:
        return f"{rep.theorem_tag}:{rep.e}:{rep.f}:{rep.s_min}:{rep.r_min}"

    module = result[0]
    head = f"{q!r}|dim={module.total_dimension}|support={module.support_size}"
    if q[0] == "generic":
        return f"{head}|b={result[1]}|{thr(result[2])}"
    rep = result[1]
    return (
        f"{head}|{thr(rep.bnp)}|{thr(rep.cpsvdk)}|fd={rep.f_delta}"
        f"|ed={rep.e_delta}|x={rep.exception_flag}"
    )


def deep_argv(q: tuple) -> list[str]:
    """CLI arguments of one page-deep query."""
    family, rank, p, s, f, m, lam = q
    return [
        "verify-e1", "--type", _name(family, rank), "--p", str(p), "--s", str(s),
        "--f", str(f), "--m", str(m), "--weight", ",".join(map(str, lam)),
        "--format", "json",
    ]


def check_deep(q: tuple, result) -> bool:
    """result is (exit code, stdout bytes) of one CLI process."""
    code, out = result
    if code != 0:
        return False
    try:
        doc = json.loads(out)
    except ValueError:
        return False
    family, rank, p, s, f, m, lam = q
    n_pos = len(cb.build_root_system(family, rank).positive_roots)
    sizes = [int(item.rsplit(":", 1)[1]) for item in doc["gammas"].split()]
    ok = doc["verdict"] == "ok" and doc["rough_pass"] is True
    ok = ok and doc["page_size"] == sum(sizes) <= full_page_dim(n_pos, p, s + f, m)
    # d <= DEEP_MAX_D keeps s >= t(lambda), so the exact bound must apply.
    ok = ok and doc["exact_applicable"] is True and doc["exact_pass"] is True
    if f == 0:
        ok = ok and doc["vanish_consistent"] is True
        ok = ok and doc["vanish_page_empty"] == (doc["page_size"] == 0)
    return ok


def canonical_deep(q: tuple, result) -> str:
    return f"{q!r}|{result[0]}|{result[1].decode().strip()}"


@lru_cache(maxsize=None)
def full_page_dim(n_pos: int, p: int, levels: int, m: int) -> int:
    """Dimension of the whole degree-m page for the trivial module.

    Sum over exponent tuples of products of symmetric and exterior power
    dimensions of an n_pos-dimensional space: what the brute force builds
    before it keeps one residue class.
    """
    total = 0
    for et in cb.enumerate_tuples(p, levels, m):
        term = 1
        for a in et.a:
            term *= comb(n_pos + a - 1, a)
        for b in et.b or ():
            term *= comb(n_pos, b)
        total += term
    return total


# ---------------------------------------------------------------- properties


def properties(workload: str, queries: list[tuple]) -> dict:
    """Input properties a later speed claim can cite, from the query list alone.

    class_reuse_share is the share of queries whose page class (or, on
    compare-sweep, whose character) an earlier query of the same process
    already computed; page-deep runs one process per query, so it is 0 there.
    """
    if workload == "compare-sweep":
        mods = {q[1:4] for q in queries}
        classes: set = set()
        reused = len(queries) - len(mods)
    else:
        mu_of = (lambda q: q[7]) if workload == "page-sweep" else (lambda q: 0)
        mods = {(q[0], q[1], mu_of(q)) for q in queries}
        classes = {q[:6] + (mu_of(q),) for q in queries}
        reused = len(queries) - len(classes) if workload == "page-sweep" else 0
    full = 0
    for family, rank, p, s, f, m, mu in classes:
        rs = cb.build_root_system(family, rank)
        dim_mu = _module(rs, mu).total_dimension
        full += full_page_dim(len(rs.positive_roots), p, s + f, m) * dim_mu
    return {
        "queries": len(queries),
        "modules": len(mods),
        "queries_per_module": len(queries) / len(mods),
        "class_reuse_share": reused / len(queries),
        "dominant_weight_share": _dominant_share(mods),
        "full_page_dim": full,
    }


def _dominant_share(mods) -> float:
    """Share of the module weights (with multiplicity) that are dominant."""
    dominant = total = 0
    for family, rank, i in mods:
        rs = cb.build_root_system(family, rank)
        for coords, mult in _module(rs, i).items:
            total += mult
            if all(c >= 0 for c in coords):
                dominant += mult
    return dominant / total
