"""On A1 the page is a cohomology ring's invariants: a closed-form oracle.

For SL2 the Frobenius kernel U_r of the unipotent radical is G_{a,r}, and
its cohomology is generated by classes of weight p^n * alpha (Jantzen,
*Representations of Algebraic Groups*, 2nd ed., I.4.20-4.27):

* at odd p, Lambda(y_0 .. y_{r-1}) (x) S(x_1 .. x_r), with y_n in degree 1
  and x_n in degree 2, both of weight p^n * alpha;
* at p = 2, S(y_0 .. y_{r-1}), with y_n in degree 1 and weight 2^n * alpha.

With r = s + f and q = p^r, a degree-m monomial of weight W contributes
gamma = (W + v) / q to the page of v = lambda + p^s * u when q divides
W + v, once per mu weight u.  The oracle below counts monomials by a small
knapsack over those generators; it shares no code with the page levels,
the degree fold or the carry pass it checks.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from chevbounds.e1oracle import MAX_DEGREE, MAX_LEVELS, _carry_class, invariant_page
from chevbounds.modchar import DEFAULT_ENTRY_CAP, WeightMultiset, weyl_character
from chevbounds.rootsys import build_root_system

A1 = build_root_system("A", 1)
ALPHA = 2  # the simple root in fundamental-weight coordinates
MU_SETS = {
    "trivial": WeightMultiset.trivial(A1),
    "V(1)": weyl_character(A1, (1,)),
    "V(3)": weyl_character(A1, (3,)),
    "negative": WeightMultiset.from_dict(A1, {(-2,): 1, (1,): 2}),
}


def generators(p: int, r: int) -> list[tuple[int, int, int]]:
    """(degree, weight, highest power) of each generator of H(U_r, k); 0 = unbounded."""
    if p == 2:
        return [(1, 2**n * ALPHA, 0) for n in range(r)]
    exterior = [(1, p**n * ALPHA, 1) for n in range(r)]
    symmetric = [(2, p**n * ALPHA, 0) for n in range(1, r + 1)]
    return exterior + symmetric


@lru_cache(maxsize=None)
def monomial_weights(p: int, r: int, m: int) -> dict[int, int]:
    """{W: number of degree-m monomials of weight W} in the generators."""
    table = {(0, 0): 1}
    for degree, weight, most in generators(p, r):
        grown: dict[tuple[int, int], int] = {}
        for (d, w), count in table.items():
            k = 0
            while d + k * degree <= m and (not most or k <= most):
                key = (d + k * degree, w + k * weight)
                grown[key] = grown.get(key, 0) + count
                k += 1
        table = grown
    return {w: count for (d, w), count in table.items() if d == m}


def closed_form(p: int, s: int, f: int, lam: int, mu_set: WeightMultiset, m: int) -> dict:
    """The A1 page {gamma: multiplicity} from the monomials of H^m(U_{s+f}, k)."""
    q = p ** (s + f)
    page: dict[tuple[int], int] = {}
    monomials = monomial_weights(p, s + f, m)
    for (u,), mult_u in mu_set.items:
        v = lam + p**s * u
        for w, count in monomials.items():
            if (w + v) % q == 0:
                gamma = ((w + v) // q,)
                page[gamma] = page.get(gamma, 0) + count * mult_u
    return page


def test_generators_count_the_page_dimension() -> None:
    # Poincare series: (1 + t)^r / (1 - t^2)^r at odd p and 1 / (1 - t)^r at
    # p = 2, so H^1 has r classes, and H^2 has r(r - 1)/2 + r at odd p.
    for p, r in product((2, 3, 5), range(1, 5)):
        assert sum(monomial_weights(p, r, 1).values()) == r
        h2 = r * (r + 1) // 2 if p == 2 else r * (r - 1) // 2 + r
        assert sum(monomial_weights(p, r, 2).values()) == h2


def test_page_is_the_closed_form_on_every_split() -> None:
    cells = nonempty = 0
    for p, levels in product((2, 3, 5), range(1, MAX_LEVELS + 1)):
        for s in range(levels + 1):
            f = levels - s
            for lam, (name, mu_set), m in product(
                range(-2, p**s + 3), MU_SETS.items(), range(MAX_DEGREE + 1)
            ):
                page = invariant_page(A1, p, s, f, (lam,), mu_set, m)
                want = closed_form(p, s, f, lam, mu_set, m)
                assert page.gammas.as_dict() == want, (p, s, f, lam, name, m)
                cells += 1
                nonempty += bool(want)
    assert (cells, nonempty) == (51_048, 9_369)


def test_carry_class_is_the_closed_form_past_the_page_shape() -> None:
    # invariant_page refuses s + f > MAX_LEVELS; the carry pass itself reads
    # one digit per level at any height, keyed by t = v mod q and shifted by
    # the quotient.
    cells = nonempty = 0
    for p, levels in product((2, 3, 5), range(MAX_LEVELS + 1, 9)):
        q = p**levels
        for s in (1, levels - 1, levels):
            for lam, (name, mu_set), m in product(
                (-1, 0, 1, p**s - 1, p**s + 1), MU_SETS.items(), range(MAX_DEGREE + 1)
            ):
                page: dict[tuple[int], int] = {}
                for (u,), mult_u in mu_set.items:
                    shift, t = divmod(lam + p**s * u, q)
                    for (gamma0,), mult in _carry_class.__wrapped__(
                        A1, p, levels, m, DEFAULT_ENTRY_CAP, (t,)
                    ):
                        gamma = (gamma0 + shift,)
                        page[gamma] = page.get(gamma, 0) + mult * mult_u
                want = closed_form(p, s, levels - s, lam, mu_set, m)
                assert page == want, (p, s, levels - s, lam, name, m)
                cells += 1
                nonempty += bool(want)
    assert (cells, nonempty) == (6_480, 1_272)
