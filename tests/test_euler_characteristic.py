"""The signed sum of a page over its degrees against a product formula (ROADMAP item 17).

The degree-m first page of height L = s + f is a sum over exponent tuples of
twisted exterior and symmetric powers of the dual nilradical.  Taken with
sign (-1)^m over all degrees, the levels telescope.  At odd p exterior powers
sit in degree 1 at twists p^0 .. p^(L-1) and symmetric ones in degree 2 at
twists p^1 .. p^L; at p = 2 the symmetric powers sit in degree 1 at twists
2^0 .. 2^(L-1), and prod_{n<L} (1 + x^(2^n)) = (1 - x^(2^L)) / (1 - x).
Either way the signed character is

    prod_{alpha > 0} (1 - e^alpha) / (1 - e^(q alpha)),   q = p^L.

The page keeps a weight w of that character as gamma = (w + v) / q, with
v = lambda + p^s u for each weight u of mu.  So the signed multiplicity of
gamma in the page is the sum over u of mult(u) times the coefficient of
e^(q gamma - v).  A summand of degree m reaches only weights of height at
least m, so where every q gamma - v lies below height MAX_DEGREE the pages
of degrees 0 .. MAX_DEGREE hold every summand and the identity is exact.

The series is multiplied out here one positive root at a time in root
coordinates; it shares no code with the page's level shapes or its fold.
"""

from __future__ import annotations

from operator import mul

from hypothesis import given, settings
from hypothesis import strategies as st

from chevbounds.e1oracle import MAX_DEGREE, MAX_LEVELS, invariant_page
from chevbounds.modchar import WeightMultiset, weyl_character
from chevbounds.rootsys import build_root_system

SYSTEMS = tuple(
    build_root_system(family, rank)
    for family, rank in (("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3))
)


def euler_series(rs, q: int, height: int) -> dict[tuple[int, ...], int]:
    """The nonzero coefficients of prod (1 - x^alpha) / (1 - x^(q alpha)) up to the height.

    Keys are root coordinates; 1 / (1 - x^(q alpha)) is sum_k x^(k q alpha).
    """
    series = {(0,) * rs.rank: 1}
    for root in rs.positive_roots:
        alpha = root.root_coords
        h = sum(alpha)
        factor = {}  # multiple j of alpha -> coefficient
        for k in range(0, height // h + 1, q):
            factor[k] = factor.get(k, 0) + 1
            factor[k + 1] = factor.get(k + 1, 0) - 1
        product = {}
        for coords, coef in series.items():
            for j, sign in factor.items():
                if sum(coords) + j * h <= height:
                    key = tuple(c + j * a for c, a in zip(coords, alpha))
                    product[key] = product.get(key, 0) + coef * sign
        series = {key: coef for key, coef in product.items() if coef}
    return series


def _signed_page(rs, p, s, f, lam, mu_set) -> dict[tuple[int, ...], int]:
    """gamma -> sum over m <= MAX_DEGREE of (-1)^m times its multiplicity in the page."""
    signed: dict[tuple[int, ...], int] = {}
    for m in range(MAX_DEGREE + 1):
        for gamma, mult in invariant_page(rs, p, s, f, lam, mu_set, m).gammas.items:
            signed[gamma] = signed.get(gamma, 0) + (-1) ** m * mult
    return signed


def _series_side(rs, q, vs) -> dict[tuple[int, ...], int]:
    """gamma -> sum over (v, mult) of mult times the coefficient of e^(q gamma - v)."""
    found: dict[tuple[int, ...], int] = {}
    for coeffs, coef in euler_series(rs, q, MAX_DEGREE).items():
        # The weight sum_i coeffs[i] alpha_i; row i of the Cartan matrix is alpha_i.
        w = [sum(map(mul, coeffs, column)) for column in zip(*rs.cartan_matrix)]
        for v, mult in vs:
            if all((x + y) % q == 0 for x, y in zip(w, v)):
                gamma = tuple((x + y) // q for x, y in zip(w, v))
                found[gamma] = found.get(gamma, 0) + mult * coef
    return found


def _within_range(rs, q, vs, gamma) -> bool:
    """Whether no q gamma - v is a sum of positive roots above height MAX_DEGREE."""
    det = rs.cartan_det
    for v, _ in vs:
        scaled = rs.root_basis_scaled(tuple(q * g - x for g, x in zip(gamma, v)))
        in_cone = min(scaled) >= 0 and not any(c % det for c in scaled)
        if in_cone and sum(scaled) > MAX_DEGREE * det:
            return False
    return True


def _check_identity(rs, p, s, f, lam, mu_set) -> int:
    """Assert the identity on every gamma in range; return how many of them are nonzero."""
    q = p ** (s + f)
    vs = [(tuple(a + p**s * b for a, b in zip(lam, u)), mult) for u, mult in mu_set.items]
    page = _signed_page(rs, p, s, f, lam, mu_set)
    series = _series_side(rs, q, vs)
    checked = [g for g in page.keys() | series.keys() if _within_range(rs, q, vs, g)]
    assert {g: page.get(g, 0) for g in checked} == {g: series.get(g, 0) for g in checked}
    return sum(1 for g in checked if page.get(g, 0))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_signed_page_sum_is_the_euler_series(data) -> None:
    rs = data.draw(st.sampled_from(SYSTEMS), label="system")
    p = data.draw(st.sampled_from((2, 3, 5)), label="p")
    levels = data.draw(st.integers(1, MAX_LEVELS), label="s + f")
    s = data.draw(st.integers(0, levels), label="s")
    lam = data.draw(st.tuples(*[st.integers(-3, 3)] * rs.rank), label="lambda")
    if data.draw(st.booleans(), label="near q X"):
        # lambda = q c - (a few positive roots): then some q gamma - lambda are
        # low sums of roots even when q is large.
        roots = data.draw(st.lists(st.sampled_from(rs.positive_roots), max_size=4), label="roots")
        lam = tuple(
            p**levels * c - sum(root.omega_coords[k] for root in roots)
            for k, c in enumerate(lam)
        )
    i = data.draw(st.integers(0, rs.rank), label="mu index")
    mu_set = WeightMultiset.trivial(rs) if i == 0 else weyl_character(rs, rs.fundamental_weight(i))
    _check_identity(rs, p, s, levels - s, lam, mu_set)


def test_the_identity_is_checked_on_nonzero_weights() -> None:
    # The series itself, and a page where the check is not empty.
    a1, a2 = SYSTEMS[0], SYSTEMS[1]
    # A1: (1 - x) / (1 - x^q) = 1 - x + x^q - x^(q+1) + ...
    assert euler_series(a1, 3, 8) == {(0,): 1, (1,): -1, (3,): 1, (4,): -1, (6,): 1, (7,): -1}
    assert euler_series(a1, 2, 5) == {(0,): 1, (1,): -1, (2,): 1, (3,): -1, (4,): 1, (5,): -1}
    assert _check_identity(a2, 2, 1, 1, (0, 0), WeightMultiset.trivial(a2)) > 0
