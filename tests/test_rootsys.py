from __future__ import annotations

import hashlib
import itertools
from fractions import Fraction as Q
from operator import mul

import pytest

from chevbounds import rootsys
from chevbounds.errors import InputError, OracleError, Record
from chevbounds.rootsys import (
    MAX_CLASSICAL_RANK,
    RootSystem,
    Weight,
    _adjugate_and_det,
    _cartan_and_lengths,
    apply_w0,
    build_root_system,
    dominance_leq,
    dual_weight,
    parse_type,
)

# (family, rank) -> (number of positive roots, h, h_dual, det of Cartan matrix)
CLASSICAL_DATA = {
    ("A", 1): (1, 2, 2, 2),
    ("A", 2): (3, 3, 3, 3),
    ("A", 5): (15, 6, 6, 6),
    ("B", 2): (4, 4, 3, 2),
    ("B", 3): (9, 6, 5, 2),
    ("C", 3): (9, 6, 4, 2),
    ("D", 4): (12, 6, 6, 4),
    ("D", 5): (20, 8, 8, 4),
    ("E", 6): (36, 12, 12, 3),
    ("E", 7): (63, 18, 18, 2),
    ("E", 8): (120, 30, 30, 1),
    ("F", 4): (24, 12, 9, 1),
    ("G", 2): (6, 6, 4, 1),
}


@pytest.mark.parametrize("family,rank", sorted(CLASSICAL_DATA))
def test_counts_and_coxeter_numbers(family: str, rank: int) -> None:
    n_pos, h, h_dual, det = CLASSICAL_DATA[(family, rank)]
    rs = build_root_system(family, rank)
    assert len(rs.positive_roots) == n_pos
    assert rs.coxeter_number == h
    assert rs.dual_coxeter_number == h_dual
    assert rs.cartan_det == det


@pytest.mark.parametrize("family,rank", sorted(CLASSICAL_DATA))
def test_positive_roots_sum_to_twice_rho(family: str, rank: int) -> None:
    rs = build_root_system(family, rank)
    total = [0] * rank
    for root in rs.positive_roots:
        for i, c in enumerate(root.omega_coords):
            total[i] += c
    assert Weight(tuple(total)) == Weight((2,) * rank)


@pytest.mark.parametrize("family,rank", sorted(CLASSICAL_DATA))
def test_root_coords_are_integral_and_positive(family: str, rank: int) -> None:
    rs = build_root_system(family, rank)
    for root in rs.positive_roots:
        assert all(isinstance(c, int) for c in root.root_coords)
        assert all(c >= 0 for c in root.root_coords)
        assert sum(root.root_coords) >= 1


def test_fundamental_group_invariants() -> None:
    # The classification of X(T) / (root lattice) (Bourbaki, Lie VI, Plate I-IX).
    exceptional = {("E", 6): (3,), ("E", 7): (2,), ("E", 8): (1,), ("F", 4): (1,), ("G", 2): (1,)}
    for family, rank in SUPPORTED_SYSTEMS:
        if family == "A":
            expected = (rank + 1,)
        elif family in "BC":
            expected = (2,)
        elif family == "D":
            expected = (2, 2) if rank % 2 == 0 else (4,)
        else:
            expected = exceptional[(family, rank)]
        assert build_root_system(family, rank).fundamental_group_invariants == expected


def test_highest_roots() -> None:
    g2 = build_root_system("G", 2)
    highest = next(
        r for r in g2.positive_roots if r.omega_coords == g2.highest_root.coords
    )
    assert highest.root_coords == (3, 2)
    assert g2.highest_root.coords == (0, 1)

    a3 = build_root_system("A", 3)
    assert a3.highest_root.coords == (1, 0, 1)

    e8 = build_root_system("E", 8)
    assert e8.highest_root.coords == (0, 0, 0, 0, 0, 0, 0, 1)

    b3 = build_root_system("B", 3)
    assert b3.highest_root.coords == (0, 1, 0)
    short_dominant = [
        r.omega_coords for r in b3.positive_roots if r.length2 == 2 and min(r.omega_coords) >= 0
    ]
    assert short_dominant == [(1, 0, 0)]


def test_long_roots_have_maximal_length() -> None:
    for family, rank in (("B", 3), ("C", 3), ("F", 4), ("G", 2)):
        rs = build_root_system(family, rank)
        longest = max(r.length2 for r in rs.positive_roots)
        long_roots = [r.omega_coords for r in rs.positive_roots if r.length2 == longest]
        assert rs.highest_root.coords in long_roots
        assert len(long_roots) < len(rs.positive_roots)
    a2 = build_root_system("A", 2)
    assert {r.length2 for r in a2.positive_roots} == {2}


def test_weight_arithmetic() -> None:
    a = Weight((1, -2))
    b = Weight((0, 3))
    assert a.is_dominant() is False
    assert b.is_dominant() is True
    assert Weight((0, 0)).is_zero()


def test_reflections_are_involutions() -> None:
    rs = build_root_system("B", 2)
    for c1 in range(-2, 3):
        for c2 in range(-2, 3):
            for i in range(rs.rank):
                once = rs.reflect((c1, c2), i)
                assert rs.reflect(once, i) == (c1, c2)


def test_dominant_representative() -> None:
    rs = build_root_system("G", 2)
    for c1 in range(-3, 4):
        for c2 in range(-3, 4):
            dom = rs.dominant_representative((c1, c2))
            assert all(c >= 0 for c in dom)
            # Idempotent and stable under one more reflection trip.
            assert rs.dominant_representative(dom) == dom
            for i in range(rs.rank):
                assert rs.dominant_representative(rs.reflect((c1, c2), i)) == dom


@pytest.mark.parametrize(
    "family, rank, span",
    (
        ("A", 4, 2), ("B", 3, 3), ("C", 4, 2), ("F", 4, 2), ("E", 6, 1),
        # Branch nodes and the triple edge.
        ("D", 5, 1), ("E", 8, 1), ("G", 2, 4),
    ),
)
def test_dominant_representative_matches_one_reflection_at_a_time(family, rank, span) -> None:
    rs = build_root_system(family, rank)
    for coords in itertools.product(range(-span, span + 1), repeat=rank):
        expected = coords
        while min(expected) < 0:
            i = next(k for k, c in enumerate(expected) if c < 0)
            expected = rs.reflect(expected, i)
        got = rs.dominant_representative(coords)
        assert got == expected and type(got) is tuple


def test_longest_element_and_duality() -> None:
    a2 = build_root_system("A", 2)
    assert apply_w0(a2, Weight((1, 1))).coords == (-1, -1)
    assert dual_weight(a2, a2.fundamental_weight(1)) == a2.fundamental_weight(2)

    d4 = build_root_system("D", 4)
    w = Weight((1, 2, 0, 3))
    assert apply_w0(d4, w).coords == (-1, -2, 0, -3)
    assert dual_weight(d4, w) == w


def test_pairing_against_cartan_matrix() -> None:
    rs = build_root_system("F", 4)
    simple_as_roots = [
        next(r for r in rs.positive_roots if r.omega_coords == alpha)
        for alpha in rs.cartan_matrix
    ]
    for i in range(rs.rank):
        for j in range(rs.rank):
            value = sum(map(mul, rs.cartan_matrix[i], simple_as_roots[j].coroot_pairing))
            assert value == rs.cartan_matrix[i][j]


def test_root_basis_round_trip() -> None:
    rs = build_root_system("C", 3)
    for root in rs.positive_roots:
        frac = tuple(Q(x, rs.cartan_det) for x in rs.root_basis_scaled(root.omega_coords))
        assert frac == root.root_coords
    scaled = rs.root_basis_scaled((1, 0, 0))
    assert all(isinstance(x, int) for x in scaled)


def test_dominance_order() -> None:
    a2 = build_root_system("A", 2)
    zero = a2.zero
    assert dominance_leq(a2, zero, a2.highest_root)
    assert dominance_leq(a2, a2.zero, Weight((1, 1)))
    assert not dominance_leq(a2, Weight((1, 1)), zero)
    # omega_1 and omega_2 are incomparable.
    assert not dominance_leq(a2, a2.fundamental_weight(1), a2.fundamental_weight(2))
    assert not dominance_leq(a2, a2.fundamental_weight(2), a2.fundamental_weight(1))


def test_parse_type() -> None:
    assert parse_type("A5") is build_root_system("A", 5)
    assert parse_type("g2") is build_root_system("G", 2)
    assert parse_type(" e8\n") is build_root_system("E", 8)
    assert parse_type("A10") is build_root_system("A", 10)
    assert parse_type("B12") is build_root_system("B", 12)
    for bad in ("Z9", "A0", "B1", "D3", "E9", "F5", "G3", "A", "A13", "",
                "A1_0", "A\u0663", "A+1", "A 1", "E\uff108", "A-1", "A1.0", "A" + "9" * 5000,
                "A01", "A010", "E0008", "A00"):
        with pytest.raises(InputError):
            parse_type(bad)
    with pytest.raises(InputError, match="unknown family 'X'"):
        build_root_system("X", 2)


def test_weight_rank_validation() -> None:
    rs = build_root_system("A", 2)
    with pytest.raises(InputError, match=r"weight \(1, 0, 0\) has 3 coordinates, A2 needs 2"):
        rs.coords_of((1, 0, 0))
    assert rs.coords_of(Weight((1, 0))) == rs.coords_of([1, 0]) == (1, 0)
    with pytest.raises(InputError):
        rs.fundamental_weight(3)
    with pytest.raises(InputError):
        rs.fundamental_weight(0)


def test_systems_are_cached_singletons() -> None:
    assert build_root_system("B", 4) is build_root_system("B", 4)


@pytest.mark.parametrize(
    "cartan, d, message",
    (
        # A2's Cartan matrix with unequal root lengths: <alpha, beta-vee> = 2/3.
        ([[2, -1], [-1, 2]], [1, 2], "non-integral coroot pairing"),
        # A1 x A1 is reducible: both simple roots are dominant.
        ([[2, 0], [0, 2]], [1, 1], "expected one dominant root, found 2"),
    ),
)
def test_bad_cartan_data_is_an_internal_error(monkeypatch, cartan, d, message) -> None:
    monkeypatch.setattr(rootsys, "_cartan_and_lengths", lambda family, rank: (cartan, d))
    with pytest.raises(OracleError, match=message):
        build_root_system.__wrapped__("A", 2)


def test_a_w0_word_that_misses_minus_rho_is_an_internal_error(monkeypatch) -> None:
    # With a root left out, the word stops short of -rho after len(roots) steps.
    closure = rootsys._positive_roots
    monkeypatch.setattr(rootsys, "_positive_roots", lambda cartan: closure(cartan)[1:])
    with pytest.raises(OracleError, match=r"drives rho to \[1, -2\], not -rho"):
        build_root_system.__wrapped__("A", 2)


def fraction_adjugate_and_det(mat: list[list[int]]) -> tuple[list[list[int]], int]:
    """Adjugate and determinant by Gauss-Jordan over the rationals, with row swaps."""
    n = len(mat)
    aug = [[Q(x) for x in row] + [Q(int(i == j)) for j in range(n)] for i, row in enumerate(mat)]
    det = Q(1)
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
            det = -det
        det *= aug[col][col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [[int(x * det) for x in row[n:]] for row in aug], int(det)


SUPPORTED_SYSTEMS = [
    (family, rank)
    for family, low in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
    for rank in range(low, MAX_CLASSICAL_RANK + 1)
] + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]


def test_integer_adjugate_on_every_supported_system() -> None:
    expected_det = {"B": 2, "C": 2, "D": 4, "F": 1, "G": 1}
    for family, rank in SUPPORTED_SYSTEMS:
        cartan, _ = _cartan_and_lengths(family, rank)
        adj, det = _adjugate_and_det(cartan)
        assert (adj, det) == fraction_adjugate_and_det(cartan), (family, rank)
        if family == "A":
            assert det == rank + 1
        elif family == "E":
            assert det == 9 - rank
        else:
            assert det == expected_det[family]
        n = len(cartan)
        product = [[sum(cartan[i][k] * adj[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        assert product == [[det * (i == j) for j in range(n)] for i in range(n)]
        rs = build_root_system(family, rank)
        assert rs.cartan_det == det
        assert rs.adjugate_columns == tuple(zip(*adj))
    assert len(SUPPORTED_SYSTEMS) == 48


def test_integer_adjugate_refuses_a_zero_pivot() -> None:
    with pytest.raises(OracleError, match="leading principal minor 1"):
        _adjugate_and_det([[0, 1], [1, 0]])


def _d_from_root_coords(rs: RootSystem, rc: tuple[Q, ...]) -> Q:
    """Case formula for d(lambda) = <lambda, highest-coroot> from root-basis coordinates."""
    fam, n = rs.family, rs.rank
    if fam == "A":
        return 2 * rc[0] if n == 1 else rc[0] + rc[n - 1]
    if fam in ("C", "F") or (fam, n) == ("E", 7):
        return rc[0]
    if fam in ("B", "D", "G") or (fam, n) == ("E", 6):
        return rc[1]
    if (fam, n) == ("E", 8):
        # The highest root is the 8th fundamental weight.
        return rc[7]
    raise OracleError(f"no d(lambda) case for {rs.name}")


def test_pairing_matches_the_case_formula_for_d() -> None:
    for family, rank in SUPPORTED_SYSTEMS:
        rs = build_root_system(family, rank)
        for i in range(1, rank + 1):
            coords = rs.fundamental_weight(i).coords
            rc = tuple(Q(x, rs.cartan_det) for x in rs.root_basis_scaled(coords))
            assert rs.pairing(coords) == _d_from_root_coords(rs, rc), (rs.name, i)


def root_string_positive_roots(cartan: list[list[int]]) -> list[tuple[int, ...]]:
    """Positive roots by alpha_i-strings, in the order `positive_roots` keeps.

    alpha + alpha_i is a root exactly when the alpha_i-string through alpha
    runs q steps down and q - <alpha, alpha_i-vee> > 0 steps up.  Each height
    is listed in ascending tuple order after the simple roots.
    """
    n = len(cartan)
    level = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    roots = set(level)
    out = list(level)
    while level:
        nxt = []
        for rc in level:
            for i in range(n):
                pair = sum(rc[j] * cartan[j][i] for j in range(n))
                down = 0
                probe = list(rc)
                while True:
                    probe[i] -= 1
                    if probe[i] < 0 or tuple(probe) not in roots:
                        break
                    down += 1
                if down - pair > 0:
                    up = rc[:i] + (rc[i] + 1,) + rc[i + 1 :]
                    if up not in roots:
                        roots.add(up)
                        nxt.append(up)
        out.extend(sorted(nxt))
        level = nxt
    return out


def test_positive_roots_run_by_height_with_the_highest_root_last() -> None:
    for family, rank in SUPPORTED_SYSTEMS:
        rs = build_root_system(family, rank)
        cartan, _ = _cartan_and_lengths(family, rank)
        roots = rs.positive_roots
        assert [r.root_coords for r in roots] == root_string_positive_roots(cartan), rs.name
        # The highest root is the one dominant long root.  The coroot of the
        # highest short root is the highest root of the dual system, whose
        # height is h - 1 (Bourbaki, Lie VI, 1.11).
        longest, shortest = max(r.length2 for r in roots), min(r.length2 for r in roots)
        dominant = [r for r in roots if min(r.omega_coords) >= 0]
        assert [r for r in dominant if r.length2 == longest] == [roots[-1]], rs.name
        assert rs.highest_root.coords == roots[-1].omega_coords
        (short,) = [r for r in dominant if r.length2 == shortest]
        assert rs.coxeter_number == sum(short.coroot_pairing) + 1 == 2 * len(roots) // rank


def _astuple(value: object) -> object:
    """A record as the tuple of its fields, entered recursively through records and tuples."""
    if isinstance(value, Record):
        return tuple(_astuple(getattr(value, f)) for f in value.__slots__)
    if isinstance(value, tuple):
        return tuple(map(_astuple, value))
    return value


def _build_digest() -> str:
    """SHA-256 over every field of every supported system, each Root included."""
    digest = hashlib.sha256()
    for family, rank in SUPPORTED_SYSTEMS:
        rs = build_root_system.__wrapped__(family, rank)
        digest.update(repr(list(rs.__slots__)).encode())
        digest.update(repr(_astuple(rs)).encode())
    return digest.hexdigest()


def test_every_supported_system_builds_the_pinned_data() -> None:
    # Pinned from the two-pass build, which summed every pairing from the
    # Cartan matrix: a faster build must give the same systems field for field.
    assert _build_digest() == "12af1b541acdcbc6a49b5d8ca5bfb2375559a0bd13be7ff86af621e3f649dfe0"
