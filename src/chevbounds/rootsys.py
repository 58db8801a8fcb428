"""Exact root-system data for the irreducible families A through G.

Weights are stored by their coordinates in the fundamental-weight basis, so
the i-th coordinate of a weight sigma is the integer <sigma, alpha_i-vee>.
Simple roots are numbered in the standard Bourbaki order.  All derived data
(positive roots, Coxeter numbers, fundamental group) is computed from the
Cartan matrix with integer arithmetic only.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt
from operator import mul, sub
from typing import Iterable, Optional, Sequence, Union

from .errors import InputError, OracleError, Record, _shown, require_int

Coords = tuple[int, ...]

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")
MAX_CLASSICAL_RANK = 12
_INT = frozenset((int,))


class Weight(Record):
    """An element of the weight lattice in fundamental-weight coordinates.

    It has no arithmetic, because it cannot check an operand's rank; read
    checked coordinates with `RootSystem.coords_of`.
    """

    coords: Coords

    def __post_init__(self) -> None:
        # One C-level pass; `type` rather than isinstance refuses bool.
        if not isinstance(self.coords, tuple) or not _INT.issuperset(map(type, self.coords)):
            raise InputError("Weight coordinates must be a tuple of integers")

    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    @staticmethod
    def of(w: "WeightLike") -> "Weight":
        """w itself if it is a Weight, else the Weight of its integer entries."""
        if isinstance(w, Weight):
            return w
        try:
            return Weight(tuple(w))
        except TypeError:
            raise InputError(f"a weight is a sequence of integers, got {_shown(w)}") from None


WeightLike = Union[Weight, Iterable[int]]


class Root(Record):
    """A positive root with both coordinate systems precomputed.

    omega_coords: fundamental-weight coordinates (row vector times Cartan).
    root_coords: integer coordinates in the simple-root basis.
    coroot_pairing: integer vector v with <sigma, alpha-vee> = sum v[i]*sigma[i].
    length2: squared length, normalized so short roots have length2 == 2.
    """

    omega_coords: Coords
    root_coords: Coords
    coroot_pairing: Coords
    length2: int


class RootSystem(Record, eq=False):
    """Immutable container for one irreducible root system.

    `positive_roots` run by increasing height, so the highest root comes last.
    """

    family: str
    rank: int
    cartan_matrix: tuple[Coords, ...]  # row i: alpha_i in fundamental-weight coordinates
    positive_roots: tuple[Root, ...]
    highest_root: Weight
    coxeter_number: int
    dual_coxeter_number: int
    fundamental_group_invariants: tuple[int, ...]
    # Implementation data used by the other modules.
    d_symmetrizer: Coords  # half squared lengths of the simple roots
    adjugate_columns: tuple[Coords, ...]  # columns of det * inverse Cartan
    cartan_det: int
    highest_root_pairing: Coords  # <omega_i, highest-root-vee>
    w0_word: tuple[int, ...]  # simple reflections driving rho to -rho

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def zero(self) -> Weight:
        return Weight((0,) * self.rank)

    def fundamental_weight(self, i: int) -> Weight:
        """The i-th fundamental weight, 1-indexed."""
        require_int(i, "fundamental weight index i", 1, self.rank)
        return Weight((0,) * (i - 1) + (1,) + (0,) * (self.rank - i))

    def coords_of(self, w: WeightLike) -> Coords:
        """The coordinates of w; the one check that w is a weight of this system.

        A weight is a tuple of ints (not bools) as long as the rank.  Every
        public function that takes a weight reads it here once.
        """
        coords = Weight.of(w).coords
        if len(coords) != self.rank:
            raise InputError(
                f"weight {_shown(coords)} has {len(coords)} coordinates, "
                f"{self.name} needs {self.rank}"
            )
        return coords

    def root_basis_scaled(self, coords: Sequence[int]) -> Coords:
        """cartan_det times the root-basis coordinates; the caller checks the rank."""
        return tuple(sum(map(mul, coords, col)) for col in self.adjugate_columns)

    def pairing(self, w: WeightLike, coroot: Optional[Coords] = None) -> int:
        """<w, alpha-vee> from a `coroot_pairing` vector; the highest coroot by default.

        The caller passes a weight of this system's rank; it is not checked.
        """
        coords = w.coords if isinstance(w, Weight) else w
        vec = self.highest_root_pairing if coroot is None else coroot
        return sum(map(mul, vec, coords))

    def reflect(self, coords: Coords, i: int) -> Coords:
        """The i-th simple reflection (0-indexed) of coords; the caller checks the rank."""
        c = coords[i]
        if c == 0:
            return coords
        return tuple(x - c * r for x, r in zip(coords, self.cartan_matrix[i]))

    def dominant_representative(self, coords: Coords) -> Coords:
        """The dominant weight in the Weyl orbit of coords.

        Reflects a list in place through the first negative coordinate and
        starts over; a dominant input is returned as it came.  A reflection
        s_i negates coordinate i and changes only the nodes joined to i in
        the Cartan matrix, so it updates those alone.  The caller passes
        coordinates of this system's rank; they are not checked.
        """
        if min(coords) >= 0:
            return coords
        links = _cartan_links(self)
        cur = list(coords)
        n = len(cur)
        i = 0
        while i < n:
            c = cur[i]
            if c < 0:
                cur[i] = -c
                for j, r in links[i]:
                    cur[j] -= c * r
                i = 0
            else:
                i += 1
        return tuple(cur)


@lru_cache(maxsize=64)
def _cartan_links(rs: RootSystem) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per node i, the (j, a_ij) with j != i and a_ij != 0: the nodes s_i changes besides i.

    Built on a system's first non-dominant reflection; the bound is above
    the 48 supported systems.
    """
    return tuple(
        tuple([(j, r) for j, r in enumerate(row) if r and j != i])
        for i, row in enumerate(rs.cartan_matrix)
    )


def _cartan_and_lengths(family: str, rank: int) -> tuple[list[list[int]], list[int]]:
    n = rank
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def link(i: int, j: int, cij: int = -1, cji: int = -1) -> None:
        c[i][j] = cij
        c[j][i] = cji

    if family == "A":
        for i in range(n - 1):
            link(i, i + 1)
        d = [1] * n
    elif family == "B":
        for i in range(n - 2):
            link(i, i + 1)
        link(n - 2, n - 1, -2, -1)  # last simple root is short
        d = [2] * (n - 1) + [1]
    elif family == "C":
        for i in range(n - 2):
            link(i, i + 1)
        link(n - 2, n - 1, -1, -2)  # last simple root is long
        d = [1] * (n - 1) + [2]
    elif family == "D":
        for i in range(n - 3):
            link(i, i + 1)
        link(n - 3, n - 2)
        link(n - 3, n - 1)
        d = [1] * n
    elif family == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for a, b in zip(chain, chain[1:]):
            link(a, b)
        link(1, 3)
        d = [1] * n
    elif family == "F":
        link(0, 1)
        link(1, 2, -2, -1)
        link(2, 3)
        d = [2, 2, 1, 1]
    else:  # G
        link(0, 1, -1, -3)
        d = [1, 3]
    return c, d


def _validate(family: str, rank: int) -> None:
    if family not in FAMILIES:
        raise InputError(f"unknown family {family!r}; expected one of {FAMILIES}")
    low = {"A": 1, "B": 2, "C": 2, "D": 4, "E": 6, "F": 4, "G": 2}[family]
    high = {"E": 8, "F": 4, "G": 2}.get(family, MAX_CLASSICAL_RANK)
    require_int(rank, f"rank of family {family}", low, high)


def _positive_roots(cartan: list[list[int]]) -> list[tuple[Coords, Coords]]:
    """(simple-root coords, fundamental-weight coords) of every positive root, by height.

    The simple roots come first in index order, then each height in ascending
    tuple order.  A root's i-th fundamental-weight coordinate is its pairing
    c = <beta, alpha_i-vee>.  For a positive root beta with c < 0,
    s_i beta = beta - c alpha_i is a higher positive root, and every positive
    root that is not simple is reached this way from a lower one (reflect it
    down through an i with c > 0), so the roots are the closure of the simple
    roots under these up-reflections.  The closure carries both coordinate
    systems: s_i adds -c to the i-th root coordinate and subtracts c times
    alpha_i, row i of the Cartan matrix, from the pairings.
    """
    n = len(cartan)
    simple = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    omega = {rc: tuple(row) for rc, row in zip(simple, cartan)}
    stack = list(omega.items())
    while stack:
        rc, pairings = stack.pop()
        for i, c in enumerate(pairings):
            if c < 0:
                up = rc[:i] + (rc[i] - c,) + rc[i + 1 :]
                if up not in omega:
                    omega[up] = tuple([x - c * r for x, r in zip(pairings, cartan[i])])
                    stack.append((up, omega[up]))
    higher = sorted(omega.keys() - set(simple), key=lambda rc: (sum(rc), rc))
    return [(rc, omega[rc]) for rc in simple + higher]


def _adjugate_and_det(mat: list[list[int]]) -> tuple[list[list[int]], int]:
    """Adjugate and determinant of a Cartan matrix, in integers.

    Fraction-free (Bareiss) Gauss-Jordan on [C | I]: row_i becomes
    (pivot * row_i - row_i[k] * row_k) // previous pivot, exactly, and ends as
    [det * I | adj].  The pivots are the leading principal minors, positive
    for a finite-type Cartan matrix.
    """
    n = len(mat)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    prev = 1
    for k in range(n):
        pivot = aug[k][k]
        if pivot == 0:
            raise OracleError(f"leading principal minor {k + 1} of {mat} is 0")
        for i in range(n):
            if i != k:
                f = aug[i][k]
                aug[i] = [(pivot * x - f * y) // prev for x, y in zip(aug[i], aug[k])]
        prev = pivot
    return [row[n:] for row in aug], prev


def _fundamental_group_invariants(adj: list[list[int]], det: int) -> tuple[int, ...]:
    """Invariant factors above 1 of X(T) / (root lattice), read off the adjugate.

    The adjugate's entries are the signed (n-1)-minors of the Cartan matrix,
    so their gcd g is d_1 ... d_(n-1), the product of its first n - 1
    invariant factors, and det / g is d_n (determinantal divisors; M. Newman,
    Integral Matrices, 1972, ch. II).  As d_1 | d_2 | ..., a squarefree g
    leaves d_1 = ... = d_(n-2) = 1 and d_(n-1) = g.
    """
    g = gcd(*(x for row in adj for x in row))
    if any(g % (k * k) == 0 for k in range(2, isqrt(g) + 1)):
        raise OracleError(f"gcd {g} of the Cartan adjugate is not squarefree")
    return tuple(x for x in (g, det // g) if x > 1) or (1,)


# Unbounded: the keys are the 48 supported systems.  Typed, so ("A", 2.0) misses ("A", 2).
@lru_cache(maxsize=None, typed=True)
def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct (and memoize) the root system of the given family and rank."""
    _validate(family, rank)
    cartan, d = _cartan_and_lengths(family, rank)
    n = rank
    roots: list[Root] = []
    for rc, omega in _positive_roots(cartan):
        scaled = [2 * x * dj for x, dj in zip(rc, d)]  # 2 d_j beta_j
        length2 = sum(map(mul, scaled, omega)) // 2
        if any([x % length2 for x in scaled]):
            raise OracleError(f"non-integral coroot pairing for root {rc}")
        roots.append(Root(omega, rc, tuple([x // length2 for x in scaled]), length2))

    # A root of greatest height has no up-reflection, so it is dominant; the
    # highest root is the one such root (Bourbaki, Lie VI, 1.8), and
    # |Phi| = rank * h (Humphreys, Reflection Groups and Coxeter Groups, ch. 3).
    highest = roots[-1]
    tops = sum(1 for root in roots if sum(root.root_coords) == sum(highest.root_coords))
    if tops != 1:
        raise OracleError(f"expected one dominant root, found {tops}")
    h = 2 * len(roots) // n
    h_dual = sum(highest.coroot_pairing) + 1

    adj, det = _adjugate_and_det(cartan)
    invariants = _fundamental_group_invariants(adj, det)

    # Word for the longest Weyl element, found by driving rho to -rho in |Phi+| steps.
    word: list[int] = []
    cur = [1] * n
    for _ in roots:
        i = next((k for k, c in enumerate(cur) if c > 0), None)
        if i is None:
            break
        c = cur[i]
        for j, r in enumerate(cartan[i]):
            cur[j] -= c * r
        word.append(i)
    if cur != [-1] * n:
        raise OracleError(f"the w0 word of {family}{rank} drives rho to {cur}, not -rho")

    return RootSystem(
        family=family,
        rank=rank,
        cartan_matrix=tuple(map(tuple, cartan)),
        positive_roots=tuple(roots),
        highest_root=Weight(highest.omega_coords),
        coxeter_number=h,
        dual_coxeter_number=h_dual,
        fundamental_group_invariants=invariants,
        d_symmetrizer=tuple(d),
        adjugate_columns=tuple(zip(*adj)),
        cartan_det=det,
        highest_root_pairing=highest.coroot_pairing,
        w0_word=tuple(word),
    )


def parse_type(label: str) -> RootSystem:
    """Build a root system from a label like 'A5' or 'G2'."""
    text = label.strip()
    if len(text) < 2 or text[0].upper() not in FAMILIES:
        raise InputError(f"cannot parse root system label {label!r}")
    family, digits = text[0].upper(), text[1:]
    try:
        # int() alone would also read '1_0', ' 1', '+1', '01' and non-ASCII
        # digits; a leading zero would give one system a second label.
        if not (digits.isascii() and digits.isdigit()) or digits[0] == "0":
            raise ValueError("not an ASCII numeral without a leading zero")
        rank = int(digits)
    except ValueError as exc:  # also past the interpreter's int-digit limit
        raise InputError(f"cannot parse rank in label {label!r}") from exc
    return build_root_system(family, rank)


def apply_w0(rs: RootSystem, w: WeightLike) -> Weight:
    """Image of w under the longest Weyl group element."""
    cur = rs.coords_of(w)
    for i in rs.w0_word:
        cur = rs.reflect(cur, i)
    return Weight(cur)


def dual_weight(rs: RootSystem, w: WeightLike) -> Weight:
    """The highest weight of the dual module, -w0(w)."""
    return Weight(tuple([-c for c in apply_w0(rs, w).coords]))


def dominance_leq(rs: RootSystem, mu: WeightLike, lam: WeightLike) -> bool:
    """True when lam - mu is a non-negative integer sum of simple roots."""
    diff = tuple(map(sub, rs.coords_of(lam), rs.coords_of(mu)))
    det = rs.cartan_det
    return all(x >= 0 and x % det == 0 for x in rs.root_basis_scaled(diff))
