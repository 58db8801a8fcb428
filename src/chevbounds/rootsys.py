"""Exact root-system data for the irreducible families A through G.

Weights are stored by their coordinates in the fundamental-weight basis, so
the i-th coordinate of a weight sigma is the integer <sigma, alpha_i-vee>.
Simple roots are numbered in the standard Bourbaki order.  All derived data
(positive roots, Weyl vector, Coxeter numbers, fundamental group) is computed
from the Cartan matrix with integer and Fraction arithmetic only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Union

from .errors import InputError

Coords = tuple[int, ...]

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")
MAX_CLASSICAL_RANK = 12


@dataclass(frozen=True)
class Weight:
    """An element of the weight lattice in fundamental-weight coordinates."""

    coords: Coords

    def __post_init__(self) -> None:
        if not isinstance(self.coords, tuple) or not all(
            isinstance(c, int) for c in self.coords
        ):
            raise InputError("Weight coordinates must be a tuple of integers")

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.coords))

    def __mul__(self, scalar: int) -> "Weight":
        return Weight(tuple(scalar * a for a in self.coords))

    __rmul__ = __mul__

    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


WeightLike = Union[Weight, Iterable[int]]


@dataclass(frozen=True)
class Root:
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


@dataclass(frozen=True, eq=False)
class RootSystem:
    """Immutable container for one irreducible root system."""

    family: str
    rank: int
    cartan_matrix: tuple[Coords, ...]
    simple_roots: tuple[Weight, ...]
    positive_roots: tuple[Root, ...]
    highest_root: Weight
    highest_short_root: Weight
    rho: Weight
    coxeter_number: int
    dual_coxeter_number: int
    fundamental_group_invariants: tuple[int, ...]
    # Implementation data used by the other modules.
    d_symmetrizer: Coords  # half squared lengths of the simple roots
    cartan_adjugate: tuple[Coords, ...]  # det * inverse Cartan, integer
    cartan_det: int
    highest_root_pairing: Coords  # <omega_i, highest-root-vee>
    highest_short_pairing: Coords
    long_positive_roots: tuple[Root, ...]
    w0_word: tuple[int, ...]  # simple reflections driving rho to -rho

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def zero(self) -> Weight:
        return Weight((0,) * self.rank)

    def fundamental_weight(self, i: int) -> Weight:
        """The i-th fundamental weight, 1-indexed."""
        if not 1 <= i <= self.rank:
            raise InputError(f"fundamental weight index out of range: {i}")
        return Weight(tuple(1 if j == i - 1 else 0 for j in range(self.rank)))

    def weight(self, coords: Iterable[int]) -> Weight:
        w = Weight(tuple(coords))
        if len(w.coords) != self.rank:
            raise InputError(
                f"expected {self.rank} coordinates, got {len(w.coords)}"
            )
        return w

    def coords_of(self, w: WeightLike) -> Coords:
        """Coordinates of a Weight or an integer sequence, checked against the rank."""
        coords = w.coords if isinstance(w, Weight) else tuple(w)
        if len(coords) != self.rank:
            raise InputError(
                f"weight has {len(coords)} coordinates, {self.name} needs {self.rank}"
            )
        return coords

    def root_basis_coords(self, w: Weight) -> tuple[Q, ...]:
        """Exact coordinates of w in the simple-root basis."""
        scaled = self.root_basis_scaled(w.coords)
        return tuple(Q(x, self.cartan_det) for x in scaled)

    def root_basis_scaled(self, coords: Sequence[int]) -> Coords:
        """Integer vector equal to cartan_det times the root-basis coordinates."""
        adj = self.cartan_adjugate
        n = self.rank
        return tuple(
            sum(coords[i] * adj[i][j] for i in range(n)) for j in range(n)
        )

    def pairing(self, w: WeightLike, coroot: Optional[Coords] = None) -> int:
        """<w, alpha-vee> from a `coroot_pairing` vector; the highest coroot by default."""
        coords = w.coords if isinstance(w, Weight) else w
        vec = self.highest_root_pairing if coroot is None else coroot
        return sum(v * c for v, c in zip(vec, coords))

    def reflect(self, coords: Coords, i: int) -> Coords:
        """Apply the i-th simple reflection (0-indexed) in omega coordinates."""
        c = coords[i]
        if c == 0:
            return coords
        row = self.simple_roots[i].coords
        return tuple(x - c * r for x, r in zip(coords, row))

    def dominant_representative(self, coords: Coords) -> Coords:
        """The dominant weight in the Weyl orbit of coords."""
        cur = coords
        while True:
            for i, c in enumerate(cur):
                if c < 0:
                    cur = self.reflect(cur, i)
                    break
            else:
                return cur


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
    high = {"A": 12, "B": 12, "C": 12, "D": 12, "E": 8, "F": 4, "G": 2}[family]
    if not low <= rank <= high:
        raise InputError(
            f"rank {rank} out of range for family {family} "
            f"(supported: {low}..{high})"
        )


def _positive_root_coords(cartan: list[list[int]]) -> list[Coords]:
    """All positive roots in simple-root coordinates, by increasing height."""
    n = len(cartan)
    roots: set[Coords] = set()
    level: list[Coords] = []
    for i in range(n):
        rc = tuple(1 if j == i else 0 for j in range(n))
        roots.add(rc)
        level.append(rc)
    out = list(level)
    while level:
        nxt: list[Coords] = []
        for rc in level:
            for i in range(n):
                pair = sum(rc[j] * cartan[j][i] for j in range(n))
                back = 0
                probe = list(rc)
                while True:
                    probe[i] -= 1
                    if probe[i] < 0 or tuple(probe) not in roots:
                        break
                    back += 1
                if back - pair > 0:
                    up = list(rc)
                    up[i] += 1
                    cand = tuple(up)
                    if cand not in roots:
                        roots.add(cand)
                        nxt.append(cand)
        out.extend(sorted(nxt))
        level = nxt
    return out


def _adjugate_and_det(mat: list[list[int]]) -> tuple[list[list[int]], int]:
    """Adjugate and determinant of a small integer matrix, exactly."""
    n = len(mat)
    work = [[Q(mat[i][j]) for j in range(n)] for i in range(n)]
    aug = [row + [Q(1) if i == j else Q(0) for j in range(n)] for i, row in enumerate(work)]
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
    det_int = int(det)
    adj = [[aug[i][n + j] * det_int for j in range(n)] for i in range(n)]
    adj_int = [[int(x) for x in row] for row in adj]
    return adj_int, det_int


def _smith_diagonal(mat: list[list[int]]) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix."""
    m = [row[:] for row in mat]
    n = len(m)
    diag: list[int] = []
    for k in range(n):
        while True:
            pivot = None
            best = None
            for i in range(k, n):
                for j in range(k, n):
                    v = abs(m[i][j])
                    if v and (best is None or v < best):
                        best = v
                        pivot = (i, j)
            if pivot is None:
                diag.append(0)
                break
            pi, pj = pivot
            m[k], m[pi] = m[pi], m[k]
            for row in m:
                row[k], row[pj] = row[pj], row[k]
            pv = m[k][k]
            dirty = False
            for i in range(k + 1, n):
                if m[i][k] % pv:
                    dirty = True
                q = m[i][k] // pv
                if q:
                    for j in range(k, n):
                        m[i][j] -= q * m[k][j]
            for j in range(k + 1, n):
                if m[k][j] % pv:
                    dirty = True
                q = m[k][j] // pv
                if q:
                    for i in range(k, n):
                        m[i][j] -= q * m[i][k]
            if dirty:
                continue
            if all(m[i][k] == 0 for i in range(k + 1, n)) and all(
                m[k][j] == 0 for j in range(k + 1, n)
            ):
                diag.append(abs(pv))
                break
    # Enforce the divisibility chain d1 | d2 | ... with gcd/lcm fixups.
    from math import gcd

    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if a and b and b % a:
                g = gcd(a, b)
                diag[i], diag[i + 1] = g, a * b // g
                changed = True
    return diag


@lru_cache(maxsize=None)
def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct (and memoize) the root system of the given family and rank."""
    _validate(family, rank)
    cartan, d = _cartan_and_lengths(family, rank)
    n = rank
    alpha_rows = [tuple(cartan[i]) for i in range(n)]

    pos_rc = _positive_root_coords(cartan)
    roots: list[Root] = []
    for rc in pos_rc:
        omega = tuple(
            sum(rc[i] * cartan[i][j] for i in range(n)) for j in range(n)
        )
        length2 = sum(rc[j] * d[j] * omega[j] for j in range(n))
        pairing = tuple(2 * d[j] * rc[j] // length2 for j in range(n))
        if any(2 * d[j] * rc[j] % length2 for j in range(n)):
            raise InputError(f"non-integral coroot pairing for root {rc}")
        roots.append(Root(omega, rc, pairing, length2))

    max_len = max(r.length2 for r in roots)
    min_len = min(r.length2 for r in roots)
    long_roots = tuple(r for r in roots if r.length2 == max_len)
    short_roots = tuple(r for r in roots if r.length2 == min_len)

    def dominant_root(candidates: Sequence[Root]) -> Root:
        best = [r for r in candidates if all(c >= 0 for c in r.omega_coords)]
        if len(best) != 1:
            raise InputError(f"expected one dominant root, found {len(best)}")
        return best[0]

    highest = dominant_root(long_roots)
    highest_short = dominant_root(short_roots)

    rho = Weight((1,) * n)
    h = sum(highest_short.coroot_pairing) + 1
    h_dual = sum(highest.coroot_pairing) + 1

    adj, det = _adjugate_and_det(cartan)
    snf = _smith_diagonal(cartan)
    invariants = tuple(x for x in snf if x > 1) or (1,)

    # Word for the longest Weyl element, found by driving rho to -rho.
    word: list[int] = []
    cur = rho.coords
    target = tuple(-1 for _ in range(n))
    while cur != target:
        i = next(k for k, c in enumerate(cur) if c > 0)
        c = cur[i]
        cur = tuple(x - c * r for x, r in zip(cur, alpha_rows[i]))
        word.append(i)

    return RootSystem(
        family=family,
        rank=rank,
        cartan_matrix=tuple(alpha_rows),
        simple_roots=tuple(Weight(row) for row in alpha_rows),
        positive_roots=tuple(roots),
        highest_root=Weight(highest.omega_coords),
        highest_short_root=Weight(highest_short.omega_coords),
        rho=rho,
        coxeter_number=h,
        dual_coxeter_number=h_dual,
        fundamental_group_invariants=invariants,
        d_symmetrizer=tuple(d),
        cartan_adjugate=tuple(tuple(row) for row in adj),
        cartan_det=det,
        highest_root_pairing=highest.coroot_pairing,
        highest_short_pairing=highest_short.coroot_pairing,
        long_positive_roots=long_roots,
        w0_word=tuple(word),
    )


def parse_type(label: str) -> RootSystem:
    """Build a root system from a label like 'A5' or 'G2'."""
    text = label.strip()
    if len(text) < 2 or text[0].upper() not in FAMILIES:
        raise InputError(f"cannot parse root system label {label!r}")
    family = text[0].upper()
    try:
        rank = int(text[1:])
    except ValueError as exc:
        raise InputError(f"cannot parse rank in label {label!r}") from exc
    return build_root_system(family, rank)


def apply_w0(rs: RootSystem, w: Weight) -> Weight:
    """Image of w under the longest Weyl group element."""
    cur = w.coords
    for i in rs.w0_word:
        cur = rs.reflect(cur, i)
    return Weight(cur)


def dual_weight(rs: RootSystem, w: Weight) -> Weight:
    """The highest weight of the dual module, -w0(w)."""
    return -apply_w0(rs, w)


def dominance_leq(rs: RootSystem, mu: Weight, lam: Weight) -> bool:
    """True when lam - mu is a non-negative integer sum of simple roots."""
    diff = lam - mu
    scaled = rs.root_basis_scaled(diff.coords)
    det = rs.cartan_det
    return all(x >= 0 and x % det == 0 for x in scaled)
