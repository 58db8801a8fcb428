"""Weight multisets of modules: characters, graded powers, twisted products.

Multiplicities are plain Python integers, so they never overflow.  A Weyl
character is built from its dominant weights: the dominant weights below the
highest weight come from a downward search over positive roots, the Freudenthal
recursion gives their multiplicities, and only then are the multiplicities
spread along Weyl orbits.  The result is checked against the Weyl dimension
formula before it is returned.

A multiset known to be W-stable (a Weyl character, or the trivial module)
also carries its dominant entries in `dominant`.  Every orbit invariant of
the module (the highest-coroot pairing b, the largest root-basis coefficient,
the class modulo the root lattice) is attained at a dominant weight, so
readers of those invariants scan `dominant` instead of the full `items`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator, Mapping, Optional

from .errors import InputError, OracleError, ResourceLimitError
from .rootsys import Coords, RootSystem, Weight, WeightLike, build_root_system

DEFAULT_ENTRY_CAP = 10**7

Entries = tuple[tuple[Coords, int], ...]


@dataclass(frozen=True)
class WeightMultiset:
    """A finite multiset of weights with positive integer multiplicities.

    `dominant` holds the sorted dominant entries of a W-stable multiset and
    is None when stability is not known.  It takes no part in equality,
    hashing or repr: two multisets with the same items are the same.
    """

    items: Entries
    dominant: Optional[Entries] = field(default=None, compare=False, repr=False)

    @staticmethod
    def from_dict(table: Mapping[Coords, int]) -> "WeightMultiset":
        cleaned = {}
        for coords, mult in table.items():
            key = coords.coords if isinstance(coords, Weight) else tuple(coords)
            if mult < 0:
                raise InputError(f"negative multiplicity for {key}")
            if mult:
                cleaned[key] = cleaned.get(key, 0) + mult
        return WeightMultiset(tuple(sorted(cleaned.items())))

    @staticmethod
    def single(rs: RootSystem, w: WeightLike, mult: int = 1) -> "WeightMultiset":
        return WeightMultiset.from_dict({rs.coords_of(w): mult})

    @staticmethod
    def trivial(rs: RootSystem) -> "WeightMultiset":
        entries = (((0,) * rs.rank, 1),)
        return WeightMultiset(entries, dominant=entries)

    def coords_items(self) -> Iterator[tuple[Coords, int]]:
        return iter(self.items)

    def as_dict(self) -> dict[Coords, int]:
        return dict(self.items)

    def multiplicity(self, w: WeightLike) -> int:
        key = w.coords if isinstance(w, Weight) else tuple(w)
        return dict(self.items).get(key, 0)

    @property
    def total_dimension(self) -> int:
        return sum(m for _, m in self.items)

    @property
    def support_size(self) -> int:
        return len(self.items)

    def is_empty(self) -> bool:
        return not self.items

    def weights(self) -> Iterator[Weight]:
        for coords, _ in self.items:
            yield Weight(coords)


def nilradical_dual_weights(rs: RootSystem) -> WeightMultiset:
    """Weights of the dual of the nilradical: every positive root, once."""
    return WeightMultiset.from_dict(
        {root.omega_coords: 1 for root in rs.positive_roots}
    )


def weyl_dimension(rs: RootSystem, lam: WeightLike) -> int:
    """Dimension of the highest-weight module, by the Weyl product formula."""
    coords = rs.coords_of(lam)
    if any(c < 0 for c in coords):
        raise InputError("weyl_dimension needs a dominant weight")
    shifted = tuple(c + 1 for c in coords)
    num = 1
    den = 1
    for root in rs.positive_roots:
        num *= rs.pairing(shifted, root.coroot_pairing)
        den *= sum(root.coroot_pairing)
    if num % den:
        raise OracleError("Weyl dimension formula did not give an integer")
    return num // den


def _dominant_levels(rs: RootSystem, lam: Coords) -> dict[Coords, int]:
    """Every dominant weight mu <= lam, mapped to the height of lam - mu.

    Downward search from lam over positive roots, keeping dominant weights
    only.  Any two dominant weights mu < lam are joined by a chain of dominant
    weights whose steps are positive roots (Stembridge, "The partial order of
    dominant weights", 1998), so the search reaches every one of them.
    """
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


def _freudenthal_multiplicities(
    rs: RootSystem, lam: Coords, level: dict[Coords, int]
) -> dict[Coords, int]:
    """Multiplicity of every dominant weight mu <= lam, keyed in `level`.

    A weight nu belongs to the module exactly when its dominant
    representative is one of the dominant weights in `level`.
    """
    n = rs.rank
    det = rs.cartan_det

    def scaled_norm(coords: Coords) -> int:
        # det * <v, v> where v = coords + rho, as an integer.
        v = tuple(c + 1 for c in coords)
        scaled = rs.root_basis_scaled(v)
        d = rs.d_symmetrizer
        return sum(scaled[j] * d[j] * v[j] for j in range(n))

    # Integer vectors giving det-free inner products <v, alpha>.
    root_data = [
        (
            root.omega_coords,
            tuple(root.root_coords[j] * rs.d_symmetrizer[j] for j in range(n)),
        )
        for root in rs.positive_roots
    ]

    top_norm = scaled_norm(lam)
    mult: dict[Coords, int] = {lam: 1}
    for mu in sorted(level, key=level.__getitem__):
        if mu == lam:
            continue
        total = 0
        for omega, ip_vec in root_data:
            nu = tuple(a + b for a, b in zip(mu, omega))
            while (dom := rs.dominant_representative(nu)) in level:
                total += mult[dom] * sum(v * c for v, c in zip(ip_vec, nu))
                nu = tuple(a + b for a, b in zip(nu, omega))
        denom = top_norm - scaled_norm(mu)
        value = Q(2 * det * total, denom)
        if value.denominator != 1 or value <= 0:
            raise OracleError(f"bad multiplicity {value} at {mu}")
        mult[mu] = int(value)
    return mult


def _orbit(rs: RootSystem, start: Coords) -> set[Coords]:
    n = rs.rank
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(n):
                if w[i] == 0:
                    continue
                img = rs.reflect(w, i)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


@lru_cache(maxsize=None)
def _character_cached(family: str, rank: int, lam: Coords, cap: int) -> WeightMultiset:
    rs = build_root_system(family, rank)
    dim = weyl_dimension(rs, lam)
    if dim > cap:
        raise ResourceLimitError(
            f"character of {lam} has dimension {dim}, above the cap {cap}"
        )
    mult = _freudenthal_multiplicities(rs, lam, _dominant_levels(rs, lam))
    table: dict[Coords, int] = {}
    covered = orbit_sizes = 0
    for mu, m in mult.items():
        orbit = _orbit(rs, mu)
        covered += m * len(orbit)
        orbit_sizes += len(orbit)
        for coords in orbit:
            table[coords] = m
    if covered != dim or orbit_sizes != len(table):
        raise OracleError(
            f"character of {lam}: built dimension {covered} over "
            f"{orbit_sizes} orbit entries and {len(table)} distinct weights, "
            f"Weyl formula says {dim}"
        )
    return WeightMultiset(
        tuple(sorted(table.items())), dominant=tuple(sorted(mult.items()))
    )


def weyl_character(
    rs: RootSystem, lam: WeightLike, cap: int = DEFAULT_ENTRY_CAP
) -> WeightMultiset:
    """Weight multiset of the highest-weight module with highest weight lam."""
    coords = rs.coords_of(lam)
    if any(c < 0 for c in coords):
        raise InputError("weyl_character needs a dominant weight")
    return _character_cached(rs.family, rs.rank, coords, cap)


def _scale_coords(coords: Coords, k: int) -> Coords:
    return tuple(k * c for c in coords)


def graded_power(
    kind: str,
    ws: WeightMultiset,
    n: int,
    cap: int = DEFAULT_ENTRY_CAP,
) -> WeightMultiset:
    """Weights of the n-th symmetric or exterior power of a weight multiset."""
    if kind not in ("sym", "ext"):
        raise InputError(f"kind must be 'sym' or 'ext', got {kind!r}")
    if n < 0:
        raise InputError(f"power degree must be non-negative, got {n}")
    if n == 0:
        if not ws.items:
            raise InputError("graded_power of an empty multiset needs n > 0")
        rank = len(ws.items[0][0])
        return WeightMultiset.from_dict({(0,) * rank: 1})
    if kind == "ext" and n > ws.total_dimension:
        return WeightMultiset(())

    # One dict per degree 0..n; fold in one weight (with multiplicity) at a time.
    rank = len(ws.items[0][0])
    zero = (0,) * rank
    levels: list[dict[Coords, int]] = [{zero: 1}] + [dict() for _ in range(n)]
    touched = 1
    for coords, mult in ws.items:
        top = mult if kind == "ext" else n
        factor = []
        for k in range(0, min(top, n) + 1):
            count = comb(mult, k) if kind == "ext" else comb(mult + k - 1, k)
            if count:
                factor.append((k, _scale_coords(coords, k), count))
        new_levels: list[dict[Coords, int]] = [dict() for _ in range(n + 1)]
        for deg in range(n + 1):
            src = levels[deg]
            if not src:
                continue
            for k, shift, count in factor:
                if deg + k > n:
                    break
                dst = new_levels[deg + k]
                for w, m in src.items():
                    key = tuple(a + b for a, b in zip(w, shift))
                    dst[key] = dst.get(key, 0) + m * count
        levels = new_levels
        touched = sum(len(d) for d in levels)
        if touched > cap:
            raise ResourceLimitError(
                f"graded_power working set hit {touched} entries, cap {cap}"
            )
    return WeightMultiset.from_dict(levels[n])


def combine(
    ws1: WeightMultiset,
    ws2: WeightMultiset,
    twist2: int,
    p: int,
    cap: int = DEFAULT_ENTRY_CAP,
) -> WeightMultiset:
    """Product multiset {sigma + p**twist2 * tau} with multiplied counts."""
    if p < 2:
        raise InputError(f"p must be at least 2, got {p}")
    if twist2 < 0:
        raise InputError(f"twist must be non-negative, got {twist2}")
    return WeightMultiset.from_dict(
        _twisted_product(ws1.items, ws2.items, p**twist2, cap, "combine")
    )


def _twisted_product(
    rows: Iterable[tuple[Coords, int]], cols: Entries, scale: int, cap: int, stage: str
) -> dict[Coords, int]:
    """{sigma + scale * tau: m1 * m2} over rows sigma and columns tau.

    The table only grows, so checking `cap` after each row raises on exactly
    the products whose final size exceeds it, before the rest is built.
    """
    out: dict[Coords, int] = {}
    for w1, m1 in rows:
        for w2, m2 in cols:
            key = tuple(a + scale * b for a, b in zip(w1, w2))
            out[key] = out.get(key, 0) + m1 * m2
        if len(out) > cap:
            raise ResourceLimitError(
                f"{stage} working set reached {len(out)} distinct weights, "
                f"above the cap {cap}; raise the cap to allow"
            )
    return out
