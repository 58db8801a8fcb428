"""Weight multisets of modules: characters and graded powers.

Multiplicities are plain Python integers, so they never overflow.  A Weyl
character is built from its dominant weights: the dominant weights below the
highest weight come from a downward search over positive roots, which skips a
root before building mu - alpha when that weight cannot be dominant, and the
Freudenthal recursion gives their multiplicities.  At a dominant mu with
J = {i : mu_i = 0}, the recursion takes one root per orbit of the stabilizer
W_J, and each root's orbit is read off its shape: its length and its
coefficients off J.  Each alpha-string walk of the recursion ends at the
norm bound |nu| <= |lam|, which every weight of the module meets, before it
builds or reflects a weight past it; such a weight would have failed the
membership test, so the step count that the cap checks is unchanged.
The cap bounds three counts here, each through `errors._check_cap`: a
character's dimension, checked before it is built, its Freudenthal steps,
and the distinct weights a degree fold holds.
Orbit sizes, not orbits, check the result against the Weyl dimension
formula: the orbit of mu has |W| / |W_J| weights.

A multiset known to be W-stable (a Weyl character, or the trivial module)
also carries its dominant entries in `dominant`.  Every orbit invariant of
the module (the highest-coroot pairing b, the largest root-basis coefficient,
the class modulo the root lattice) is attained at a dominant weight, so
`summary` scans `dominant` instead of the full `items`, once per multiset.
Any other multiset is read at its weights' dominant representatives, so its
summary is that of the orbits its weights meet.  A character stores only its
dominant entries; the first read of `items` spreads them along their Weyl
orbits and keeps the result.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import lru_cache
from math import comb, gcd
from operator import add, itemgetter, mul, sub
from typing import Iterable, Mapping, Optional

from .errors import InputError, OracleError, Record, _check_cap, _shown, require_int
from .rootsys import Coords, RootSystem, WeightLike

DEFAULT_ENTRY_CAP = 10**7

Entries = tuple[tuple[Coords, int], ...]

# (b, c, class orders) of a multiset; see `WeightMultiset.summary`.
Summary = tuple[int, int, frozenset[int]]


class WeightMultiset(Record, eq=False):
    """A finite multiset of weights of one root system, with positive multiplicities.

    `system` is the one record of the group whose module this is.  `dominant`
    holds the sorted dominant entries of a W-stable multiset and is None when
    stability is not known.  It takes no part in equality, hashing or repr:
    two multisets of the same system with the same items are the same.  A
    Weyl character is made from `dominant` alone and fills `items` on first
    read; with `dominant` set, the two sizes sum its entries' orbit sizes.
    `summary` is likewise scanned on first read and kept; `trivial` passes
    the zero weight's to the constructor.
    """

    system: RootSystem
    _items: Optional[Entries]
    dominant: Optional[Entries] = None
    _summary: Optional[Summary] = None

    @property
    def items(self) -> Entries:
        """Every weight with its multiplicity, sorted; a character builds them here."""
        if self._items is None:
            table = {}
            for mu, m in self.dominant:
                for coords in _orbit(self.system, mu):
                    table[coords] = m
            if len(table) != self.support_size:
                raise OracleError(
                    f"orbits of {self.dominant} cover {len(table)} distinct weights, "
                    f"their orbit sizes add up to {self.support_size}"
                )
            object.__setattr__(self, "_items", tuple(sorted(table.items())))
        return self._items

    @property
    def summary(self) -> Summary:
        """(b, c, orders) over the dominant representatives of the weights, kept.

        b is the largest pairing of a dominant representative with the
        highest coroot, that is the largest long-root pairing; c is the
        largest root-basis coefficient of one times `cartan_det`, so the
        largest over the weights' Weyl orbits; orders is the set of their
        orders in X(T) modulo the root lattice.  So the summary depends only
        on which Weyl orbits the weights meet.  `dominant` lists them; a
        multiset without it reflects its weights.  Scanned on first read; the
        caller checks the system and that the multiset is not empty.
        """
        if self._summary is None:
            rs = self.system
            det = rs.cartan_det
            hrp = rs.highest_root_pairing
            if self.dominant:
                reps = [coords for coords, _ in self.dominant]
            else:
                reps = {rs.dominant_representative(coords) for coords, _ in self.items}
            rows = list(map(rs.root_basis_scaled, reps))
            summary = (
                max([sum(map(mul, hrp, w)) for w in reps]),
                max(map(max, rows)),
                frozenset([_class_order(row, det) for row in rows]),
            )
            object.__setattr__(self, "_summary", summary)
        return self._summary

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.system is other.system and self.items == other.items

    def __hash__(self) -> int:
        return hash((self.items,))

    def __repr__(self) -> str:
        return f"WeightMultiset({self.system.name}, items={self.items!r})"

    def check_system(self, rs: RootSystem) -> None:
        """Raise InputError unless this is a multiset of rs.

        The constructor checks nothing, so a multiset not known to be W-stable
        is scanned here: each weight is read through `rs.coords_of`, each
        multiplicity must be positive, and the weights must strictly increase,
        as `from_dict` lists them.  One the library built W-stable is trusted.
        """
        if self.system is not rs:
            raise InputError(f"a weight multiset of {self.system.name} is not one of {rs.name}")
        if self.dominant is None:
            last = ()  # below every weight, as a weight has at least one coordinate
            for coords, mult in self.items:
                key = rs.coords_of(coords)
                require_int(mult, f"multiplicity of {_shown(key)}", 1)
                if key <= last:
                    raise InputError(f"weights out of order: {_shown(key)} after {_shown(last)}")
                last = key

    @staticmethod
    def from_dict(rs: RootSystem, table: Mapping[WeightLike, int]) -> "WeightMultiset":
        """The multiset of rs with these weights and integer multiplicities."""
        cleaned = {}
        for coords, mult in table.items():
            key = rs.coords_of(coords)
            if type(mult) is int and mult < 0:
                raise InputError(f"negative multiplicity for {_shown(key)}")
            if require_int(mult, f"multiplicity of {_shown(key)}", 0):
                cleaned[key] = cleaned.get(key, 0) + mult
        return WeightMultiset(rs, tuple(sorted(cleaned.items())))

    @staticmethod
    def trivial(rs: RootSystem) -> "WeightMultiset":
        entries = (((0,) * rs.rank, 1),)
        # Callers build one per page query, so its summary is given, not scanned:
        # the zero weight pairs to 0, has coefficients 0 and lies in the root lattice.
        return WeightMultiset(rs, entries, entries, (0, 0, frozenset((1,))))

    def as_dict(self) -> dict[Coords, int]:
        return dict(self.items)

    @property
    def total_dimension(self) -> int:
        if self.dominant is not None:
            return sum(m * _orbit_size(self.system, mu) for mu, m in self.dominant)
        return sum(m for _, m in self.items)

    @property
    def support_size(self) -> int:
        if self.dominant is not None:
            return sum(_orbit_size(self.system, mu) for mu, _ in self.dominant)
        return len(self.items)

    def is_empty(self) -> bool:
        # A W-stable multiset is empty exactly when it has no dominant entry.
        return not (self.items if self.dominant is None else self.dominant)


def _class_order(scaled: Coords, det: int) -> int:
    """Order modulo the root lattice of a weight with root coordinates scaled / det."""
    g = det
    for x in scaled:
        g = gcd(g, x % det)
    return det // g


def nilradical_dual_weights(rs: RootSystem) -> WeightMultiset:
    """Weights of the dual of the nilradical: every positive root, once."""
    return WeightMultiset.from_dict(rs, {root.omega_coords: 1 for root in rs.positive_roots})


@lru_cache(maxsize=64)
def _root_tables(rs: RootSystem) -> tuple:
    """What the character layer reads of each positive root, built once per system.

    In the order of `rs.positive_roots`: (omega-coordinates, height, positive
    omega-coordinates (i, c), root coordinates times d, squared length) for
    the dominant search and Freudenthal's inner products and norms; (root
    coordinates, squared length, height) for W_J-orbit shapes; the coroot pairings; and the Weyl
    denominator, the product of <rho, alpha-vee>.  Every character of a
    system reads them, so they are built on its first one and shared; the
    bound is above the 48 supported systems.
    """
    d = rs.d_symmetrizer
    steps = []
    shapes = []
    denominator = 1
    for root in rs.positive_roots:
        omega, coeffs = root.omega_coords, root.root_coords
        height = sum(coeffs)
        need = tuple([(i, c) for i, c in enumerate(omega) if c > 0])
        steps.append((omega, height, need, tuple(map(mul, coeffs, d)), root.length2))
        shapes.append((coeffs, root.length2, height))
        denominator *= sum(root.coroot_pairing)
    coroots = tuple([root.coroot_pairing for root in rs.positive_roots])
    return tuple(steps), tuple(shapes), coroots, denominator


def weyl_dimension(rs: RootSystem, lam: WeightLike) -> int:
    """Dimension of the highest-weight module, by the Weyl product formula."""
    coords = rs.coords_of(lam)
    if any(c < 0 for c in coords):
        raise InputError("weyl_dimension needs a dominant weight")
    shifted = tuple(c + 1 for c in coords)
    _, _, coroots, den = _root_tables(rs)
    num = 1
    for coroot in coroots:
        num *= sum(map(mul, shifted, coroot))
    if num % den:
        raise OracleError("Weyl dimension formula did not give an integer")
    return num // den


def _dominant_levels(rs: RootSystem, lam: Coords) -> dict[Coords, int]:
    """Every dominant weight mu <= lam, mapped to the height of lam - mu.

    Downward search from lam over positive roots, keeping dominant weights
    only.  Any two dominant weights mu < lam are joined by a chain of dominant
    weights whose steps are positive roots (Stembridge, "The partial order of
    dominant weights", 1998), so the search reaches every one of them.  For a
    dominant mu, mu - alpha is dominant exactly when mu_i >= c at each positive
    omega-coordinate c of alpha; a root that fails this builds no candidate.
    """
    steps = _root_tables(rs)[0]
    level = {lam: 0}
    frontier = [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            for omega, height, need, _, _ in steps:
                for i, c in need:
                    if mu[i] < c:
                        break
                else:
                    cand = tuple(map(sub, mu, omega))
                    if cand not in level:
                        level[cand] = level[mu] + height
                        nxt.append(cand)
        frontier = nxt
    return level


def _freudenthal_multiplicities(
    rs: RootSystem, lam: Coords, level: dict[Coords, int], cap: int
) -> dict[Coords, int]:
    """Multiplicity of every dominant weight mu <= lam, keyed in `level`.

    A weight nu belongs to the module exactly when its dominant
    representative is one of the dominant weights in `level`.  The term
    T(alpha) = sum_k m(mu + k alpha) (mu + k alpha, alpha) of Freudenthal's
    sum is constant on the orbits of the stabilizer W_J of mu, so the sum
    over the positive roots is the sum over W_J-orbits of the number of
    positive roots in the orbit times T at one of them (Moody and Patera,
    "Fast recursion formula for weight multiplicities", 1982).  The work is
    the number of steps nu -> nu + alpha over these representatives; it is
    checked against `cap` after each mu.

    Every weight of the module lies in the convex hull of W lam, so it has
    |nu| <= |lam| (Humphreys, Introduction to Lie Algebras and
    Representation Theory, 21.3).  Each alpha-string walk keeps
    det |nu|^2 in integers, det |nu + alpha|^2 = det |nu|^2 +
    det (2 (nu, alpha) + |alpha|^2), and ends once that passes det |lam|^2,
    before it builds nu + alpha or reflects it.  Such a weight would have
    failed the membership test and ended the walk there anyway, so the
    multiplicities, the step count and the cap check are those of the walk
    without the bound.
    """
    det = rs.cartan_det
    d = rs.d_symmetrizer
    roots = _root_tables(rs)[0]  # ip_vec gives det-free inner products <v, alpha>
    # det (v, omega_j) is det times v's j-th root coordinate times d_j: summed
    # against v it gives det |v|^2, summed alone det (v, rho).  The denominator
    # det (|lam + rho|^2 - |mu + rho|^2) then needs no det |rho|^2.
    lam_omega = list(map(mul, rs.root_basis_scaled(lam), d))
    top = sum(map(mul, lam_omega, lam))
    top_shifted = top + 2 * sum(lam_omega)
    mult: dict[Coords, int] = {lam: 1}
    steps = 0
    stage = f"character of {_shown(lam)}"
    for mu in sorted(level, key=level.__getitem__):
        if mu == lam:
            continue
        mu_omega = list(map(mul, rs.root_basis_scaled(mu), d))
        mu_norm = sum(map(mul, mu_omega, mu))
        total = 0
        for k, count in _stabilizer_orbits(rs, _zero_set(mu))[0]:
            omega, _, _, ip_vec, length2 = roots[k]
            term = 0
            nu, norm, ip = mu, mu_norm, sum(map(mul, ip_vec, mu))
            # norm is det |nu|^2 and ip is (nu, alpha) as nu runs up the string.
            while (norm := norm + det * (2 * ip + length2)) <= top:
                nu = tuple(map(add, nu, omega))
                if (dom := rs.dominant_representative(nu)) not in level:
                    break
                ip += length2
                term += mult[dom] * ip
                steps += 1
            total += count * term
        _check_cap(stage, steps, cap, "Freudenthal steps")
        denom = top_shifted - mu_norm - 2 * sum(mu_omega)
        value = Q(2 * det * total, denom)
        if value.denominator != 1 or value <= 0:
            raise OracleError(f"bad multiplicity {value} at {mu}")
        mult[mu] = int(value)
    return mult


@lru_cache(maxsize=1024)
def _stabilizer_orbits(rs: RootSystem, zeros: Coords) -> tuple[tuple[tuple[int, int], ...], int]:
    """The W_J-orbits on the roots, J = zeros, and the index |W| / |W_J|.

    Each orbit holding a positive root is given as (index of its first
    positive root, number of positive roots in it); the counts add up to the
    number of positive roots.  W_J changes only the coefficients at J, so the
    orbits are read off the roots: outside Phi_J, roots with the same length
    and the same coefficients off J (the same shape) form one orbit; in
    Phi_J, roots with the same length whose support lies in the same
    component of J do (Azad, Barry and Seitz, "On the structure of parabolic
    subgroups", Comm. Algebra 18, 1990).  The index is the product of
    (ht a + 1) / ht a over the roots a of nonzero shape (Kostant 1959;
    Humphreys, Reflection Groups and Coxeter Groups, 3.20).
    """
    component: dict[int, int] = {}  # node of J -> least node of its component
    for start in zeros:
        stack = [] if start in component else [start]
        while stack:
            i = stack.pop()
            component[i] = start
            stack += [j for j in zeros if j not in component and rs.cartan_matrix[i][j]]
    off = [i for i in range(rs.rank) if i not in component]
    shape_of = itemgetter(*off) if off else lambda coeffs: ()
    flat = shape_of((0,) * rs.rank)  # the shape of a root of Phi_J
    orbits: dict[tuple, list[int]] = {}
    num = den = 1
    for k, (coeffs, length2, height) in enumerate(_root_tables(rs)[1]):
        shape = shape_of(coeffs)
        if shape == flat:
            label = component[next(i for i, c in enumerate(coeffs) if c)]
        else:
            label = None
            num *= height + 1
            den *= height
        orbit = orbits.setdefault((shape, length2, label), [k, 0])
        orbit[1] += 1
    return tuple(map(tuple, orbits.values())), num // den


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


def _orbit_size(rs: RootSystem, mu: Coords) -> int:
    """|W mu| = |W| / |W_J| for a dominant mu, without the orbit."""
    return _stabilizer_orbits(rs, _zero_set(mu))[1]


def _zero_set(mu: Coords) -> Coords:
    """J = {i : mu_i = 0}: the simple reflections that fix a dominant mu."""
    return tuple(i for i, c in enumerate(mu) if c == 0)


@lru_cache(maxsize=256)
def _character_cached(rs: RootSystem, lam: Coords, cap: int) -> WeightMultiset:
    dim = weyl_dimension(rs, lam)
    _check_cap(f"character of {_shown(lam)}", dim, cap, "dimension")
    mult = _freudenthal_multiplicities(rs, lam, _dominant_levels(rs, lam), cap)
    dominant = tuple(sorted(mult.items()))
    character = WeightMultiset(rs, None, dominant)
    if character.total_dimension != dim:
        raise OracleError(
            f"character of {lam}: built dimension {character.total_dimension}, "
            f"Weyl formula says {dim}"
        )
    return character


def weyl_character(
    rs: RootSystem, lam: WeightLike, cap: int = DEFAULT_ENTRY_CAP
) -> WeightMultiset:
    """Weight multiset of the highest-weight module with highest weight lam."""
    require_int(cap, "cap", 1)
    coords = rs.coords_of(lam)
    if min(coords) < 0:
        raise InputError("weyl_character needs a dominant weight")
    return _character_cached(rs, coords, cap)


def _scale_coords(coords: Coords, k: int) -> Coords:
    return tuple(k * c for c in coords)


def graded_power(
    kind: str,
    ws: WeightMultiset,
    n: int,
    cap: int = DEFAULT_ENTRY_CAP,
) -> WeightMultiset:
    """Weights of the n-th symmetric or exterior power; degree 0 is the trivial module."""
    if kind not in ("sym", "ext"):
        raise InputError(f"kind must be 'sym' or 'ext', got {kind!r}")
    require_int(n, "n", 0)
    require_int(cap, "cap", 1)
    ws.check_system(ws.system)
    if kind == "ext" and n > ws.total_dimension:
        return WeightMultiset(ws.system, ())

    # A weight of multiplicity c has its k-th multiple comb(c, k) times in the
    # exterior power and comb(c + k - 1, k) times in the symmetric one.
    ext = kind == "ext"
    factors = (
        [
            (k, _scale_coords(coords, k), comb(mult, k) if ext else comb(mult + k - 1, k))
            for k in range(1, min(mult, n) + 1 if ext else n + 1)
        ]
        for coords, mult in ws.items
    )
    tables = _degree_fold((0,) * ws.system.rank, factors, n, cap, f"graded power {kind}^{n}")
    # Keys are coordinate tuples and counts are positive by construction.
    return WeightMultiset(ws.system, tuple(sorted(tables[n].items())))


def _degree_fold(
    zero: Coords, factors: Iterable[list[tuple[int, Coords, int]]], n: int, cap: int, stage: str
) -> list[dict[Coords, int]]:
    """The product of the factors in degrees 0..n, one table per degree.

    A factor is the weight zero in degree 0 plus its terms (k, shift, count)
    sorted by k >= 1: count copies of the weight shift in degree k.  Its zero
    keeps each old entry, so the tables only grow, and checking `cap` against
    their total size after each row raises on exactly the products whose
    final tables exceed it.
    """
    levels: list[dict[Coords, int]] = [{zero: 1}] + [dict() for _ in range(n)]
    size = 1
    for factor in factors:
        # Every term has k >= 1 and deg runs top down, so levels[deg] is read
        # before a lower degree adds to it: it still holds the earlier product.
        for deg in range(n, -1, -1):
            src = levels[deg]
            for k, shift, count in factor:
                if deg + k > n:
                    break
                dst = levels[deg + k]
                size -= len(dst)
                for w, m in src.items():
                    key = tuple(a + b for a, b in zip(w, shift))
                    dst[key] = dst.get(key, 0) + m * count
                size += len(dst)
                _check_cap(stage, size, cap, "distinct weights")
    return levels
