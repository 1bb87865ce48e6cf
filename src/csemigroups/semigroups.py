"""Affine semigroup calculus over exact lattice arithmetic.

Two interchangeable representations are provided.  :class:`GenSemigroup`
holds a finite minimal generating set and answers membership through a
memoized descent on cone coordinates: a query is split once (into integer
ray coordinates when the cone is simplicial), and a step down by a
generator leaves the cone exactly when a coordinate goes negative.
:class:`GapSemigroup` represents a C-semigroup as its cone plus the finite,
explicitly listed gap set, making membership an O(1) lookup.  It is the
package's one gap-set type: the ideal-derived semigroups of :mod:`.ideals`
are GapSemigroups that also carry their base and canonical ideal generators.

One Apery table type, :class:`AperyContext`, holds the common Apery core of
one element ``m_i`` per extremal ray and splits any cone point, in
integers, into its class modulo ``L = ⊕ ℤ m_i`` and its λ-vector: the
class's points are ``r + Σ ν_i m_i`` (``ν ∈ ℕ^t``, ``r`` in the
parallelepiped ``Σ [0, 1) m_i``), and those in S are the ν that dominate
the λ-vector of a core element of the class (the Apery-set description,
Rosales & García-Sánchez 1999).  Multipliers, the ray sections and the
decomposition head of :mod:`.med` read the same split.  For the
multiplicities, ``gaps()`` reads that table: S is a C-semigroup exactly
when every class holds a core element and, for each class and each ray i,
some core element lies on ``r + ℕ m_i``.  Otherwise the missing class or
ray is the proof.  The same table bounds the gaps' grades: if ``h_i`` is
the least λ_i among the class's λ-vectors that vanish off ray i, every gap
``r + Σ ν_i m_i`` of the class has ``ν_i < h_i`` (``ν_i >= h_i`` would
dominate ``h_i e_i``), so no gap lies above the grade
``w(r) + Σ_i (h_i - 1) w(m_i)``, ``w`` the coordinate sum.

``gaps()`` lists the gaps by a scan of the cone in grade order that stops
at the largest of those grade bounds over the classes.  (An ideal's
semigroup needs no scan: its new gaps are a down-set of S∖{0}, listed by
:func:`_down_set`, the one walk from 0 that also builds the Apery core,
which less 0 is the set the ideal ``M + S`` loses.)  A gap form reads the
same multiplicities the other way round: every element is a sum of the
multiplicities and of the elements that shed none of them inside S
(:attr:`GapSemigroup._generated`).

All values are immutable after construction; the only mutable state is the
internal membership memo of :class:`GenSemigroup` and the Apery core of
the multiplicities, built once.  The membership memo is one per semigroup:
generator reduction starts it at construction, before the object can be
shared, with the entries any later descent would write, and queries,
witnesses and the core closure extend it.  A :class:`GapSemigroup` holds
its cone, its gaps and values derived from them once (its generated form
and msg(S)); the removal walks of :mod:`.enumeration` keep their ranked
universes, divisor masks and cone coordinates among them, to themselves.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain
from math import gcd, lcm, prod
from operator import ge

from .errors import (
    BudgetExceeded,
    EmptyGaps,
    NotCSemigroup,
    NotInSemigroup,
    NotOnRays,
    RayNotMet,
)
from .lattice import (
    Cone,
    MonomialOrder,
    Point,
    primitive,
    scale,
    vadd,
    vsub,
    zero,
)

#: default number of points a gap computation may visit
DEFAULT_BUDGET = 500_000


def _ray_multiple(g: Point, d: Point) -> int | None:
    """Return k >= 1 with g == k*d (d primitive), or None if g is off the ray."""
    if not any(g):
        return None
    k = None
    for gi, di in zip(g, d):
        if di:
            if gi % di:
                return None
            k = gi // di
            break
    if k is None or k <= 0 or scale(k, d) != g:
        return None
    return k


class GenSemigroup:
    """Affine semigroup given by its (reduced) finite generating set.

    Redundant input generators are removed so that the stored tuple is the
    unique minimal generating set; by default a warning reports each
    removal.  The cone and the per-ray multiplicities are derived from the
    generators.  Membership and witnesses descend on cone coordinates
    (:func:`_combination_index`), split once per query point: ``det·α``
    over the rays of a simplicial cone, the point itself otherwise.
    """

    def __init__(self, generators, *, warn_redundant=True):
        gens = sorted({tuple(g) for g in generators})
        if not gens:
            raise ValueError("a semigroup needs at least one generator")
        dim = len(gens[0])
        for g in gens:
            if len(g) != dim:
                raise ValueError(f"mixed dimensions in generators: {gens}")
            if min(g) < 0:
                raise ValueError(f"generator {g} has a negative coordinate")
        gens = [g for g in gens if any(g)]
        if not gens:
            raise ValueError("the zero vector generates nothing")
        self.dim = dim
        # removing redundant generators does not change the cone
        self.cone = Cone.from_generators(gens)
        self._numerators = self.cone._numerators if self.cone.simplicial else tuple
        self._origin = self._numerators(zero(dim))
        self._memo: dict[Point, int | None] = {self._origin: -1}
        self._core: frozenset[Point] | None = None
        self.generators, self._gen_nums = self._reduce(gens, warn_redundant)

    def _reduce(self, gens, warn):
        # A generator is redundant exactly when it is a sum of kept generators.
        # Every summand lies below it coordinatewise, so comes before it in
        # the lexicographic order of ``gens``: each generator a descent meets
        # is decided before the descent.  The descents write into the
        # membership memo, and their entries are final: a descent from g
        # meets only points z at or below g coordinatewise, and a generator
        # that can end a decomposition of z lies below z, so is g itself
        # (z = g, whose entry is g's own index) or lexicographically smaller
        # than g and already kept or dropped.  Each entry is thus the one a
        # descent over the final generators would write.
        kept: list[Point] = []
        kept_nums: list[Point] = []
        memo = self._memo
        for g in gens:
            nums = self._numerators(g)
            if _combination_index(nums, kept_nums, memo) is not None:
                if warn:
                    warnings.warn(f"redundant generator {g} removed", stacklevel=3)
                continue
            memo[nums] = len(kept)
            kept.append(g)
            kept_nums.append(nums)
        return tuple(kept), tuple(kept_nums)

    def __eq__(self, other):
        return isinstance(other, GenSemigroup) and self.generators == other.generators

    def __hash__(self):
        return hash(self.generators)

    def __repr__(self):
        return f"GenSemigroup({list(self.generators)})"

    def _split(self, x) -> Point | None:
        """The cone coordinates of x, or None when x is outside the cone."""
        x = tuple(x)
        if len(x) != self.dim or min(x) < 0:
            return None
        return self._numerators(x)

    def _member(self, nums) -> bool:
        """Membership of the cone point with coordinates ``nums``."""
        return _combination_index(nums, self._gen_nums, self._memo) is not None

    def contains(self, x) -> bool:
        nums = self._split(x)
        return nums is not None and self._member(nums)

    __contains__ = contains

    def witness(self, x) -> tuple[int, ...] | None:
        """Coefficients λ with ``x = Σ λ_i g_i``, or None when x is outside."""
        nums = self._split(x)
        if nums is None or not self._member(nums):
            return None
        counts = [0] * len(self.generators)
        while any(nums):
            idx = self._memo[nums]
            counts[idx] += 1
            nums = vsub(nums, self._gen_nums[idx])
        return tuple(counts)

    def minimal_generators(self) -> frozenset[Point]:
        return frozenset(self.generators)

    @cached_property
    def _ray_data(self):
        """Per ray: the multiples k with k*d realized by an on-ray generator.

        Every extremal ray of the generated cone contains a generator, and
        any semigroup element on an extremal ray is a sum of on-ray
        generators, so these multiples determine the full ray sections.
        """
        data = []
        for d in self.cone.rays:
            ks = sorted(k for g in self.generators if (k := _ray_multiple(g, d)))
            data.append(tuple(ks))
        return tuple(data)

    def multiplicities(self) -> tuple[Point, ...]:
        """Least on-ray element for each extremal ray, in canonical ray order."""
        mults = []
        for d, ks in zip(self.cone.rays, self._ray_data):
            if not ks:
                raise RayNotMet(d)
            mults.append(scale(ks[0], d))
        return tuple(mults)

    def _apery_table(self, budget=None) -> "AperyContext":
        """The Apery table of the multiplicities.  Only its core is cached,
        built once under ``budget`` as :func:`_apery_core` explains, so no
        cached object refers back to S."""
        self.cone._require_simplicial()
        mults = self.multiplicities()
        if self._core is None:
            # each multiplicity is a generator, already split by _reduce
            nums = dict(zip(self.generators, self._gen_nums))
            self._core = _apery_core(self, [nums[m] for m in mults], budget)
        return AperyContext(self, mults, self._core)


def _combination_index(x, gens, memo):
    """Index of a generator usable as the last step of a decomposition of x.

    ``x`` and ``gens`` are cone coordinates (``GenSemigroup._numerators``):
    they lie in the rays' span, so a step ``x − g`` stays in the cone exactly
    when no coordinate goes negative.  ``memo`` maps cone points to the
    chosen index (-1 at the origin, None for non-members).  Iterative so
    that far-away query points cannot overflow the recursion limit.
    """
    if x in memo:
        return memo[x]
    stack = [x]
    while stack:
        y = stack[-1]
        if y in memo:
            stack.pop()
            continue
        unresolved = None
        found = None
        for idx, g in enumerate(gens):
            z = vsub(y, g)
            if min(z) < 0:
                continue
            state = memo.get(z, "?")
            if state == "?":
                unresolved = z
                break
            if state is not None:
                found = idx
                break
        if unresolved is not None:
            stack.append(unresolved)
            continue
        memo[y] = found
        stack.pop()
    return memo[x]


class GapSemigroup:
    """C-semigroup as (cone, finite sorted gap set); O(1) membership.
    ``generated``, when given, is its generated form (:attr:`_generated`),
    a :class:`GenSemigroup` with the same elements; its minimal generators
    are this semigroup's."""

    def __init__(self, cone: Cone, gap_set, generated=None):
        self.cone = cone
        self.gaps = frozenset(tuple(h) for h in gap_set)
        self._check_gaps(self.gaps)
        if generated is not None:
            self._generated = generated

    def _check_gaps(self, points):
        for h in points:
            if len(h) != self.dim:
                raise ValueError(f"gap {h} does not match dimension {self.dim}")
            if not any(h):
                raise ValueError("0 cannot be a gap")
            if not self.cone.contains(h):
                raise ValueError(f"gap {h} lies outside the cone")

    @property
    def dim(self):
        return self.cone.dim

    @property
    def genus(self) -> int:
        return len(self.gaps)

    def __eq__(self, other):
        return (
            isinstance(other, GapSemigroup)
            and self.cone == other.cone
            and self.gaps == other.gaps
        )

    def __hash__(self):
        return hash((self.cone, self.gaps))

    def __repr__(self):
        return f"GapSemigroup(rays={list(self.cone.rays)}, genus={self.genus})"

    def contains(self, x) -> bool:
        x = tuple(x)
        if len(x) != self.dim or min(x) < 0:
            return False
        return x not in self.gaps and self.cone.contains(x)

    __contains__ = contains

    def multiplicities(self) -> tuple[Point, ...]:
        mults = []
        for d in self.cone.rays:
            k = 1
            while scale(k, d) in self.gaps:
                k += 1
            mults.append(scale(k, d))
        return tuple(mults)

    @cached_property
    def _msg(self) -> frozenset[Point]:
        return frozenset(self._generated.generators)

    def minimal_generators(self) -> frozenset[Point]:
        return self._msg

    @cached_property
    def _generated(self) -> GenSemigroup:
        """The semigroup generated by the multiplicities n_i and the core,
        reduced to its minimal generators.  The core holds the nonzero
        points x of the cone less the gaps that shed no n_i there: each
        x − n_i is a gap or outside the cone.  In the simplicial cone x is
        ``Σ α_i n_i``, and ``w(x) >= Σ w(n_i)`` forces some α_i >= 1, so a
        core point lies below that grade or is h + n_i for a gap h.  By
        induction on the grade, every point of the cone less the gaps is a
        core point plus multiplicities, whether the gaps are closed or not."""
        mults, gaps, cone = self.multiplicities(), self.gaps, self.cone
        steps = [(n, cone._numerators(n)) for n in mults]
        low = (p for g in range(1, sum(map(sum, mults))) for p in cone.graded_split(g))
        shifts = {vadd(h, n) for h in gaps for n in mults}
        high = ((x, cone._numerators(x)) for x in shifts)
        core = {
            x
            for x, nx in chain(low, high)
            if x not in gaps
            and all(min(vsub(nx, nn)) < 0 or vsub(x, n) in gaps for n, nn in steps)
        }
        return GenSemigroup(core.union(mults), warn_redundant=False)

    def as_generated(self) -> GenSemigroup:
        return self._generated

    def validate_closure(self):
        """Check that cone minus gaps is closed under addition.

        The generated form G (:attr:`_generated`) holds every point of the
        cone less the gaps and is generated by such points, so S is closed
        exactly when no gap lies in G.  Otherwise a ValueError names the
        gap h of least grade, then lex, in G, as x + y with x the first
        generator its witness uses: y is a nonzero point of G below h, so
        no gap, and neither is x.
        """
        G = self._generated
        h = min(filter(G.contains, self.gaps), key=lambda h: (sum(h), h), default=None)
        if h is not None:
            x = next(g for g, c in zip(G.generators, G.witness(h)) if c)
            raise ValueError(f"gap {h} is the sum of elements {x} and {vsub(h, x)}")


def _as_generated(S) -> GenSemigroup:
    return S if isinstance(S, GenSemigroup) else S.as_generated()


def certified_gap_scan(S: GenSemigroup, top: int, budget=DEFAULT_BUDGET):
    """The points of S's cone outside S up to grade ``top``, which must
    bound the grades of S's gaps (its one caller, :func:`gaps`, proves the
    bound from the Apery table).  The walk splits each point once
    (:meth:`.lattice.Cone.graded_split`) and decides it by S's descent;
    it raises :class:`BudgetExceeded` after visiting ``budget`` points.
    """
    gap_list: list[Point] = []
    visited = 0
    for g in range(top + 1):
        for x, nums in S.cone.graded_split(g):
            visited += 1
            if visited > budget:
                raise BudgetExceeded(
                    f"the gap scan reached grade {g} of {top}",
                    limit=budget,
                    count=visited,
                    unit="scanned cone points",
                )
            if not S._member(nums):
                gap_list.append(x)
    return frozenset(gap_list)


def gaps(S: GenSemigroup, budget=DEFAULT_BUDGET) -> GapSemigroup:
    """Complete gap set of a generated semigroup, decided by its Apery table.

    Raises :class:`NotCSemigroup` when S has infinitely many gaps, with the
    proof in its fields: the realized multiples on extremal ray ``ray``
    have gcd ``gcd`` > 1; or the class of ``residue`` modulo the lattice of
    the multiplicities holds no core element (``ray`` is None); or no core
    element of the class of ``residue`` lies on ``residue + ℕ·n``, n the
    multiplicity on ``ray``.
    Otherwise S is a C-semigroup and :func:`certified_gap_scan` lists its
    gaps up to the last gap grade the table proves (module docstring).
    ``budget`` bounds the points this call visits: those whose membership
    the core's closure decides (none when the core is cached), then the
    scanned points.  Beyond it :class:`BudgetExceeded` is raised
    (inconclusive), naming the budget, the closure's share and the grade
    the scan reached.  The result's generated form is S itself, which has
    the same minimal generators: the two share S's append-only memo and
    its cached core.
    """
    S.cone._require_simplicial()
    mults = S.multiplicities()
    for d, ks in zip(S.cone.rays, S._ray_data):
        div = reduce(gcd, ks, 0)
        if div != 1:
            raise NotCSemigroup(
                f"on ray {d} only multiples of {div} occur, "
                "so infinitely many ray points are gaps",
                ray=d,
                gcd=div,
            )
    before = len(S._memo)
    table = S._apery_table(budget)
    spent = len(S._memo) - before
    if len(table.classes) < table._class_count:
        raise NotCSemigroup(
            f"the Apery core of {list(mults)} meets {len(table.classes)} of "
            f"the {table._class_count} classes modulo their lattice; every "
            "cone point of the others is a gap",
            residue=table._unmet_residue(),
        )
    top = -1
    for r, lams in sorted(table.classes.values()):
        grade = sum(r)
        for i, (d, n) in enumerate(zip(S.cone.rays, mults)):
            # a core element on r + ℕ·n_i has λ = h·e_i, and a gap
            # r + Σ ν_j n_j of the class has ν_i < h for the least such h
            hits = [lam[i] for lam in lams if not any(lam[:i] + lam[i + 1 :])]
            if not hits:
                raise NotCSemigroup(
                    f"every point {r} + k·{n} is a gap: no element of S lies "
                    f"on the line from {r} along ray {d}",
                    ray=d,
                    residue=r,
                )
            grade += (min(hits) - 1) * sum(n)
        top = max(top, grade)
    try:
        gap_set = certified_gap_scan(S, top, budget - spent)
    except BudgetExceeded as exc:
        raise BudgetExceeded(
            f"the budget of {budget} points ran out: the Apery core's closure "
            f"decided {spent} of them, and {exc}",
            limit=budget,
            count=spent + exc.count,
            unit="decided or scanned points",
        ) from None
    return GapSemigroup(S.cone, gap_set, generated=S)


def frobenius(S: GapSemigroup, order: MonomialOrder) -> Point:
    """Largest gap under the given monomial order."""
    if not S.gaps:
        raise EmptyGaps("the semigroup fills its cone; no Frobenius element")
    return order.max(S.gaps)


def pseudo_frobenius(S: GapSemigroup) -> frozenset[Point]:
    """Gaps that land inside S when translated by any nonzero element.

    By additivity it suffices to test translation by the minimal
    generators.  A gap plus a generator is a sum of cone points, so it lies
    in the cone and is in S exactly when it is not a gap.
    """
    msg = S.minimal_generators()
    return frozenset(h for h in S.gaps if all(vadd(h, n) not in S.gaps for n in msg))


@dataclass(frozen=True)
class AperyContext:
    """Apery table: the common core ``∩_i Ap(S, m_i)`` of on-ray elements
    ``m_i = k_i·d_i``, with the data read from it.

    The ``core`` holds the elements that stay outside S after subtracting
    any ray element; it always contains 0 and it is finite even though each
    individual Apery set is not.  With ``det·α = A·x`` from
    ``Cone._solver``, a point has coordinates ``A_i·x / (det·k_i)`` over
    the m_i, so :meth:`_split` gives, in integers, its class modulo
    ``⊕ ℤ m_i`` as the key ``(A_i·x) mod det·k_i`` and its λ-vector
    ``(A_i·x) // det·k_i``: ``x = r + Σ λ_i m_i`` with r the class's point
    in the parallelepiped ``Σ [0, 1) m_i``.  Built on first read:
    ``classes`` maps each key the core meets to r and the λ-vectors of the
    class's core elements; ``multipliers[j]`` is the order of generator j's
    class, the least q ≥ 1 with ``q·g_j`` a non-negative integer
    combination of the ray elements; ``sum_box`` collects every combination
    of generators with coefficients below those multipliers and contains
    the core.
    """

    base: GenSemigroup
    ray_elements: tuple[Point, ...]
    core: frozenset[Point]

    @cached_property
    def _moduli(self) -> tuple[int, ...]:
        det = self.base.cone._solver[1]
        return tuple(
            det * _ray_multiple(m, d)
            for m, d in zip(self.ray_elements, self.base.cone.rays)
        )

    def _split(self, x) -> tuple[Point, Point]:
        """Class key and λ-vector of the cone point x."""
        nums = self.base.cone._numerators(x)
        return (
            tuple(a % m for a, m in zip(nums, self._moduli)),
            tuple(a // m for a, m in zip(nums, self._moduli)),
        )

    @cached_property
    def _class_count(self) -> int:
        """Number of classes of cone points modulo ``⊕ ℤ m_i``."""
        det = self.base.cone._solver[1]
        return self.base.cone.lattice_index * prod(m // det for m in self._moduli)

    @cached_property
    def classes(self) -> dict[Point, tuple[Point, list[Point]]]:
        classes: dict[Point, tuple[Point, list[Point]]] = {}
        for w in sorted(self.core):
            key, lam = self._split(w)
            if key not in classes:
                r = reduce(vsub, map(scale, lam, self.ray_elements), w)
                classes[key] = (r, [])
            classes[key][1].append(lam)
        return classes

    def _unmet_residue(self) -> Point:
        """First cone point in grade-then-lex order whose class the core
        misses.  A class's least-grade point is its r (λ = 0), of grade
        below ``Σ w(m_i)``, so this is an r."""
        return next(
            x
            for g in range(sum(map(sum, self.ray_elements)))
            for x in self.base.cone.graded_points(g)
            if self._split(x)[0] not in self.classes
        )

    @cached_property
    def multipliers(self) -> tuple[int, ...]:
        return tuple(
            lcm(*(m // gcd(a, m) for a, m in zip(self._split(n)[0], self._moduli)))
            for n in self.base.generators
        )

    @cached_property
    def sum_box(self) -> frozenset[Point]:
        # layered sums with deduplication: the raw combination count is the
        # product of the multipliers, but the distinct sums stay confined to
        # a bounded cone region
        box = {zero(self.base.dim)}
        for q, n in zip(self.multipliers, self.base.generators):
            if q == 1:
                continue
            box = {vadd(s, scale(lam, n)) for s in box for lam in range(q)}
            if len(box) > 2_000_000:
                raise BudgetExceeded(
                    f"sum box exceeded {2_000_000} distinct points",
                    limit=2_000_000,
                    count=len(box),
                    unit="sum-box points",
                )
        return frozenset(box)


def _match_rays(cone: Cone, M) -> tuple[Point, ...]:
    """Arrange M as one nonzero element per extremal ray, canonical order."""
    by_ray: dict[Point, Point] = {}
    for m in M:
        m = tuple(m)
        if len(m) != cone.dim or not any(m) or min(m) < 0:
            raise NotOnRays(f"{m} is not a nonzero point of the ambient lattice")
        d = primitive(m)
        if d not in cone.rays:
            raise NotOnRays(f"{m} does not lie on an extremal ray")
        if d in by_ray:
            raise NotOnRays(f"two elements given on ray {d}")
        by_ray[d] = m
    missing = [d for d in cone.rays if d not in by_ray]
    if missing:
        raise NotOnRays(f"no element given on ray(s) {missing}")
    return tuple(by_ray[d] for d in cone.rays)


def _down_set(origin, n_origin, steps, keep):
    """The points D ∪ {0} a breadth-first walk from 0 keeps, and the steps
    out of D, each as a dict from point to cone coordinates.

    ``steps`` are pairs (n, N(n)) of a step and its cone coordinates, and
    ``origin`` is 0 with coordinates ``n_origin``.  D is the set of sums
    y = d + n (d ∈ D ∪ {0}) with ``keep(y, N(y))``, asked once per sum; a
    point of a down-set along the steps is reached through its partial
    sums, so D is that down-set when ``keep`` defines one.  Coordinates are
    carried as sums, N(d + n) = N(d) + N(n), so no point is split, and
    y − z is in the cone exactly when N(y) − N(z) ≥ 0."""
    down, out, frontier = {origin: n_origin}, {}, [origin]
    # the list grows while the loop reads it: a breadth-first queue
    for d in frontier:
        nd = down[d]
        for n, nn in steps:
            y = vadd(d, n)
            if y in down or y in out:
                continue
            ny = vadd(nd, nn)
            if keep(y, ny):
                down[y] = ny
                frontier.append(y)
            else:
                out[y] = ny
    return down, out


def _apery_core(S: GenSemigroup, thresholds, budget=None) -> frozenset[Point]:
    """Common Apery core of the ray elements m, given by their cone
    coordinates ``thresholds``: the :func:`_down_set` of the sums y with no
    y − m in S, the set the ideal M + S loses, with 0.  It is a down-set:
    if w = z + n is in the core, z in S and n a generator, then z is in the
    core (z − m ∈ S would put w − m in S).  No step goes along a ray
    element: (w + m) − m = w is in S, so w + m is never in the core, and a
    generator whose coordinates equal a threshold is skipped.  Raises
    :class:`BudgetExceeded` once the membership descents have decided more
    than ``budget`` points."""
    steps = [
        (n, nn) for n, nn in zip(S.generators, S._gen_nums) if nn not in thresholds
    ]
    memo, start = S._memo, len(S._memo)

    def keep(y, ny):
        kept = not any(
            all(map(ge, ny, t)) and S._member(vsub(ny, t)) for t in thresholds
        )
        if budget is not None and len(memo) - start > budget:
            raise BudgetExceeded(
                f"the Apery core's closure decided more than {budget} points",
                limit=budget,
                count=len(memo) - start,
                unit="decided points",
            )
        return kept

    return frozenset(_down_set(zero(S.dim), S._origin, steps, keep)[0])


def apery_context(S, M) -> AperyContext:
    """The Apery table of ray elements ``M``, its core built by closure.

    ``S`` may be either representation; membership tests use the generated
    form, and the core of the multiplicities is the one cached with it.
    """
    S = _as_generated(S)
    S.cone._require_simplicial()
    ray_elements = _match_rays(S.cone, M)
    # a ray element lies in the cone, so its split is its closure threshold
    thresholds = [S._numerators(m) for m in ray_elements]
    for m, t in zip(ray_elements, thresholds):
        if not S._member(t):
            raise NotInSemigroup(m)
    if ray_elements == S.multiplicities():
        return S._apery_table()
    return AperyContext(S, ray_elements, _apery_core(S, thresholds))
