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

``gaps()`` lists the gaps by a scan in grade order stopped by a
certificate: at the largest of those grade bounds over the classes, or at
the window certificate if that comes first.  (An ideal's semigroup needs no
scan: its new gaps are a down-set of S∖{0}, which :mod:`.ideals` lists by a
walk from 0.)  The window certificate needs no table: any gap ``x`` with
``w(x) >= sum_i w(n_i)`` has some simplicial coordinate at least 1, hence
``x - n_i`` stays in the cone and must itself be a gap (otherwise ``x``
would be an element).  Iterating
descends through every grade window of width ``max_i w(n_i)``, so once
every grade in ``[W, W + max_i w(n_i))`` is free of gaps for some
``W >= sum_i w(n_i)`` exceeding all gaps found, no gap can exist above the
window and the scan is complete.

All values are immutable after construction; the only mutable state is the
internal membership memo of :class:`GenSemigroup`, two memos of
:class:`GapSemigroup` and the Apery core of the multiplicities, built
once.  The membership memo is one per semigroup: generator reduction
starts it at construction, before the object can be shared, with the
entries any later descent would write, and queries, witnesses and the core
closure extend it.  The split memo holds points' cone coordinates, which
the removal steps and the ideal semigroups built on that base read.  The
divisor-mask memo holds, for points y of S∖{0}, the bitmask D(y) of their
divisors in S∖{0}, and for each point x a removal step took out, its
up-row: the sums x + n, n ∈ msg(S), with their masks and bit indices.  The
removal steps of :mod:`.enumeration` read both.  The memos are append-only
and safe to share between threads: the divisor-mask memo is created with
``dict.setdefault``, its bits are drawn from an ``itertools.count`` and
stored with ``dict.setdefault``, and its up-rows are stored with
``dict.setdefault``, so two walks on one base cannot give two points the
same bit and share one row per point.  This memo leans on
``dict.setdefault`` alone, not on ``functools.cached_property``, which
takes no lock from Python 3.12 on.  The split memo is a cached property:
two threads may then build two dicts, and a point whose coordinates went
to the lost one is split again.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import count
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
    ``msg``, when given, is its minimal generating set, else found by a scan."""

    def __init__(self, cone: Cone, gap_set, msg=None):
        self.cone = cone
        self.gaps = frozenset(tuple(h) for h in gap_set)
        self._check_gaps(self.gaps, cone.contains)
        if msg is not None:
            self._msg = frozenset(msg)

    def _check_gaps(self, points, in_cone):
        for h in points:
            if len(h) != self.dim:
                raise ValueError(f"gap {h} does not match dimension {self.dim}")
            if not any(h):
                raise ValueError("0 cannot be a gap")
            if not in_cone(h):
                raise ValueError(f"gap {h} lies outside the cone")

    @cached_property
    def _splits(self) -> dict[Point, Point | None]:
        return {}

    def _split(self, x: Point) -> Point | None:
        """Cone coordinates of the point x (``Cone._numerators``), or None
        outside the cone.  Memoized, so each point is split once; x must
        have the cone's dimension."""
        splits = self._splits
        if x not in splits:
            splits[x] = self.cone._numerators(x)
        return splits[x]

    @property
    def _divisors(self) -> tuple[dict[Point, int], count, tuple, dict[Point, tuple]]:
        """The divisor-mask memo: the masks, the counter that draws their
        bits, the minimal generators with their cone coordinates, and the
        up-rows (:meth:`_up_row`).  It is stored with ``dict.setdefault``,
        so threads that read it first at the same time share one memo."""
        memo = vars(self).get("_divisor_memo")
        if memo is None:
            msg = tuple((n, self._split(n)) for n in self.minimal_generators())
            memo = vars(self).setdefault("_divisor_memo", ({}, count(), msg, {}))
        return memo

    def _divisor_mask(self, y: Point, ny: Point) -> int:
        """D(y), the bitmask of the z in S∖{0} with y − z ∈ S, for a
        nonzero point y of S with cone coordinates ``ny``.

        D(y) is y's own bit together with D(y − n) for each n ∈ msg(S)
        with y − n ∈ S∖{0}, read on cone coordinates: N(y − n) =
        N(y) − N(n) ≥ 0 and y − n is no gap, so no point is split.  A mask
        is built on first demand after those of its terms, and only then is
        y's bit drawn, so it is the highest bit of D(y).  A masked point's
        coordinates join the split memo.
        """
        masks, bits, msg, _ = self._divisors
        if y in masks:
            return masks[y]
        gaps, splits = self.gaps, self._splits
        stack = [(y, ny)]
        while stack:
            z, nz = stack[-1]
            if z in masks:
                stack.pop()
                continue
            mask, ready = 0, True
            for n, nn in msg:
                nw = vsub(nz, nn)
                if min(nw) < 0 or not any(nw) or (w := vsub(z, n)) in gaps:
                    continue
                if (dw := masks.get(w)) is None:
                    stack.append((w, nw))
                    ready = False
                else:
                    mask |= dw
            if ready:
                splits.setdefault(z, nz)
                masks.setdefault(z, mask | 1 << next(bits))
                stack.pop()
        return masks[y]

    def _up_row(self, x: Point) -> tuple[tuple[Point, int, int], ...]:
        """R(x), for a masked point x: one entry (x + n, D(x + n), the
        index of x + n's bit) per n ∈ msg(S), in msg order.  x + n gets its
        cone coordinates as the sum N(x) + N(n), so no point is split.
        Built once per point and stored with ``dict.setdefault``.  The row
        holds the bit's index, not the bit: a point's bit is as wide as its
        mask, and a point lies in up to |msg(S)| rows."""
        masks, _, msg, rows = self._divisors
        row = rows.get(x)
        if row is None:
            nx, entries = self._split(x), []
            for n, nn in msg:
                y = vadd(x, n)
                dy = masks.get(y) or self._divisor_mask(y, vadd(nx, nn))
                entries.append((y, dy, dy.bit_length() - 1))
            row = rows.setdefault(x, tuple(entries))
        return row

    @property
    def dim(self):
        return self.cone.dim

    @property
    def genus(self) -> int:
        return len(self.gaps)

    @cached_property
    def max_gap_grade(self) -> int:
        return max((sum(h) for h in self.gaps), default=-1)

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
        # A generator x either lies in the box sum_i [0, 1) n_i of the ray
        # multiplicities, below grade sum_i w(n_i), or x - n_i is in the cone
        # for some i and then 0 or a gap, so w(x) <= w(n_i) + (largest gap
        # grade); the scan below stops there.  Each sum of a nonzero element
        # and a generator is marked before the scan reaches its grade; both
        # lists ascend in grade.
        weights = [sum(n) for n in self.multiplicities()]
        bound = max(sum(weights) - 1, max(weights) + max(self.max_gap_grade, 0))
        found: list[tuple[Point, int]] = []
        elements: list[tuple[Point, int]] = []
        sums: set[Point] = set()
        for g in range(1, bound + 1):
            for x in self.cone.graded_points(g):
                if x in self.gaps:
                    continue
                if x not in sums:
                    found.append((x, g))
                    for y, gy in elements:
                        if gy + g > bound:
                            break
                        sums.add(vadd(y, x))
                elements.append((x, g))
                for m, gm in found:
                    if g + gm > bound:
                        break
                    sums.add(vadd(x, m))
        return frozenset(x for x, _ in found)

    def minimal_generators(self) -> frozenset[Point]:
        return self._msg

    @cached_property
    def _generated(self) -> GenSemigroup:
        return GenSemigroup(sorted(self._msg), warn_redundant=False)

    def as_generated(self) -> GenSemigroup:
        return self._generated

    def validate_closure(self):
        """Check that cone minus gaps is closed under addition.

        A violation is a gap expressible as a sum of two nonzero elements;
        both summands then have smaller grade than the gap, so scanning the
        points below each gap is exhaustive.  Raises ValueError on the first
        violation.
        """
        for h in sorted(self.gaps):
            hg = sum(h)
            for g in range(1, hg):
                for x in self.cone.graded_points(g):
                    if x in self.gaps:
                        continue
                    y = vsub(h, x)
                    if min(y) >= 0 and any(y) and self.contains(y):
                        raise ValueError(
                            f"gap {h} is the sum of elements {x} and {y}"
                        )


def _as_generated(S) -> GenSemigroup:
    return S if isinstance(S, GenSemigroup) else S.as_generated()


def certified_gap_scan(cone, member, ray_elements, budget=DEFAULT_BUDGET, top=None):
    """Gap set of a cofinite submonoid/ideal-with-zero of the cone.

    ``member`` must contain every ``ray_elements[i]`` and be closed under
    adding each of them; those are exactly the hypotheses of the window
    certificate described in the module docstring.  ``top``, when given,
    is a proven bound on the gaps' grades, and the scan also stops once it
    has visited grade ``top``, whichever certificate comes first.  Its one
    caller is ``gaps``, once the Apery table has shown S to be a
    C-semigroup and bounded its gap grades; it raises
    :class:`BudgetExceeded` after visiting ``budget`` cone points without
    reaching a certificate.
    """
    wsum = sum(sum(n) for n in ray_elements)
    wmax = max(sum(n) for n in ray_elements)
    gap_list: list[Point] = []
    max_gap_grade = -1
    visited = 0
    g = 0
    while True:
        window_start = max(wsum, max_gap_grade + 1)
        if g >= window_start + wmax or (top is not None and g > top):
            return frozenset(gap_list)
        for x in cone.graded_points(g):
            visited += 1
            if visited > budget:
                raise BudgetExceeded(
                    f"no termination certificate within {budget} points "
                    f"(grade {g}, {len(gap_list)} gaps so far)"
                )
            if not member(x):
                gap_list.append(x)
                max_gap_grade = g
        g += 1


def gaps(S: GenSemigroup, budget=DEFAULT_BUDGET) -> GapSemigroup:
    """Complete gap set of a generated semigroup, decided by its Apery table.

    Raises :class:`NotCSemigroup` when S has infinitely many gaps, with the
    proof in its fields: the realized multiples on extremal ray ``ray``
    have gcd ``gcd`` > 1; or the class of ``residue`` modulo the lattice of
    the multiplicities holds no core element (``ray`` is None); or no core
    element of the class of ``residue`` lies on ``residue + ℕ·n``, n the
    multiplicity on ``ray``.
    Otherwise S is a C-semigroup and its gaps are listed by
    :func:`certified_gap_scan` over the multiplicities, which then always
    reaches a certificate.  The scan stops at the last gap grade the table
    proves (module docstring), unless the window certificate comes first.
    ``budget`` bounds the points this call
    visits: those whose membership the core's closure decides (none when
    the core is cached), then the scanned points.  Beyond it
    :class:`BudgetExceeded` is raised (inconclusive).
    The result's generated form is S itself, which has the same minimal
    generators: the two share S's append-only memo and its cached core.
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
    scan_budget = budget - (len(S._memo) - before)
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
    gap_set = certified_gap_scan(S.cone, S.contains, mults, scan_budget, top=top)
    G = GapSemigroup(S.cone, gap_set, msg=S.generators)
    G._generated = S
    return G


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
                    f"sum box exceeded {2_000_000} distinct points"
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


def _apery_core(S: GenSemigroup, thresholds, budget=None) -> frozenset[Point]:
    """Common Apery core of the ray elements m, given by their cone
    coordinates ``thresholds``, by closure from 0: if w = z + n is in the
    core, z in S and n a generator, then z is in the core (z − m ∈ S would
    put w − m in S).  No step goes along a ray element: (w + m) − m = w is
    in S, so w + m is never in the core, and a generator whose numerators
    equal a threshold is skipped.  Each sum is tested once, on numerators
    carried along: w + n gets w's plus n's, and y − m is in the cone exactly
    when y's dominate m's, so no point is split here.  Raises
    :class:`BudgetExceeded` after a layer of sums in which the membership
    descents have decided more than ``budget`` points in all."""
    steps = [
        (n, n_nums)
        for n, n_nums in zip(S.generators, S._gen_nums)
        if n_nums not in thresholds
    ]
    origin = zero(S.dim)
    core = {origin}
    frontier = {origin: S._origin}
    seen = {origin}
    start = len(S._memo)
    while frontier:
        fresh = {}
        for w, w_nums in frontier.items():
            for n, n_nums in steps:
                y = vadd(w, n)
                if y not in seen:
                    seen.add(y)
                    fresh[y] = vadd(w_nums, n_nums)
        frontier = {
            y: nums
            for y, nums in fresh.items()
            if not any(
                all(map(ge, nums, t)) and S._member(vsub(nums, t))
                for t in thresholds
            )
        }
        core.update(frontier)
        if budget is not None and len(S._memo) - start > budget:
            raise BudgetExceeded(
                f"the Apery core's closure decided more than {budget} points "
                f"({len(core)} core points so far)"
            )
    return frozenset(core)


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
