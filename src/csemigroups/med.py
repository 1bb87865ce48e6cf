"""Maximal-embedding-dimension predicates and constructions.

A semigroup has maximal embedding dimension when the common Apery core of
its ray multiplicities consists of 0 and minimal generators only.  Three
independent routes decide the property (definition via the core, a
pairwise generator criterion, and a set identity between the
multiplicity-translated ideal and the semigroup without its non-ray
generators); translating any valid set of on-ray elements always produces
a MED semigroup, which is also the workhorse behind the fixed-multiplicity
enumeration.

The decomposition head, the rays a non-ray generator can shed and the
exact ray-section test all read the class split of the multiplicities'
Apery table (:class:`.semigroups.AperyContext`): x sheds the multiplicity
n_i inside the cone exactly when λ_i(x) ≥ 1.

:func:`decompose` reports ``S = head ∪ ⋃_i (n_i + S_i)`` with the ray
sections ``S_i = {x in cone : x + n_i in S}``.  The box check
(:meth:`Decomposition.verify_on_box`) certifies that identity on every
cone point up to a grade.  Only points up to a stop grade can break it: a
point of S outside the cover sheds no n_i, so its grade is at most
``Σ w(n_i) − 1`` (w the coordinate sum), and a point of the cover outside
S is in the head.  The check walks no further than the larger of the two,
and a box that reaches it proves the identity on the whole cone.  It
reads one integer split per point (:meth:`.lattice.Cone.graded_split`):
x − n_i lies in the cone exactly when x's numerators dominate n_i's, and
the membership descent runs on those numerators, never splitting x again.
:func:`med_via_translates` does the same, and tests x − n_i on the
difference of the numerators.

:func:`med_type2_check` looks for a closure violation ``x + y + n_k ∉ S``
among the section points of a grade box, but reads only the section's
least points, one per λ-vector of the Apery table: any violation on the
box has one at least points of no greater grade.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations_with_replacement
from operator import ge

from .lattice import Point, scale, vadd, vsub, zero
from .semigroups import (
    AperyContext,
    GapSemigroup,
    GenSemigroup,
    _as_generated,
    apery_context,
)
from .ideals import IdealSemigroup

#: grade up to which ``med_type2_check`` looks for a closure violation
_TYPE2_BOX_GRADE = 40


def _ray_split(S: GenSemigroup):
    """(ray multiplicities, non-ray minimal generators)."""
    mults = S.multiplicities()
    extra = frozenset(S.generators) - frozenset(mults)
    return mults, extra


@dataclass(frozen=True)
class MedReport:
    """Outcome of the maximal-embedding-dimension test.

    On a negative answer ``witness`` is a pair of non-ray generators whose
    sum cannot shed any ray multiplicity inside the semigroup.
    """

    is_med: bool
    apery_core: frozenset[Point]
    non_ray_generators: frozenset[Point]
    witness: tuple[Point, Point] | None = None


def _pairwise_witness(S: GenSemigroup, mults, extra):
    for a in sorted(extra):
        for b in sorted(extra):
            if not any(
                min(d := vsub(vadd(a, b), n)) >= 0 and S.contains(d) for n in mults
            ):
                return (a, b)
    return None


def is_med_definition(S) -> MedReport:
    """Compare the common Apery core of the ray multiplicities with the
    non-ray generators (plus 0)."""
    S = _as_generated(S)
    mults, extra = _ray_split(S)
    ctx = apery_context(S, mults)
    ok = ctx.core == extra | {zero(S.dim)}
    witness = None if ok else _pairwise_witness(S, mults, extra)
    return MedReport(ok, ctx.core, extra, witness)


def is_med_pairwise(S) -> bool:
    """For every pair of non-ray generators, some ray multiplicity can be
    subtracted from their sum without leaving the semigroup."""
    S = _as_generated(S)
    mults, extra = _ray_split(S)
    return _pairwise_witness(S, mults, extra) is None


@dataclass(frozen=True)
class MedConstruction:
    """Result of translating the base by one element per extremal ray.

    ``semigroup`` is the generated form of the translate-plus-zero
    semigroup, obtained by reducing the translates of the context's Apery
    core; ``isemigroup`` is its gap form, available when the base is a
    C-semigroup (the new gaps are exactly the base's plus the nonzero part
    of the Apery core).
    """

    context: AperyContext
    semigroup: GenSemigroup
    msg: frozenset[Point]
    isemigroup: IdealSemigroup | None


def med_construct(S, M) -> MedConstruction:
    """Build the semigroup (M + S) ∪ {0}, generated by the translates
    m + w of the Apery core, which :class:`.semigroups.GenSemigroup` reduces
    to its minimal generators; it always has maximal embedding dimension."""
    gap_base = S if isinstance(S, GapSemigroup) else None
    ctx = apery_context(S, M)
    translates = {vadd(m, w) for m in ctx.ray_elements for w in ctx.core}
    T = GenSemigroup(translates, warn_redundant=False)
    iso = None
    if gap_base is not None:
        iso = IdealSemigroup(
            gap_base,
            gap_base.gaps | (ctx.core - {zero(T.dim)}),
            frozenset(ctx.ray_elements),
            generated=T,
        )
    return MedConstruction(ctx, T, frozenset(T.generators), iso)


def med_via_translates(S) -> bool:
    """Decide the MED property through the set identity
    ``(E + S) ∪ {0} == S minus its non-ray generators``.

    Both sides agree outside a bounded region: a disagreement is either a
    non-ray generator or an element of the common Apery core of the ray
    multiplicities.  The identity is therefore checked exhaustively up to
    the largest grade of either.
    """
    S = _as_generated(S)
    mults, extra = _ray_split(S)
    bound = max(map(sum, apery_context(S, mults).core | set(S.generators)))
    thresholds = [S.cone._numerators(n) for n in mults]
    for g in range(bound + 1):
        for x, nums in S.cone.graded_split(g):
            # x − n is in the cone exactly when x's numerators dominate n's
            translated = not any(x) or any(
                all(map(ge, nums, t)) and S._member(vsub(nums, t))
                for t in thresholds
            )
            kept = S._member(nums) and x not in extra
            if translated != kept:
                return False
    return True


@dataclass(frozen=True)
class Decomposition:
    """Split of S into a finite head and ideals translated along each ray.

    ``ray_elements`` hold one cone point n_i per extremal ray (the
    multiplicities, from :func:`decompose`).  ``head`` collects the
    elements from which no n_i can be subtracted within the cone; every
    other element lies in some ``n_i + S_i``, ``S_i = {x in cone : x + n_i
    in S}``.
    """

    base: GenSemigroup
    ray_elements: tuple[Point, ...]
    head: frozenset[Point]

    @cached_property
    def _thresholds(self) -> tuple[Point, ...]:
        """The numerators of each n_i: a cone point x sheds n_i inside the
        cone exactly when its numerators dominate them."""
        return tuple(map(self.base.cone._numerators, self.ray_elements))

    def in_ray_part(self, i: int, x) -> bool:
        """Membership of x in the i-th translated section."""
        x = tuple(x)
        return self.base.cone.contains(x) and self.base.contains(
            vadd(x, self.ray_elements[i])
        )

    @cached_property
    def _stop_grade(self) -> int:
        """Largest grade at which S and the cover can differ.

        A point of S outside the cover is outside the head and sheds no
        n_i, so its ray coordinates lie below n_i's on every ray i, and its
        grade is at most ``Σ w(n_i) − 1`` (w the coordinate sum); a point of
        the cover outside S is in the head.
        """
        return max(
            sum(map(sum, self.ray_elements)) - 1,
            max(map(sum, self.head), default=0),
        )

    def _first_disagreement(self, max_grade: int) -> Point | None:
        """First cone point up to ``max_grade``, in grade-then-lex order,
        where S and ``head ∪ ⋃_i (n_i + S_i)`` differ, or None.  The walk
        ends at ``min(max_grade, _stop_grade)``: no point above
        :attr:`_stop_grade` can differ."""
        for g in range(min(max_grade, self._stop_grade) + 1):
            for x, nums in self.base.cone.graded_split(g):
                member = self.base._member(nums)
                # x − n_i is in S_i exactly when x is in S, so x is covered
                # when it is in the head, or in S and sheds some n_i
                covered = x in self.head or member and any(
                    all(map(ge, nums, t)) for t in self._thresholds
                )
                if member != covered:
                    return x
        return None

    def verify_on_box(self, max_grade: int) -> bool:
        """Check ``S = head ∪ ⋃_i (n_i + S_i)`` on every cone point up to
        ``max_grade``, each split once into its numerators and tested for
        membership once.  Only the points up to :attr:`_stop_grade` are
        walked; when ``max_grade`` reaches it, True proves the identity on
        the whole cone."""
        return self._first_disagreement(max_grade) is None


def decompose(S) -> Decomposition:
    """Finite head of S plus per-ray section predicates.

    An element that sheds no multiplicity inside the cone sheds none inside
    S either, so the head is the part of the common Apery core of the
    multiplicities that sheds none inside the cone: the core elements with
    λ = 0 in the table's class split.
    """
    S = _as_generated(S)
    table = S._apery_table()
    head = frozenset(w for w in table.core if not any(table._split(w)[1]))
    return Decomposition(S, table.ray_elements, head)


class TriState(enum.Enum):
    """Outcome of a test that may be undecidable by a finite scan."""

    TRUE = "true"
    FALSE = "false"
    INCONCLUSIVE = "inconclusive"


def _ray_section_is_cone(table: AperyContext, k: int) -> bool:
    """Exact test for ``{x in cone : x + n_k in S} == cone``, n_k the k-th
    multiplicity of the Apery table of the multiplicities.

    A cone point ``x = r + Σ ν_i n_i`` is in the section when ``ν + e_k``
    dominates the λ-vector of a core element of x's class; ν = 0 is the
    hardest case.  So the section is the cone exactly when the core meets
    every class and each class holds a core element with λ = 0 or λ = e_k.
    """
    return len(table.classes) == table._class_count and all(
        # λ ≤ e_k: no other entry is nonzero and the k-th is at most 1
        any(sum(lam) == lam[k] <= 1 for lam in lams)
        for _, lams in table.classes.values()
    )


def _least_section_points(table: AperyContext, k: int):
    """The points ``r + Σ_i max(λ − e_k, 0)_i·n_i``, over each class r of
    the Apery table and each λ-vector of its core elements: every point of
    the section ``S_k = {x in cone : x + n_k in S}`` is one of them plus a
    sum of multiplicities.

    x = r + Σ ν_i n_i is in S_k exactly when ν + e_k dominates a λ of its
    class, that is ν ≥ max(λ − e_k, 0); classes the core misses hold no
    point of S, so none of S_k.
    """
    for r, lams in table.classes.values():
        for lam in lams:
            nu = [max(c - (i == k), 0) for i, c in enumerate(lam)]
            yield reduce(vadd, map(scale, nu, table.ray_elements), r)


def med_type2_check(S) -> TriState:
    """Sufficient MED criterion through closure of one ray section.

    Requires a single ray multiplicity subtractable (within the cone) from
    every non-ray generator; with such a common multiplicity, closure of
    the corresponding section implies the MED property.  A TRUE answer is
    only produced from the exact full-cone certificate; closure that merely
    holds on the test box is reported INCONCLUSIVE, while a closure
    violation found on the box refutes the hypothesis.  Inputs whose
    generators need different multiplicities are INCONCLUSIVE as well.

    The box is the cone points of grade at most ``_TYPE2_BOX_GRADE``, but
    only the section's least points are read
    (:func:`_least_section_points`): a violation ``x + y + n_k ∉ S`` there
    implies one at least points ``a ≤ x``, ``b ≤ y``, since ``x − a`` and
    ``y − b`` are sums of multiplicities, which stay in S, and they have
    grade at most x's and y's.
    """
    S = _as_generated(S)
    mults, extra = _ray_split(S)
    if not extra:
        return TriState.TRUE
    table = S._apery_table()
    usable = []
    for m in sorted(extra):
        ks = {i for i, lam in enumerate(table._split(m)[1]) if lam}
        if not ks:
            return TriState.FALSE
        usable.append(ks)
    common = frozenset.intersection(*map(frozenset, usable))
    if not common:
        return TriState.INCONCLUSIVE
    for i in sorted(common):
        if _ray_section_is_cone(table, i):
            return TriState.TRUE
    all_violated = True
    for i in sorted(common):
        n_k = mults[i]
        least = {
            a for a in _least_section_points(table, i) if sum(a) <= _TYPE2_BOX_GRADE
        }
        # sums of section members stay in the cone, so non-membership of
        # a + b + n_k refutes closure outright
        violated = any(
            not S.contains(vadd(vadd(a, b), n_k))
            for a, b in combinations_with_replacement(least, 2)
        )
        if not violated:
            all_violated = False
    return TriState.FALSE if all_violated else TriState.INCONCLUSIVE
