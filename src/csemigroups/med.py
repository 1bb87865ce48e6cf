"""Maximal-embedding-dimension predicates and constructions.

A semigroup has maximal embedding dimension when the common Apery core of
its ray multiplicities consists of 0 and minimal generators only.  Three
independent routes decide the property (definition via the core, a
pairwise generator criterion, and a set identity between the
multiplicity-translated ideal and the semigroup without its non-ray
generators); translating any valid set of on-ray elements always produces
a MED semigroup, which is also the workhorse behind the fixed-multiplicity
enumeration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .lattice import Point, vadd, vsub, zero
from .semigroups import (
    AperyContext,
    GapSemigroup,
    GenSemigroup,
    _as_generated,
    apery_context,
)
from .ideals import IdealSemigroup


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
    semigroup, obtained by reducing the translates of the context's sum
    box; ``isemigroup`` is its gap form, available when the base is a
    C-semigroup (the new gaps are exactly the base's plus the nonzero part
    of the Apery core).
    """

    context: AperyContext
    semigroup: GenSemigroup
    msg: frozenset[Point]
    isemigroup: IdealSemigroup | None


def med_construct(S, M) -> MedConstruction:
    """Build the semigroup (M + S) ∪ {0}; it always has maximal embedding
    dimension."""
    gap_base = S if isinstance(S, GapSemigroup) else None
    ctx = apery_context(S, M)
    base = ctx.base
    translates = sorted(
        {vadd(m, g) for m in ctx.ray_elements for g in ctx.sum_box}
    )
    # a translate decomposes inside the new semigroup exactly when it still
    # lies in the ideal after shedding two ray elements
    pairs = [
        vadd(a, b)
        for i, a in enumerate(ctx.ray_elements)
        for b in ctx.ray_elements[i:]
    ]
    reduced = [
        t
        for t in translates
        if not any(
            min(d := vsub(t, p)) >= 0 and base.contains(d) for p in pairs
        )
    ]
    T = GenSemigroup(reduced, warn_redundant=False)
    iso = None
    if gap_base is not None:
        iso = IdealSemigroup(
            gap_base,
            gap_base.gaps | (ctx.core - {zero(T.dim)}),
            frozenset(ctx.ray_elements),
            msg=frozenset(T.generators),
        )
    return MedConstruction(ctx, T, frozenset(T.generators), iso)


def med_via_translates(S) -> bool:
    """Decide the MED property through the set identity
    ``(E + S) ∪ {0} == S minus its non-ray generators``.

    Both sides agree outside a bounded region: a disagreement is either a
    non-ray generator (bounded by the generator grades) or an element of
    the common Apery core, which lives inside the context's sum box.  The
    identity is therefore checked exhaustively on that region.
    """
    S = _as_generated(S)
    mults, extra = _ray_split(S)
    ctx = apery_context(S, mults)
    box_grade = sum(
        (q - 1) * sum(n) for q, n in zip(ctx.multipliers, S.generators)
    )
    bound = max(box_grade, max(sum(n) for n in S.generators))
    origin = zero(S.dim)
    for g in range(bound + 1):
        for x in S.cone.graded_points(g):
            translated = x == origin or any(
                min(d := vsub(x, n)) >= 0 and S.contains(d) for n in mults
            )
            kept = S.contains(x) and x not in extra
            if translated != kept:
                return False
    return True


@dataclass(frozen=True)
class Decomposition:
    """Split of S into a finite head and ideals translated along each ray.

    ``head`` collects the elements from which no ray multiplicity can be
    subtracted within the cone; every other element lies in some
    ``n_i + {x in cone : x + n_i in S}``.
    """

    base: GenSemigroup
    ray_elements: tuple[Point, ...]
    head: frozenset[Point]

    def in_ray_part(self, i: int, x) -> bool:
        """Membership of x in the i-th translated section."""
        x = tuple(x)
        return self.base.cone.contains(x) and self.base.contains(
            vadd(x, self.ray_elements[i])
        )

    def covers(self, x) -> bool:
        x = tuple(x)
        if x in self.head:
            return True
        return any(
            min(d := vsub(x, n)) >= 0 and self.in_ray_part(i, d)
            for i, n in enumerate(self.ray_elements)
        )

    def verify_on_box(self, max_grade: int) -> bool:
        """Check the covering identity on all cone points up to a grade."""
        for g in range(max_grade + 1):
            for x in self.base.cone.graded_points(g):
                if self.base.contains(x) != self.covers(x):
                    return False
        return True


def decompose(S) -> Decomposition:
    """Finite head of S plus per-ray section predicates.

    The head is bounded: an element whose grade reaches the sum of the
    multiplicity grades has a simplicial coordinate at least 1 and so loses
    a multiplicity inside the cone.
    """
    S = _as_generated(S)
    mults = S.multiplicities()
    bound = sum(sum(n) for n in mults)
    head = []
    for g in range(bound):
        for x in S.cone.graded_points(g):
            if not S.contains(x):
                continue
            if all(not S.cone.contains(vsub(x, n)) for n in mults):
                head.append(x)
    return Decomposition(S, mults, frozenset(head))


class TriState(enum.Enum):
    """Outcome of a test that may be undecidable by a finite scan."""

    TRUE = "true"
    FALSE = "false"
    INCONCLUSIVE = "inconclusive"


def _ray_section_is_cone(S: GenSemigroup, n_k: Point) -> bool:
    """Exact test for ``{x in cone : x + n_k in S} == cone``.

    A violation x with grade at least the sum of the multiplicity grades
    descends: subtracting a multiplicity with simplicial coordinate >= 1
    keeps it a violation.  So the full cone is covered exactly when no
    violation exists below that grade.
    """
    mults = S.multiplicities()
    bound = sum(sum(n) for n in mults)
    for g in range(bound):
        for x in S.cone.graded_points(g):
            if not S.contains(vadd(x, n_k)):
                return False
    return True


def med_type2_check(S, box_grade: int = 40) -> TriState:
    """Sufficient MED criterion through closure of one ray section.

    Requires a single ray multiplicity subtractable (within the cone) from
    every non-ray generator; with such a common multiplicity, closure of
    the corresponding section implies the MED property.  A TRUE answer is
    only produced from the exact full-cone certificate; closure that merely
    holds on the test box is reported INCONCLUSIVE, while a closure
    violation found on the box refutes the hypothesis.  Inputs whose
    generators need different multiplicities are INCONCLUSIVE as well.
    """
    S = _as_generated(S)
    mults, extra = _ray_split(S)
    if not extra:
        return TriState.TRUE
    usable = []
    for m in sorted(extra):
        ks = {i for i, n in enumerate(mults) if S.cone.contains(vsub(m, n))}
        if not ks:
            return TriState.FALSE
        usable.append(ks)
    common = frozenset.intersection(*map(frozenset, usable))
    if not common:
        return TriState.INCONCLUSIVE
    for i in sorted(common):
        if _ray_section_is_cone(S, mults[i]):
            return TriState.TRUE
    all_violated = True
    for i in sorted(common):
        n_k = mults[i]
        section = [
            x
            for g in range(box_grade + 1)
            for x in S.cone.graded_points(g)
            if S.contains(vadd(x, n_k))
        ]
        # sums of section members stay in the cone, so non-membership of
        # x + y + n_k refutes closure outright
        violated = any(
            not S.contains(vadd(vadd(x, y), n_k))
            for x in section
            for y in section
        )
        if not violated:
            all_violated = False
    return TriState.FALSE if all_violated else TriState.INCONCLUSIVE
