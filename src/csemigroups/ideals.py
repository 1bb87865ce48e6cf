"""Ideals of affine semigroups and the semigroups they induce.

An ideal of S is a subset P with P + S ⊆ P; every ideal is X + S for a
unique "incomparable" finite X ⊂ S (no difference of two members lies in
S), which therefore serves as a canonical form: two ideals are equal
exactly when their canonical generating sets are.  Adjoining 0 to an ideal
yields a new affine semigroup whenever the ideal still meets every extremal
ray, and for C-semigroup bases the result is again a C-semigroup over the
same cone whose gap set extends the base's by the lost elements.  It is
therefore represented as a :class:`GapSemigroup`, the subclass
:class:`IdealSemigroup`, that also knows its base and the canonical
generating set of its ideal part.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import ConeMismatch, NotCSemigroup, NotInSemigroup, SemigroupError
from .lattice import Point, primitive, scale, vadd, vsub, zero
from .semigroups import (
    DEFAULT_BUDGET,
    GapSemigroup,
    _ray_multiple,
    certified_gap_scan,
)


def minimal_elements(S, X) -> frozenset[Point]:
    """Minimal members of X under "y divides x in S" (x - y ∈ S).

    The result is incomparable: no difference of two members lies in S.
    Every element of X must itself belong to S.
    """
    pts = frozenset(tuple(x) for x in X)
    for x in pts:
        if not S.contains(x):
            raise NotInSemigroup(x)
    return frozenset(
        x
        for x in pts
        if not any(
            y != x and min(d := vsub(x, y)) >= 0 and S.contains(d) for y in pts
        )
    )


@dataclass(frozen=True)
class Ideal:
    """An ideal X + S in canonical form.

    ``gens`` is the unique incomparable generating set; it doubles as the
    equality and hashing key (together with the base semigroup).
    """

    base: object
    gens: frozenset[Point]

    def contains(self, x) -> bool:
        x = tuple(x)
        for y in self.gens:
            d = vsub(x, y)
            if min(d) >= 0 and self.base.contains(d):
                return True
        return False

    __contains__ = contains

    @property
    def is_whole_semigroup(self) -> bool:
        """0 belongs to an ideal exactly when the ideal is all of S."""
        return zero(self.base.dim) in self.gens

    def sorted_gens(self) -> tuple[Point, ...]:
        return tuple(sorted(self.gens))


def ideal_from_set(S, X) -> Ideal:
    """Canonical ideal generated by a finite nonempty subset of S.

    Two inputs produce equal ideals exactly when their canonical
    generating sets coincide.
    """
    pts = frozenset(tuple(x) for x in X)
    if not pts:
        raise ValueError("an ideal needs a nonempty generating set")
    return Ideal(S, minimal_elements(S, pts))


def ideal_is_csemigroup(P: Ideal) -> bool:
    """Does P ∪ {0} stay a C-semigroup over the same cone?

    Equivalent to the ideal meeting every extremal ray.  Points of X + S on
    an extremal ray decompose entirely along that ray (rays are faces of
    the simplicial cone), so the test reduces to the canonical generators:
    each ray must carry one.
    """
    base = P.base
    if not isinstance(base, GapSemigroup):
        raise NotCSemigroup("the base semigroup is not a verified C-semigroup")
    if P.is_whole_semigroup:
        return True
    on_ray = {primitive(x) for x in P.gens}
    return all(d in on_ray for d in base.cone.rays)


class IdealSemigroup(GapSemigroup):
    """The C-semigroup P ∪ {0} for an ideal P of a C-semigroup base.

    It is a :class:`GapSemigroup` over the base's cone that also knows its
    ``base`` and ``gens``, the canonical generating set of the ideal part
    (P itself when proper, otherwise of base minus zero).  ``gens`` and
    ``msg``, when given, pre-fill the caches; otherwise ``gens`` is derived
    from the minimal generators, which the inherited scan computes.
    Equality and hashing are those of the gap set.
    """

    def __init__(self, base: GapSemigroup, gap_set, gens=None, msg=None):
        gaps = frozenset(tuple(h) for h in gap_set)
        # the base validated its own gaps, so only the others are checked
        super().__init__(base.cone, gaps - base.gaps)
        self.gaps = gaps
        self.base = base
        if gens is not None:
            self.gens = frozenset(gens)
        if msg is not None:
            self._msg = frozenset(msg)

    @cached_property
    def gens(self) -> frozenset[Point]:
        return imsg_of_isemigroup(self)

    def as_gap_semigroup(self) -> GapSemigroup:
        return self


def isemigroup_from_ideal(P: Ideal, budget=DEFAULT_BUDGET) -> IdealSemigroup:
    """Gap representation of P ∪ {0} over a C-semigroup base.

    The gap set is the base's plus every base element the ideal dropped;
    the latter difference is finite exactly when the ideal meets all rays,
    which is required up front.
    """
    base = P.base
    if not ideal_is_csemigroup(P):
        raise NotCSemigroup("the ideal misses an extremal ray; gaps are infinite")
    if P.is_whole_semigroup:
        return IdealSemigroup(base, base.gaps, msg=base.minimal_generators())
    origin = zero(base.dim)
    mults = []
    for d in base.cone.rays:
        ks = [k for x in P.gens if (k := _ray_multiple(x, d))]
        mults.append(scale(min(ks), d))

    def member(x):
        return x == origin or P.contains(x)

    gap_set = certified_gap_scan(base.cone, member, mults, budget)
    return IdealSemigroup(base, gap_set, P.gens)


def imsg_of_isemigroup(T: IdealSemigroup) -> frozenset[Point]:
    """Canonical generating set of the ideal part, recovered from T itself.

    Equals the minimal elements, under division in the base, of T's own
    minimal generating set.
    """
    return minimal_elements(T.base, T.minimal_generators())


def verify_isemigroup(S: GapSemigroup, T: GapSemigroup) -> bool:
    """Decide whether the candidate's nonzero part is an ideal of S.

    This is the independent oracle, which the genus tree no longer calls
    (its children carry a local certificate instead).  Checks containment
    (gaps of S persist in T) and the ideal axiom against the minimal
    generators of S; translating any element by a generator can only fall
    into a gap of T when the element's grade is below the largest gap
    grade, so the scan is finite and complete.  When the answer is positive
    the sandwich T ⊆ S ⊆ T ∪ PF(T) is cross-checked: every element S lost
    must be pseudo-Frobenius in T, otherwise :class:`SemigroupError` is
    raised.  A lost element plus a generator is a sum of cone points, so
    only T's gaps are consulted.
    """
    if T.cone != S.cone:
        raise ConeMismatch(f"candidate cone {T.cone.rays} differs from {S.cone.rays}")
    if not S.gaps <= T.gaps:
        return False
    msg_s = S.minimal_generators()
    for g in range(1, T.max_gap_grade + 1):
        for x in T.cone.graded_points(g):
            if x in T.gaps:
                continue
            for n in msg_s:
                if vadd(x, n) in T.gaps:
                    return False
    lost = T.gaps - S.gaps
    if any(vadd(h, n) in T.gaps for h in lost for n in T.minimal_generators()):
        raise SemigroupError("sandwich property violated by a verified ideal")
    return True
