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
generating set of its ideal part.  The lost elements form a finite down-set
D of (S∖{0}, ≤_S), and one constructor (:meth:`IdealSemigroup._from_lost`)
builds S ∖ D with its ideal generators from a test for D, by a walk over D
alone: it serves :func:`isemigroup_from_ideal` and the top of the Frobenius
fiber in :mod:`.enumeration`.  The walk is the one that lists the Apery core
in :mod:`.semigroups`: for M one element per extremal ray, the ideal M + S
has the canonical generators M and loses exactly Ap(S, M) ∖ {0}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import count

from .errors import (
    BudgetExceeded,
    ConeMismatch,
    NotCSemigroup,
    NotInSemigroup,
    SemigroupError,
)
from .lattice import Point, primitive, vsub, zero
from .semigroups import DEFAULT_BUDGET, GapSemigroup, _down_set

# not called here: perfbench/test_perfbench.py pins this name as the tracer's
# patch target until the benchmark maintenance of ROADMAP item 1 unpins it
from .semigroups import certified_gap_scan  # noqa: F401


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
        if len(x) != self.base.dim:
            return False
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
    ``generated``, when given, pre-fill the caches; otherwise ``gens`` is
    derived from the minimal generators of the inherited generated form.
    Equality and hashing are those of the gap set.

    The points the base lost are checked through the base's split memo
    (``GapSemigroup._split``).  The removal walk of :mod:`.enumeration`
    carries its nodes as bare tuples and builds this class only for the
    semigroups the library returns.
    """

    def __init__(self, base: GapSemigroup, gap_set, gens=None, generated=None):
        self.base = base
        super().__init__(base.cone, (), generated)
        self.gaps = frozenset(tuple(h) for h in gap_set)
        # the base validated its own gaps, so only the others are checked
        self._check_gaps(self.gaps - base.gaps, lambda h: base._split(h) is not None)
        if gens is not None:
            self.gens = frozenset(gens)

    @classmethod
    def _from_lost(cls, S: GapSemigroup, is_lost, budget=DEFAULT_BUDGET):
        """S less the finite down-set D = {y ∈ S∖{0} : is_lost(y)} of
        (S∖{0}, ≤_S), with the canonical generators of S ∖ (D ∪ {0}).

        The :func:`_down_set` walk along msg(S) lists D.  Its steps out of D
        hold every ideal generator, and such a step y is one exactly when
        each y − n′ (n′ ∈ msg(S)) in S lies in D ∪ {0}.  The lost points'
        coordinates join S's split memo, where ``__init__`` looks them up.
        ``is_lost`` is asked once per step, and :class:`BudgetExceeded` is
        raised once D has more than ``budget`` points.
        """
        msg, gaps = [(n, S._split(n)) for n in S.minimal_generators()], S.gaps
        origin, lost = zero(S.dim), count(1)

        def keep(y, ny):
            if not is_lost(y):
                return False
            if (n := next(lost)) > budget:
                raise BudgetExceeded(
                    f"the ideal loses more than {budget} points",
                    limit=budget,
                    count=n,
                    unit="lost points",
                )
            return True

        down, steps = _down_set(origin, zero(len(S.cone.rays)), msg, keep)
        gens = frozenset(
            y
            for y, ny in steps.items()
            if all(
                min(vsub(ny, nn)) < 0 or (w := vsub(y, n)) in down or w in gaps
                for n, nn in msg
            )
        )
        del down[origin]
        splits = S._splits
        for y, ny in down.items():
            splits.setdefault(y, ny)
        return cls(S, gaps.union(down), gens)

    @cached_property
    def gens(self) -> frozenset[Point]:
        return imsg_of_isemigroup(self)


def isemigroup_from_ideal(P: Ideal, budget=DEFAULT_BUDGET) -> IdealSemigroup:
    """Gap representation of P ∪ {0} over a C-semigroup base.

    The gap set is the base's plus every base element the ideal dropped,
    a down-set that is finite exactly when the ideal meets all rays, which
    is required up front.  :meth:`IdealSemigroup._from_lost` lists it and
    the ideal's generators in one walk; ``budget`` bounds the points the
    ideal loses.  When 0 ∈ P nothing is lost and ``gens`` is msg(S).
    """
    if not ideal_is_csemigroup(P):
        raise NotCSemigroup("the ideal misses an extremal ray; gaps are infinite")
    return IdealSemigroup._from_lost(P.base, lambda y: not P.contains(y), budget)


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
    generators of S.  Both are read from T's gaps: a nonzero element x of
    T with x + n a gap h of T, n in msg(S), is found as h - n, so
    |gaps| · |msg| steps decide the axiom.  When the answer is positive the
    sandwich T ⊆ S ⊆ T ∪ PF(T) is cross-checked: every element S lost
    must be pseudo-Frobenius in T, otherwise :class:`SemigroupError` is
    raised.  A lost h plus a nonzero element of T lies in S, so h fails
    exactly when g − h is a nonzero element of T for some lost g.
    """
    if T.cone != S.cone:
        raise ConeMismatch(f"candidate cone {T.cone.rays} differs from {S.cone.rays}")
    if not S.gaps <= T.gaps:
        return False
    msg_s = S.minimal_generators()
    for h in T.gaps:
        for n in msg_s:
            x = vsub(h, n)
            if any(x) and T.contains(x):
                return False
    lost = T.gaps - S.gaps
    if any(any(x := vsub(g, h)) and T.contains(x) for h in lost for g in lost):
        raise SemigroupError("sandwich property violated by a verified ideal")
    return True
