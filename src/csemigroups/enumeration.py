"""Enumeration of the ideal-derived semigroups of a fixed C-semigroup.

Three engines are provided: a breadth-first walk of the genus tree (each
node is obtained from its parent by removing one canonical ideal generator
larger than the element that produced the parent), the fiber of semigroups
sharing a prescribed Frobenius element, and the fiber sharing prescribed
per-ray multiplicities.  P ⊆ S∖{0} is an ideal exactly when it is an
up-set of (S∖{0}, ≤_S), where x ≤_S y means y − x ∈ S, so both fibers are
the up-sets of a finite poset and cost time in proportion to their results.
Results are emitted in a canonical order (genus, then sorted gap set) so
counts and golden files are stable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotDegreeCompatible, SemigroupError
from .lattice import GT, LT, MonomialOrder, Point, vadd, vsub, zero
from .semigroups import GapSemigroup, apery_context
from .ideals import IdealSemigroup, minimal_elements


def _result_key(T: IdealSemigroup):
    return (T.genus, tuple(sorted(T.gaps)))


def _up_sets(S: GapSemigroup, points) -> list[frozenset[Point]]:
    """Every subset of ``points`` closed upward under ≤_S.

    Points are taken from the highest grade down, and a partial set takes a
    point only when it already holds every point above it; every partial
    set is then an up-set of all the points, so the work grows with the
    number of results rather than with the number of subsets.
    """
    ups = [frozenset()]
    for p in sorted(points, key=lambda x: (sum(x), x), reverse=True):
        above = {q for q in points if q != p and S.contains(vsub(q, p))}
        ups += [U | {p} for U in ups if above <= U]
    return ups


def big_o(S: GapSemigroup, T, order: MonomialOrder) -> Point | None:
    """Largest element of S missing from T, or None when nothing is missing.

    None acts as a bottom sentinel that precedes every lattice point, so at
    the tree root the child rule degenerates to "all canonical generators".
    """
    diff = T.gaps - S.gaps
    if not diff:
        return None
    return order.max(diff)


def children(S: GapSemigroup, T: IdealSemigroup, order: MonomialOrder):
    """Child nodes of T in the genus tree of S.

    Exactly the removals of a canonical ideal generator exceeding
    ``big_o(S, T)``.  Each child is certified locally: removing a minimal
    element x of an ideal P leaves the ideal P ∖ {x}, so it suffices that x
    (a cone point, as every generator is) is no gap of T and that no other
    generator divides it; otherwise
    :class:`SemigroupError` names x.  Removing x promotes exactly the x + n,
    n a minimal generator of S, that no other generator divides.  They are
    incomparable because the minimal generators of S are, and no kept
    generator lies above one because the parent's generators are
    incomparable, so from the root down every node's ``gens`` is its
    canonical generating set.
    """
    threshold = big_o(S, T, order)
    out = []
    for x in sorted(T.gens):
        if threshold is not None and order.compare(x, threshold) != GT:
            continue
        if x in T.gaps:
            raise SemigroupError(f"ideal generator {x} is a gap of the parent")
        rest = T.gens - {x}
        for g in rest:
            if S.contains(vsub(x, g)):
                raise SemigroupError(f"ideal generator {x} is divisible by {g}")
        steps = {vadd(x, n) for n in S.minimal_generators()}
        promoted = {y for y in steps if not any(S.contains(vsub(y, g)) for g in rest)}
        out.append(IdealSemigroup(S, T.gaps | {x}, rest | promoted))
    return out


@dataclass(frozen=True)
class TreeNode:
    """Genus-tree vertex: the semigroup plus the element removed from its parent."""

    semigroup: IdealSemigroup
    removed: Point | None
    genus: int


def enumerate_tree(
    S: GapSemigroup, max_genus: int, order: MonomialOrder
) -> list[list[TreeNode]]:
    """All ideal-derived semigroups of S with genus at most ``max_genus``.

    Returns breadth-first levels; level k holds exactly the semigroups of
    genus ``genus(S) + k``.  There is no ``verify`` keyword: every child is
    certified locally by :func:`children`, and the full
    :func:`~csemigroups.ideals.verify_isemigroup` stays an independent
    oracle for tests.
    """
    g0 = S.genus
    if max_genus < g0:
        raise ValueError(f"max_genus {max_genus} is below the root genus {g0}")
    root = IdealSemigroup(S, S.gaps, gens=S.minimal_generators())
    levels = [[TreeNode(root, None, g0)]]
    for genus in range(g0 + 1, max_genus + 1):
        level = []
        for node in levels[-1]:
            for child in children(S, node.semigroup, order):
                (removed,) = child.gaps - node.semigroup.gaps
                level.append(TreeNode(child, removed, genus))
        levels.append(level)
    return levels


@dataclass(frozen=True)
class FrobeniusFiber:
    """Fiber of semigroups whose largest gap is the prescribed element.

    ``candidates`` holds the elements of the base below the target that
    cannot reach it inside the base; each result keeps one up-set of the
    nonzero candidates and everything above the target.
    """

    f: Point
    candidates: frozenset[Point]
    results: tuple[IdealSemigroup, ...]


def with_frobenius(S: GapSemigroup, f, order: MonomialOrder) -> FrobeniusFiber:
    """All ideal-derived semigroups of S with Frobenius element ``f``.

    Requires a degree-compatible order so that the region below ``f`` is
    finite; plain lex is rejected.  The origin is a candidate when ``f`` is
    a gap of S, but keeping it keeps every candidate, which is S itself and
    already the up-set of all nonzero candidates.
    """
    f = tuple(f)
    if not order.degree_compatible:
        raise NotDegreeCompatible(
            "the region below f is only finite for degree-compatible orders"
        )
    if len(f) != S.dim or not any(f) or min(f) < 0 or not S.cone.contains(f):
        raise ValueError(f"{f} is not a nonzero cone point")
    if S.gaps:
        fb = order.max(S.gaps)
        if order.compare(f, fb) == LT:
            return FrobeniusFiber(f, frozenset(), ())

    below = [
        x
        for g in range(sum(f) + 1)
        for x in S.cone.graded_points(g)
        if order.compare(x, f) == LT
    ]
    in_s = [x for x in below if S.contains(x)]
    candidates = frozenset(
        x for x in in_s if not (min(d := vsub(f, x)) >= 0 and S.contains(d))
    )
    region = set(below) | {f}
    origin = zero(S.dim)
    # the minimal elements of {x ∈ S : x > f} are y + n, y ∈ S up to f and
    # n a minimal generator of S
    not_above = in_s + [f] if S.contains(f) else in_s
    steps = {vadd(y, n) for y in not_above for n in S.minimal_generators()}
    above_f = minimal_elements(S, {x for x in steps if order.compare(x, f) == GT})
    results = [
        IdealSemigroup(S, region - U - {origin}, minimal_elements(S, U | above_f))
        for U in _up_sets(S, candidates - {origin})
    ]
    results.sort(key=_result_key)
    return FrobeniusFiber(f, candidates, tuple(results))


def with_multiplicities(
    S: GapSemigroup, M, *, verify_multiplicities=False
) -> tuple[IdealSemigroup, ...]:
    """All ideal-derived semigroups of S with the given per-ray elements M.

    Every element of S outside the finite pool B (the nonzero Apery core of
    M) lies in M + S, so each result is fixed by the up-set U of B its ideal
    keeps: it adds B − U to the gaps of S, and its ideal is generated by the
    minimal elements of M ∪ U.  With ``verify_multiplicities`` the results
    are post-filtered to those whose per-ray least elements equal M exactly;
    the others lost a multiplicity because the pool holds a ray point.
    """
    ctx = apery_context(S, M)
    ray_elements = frozenset(ctx.ray_elements)
    pool = ctx.core - {zero(S.dim)}
    results = [
        IdealSemigroup(S, S.gaps | (pool - U), minimal_elements(S, ray_elements | U))
        for U in _up_sets(S, pool)
    ]
    if verify_multiplicities:
        results = [T for T in results if frozenset(T.multiplicities()) == ray_elements]
    results.sort(key=_result_key)
    return tuple(results)
