"""Enumeration of the ideal-derived semigroups of a fixed C-semigroup.

Each is S ∖ D for a finite down-set D of (S∖{0}, ≤_S), where x ≤_S y means
y − x ∈ S, and each is built from S by one certified step that removes a
minimal generator of the current ideal.  The genus tree removes, per
child, a canonical generator larger than the element that produced the
parent.  The fibers with a prescribed Frobenius element or prescribed
per-ray multiplicities walk a finite pool in grade-then-lex order (reverse
search, Avis and Fukuda 1996), so they cost time in proportion to their
results.  Results are emitted in a canonical order (genus, then sorted gap
set) so counts and golden files are stable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotDegreeCompatible, SemigroupError
from .lattice import GT, LT, MonomialOrder, Point, vadd, vsub, zero
from .semigroups import GapSemigroup, apery_context
from .ideals import IdealSemigroup


def _result_key(T: IdealSemigroup):
    return (T.genus, tuple(sorted(T.gaps)))


def big_o(S: GapSemigroup, T, order: MonomialOrder) -> Point | None:
    """Largest element of S missing from T, or None when nothing is missing.

    None acts as a bottom sentinel that precedes every lattice point, so at
    the tree root the child rule degenerates to "all canonical generators".
    """
    diff = T.gaps - S.gaps
    if not diff:
        return None
    return order.max(diff)


def _remove(S: GapSemigroup, T: IdealSemigroup, x: Point) -> IdealSemigroup:
    """T less its ideal generator x, certified locally.

    x must be no gap of T and no other generator may divide it, which makes
    it minimal in the ideal P, so P ∖ {x} is an ideal; otherwise
    :class:`SemigroupError` names x.  The promoted x + n, n ∈ msg(S), that
    no other generator divides are incomparable with each other and with
    the kept generators, so the result's ``gens`` stays canonical.
    """
    if x in T.gaps:
        raise SemigroupError(f"ideal generator {x} is a gap of the parent")
    rest = T.gens - {x}
    for g in rest:
        if S.contains(vsub(x, g)):
            raise SemigroupError(f"ideal generator {x} is divisible by {g}")
    steps = {vadd(x, n) for n in S.minimal_generators()}
    promoted = {y for y in steps if not any(S.contains(vsub(y, g)) for g in rest)}
    return IdealSemigroup(S, T.gaps | {x}, rest | promoted)


def _removal_walk(S: GapSemigroup, T: IdealSemigroup, pool) -> list[IdealSemigroup]:
    """T and every semigroup reached from it by removing points of ``pool``.

    Each step removes a generator that comes after the walk's last removal
    in grade-then-lex order, a linear extension of ≤_S, so every set of
    pool points that can be removed is reached once, in increasing order.
    """
    out, stack = [], [(T, ())]
    while stack:
        T, last = stack.pop()
        out.append(T)
        for x in T.gens & pool:
            if (key := (sum(x), x)) > last:
                stack.append((_remove(S, T, x), key))
    return out


def children(S: GapSemigroup, T: IdealSemigroup, order: MonomialOrder):
    """Child nodes of T in the genus tree of S.

    Exactly the certified removals (:func:`_remove`) of the canonical ideal
    generators exceeding ``big_o(S, T)``.
    """
    threshold = big_o(S, T, order)
    return [
        _remove(S, T, x)
        for x in sorted(T.gens)
        if threshold is None or order.compare(x, threshold) == GT
    ]


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
    genus ``genus(S) + k``.
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
    cannot reach it inside the base; a result loses the target's nonzero
    divisors and a down-set of the nonzero candidates.
    """

    f: Point
    candidates: frozenset[Point]
    results: tuple[IdealSemigroup, ...]


def with_frobenius(S: GapSemigroup, f, order: MonomialOrder) -> FrobeniusFiber:
    """All ideal-derived semigroups of S with Frobenius element ``f``.

    Requires a degree-compatible order so that the region below ``f`` is
    finite; plain lex is rejected.  Removal steps take S to the fiber's top,
    S less the nonzero divisors of ``f`` (``f`` among them when in S), and
    the removal walk over the nonzero candidates lists the fiber from there.
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
    # the nonzero divisors of f in S form a down-set; ``in_s`` lists them in
    # increasing grade, and f, when in S, is the only one of its grade
    top = IdealSemigroup(S, S.gaps, gens=S.minimal_generators())
    for x in in_s:
        if any(x) and x not in candidates:
            top = _remove(S, top, x)
    if S.contains(f):
        top = _remove(S, top, f)
    results = _removal_walk(S, top, candidates - {zero(S.dim)})
    results.sort(key=_result_key)
    return FrobeniusFiber(f, candidates, tuple(results))


def with_multiplicities(
    S: GapSemigroup, M, *, verify_multiplicities=False
) -> tuple[IdealSemigroup, ...]:
    """All ideal-derived semigroups of S with the given per-ray elements M.

    Every element of S outside the finite pool B (the nonzero Apery core of
    M) lies in M + S, and B is a down-set, so the results are the nodes of
    the removal walk over B.  With ``verify_multiplicities`` the results
    are post-filtered to those whose per-ray least elements equal M
    exactly; the others lost a multiplicity because the pool holds a ray
    point.
    """
    ctx = apery_context(S, M)
    root = IdealSemigroup(S, S.gaps, gens=S.minimal_generators())
    results = _removal_walk(S, root, ctx.core - {zero(S.dim)})
    if verify_multiplicities:
        ray_elements = frozenset(ctx.ray_elements)
        results = [T for T in results if frozenset(T.multiplicities()) == ray_elements]
    results.sort(key=_result_key)
    return tuple(results)
