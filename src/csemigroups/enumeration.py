"""Enumeration of the ideal-derived semigroups of a fixed C-semigroup.

Three engines are provided: a breadth-first walk of the genus tree (each
node is obtained from its parent by removing one canonical ideal generator
larger than the element that produced the parent), the fiber of semigroups
sharing a prescribed Frobenius element, and the fiber sharing prescribed
per-ray multiplicities.  Results are emitted in a canonical order (genus,
then sorted gap set) so counts and golden files are stable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotDegreeCompatible, SemigroupError
from .lattice import GT, LT, MonomialOrder, Point, vadd, vsub, zero
from .semigroups import GapSemigroup, apery_context
from .ideals import Ideal, IdealSemigroup, minimal_elements, verify_isemigroup


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


def _msg_after_removal(parent: IdealSemigroup, x: Point, child_gaps) -> frozenset[Point]:
    """Minimal generating set of parent minus {x}, for x a minimal generator.

    Removing one generator can only promote translates of x by generators
    (or drop x itself), so the candidate pool below is complete; candidates
    are then reduced by greedy subtraction in increasing grade.
    """
    parent_msg = parent.minimal_generators()
    cone = parent.cone
    candidates = {m for m in parent_msg if m != x}
    candidates.update(vadd(x, m) for m in parent_msg)
    # every decomposition of a promoted generator splits off x itself, which
    # forces the shapes x + (old generator), 2x, or 3x; nothing else
    candidates.add(vadd(x, vadd(x, x)))

    def member(y):
        return min(y) >= 0 and any(y) and y not in child_gaps and cone.contains(y)

    accepted: list[Point] = []
    for c in sorted(candidates, key=lambda p: (sum(p), p)):
        if not member(c):
            continue
        for m in accepted:
            if member(vsub(c, m)):
                break
        else:
            accepted.append(c)
    return frozenset(accepted)


def children(S: GapSemigroup, T: IdealSemigroup, order: MonomialOrder, *, verify=True):
    """Child nodes of T in the genus tree of S.

    Exactly the removals of a canonical ideal generator exceeding
    ``big_o(S, T)``; each child is re-verified unless ``verify`` is False.
    """
    threshold = big_o(S, T, order)
    out = []
    for x in sorted(T.gens):
        if threshold is not None and order.compare(x, threshold) != GT:
            continue
        child_gaps = T.gaps | {x}
        child_msg = _msg_after_removal(T, x, child_gaps)
        child = IdealSemigroup(S, child_gaps, msg=child_msg)
        if verify and not verify_isemigroup(S, child):
            raise SemigroupError(f"removal of {x} produced an invalid ideal")
        out.append(child)
    return out


@dataclass(frozen=True)
class TreeNode:
    """Genus-tree vertex: the semigroup plus the element removed from its parent."""

    semigroup: IdealSemigroup
    removed: Point | None
    genus: int


def enumerate_tree(
    S: GapSemigroup, max_genus: int, order: MonomialOrder, *, verify=True
) -> list[list[TreeNode]]:
    """All ideal-derived semigroups of S with genus at most ``max_genus``.

    Returns breadth-first levels; level k holds exactly the semigroups of
    genus ``genus(S) + k``.
    """
    g0 = S.genus
    if max_genus < g0:
        raise ValueError(f"max_genus {max_genus} is below the root genus {g0}")
    root = IdealSemigroup(S, S.gaps, msg=S.minimal_generators())
    levels = [[TreeNode(root, None, g0)]]
    for genus in range(g0 + 1, max_genus + 1):
        level = []
        for node in levels[-1]:
            for child in children(S, node.semigroup, order, verify=verify):
                (removed,) = child.gaps - node.semigroup.gaps
                level.append(TreeNode(child, removed, genus))
        levels.append(level)
    return levels


@dataclass(frozen=True)
class FrobeniusFiber:
    """Fiber of semigroups whose largest gap is the prescribed element.

    ``candidates`` holds the elements of the base below the target that
    cannot reach it inside the base; results are exactly the closure-closed
    subsets of the candidates, completed with everything above the target.
    """

    f: Point
    candidates: frozenset[Point]
    results: tuple[IdealSemigroup, ...]


def with_frobenius(S: GapSemigroup, f, order: MonomialOrder) -> FrobeniusFiber:
    """All ideal-derived semigroups of S with Frobenius element ``f``.

    Requires a degree-compatible order so that the region below ``f`` is
    finite; plain lex is rejected.
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
    nonzero_in_s = [x for x in in_s if any(x)]
    candidates = [
        x for x in in_s if not (min(d := vsub(f, x)) >= 0 and S.contains(d))
    ]
    region = set(below) | {f}
    origin = zero(S.dim)

    results = []
    for mask in range(1 << len(candidates)):
        chosen = frozenset(
            candidates[i] for i in range(len(candidates)) if mask >> i & 1
        )
        closed = all(
            vadd(x, s) in chosen
            for x in chosen
            for s in nonzero_in_s
            if order.compare(vadd(x, s), f) == LT
        )
        if not closed:
            continue
        results.append(IdealSemigroup(S, region - chosen - {origin}))
    results.sort(key=_result_key)
    return FrobeniusFiber(f, frozenset(candidates), tuple(results))


def with_multiplicities(
    S: GapSemigroup, M, *, verify_multiplicities=False
) -> tuple[IdealSemigroup, ...]:
    """All ideal-derived semigroups of S with the given per-ray elements M.

    Scans every subset of the finite pool B (base elements missing from the
    smallest such semigroup), deduplicating by the canonical ideal
    generating set.  With ``verify_multiplicities`` the results are
    post-filtered to those whose per-ray least elements equal M exactly;
    the raw scan can produce semigroups whose multiplicity drops below M
    when the pool itself contains a ray point.
    """
    ctx = apery_context(S, M)
    ray_elements = ctx.ray_elements
    pool = sorted(ctx.core - {zero(S.dim)})

    by_gens: dict[frozenset, None] = {}
    for mask in range(1 << len(pool)):
        chosen = [pool[i] for i in range(len(pool)) if mask >> i & 1]
        gens = minimal_elements(S, frozenset(ray_elements) | frozenset(chosen))
        by_gens.setdefault(gens, None)

    results = []
    for gens in by_gens:
        P = Ideal(S, gens)
        lost = {b for b in pool if not P.contains(b)}
        results.append(IdealSemigroup(S, S.gaps | lost, gens))
    if verify_multiplicities:
        target = frozenset(ray_elements)
        results = [T for T in results if frozenset(T.multiplicities()) == target]
    results.sort(key=_result_key)
    return tuple(results)
