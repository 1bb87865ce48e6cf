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

from .errors import BudgetExceeded, NotDegreeCompatible, SemigroupError
from .lattice import LT, MonomialOrder, Point, vsub, zero
from .semigroups import DEFAULT_BUDGET, GapSemigroup, apery_context
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


def _bit(mask: int) -> int:
    """The bit of the point whose divisor mask is ``mask``, its highest."""
    return 1 << (mask.bit_length() - 1)


def _generator_mask(S: GapSemigroup, g: Point) -> int:
    """D(g) for an ideal generator g of a parent.

    A point gets a mask only once it is known to be a nonzero element of S
    of S's dimension, so on the tree's own path this check is a lookup; a
    point that fails it raises :class:`SemigroupError` naming it.
    """
    mask = S._divisors[0].get(g)
    if mask is not None:
        return mask
    if len(g) != S.dim:
        raise SemigroupError(f"ideal generator {g} does not match dimension {S.dim}")
    ng = S._split(g)
    if ng is None:
        raise SemigroupError(f"ideal generator {g} lies outside the cone")
    if not any(g) or g in S.gaps:
        raise SemigroupError(f"ideal generator {g} is 0 or a gap of the base")
    return S._divisor_mask(g, ng)


def _remove(S: GapSemigroup, T: IdealSemigroup, x: Point) -> IdealSemigroup:
    """T less its ideal generator x, certified locally.

    x must be no gap of T and no other generator may divide it, which makes
    it minimal in the ideal P, so P ∖ {x} is an ideal; otherwise
    :class:`SemigroupError` names x.  The promoted x + n, n ∈ msg(S), that
    no other generator divides are incomparable with each other and with
    the kept generators, so the result's ``gens`` stays canonical.  A
    generator that is no nonzero element of S is refused by name.

    Divisibility is read on S's divisor masks
    (``GapSemigroup._divisor_mask``): with K the bits of the generators
    other than x, x is certified by D(x) & K == 0 and x + n is promoted
    when D(x + n) & K == 0.  The entries x + n come from x's up-row
    (``GapSemigroup._up_row``), built the first time any step removes x,
    so a step costs one ``&`` per n ∈ msg(S), whatever the number of
    generators or the depth.  The child carries its generators' bits and
    is built without a re-check (:meth:`IdealSemigroup._less`).
    """
    if x in T.gaps:
        raise SemigroupError(f"ideal generator {x} is a gap of the parent")
    masks, _, _, rows = S._divisors
    gens_mask = T._gens_mask if T.base is S else None
    if gens_mask is None:
        gens_mask = 0
        for g in T.gens:
            gens_mask |= _bit(_generator_mask(S, g))
    dx = masks.get(x) or _generator_mask(S, x)
    rest = gens_mask & ~_bit(dx)
    if dx & rest:
        g = next(g for g in T.gens - {x} if dx & _bit(masks[g]))
        raise SemigroupError(f"ideal generator {x} is divisible by {g}")
    promoted, child_mask = [], rest
    for y, dy, i in rows.get(x) or S._up_row(x):
        if not dy & rest:
            promoted.append(y)
            child_mask |= 1 << i
    gens = (T.gens - {x}).union(promoted)
    return IdealSemigroup._less(S, T, x, gens, child_mask)


def _removal_walk(
    S: GapSemigroup, T: IdealSemigroup, pool, budget: int
) -> list[IdealSemigroup]:
    """T and every semigroup reached from it by removing points of ``pool``.

    Each step removes a generator that comes after the walk's last removal
    in grade-then-lex order, a linear extension of ≤_S, so every set of
    pool points that can be removed is reached once, in increasing order.
    Raises :class:`BudgetExceeded` once more than ``budget`` semigroups
    have been emitted.
    """
    out, stack = [], [(T, ())]
    while stack:
        T, last = stack.pop()
        out.append(T)
        if len(out) > budget:
            raise BudgetExceeded(
                f"removal walk emitted more than {budget} semigroups "
                f"over a pool of {len(pool)} points"
            )
        for x in T.gens & pool:
            if (key := (sum(x), x)) > last:
                stack.append((_remove(S, T, x), key))
    return out


def _children(S: GapSemigroup, T: IdealSemigroup, order: MonomialOrder, threshold):
    """``(x, T less x)`` for the canonical generators x of T above
    ``threshold`` (all of them when it is None), in sorted order of x."""
    xs = sorted(T.gens)
    if threshold is not None:
        key, above = order.key, order.key(threshold)
        xs = [x for x in xs if key(x) > above]
    return [(x, _remove(S, T, x)) for x in xs]


def children(S: GapSemigroup, T: IdealSemigroup, order: MonomialOrder):
    """Child nodes of T in the genus tree of S.

    Exactly the certified removals (:func:`_remove`) of the canonical ideal
    generators exceeding ``big_o(S, T)``.  Each child costs O(|msg(S)|)
    divisor-mask reads; this function recomputes ``big_o``, which
    :func:`enumerate_tree` carries down instead.
    """
    return [child for _, child in _children(S, T, order, big_o(S, T, order))]


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
    genus ``genus(S) + k``.  The threshold of a node's children is the
    point it removed: a child removes an x beyond every point its parent
    lost, so x is its ``big_o``.  A node thus costs one certified removal
    step per child, O(|msg(S)|) divisor-mask reads, and no work that grows
    with its depth.
    """
    g0 = S.genus
    if max_genus < g0:
        raise ValueError(f"max_genus {max_genus} is below the root genus {g0}")
    root = IdealSemigroup(S, S.gaps, gens=S.minimal_generators())
    levels = [[TreeNode(root, None, g0)]]
    for genus in range(g0 + 1, max_genus + 1):
        levels.append([
            TreeNode(child, x, genus)
            for node in levels[-1]
            for x, child in _children(S, node.semigroup, order, node.removed)
        ])
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


def with_frobenius(
    S: GapSemigroup, f, order: MonomialOrder, budget=DEFAULT_BUDGET
) -> FrobeniusFiber:
    """All ideal-derived semigroups of S with Frobenius element ``f``.

    Requires a degree-compatible order so that the region below ``f`` is
    finite; plain lex is rejected.  Removal steps take S to the fiber's top,
    S less the nonzero divisors of ``f`` (``f`` among them when in S), and
    the removal walk over the nonzero candidates lists the fiber from there.
    Raises :class:`BudgetExceeded` when the scan lists more than ``budget``
    cone points below ``f``, before any removal, or when the fiber has
    more than ``budget`` semigroups.
    """
    f = tuple(f)
    if not order.degree_compatible:
        raise NotDegreeCompatible(
            "the region below f is only finite for degree-compatible orders"
        )
    if len(f) != S.dim or not any(f) or min(f) < 0 or S._split(f) is None:
        raise ValueError(f"{f} is not a nonzero cone point")
    if S.gaps:
        fb = order.max(S.gaps)
        if order.compare(f, fb) == LT:
            return FrobeniusFiber(f, frozenset(), ())

    below, key, kf = [], order.key, order.key(f)
    for g in range(sum(f) + 1):
        below += (x for x in S.cone.graded_points(g) if key(x) < kf)
        if len(below) > budget:
            raise BudgetExceeded(f"over {budget} cone points below {f} (grade {g})")
    in_s = [x for x in below if x not in S.gaps]
    f_in_s = f not in S.gaps
    # f − x is f itself for x = 0, else of lower grade than f, so listed in
    # ``below`` when it is a cone point: it is in S exactly when in ``elements``
    elements = set(in_s) | ({f} if f_in_s else set())
    candidates = frozenset(x for x in in_s if vsub(f, x) not in elements)
    pool = candidates - {zero(S.dim)}
    # each x in the pool gives its own result, the top less x's divisors
    if len(pool) >= budget:
        raise BudgetExceeded(f"{len(pool)} candidates give over {budget} semigroups")
    # the nonzero divisors of f in S form a down-set; ``in_s`` lists them in
    # increasing grade, and f, when in S, is the only one of its grade
    top = IdealSemigroup(S, S.gaps, gens=S.minimal_generators())
    for x in in_s:
        if any(x) and x not in candidates:
            top = _remove(S, top, x)
    if f_in_s:
        top = _remove(S, top, f)
    results = _removal_walk(S, top, pool, budget)
    results.sort(key=_result_key)
    return FrobeniusFiber(f, candidates, tuple(results))


def with_multiplicities(
    S: GapSemigroup, M, budget=DEFAULT_BUDGET, *, verify_multiplicities=False
) -> tuple[IdealSemigroup, ...]:
    """All ideal-derived semigroups of S with the given per-ray elements M.

    Every element of S outside the finite pool B (the nonzero Apery core of
    M) lies in M + S, and B is a down-set, so the results are the nodes of
    the removal walk over B.  With ``verify_multiplicities`` the results
    are post-filtered to those whose per-ray least elements equal M
    exactly; the others lost a multiplicity because the pool holds a ray
    point.  Raises :class:`BudgetExceeded` when the walk emits more than
    ``budget`` semigroups, counted before that filter.
    """
    ctx = apery_context(S, M)
    root = IdealSemigroup(S, S.gaps, gens=S.minimal_generators())
    results = _removal_walk(S, root, ctx.core - {zero(S.dim)}, budget)
    if verify_multiplicities:
        ray_elements = frozenset(ctx.ray_elements)
        results = [T for T in results if frozenset(T.multiplicities()) == ray_elements]
    results.sort(key=_result_key)
    return tuple(results)
