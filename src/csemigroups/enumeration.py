"""Enumeration of the ideal-derived semigroups of a fixed C-semigroup.

Each is S ∖ D for a finite down-set D of (S∖{0}, ≤_S), where x ≤_S y means
y − x ∈ S, and each is built from a parent by one certified step that
removes a minimal generator of the current ideal.  One depth-first removal
walk (reverse search, Avis and Fukuda 1996) lists the genus tree and both
fibers: a node's children remove its generators that follow the point it
removed, under the semigroup's monomial order for the tree and in tuple
order over a finite pool for the fibers.  The walk charges every node to a
budget.  Grouped by depth (:func:`_levels`), its nodes are the tree's
levels, which ``tree_counts`` counts as they stream (Fromentin and Hivert
2016 walk the tree of numerical semigroups this way), and the fibers'
results in the canonical order, genus then sorted gaps, with no sort:
tuple order extends ≤_S (y − x ∈ ℕ^p), so depth is genus, and the least
point of A △ B decides sorted(A ∪ C) against sorted(B ∪ C).  The fibers
cost time in proportion to their results: the multiplicity fiber starts
at S, and the Frobenius fiber at S less the divisors of its target, which
one walk over those divisors builds (:meth:`.IdealSemigroup._from_lost`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceeded, NotDegreeCompatible, SemigroupError
from .lattice import LT, MonomialOrder, Point, vsub, zero
from .semigroups import DEFAULT_BUDGET, GapSemigroup, apery_context
from .ideals import IdealSemigroup


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


def _walk(
    S: GapSemigroup, T: IdealSemigroup, key, budget, pool=None, depth=None, removed=None
):
    """``(k, x, U)`` for T and every semigroup U reached from it by k
    certified removal steps, depth first; x is the point U's last step
    removed (``removed`` for T).

    A node that removed x has as children the removals of its generators
    that follow x under ``key`` (every generator when x is None),
    restricted to ``pool`` when one is given, in ascending tuple order.
    With a key that extends ≤_S, every removable set of points is reached
    once, in increasing key order, and the nodes of one depth come out in
    the lexicographic order of their removal sequences: the breadth-first
    order of that level, and in tuple order the fibers' canonical order
    (module docstring).  Nodes at ``depth`` get no children.  Only the
    open siblings on the path to the current node are held.  Raises
    :class:`BudgetExceeded` once more than ``budget`` nodes are emitted.
    """
    above = None if removed is None else key(removed)
    stack, emitted = [(0, removed, above, T)], 0
    while stack:
        k, x, above, U = stack.pop()
        emitted += 1
        if emitted > budget:
            raise BudgetExceeded(
                f"removal walk emitted more than {budget} semigroups"
                + ("" if pool is None else f" over a pool of {len(pool)} points"),
                limit=budget,
                count=emitted,
                unit="semigroups",
            )
        yield k, x, U
        if k == depth:
            continue
        kids = []
        for y in sorted(U.gens if pool is None else U.gens & pool):
            ky = key(y)
            if above is None or ky > above:
                kids.append((k + 1, y, ky, _remove(S, U, y)))
        stack.extend(reversed(kids))  # popped in ascending order of y


def _levels(walk, node) -> list[list]:
    """Level k lists ``node(x, U)`` for the nodes U of depth k of a walk
    (:func:`_walk`), which removed x, in the order the walk emits them."""
    levels = []
    for k, x, U in walk:
        if k == len(levels):
            levels.append([])
        levels[k].append(node(x, U))
    return levels


def _removal_walk(
    S: GapSemigroup, T: IdealSemigroup, pool, budget: int
) -> list[IdealSemigroup]:
    """T and every semigroup reached from it by removing points of ``pool``
    in tuple order (:func:`_walk`), by genus, then sorted gaps (module docstring)."""
    levels = _levels(_walk(S, T, lambda x: x, budget, pool), lambda x, U: U)
    return [U for level in levels for U in level]


def children(S: GapSemigroup, T: IdealSemigroup, order: MonomialOrder):
    """Child nodes of T in the genus tree of S.

    Exactly the certified removals (:func:`_remove`) of the canonical ideal
    generators exceeding ``big_o(S, T)``, in sorted order: the first step
    of the tree's walk from T.  Each child costs O(|msg(S)|) divisor-mask
    reads; this function recomputes ``big_o``, which the walk carries down
    instead.
    """
    # at most one node per generator besides T, so the budget never binds
    walk = _walk(S, T, order.key, len(T.gens) + 1, depth=1, removed=big_o(S, T, order))
    return [U for k, _, U in walk if k]


@dataclass(frozen=True)
class TreeNode:
    """Genus-tree vertex: the semigroup plus the element removed from its parent."""

    semigroup: IdealSemigroup
    removed: Point | None
    genus: int


def _tree(S: GapSemigroup, max_genus: int, order: MonomialOrder, budget: int):
    """The number of levels of S's genus tree up to ``max_genus``, and the
    walk (:func:`_walk`) that lists its nodes."""
    levels = max_genus - S.genus + 1
    if levels < 1:
        raise ValueError(f"max_genus {max_genus} is below the root genus {S.genus}")
    root = IdealSemigroup(S, S.gaps, gens=S.minimal_generators())
    return levels, _walk(S, root, order.key, budget, depth=levels - 1)


def enumerate_tree(
    S: GapSemigroup, max_genus: int, order: MonomialOrder, budget=DEFAULT_BUDGET
) -> list[list[TreeNode]]:
    """All ideal-derived semigroups of S with genus at most ``max_genus``.

    Returns breadth-first levels; level k holds exactly the semigroups of
    genus ``genus(S) + k``, grouped from the depth-first walk.  The
    threshold of a node's children is the point it removed: a child
    removes an x beyond every point its parent lost, so x is its
    ``big_o``.  A node thus costs one certified removal step, O(|msg(S)|)
    divisor-mask reads, and no work that grows with its depth.  Raises
    :class:`BudgetExceeded` when the tree has more than ``budget`` nodes.
    """
    _, walk = _tree(S, max_genus, order, budget)
    return _levels(walk, lambda x, T: TreeNode(T, x, T.genus))


def tree_counts(
    S: GapSemigroup, max_genus: int, order: MonomialOrder, budget=DEFAULT_BUDGET
) -> list[int]:
    """The sizes of :func:`enumerate_tree`'s levels, counted as the walk
    streams, so only the open siblings on the path are held."""
    n, walk = _tree(S, max_genus, order, budget)
    counts = [0] * n
    for k, _, _ in walk:
        counts[k] += 1
    return counts


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
    finite; plain lex is rejected.  The fiber's top, S less the nonzero
    divisors of ``f`` (``f`` among them when in S), is built in one walk
    over those divisors (:meth:`IdealSemigroup._from_lost`), and the removal
    walk over the nonzero candidates lists the fiber from there, one
    certified removal step per further result.
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
            raise BudgetExceeded(
                f"over {budget} cone points below {f} (grade {g})",
                limit=budget,
                count=len(below),
                unit="cone points below f",
            )
    in_s = [x for x in below if x not in S.gaps]
    f_in_s = f not in S.gaps
    # f − x is f itself for x = 0, else of lower grade than f, so listed in
    # ``below`` when it is a cone point: it is in S exactly when in ``elements``
    elements = set(in_s) | ({f} if f_in_s else set())
    candidates = frozenset(x for x in in_s if vsub(f, x) not in elements)
    pool = candidates - {zero(S.dim)}
    # each x in the pool gives its own result, the top less x's divisors
    if len(pool) >= budget:
        raise BudgetExceeded(
            f"{len(pool)} candidates give over {budget} semigroups",
            limit=budget,
            count=len(pool) + 1,
            unit="semigroups",
        )
    # the top loses the nonzero divisors of f in S, a down-set: the points
    # of ``in_s`` that are no candidates, and f when in S
    lost = elements.difference(candidates)
    top = IdealSemigroup._from_lost(S, lost.__contains__, budget)
    # the walk lists the results in the canonical order
    return FrobeniusFiber(f, candidates, tuple(_removal_walk(S, top, pool, budget)))


def with_multiplicities(
    S: GapSemigroup, M, budget=DEFAULT_BUDGET, *, verify_multiplicities=False
) -> tuple[IdealSemigroup, ...]:
    """All ideal-derived semigroups of S with the given per-ray elements M.

    The pool B is the finite down-set that the ideal M + S loses, the
    nonzero Apery core of M.  A result keeps M, so keeps M + S, and the
    results are the nodes of the removal walk over B.  With
    ``verify_multiplicities`` the results are post-filtered to those whose
    per-ray least elements equal M exactly; the others lost a multiplicity
    because the pool holds a ray point.  Raises :class:`BudgetExceeded`
    when the walk emits more than ``budget`` semigroups, before the filter.
    """
    ctx = apery_context(S, M)
    root = IdealSemigroup(S, S.gaps, gens=S.minimal_generators())
    results = _removal_walk(S, root, ctx.core - {zero(S.dim)}, budget)
    if verify_multiplicities:
        ray_elements = frozenset(ctx.ray_elements)
        results = [T for T in results if frozenset(T.multiplicities()) == ray_elements]
    # the walk lists the results in the canonical order, and the filter keeps it
    return tuple(results)
