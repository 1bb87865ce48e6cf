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

A node of the walk is bare data (:func:`_walk`): its depth, the point it
removed, its ideal generators as a sorted tuple with their bits in S's
divisor masks, and its gaps as a sorted tuple, made from the parent's by
one insertion, or None when the caller writes no gaps.  The command line
encodes the nodes as they come; ``enumerate_tree``, ``children`` and the
fibers build an :class:`.IdealSemigroup` only for each node they return.
The fibers' checks, top, pool and multiplicity filter are helpers
(:func:`_frobenius_start`, :func:`_multiplicity_start`) that both share.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass

from .errors import BudgetExceeded, NotDegreeCompatible, SemigroupError
from .lattice import LT, MonomialOrder, Point, scale, vsub, zero
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


def _step(S: GapSemigroup, lost, gens, bits, x: Point):
    """The certified removal of the ideal generator x from a node of a walk
    whose root lost ``lost``: the points it promotes, and the child's bits.

    x must be no gap of the root and no other generator may divide it,
    which makes it minimal in the ideal P, so P ∖ {x} is an ideal;
    otherwise :class:`SemigroupError` names x.  The promoted x + n,
    n ∈ msg(S), that no other generator divides are incomparable with each
    other and with the kept generators, so the child's generators stay
    canonical.  A generator that is no nonzero element of S is refused by
    name.

    Divisibility is read on S's divisor masks
    (``GapSemigroup._divisor_mask``): with K the bits of the generators
    ``gens`` other than x, x is certified by D(x) & K == 0 and x + n is
    promoted when D(x + n) & K == 0.  The entries x + n come from x's
    up-row (``GapSemigroup._up_row``), built the first time any step
    removes x, so a step costs one ``&`` per n ∈ msg(S), whatever the
    number of generators or the depth.  ``bits`` are the bits of ``gens``;
    at the root they are None and each step reads them from ``gens``.
    """
    if x in lost:
        raise SemigroupError(f"ideal generator {x} is a gap of the parent")
    masks, _, _, rows = S._divisors
    if bits is None:
        bits = 0
        for g in gens:
            bits |= _bit(_generator_mask(S, g))
    dx = masks.get(x) or _generator_mask(S, x)
    rest = bits & ~_bit(dx)
    if dx & rest:
        g = next(g for g in frozenset(gens) - {x} if dx & _bit(masks[g]))
        raise SemigroupError(f"ideal generator {x} is divisible by {g}")
    promoted, child = [], rest
    for y, dy, i in rows.get(x) or S._up_row(x):
        if not dy & rest:
            promoted.append(y)
            child |= 1 << i
    return promoted, child


def _walk(
    S: GapSemigroup,
    T: IdealSemigroup,
    key,
    budget,
    pool=None,
    depth=None,
    removed=None,
    gaps=True,
):
    """The nodes ``(k, x, gens, bits, gaps)`` of T and of every semigroup U
    reached from it by k certified removal steps (:func:`_step`), depth
    first: x is the point U's last step removed (``removed`` for T),
    ``gens`` U's ideal generators as a sorted tuple, ``bits`` their bits in
    S's divisor masks (None for T) and ``gaps`` U's gaps as a sorted tuple,
    or None throughout when ``gaps`` is false.  U is no object: its genus
    is T's plus k, and :func:`_semigroup` builds it.

    A node that removed x has as children the removals of its generators
    that follow x under ``key`` (every generator when x is None),
    restricted to ``pool`` when one is given, in ascending tuple order.
    With a key that extends ≤_S, every removable set of points is reached
    once, in increasing key order, and the nodes of one depth come out in
    the lexicographic order of their removal sequences: the breadth-first
    order of that level, and in tuple order the fibers' canonical order
    (module docstring).  A removed point never returns as a generator, so
    a step reads the gaps of T alone.  Nodes at ``depth`` get no children.
    Only the open siblings on the path to the current node are held.
    Raises :class:`BudgetExceeded` once more than ``budget`` nodes are
    emitted.
    """
    lost = T.gaps
    hs = tuple(sorted(lost)) if gaps else None
    # each point's key, computed once per walk
    keys = {} if removed is None else {removed: key(removed)}
    stack, emitted = [(0, removed, tuple(sorted(T.gens)), None, hs)], 0
    while stack:
        node = stack.pop()
        emitted += 1
        if emitted > budget:
            raise BudgetExceeded(
                f"removal walk emitted more than {budget} semigroups"
                + ("" if pool is None else f" over a pool of {len(pool)} points"),
                limit=budget,
                count=emitted,
                unit="semigroups",
            )
        yield node
        k, x, gens, bits, hs = node
        if k == depth:
            continue
        above = None if x is None else keys[x]
        kids = []
        for j, y in enumerate(gens):
            if pool is not None and y not in pool:
                continue
            ky = keys.get(y)
            if ky is None:
                ky = keys[y] = key(y)
            if above is not None and ky <= above:
                continue
            promoted, child = _step(S, lost, T.gens if bits is None else gens, bits, y)
            # the kept generators are one sorted run, so the sort merges
            promoted += gens[:j]
            promoted += gens[j + 1 :]
            promoted.sort()
            hy = hs
            if hs is not None:
                i = bisect(hs, y)
                hy = hs[:i] + (y,) + hs[i:]
            kids.append((k + 1, y, tuple(promoted), child, hy))
        stack.extend(reversed(kids))  # popped in ascending order of y


def _semigroup(base: GapSemigroup, node) -> IdealSemigroup:
    """The semigroup of a walk's node (:func:`_walk`) over ``base``."""
    return IdealSemigroup(base, node[4], gens=node[2])


def _levels(walk, node) -> list[list]:
    """Level k lists ``node(n)`` for the nodes n of depth k of a walk
    (:func:`_walk`), in the order the walk emits them; a depth with no
    node, as a filtered walk may leave, gives an empty level."""
    levels = []
    for n in walk:
        k = n[0]
        while k >= len(levels):
            levels.append([])
        levels[k].append(node(n))
    return levels


def _fiber(
    S: GapSemigroup, T: IdealSemigroup, pool, budget, node, gaps=True, keep=None
):
    """``node(n)`` for T and every node n reached from it by removing
    points of ``pool`` in tuple order (:func:`_walk`), by genus, then
    sorted gaps (module docstring).  With ``keep``, only the nodes whose
    generators it keeps are listed, but the budget counts every node."""
    walk = _walk(S, T, _tuple_order, budget, pool, gaps=gaps)
    if keep is not None:
        walk = (n for n in walk if keep(n[2]))
    return [v for level in _levels(walk, node) for v in level]


def _tuple_order(x: Point) -> Point:
    """The fibers' walk key: tuple order, which extends ≤_S."""
    return x


def _removal_walk(
    S: GapSemigroup, T: IdealSemigroup, pool, budget: int
) -> list[IdealSemigroup]:
    """T and every semigroup reached from it by removing points of ``pool``
    in tuple order, by genus, then sorted gaps (:func:`_fiber`)."""
    return _fiber(S, T, pool, budget, lambda n: _semigroup(T.base, n))


def children(S: GapSemigroup, T: IdealSemigroup, order: MonomialOrder):
    """Child nodes of T in the genus tree of S.

    Exactly the certified removals (:func:`_step`) of the canonical ideal
    generators exceeding ``big_o(S, T)``, in sorted order: the first step
    of the tree's walk from T, built over T's base.  Each child costs
    O(|msg(S)|) divisor-mask reads; this function recomputes ``big_o``,
    which the walk carries down instead.
    """
    # at most one node per generator besides T, so the budget never binds
    walk = _walk(S, T, order.key, len(T.gens) + 1, depth=1, removed=big_o(S, T, order))
    return [_semigroup(T.base, n) for n in walk if n[0]]


@dataclass(frozen=True)
class TreeNode:
    """Genus-tree vertex: the semigroup plus the element removed from its parent."""

    semigroup: IdealSemigroup
    removed: Point | None
    genus: int


def _tree(
    S: GapSemigroup, max_genus: int, order: MonomialOrder, budget: int, gaps=True
):
    """The number of levels of S's genus tree up to ``max_genus``, and the
    walk (:func:`_walk`) that lists its nodes, with their gaps when
    ``gaps``."""
    levels = max_genus - S.genus + 1
    if levels < 1:
        raise ValueError(f"max_genus {max_genus} is below the root genus {S.genus}")
    root = IdealSemigroup(S, S.gaps, gens=S.minimal_generators())
    return levels, _walk(S, root, order.key, budget, depth=levels - 1, gaps=gaps)


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
    return _levels(walk, lambda n: TreeNode(_semigroup(S, n), n[1], S.genus + n[0]))


def tree_counts(
    S: GapSemigroup, max_genus: int, order: MonomialOrder, budget=DEFAULT_BUDGET
) -> list[int]:
    """The sizes of :func:`enumerate_tree`'s levels, counted as the walk
    streams, so only the open siblings on the path are held, and no node
    carries its gaps."""
    n, walk = _tree(S, max_genus, order, budget, gaps=False)
    counts = [0] * n
    for node in walk:
        counts[node[0]] += 1
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


def _frobenius_start(S: GapSemigroup, f: Point, order: MonomialOrder, budget):
    """The checks, candidates, top and pool of :func:`with_frobenius`:
    ``(candidates, top, pool)``, with no top (and no candidates) when a
    gap of S follows f, so that the fiber is empty."""
    if not order.degree_compatible:
        raise NotDegreeCompatible(
            "the region below f is only finite for degree-compatible orders"
        )
    if len(f) != S.dim or not any(f) or min(f) < 0 or S._split(f) is None:
        raise ValueError(f"{f} is not a nonzero cone point")
    if S.gaps:
        fb = order.max(S.gaps)
        if order.compare(f, fb) == LT:
            return frozenset(), None, None

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
    return candidates, top, pool


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
    candidates, top, pool = _frobenius_start(S, f, order, budget)
    if top is None:
        return FrobeniusFiber(f, candidates, ())
    # the walk lists the results in the canonical order
    return FrobeniusFiber(f, candidates, tuple(_removal_walk(S, top, pool, budget)))


def _multiplicity_start(S: GapSemigroup, M):
    """The root and pool of :func:`with_multiplicities`, and the test of its
    ``verify_multiplicities`` filter on a result's ideal generators.

    A result keeps M, which lies outside the pool.  Its least element on
    a ray is one of its ideal generators, since a sum on an extremal ray
    has both terms on it, so its per-ray least elements are M exactly when
    no generator lies on a ray below M's element there.
    """
    ctx = apery_context(S, M)
    root = IdealSemigroup(S, S.gaps, gens=S.minimal_generators())
    below = {
        scale(j, d)
        for d, m in zip(S.cone.rays, ctx.ray_elements)
        for j in range(1, sum(m) // sum(d))
    }
    return root, ctx.core - {zero(S.dim)}, below.isdisjoint


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
    root, pool, keeps = _multiplicity_start(S, M)
    keep = keeps if verify_multiplicities else None
    # the walk lists the results in the canonical order, and the filter keeps it
    return tuple(_fiber(S, root, pool, budget, lambda n: _semigroup(S, n), keep=keep))
