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
point of A △ B decides sorted(A ∪ C) against sorted(B ∪ C).  Each fiber
is one walk from one start, S less a down-set (its target's divisors, or
the ray points below M when verified) read with its generators from one
walk's listing (:meth:`.IdealSemigroup._from_lost`), so it costs time per result.

A node of the walk is bare data (:func:`_walk`): its depth, the point it
removed, its ideal generators as a sorted tuple with their bits in the
walk's divisor masks, and its gaps as a sorted tuple, made from the
parent's by one insertion, or None when the caller writes no gaps.  Each
walk makes its own masks (:class:`_Masks`), of no point its start lost,
and drops them when it ends, so the base S holds nothing a walk wrote.
The command line encodes the nodes as they come; ``enumerate_tree``,
``children`` and the fibers build an :class:`.IdealSemigroup`, unchecked,
only for each node they return.  The fibers' checks, starts and pools
are helpers (:func:`_frobenius_start`, :func:`_multiplicity_start`).
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from itertools import count

from .errors import BudgetExceeded, NotDegreeCompatible, SemigroupError
from .lattice import LT, MonomialOrder, Point, scale, vadd, vsub, zero
from .semigroups import DEFAULT_BUDGET, GapSemigroup, _down_set, apery_context
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


class _Masks:
    """The divisor masks of one removal walk over the base S from a start
    that lost ``lost`` (S's gaps when None), made for that walk and dropped
    with it: S itself keeps nothing.

    ``masks`` maps each point y of S∖{0} the walk met to D(y), the bitmask
    of the z in S∖{0} with y − z ∈ S that the start kept; ``coords`` holds
    those points' cone coordinates, and ``rows`` the up-rows (:meth:`row`)
    of the points a step removed.  Every point is read in the cone
    coordinates that S's generated form split msg(S) into, and msg(S) is
    not split again, nor are the start's generators that ``coords`` gives.

    What the start lost beyond S's gaps is a down-set L of S∖{0}, so the
    masks stay exact off L: a chain of msg(S) steps from y ∉ L down to a
    divisor z ∉ L lies above z, so outside L, and no lost point is again
    a generator whose bit a step tests.
    """

    def __init__(self, S: GapSemigroup, lost=None, coords=()):
        G = S.as_generated()
        self.msg = tuple(zip(G.generators, G._gen_nums))
        self.dim, self.gaps, self.split = S.dim, S.gaps, G._numerators
        self.lost = S.gaps if lost is None else lost
        self.masks, self.coords, self.rows = {}, dict(coords) | dict(self.msg), {}

    @staticmethod
    def bit(mask: int) -> int:
        """The bit of the point whose divisor mask is ``mask``, its highest."""
        return 1 << (mask.bit_length() - 1)

    def mask(self, y: Point, ny: Point) -> int:
        """D(y) for a nonzero point y of S with cone coordinates ``ny``.

        D(y) is y's own bit together with D(y − n) for each n ∈ msg(S)
        with y − n ∈ S∖{0} not lost, read on cone coordinates: N(y − n) =
        N(y) − N(n) ≥ 0, so no point is split.  A mask is built on first
        demand after those of its terms, and only then is y's bit drawn,
        the next unused one, so it is the highest bit of D(y).
        """
        masks, coords, lost = self.masks, self.coords, self.lost
        stack = [(y, ny)]
        while stack:
            z, nz = stack[-1]
            if z in masks:
                stack.pop()
                continue
            mask, ready = 0, True
            for n, nn in self.msg:
                nw = vsub(nz, nn)
                if min(nw) < 0 or not any(nw) or (w := vsub(z, n)) in lost:
                    continue
                if (dw := masks.get(w)) is None:
                    stack.append((w, nw))
                    ready = False
                else:
                    mask |= dw
            if ready:
                coords[z] = nz
                masks[z] = mask | 1 << len(masks)
                stack.pop()
        return masks[y]

    def generator(self, g: Point) -> int:
        """D(g) for an ideal generator g of a parent.

        A point gets a mask only once it is known to be a nonzero element of
        S of S's dimension, so on the walk's own path this check is a
        lookup; a point that fails it raises :class:`SemigroupError` naming
        it.
        """
        mask = self.masks.get(g)
        if mask is not None:
            return mask
        if len(g) != self.dim:
            raise SemigroupError(
                f"ideal generator {g} does not match dimension {self.dim}"
            )
        ng = self.coords.get(g) or self.split(g)
        if ng is None:
            raise SemigroupError(f"ideal generator {g} lies outside the cone")
        if not any(g) or g in self.gaps:
            raise SemigroupError(f"ideal generator {g} is 0 or a gap of the base")
        return self.mask(g, ng)

    def row(self, x: Point) -> tuple[tuple[Point, int, int], ...]:
        """R(x), for a masked point x: one entry (x + n, D(x + n), the
        index of x + n's bit) per n ∈ msg(S), in msg order, built once.
        x + n gets its cone coordinates as the sum N(x) + N(n), so no point
        is split.  The row holds the bit's index, not the bit: a point's
        bit is as wide as its mask, and a point lies in up to |msg(S)|
        rows."""
        row = self.rows.get(x)
        if row is None:
            nx, masks, entries = self.coords[x], self.masks, []
            for n, nn in self.msg:
                y = vadd(x, n)
                dy = masks.get(y) or self.mask(y, vadd(nx, nn))
                entries.append((y, dy, dy.bit_length() - 1))
            row = self.rows[x] = tuple(entries)
        return row


def _step(M: _Masks, lost, gens, bits, x: Point):
    """The certified removal of the ideal generator x from a node of a walk
    whose root lost ``lost``: the points it promotes, and the child's bits.

    x must be no gap of the root and no other generator may divide it,
    which makes it minimal in the ideal P, so P ∖ {x} is an ideal;
    otherwise :class:`SemigroupError` names x.  The promoted x + n,
    n ∈ msg(S), that no other generator divides are incomparable with each
    other and with the kept generators, so the child's generators stay
    canonical.  A generator that is no nonzero element of S is refused by
    name.

    Divisibility is read on the walk's divisor masks ``M``
    (:meth:`_Masks.mask`): with K the bits of the generators ``gens``
    other than x, x is certified by D(x) & K == 0 and x + n is promoted
    when D(x + n) & K == 0.  The entries x + n come from x's up-row
    (:meth:`_Masks.row`), built the first time the walk removes x, so a
    step costs one ``&`` per n ∈ msg(S), whatever the number of generators
    or the depth.  ``bits`` are the bits of ``gens``; at the root they are
    None and each step reads them from ``gens``.
    """
    if x in lost:
        raise SemigroupError(f"ideal generator {x} is a gap of the parent")
    masks, bit = M.masks, M.bit
    if bits is None:
        bits = 0
        for g in gens:
            bits |= bit(M.generator(g))
    dx = masks.get(x) or M.generator(x)
    rest = bits & ~bit(dx)
    if dx & rest:
        g = next(g for g in frozenset(gens) - {x} if dx & bit(masks[g]))
        raise SemigroupError(f"ideal generator {x} is divisible by {g}")
    promoted, child = [], rest
    for y, dy, i in M.rows.get(x) or M.row(x):
        if not dy & rest:
            promoted.append(y)
            child |= 1 << i
    return promoted, child


def _walk(
    M: _Masks,
    T: IdealSemigroup,
    key,
    budget,
    pool=None,
    depth=None,
    removed=None,
    gaps=True,
):
    """The nodes ``(k, x, gens, bits, gaps)`` of T and of every semigroup U
    reached from it by k certified removal steps (:func:`_step`) on the
    divisor masks ``M`` of the base S, made for this walk alone, depth
    first: x is the point U's last step removed (``removed`` for T),
    ``gens`` U's ideal generators as a sorted tuple, ``bits`` their bits in
    ``M`` (None for T) and ``gaps`` U's gaps as a sorted tuple, or None
    throughout when ``gaps`` is false.  U is no object: its genus is T's
    plus k, and :func:`_semigroup` builds it.

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
            promoted, child = _step(M, lost, T.gens if bits is None else gens, bits, y)
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
    """The semigroup of a walk's node (:func:`_walk`) over ``base``, whose
    steps certified every point it lost, so nothing is checked again."""
    return IdealSemigroup._certified(base, node[4], node[2])


def _levels(walk, node) -> list[list]:
    """Level k lists ``node(n)`` for the nodes n of depth k of a walk
    (:func:`_walk`), in the order the walk emits them."""
    levels = []
    for n in walk:
        if n[0] == len(levels):
            levels.append([])
        levels[n[0]].append(node(n))
    return levels


def _fiber(S: GapSemigroup, T: IdealSemigroup, coords, pool, budget, node, gaps=True):
    """``node(n)`` for T and every node n reached from it by removing
    points of ``pool`` in tuple order (:func:`_walk`), by genus, then
    sorted gaps (module docstring).  T is a fiber's start, certified by
    :meth:`.IdealSemigroup._from_lost`, so the walk masks no point T lost
    (:class:`_Masks`), and ``coords`` gives its generators' coordinates."""
    walk = _walk(_Masks(S, T.gaps, coords), T, _tuple_order, budget, pool, gaps=gaps)
    return [v for level in _levels(walk, node) for v in level]


def _tuple_order(x: Point) -> Point:
    """The fibers' walk key: tuple order, which extends ≤_S."""
    return x


def children(S: GapSemigroup, T: IdealSemigroup, order: MonomialOrder):
    """Child nodes of T in the genus tree of S.

    Exactly the certified removals (:func:`_step`) of the canonical ideal
    generators exceeding ``big_o(S, T)``, in sorted order: the first step
    of the tree's walk from T, built over T's base.  Each call builds its
    own divisor masks, of every point of S∖{0} that divides one of T's
    generators or their sums with msg(S), and recomputes ``big_o``; a
    traversal that calls it once per node pays both per node.
    :func:`enumerate_tree` and :func:`tree_counts` walk the whole tree on
    one set of masks and carry the threshold down instead.
    """
    # at most one node per generator besides T, so the budget never binds
    removed = big_o(S, T, order)
    walk = _walk(_Masks(S), T, order.key, len(T.gens) + 1, depth=1, removed=removed)
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
    walk = _walk(_Masks(S), root, order.key, budget, depth=levels - 1, gaps=gaps)
    return levels, walk


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
    """The checks, candidates, top, pool and top coordinates of
    :func:`with_frobenius`, with no top (nor candidates) when a gap of S
    follows f: the fiber is empty.  One :func:`_down_set` walk lists S's
    elements up to f, a down-set of (S, ≤_S), each charged to ``budget``;
    x is a candidate when f − x ∉ S, read on the one split N(f) of f, and
    the top's generators are read on the pool and the walk's steps out."""
    if not order.degree_compatible:
        raise NotDegreeCompatible(
            "the region below f is only finite for degree-compatible orders"
        )
    nf = S.cone._numerators(f) if len(f) == S.dim and min(f) >= 0 else None
    if not any(f) or nf is None:
        raise ValueError(f"{f} is not a nonzero cone point")
    if S.gaps and order.compare(f, order.max(S.gaps)) == LT:
        return frozenset(), None, None, None
    G, key, kf, listed = S.as_generated(), order.key, order.key(f), count(1)
    msg, origin = list(zip(G.generators, G._gen_nums)), zero(S.dim)

    def keep(y, ny):
        kept = key(y) <= kf
        if kept and (n := next(listed)) > budget:
            raise BudgetExceeded(
                f"over {budget} elements of S up to {f}",
                limit=budget,
                count=n,
                unit="elements up to f",
            )
        return kept

    down, out = _down_set(origin, G._origin, msg, keep)
    candidates = frozenset(
        x for x, nx in down.items() if min(vsub(nf, nx)) < 0 or vsub(f, x) in S.gaps
    )
    pool = candidates - {origin}
    # each x in the pool gives its own result, the top less x's divisors
    if len(pool) >= budget:
        raise BudgetExceeded(
            f"{len(pool)} candidates give over {budget} semigroups",
            limit=budget,
            count=len(pool) + 1,
            unit="semigroups",
        )
    # the top loses the nonzero divisors of f in S, a down-set: the rest
    lost = down.keys() - candidates - {origin}
    out.update((x, down[x]) for x in pool)
    top = IdealSemigroup._from_lost(S, lost, out)
    return candidates, top, pool, {g: out[g] for g in top.gens}


def with_frobenius(
    S: GapSemigroup, f, order: MonomialOrder, budget=DEFAULT_BUDGET
) -> FrobeniusFiber:
    """All ideal-derived semigroups of S with Frobenius element ``f``.

    Requires a degree-compatible order so that the region below ``f`` is
    finite; plain lex is rejected.  The fiber's top, S less the nonzero
    divisors of ``f`` (``f`` among them when in S), is read from the one
    walk that lists S's elements up to ``f`` (:func:`_frobenius_start`),
    and the removal walk over the nonzero candidates lists the fiber from
    there, one certified removal step per further result.
    Raises :class:`BudgetExceeded` when the walk lists more than ``budget``
    elements of S up to ``f``, before any removal, or when the fiber has
    more than ``budget`` semigroups.
    """
    f = tuple(f)
    candidates, top, pool, coords = _frobenius_start(S, f, order, budget)
    if top is None:
        return FrobeniusFiber(f, candidates, ())
    # the walk lists the results in the canonical order
    results = _fiber(S, top, coords, pool, budget, lambda n: _semigroup(S, n))
    return FrobeniusFiber(f, candidates, tuple(results))


def _multiplicity_start(S: GapSemigroup, M, verify=False):
    """The root, pool and root coordinates of :func:`with_multiplicities`.

    A result keeps M, which lies outside the pool.  Its per-ray least
    elements are M exactly when it lost every point of S on a ray below
    M's element there.  Those points form a down-set, since a sum on an
    extremal ray has both terms on it, so with ``verify`` the root is S
    less them, read from one walk (:meth:`.IdealSemigroup._from_lost`), and
    the results are the nodes of the walk from it; without, the root is S.
    """
    ctx, G, origin = apery_context(S, M), S.as_generated(), zero(S.dim)
    rays = zip(S.cone.rays, ctx.ray_elements) if verify else ()
    below = {scale(j, d) for d, m in rays for j in range(1, sum(m) // sum(d))}
    msg = list(zip(G.generators, G._gen_nums))
    down, out = _down_set(origin, G._origin, msg, lambda y, ny: y in below)
    root = IdealSemigroup._from_lost(S, down.keys() - {origin}, out)
    return root, ctx.core - {origin}, {g: out[g] for g in root.gens}


def with_multiplicities(
    S: GapSemigroup, M, budget=DEFAULT_BUDGET, *, verify_multiplicities=False
) -> tuple[IdealSemigroup, ...]:
    """All ideal-derived semigroups of S with the given per-ray elements M.

    The pool B is the finite down-set that the ideal M + S loses, the
    nonzero Apery core of M.  A result keeps M, so keeps M + S, and the
    results are the nodes of the removal walk over B.  With
    ``verify_multiplicities`` the walk starts from S less the points of S
    on each ray below M's element there (:func:`_multiplicity_start`), so
    it lists exactly the results whose per-ray least elements are M.
    Raises :class:`BudgetExceeded` when the fiber has more than ``budget``
    semigroups.
    """
    root, pool, coords = _multiplicity_start(S, M, verify_multiplicities)
    # the walk lists the results in the canonical order
    return tuple(_fiber(S, root, coords, pool, budget, lambda n: _semigroup(S, n)))
