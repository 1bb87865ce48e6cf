"""Enumeration of the ideal-derived semigroups of a fixed C-semigroup.

Each is S ∖ D for a finite down-set D of (S∖{0}, ≤_S), where x ≤_S y means
y − x ∈ S, and each is built from a parent by one step that removes a
minimal generator of the current ideal.  One depth-first removal walk
(reverse search, Avis and Fukuda 1996) lists the genus tree and both
fibers: a node's children remove its generators that follow the point it
removed, under the semigroup's monomial order for the tree and in tuple
order over a finite pool for the fibers.  The walk charges every node to a
budget.  Grouped by depth (:func:`_levels`), its nodes are the tree's
levels and the fibers' results in the canonical order, genus then sorted
gaps, with no sort: tuple order extends ≤_S (y − x ∈ ℕ^p), so depth is
genus, and the least point of A △ B decides sorted(A ∪ C) against
sorted(B ∪ C).  Each fiber is one walk from one start, S less a down-set
(its target's divisors, or the ray points below M when verified) read with
its generators from one walk's listing (:meth:`.IdealSemigroup._from_lost`),
so it costs time per result.

The walk runs on integers.  Before it starts it builds a finite universe,
ranked in tuple order (:class:`_Universe`): the points that can be an
ideal generator of a node it reaches, with their divisors in S∖{0}.  For
the tree that is the window of the points with at most d + 1 divisors,
which holds every generator a node at depth d can have (:func:`_window`);
for a root the caller supplies, a fiber's start or the parent of
``children``, it is the root's generators and the sums the walk can
promote (:func:`_rooted`).  A point is named by its rank, its divisors by
a bitmask of ranks, and the universe holds each point's up-row and the
ranks that follow it under the walk's key, so a step does one ``&`` per
minimal generator and no tuple lookup (Fromentin and Hivert 2016 walk the
tree of numerical semigroups on such bits).  A node (:func:`_walk`) is
bare data: its depth, the rank it removed, its generators as a sorted rank
tuple with their bits, and its gaps as a sorted rank array, made from the
parent's by one insertion, or None when the caller writes no gaps; sorted
ranks list their points in sorted order.  ``tree_counts`` works on the
bits alone and counts the last level by popcount, without building it
(:func:`_count`).  Each walk builds its universe and drops it when it
ends, so the base S holds nothing a walk wrote, and no universe masks a
point its start lost.  The command line encodes the nodes from per-rank
texts as they come; ``enumerate_tree``, ``children`` and the fibers build
an :class:`.IdealSemigroup`, unchecked, only for each node they return.
The fibers' checks, starts and pools are helpers
(:func:`_frobenius_start`, :func:`_multiplicity_start`).
"""

from __future__ import annotations

from array import array
from bisect import bisect, bisect_left
from dataclasses import dataclass
from itertools import chain, count
from operator import ge

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


class _Universe:
    """The finite universe of one removal walk, built once for that walk and
    dropped with it, so the base S keeps nothing a walk wrote.

    ``points`` lists the universe in tuple order, and a point is named by
    its index there, its rank: the points that can be an ideal generator of
    a node the walk reaches, together with their divisors in S∖{0} that
    the walk's masks do not skip, the root's gaps when the walk writes
    gaps, and the root's generators and threshold.  ``masks`` maps the rank
    of each point y with a divisor mask to D(y), the bits of the ranks of
    the points z of the universe with y − z ∈ S (y itself among them);
    ``rows`` maps it to y's up-row, one entry (rank, mask, bit) per sum
    y + n (n ∈ msg(S)) in the universe, in rank order; ``after`` maps it
    to the bits of the ranks that follow y under the walk's key and may be
    removed (those in the pool, for a fiber).

    The root is ``root``, a node of :func:`_walk`, and ``first`` the bits
    of its generators that it may remove; ``pool``, if any, is the set of
    points a fiber's walk may remove, which its budget error names.  A
    root the caller supplies is certified step by step (``certify``):
    ``lost`` holds the ranks of its generators that it lost, ``invalid``
    the error of the first of its generators, in ``gens`` order, that is no
    nonzero element of S of S's dimension, and ``gens`` its generators,
    which name a divisor in an error.
    """

    certify, lost, invalid, gens = False, frozenset(), None, frozenset()
    after, pool = {}, None

    def __init__(self, graded, listed, removable=None):
        """Rank ``graded``, the points with a divisor mask as pairs (y, the
        divisors y − n of y in the universe) in grade order, with the
        further points ``listed``, and read the masks, and the rows of the
        points in ``removable`` (every point of ``graded`` when None)."""
        points = self.points = sorted(set(chain(listed, (y for y, _ in graded))))
        rank = {y: bisect_left(points, y) for y, _ in graded}
        masks, ups, rows = {}, {}, {}
        for y, divisors in graded:
            r = rank[y]
            d = ups[r] = 1 << r
            for w in divisors:
                d |= masks[rank[w]]
            masks[r] = d
        for y in rank if removable is None else removable:
            rows[rank[y]] = []
        for y, divisors in graded:
            r = rank[y]
            for w in divisors:
                if (row := rows.get(rank[w])) is not None:
                    row.append(r)
        self.masks, self.rows = masks, {
            r: tuple((z, masks[z], ups[z]) for z in sorted(row))
            for r, row in rows.items()
        }

    def follow(self, key=None, pool=None):
        """Read ``after``: each rank with a mask, with the bits of the ranks
        with a mask that follow it under ``key`` (tuple order when None)
        and lie in ``pool``, if given.  A walk that expands no node below
        its root reads none."""
        points, after, acc = self.points, {}, 0
        ranks = sorted(self.masks) if key is None else sorted(
            self.masks, key=lambda r: key(points[r])
        )
        for r in reversed(ranks):
            after[r] = acc
            if pool is None or points[r] in pool:
                acc |= 1 << r
        self.after = after

    def ranks(self, points) -> tuple[int, ...]:
        """The sorted ranks of ``points``, which all lie in the universe."""
        return tuple(sorted(bisect_left(self.points, y) for y in points))

    def gap_ranks(self, gaps) -> array:
        """The sorted ranks of the root's ``gaps``, as an array of machine
        integers: a start can lose tens of thousands of points (⟨3,5⟩ at
        f = 64,000 loses 63,992), and an int object per rank would cost
        four times the memory of the array each node copies."""
        return array("q", (r for r, y in enumerate(self.points) if y in gaps))


def _window(S: GapSemigroup, bound: int, key, gaps=True) -> _Universe:
    """The universe of the genus tree's walk from S to depth ``bound`` − 1:
    the window W = {y ∈ S∖{0} : |D(y)| ≤ ``bound``}, D(y) the divisors of
    y in S∖{0}.  A generator of a node at depth d lost every proper
    divisor, so it has at most d + 1 of them, and W holds every generator
    of a node the walk reaches; a sum outside W is never promoted, so the
    up-rows hold only sums in W.  W is a finite down-set, listed in grade
    order from msg(S) through the sums y + n of its points, with their
    divisor masks.  Cone coordinates are carried as sums from those that
    S's generated form split msg(S) into, so nothing is split.  The root
    is S with msg(S), which needs no certificate."""
    G = S.as_generated()
    msg = [
        (n, nn, sum(n), 1 << i)
        for i, (n, nn) in enumerate(zip(G.generators, G._gen_nums))
    ]
    # a candidate of each grade: [the union of the masks of the points of W
    # it was reached from, those points, the bits of the steps n that
    # reached it, one such point and its step's coordinates]
    coords, masks, graded, layers = {}, [], [], {}
    for n, nn, g, b in msg:
        layers.setdefault(g, {})[n] = [0, [], 0, None, nn]
    while layers:
        g = min(layers)
        # each candidate y was reached from every y − n in W, which gave
        # it the union of their masks: y joins W when that has fewer than
        # ``bound`` bits and no other y − n is an element of S∖{0}
        for y, (d, divisors, reached, w, nn) in layers.pop(g).items():
            if d.bit_count() >= bound:
                continue
            ny = nn if w is None else vadd(coords[w], nn)
            if any(
                all(map(ge, ny, nm)) and any(v := vsub(y, m)) and v not in S.gaps
                for m, nm, _, b in msg
                if not reached & b
            ):
                continue
            coords[y], dy = ny, d | 1 << len(masks)
            masks.append(dy)
            graded.append((y, divisors))
            if dy.bit_count() == bound:
                continue  # each y + n has more than ``bound`` divisors
            for n, nn, gn, b in msg:
                layer = layers.setdefault(g + gn, {})
                if (entry := layer.get(z := vadd(y, n))) is None:
                    layer[z] = [dy, [y], b, y, nn]
                else:
                    entry[0] |= dy
                    entry[1].append(y)
                    entry[2] |= b
    U = _Universe(graded, S.gaps if gaps else ())
    U.follow(key)
    gens = U.ranks(G.generators)
    bits = sum(1 << r for r in gens)
    hs = U.gap_ranks(S.gaps) if gaps else None
    U.root, U.first = (0, None, gens, bits, hs), bits
    return U


def _rooted(
    S: GapSemigroup, T, coords=(), key=None, pool=None, depth=None,
    removed=None, gaps=True,
) -> _Universe:
    """The universe of a walk from a root T that the caller supplies, over
    the base S: T's generators, each sum y + n (n ∈ msg(S)) of a point y
    the walk may remove, one within ``pool`` (in tuple order when ``key``
    is None) or within ``depth`` steps of T, and their divisors in S∖{0}
    that T kept, listed downwards and ranked in grade order.  What T lost
    beyond S's gaps is a down-set L of S∖{0}, so masks that skip it stay
    exact off L: a chain of msg(S) steps from y ∉ L down to a divisor
    z ∉ L lies above z, so outside L.  Only when T holds a generator that
    it lost do the masks skip S's gaps alone, so that the masks of that
    generator's multiples hold its bit.

    T's generators take their cone coordinates from ``coords`` or msg(S),
    and are split otherwise; every other point's are carried as sums or
    differences, so no point is split.  A generator that is no nonzero
    element of S of S's dimension gets a rank but no mask, and the walk's
    first step from T refuses it by name.
    """
    G = S.as_generated()
    msg = list(zip(G.generators, G._gen_nums))
    skip = T.gaps if T.gaps.isdisjoint(T.gens) else S.gaps
    known, valid, invalid = dict(coords) | dict(msg), {}, None
    for g in T.gens:
        if len(g) != S.dim:
            text = f"ideal generator {g} does not match dimension {S.dim}"
        elif (ng := known.get(g) or G._numerators(g)) is None:
            text = f"ideal generator {g} lies outside the cone"
        elif not any(g) or g in S.gaps:
            text = f"ideal generator {g} is 0 or a gap of the base"
        else:
            valid[g] = ng
            continue
        invalid = invalid or SemigroupError(text)
    # the generators T may remove, then the points the walk can make
    # generators and remove, upwards from them
    key = key or _tuple_order
    above = None if removed is None else key(removed)
    eligible = [
        y for y in sorted(T.gens)
        if (pool is None or y in pool) and (above is None or key(y) > above)
    ]
    reach, removable, steps = dict(valid), [], 0
    frontier = [y for y in eligible if y in valid and y not in T.gaps]
    while frontier and steps != depth:
        removable += frontier
        promoted = []
        for y in frontier:
            ny = reach[y]
            for n, nn in msg:
                z = vadd(y, n)
                if z not in reach:
                    reach[z] = vadd(ny, nn)
                    promoted.append(z)
        frontier = [z for z in promoted if pool is None or z in pool]
        steps += 1
    # and their divisors, downwards
    down, stack, divisors = reach, list(reach), {}
    while stack:
        y = stack.pop()
        below = divisors[y] = []
        for n, nn in msg:
            if (w := vsub(y, n)) not in down:
                # S lies in the nonnegative orthant
                if min(w) < 0 or not any(w) or w in skip:
                    continue
                if min(nw := vsub(down[y], nn)) < 0:
                    continue
                down[w] = nw
                stack.append(w)
            below.append(w)
    graded = [(y, divisors[y]) for y in sorted(divisors, key=sum)]
    listed = chain(T.gens, T.gaps if gaps else (), () if removed is None else [removed])
    U = _Universe(graded, listed, removable)
    if depth != 1:
        U.follow(None if key is _tuple_order else key, pool)
    U.certify, U.invalid, U.gens, U.pool = True, invalid, T.gens, pool
    gens = U.ranks(T.gens)
    U.lost = frozenset(r for r in gens if U.points[r] in T.gaps)
    U.first = sum(1 << r for r in U.ranks(eligible))
    x = None if removed is None else bisect_left(U.points, removed)
    hs = U.gap_ranks(T.gaps) if gaps else None
    U.root = (0, x, gens, sum(1 << r for r in gens), hs)
    return U


def _refuse(U: _Universe, k, y, gens, rest):
    """The certification of a step from a root the caller supplied, which
    removes the generator of rank y from a node at depth k with generators
    ``gens`` and the bits ``rest`` of the others.

    y must be no gap of the root and no other generator may divide it,
    which makes it minimal in the ideal P, so P ∖ {y} is an ideal;
    otherwise :class:`SemigroupError` names it.  The first step from the
    root also refuses a root generator that is no nonzero element of S.
    The points a step promotes are incomparable with each other and with
    the kept generators, so only the root's own generators can fail."""
    x = U.points[y]
    if y in U.lost:
        raise SemigroupError(f"ideal generator {x} is a gap of the parent")
    if k == 0 and U.invalid is not None:
        raise U.invalid
    dx = U.masks[y]
    if dx & rest:
        named = U.gens if k == 0 else frozenset(tuple(U.points[r] for r in gens))
        g = next(g for g in named - {x} if dx >> bisect_left(U.points, g) & 1)
        raise SemigroupError(f"ideal generator {x} is divisible by {g}")


def _walk(U: _Universe, budget, depth=None):
    """The nodes ``(k, x, gens, bits, gaps)`` of the universe ``U``'s root T
    and of every semigroup V reached from it by k certified removal steps,
    depth first, on ranks in ``U``: x is the rank of the point V's last
    step removed (T's threshold, or None), ``gens`` the sorted ranks of V's
    ideal generators, ``bits`` their bits and ``gaps`` the sorted ranks of
    V's gaps, or None throughout when the universe lists no gaps.  V is no
    object: its genus is T's plus k, and :func:`_semigroup` builds it.

    A node that removed x has as children the removals of its generators
    that follow x under the walk's key (``U.after``), in ascending tuple
    order; the root removes those in ``U.first``.  With a key that extends
    ≤_S, every removable set of points is reached once, in increasing key
    order, and the nodes of one depth come out in the lexicographic order
    of their removal sequences: the breadth-first order of that level, and
    in tuple order the fibers' canonical order (module docstring).

    A step that removes y keeps the other generators, with bits ``rest``,
    and promotes each y + n of y's up-row with D(y + n) & rest == 0: no
    other generator divides it.  The step reads one ``&`` per minimal
    generator, whatever the number of generators or the depth, and a
    removed point never returns as a generator.  A root the caller
    supplies is certified at each step (:func:`_refuse`).  Nodes at
    ``depth`` get no children.  Only the open siblings on the path to the
    current node are held.  Raises :class:`BudgetExceeded` once more than
    ``budget`` nodes are emitted, naming the size of the universe's pool,
    if any.
    """
    rows, after, certify, pool = U.rows, U.after, U.certify, U.pool
    stack, emitted = [U.root], 0
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
        e = U.first if k == 0 else bits & after[x]
        if certify:
            # in ascending order, so the least refused generator is named
            c = e
            while c:
                by = c & -c
                c ^= by
                _refuse(U, k, by.bit_length() - 1, gens, bits ^ by)
        k += 1
        # pushed in descending order of y, so popped in ascending order
        while e:
            y = e.bit_length() - 1
            by = 1 << y
            e ^= by
            rest = bits ^ by
            child, promoted = rest, []
            for z, dz, bz in rows[y]:
                if not dz & rest:
                    promoted.append(z)
                    child |= bz
            # the kept generators are one sorted run, so the sort merges
            j = bisect_left(gens, y)
            promoted += gens[:j]
            promoted += gens[j + 1 :]
            promoted.sort()
            hy = hs
            if hs is not None:
                hy = array("q", hs)
                hy.insert(bisect(hs, y), y)
            stack.append((k, y, tuple(promoted), child, hy))


def _count(U: _Universe, budget, depth: int) -> list[int]:
    """The number of nodes of each depth up to ``depth`` of :func:`_walk`
    from the tree universe ``U``, on generator bits alone: a node at depth
    ``depth`` − 1 adds the popcount of the generators it may remove, and
    is not expanded, so the last level is counted, not built (Fromentin and
    Hivert 2016).  Every counted node is charged to ``budget``."""
    rows, after, last = U.rows, U.after, depth - 1
    counts, stack, emitted = [0] * (depth + 1), [(0, None, U.root[3])], 0
    while stack:
        k, x, bits = stack.pop()
        e = U.first if x is None else bits & after[x]
        counts[k] += 1
        emitted += 1
        if k == last:
            counts[depth] += (c := e.bit_count())
            emitted += c
        if emitted > budget:
            raise BudgetExceeded(
                f"removal walk emitted more than {budget} semigroups",
                limit=budget,
                count=budget + 1,
                unit="semigroups",
            )
        if k >= last:
            continue
        while e:
            y = e.bit_length() - 1
            e ^= 1 << y
            rest = child = bits ^ 1 << y
            for _, dz, bz in rows[y]:
                if not dz & rest:
                    child |= bz
            stack.append((k + 1, y, child))
    return counts


def _semigroup(base: GapSemigroup, points, node) -> IdealSemigroup:
    """The semigroup of a walk's node (:func:`_walk`) over ``base``, whose
    ranks name ``points`` and whose steps certified every point it lost, so
    nothing is checked again."""
    return IdealSemigroup._certified(
        base, [points[r] for r in node[4]], [points[r] for r in node[2]]
    )


def _semigroups(base: GapSemigroup):
    """The node maker of :func:`_fiber` that builds each node's semigroup
    over ``base`` (:func:`_semigroup`)."""
    return lambda points: lambda n: _semigroup(base, points, n)


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
    """``node(points)(n)`` for T and every node n reached from it by
    removing points of ``pool`` in tuple order (:func:`_walk`), by genus,
    then sorted gaps (module docstring); ``points`` names the walk's
    ranks.  T is a fiber's start, certified by
    :meth:`.IdealSemigroup._from_lost`, so the walk masks no point T lost
    (:func:`_rooted`), and ``coords`` gives its generators' coordinates."""
    U = _rooted(S, T, coords, pool=pool, gaps=gaps)
    walk = _walk(U, budget)
    return [v for level in _levels(walk, node(U.points)) for v in level]


def _tuple_order(x: Point) -> Point:
    """The fibers' walk key: tuple order, which extends ≤_S."""
    return x


def children(S: GapSemigroup, T: IdealSemigroup, order: MonomialOrder):
    """Child nodes of T in the genus tree of S.

    Exactly the certified removals (:func:`_refuse`) of the canonical
    ideal generators exceeding ``big_o(S, T)``, in sorted order: the first
    step of the tree's walk from T, built over T's base.  Each call builds
    its own universe, of T's generators, their sums with msg(S) and every
    divisor of those in S∖{0}, and recomputes ``big_o``; a traversal that
    calls it once per node pays both per node.  :func:`enumerate_tree` and
    :func:`tree_counts` walk the whole tree on one universe and carry the
    threshold down instead.
    """
    removed = big_o(S, T, order)
    U = _rooted(S, T, key=order.key, depth=1, removed=removed)
    # at most one node per generator besides T, so the budget never binds
    walk = _walk(U, len(T.gens) + 1, depth=1)
    return [_semigroup(T.base, U.points, n) for n in walk if n[0]]


@dataclass(frozen=True)
class TreeNode:
    """Genus-tree vertex: the semigroup plus the element removed from its parent."""

    semigroup: IdealSemigroup
    removed: Point | None
    genus: int


def _depth(S: GapSemigroup, max_genus: int) -> int:
    """The depth of S's genus tree up to ``max_genus``."""
    if max_genus < S.genus:
        raise ValueError(f"max_genus {max_genus} is below the root genus {S.genus}")
    return max_genus - S.genus


def _tree(S: GapSemigroup, max_genus: int, order: MonomialOrder, budget):
    """The number of levels of S's genus tree up to ``max_genus``, the
    points its walk's ranks name, and the walk (:func:`_walk`) that lists
    its nodes with their gaps, over the window of its last level
    (:func:`_window`)."""
    depth = _depth(S, max_genus)
    U = _window(S, depth + 1, order.key)
    return depth + 1, U.points, _walk(U, budget, depth)


def enumerate_tree(
    S: GapSemigroup, max_genus: int, order: MonomialOrder, budget=DEFAULT_BUDGET
) -> list[list[TreeNode]]:
    """All ideal-derived semigroups of S with genus at most ``max_genus``.

    Returns breadth-first levels; level k holds exactly the semigroups of
    genus ``genus(S) + k``, grouped from the depth-first walk.  The
    threshold of a node's children is the point it removed: a child
    removes an x beyond every point its parent lost, so x is its
    ``big_o``.  A node thus costs one removal step, O(|msg(S)|) reads of
    precomputed divisor masks, and no work that grows with its depth.
    Raises :class:`BudgetExceeded` when the tree has more than ``budget``
    nodes.
    """
    _, points, walk = _tree(S, max_genus, order, budget)

    def node(n):
        removed = None if n[1] is None else points[n[1]]
        return TreeNode(_semigroup(S, points, n), removed, S.genus + n[0])

    return _levels(walk, node)


def tree_counts(
    S: GapSemigroup, max_genus: int, order: MonomialOrder, budget=DEFAULT_BUDGET
) -> list[int]:
    """The sizes of :func:`enumerate_tree`'s levels, counted on generator
    bits as the walk streams (:func:`_count`), so only the open siblings
    on the path are held, no node carries its gaps or its generators'
    ranks, and the last level is counted by popcount, over the window of
    the level before it."""
    depth = _depth(S, max_genus)
    return _count(_window(S, max(depth, 1), order.key, gaps=False), budget, depth)


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
    results = _fiber(S, top, coords, pool, budget, _semigroups(S))
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
    return tuple(_fiber(S, root, coords, pool, budget, _semigroups(S)))
