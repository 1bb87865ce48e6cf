"""Independent brute-force oracles used to pin expected test values.

Nothing here reuses the library's algorithms: membership is decided by a
forward closure (breadth-first sums of generators), cone membership for the
two fixture cones by explicit inequalities, minimality/decomposition
questions by direct definition scans, the Apery core by filtering the
bounded sum box of generators, the two fibers by scanning every subset of
their candidates, their order by its sort key, and ray extremality by a
phase-one simplex over Fractions (the library's simplex works on a
fraction-free integer tableau).
The exceptions are former library routines kept to check the ones
that replaced them: the ray-section grade scan, which checks the
Apery-table test; the decomposition check by per-point cone re-tests,
which checks the walk over split cone points; the type-2 MED check by
a scan of every section point of a grade box, which checks the scan of
the section's least points; the certified removal step with its
divisibility tests in point space, which checks the step on cone
coordinates; the removal walk over ``IdealSemigroup`` nodes, with the
step on divisor masks that built each child from its parent's gap set,
which checks the walk over bare nodes; and the Frobenius fiber's top by
one removal step per divisor of the target, which checks the walk that
builds it at once;
the gap scan stopped by the window certificate, which checks the scan
that the Apery table bounds and the walk over an ideal's lost points;
and a gap set's generated form from every element up to the generator
bound, which checks the form built from the multiplicities and their
core.  They read a ``GenSemigroup``'s descent membership and cone points,
or a ``GapSemigroup``'s ``contains``.  One more, the pairwise closure scan
of a gap set, checks the closure proof that a ``GapSemigroup`` reads from
its generated form; it reads only the gaps and an explicit cone test.
"""

from fractions import Fraction
from itertools import combinations, product

from csemigroups import (
    BudgetExceeded,
    GenSemigroup,
    IdealSemigroup,
    SemigroupError,
    enumeration,
)


def sum_closure(gens, max_grade):
    """All generator sums with coordinate sum at most max_grade."""
    dim = len(gens[0])
    start = (0,) * dim
    out = {start}
    frontier = {start}
    while frontier:
        nxt = set()
        for p in frontier:
            for g in gens:
                q = tuple(a + b for a, b in zip(p, g))
                if sum(q) <= max_grade and q not in out:
                    out.add(q)
                    nxt.add(q)
        frontier = nxt
    return out


def closure_member(gens, max_grade):
    """Membership oracle valid for points of grade at most max_grade."""
    table = sum_closure(gens, max_grade)

    def member(p):
        if min(p) < 0:
            return False
        assert sum(p) <= max_grade, f"{p} outside oracle range"
        return tuple(p) in table

    return member


def in_fixture_cone(p):
    """The running 2-dimensional cone between rays (3,1) and (5,1)."""
    x, y = p
    return x >= 0 and y >= 0 and 3 * y <= x <= 5 * y


def fixture_cone_points(max_grade):
    return [
        (x, y)
        for s in range(max_grade + 1)
        for x in range(s + 1)
        for y in [s - x]
        if in_fixture_cone((x, y))
    ]


def quadrant_points(max_grade):
    return [
        (x, s - x) for s in range(max_grade + 1) for x in range(s + 1)
    ]


def brute_minimals(member, points):
    """Minimal elements of `points` under x <= y iff y - x in the semigroup."""
    pts = sorted(set(points))
    out = []
    for x in pts:
        dominated = False
        for y in pts:
            if y == x:
                continue
            d = tuple(a - b for a, b in zip(x, y))
            if min(d) >= 0 and member(d):
                dominated = True
                break
        if not dominated:
            out.append(x)
    return frozenset(out)


def brute_msg(member, points):
    """Minimal generating set by scanning all two-part splits.

    The elements are scanned in grade order, which the early exit needs.
    """
    elems = sorted((p for p in points if any(p) and member(p)), key=lambda p: (sum(p), p))
    gens = []
    for s in elems:
        splittable = False
        for a in elems:
            if sum(a) >= sum(s):
                break
            d = tuple(u - v for u, v in zip(s, a))
            if min(d) >= 0 and any(d) and member(d):
                splittable = True
                break
        if not splittable:
            gens.append(s)
    return frozenset(gens)


def closure_violation(gap_set, in_cone, points):
    """First (h, x, y) with h in the set ``gap_set`` and x, y nonzero cone
    points off the gaps that sum to h, or None when the cone less the gaps
    is closed.

    The gaps are taken in lex order and x in the order of ``points(n)``,
    which lists the cone points of grade at most n by grade.  Both summands
    lie below h's grade, so the scan is exhaustive.
    """
    for h in sorted(gap_set):
        for x in points(sum(h) - 1):
            y = _sub(h, x)
            if any(x) and any(y) and in_cone(y) and not {x, y} & gap_set:
                return h, x, y
    return None


def brute_apery_core(member, elems, ray_elements):
    """Elements that stay outside after subtracting any ray element."""
    core = set()
    for s in elems:
        if not member(s):
            continue
        if all(
            not (min(d := tuple(a - b for a, b in zip(s, m))) >= 0 and member(d))
            for m in ray_elements
        ):
            core.add(s)
    return frozenset(core)


def least_lattice_multiple(n, ray_elements, cap=50):
    """Least q >= 1 with q*n a non-negative integer combination of ray elements."""
    for q in range(1, cap + 1):
        target = tuple(q * x for x in n)
        bounds = [
            min(t // c for t, c in zip(target, m) if c) for m in ray_elements
        ]
        for ks in product(*(range(b + 1) for b in bounds)):
            combo = tuple(
                sum(k * m[c] for k, m in zip(ks, ray_elements))
                for c in range(len(n))
            )
            if combo == target:
                return q
    return None


def box_filter_core(member, gens, multipliers, ray_elements):
    """Apery core as the generator sums below their multipliers that shed no
    ray element (a sum s sheds m when s - m is in the semigroup).

    Every core element is such a sum.  The box of all these sums is built one
    generator at a time, and each layer keeps only the sums that shed
    nothing: a sum that sheds m still sheds it after more generators are
    added, so this is the filter of the whole box, which can hold millions
    of points around a core of dozens.
    """
    box = {tuple(0 for _ in gens[0])}
    for q, n in zip(multipliers, gens):
        sums = {_add(s, tuple(lam * x for x in n)) for s in box for lam in range(q)}
        box = {s for s in sums if not any(member(_sub(s, m)) for m in ray_elements)}
    return frozenset(box)


def reduced_translates(member, points, ray_elements):
    """Translates m + x (m a ray element, x in ``points``) that do not split
    in (M + S) ∪ {0}.

    m + x splits exactly when m + x - m_a - m_b is in S for two ray elements,
    which always holds when x sheds a ray element; so the translates of the
    sum box and of its part that sheds nothing reduce to the same set.
    """
    return frozenset(
        t
        for t in {_add(m, x) for m in ray_elements for x in points}
        if not any(
            member(_sub(_sub(t, a), b)) for a in ray_elements for b in ray_elements
        )
    )


def grade_scan_head(member, in_cone, points, mults):
    """Elements of ``points`` below the summed multiplicity grades from which
    no multiplicity can be subtracted inside the cone (the head of the
    decomposition, by the grade scan that bounds it)."""
    bound = sum(map(sum, mults))
    return frozenset(
        x
        for x in points
        if sum(x) < bound and member(x)
        and not any(in_cone(_sub(x, n)) for n in mults)
    )


def window_gap_scan(cone, member, ray_elements):
    """Points of the cone outside ``member``, by a scan in grade order
    stopped by the window certificate.

    ``member`` must hold one element n_i per extremal ray
    (``ray_elements``) and be closed under adding each of them; w is the
    coordinate sum.  A gap x with ``w(x) >= Σ w(n_i)`` has some
    simplicial coordinate at least 1 over the n_i, hence x − n_i stays in
    the cone and must itself be a gap (otherwise x would be a member).
    Iterating descends through every grade window of width
    ``max w(n_i)``, so once every grade in ``[W, W + max w(n_i))`` is free
    of gaps for some ``W >= Σ w(n_i)`` above every gap found, no gap lies
    above the window and the scan is complete.  The scan never stops when
    the gaps are infinite.
    """
    wsum = sum(map(sum, ray_elements))
    wmax = max(map(sum, ray_elements))
    found, last, g = set(), -1, 0
    while g < max(wsum, last + 1) + wmax:
        for x in cone.graded_points(g):
            if not member(x):
                found.add(x)
                last = g
        g += 1
    return frozenset(found)


def generator_bound_form(cone, gap_set):
    """The semigroup generated by the points of the cone less ``gap_set``
    up to the generator bound ``max(Σ w(n_i) − 1, max w(n_i) + the largest
    gap grade)``, n_i the least point off the gaps on ray i and w the
    coordinate sum.  A generator x either lies in the box ``Σ [0, 1) n_i``,
    below grade ``Σ w(n_i)``, or x − n_i is in the cone for some i and
    then 0 or a gap; so the form holds every point of the cone less the
    gaps, whether they are closed or not."""
    gap_set = frozenset(gap_set)
    weights = []
    for d in cone.rays:
        k = 1
        while tuple(k * c for c in d) in gap_set:
            k += 1
        weights.append(k * sum(d))
    top = max(map(sum, gap_set), default=0)
    bound = max(sum(weights) - 1, max(weights) + top)
    E = [
        x
        for g in range(1, bound + 1)
        for x in cone.graded_points(g)
        if x not in gap_set
    ]
    return GenSemigroup(E, warn_redundant=False)


def ray_section_is_cone_by_scan(S, n_k):
    """Exact test for ``{x in cone : x + n_k in S} == cone``.

    A violation x with grade at least the sum of the multiplicity grades
    descends: subtracting a multiplicity with simplicial coordinate >= 1
    keeps it a violation.  So the full cone is covered exactly when no
    violation exists below that grade.
    """
    mults = S.multiplicities()
    bound = sum(sum(n) for n in mults)
    for g in range(bound):
        for x in S.cone.graded_points(g):
            if not S.contains(_add(x, n_k)):
                return False
    return True


def decomposition_disagreement_by_scan(dec, max_grade):
    """First cone point up to ``max_grade``, in grade-then-lex order, where
    membership in ``dec.base`` and the cover ``head ∪ ⋃_i (n_i + S_i)``
    differ, or None.

    x is covered when it is in the head, or when x − n_i is in the cone and
    (x − n_i) + n_i is in S for some ray element n_i.
    """
    S = dec.base

    def in_ray_part(i, x):
        return S.cone.contains(x) and S.contains(_add(x, dec.ray_elements[i]))

    def covers(x):
        if x in dec.head:
            return True
        return any(
            min(d := _sub(x, n)) >= 0 and in_ray_part(i, d)
            for i, n in enumerate(dec.ray_elements)
        )

    for g in range(max_grade + 1):
        for x in S.cone.graded_points(g):
            if S.contains(x) != covers(x):
                return x
    return None


def type2_by_box_scan(S, grade):
    """The type-2 MED check with its closure test on every section point
    of the grade box: "true", "false" or "inconclusive".

    The hypothesis is a multiplicity n_k that every non-ray generator
    sheds inside the cone; a section ``{x in cone : x + n_k in S}`` that is
    the whole cone proves the criterion, and for each common n_k every pair
    x, y of section points up to ``grade`` is tried for x + y + n_k outside
    S.  FALSE needs a violation for every common n_k.
    """
    mults = S.multiplicities()
    extra = sorted(set(S.generators) - set(mults))
    if not extra:
        return "true"
    usable = []
    for m in extra:
        ks = {i for i, n in enumerate(mults) if S.cone.contains(_sub(m, n))}
        if not ks:
            return "false"
        usable.append(ks)
    common = sorted(set.intersection(*usable))
    if not common:
        return "inconclusive"
    if any(ray_section_is_cone_by_scan(S, mults[i]) for i in common):
        return "true"
    all_violated = True
    for i in common:
        n_k = mults[i]
        section = [
            x
            for g in range(grade + 1)
            for x in S.cone.graded_points(g)
            if S.contains(_add(x, n_k))
        ]
        # sums of section members stay in the cone, so non-membership of
        # x + y + n_k refutes closure outright
        violated = any(
            not S.contains(_add(_add(x, y), n_k))
            for x in section
            for y in section
        )
        if not violated:
            all_violated = False
    return "false" if all_violated else "inconclusive"


def removable_pairs(member, cone_points, base_gaps):
    """Gap sets of every genus-(g+2) ideal-derived semigroup, by definition.

    Takes every pair of nonzero semigroup elements and keeps those whose
    joint removal leaves the nonzero part closed under translation by the
    full semigroup: each removed element may be divided by no kept element
    other than the removed pair.
    """
    elems = [p for p in cone_points if any(p) and member(p)]
    divisors = {
        x: {
            y for y in elems
            if min(d := tuple(u - v for u, v in zip(x, y))) >= 0 and any(d) and member(d)
        }
        for x in elems
    }
    few = [x for x in elems if len(divisors[x]) <= 1]
    return {
        frozenset(base_gaps | {a, b})
        for a, b in combinations(few, 2)
        if divisors[a] <= {b} and divisors[b] <= {a}
    }


def remove_in_point_space(S, T, x):
    """The certified removal step (``enumeration._step``) with each "g
    divides y" read as ``S.contains(y − g)``, one cone test per pair."""
    if x in T.gaps:
        raise SemigroupError(f"ideal generator {x} is a gap of the parent")
    rest = T.gens - {x}
    for g in rest:
        if S.contains(_sub(x, g)):
            raise SemigroupError(f"ideal generator {x} is divisible by {g}")
    steps = {_add(x, n) for n in S.minimal_generators()}
    promoted = {y for y in steps if not any(S.contains(_sub(y, g)) for g in rest)}
    return IdealSemigroup(S, T.gaps | {x}, rest | promoted)


def remove_by_masks(S, T, x):
    """T less its ideal generator x, by the step on S's divisor masks that
    built each child of the former walk over ``IdealSemigroup`` nodes: the
    generators' bits are read anew from T, the child is built and checked
    from its gap set, over T's base."""
    if x in T.gaps:
        raise SemigroupError(f"ideal generator {x} is a gap of the parent")
    masks, _, _, rows = S._divisors
    gens_mask = 0
    for g in T.gens:
        gens_mask |= enumeration._bit(enumeration._generator_mask(S, g))
    dx = masks.get(x) or enumeration._generator_mask(S, x)
    rest = gens_mask & ~enumeration._bit(dx)
    if dx & rest:
        g = next(g for g in T.gens - {x} if dx & enumeration._bit(masks[g]))
        raise SemigroupError(f"ideal generator {x} is divisible by {g}")
    promoted = [y for y, dy, _ in rows.get(x) or S._up_row(x) if not dy & rest]
    return IdealSemigroup(T.base, T.gaps | {x}, (T.gens - {x}).union(promoted))


def removal_walk(
    S, T, key, budget, pool=None, depth=None, removed=None, remove=remove_in_point_space
):
    """``(k, x, U)`` for T and every semigroup U reached from it by k
    removal steps ``remove(S, parent, y)``, depth first; x is the point
    U's last step removed (``removed`` for T).  The former library walk:
    a node that removed x has as children the removals of its generators
    that follow x under ``key`` (all of them when x is None), restricted
    to ``pool``, in ascending tuple order; nodes at ``depth`` get none;
    :class:`BudgetExceeded` once more than ``budget`` nodes are emitted."""
    above = None if removed is None else key(removed)
    stack, emitted = [(0, removed, above, T)], 0
    while stack:
        k, x, above, U = stack.pop()
        emitted += 1
        if emitted > budget:
            raise BudgetExceeded(
                f"removal walk emitted more than {budget} semigroups"
                + ("" if pool is None else f" over a pool of {len(pool)} points")
            )
        yield k, x, U
        if k == depth:
            continue
        kids = []
        for y in sorted(U.gens if pool is None else U.gens & pool):
            ky = key(y)
            if above is None or ky > above:
                kids.append((k + 1, y, ky, remove(S, U, y)))
        stack.extend(reversed(kids))


def walk_levels(walk):
    """The nodes ``(x, U)`` of a :func:`removal_walk`, grouped by depth."""
    levels = []
    for k, x, U in walk:
        if k == len(levels):
            levels.append([])
        levels[k].append((x, U))
    return levels


def fiber_by_walk(S, T, pool, budget, remove=remove_in_point_space):
    """T and every semigroup reached from it by removing points of
    ``pool`` in tuple order, by depth, then in walk order."""
    walk = removal_walk(S, T, lambda x: x, budget, pool, remove=remove)
    return [U for level in walk_levels(walk) for _, U in level]


def frobenius_top_by_removals(S, f):
    """S less the nonzero divisors of f in S, with its ideal generators,
    by one certified removal step (:func:`remove_by_masks`) per divisor.

    The divisors are the points x of S∖{0} up to the grade of f with
    f − x in S, f itself when in S; they are removed in increasing grade,
    a linear extension of ≤_S, so each is an ideal generator when removed.
    """
    T = IdealSemigroup(S, S.gaps, gens=S.minimal_generators())
    for g in range(1, sum(f) + 1):
        for x in S.cone.graded_points(g):
            if S.contains(x) and S.contains(_sub(f, x)):
                T = remove_by_masks(S, T, x)
    return T


def _sub(a, b):
    return tuple(u - v for u, v in zip(a, b))


def _add(a, b):
    return tuple(u + v for u, v in zip(a, b))


def frobenius_fiber_by_masks(member, points, f, precedes):
    """Gap sets of every ideal-derived semigroup with Frobenius element f.

    ``points`` must hold every cone point up to the grade of f and of the
    largest gap; ``precedes(x)`` says whether x comes before f in the
    (degree-compatible) order.  A gap of S above f leaves the fiber empty.
    Otherwise a semigroup of the fiber keeps, below f, a subset of the
    candidates (elements x with f - x outside S) that is closed under adding
    nonzero elements while below f, and loses every other point below f,
    plus f.  Every subset of the candidates is tried, by mask.
    """
    if any(not member(x) and not precedes(x) and x != f for x in points):
        return set()
    below = [x for x in points if precedes(x)]
    elems = [x for x in below if member(x)]
    cand = sorted(x for x in elems if not member(_sub(f, x)))
    origin = tuple(0 for _ in f)
    results = set()
    for mask in range(1 << len(cand)):
        chosen = {cand[i] for i in range(len(cand)) if mask >> i & 1}
        closed = all(
            y in chosen
            for x in chosen
            for s in elems
            if any(s)
            for y in [_add(x, s)]
            if precedes(y)
        )
        if closed:
            results.add(frozenset(below) - chosen - {origin} | {f})
    return results


def canonical_key(T):
    """The fibers' canonical order: by genus, then by sorted gap tuple."""
    return T.genus, tuple(sorted(T.gaps))


def multiplicity_fiber_by_masks(member, pool, ray_elements):
    """Lost pool points and ideal generators of the multiplicity fiber.

    Every subset X of the pool, with the ray elements M, generates the
    ideal (M ∪ X) + S; its canonical generators are the minimal elements of
    M ∪ X, and the semigroup loses exactly the pool points outside the
    ideal.  Returns {lost pool points: canonical generators}, merging the
    subsets that generate the same ideal.
    """
    pool = sorted(pool)
    out = {}
    for mask in range(1 << len(pool)):
        chosen = [pool[i] for i in range(len(pool)) if mask >> i & 1]
        gens = brute_minimals(member, list(ray_elements) + chosen)
        lost = frozenset(
            b for b in pool
            if not any(min(d := _sub(b, g)) >= 0 and member(d) for g in gens)
        )
        assert out.setdefault(lost, gens) == gens, "one ideal, two generating sets"
    return out


def nonneg_combination_exists(columns, target) -> bool:
    """Exact feasibility of ``sum λ_i c_i = target`` with rational ``λ ≥ 0``.

    Phase-one simplex over Fractions with Bland's rule; ``target`` must have
    non-negative coordinates, which makes the all-artificial basis feasible.
    """
    if not any(target):
        return True
    if not columns:
        return False
    m, n = len(target), len(columns)
    # tableau rows: [original vars | artificial vars | rhs]
    tab = [
        [Fraction(columns[j][i]) for j in range(n)]
        + [Fraction(int(k == i)) for k in range(m)]
        + [Fraction(target[i])]
        for i in range(m)
    ]
    basis = list(range(n, n + m))
    while True:
        # reduced costs for the "minimize artificial sum" objective
        costs = [
            (Fraction(int(j >= n)) - sum(tab[i][j] for i in range(m) if basis[i] >= n))
            for j in range(n + m)
        ]
        entering = next((j for j, c in enumerate(costs) if c < 0), None)
        if entering is None:
            break
        ratios = [
            (tab[i][-1] / tab[i][entering], basis[i], i)
            for i in range(m)
            if tab[i][entering] > 0
        ]
        if not ratios:  # unbounded; cannot happen for this objective
            return False
        _, _, row = min(ratios)
        piv = tab[row][entering]
        tab[row] = [x / piv for x in tab[row]]
        for i in range(m):
            if i != row and tab[i][entering]:
                f = tab[i][entering]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[row])]
        basis[row] = entering
    objective = sum(tab[i][-1] for i in range(m) if basis[i] >= n)
    return objective == 0
