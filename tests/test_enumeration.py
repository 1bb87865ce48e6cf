import gc
import itertools
import math
import os
import re
import sys
import threading
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from csemigroups import (
    BudgetExceeded,
    Cone,
    GapSemigroup,
    GenSemigroup,
    IdealSemigroup,
    MonomialOrder,
    NotCSemigroup,
    NotDegreeCompatible,
    SemigroupError,
    apery_context,
    big_o,
    children,
    enumerate_tree,
    frobenius,
    gaps,
    ideal_from_set,
    isemigroup_from_ideal,
    med_construct,
    minimal_elements,
    pseudo_frobenius,
    tree_counts,
    verify_isemigroup,
    with_frobenius,
    with_multiplicities,
)
from csemigroups import enumeration, ideals
from csemigroups.lattice import scale, vadd, vsub
from csemigroups.serialize import load_document, semigroup_to_document
from bruteforce import (
    brute_apery_core,
    brute_msg,
    canonical_key,
    closure_member,
    fixture_cone_points,
    frobenius_fiber_by_masks,
    fiber_by_walk,
    frobenius_region_by_scan,
    frobenius_top_by_removals,
    in_fixture_cone,
    multiplicity_fiber_by_masks,
    removable_pairs,
    removal_walk,
    remove_in_point_space,
    walk_levels,
)
from conftest import S1_GENS
from strategies import (
    band_csemigroups,
    orthant_csemigroups,
    simplicial_semigroups,
    small_csemigroups,
)

EXPECTED_POOL = [
    (5, 1), (9, 2), (9, 3), (10, 3), (12, 3), (13, 3), (13, 4),
    (14, 3), (14, 4), (17, 4), (18, 4),
]

FIBER_CANDIDATES = {(9, 2), (9, 3), (10, 2), (10, 3)}


def _root(s1):
    return isemigroup_from_ideal(ideal_from_set(s1, [(0, 0)]))


def test_big_o(s1, deglex):
    root = _root(s1)
    assert big_o(s1, root, deglex) is None
    one = GapSemigroup(s1.cone, s1.gaps | {(5, 1)})
    assert big_o(s1, one, deglex) == (5, 1)
    two = GapSemigroup(s1.cone, s1.gaps | {(5, 1), (6, 2)})
    assert big_o(s1, two, deglex) == (6, 2)


def test_children_at_root(s1, deglex):
    root = _root(s1)
    kids = children(s1, root, deglex)
    assert len(kids) == 8
    removed = {next(iter(k.gaps - s1.gaps)) for k in kids}
    assert removed == s1.minimal_generators()
    for k in kids:
        assert verify_isemigroup(s1, k)


def test_children_certificate_rejects_corrupt_parent(s1, deglex):
    msg = s1.minimal_generators()
    # (11,3) = (5,1) + (6,2) is not minimal in the ideal
    not_minimal = IdealSemigroup(s1, s1.gaps, msg | {(11, 3)})
    with pytest.raises(SemigroupError, match=r"\(11, 3\) is divisible by \((5, 1|6, 2)\)"):
        children(s1, not_minimal, deglex)
    holds_gap = IdealSemigroup(s1, s1.gaps, msg | {(3, 1)})
    with pytest.raises(SemigroupError, match=r"\(3, 1\) is a gap"):
        children(s1, holds_gap, deglex)


def test_removal_steps_split_each_point_once(monkeypatch):
    # each walk runs on its own fresh base, on a universe of its own, and
    # leaves the base as it was.  Its universe reads msg(S) in the
    # coordinates of the generated form and carries every other point's as
    # a sum or a difference, and a fiber's start hands the walk the
    # coordinates of its generators, so the points split are exactly the
    # Frobenius target (to check that it is a cone point) and the ray
    # elements M of the multiplicity fiber's Apery table.  No start
    # generator, no point the start lost and no point a step promoted is
    # split, and the returned semigroups are built from the walk's
    # certificate, unchecked; no step tests membership in point space.
    # Each base's generated form is built before the count, so its own
    # descent splits are not counted, and its splitter, which the universe
    # reads, is wrapped to count after.  No walk masks a point its start
    # lost: each fiber's start is certified, and every divisor a step reads
    # lies outside that down-set.
    order = MonomialOrder("deglex")
    M = [(10, 2), (6, 2)]
    def tree(S):
        return [n.semigroup for level in enumerate_tree(S, 9, order) for n in level]

    runs = [
        ((), tree),
        ([(14, 3)], lambda S: with_frobenius(S, (14, 3), order).results),
        (M, lambda S: with_multiplicities(S, M)),
        (M, lambda S: with_multiplicities(S, M, verify_multiplicities=True)),
    ]

    def recorded(walks):
        class Recorded(enumeration._Universe):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                walks.append({self.points[r] for r in self.masks})

        return Recorded

    sizes = []
    for own, run in runs:
        S = gaps(GenSemigroup(S1_GENS))
        G = S.as_generated()
        splits, walks = [], []

        def counted(split):
            return lambda *args: splits.append(args[-1]) or split(*args)

        with monkeypatch.context() as patch:
            patch.setattr(Cone, "_numerators", counted(Cone._numerators))
            patch.setattr(G, "_numerators", counted(G._numerators))
            patch.setattr(GapSemigroup, "contains", None)
            patch.setattr(Cone, "contains", None)
            patch.setattr(enumeration, "_Universe", recorded(walks))
            results = run(S)
        root = results[0]
        sizes.append(len(results))
        assert sorted(splits) == sorted(own)
        assert vars(S).keys() <= {"cone", "gaps", "_generated", "_msg"}
        assert len(walks) == 1 and not walks[0] & root.gaps
    assert sizes == [1 + 8 + 30 + 77 + 166 + 334, 320, 352, 288]
    # the top of <3,5> at f = 4,000 loses 3,992 points, every point of S up
    # to f but the four candidates, and none of them gets a mask
    S, walks = gaps(GenSemigroup([(3,), (5,)])), []
    with monkeypatch.context() as patch:
        patch.setattr(enumeration, "_Universe", recorded(walks))
        top = with_frobenius(S, (4000,), order).results[0]
    assert len(walks) == 1 and not walks[0] & top.gaps


@pytest.mark.parametrize(
    "removed, bad, reason",
    [
        (None, (1, 2), "lies outside the cone"),
        (None, (5, 1, 0), "does not match dimension 2"),
        # below the threshold (5, 1), so kept, never removed
        ((5, 1), (4, 1), "is 0 or a gap of the base"),
        ((5, 1), (0, 0), "is 0 or a gap of the base"),
    ],
)
def test_removal_step_refuses_generators_outside_the_base(
    s1, deglex, removed, bad, reason
):
    parent = _root(s1)
    if removed is not None:
        (parent,) = [T for T in children(s1, parent, deglex) if removed in T.gaps]
    corrupt = IdealSemigroup(s1, parent.gaps, parent.gens | {bad})
    message = re.escape(f"ideal generator {bad} {reason}")
    with pytest.raises(SemigroupError, match=message):
        children(s1, corrupt, deglex)


def _divisors_by_cone(S, points):
    """Each point y of ``points`` with the points z of ``points`` that
    divide it in S (y − z ∈ S, z = y among them), read by cone tests."""
    return {
        y: {z for z in points if z == y or S.contains(vsub(y, z))}
        for y in points
    }


def _universe_divisors(U):
    """Each point of the universe ``U`` with a mask, with the points whose
    ranks its mask holds."""
    return {
        U.points[r]: {U.points[i] for i in range(d.bit_length()) if d >> i & 1}
        for r, d in U.masks.items()
    }


def test_walk_masks_hold_exactly_the_divisors(deglex):
    # the tree's window W_b, the points of S with at most b divisors in
    # S minus 0, against a cone-test scan of S1 up to grade 60, and the
    # masks of its universe against the divisors read by cone tests: each
    # point has its own rank and its mask holds exactly its divisors.  The
    # universe of a fiber's walk holds its start's generators and their
    # sums with msg(S) within the pool, with the same masks
    S = gaps(GenSemigroup(S1_GENS))
    points = [x for x in fixture_cone_points(60) if any(x) and S.contains(x)]
    divisors = _divisors_by_cone(S, points)
    for bound in (1, 3, 6, 9):
        U = enumeration._window(S, bound, deglex.key)
        window = _universe_divisors(U)
        assert window.keys() == {y for y, d in divisors.items() if len(d) <= bound}
        assert window == {y: divisors[y] for y in window}
        assert sorted(U.points) == U.points
    root, pool, coords = enumeration._multiplicity_start(S, [(10, 2), (6, 2)])
    U = enumeration._rooted(S, root, coords, pool=pool)
    fiber = _universe_divisors(U)
    assert root.gens | {vadd(x, n) for x in pool for n in S1_GENS} <= fiber.keys()
    assert fiber == _divisors_by_cone(S, list(fiber))


def test_threads_sharing_the_up_rows():
    # four threads walk the tree of one fresh base at once, switching every
    # microsecond, each on a universe of its own, masks and up-rows among
    # it; each walk must match a serial walk on another fresh base, and the
    # base must hold nothing a walk wrote
    def walk(S):
        levels = enumerate_tree(S, 9, MonomialOrder("deglex"))
        return [
            [(n.semigroup.gaps, n.semigroup.gens, n.removed) for n in level]
            for level in levels
        ]

    serial = walk(gaps(GenSemigroup(S1_GENS)))
    for _ in range(3):
        S = gaps(GenSemigroup(S1_GENS))
        barrier = threading.Barrier(4)
        got = [None] * 4

        def run(k):
            barrier.wait(timeout=60)
            got[k] = walk(S)

        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [serial] * 4
        assert vars(S).keys() <= {"cone", "gaps", "_generated", "_msg"}


def _library_bytes():
    """The bytes still held of what the library's own lines allocated since
    tracing started.  A full collection first empties the interpreter's
    free lists, whose spare tuples would otherwise count as held."""
    package = os.path.join(os.path.dirname(enumeration.__file__), "*")
    gc.collect()
    snapshot = tracemalloc.take_snapshot()
    traces = snapshot.filter_traces([tracemalloc.Filter(True, package)])
    return sum(stat.size for stat in traces.statistics("filename"))


def test_repeated_fibers_leave_the_base_unchanged():
    # each Frobenius fiber's walk builds its universe and drops it, so ten
    # fibers at growing targets leave the base holding no more than one
    # does (a memo on the base that kept every divisor mask held 9.4 MB
    # more after the tenth).  The cone's graded-point
    # cache is filled to the largest grade first: it belongs to the cone,
    # is shared by every semigroup built on it, and is bounded by the
    # largest grade asked, not by the number of calls.
    S = gaps(GenSemigroup([(3,), (5,)]))
    order = MonomialOrder("deglex")
    for g in range(10_001):
        S.cone.graded_points(g)
    tracemalloc.start()
    try:
        with_frobenius(S, (1000,), order)
        one = _library_bytes()
        for f in range(2000, 10_001, 1000):
            with_frobenius(S, (f,), order)
        ten = _library_bytes()
    finally:
        tracemalloc.stop()
    assert ten <= one


def _outcome(run):
    """What a fiber or a list of children gives: the semigroups' gap sets
    and ideal generators, or the error's type and message."""
    try:
        out = run()
    except (SemigroupError, BudgetExceeded) as exc:
        return type(exc).__name__, str(exc)
    return [(T.gaps, T.gens) for T in out]


def _agrees_with_point_space(run, oracle):
    """``run`` gives what ``oracle`` gives, the same call on the former
    walk over ``IdealSemigroup`` nodes whose step reads each divisibility
    in point space."""
    assert _outcome(run) == _outcome(oracle)


def _oracle_children(S, T, order):
    removed = big_o(S, T, order)
    walk = removal_walk(S, T, order.key, len(T.gens) + 1, depth=1, removed=removed)
    return [U for k, _, U in walk if k]


def _removed(S, T, x):
    """The walk's one step from T that removes its generator x."""
    U = enumeration._rooted(S, T, pool={x}, depth=1)
    walk = enumeration._walk(U, 2, depth=1)
    return [enumeration._semigroup(T.base, U.points, n) for n in walk if n[0]]


def _oracle_frobenius(S, f, order, budget):
    _, top, pool, _ = enumeration._frobenius_start(S, f, order, budget)
    return [] if top is None else fiber_by_walk(S, top, pool, budget)


def _oracle_multiplicities(S, M, budget, verify=False):
    """The multiplicity fiber on the oracle walk over M's nonzero Apery
    core.  Verified, it starts from S less each point of S strictly below
    an element of M on its ray, removed in grade order by point-space
    steps, so that each is an ideal generator when removed."""
    ctx = apery_context(S, M)
    root = IdealSemigroup(S, S.gaps, gens=S.minimal_generators())
    if verify:
        top = max(sum(m) for m in ctx.ray_elements)
        for x in (x for g in range(1, top) for x in S.cone.graded_points(g)):
            on_ray = any(
                sum(x) < sum(m)
                and all(a * sum(m) == b * sum(x) for a, b in zip(x, m))
                for m in ctx.ray_elements
            )
            if on_ray and x not in S.gaps:
                root = remove_in_point_space(S, root, x)
    return fiber_by_walk(S, root, ctx.core - {(0,) * S.dim}, budget)


def _children_agree(S, T, order):
    _agrees_with_point_space(
        lambda: children(S, T, order), lambda: _oracle_children(S, T, order)
    )


@given(data=simplicial_semigroups(), draws=st.data())
@settings(max_examples=150, deadline=None)
def test_removal_step_matches_point_space(data, draws):
    """The removal step on cone coordinates against the step that tests
    each divisibility in point space: two levels of tree children, a
    Frobenius fiber and a multiplicity fiber, in dimensions 1-3 and over
    cones of lower dimension than their lattice.  Corrupt parents, one
    holding a gap and one a generator's multiple, give the same errors."""
    gens, _, points = data
    try:
        S = gaps(GenSemigroup(gens, warn_redundant=False))
    except NotCSemigroup:
        assume(False)
    order = MonomialOrder("deglex")
    root = IdealSemigroup(S, S.gaps, gens=S.minimal_generators())
    _children_agree(S, root, order)
    for T in children(S, root, order):
        _children_agree(S, T, order)
    T = draws.draw(st.sampled_from(children(S, root, order)))
    (lost,) = T.gaps - S.gaps
    g = draws.draw(st.sampled_from(sorted(T.gens)))
    n = draws.draw(st.sampled_from(sorted(S.minimal_generators())))
    for bad in (lost, tuple(a + b for a, b in zip(g, n))):
        corrupt = IdealSemigroup(S, T.gaps, T.gens | {bad})
        _children_agree(S, corrupt, order)
        _agrees_with_point_space(
            lambda: _removed(S, corrupt, bad),
            lambda: [remove_in_point_space(S, corrupt, bad)],
        )
    grade = draws.draw(st.integers(1, {1: 14, 2: 10, 3: 5}[S.dim]))
    at_grade = [p for p in points(grade) if sum(p) == grade]
    if at_grade:
        f = draws.draw(st.sampled_from(at_grade))
        _agrees_with_point_space(
            lambda: with_frobenius(S, f, order, budget=300).results,
            lambda: _oracle_frobenius(S, f, order, 300),
        )
    k = draws.draw(st.integers(1, 2))
    M = [tuple(k * a for a in m) for m in S.multiplicities()]
    _agrees_with_point_space(
        lambda: with_multiplicities(S, M, budget=300),
        lambda: _oracle_multiplicities(S, M, 300),
    )


def _frobenius_target(draws, dim, points):
    """A cone point drawn as a Frobenius target, of a grade up to 14, 10 or
    5 in dimension 1, 2 or 3: only grades that hold cone points are drawn,
    so no draw is rejected."""
    top = {1: 14, 2: 10, 3: 5}[dim]
    by_grade = {}
    for p in points(top):
        if any(p):
            by_grade.setdefault(sum(p), []).append(p)
    grade = draws.draw(st.sampled_from(sorted(by_grade)))
    return draws.draw(st.sampled_from(by_grade[grade]))


@given(data=band_csemigroups(), draws=st.data())
@settings(max_examples=100, deadline=None)
def test_frobenius_top_matches_removal_steps(data, draws):
    """The Frobenius fiber's top, built in one walk over the divisors of
    the target, against one certified removal step per divisor: the same
    gaps and ideal generators, and the same fiber (or budget error) walked
    from either top, in dimensions 1-3, under degree-compatible orders and
    over cones of lower dimension than their lattice."""
    gens, _, points = data
    S = gaps(GenSemigroup(gens, warn_redundant=False))
    priority = tuple(draws.draw(st.permutations(range(S.dim))))
    name = draws.draw(st.sampled_from(["deglex", "degrevlex"]))
    order = MonomialOrder(name, priority)
    f = _frobenius_target(draws, S.dim, points)
    walks = []
    fiber = enumeration._fiber

    def recorded(S, T, coords, pool, budget, node, gaps=True):
        walks.append((T, pool))
        return fiber(S, T, coords, pool, budget, node, gaps)

    with mock.patch.object(enumeration, "_fiber", recorded):
        got = _outcome(lambda: with_frobenius(S, f, order, budget=300).results)
    if not walks:
        # no top: f lies below a gap, or the candidates alone exceed the budget
        assert got == [] or got[0] == "BudgetExceeded"
        return
    ((top, pool),) = walks
    expected = frobenius_top_by_removals(S, f)
    assert (top.gaps, top.gens) == (expected.gaps, expected.gens)

    def from_expected():
        walked = fiber(S, expected, {}, pool, 300, enumeration._semigroups(S))
        return sorted(walked, key=canonical_key)

    assert got == _outcome(from_expected)


def test_each_start_walks_its_down_set_once(s1, deglex, monkeypatch):
    # a start lists its down-set with one walk, and IdealSemigroup._from_lost
    # reads the start's generators from that listing without a walk of its
    # own (the Apery core's closure, a walk of the semigroups module, is not
    # counted)
    calls = []
    walk = enumeration._down_set
    for module in (ideals, enumeration):
        def counted(*args, name=module.__name__):
            calls.append(name.rsplit(".", 1)[1])
            return walk(*args)

        monkeypatch.setattr(module, "_down_set", counted)

    def walks(start):
        calls.clear()
        start()
        return sorted(calls)

    n35 = gaps(GenSemigroup([(3,), (5,)]))
    for S, f in [(s1, (14, 3)), (s1, (8, 2)), (n35, (4000,))]:
        assert walks(lambda: with_frobenius(S, f, deglex)) == ["enumeration"]
    P = ideal_from_set(s1, [(5, 1), (6, 2)])
    assert walks(lambda: isemigroup_from_ideal(P)) == ["ideals"]
    M, start = [(10, 2), (6, 2)], enumeration._multiplicity_start
    for verify in (False, True):
        assert walks(lambda: start(s1, M, verify)) == ["enumeration"]


@given(data=band_csemigroups(), draws=st.data())
@settings(max_examples=100, deadline=None)
def test_frobenius_region_matches_cone_scan(data, draws):
    """The Frobenius fiber's candidates, top and pool, listed by the walk
    over S's elements up to the target, against the scan of every cone
    point of each grade up to it: in dimensions 1-3, under deglex and
    degrevlex with a drawn priority, on the gap form that ``gaps`` returns
    and on one read from the gaps alone, at a budget that does not bind."""
    gens, _, points = data
    S = gaps(GenSemigroup(gens, warn_redundant=False))
    if draws.draw(st.booleans()):
        S = GapSemigroup(S.cone, S.gaps)
    priority = tuple(draws.draw(st.permutations(range(S.dim))))
    name = draws.draw(st.sampled_from(["deglex", "degrevlex"]))
    order = MonomialOrder(name, priority)
    f = _frobenius_target(draws, S.dim, points)
    candidates, top, pool, _ = enumeration._frobenius_start(S, f, order, 10**6)
    expected, top_gaps, expected_pool = frobenius_region_by_scan(S, f, order)
    assert (candidates, pool) == (expected, expected_pool)
    if top_gaps is None:
        assert top is None
        return
    assert top.gaps == top_gaps
    assert top.gens == IdealSemigroup(S, top_gaps).gens


@pytest.mark.parametrize(
    "gens, f, count",
    [(S1_GENS, (11, 3), 16), (S1_GENS, (14, 3), 320), (((3,), (5,)), (4000,), 7)],
)
def test_frobenius_fiber_takes_one_removal_step_per_result(gens, f, count, monkeypatch):
    # the top is built without removal steps, so every step is the walk's,
    # one per result below the top; one step per divisor of f would make
    # 18, 322 and 3,998 steps here
    S = gaps(GenSemigroup(gens))
    steps = []
    step = enumeration._refuse
    monkeypatch.setattr(
        enumeration, "_refuse", lambda *args: steps.append(args[2]) or step(*args)
    )
    fiber = with_frobenius(S, f, MonomialOrder("deglex"))
    assert len(fiber.results) == count
    assert len(steps) == count - 1


@given(data=simplicial_semigroups(), draws=st.data())
@settings(max_examples=60, deadline=None)
def test_removal_path_matches_point_space(data, draws):
    """Down a drawn path of children, up to six levels below the root,
    each call building the universe of a deeper parent's generators anew:
    each level's children, a corrupt parent holding a generator's
    multiple, and its removal give the same gap sets, ideal generators and
    error messages as the step in point space."""
    gens, _, _ = data
    try:
        S = gaps(GenSemigroup(gens, warn_redundant=False))
    except NotCSemigroup:
        assume(False)
    order = MonomialOrder("deglex")
    msg = sorted(S.minimal_generators())
    T = IdealSemigroup(S, S.gaps, gens=S.minimal_generators())
    for _ in range(6):
        _children_agree(S, T, order)
        g = draws.draw(st.sampled_from(sorted(T.gens)))
        n = draws.draw(st.sampled_from(msg))
        bad = tuple(a + b for a, b in zip(g, n))
        corrupt = IdealSemigroup(S, T.gaps, T.gens | {bad})
        _children_agree(S, corrupt, order)
        _agrees_with_point_space(
            lambda: _removed(S, corrupt, bad),
            lambda: [remove_in_point_space(S, corrupt, bad)],
        )
        kids = children(S, T, order)
        if not kids:
            break
        T = draws.draw(st.sampled_from(kids))


@given(data=simplicial_semigroups(), draws=st.data())
@settings(max_examples=60, deadline=None)
def test_lean_child_matches_full_child(data, draws):
    """Down a drawn path of children, up to six levels below the root, each
    bare node of the walk matches the ``IdealSemigroup`` built and checked
    from its gaps alone: its sorted gap and generator ranks name that
    semigroup's gaps and generators in the walk's own universe, and its
    bits are those of that semigroup's generators' ranks.  Over an equal
    base that is not S, the children keep that base."""
    gens, _, _ = data
    try:
        S = gaps(GenSemigroup(gens, warn_redundant=False))
    except NotCSemigroup:
        assume(False)
    order = MonomialOrder("deglex")
    T = IdealSemigroup(S, S.gaps, gens=S.minimal_generators())
    for _ in range(6):
        removed = big_o(S, T, order)
        U = enumeration._rooted(S, T, key=order.key, depth=1, removed=removed)
        walk = enumeration._walk(U, len(T.gens) + 1, depth=1)
        nodes = [n for n in walk if n[0]]
        kids = children(S, T, order)
        assert len(nodes) == len(kids)
        if not kids:
            break
        rank = {y: r for r, y in enumerate(U.points)}
        for (_, x, node_gens, bits, node_gaps), child in zip(nodes, kids):
            full = IdealSemigroup(S, [U.points[r] for r in node_gaps])
            assert U.points[x] in full.gaps and U.points[x] not in T.gaps
            assert list(node_gaps) == sorted(rank[h] for h in full.gaps)
            assert node_gens == tuple(sorted(rank[g] for g in full.gens))
            assert bits == sum(1 << rank[g] for g in full.gens)
            assert (child.gaps, child.gens, child.base, child.cone) == (
                full.gaps, full.gens, full.base, full.cone
            )
            assert child == full and hash(child) == hash(full)
            assert child.minimal_generators() == full.minimal_generators()
            assert child.multiplicities() == full.multiplicities()
        T = draws.draw(st.sampled_from(kids))
    other = GapSemigroup(S.cone, S.gaps)
    root = IdealSemigroup(other, other.gaps, gens=S.minimal_generators())
    for child in children(S, root, order):
        assert child.base is other
        assert child == IdealSemigroup(other, child.gaps, gens=child.gens)


@st.composite
def _tree_orders(draw, dim):
    priority = tuple(draw(st.permutations(range(dim))))
    return draw(st.sampled_from([
        MonomialOrder("deglex"),
        MonomialOrder("lex"),
        MonomialOrder("degrevlex", priority),
    ]))


@st.composite
def _walk_bases(draw):
    """A C-semigroup in dimension 1-3 with a lister of its cone's points up
    to a grade: from ``simplicial_semigroups`` (cones of lower dimension
    than their lattice among them), ``small_csemigroups`` or
    ``orthant_csemigroups``."""
    source = draw(st.sampled_from(["simplicial", "small", "orthant"]))
    if source == "simplicial":
        gens, _, points = draw(simplicial_semigroups())
        try:
            return gaps(GenSemigroup(gens, warn_redundant=False)), points
        except NotCSemigroup:
            assume(False)
    strategy = small_csemigroups() if source == "small" else orthant_csemigroups()
    S, _, points, _ = draw(strategy)
    return S, points


def _walk_outcome(nodes, points):
    """What the library's walk gives, as the oracle's ``(k, x, gaps, gens)``
    per node with its ranks mapped back to the points they name, or the
    error's type and message; every node's rank tuples are sorted, and
    every node carries its generators' bits."""
    out = []
    try:
        for k, x, gens, bits, hs in nodes:
            assert list(gens) == sorted(gens) and list(hs) == sorted(hs)
            assert bits == sum(1 << r for r in gens)
            out.append((
                k,
                None if x is None else points[x],
                frozenset(points[r] for r in hs),
                frozenset(points[r] for r in gens),
            ))
    except (SemigroupError, BudgetExceeded) as exc:
        return type(exc).__name__, str(exc)
    return out


def _oracle_outcome(walk):
    try:
        return [(k, x, U.gaps, U.gens) for k, x, U in walk]
    except (SemigroupError, BudgetExceeded) as exc:
        return type(exc).__name__, str(exc)


@given(base=_walk_bases(), draws=st.data())
@settings(max_examples=120, deadline=None)
def test_walk_matches_the_oracle_walk(base, draws):
    """The walk over bare nodes against the former walk over
    ``IdealSemigroup`` nodes whose step reads each divisibility in point
    space: the same nodes (depth, removed point, gaps, ideal generators) in
    the same order, or the same error, for the genus tree under deglex,
    lex and degrevlex with a priority, from its root and from a corrupt
    parent that holds a lost point or a generator's multiple, and for both
    fibers, whose results and levels the library's functions list, and
    over the multiplicity pool from a corrupt root, at budgets that do and
    do not bind."""
    S, points = base
    order = draws.draw(_tree_orders(S.dim))
    budget = draws.draw(st.sampled_from([5, 40, 400]))
    depth = draws.draw(st.integers(0, {1: 5, 2: 4, 3: 2}[S.dim]))
    root = IdealSemigroup(S, S.gaps, gens=S.minimal_generators())

    def agree(U, T, key, pool=None, depth=None, removed=None):
        nodes = enumeration._walk(U, budget, depth)
        oracle = removal_walk(S, T, key, budget, pool, depth, removed)
        assert _walk_outcome(nodes, U.points) == _oracle_outcome(oracle)

    def rooted(T, key=None, pool=None, depth=None, removed=None):
        U = enumeration._rooted(S, T, (), key, pool, depth, removed)
        agree(U, T, key or enumeration._tuple_order, pool, depth, removed)

    agree(enumeration._window(S, depth + 1, order.key), root, order.key, depth=depth)

    def tree():
        levels = enumerate_tree(S, S.genus + depth, order, budget)
        return [n.semigroup for level in levels for n in level]

    def oracle_tree():
        levels = walk_levels(removal_walk(S, root, order.key, budget, depth=depth))
        return [U for level in levels for _, U in level]

    _agrees_with_point_space(tree, oracle_tree)

    kids = children(S, root, order)
    T = draws.draw(st.sampled_from(kids)) if kids else root
    lost = sorted(T.gaps - S.gaps)
    g = draws.draw(st.sampled_from(sorted(T.gens)))
    n = draws.draw(st.sampled_from(sorted(S.minimal_generators())))
    bad = draws.draw(st.sampled_from(lost + [tuple(a + b for a, b in zip(g, n))]))
    corrupt = IdealSemigroup(S, T.gaps, T.gens | {bad})
    rooted(corrupt, order.key, depth=2, removed=big_o(S, T, order))

    f = None
    if order.degree_compatible:
        grade = draws.draw(st.integers(1, {1: 14, 2: 8, 3: 4}[S.dim]))
        at_grade = [p for p in points(grade) if sum(p) == grade]
        f = draws.draw(st.sampled_from(at_grade)) if at_grade else None
    if f is not None:
        _agrees_with_point_space(
            lambda: with_frobenius(S, f, order, budget).results,
            lambda: _oracle_frobenius(S, f, order, budget),
        )
    k = draws.draw(st.integers(1, 2))
    M = [tuple(k * a for a in m) for m in S.multiplicities()]
    verify = draws.draw(st.booleans())
    _agrees_with_point_space(
        lambda: with_multiplicities(S, M, budget, verify_multiplicities=verify),
        lambda: _oracle_multiplicities(S, M, budget, verify),
    )
    _, pool, _ = enumeration._multiplicity_start(S, M)
    corrupt = IdealSemigroup(S, S.gaps, S.minimal_generators() | {bad})
    rooted(corrupt, pool=pool)


@given(data=st.one_of(small_csemigroups(), orthant_csemigroups()), draws=st.data())
@settings(max_examples=40, deadline=None)
def test_tree_carries_its_threshold(data, draws):
    """``enumerate_tree`` takes the point a node removed as the threshold
    of its children.  Its levels equal a breadth-first walk over the
    public ``children``, which recomputes ``big_o``, and every non-root
    node removed its own ``big_o``."""
    S = data[0]
    order = draws.draw(_tree_orders(S.dim))
    levels = enumerate_tree(S, S.genus + (2 if S.dim == 3 else 3), order)
    walk = [[IdealSemigroup(S, S.gaps, gens=S.minimal_generators())]]
    for _ in levels[1:]:
        walk.append([child for T in walk[-1] for child in children(S, T, order)])
    assert [[(n.semigroup.gaps, n.semigroup.gens) for n in lvl] for lvl in levels] == [
        [(T.gaps, T.gens) for T in lvl] for lvl in walk
    ]
    for node in (n for lvl in levels[1:] for n in lvl):
        assert node.removed == big_o(S, node.semigroup, order)


@given(data=st.one_of(small_csemigroups(), orthant_csemigroups()), draws=st.data())
@settings(max_examples=40, deadline=None)
def test_tree_counts_stream_the_levels(data, draws):
    """The counts streamed from the depth-first walk equal the sizes of
    ``enumerate_tree``'s levels, in dimensions 1-3 under every order kind."""
    S = data[0]
    order = draws.draw(_tree_orders(S.dim))
    max_genus = S.genus + draws.draw(st.integers(0, 2 if S.dim == 3 else 4))
    levels = enumerate_tree(S, max_genus, order)
    assert tree_counts(S, max_genus, order) == [len(l) for l in levels]


def test_tree_budget_counts_every_node(s1, deglex):
    # S1 to genus 6 has 1 + 8 + 30 = 39 nodes, the root among them
    for walk in (enumerate_tree, tree_counts):
        with pytest.raises(BudgetExceeded):
            walk(s1, 6, deglex, budget=38)
    assert [len(l) for l in enumerate_tree(s1, 6, deglex, budget=39)] == [1, 8, 30]
    assert tree_counts(s1, 6, deglex, budget=39) == [1, 8, 30]


def test_children_filter_rule(s1, deglex):
    # from S minus (9,2), only canonical generators above (9,2) spawn children
    root = _root(s1)
    node = next(
        k for k in children(s1, root, deglex) if (9, 2) in k.gaps
    )
    for child in children(s1, node, deglex):
        (x,) = child.gaps - node.gaps
        assert deglex.compare(x, (9, 2)) == 1


def test_enumerate_tree_levels(s1, deglex):
    levels = enumerate_tree(s1, 6, deglex)
    assert [len(l) for l in levels] == [1, 8, 30]
    assert levels[0][0].removed is None
    for i, level in enumerate(levels):
        for node in level:
            assert node.genus == s1.genus + i == node.semigroup.genus


def test_enumerate_tree_root_only(s1, deglex):
    levels = enumerate_tree(s1, 4, deglex)
    assert [len(l) for l in levels] == [1]
    assert levels[0][0].semigroup.gaps == s1.gaps


def test_enumerate_tree_bad_genus(s1, deglex):
    with pytest.raises(ValueError):
        enumerate_tree(s1, 3, deglex)


def test_tree_level_matches_bruteforce(s1, deglex):
    """Level-two nodes are exactly the valid two-element removals."""
    levels = enumerate_tree(s1, 6, deglex)
    expected = removable_pairs(s1.contains, fixture_cone_points(30), set(s1.gaps))
    got = {frozenset(n.semigroup.gaps) for n in levels[2]}
    assert got == expected


def test_tree_is_order_independent_as_a_set(s1):
    reference = None
    for order in (MonomialOrder("deglex"), MonomialOrder("degrevlex"),
                  MonomialOrder("lex", (1, 0))):
        levels = enumerate_tree(s1, 6, order)
        nodes = frozenset(n.semigroup.gaps for lvl in levels for n in lvl)
        if reference is None:
            reference = nodes
        assert nodes == reference


def test_tree_parent_edge_rule(s1, deglex):
    levels = enumerate_tree(s1, 7, deglex)
    by_gaps = {n.semigroup.gaps: n for lvl in levels for n in lvl}
    for lvl in levels[1:]:
        for node in lvl:
            # parent = child plus the largest missing element
            o = big_o(s1, node.semigroup, deglex)
            assert o == node.removed
            parent_gaps = node.semigroup.gaps - {o}
            assert frozenset(parent_gaps) in by_gaps


def test_tree_incremental_msg_matches_scratch(s1, deglex):
    levels = enumerate_tree(s1, 7, deglex)
    built = [node.semigroup for lvl in levels for node in lvl]
    built += with_frobenius(s1, (11, 3), deglex).results
    built += [
        med_construct(s1, M).isemigroup
        for M in (s1.multiplicities(), [(10, 2), (6, 2)])
    ]
    for sg in built:
        scratch = GapSemigroup(s1.cone, sg.gaps).minimal_generators()
        assert sg.minimal_generators() == scratch
        assert sg.gens == minimal_elements(s1, scratch)


def test_tree_nodes_are_gap_semigroups(s1, deglex):
    levels = enumerate_tree(s1, 6, deglex)
    for node in (n for lvl in levels for n in lvl):
        T = node.semigroup
        scratch = GapSemigroup(s1.cone, T.gaps)
        assert isinstance(T, GapSemigroup)
        assert T == scratch and hash(T) == hash(scratch)
        loaded, order = load_document(semigroup_to_document(T))
        assert type(loaded) is GapSemigroup and loaded == scratch and order is None
        assert pseudo_frobenius(T) == pseudo_frobenius(scratch)
        if T.gaps:
            assert frobenius(T, deglex) == frobenius(scratch, deglex)


def test_genus_existence(s1, deglex):
    levels = enumerate_tree(s1, 10, deglex)
    assert all(levels), [len(l) for l in levels]


def test_with_frobenius_known_fiber(s1, deglex):
    fiber = with_frobenius(s1, (11, 3), deglex)
    assert fiber.candidates == FIBER_CANDIDATES
    assert len(fiber.results) == 16
    kept = {frozenset(FIBER_CANDIDATES - T.gaps) for T in fiber.results}
    assert len(kept) == 16  # every subset of the candidates occurs
    for T in fiber.results:
        assert verify_isemigroup(s1, T)
        assert frobenius(T, deglex) == (11, 3)


def test_with_frobenius_below_base_frobenius(s1, deglex):
    fiber = with_frobenius(s1, (4, 1), deglex)
    assert fiber.results == ()


def test_with_frobenius_closure_filter_is_vacuous_here(s1, deglex):
    # smallest candidate grade 11, smallest nonzero element grade 6: any sum
    # leaves the below-target region, so all 16 subsets are closed
    fiber = with_frobenius(s1, (11, 3), deglex)
    assert min(sum(x) for x in fiber.candidates) + 6 > sum((11, 3))


def test_with_frobenius_brute_force_agreement(s1, deglex):
    """Recompute the fiber from the definition, subset by subset.

    The closure filter prunes nothing at (11,3) but does at (13,3) and (14,3).
    """
    for f in [(11, 3), (13, 3), (14, 3)]:
        expected = frobenius_fiber_by_masks(
            closure_member(S1_GENS, sum(f)),
            fixture_cone_points(sum(f)),
            f,
            lambda x: deglex.compare(x, f) == -1,
        )
        fiber = with_frobenius(s1, f, deglex)
        assert {T.gaps for T in fiber.results} == expected
        assert len(fiber.results) == len(expected)
        assert (len(expected) < 2 ** len(fiber.candidates)) == (f != (11, 3))
        for T in fiber.results:
            scratch = GapSemigroup(s1.cone, T.gaps).minimal_generators()
            assert T.gens == minimal_elements(s1, scratch)


def test_with_frobenius_large_fiber(s1, deglex):
    fiber = with_frobenius(s1, (17, 4), deglex)
    assert len({T.gaps for T in fiber.results}) == len(fiber.results) == 4376
    assert all(frobenius(T, deglex) == (17, 4) for T in fiber.results)


def test_fiber_budgets(s1, deglex):
    with pytest.raises(BudgetExceeded):
        with_frobenius(s1, (17, 4), deglex, budget=4375)
    assert len(with_frobenius(s1, (17, 4), deglex, budget=4376).results) == 4376
    M = [(10, 2), (6, 2)]
    with pytest.raises(BudgetExceeded):
        with_multiplicities(s1, M, budget=351)
    assert len(with_multiplicities(s1, M, budget=352)) == 352
    # the verified fiber walks from its own root, so the budget counts the
    # 288 results it lists, not the 352 of the unverified fiber
    with pytest.raises(BudgetExceeded):
        with_multiplicities(s1, M, budget=287, verify_multiplicities=True)
    strict = with_multiplicities(s1, M, budget=288, verify_multiplicities=True)
    assert len(strict) == 288


def test_budget_exceeded_carries_its_facts(s1, deglex):
    def facts(call, *args, **kwargs):
        with pytest.raises(BudgetExceeded) as info:
            call(*args, **kwargs)
        return info.value.limit, info.value.count, info.value.unit

    # the tree walk charges every node, the root included
    assert facts(tree_counts, s1, 8, deglex, budget=10) == (10, 11, "semigroups")
    # the ideal of (5,1) and (6,2) loses six points of S1
    P = ideal_from_set(s1, [(5, 1), (6, 2)])
    assert facts(isemigroup_from_ideal, P, budget=5) == (5, 6, "lost points")
    # <50,51>: the core's closure decides 1,273 points, then the scan visits
    # the 2,450 cone points of grades 0..2449
    assert facts(gaps, GenSemigroup([(50,), (51,)]), budget=3722) == (
        3722,
        3723,
        "decided or scanned points",
    )


def test_frobenius_budget_checked_before_any_removal(n2, deglex, monkeypatch):
    # on N^2 at (400, 1) the 80,200 nonzero candidates prove more than 10
    # results, so no certified removal step may run
    def no_removal(*args):
        raise AssertionError("removal step taken before the budget check")

    monkeypatch.setattr(enumeration, "_refuse", no_removal)
    with pytest.raises(BudgetExceeded):
        with_frobenius(n2, (400, 1), deglex, budget=10)


def test_frobenius_scan_stops_at_the_budget(n2, deglex, monkeypatch):
    # the region below (400, 1) on N^2 is walked along msg(S), not read from
    # the cone's grades, and the walk stops at the 11th element it lists.
    # The generated form reads the cone's grades when first built, so it is
    # built before the patch
    n2.as_generated()

    def no_grades(cone, g):
        raise AssertionError("the Frobenius region read the cone's grades")

    monkeypatch.setattr(Cone, "graded_points", no_grades)
    monkeypatch.setattr(Cone, "graded_split", no_grades)
    with pytest.raises(BudgetExceeded) as info:
        with_frobenius(n2, (400, 1), deglex, budget=10)
    facts = (info.value.limit, info.value.count, info.value.unit)
    assert facts == (10, 11, "elements up to f")


def test_with_frobenius_at_base_frobenius(s1, deglex):
    # at the boundary target the origin joins the candidate pool: a kept
    # origin would force every smaller element in, which is the base itself,
    # so the base is listed once
    fiber = with_frobenius(s1, (8, 2), deglex)
    assert fiber.candidates == {(0, 0), (5, 1), (6, 2)}
    assert len(fiber.results) == 4
    assert len({T.gaps for T in fiber.results}) == len(fiber.results)
    assert any(T.gaps == s1.gaps for T in fiber.results)
    for T in fiber.results:
        assert verify_isemigroup(s1, T)
        assert frobenius(T, deglex) == (8, 2)


def test_with_frobenius_rejects_lex(s1):
    with pytest.raises(NotDegreeCompatible):
        with_frobenius(s1, (11, 3), MonomialOrder("lex"))


def test_with_frobenius_rejects_outside_cone(s1, deglex):
    with pytest.raises(ValueError):
        with_frobenius(s1, (1, 1), deglex)
    with pytest.raises(ValueError):
        with_frobenius(s1, (0, 0), deglex)


def test_with_frobenius_full_cone(n2, deglex):
    fiber = with_frobenius(n2, (1, 1), deglex)
    for T in fiber.results:
        assert verify_isemigroup(n2, T)
        assert frobenius(T, deglex) == (1, 1)
    assert len(fiber.results) == len({T.gaps for T in fiber.results})


def test_with_multiplicities_pool(s1, s1_gen):
    ctx = apery_context(s1_gen, [(10, 2), (6, 2)])
    assert sorted(ctx.core - {(0, 0)}) == EXPECTED_POOL


def test_with_multiplicities_counts(s1):
    results = with_multiplicities(s1, [(10, 2), (6, 2)])
    # all 2048 subsets: the empty one contributes the translated semigroup
    # itself, provably missed by every nonempty subset; the reference
    # count covers the 2047 nonempty subsets
    assert len(results) == 352
    base = ideal_from_set(s1, [(10, 2), (6, 2)])
    base_t = isemigroup_from_ideal(base)
    assert any(T.gaps == base_t.gaps for T in results)

    pool = EXPECTED_POOL
    nonempty_keys = set()
    for mask in range(1, 1 << len(pool)):
        chosen = [pool[i] for i in range(len(pool)) if mask >> i & 1]
        nonempty_keys.add(
            minimal_elements(s1, frozenset(chosen) | {(10, 2), (6, 2)})
        )
    assert len(nonempty_keys) == 351


def test_with_multiplicities_brute_force_agreement(s1):
    M = [(10, 2), (6, 2)]
    member = closure_member(S1_GENS, 40)
    expected = multiplicity_fiber_by_masks(member, EXPECTED_POOL, M)
    results = with_multiplicities(s1, M)
    assert {T.gaps - s1.gaps: T.gens for T in results} == expected
    assert len(results) == len(expected)


def test_with_multiplicities_dedup_law(s1):
    results = with_multiplicities(s1, [(10, 2), (6, 2)])
    assert len({T.gens for T in results}) == len({T.gaps for T in results}) == len(results)


def test_with_multiplicities_every_result_verifies(s1):
    results = with_multiplicities(s1, [(10, 2), (6, 2)])
    for T in results[::17]:
        assert verify_isemigroup(s1, T)


def test_with_multiplicities_verified_filter(s1):
    target = {(10, 2), (6, 2)}
    strict = with_multiplicities(s1, [(10, 2), (6, 2)], verify_multiplicities=True)
    assert all(
        set(T.multiplicities()) == target for T in strict
    )
    loose = with_multiplicities(s1, [(10, 2), (6, 2)])
    dropped = [
        T for T in loose
        if set(T.multiplicities()) != target
    ]
    assert len(loose) == len(strict) + len(dropped)
    assert dropped  # the pool holds (5,1), which lowers a multiplicity


def test_with_multiplicities_med_member(s1, deglex):
    # choosing nothing from the pool yields the multiplicity translate
    mults = s1.multiplicities()
    results = with_multiplicities(s1, mults)
    base_t = isemigroup_from_ideal(ideal_from_set(s1, mults))
    assert any(T.gaps == base_t.gaps for T in results)


@given(data=st.one_of(small_csemigroups(), orthant_csemigroups()),
       order=st.sampled_from([MonomialOrder("deglex"), MonomialOrder("degrevlex"),
                              MonomialOrder("deglex", (1, 0)),
                              MonomialOrder("degrevlex", (2, 0, 1))]),
       grade=st.integers(1, 18), pick=st.integers(0, 9))
@settings(max_examples=60, deadline=None)
def test_with_frobenius_matches_masks(data, order, grade, pick):
    S, member, points, c = data
    assume(order.priority is None or len(order.priority) == S.dim)
    at_grade = [p for p in points(grade) if sum(p) == grade]
    assume(at_grade)
    f = at_grade[pick % len(at_grade)]
    # in ℕ³ the fiber can be astronomically large, so the candidates are
    # counted by the oracle before the library enumerates them
    assume(sum(
        1 for x in points(grade)
        if order.compare(x, f) == -1 and member(x)
        and not member(tuple(a - b for a, b in zip(f, x)))
    ) <= 10)
    fiber = with_frobenius(S, f, order)
    assume(len(fiber.candidates) <= 10)
    expected = frobenius_fiber_by_masks(
        member, points(max(grade, c)), f, lambda x: order.compare(x, f) == -1
    )
    assert {T.gaps for T in fiber.results} == expected
    assert len(fiber.results) == len(expected)
    assert list(fiber.results) == sorted(fiber.results, key=canonical_key)
    for T in fiber.results:
        scratch = GapSemigroup(S.cone, T.gaps).minimal_generators()
        assert T.gens == minimal_elements(S, scratch)


@given(data=st.one_of(small_csemigroups(), orthant_csemigroups()), draws=st.data())
@settings(max_examples=40, deadline=None)
def test_with_multiplicities_matches_masks(data, draws):
    S, member, points, c = data
    M = []
    for d in S.cone.rays:
        k = draws.draw(st.integers(1, 11 if S.dim == 1 else 2))
        while not member(tuple(k * a for a in d)):
            k += 1
        M.append(tuple(k * a for a in d))
    origin = tuple(0 for _ in M[0])
    # a core element w has w - m a gap or outside the cone for each m in M,
    # so its grade is at most the grades of M plus c
    core = brute_apery_core(member, points(sum(map(sum, M)) + c), M)
    assume(len(core) <= 11)
    assert apery_context(S, M).core == core
    pool = core - {origin}
    verify = draws.draw(st.booleans())
    results = with_multiplicities(S, M, verify_multiplicities=verify)
    expected = multiplicity_fiber_by_masks(member, pool, M)
    if verify:
        # keep the results whose least element on each ray is M's
        def least(d, lost):
            k = 1
            while not member(p := tuple(k * a for a in d)) or p in lost:
                k += 1
            return p

        expected = {
            lost: gens for lost, gens in expected.items()
            if [least(d, lost) for d in S.cone.rays] == M
        }
    assert {T.gaps - S.gaps: T.gens for T in results} == expected
    assert len(results) == len(expected)
    assert list(results) == sorted(results, key=canonical_key)


def _tree_against_oracles(S, member, points, c, verified_levels):
    """Three tree levels of S against the full verifier and the pair scan.

    The nodes of the first ``verified_levels`` levels must pass
    ``verify_isemigroup``.  With no gaps above grade c, every element above
    grade 2c + 6 splits into two elements (no Hilbert basis element of these
    cones has grade above 6), so the generators come from a finite scan.  A
    removable pair is two minimal generators, or a minimal generator a and
    2a, and every divisor of a point lies below it coordinatewise, so the
    pair scan needs only the points below those.
    """
    levels = enumerate_tree(S, S.genus + 2, MonomialOrder("deglex"))
    for node in (n for lvl in levels[:verified_levels] for n in lvl):
        assert verify_isemigroup(S, node.semigroup)
    msg = brute_msg(member, points(2 * c + 7))
    tops = msg | {tuple(2 * u for u in a) for a in msg}
    near = points(max(map(sum, tops)))
    elements = {p for p in near if sum(p) > c or member(p)}
    below = [p for p in near if any(all(u <= v for u, v in zip(p, t)) for t in tops)]
    expected = removable_pairs(elements.__contains__, below, set(S.gaps))
    assert {n.semigroup.gaps for n in levels[2]} == expected


@given(data=small_csemigroups())
@settings(max_examples=30, deadline=None)
def test_tree_matches_verifier_and_pairs(data):
    _tree_against_oracles(*data, verified_levels=3)


@given(data=orthant_csemigroups())
@settings(max_examples=8, deadline=None)
def test_orthant_tree_matches_verifier_and_pairs(data):
    _tree_against_oracles(*data, verified_levels=3)


def _partition_numbers(n):
    """p(0), ..., p(n) by Euler's pentagonal-number recurrence."""
    p = [1]
    for m in range(1, n + 1):
        total, k = 0, 1
        while (g := k * (3 * k - 1) // 2) <= m:
            sign = 1 if k % 2 else -1
            total += sign * (p[m - g] + (p[m - g - k] if g + k <= m else 0))
            k += 1
        p.append(total)
    return p


def _plane_partition_numbers(n):
    """pp(0), ..., pp(n), the coefficients of MacMahon's generating function
    prod_j (1 - x^j)^(-j), multiplied out one factor 1 / (1 - x^j) at a time."""
    pp = [1] + [0] * n
    for j in range(1, n + 1):
        for _ in range(j):
            for m in range(j, n + 1):
                pp[m] += pp[m - j]
    return pp


def _plane_partitions_in_box(a, b, c):
    """MacMahon's count of the plane partitions in an a × b × c box."""
    count = Fraction(1)
    for i, j, k in itertools.product(range(1, a + 1), range(1, b + 1), range(1, c + 1)):
        count *= Fraction(i + j + k - 1, i + j + k - 2)
    return count


def test_free_semigroups_match_their_closed_forms(n2, deglex):
    # on N^p a node is N^p less a down-set D of N^p \ {0}, and D with 0 is
    # a (p-1)-dimensional partition: the tree's level k counts the
    # partitions of k + 1 on N^2 and the plane partitions of k + 1 on N^3,
    # and a multiplicity fiber lists the nonempty down-sets of the box
    # below M, those that hold every ray point below M when verified
    n3 = GapSemigroup(Cone.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)]), [])
    assert tree_counts(n2, 14, deglex) == _partition_numbers(15)[1:]
    assert tree_counts(n3, 9, deglex) == _plane_partition_numbers(10)[1:]
    for a, b in [(3, 4), (6, 6)]:
        M = [(a, 0), (0, b)]
        assert len(with_multiplicities(n2, M)) == math.comb(a + b, a) - 1
        verified = with_multiplicities(n2, M, verify_multiplicities=True)
        assert len(verified) == math.comb(a + b - 2, a - 1)
    for a, count in [(2, 19), (3, 979)]:
        assert _plane_partitions_in_box(a, a, a) == count + 1
        assert len(with_multiplicities(n3, [(a, 0, 0), (0, a, 0), (0, 0, a)])) == count


def _cut_fiber(S, genus, start, pool, coords):
    """The gap sets of the fiber walk from ``start`` over ``pool``, cut at
    ``genus``; ``coords`` are the cone coordinates of the start's
    generators."""
    if start is None or start.genus > genus:
        return set()
    depth = genus - start.genus
    U = enumeration._rooted(S, start, coords, pool=pool, depth=depth)
    walk = enumeration._walk(U, 10**6, depth)
    return {frozenset(U.points[r] for r in n[4]) for n in walk}


def _fiber_partitions(S, order, top):
    """The tree's nodes up to genus ``top``, grouped by Frobenius element
    and by per-ray least elements, against the Frobenius fibers and the
    verified multiplicity fibers cut at ``top``: each node has one
    Frobenius element and one tuple of per-ray least elements, so the
    groups are the fibers, and the starts of both fibers and the tree's
    root are checked against each other, with no brute force.  Returns the
    tree's semigroups and the Frobenius fibers, keyed by target."""
    tree = [n.semigroup for level in enumerate_tree(S, top, order) for n in level]
    by_f, by_m = {}, {}
    for T in tree:
        if T.gaps:
            by_f.setdefault(frobenius(T, order), set()).add(T.gaps)
        by_m.setdefault(T.multiplicities(), set()).add(T.gaps)
    fibers = {}
    for f in {h for T in tree for h in T.gaps}:
        _, *start = enumeration._frobenius_start(S, f, order, 10**6)
        fibers[f] = _cut_fiber(S, top, *start)
    assert fibers == {f: by_f.get(f, set()) for f in fibers}
    # a node loses at most top - genus(S) points, so at most that many ray
    # points below its least element on each ray
    lost = top - S.genus
    on_ray = [
        [scale(k, d) for k in range(1, 60) if scale(k, d) not in S.gaps][: lost + 1]
        for d in S.cone.rays
    ]
    ms = [M for M in itertools.product(*on_ray)
          if sum(ray.index(m) for ray, m in zip(on_ray, M)) <= lost]
    assert by_m.keys() <= set(ms)
    for M in ms:
        start = enumeration._multiplicity_start(S, M, True)
        assert _cut_fiber(S, top, *start) == by_m.get(M, set())
    return tree, fibers


@pytest.mark.parametrize(
    "gens, nodes",
    [(S1_GENS, 616), (((1, 0), (0, 1)), 29), (((5,), (7,), (9,)), 44)],
)
def test_fibers_partition_the_tree(gens, nodes, deglex):
    S = gaps(GenSemigroup(gens))
    tree, fibers = _fiber_partitions(S, deglex, S.genus + 5)
    assert len(tree) == nodes
    # the root lies in the fiber of F(S); N^2 has no gaps, so its root in none
    assert [f for f, fiber in fibers.items() if S.gaps in fiber] == (
        [frobenius(S, deglex)] if S.gaps else []
    )


@given(data=band_csemigroups(max_a={1: 12, 2: 4, 3: 3}), draws=st.data())
@settings(max_examples=30, deadline=None)
def test_fibers_partition_drawn_trees(data, draws):
    """The partition identities of ``_fiber_partitions`` on C-semigroups
    drawn in dimensions 1-3, over cones of lower dimension than their
    lattice among them, under deglex and degrevlex with a drawn priority
    (the Frobenius fiber needs a degree-compatible order), to a drawn
    genus a few levels below the root.  The band's lower grade stays small
    in dimensions 2 and 3, where the semigroups of a higher one have up to
    100 minimal generators and each example would take seconds."""
    gens, _, _ = data
    S = gaps(GenSemigroup(gens, warn_redundant=False))
    priority = tuple(draws.draw(st.permutations(range(S.dim))))
    name = draws.draw(st.sampled_from(["deglex", "degrevlex"]))
    levels = draws.draw(st.integers(0, {1: 5, 2: 3, 3: 2}[S.dim]))
    _fiber_partitions(S, MonomialOrder(name, priority), S.genus + levels)
