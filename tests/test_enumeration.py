import random
import re
import sys
import threading
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
from csemigroups import enumeration
from csemigroups.serialize import load_document, semigroup_to_document
from bruteforce import (
    brute_apery_core,
    brute_msg,
    canonical_key,
    closure_member,
    fixture_cone_points,
    frobenius_fiber_by_masks,
    fiber_by_walk,
    frobenius_top_by_removals,
    in_fixture_cone,
    multiplicity_fiber_by_masks,
    removable_pairs,
    removal_walk,
    remove_in_point_space,
    walk_levels,
)
from conftest import S1_GENS
from strategies import orthant_csemigroups, simplicial_semigroups, small_csemigroups

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
    # on a fresh base, the tree and both fibers read one split memo: the
    # removal steps split the minimal generators, a promoted step gets its
    # coordinates as a sum, a lost point is looked up, and the Frobenius
    # target joins the memo; no step tests membership in point space.  The
    # generated form behind the Apery pool is built before the count, so
    # its own descent splits (through a method bound then) are not counted.
    # The Frobenius fiber lists the cone points up to the grade 17 of its
    # target; gaps() scans only up to the last gap grade 10, so the cone's
    # graded-point cache is filled to grade 17 before the count too, and
    # the lattice points that listing splits are not counted.
    S = gaps(GenSemigroup(S1_GENS))
    S.as_generated()
    for g in range(18):
        S.cone.graded_points(g)
    splits = []
    split = Cone._numerators
    monkeypatch.setattr(
        Cone, "_numerators", lambda self, x: splits.append(x) or split(self, x)
    )
    monkeypatch.setattr(GapSemigroup, "contains", None)
    monkeypatch.setattr(Cone, "contains", None)
    order = MonomialOrder("deglex")
    levels = enumerate_tree(S, 9, order)
    fiber = with_frobenius(S, (14, 3), order)
    results = with_multiplicities(S, [(10, 2), (6, 2)])
    monkeypatch.undo()
    assert [len(level) for level in levels] == [1, 8, 30, 77, 166, 334]
    assert (len(fiber.results), len(results)) == (320, 352)
    assert len(splits) == len(set(splits))
    assert set(splits) <= S.minimal_generators() | {(14, 3)}


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


def test_threads_sharing_a_base_draw_distinct_bits():
    # four threads fill the divisor-mask memo of one fresh base at once, each
    # in its own order, switching every microsecond; a bit drawn twice shows
    # up in about half the rounds of a racy draw, so ten rounds are run
    for seed in range(10):
        S = gaps(GenSemigroup(S1_GENS))
        points = [x for x in fixture_cone_points(60) if any(x) and S.contains(x)]
        barrier = threading.Barrier(4)

        def fill(points):
            barrier.wait(timeout=60)
            for y in points:
                S._divisor_mask(y, S._split(y))

        orders = [random.Random(4 * seed + k).sample(points, len(points)) for k in range(4)]
        threads = [threading.Thread(target=fill, args=(order,)) for order in orders]
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
        masks = S._divisors[0]
        point_of = {mask.bit_length() - 1: y for y, mask in masks.items()}
        assert len(point_of) == len(masks) == len(points)
    # the last round's masks hold exactly the divisors in S∖{0}
    for y in points:
        mask = masks[y]
        divisors = {point_of[i] for i in range(mask.bit_length()) if mask >> i & 1}
        assert divisors == {
            z for z in points if z == y or S.contains(tuple(a - b for a, b in zip(y, z)))
        }


def test_threads_sharing_the_up_rows():
    # four threads walk the tree of one fresh base at once, switching every
    # microsecond, and fill its masks and up-rows between them; each walk
    # must match a serial walk on another fresh base
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
        masks, _, msg, rows = S._divisors
        assert rows
        assert len({mask.bit_length() for mask in masks.values()}) == len(masks)
        for x, row in rows.items():
            ys = [tuple(a + b for a, b in zip(x, n)) for n, _ in msg]
            assert row == tuple((y, masks[y], masks[y].bit_length() - 1) for y in ys)


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
    walk = enumeration._walk(S, T, enumeration._tuple_order, 2, {x}, depth=1)
    return [enumeration._semigroup(T.base, n) for n in walk if n[0]]


def _oracle_frobenius(S, f, order, budget):
    _, top, pool = enumeration._frobenius_start(S, f, order, budget)
    return [] if top is None else fiber_by_walk(S, top, pool, budget)


def _oracle_multiplicities(S, M, budget, verify=False):
    """The multiplicity fiber on the oracle walk, filtered by the
    results' own per-ray least elements."""
    root, pool, _ = enumeration._multiplicity_start(S, M)
    results = fiber_by_walk(S, root, pool, budget)
    if verify:
        M = set(apery_context(S, M).ray_elements)
        results = [T for T in results if set(T.multiplicities()) == M]
    return results


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


@given(data=simplicial_semigroups(), draws=st.data())
@settings(max_examples=100, deadline=None)
def test_frobenius_top_matches_removal_steps(data, draws):
    """The Frobenius fiber's top, built in one walk over the divisors of
    the target, against one certified removal step per divisor: the same
    gaps and ideal generators, and the same fiber (or budget error) walked
    from either top, in dimensions 1-3, under degree-compatible orders and
    over cones of lower dimension than their lattice."""
    gens, _, points = data
    try:
        S = gaps(GenSemigroup(gens, warn_redundant=False))
    except NotCSemigroup:
        assume(False)
    priority = tuple(draws.draw(st.permutations(range(S.dim))))
    name = draws.draw(st.sampled_from(["deglex", "degrevlex"]))
    order = MonomialOrder(name, priority)
    grade = draws.draw(st.integers(1, {1: 14, 2: 10, 3: 5}[S.dim]))
    at_grade = [p for p in points(grade) if sum(p) == grade]
    assume(at_grade)
    f = draws.draw(st.sampled_from(at_grade))
    walks = []
    walk = enumeration._removal_walk

    def recorded(S, T, pool, budget):
        walks.append((T, pool))
        return walk(S, T, pool, budget)

    with mock.patch.object(enumeration, "_removal_walk", recorded):
        got = _outcome(lambda: with_frobenius(S, f, order, budget=300).results)
    if not walks:
        # no top: f lies below a gap, or the candidates alone exceed the budget
        assert got == [] or got[0] == "BudgetExceeded"
        return
    ((top, pool),) = walks
    expected = frobenius_top_by_removals(S, f)
    assert (top.gaps, top.gens) == (expected.gaps, expected.gens)

    def from_expected():
        return sorted(walk(S, expected, pool, 300), key=canonical_key)

    assert got == _outcome(from_expected)


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
    step = enumeration._step
    monkeypatch.setattr(
        enumeration, "_step", lambda *args: steps.append(args[4]) or step(*args)
    )
    fiber = with_frobenius(S, f, MonomialOrder("deglex"))
    assert len(fiber.results) == count
    assert len(steps) == count - 1


@given(data=simplicial_semigroups(), draws=st.data())
@settings(max_examples=60, deadline=None)
def test_removal_path_matches_point_space(data, draws):
    """Down a drawn path of children, up to six levels below the root,
    where the divisor-mask memo has grown and every parent carries its
    generators' bits: each level's children, a corrupt parent holding a
    generator's multiple, and its removal give the same gap sets, ideal
    generators and error messages as the step in point space."""
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
    from its gaps alone: its sorted gaps and generators are that
    semigroup's, and its bits are those of that semigroup's generators in
    S's divisor masks.  Over an equal base that is not S, the children
    keep that base."""
    gens, _, _ = data
    try:
        S = gaps(GenSemigroup(gens, warn_redundant=False))
    except NotCSemigroup:
        assume(False)
    order = MonomialOrder("deglex")
    T = IdealSemigroup(S, S.gaps, gens=S.minimal_generators())
    for _ in range(6):
        walk = enumeration._walk(
            S, T, order.key, len(T.gens) + 1, depth=1, removed=big_o(S, T, order)
        )
        nodes = [n for n in walk if n[0]]
        kids = children(S, T, order)
        assert len(nodes) == len(kids)
        if not kids:
            break
        masks = S._divisors[0]
        for (_, x, node_gens, bits, node_gaps), child in zip(nodes, kids):
            full = IdealSemigroup(S, node_gaps)
            assert x in full.gaps and x not in T.gaps
            assert node_gaps == tuple(sorted(full.gaps))
            assert node_gens == tuple(sorted(full.gens))
            full_bits = 0
            for g in full.gens:
                full_bits |= 1 << masks[g].bit_length() - 1
            assert bits == full_bits
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


def _walk_outcome(nodes, masks):
    """What the library's walk gives, as the oracle's ``(k, x, gaps, gens)``
    per node, or the error's type and message; every node's tuples are
    sorted, and every node below the root carries its generators' bits."""
    out = []
    try:
        for k, x, gens, bits, hs in nodes:
            assert list(gens) == sorted(gens) and list(hs) == sorted(hs)
            if k:
                assert bits == sum({1 << masks()[g].bit_length() - 1 for g in gens})
            out.append((k, x, frozenset(hs), frozenset(gens)))
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
    masks = lambda: S._divisors[0]
    order = draws.draw(_tree_orders(S.dim))
    budget = draws.draw(st.sampled_from([5, 40, 400]))
    depth = draws.draw(st.integers(0, {1: 5, 2: 4, 3: 2}[S.dim]))
    root = IdealSemigroup(S, S.gaps, gens=S.minimal_generators())

    def agree(T, key, pool=None, depth=None, removed=None):
        nodes = enumeration._walk(S, T, key, budget, pool, depth, removed)
        oracle = removal_walk(S, T, key, budget, pool, depth, removed)
        assert _walk_outcome(nodes, masks) == _oracle_outcome(oracle)

    agree(root, order.key, depth=depth)

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
    agree(corrupt, order.key, depth=2, removed=big_o(S, T, order))

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
    agree(corrupt, enumeration._tuple_order, pool=pool)


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
    # the budget counts the walk's results before the multiplicity filter
    with pytest.raises(BudgetExceeded):
        with_multiplicities(s1, M, budget=351, verify_multiplicities=True)


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

    monkeypatch.setattr(enumeration, "_step", no_removal)
    with pytest.raises(BudgetExceeded):
        with_frobenius(n2, (400, 1), deglex, budget=10)


def test_frobenius_scan_stops_at_the_budget(n2, deglex, monkeypatch):
    # N^2 has g + 1 points of grade g, so the scan below (400, 1) passes 10
    # points at grade 4 (15 points) and asks for no later grade
    grades = []
    listed = Cone.graded_points

    def counted(cone, g):
        grades.append(g)
        return listed(cone, g)

    monkeypatch.setattr(Cone, "graded_points", counted)
    with pytest.raises(BudgetExceeded):
        with_frobenius(n2, (400, 1), deglex, budget=10)
    assert grades == [0, 1, 2, 3, 4]


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
