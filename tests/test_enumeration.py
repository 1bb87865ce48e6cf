import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from csemigroups import (
    GapSemigroup,
    IdealSemigroup,
    MonomialOrder,
    NotDegreeCompatible,
    SemigroupError,
    apery_context,
    big_o,
    children,
    enumerate_tree,
    frobenius,
    ideal_from_set,
    isemigroup_from_ideal,
    med_construct,
    minimal_elements,
    pseudo_frobenius,
    verify_isemigroup,
    with_frobenius,
    with_multiplicities,
)
from csemigroups.serialize import load_document, semigroup_to_document
from bruteforce import (
    brute_apery_core,
    brute_msg,
    closure_member,
    fixture_cone_points,
    frobenius_fiber_by_masks,
    in_fixture_cone,
    multiplicity_fiber_by_masks,
    removable_pairs,
)
from conftest import S1_GENS
from strategies import orthant_csemigroups, small_csemigroups

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
        assert frobenius(T.as_gap_semigroup(), deglex) == (11, 3)


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
        assert frobenius(T.as_gap_semigroup(), deglex) == (8, 2)


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
        assert frobenius(T.as_gap_semigroup(), deglex) == (1, 1)
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
        set(T.as_gap_semigroup().multiplicities()) == target for T in strict
    )
    loose = with_multiplicities(s1, [(10, 2), (6, 2)])
    dropped = [
        T for T in loose
        if set(T.as_gap_semigroup().multiplicities()) != target
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
    results = with_multiplicities(S, M)
    expected = multiplicity_fiber_by_masks(member, pool, M)
    assert {T.gaps - S.gaps: T.gens for T in results} == expected
    assert len(results) == len(expected)


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
    # a draw can have 55 minimal generators and 1,490 nodes on level 2, at
    # several ms of full verification each; the pair scan checks level 2
    _tree_against_oracles(*data, verified_levels=2)
