"""Fixtures outside the plane: numerical (1-dimensional) and 3-dimensional.

Expected values are hand-derived and cross-checked with the brute-force
oracles, exercising the dimension-generic paths of every subsystem.
"""

from csemigroups import (
    GapSemigroup,
    GenSemigroup,
    MonomialOrder,
    decompose,
    enumerate_tree,
    fast_member,
    frobenius,
    gaps,
    is_med_definition,
    is_med_pairwise,
    med_via_translates,
    minimal_elements,
    precompute,
    verify_isemigroup,
    with_frobenius,
)
from bruteforce import closure_member
from conftest import D3_GENS as D3


def test_numerical_semigroup_gaps():
    s = GenSemigroup([(3,), (5,)])
    g = gaps(s)
    assert sorted(g.gaps) == [(1,), (2,), (4,), (7,)]
    assert g.genus == 4
    assert frobenius(g, MonomialOrder("deglex")) == (7,)
    assert frobenius(g, MonomialOrder("lex")) == (7,)
    member = closure_member([(3,), (5,)], 40)
    assert all(s.contains((k,)) == member((k,)) for k in range(41))


def test_numerical_semigroup_med():
    # 5 + 5 - 3 = 7 is a gap, so <3,5> lacks maximal embedding dimension
    s = GenSemigroup([(3,), (5,)])
    report = is_med_definition(s)
    assert not report.is_med
    assert report.apery_core == {(0,), (5,), (10,)}
    assert report.witness == ((5,), (5,))
    assert not is_med_pairwise(s)
    assert not med_via_translates(s)
    # the classic maximal case: every non-multiple generator is in the core
    assert is_med_definition(GenSemigroup([(2,), (3,)])).is_med
    assert is_med_definition(GenSemigroup([(4,), (5,), (6,), (7,)])).is_med


def test_numerical_semigroup_tree():
    # genus 5: drop either canonical generator; genus 6: from S\{3} both 5
    # and 6 remain removable, from S\{5} only 10 exceeds the removed element
    g = gaps(GenSemigroup([(3,), (5,)]))
    levels = enumerate_tree(g, 6, MonomialOrder("deglex"))
    assert [len(l) for l in levels] == [1, 2, 3]
    for level in levels:
        for node in level:
            assert verify_isemigroup(g, node.semigroup)


def test_numerical_frobenius_fiber_at_base_frobenius():
    # 13 is F(<5,7,9>): the origin is a candidate, yet the base itself is
    # listed once among the 16 semigroups
    g = gaps(GenSemigroup([(5,), (7,), (9,)]))
    deglex = MonomialOrder("deglex")
    fiber = with_frobenius(g, (13,), deglex)
    assert (0,) in fiber.candidates
    assert len(fiber.results) == len({T.gaps for T in fiber.results}) == 16
    assert any(T.gaps == g.gaps for T in fiber.results)
    for T in fiber.results:
        assert verify_isemigroup(g, T)
        assert frobenius(T, deglex) == (13,)


def _assert_tree_gens_from_scratch(base, levels):
    for node in (n for level in levels for n in level):
        scratch = GapSemigroup(base.cone, node.semigroup.gaps).minimal_generators()
        assert node.semigroup.gens == minimal_elements(base, scratch)


def test_numerical_tree_gens_match_scratch():
    g = gaps(GenSemigroup([(3,), (5,)]))
    levels = enumerate_tree(g, 10, MonomialOrder("deglex"))
    assert sum(map(len, levels)) > 20
    _assert_tree_gens_from_scratch(g, levels)


def test_numerical_fast_member():
    s = GenSemigroup([(3,), (5,)])
    ctx = precompute(s)
    assert ctx.core == {(0,), (5,), (10,)}
    for k in range(40):
        assert fast_member(ctx, (k,)).member == s.contains((k,))


def test_three_dimensional_tree():
    g = gaps(GenSemigroup([(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    assert g.genus == 0
    levels = enumerate_tree(g, 2, MonomialOrder("deglex"))
    assert [len(l) for l in levels] == [1, 3, 6]
    pairs = {frozenset(n.semigroup.gaps) for n in levels[2]}
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert pairs == {
        frozenset({e1, e2}), frozenset({e1, e3}), frozenset({e2, e3}),
        frozenset({e1, (2, 0, 0)}), frozenset({e2, (0, 2, 0)}),
        frozenset({e3, (0, 0, 2)}),
    }


def test_three_dimensional_tree_gens_match_scratch():
    g = gaps(GenSemigroup(D3))
    levels = enumerate_tree(g, 4, MonomialOrder("deglex"))
    assert [len(l) for l in levels] == [1, 6, 18, 43]
    _assert_tree_gens_from_scratch(g, levels)


def test_three_dimensional_tree_nodes_verify():
    # the benchmark's tree job on this fixture: every node passes the full
    # verifier, which the tree itself no longer runs
    g = gaps(GenSemigroup(D3))
    levels = enumerate_tree(g, 5, MonomialOrder("deglex"))
    assert all(verify_isemigroup(g, n.semigroup) for lvl in levels for n in lvl)


def test_three_dimensional_gap_scan():
    s = GenSemigroup(D3)
    g = gaps(s)
    assert sorted(g.gaps) == [(1, 0, 0)]
    assert g.minimal_generators() == frozenset(s.generators)
    assert decompose(s).verify_on_box(40)
    ctx = precompute(s)
    for grade in range(9):
        for p in s.cone.graded_points(grade):
            assert fast_member(ctx, p).member == s.contains(p)
