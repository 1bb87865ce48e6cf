from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csemigroups import (
    BudgetExceeded,
    EmptyGaps,
    GapSemigroup,
    GenSemigroup,
    MonomialOrder,
    NotCSemigroup,
    NotInSemigroup,
    NotOnRays,
    apery_context,
    frobenius,
    gaps,
    minimal_generators,
    multiplicities,
    oracle_member,
    pseudo_frobenius,
)
from conftest import S1_GENS, S1_GAPS, S2_GENS
from bruteforce import (
    brute_apery_core,
    brute_msg,
    closure_member,
    fixture_cone_points,
    sum_closure,
)
from strategies import orthant_csemigroups, small_csemigroups

EXPECTED_SUM_BOX_S2 = {
    (0, 0), (8, 2), (9, 2), (12, 3), (17, 4), (18, 4), (20, 5), (21, 5),
    (24, 6), (26, 6), (27, 6), (29, 7), (30, 7), (32, 8), (33, 8), (35, 8),
    (36, 9), (38, 9), (39, 9), (41, 10), (42, 10), (44, 11), (45, 11),
    (47, 11), (50, 12), (51, 12), (53, 13), (54, 13), (59, 14), (62, 15),
    (63, 15), (71, 17),
}


def test_oracle_member_examples(s1_gen, s2_gen):
    assert oracle_member(s2_gen, (31, 8))
    assert oracle_member(s1_gen, (0, 0))
    assert not oracle_member(s1_gen, (8, 2))


def test_oracle_member_agrees_with_forward_closure(s1_gen):
    member = closure_member(list(S1_GENS), 40)
    for p in fixture_cone_points(40):
        assert s1_gen.contains(p) == member(p), p


def test_witness_reconstructs_the_point(s2_gen):
    for p in [(31, 8), (5, 1), (23, 6), (0, 0)]:
        w = s2_gen.witness(p)
        assert w is not None
        rec = [0, 0]
        for lam, g in zip(w, s2_gen.generators):
            rec[0] += lam * g[0]
            rec[1] += lam * g[1]
        assert tuple(rec) == p
    assert s2_gen.witness((2, 1)) is None


def test_redundant_generator_removed_with_warning():
    with pytest.warns(UserWarning, match="redundant"):
        s = GenSemigroup([(5, 1), (6, 2), (11, 3)])
    assert s.generators == ((5, 1), (6, 2))


def test_gaps_s1(s1_gen, s1):
    assert s1.genus == 4
    assert s1.gaps == frozenset(S1_GAPS)


def test_gaps_full_cone():
    s = GenSemigroup([(1, 0), (0, 1)])
    assert gaps(s).genus == 0


def test_gaps_not_csemigroup(s2_gen):
    with pytest.raises(NotCSemigroup) as info:
        gaps(s2_gen)
    assert info.value.ray == (3, 1)
    assert info.value.gcd == 2


def test_gaps_budget_exceeded_is_inconclusive():
    # passes the per-ray gcd precheck yet has infinitely many gaps
    skew = GenSemigroup([(1, 0), (1, 2)])
    with pytest.raises(BudgetExceeded):
        gaps(skew, budget=3000)


@given(data=st.one_of(small_csemigroups(), orthant_csemigroups()))
@settings(max_examples=60, deadline=None)
def test_gaps_matches_closure(data):
    """gaps() of a drawn semigroup's generators against their closure.

    The generators come from a brute-force scan of the drawn construction;
    none lies above grade 2c + 6 (no Hilbert basis element of these cones
    has grade above 6), and neither does a gap of their closure.
    """
    _, member, points, c = data
    top = 2 * c + 7
    gens = sorted(brute_msg(member, points(top)))
    closure = sum_closure(gens, top)
    expected = {p for p in points(top) if p not in closure}
    assert gaps(GenSemigroup(gens)).gaps == expected


def test_minimal_generators_roundtrip(s1, s1_gen):
    assert minimal_generators(s1) == frozenset(S1_GENS)
    regen = gaps(GenSemigroup(sorted(minimal_generators(s1))))
    assert regen.gaps == s1.gaps


def test_minimal_generators_full_cone(n2):
    assert minimal_generators(n2) == {(1, 0), (0, 1)}


def test_minimal_generators_after_removal(s1):
    t = GapSemigroup(s1.cone, s1.gaps | {(5, 1)})
    msg = t.minimal_generators()
    expected = brute_msg(t.contains, fixture_cone_points(40))
    assert msg == expected
    assert (10, 2) in msg


def test_frobenius(s1, deglex):
    assert frobenius(s1, deglex) == (8, 2)
    assert frobenius(s1, MonomialOrder("lex")) == (8, 2)
    single = GapSemigroup(s1.cone, [(3, 1)])
    assert frobenius(single, deglex) == (3, 1)


def test_frobenius_empty(n2, deglex):
    with pytest.raises(EmptyGaps):
        frobenius(n2, deglex)


def test_multiplicities(s1_gen, s2_gen, n2, s1):
    assert set(multiplicities(s1_gen)) == {(5, 1), (6, 2)}
    assert set(multiplicities(s2_gen)) == {(5, 1), (6, 2)}
    assert set(multiplicities(n2)) == {(1, 0), (0, 1)}
    assert multiplicities(s1) == multiplicities(s1_gen)


def test_apery_context_s2(s2_gen):
    ctx = apery_context(s2_gen, [(5, 1), (6, 2)])
    by_gen = dict(zip(s2_gen.generators, ctx.multipliers))
    assert by_gen == {(5, 1): 1, (6, 2): 1, (8, 2): 2, (9, 2): 4, (12, 3): 4}
    assert ctx.sum_box == frozenset(EXPECTED_SUM_BOX_S2)
    assert ctx.core == {(0, 0), (8, 2), (9, 2), (12, 3)}


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


@pytest.mark.parametrize(
    "gens, M",
    [
        (S1_GENS, [(5, 1), (6, 2)]),
        (S1_GENS, [(10, 2), (6, 2)]),
        (S2_GENS, [(5, 1), (6, 2)]),
        (S2_GENS, [(15, 3), (12, 4)]),
        (((3,), (5,), (7,)), [(6,)]),
        (
            ((2, 0, 0), (3, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1)),
            [(2, 0, 0), (0, 2, 0), (0, 0, 1)],
        ),
    ],
)
def test_apery_multipliers_are_least_lattice_multiples(gens, M):
    S = GenSemigroup(gens)
    ctx = apery_context(S, M)
    expected = [least_lattice_multiple(n, ctx.ray_elements) for n in S.generators]
    assert list(ctx.multipliers) == expected
    with pytest.raises(BudgetExceeded):
        apery_context(S, M, multiplier_cap=max(expected) - 1)


def test_apery_core_matches_bruteforce(s2_gen):
    member = closure_member(list(S2_GENS), 95)
    elems = [p for p in sum_closure(list(S2_GENS), 88)]
    expected = brute_apery_core(member, elems, [(5, 1), (6, 2)])
    ctx = apery_context(s2_gen, [(5, 1), (6, 2)])
    assert ctx.core == expected


def test_apery_law(s2_gen):
    ctx = apery_context(s2_gen, [(5, 1), (6, 2)])
    for s in ctx.core:
        for m in ctx.ray_elements:
            d = tuple(a - b for a, b in zip(s, m))
            assert not (min(d) >= 0 and s2_gen.contains(d))
    for s in ctx.sum_box - ctx.core:
        assert any(
            min(d := tuple(a - b for a, b in zip(s, m))) >= 0 and s2_gen.contains(d)
            for m in ctx.ray_elements
        )


def test_apery_context_errors(s1_gen):
    with pytest.raises(NotOnRays):
        apery_context(s1_gen, [(4, 1), (6, 2)])  # (4,1) interior
    with pytest.raises(NotOnRays):
        apery_context(s1_gen, [(5, 1)])  # ray (3,1) uncovered
    with pytest.raises(NotOnRays):
        apery_context(s1_gen, [(5, 1), (10, 2)])  # same ray twice
    with pytest.raises(NotInSemigroup):
        apery_context(s1_gen, [(5, 1), (3, 1)])  # (3,1) is a gap
    with pytest.raises(BudgetExceeded):
        apery_context(s1_gen, [(5, 1), (6, 2)], multiplier_cap=1)


def test_gamma_translates_generate_the_ideal(s1_gen, s1):
    # the translated sum box generates the same monoid as (M+S) plus zero
    M = [(5, 1), (6, 2)]
    ctx = apery_context(s1_gen, M)
    translates = sorted(
        {tuple(a + b for a, b in zip(m, g)) for m in ctx.ray_elements for g in ctx.sum_box}
    )
    regenerated = GenSemigroup(translates, warn_redundant=False)

    def in_ideal_plus_zero(p):
        if not any(p):
            return True
        return any(
            min(d := tuple(a - b for a, b in zip(p, m))) >= 0 and s1_gen.contains(d)
            for m in M
        )

    for p in fixture_cone_points(40):
        assert regenerated.contains(p) == in_ideal_plus_zero(p), p


def test_pseudo_frobenius(s1):
    got = pseudo_frobenius(s1)
    assert got <= s1.gaps
    # frozen from the direct definition scan below
    assert got == {(4, 1), (7, 2), (8, 2)}
    # additivity: generator test equals the all-elements test on a box
    for h in s1.gaps:
        gen_test = all(
            s1.contains(tuple(a + b for a, b in zip(h, n)))
            for n in s1.minimal_generators()
        )
        full_test = all(
            s1.contains(tuple(a + b for a, b in zip(h, s)))
            for s in fixture_cone_points(40)
            if any(s) and s1.contains(s)
        )
        assert gen_test == full_test


def test_pseudo_frobenius_trivial_cases(n2, s1):
    assert pseudo_frobenius(n2) == frozenset()
    single = GapSemigroup(s1.cone, [(3, 1)])
    assert pseudo_frobenius(single) == {(3, 1)}


def test_gap_membership_equals_oracle(s1, s1_gen):
    for p in fixture_cone_points(40):
        assert s1.contains(p) == s1_gen.contains(p), p


def test_gap_closure_validation(s1):
    s1.validate_closure()
    broken = GapSemigroup(s1.cone, [(10, 2)])  # (5,1)+(5,1) lands on a gap
    with pytest.raises(ValueError, match="sum"):
        broken.validate_closure()


def test_gap_semigroup_rejects_bad_gaps(s1):
    with pytest.raises(ValueError):
        GapSemigroup(s1.cone, [(0, 0)])
    with pytest.raises(ValueError):
        GapSemigroup(s1.cone, [(1, 1)])  # outside the cone
