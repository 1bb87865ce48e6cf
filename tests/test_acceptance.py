"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Two assertions are knowingly red; the analysis lives next to them:

* criterion 1 expects 51 semigroups in the genus tree up to genus 6, but the
  set of valid two-element removals provably has 30 members (checked here by
  an exhaustive, tree-free scan), giving 1 + 8 + 30 = 39 in total;
* criterion 6 expects the genus-4 base fixture not to have maximal embedding
  dimension, but its Apery core is exhaustively equal to {0} plus the six
  non-ray generators, which is the definition of having it.
"""

import random
import time

from csemigroups import (
    apery_context,
    decompose,
    enumerate_tree,
    fast_member,
    frobenius,
    ideal_from_set,
    is_med_definition,
    is_med_pairwise,
    med_construct,
    med_via_translates,
    minimal_elements,
    precompute,
    pseudo_frobenius,
    verify_isemigroup,
    with_frobenius,
    with_multiplicities,
)
from bruteforce import (
    brute_apery_core,
    closure_member,
    fixture_cone_points,
    removable_pairs,
    sum_closure,
)
from conftest import S1_GENS, S1_GAPS

EXPECTED_SUM_BOX_S2 = {
    (0, 0), (8, 2), (9, 2), (12, 3), (17, 4), (18, 4), (20, 5), (21, 5),
    (24, 6), (26, 6), (27, 6), (29, 7), (30, 7), (32, 8), (33, 8), (35, 8),
    (36, 9), (38, 9), (39, 9), (41, 10), (42, 10), (44, 11), (45, 11),
    (47, 11), (50, 12), (51, 12), (53, 13), (54, 13), (59, 14), (62, 15),
    (63, 15), (71, 17),
}
EXPECTED_CORE_S2 = {(0, 0), (8, 2), (9, 2), (12, 3)}
EXPECTED_MSG_T = {
    (5, 1), (6, 2), (13, 3), (14, 3), (14, 4), (15, 4), (17, 4), (18, 5),
}
EXPECTED_POOL = {
    (5, 1), (9, 2), (9, 3), (10, 3), (12, 3), (13, 3), (13, 4),
    (14, 3), (14, 4), (17, 4), (18, 4),
}
FIBER_X_POOL = {(9, 2), (9, 3), (10, 2), (10, 3)}


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail else ""
    print(f"ACCEPTANCE {number} ({name}): {status}{suffix}")


def test_criterion_1_tree_count(s1, deglex):
    started = time.perf_counter()
    levels = enumerate_tree(s1, 6, deglex)
    elapsed = time.perf_counter() - started
    total = sum(len(level) for level in levels)
    assert elapsed < 10.0
    ok = total == 51
    report(
        1,
        "tree count to genus 6",
        ok,
        f"got {total} in {elapsed:.2f}s (levels {[len(l) for l in levels]})",
    )
    # Exhaustive cross-check, independent of the tree machinery: the
    # genus-6 members are exactly the valid joint removals of two nonzero
    # elements, and there are 30 of them, not 42.
    direct = removable_pairs(s1.contains, fixture_cone_points(30), set(s1.gaps))
    assert {frozenset(n.semigroup.gaps) for n in levels[2]} == direct
    assert total == 51, (
        f"enumeration finds {total} semigroups of genus at most 6 "
        f"(levels {[len(l) for l in levels]}); the stated 51 matches the "
        "variant that removes minimal generators without the ideal-minimality "
        "reduction, which yields 52 nodes, 51 of them labelled non-roots"
    )


def test_criterion_2_genus(s1_gen, s1):
    member = closure_member(list(S1_GENS), 40)
    brute = {
        p for p in fixture_cone_points(40) if any(p) and not member(p)
    }
    ok = s1.genus == 4 and s1.gaps == frozenset(S1_GAPS) == brute
    report(2, "genus and gap set", ok, f"genus {s1.genus}, gaps {sorted(s1.gaps)}")
    assert s1.genus == 4
    assert s1.gaps == brute == frozenset(S1_GAPS)


def test_criterion_3_fixed_frobenius(s1, deglex):
    fiber = with_frobenius(s1, (11, 3), deglex)
    kept_parts = {frozenset(FIBER_X_POOL - T.gaps) for T in fiber.results}
    ok = (
        len(fiber.results) == 16
        and fiber.candidates == frozenset(FIBER_X_POOL)
        and len(kept_parts) == 16
        and all(
            frobenius(T, deglex) == (11, 3)
            for T in fiber.results
        )
    )
    report(3, "fixed Frobenius fiber", ok, f"{len(fiber.results)} semigroups")
    assert ok
    for T in fiber.results:
        assert verify_isemigroup(s1, T)


def test_criterion_4_fixed_multiplicities(s1):
    started = time.perf_counter()
    results = with_multiplicities(s1, [(10, 2), (6, 2)])
    elapsed = time.perf_counter() - started

    pool = sorted(apery_context(s1.as_generated(), [(10, 2), (6, 2)]).core - {(0, 0)})
    assert frozenset(pool) == EXPECTED_POOL

    # The reference count covers the 2047 nonempty subsets of the pool; the
    # full scan additionally finds the empty-choice member (M+S) with zero,
    # which no nonempty subset can reproduce.
    nonempty = set()
    for mask in range(1, 1 << len(pool)):
        chosen = [pool[i] for i in range(len(pool)) if mask >> i & 1]
        nonempty.add(minimal_elements(s1, frozenset(chosen) | {(10, 2), (6, 2)}))
    all_keys = {T.gens for T in results}

    x1 = [(5, 1), (9, 2), (9, 3), (10, 3), (12, 3), (13, 3), (13, 4), (14, 3), (14, 4), (17, 4)]
    x2 = [(5, 1), (9, 2), (9, 3), (10, 3), (12, 3), (13, 3), (13, 4), (14, 3), (14, 4), (18, 4)]
    collapsed = minimal_elements(s1, x1 + [(10, 2), (6, 2)])
    ok = (
        len(nonempty) == 351
        and len(all_keys) == 352
        and frozenset(minimal_elements(s1, frozenset({(10, 2), (6, 2)}))) in all_keys - nonempty
        and collapsed == minimal_elements(s1, x2 + [(10, 2), (6, 2)])
        and len(collapsed) == 8
        and elapsed < 60.0
    )
    report(
        4,
        "fixed multiplicities",
        ok,
        f"351 from the 2047 nonempty subsets, +1 empty-choice member, "
        f"{elapsed:.1f}s",
    )
    assert ok


def test_criterion_5_gamma_and_med_construction(s2_gen):
    ctx = apery_context(s2_gen, [(5, 1), (6, 2)])
    built = med_construct(s2_gen, [(5, 1), (6, 2)])
    ok = (
        ctx.sum_box == frozenset(EXPECTED_SUM_BOX_S2)
        and ctx.core == frozenset(EXPECTED_CORE_S2)
        and built.msg == frozenset(EXPECTED_MSG_T)
    )
    report(
        5,
        "sum box, Apery core, constructed generators",
        ok,
        f"|box| {len(ctx.sum_box)}, core {sorted(ctx.core)}",
    )
    assert ok


def test_criterion_6_med_predicates_agree(s1_gen, s2_gen, n2, s1):
    fixtures = {
        "S2": s2_gen,
        "S1": s1_gen,
        "N2": n2,
        "construct(S1,E)": med_construct(s1, s1.multiplicities()).semigroup,
        "construct(S2,E)": med_construct(s2_gen, [(5, 1), (6, 2)]).semigroup,
    }
    verdicts = {}
    for name, s in fixtures.items():
        a = is_med_definition(s).is_med
        b = is_med_pairwise(s)
        c = med_via_translates(s)
        assert a == b == c, name
        verdicts[name] = a
    ok = (
        verdicts["S2"]
        and verdicts["N2"]
        and verdicts["construct(S1,E)"]
        and verdicts["construct(S2,E)"]
    )
    report(
        6,
        "MED predicates agree",
        ok,
        f"all three routes agree on every fixture; S1 computes {verdicts['S1']}",
    )
    assert ok


def test_criterion_6_s1_expected_value(s1_gen):
    """The stated expected value here is False; computation says True.

    The exhaustive core below covers every candidate (each core element lies
    in the bounded sum box, whose largest grade is 196): it equals {0} plus
    the six non-ray generators exactly, so the fixture does have maximal
    embedding dimension.  The stated counterexample sum (9,2)+(9,2) fails
    because (18,4)-(5,1) = (13,3) is itself a generator.
    """
    member = closure_member(list(S1_GENS), 210)
    elems = sum_closure(list(S1_GENS), 200)
    core = brute_apery_core(member, elems, [(5, 1), (6, 2)])
    non_ray = frozenset(S1_GENS) - {(5, 1), (6, 2)}
    assert core == {(0, 0)} | non_ray  # exhaustive: the fixture is MED
    computed = is_med_definition(s1_gen).is_med
    report(
        6,
        "stated MED value for the genus-4 fixture",
        computed is False,
        f"computed {computed}, stated expected value False",
    )
    assert computed is False, (
        "the genus-4 fixture has maximal embedding dimension: its Apery core "
        f"is exhaustively {sorted(core)} = non-ray generators plus zero"
    )


def test_criterion_7_fast_membership(s1_gen, s2_gen):
    ctx2 = precompute(s2_gen)
    answer = fast_member(ctx2, (31, 8))
    ok = answer.member and answer.remainder == (9, 2)
    disagreements = []
    for s in (s1_gen, s2_gen):
        ctx = precompute(s)
        for p in fixture_cone_points(40):
            if fast_member(ctx, p).member != s.contains(p):
                disagreements.append(p)
    for p in [(5, 1), (6, 2), (10, 2)]:
        ok = ok and fast_member(ctx2, p).member
    ok = ok and not disagreements
    report(
        7,
        "fast membership",
        ok,
        f"(31,8) true via remainder {answer.remainder}, "
        f"{len(disagreements)} disagreements up to grade 40",
    )
    assert ok


def test_criterion_8_property_suites(s1, s1_gen, s2_gen, n2, deglex):
    # uniqueness of canonical generating sets over 500 random subsets
    rng = random.Random(5)
    elems = [p for p in fixture_cone_points(25) if any(p) and s1.contains(p)]
    seen = {}
    def member_from_x(p, X):
        return any(
            min(d := tuple(a - b for a, b in zip(p, x))) >= 0 and s1.contains(d)
            for x in X
        )
    samples = []
    for _ in range(500):
        X = frozenset(rng.sample(elems, rng.randrange(1, 7)))
        samples.append((X, ideal_from_set(s1, X).gens))
    for i in range(len(samples)):
        xa, ga = samples[i]
        for j in range(i + 1, len(samples)):
            xb, gb = samples[j]
            if ga == gb:
                assert all(
                    member_from_x(p, xa) == member_from_x(p, xb)
                    for p in sorted(xa | xb)
                )
            else:
                assert any(
                    member_from_x(p, xa) != member_from_x(p, xb)
                    for p in sorted(ga | gb)
                )

    # sandwich property for every tree node up to genus 6 (39 nodes; the
    # criterion's "51" figure inherits the criterion-1 discrepancy)
    levels = enumerate_tree(s1, 6, deglex)
    node_count = 0
    for level in levels:
        for node in level:
            t = node.semigroup
            assert s1.gaps <= t.gaps  # T inside S
            lost = t.gaps - s1.gaps
            pf = pseudo_frobenius(t)
            assert lost <= pf  # S inside T plus its pseudo-Frobenius set
            node_count += 1

    # decomposition identity on the grade-40 box
    for s in (s1_gen, s2_gen, n2):
        assert decompose(s).verify_on_box(40)

    # gap law for the translated multiplicity ideal, set-exact
    core = apery_context(s1_gen, s1.multiplicities()).core
    built = med_construct(s1, s1.multiplicities())
    assert built.isemigroup.gaps == s1.gaps | (core - {(0, 0)})

    report(
        8,
        "structural property suites",
        True,
        f"uniqueness on 500 subsets, sandwich on {node_count} nodes, "
        "decomposition and gap law exact",
    )
