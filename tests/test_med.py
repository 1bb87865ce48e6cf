from dataclasses import replace
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings

from csemigroups import (
    GenSemigroup,
    TriState,
    apery_context,
    decompose,
    gaps,
    ideal_from_set,
    is_med_definition,
    is_med_pairwise,
    isemigroup_from_ideal,
    med_construct,
    med_type2_check,
    med_via_translates,
    minimal_elements,
    verify_isemigroup,
)
from csemigroups import Cone, med
from csemigroups.med import _ray_section_is_cone
from bruteforce import (
    box_filter_core,
    brute_apery_core,
    closure_member,
    decomposition_disagreement_by_scan,
    fixture_cone_points,
    grade_scan_head,
    ray_section_is_cone_by_scan,
    reduced_translates,
    sum_closure,
    type2_by_box_scan,
)
from conftest import D3_GENS, S1_GENS, S2_GENS
from strategies import apery_inputs, simplicial_semigroups

EXPECTED_MSG_T = frozenset(
    [(5, 1), (6, 2), (13, 3), (14, 3), (14, 4), (15, 4), (17, 4), (18, 5)]
)


def test_is_med_definition_s2(s2_gen):
    report = is_med_definition(s2_gen)
    assert report.is_med
    assert report.apery_core == {(0, 0), (8, 2), (9, 2), (12, 3)}
    assert report.non_ray_generators == {(8, 2), (9, 2), (12, 3)}
    assert report.witness is None


def test_is_med_definition_s1_against_bruteforce(s1_gen):
    """The running genus-4 semigroup is itself of maximal embedding dimension.

    Frozen from the independent scan below: the common Apery core of the two
    multiplicities consists precisely of zero and the six non-ray generators
    (every sum of two of them sheds the multiplicity (5,1) or (6,2) inside
    the semigroup, e.g. (9,2)+(9,2)-(5,1) = (13,3), a generator).
    """
    member = closure_member(list(S1_GENS), 210)
    elems = [p for p in sum_closure(list(S1_GENS), 200)]
    expected_core = brute_apery_core(member, elems, [(5, 1), (6, 2)])
    report = is_med_definition(s1_gen)
    assert report.apery_core == expected_core
    assert expected_core == {(0, 0)} | report.non_ray_generators
    assert report.is_med


def test_is_med_definition_full_cone(n2):
    report = is_med_definition(n2)
    assert report.is_med
    assert report.apery_core == {(0, 0)}
    assert report.non_ray_generators == frozenset()


def test_is_med_negative_case_has_witness():
    # without (13,3), the sum (9,2)+(9,2) sheds neither multiplicity:
    # minus (5,1) gives (13,3), now absent; minus (6,2) leaves the cone
    s = GenSemigroup([g for g in S1_GENS if g != (13, 3)])
    assert not s.contains((13, 3))
    report = is_med_definition(s)
    assert not report.is_med
    assert report.witness is not None
    a, b = report.witness
    for n in s.multiplicities():
        d = tuple(x + y - z for x, y, z in zip(a, b, n))
        assert not (min(d) >= 0 and s.contains(d))
    assert not is_med_pairwise(s)
    assert not med_via_translates(s)


def test_is_med_pairwise(s1_gen, s2_gen, n2):
    assert is_med_pairwise(s2_gen)
    assert is_med_pairwise(s1_gen)
    assert is_med_pairwise(n2)


def test_pairwise_example_witness(s2_gen):
    # (8,2)+(9,2)-(5,1) = (12,3) inside the semigroup
    assert s2_gen.contains((12, 3))


def test_med_construct_s2(s2_gen):
    built = med_construct(s2_gen, [(5, 1), (6, 2)])
    assert built.msg == EXPECTED_MSG_T
    assert built.isemigroup is None  # base not a verified C-semigroup
    assert is_med_definition(built.semigroup).is_med


def test_med_construct_gap_law_s1(s1, s1_gen):
    built = med_construct(s1, s1.multiplicities())
    ctx = apery_context(s1_gen, s1.multiplicities())
    assert built.isemigroup is not None
    assert built.isemigroup.gaps == s1.gaps | (ctx.core - {(0, 0)})
    assert built.isemigroup.genus == s1.genus + len(ctx.core) - 1
    # independent route: certified scan over the translated ideal
    scan = isemigroup_from_ideal(ideal_from_set(s1, s1.multiplicities()))
    assert scan.gaps == built.isemigroup.gaps
    assert verify_isemigroup(s1, built.isemigroup)


@pytest.mark.parametrize(
    "gens, M",
    [
        (S1_GENS, [(5, 1), (6, 2)]),
        (S1_GENS, [(10, 2), (6, 2)]),
        (S2_GENS, [(5, 1), (6, 2)]),
        (S2_GENS, [(10, 2), (6, 2)]),
    ],
)
def test_med_construct_msg_is_the_reduced_sum_box_translates(gens, M):
    built = med_construct(GenSemigroup(gens), M)
    member = closure_member(list(gens), 200)
    box = built.context.sum_box
    assert built.msg == reduced_translates(member, box, built.context.ray_elements)


# k ≤ 2: on the orthant draws k = 2 gives over a thousand reduced translates
@given(data=apery_inputs(max_k=2))
@settings(max_examples=40, deadline=None)
def test_med_construct_msg_matches_box_oracle(data):
    S, M, member, _, _ = data
    built = med_construct(S, M)
    ctx = built.context
    box = box_filter_core(member, ctx.base.generators, ctx.multipliers, M)
    assert built.msg == reduced_translates(member, box, M)


def test_med_construct_full_cone(n2):
    built = med_construct(n2, [(1, 0), (0, 1)])
    # translating by the two unit rays only removes the origin; frozen from
    # the reduction of the translate pool
    assert built.msg == {(1, 0), (0, 1)}
    assert built.isemigroup.gaps == frozenset()
    assert is_med_definition(built.semigroup).is_med


def test_med_construct_outputs_are_med(s1, s2_gen):
    fixtures = [
        (s1, [(5, 1), (6, 2)]),
        (s1, [(10, 2), (6, 2)]),
        (s1, [(5, 1), (9, 3)]),
        (s2_gen, [(10, 2), (6, 2)]),
    ]
    for base, m in fixtures:
        built = med_construct(base, m)
        assert is_med_definition(built.semigroup).is_med
        assert is_med_pairwise(built.semigroup)
        assert med_via_translates(built.semigroup)


def test_med_criteria_agree(s1_gen, s2_gen, n2):
    for s in (s1_gen, s2_gen, n2):
        a = is_med_definition(s).is_med
        b = is_med_pairwise(s)
        c = med_via_translates(s)
        assert a == b == c


@given(data=simplicial_semigroups())
@settings(max_examples=60, deadline=None)
def test_med_criteria_agree_on_drawn_semigroups(data):
    """The definition, the pairwise criterion and the translate identity
    agree in dimensions 1-3, C-semigroup or not, and a TRUE from the type-2
    check implies MED."""
    S = GenSemigroup(data[0], warn_redundant=False)
    is_med = is_med_definition(S).is_med
    assert is_med_pairwise(S) == is_med == med_via_translates(S)
    if med_type2_check(S) is TriState.TRUE:
        assert is_med


def test_csemigroup_preserved_by_construction(s1, s2_gen):
    # C-semigroup base gives a C-semigroup translate, and vice versa
    built = med_construct(s1, [(5, 1), (6, 2)])
    assert built.isemigroup is not None
    gap_form = built.isemigroup
    gap_form.validate_closure()
    # non-C base: the translated semigroup cannot have finite gaps either
    built2 = med_construct(s2_gen, [(5, 1), (6, 2)])
    from csemigroups import NotCSemigroup
    with pytest.raises(NotCSemigroup):
        gaps(built2.semigroup)


def test_decompose_examples(s1_gen, s2_gen, n2):
    for s in (s1_gen, s2_gen, n2):
        dec = decompose(s)
        assert dec.verify_on_box(40)
    assert decompose(n2).head == {(0, 0)}


@given(data=apery_inputs())
@settings(max_examples=40, deadline=None)
def test_decompose_head_matches_grade_scan(data):
    S, _, member, in_cone, elems = data
    mults = S.multiplicities()
    assert decompose(S).head == grade_scan_head(member, in_cone, elems, mults)


def _least_gap(S, max_grade):
    return next(
        (x for g in range(max_grade + 1) for x in S.cone.graded_points(g)
         if not S.contains(x)),
        None,
    )


def _broken_decompositions(dec, max_grade):
    """The head without 0, the head plus the least gap up to ``max_grade``
    (when there is one), and each ray element doubled."""
    S = dec.base
    out = [replace(dec, head=dec.head - {(0,) * S.dim})]
    gap = _least_gap(S, max_grade)
    if gap is not None:
        out.append(replace(dec, head=dec.head | {gap}))
    for i, n in enumerate(dec.ray_elements):
        doubled = tuple(2 * c for c in n)
        elements = dec.ray_elements[:i] + (doubled,) + dec.ray_elements[i + 1 :]
        out.append(replace(dec, ray_elements=elements))
    return out


@given(data=simplicial_semigroups())
@settings(max_examples=100, deadline=None)
def test_decomposition_walk_matches_the_per_point_check(data):
    """The walk over split cone points stops at the same first disagreement
    as the per-point cone re-tests, for the true decomposition and broken
    ones, on C and non-C semigroups over cones of full and lower dimension."""
    gens, _, _ = data
    dec = decompose(GenSemigroup(gens, warn_redundant=False))
    assert dec._first_disagreement(12) is None
    assert decomposition_disagreement_by_scan(dec, 12) is None
    for broken in _broken_decompositions(dec, 12):
        first = broken._first_disagreement(12)
        assert first == decomposition_disagreement_by_scan(broken, 12)
        assert broken.verify_on_box(12) == (first is None)


@given(data=simplicial_semigroups(max_dim=2))
@settings(max_examples=60, deadline=None)
def test_decomposition_walk_matches_the_per_point_check_to_grade_40(data):
    """At grade 40 the walk ends at its stop grade, below 40 on most draws,
    and still finds the per-point check's first disagreement.  Doubling a
    ray element raises the stop grade, and so does a head holding the last
    gap up to grade 40."""
    gens, _, _ = data
    S = GenSemigroup(gens, warn_redundant=False)
    dec = decompose(S)
    broken = _broken_decompositions(dec, 40)
    last_gap = next(
        (x for g in range(40, -1, -1) for x in reversed(S.cone.graded_points(g))
         if not S.contains(x)),
        None,
    )
    if last_gap is not None:
        broken.append(replace(dec, head=dec.head | {last_gap}))
    for d in [dec, *broken]:
        assert d._first_disagreement(40) == decomposition_disagreement_by_scan(d, 40)


@pytest.mark.parametrize("gens", [S1_GENS, D3_GENS])
def test_decomposition_walk_stops_at_its_bound(gens, monkeypatch):
    """A point of S outside the cover sheds no n_i, so lies below grade
    Σ w(n_i); a point of the cover outside S is in the head.  The walk
    asks for no grade above the larger bound."""
    dec = decompose(GenSemigroup(gens))
    stop = max(sum(map(sum, dec.ray_elements)) - 1, max(map(sum, dec.head)))
    asked = []
    graded_split = Cone.graded_split
    monkeypatch.setattr(
        Cone, "graded_split", lambda self, g: asked.append(g) or graded_split(self, g)
    )
    assert dec.verify_on_box(40)
    assert stop < 40
    assert asked == list(range(stop + 1))


@pytest.mark.parametrize(
    "gens",
    [
        S1_GENS,
        ((2, 0), (3, 0), (0, 1), (1, 1)),
        D3_GENS,
    ],
)
def test_broken_decompositions_fail_the_box_check(gens):
    dec = decompose(GenSemigroup(gens))
    assert dec.verify_on_box(40)
    broken = _broken_decompositions(dec, 40)
    # each has a gap below grade 40, so the head plus a gap is among them
    assert len(broken) == 2 + len(dec.ray_elements)
    for b in broken:
        assert not b.verify_on_box(40)


def test_decompose_ray_sections(s2_gen):
    dec = decompose(s2_gen)
    # the (5,1)-section is the whole cone: adding (5,1) stays inside
    i = dec.ray_elements.index((5, 1))
    for p in fixture_cone_points(20):
        assert dec.in_ray_part(i, p)


def test_decompose_head_plus_ideal_form(s1):
    # nonzero part of the cover splits as head plus an ideal
    dec = decompose(s1.as_generated())
    box = fixture_cone_points(40)
    tail = [
        p for p in box
        if any(p) and s1.contains(p) and p not in dec.head
    ]
    X = minimal_elements(s1, tail)
    P = ideal_from_set(s1, X)
    for p in box:
        if s1.contains(p):
            assert p in dec.head or P.contains(p)


@given(data=simplicial_semigroups())
@settings(max_examples=120, deadline=None)
def test_ray_section_test_matches_the_grade_scan(data):
    """The Apery-table section test against the grade scan, on every ray of
    C and non-C semigroups over cones of full and lower dimension."""
    gens, _, _ = data
    S = GenSemigroup(gens, warn_redundant=False)
    table = S._apery_table()
    for k, n in enumerate(table.ray_elements):
        assert _ray_section_is_cone(table, k) == ray_section_is_cone_by_scan(S, n)


def test_med_type2(s1_gen, s2_gen, n2):
    assert med_type2_check(s2_gen) is TriState.TRUE
    # the two-ray reductions of the non-ray generators need different
    # multiplicities, so no single section certifies the criterion
    assert med_type2_check(s1_gen) is TriState.INCONCLUSIVE
    assert med_type2_check(n2) is TriState.TRUE


@given(data=simplicial_semigroups())
@settings(max_examples=150, deadline=None)
def test_type2_least_points_match_the_box_scan(data):
    """The scan of the section's least points against the scan of every
    section point, on a grade-12 box (the full box at grade 40 is too slow
    for 3-D draws), on C and non-C semigroups over cones of full and lower
    dimension.  The least-point scan lists no cone points."""
    gens, _, _ = data
    S = GenSemigroup(gens, warn_redundant=False)
    expected = type2_by_box_scan(S, 12)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(med, "_TYPE2_BOX_GRADE", 12)
        mp.setattr(Cone, "graded_points", None)
        assert med_type2_check(S).value == expected


# semigroups whose only violating pair of least section points (the pair
# named) has a point of exactly the grade given: the box of that grade
# refutes closure, the box one grade smaller sees none
TYPE2_EDGE_CASES = [
    # ⟨3, 7⟩ on the ray (1, 2), a cone of lower dimension than ℤ²
    ([(3, 6), (7, 14)], 12, ((4, 8), (4, 8))),
    ([(4,), (14,), (25,)], 21, ((10,), (21,))),
]


@pytest.mark.parametrize("gens, grade, pair", TYPE2_EDGE_CASES)
def test_type2_box_includes_its_boundary_grade(gens, grade, pair):
    S = GenSemigroup(gens)
    (n,) = S.multiplicities()  # one ray: the common multiplicity
    least = sorted(set(med._least_section_points(S._apery_table(), 0)))
    violations = [
        (a, b)
        for a, b in combinations_with_replacement(least, 2)
        if max(sum(a), sum(b)) <= grade
        and not S.contains(tuple(u + v + w for u, v, w in zip(a, b, n)))
    ]
    assert violations == [pair] and max(map(sum, pair)) == grade
    for box, expected in ((grade - 1, "inconclusive"), (grade, "false")):
        assert type2_by_box_scan(S, box) == expected
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(med, "_TYPE2_BOX_GRADE", box)
            assert med_type2_check(S).value == expected


@pytest.mark.parametrize("gens", [S1_GENS, S2_GENS, D3_GENS])
def test_type2_least_points_match_the_box_scan_at_grade_40(gens):
    S = GenSemigroup(gens)
    assert med_type2_check(S).value == type2_by_box_scan(S, 40)


def test_med_type2_implies_med(s1, s2_gen, n2):
    fixtures = [s2_gen, n2, s1.as_generated(),
                med_construct(s1, [(5, 1), (6, 2)]).semigroup]
    for s in fixtures:
        if med_type2_check(s) is TriState.TRUE:
            assert is_med_definition(s).is_med


def test_med_type2_false_when_hypothesis_fails():
    # generators sitting tight on the rays: (7,2)-(5,1)=(2,1) and
    # (7,2)-(3,1)=(4,1) both leave the cone <(3,1),(5,1)> after one step?
    s = GenSemigroup([(3, 1), (5, 1), (7, 2)])
    mults = s.multiplicities()
    m = (7, 2)
    outside = [
        n for n in mults
        if not s.cone.contains(tuple(a - b for a, b in zip(m, n)))
    ]
    if len(outside) == len(mults):
        assert med_type2_check(s) is TriState.FALSE
