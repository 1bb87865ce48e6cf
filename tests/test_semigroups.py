import inspect
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csemigroups import (
    BudgetExceeded,
    Cone,
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
    pseudo_frobenius,
    with_multiplicities,
)
from csemigroups import semigroups
from csemigroups.lattice import primitive, vadd
from conftest import D3_GENS, S1_GENS, S1_GAPS, S2_GENS
from bruteforce import (
    box_filter_core,
    brute_apery_core,
    brute_msg,
    closure_member,
    fixture_cone_points,
    generator_bound_form,
    in_fixture_cone,
    least_lattice_multiple,
    sum_closure,
    window_gap_scan,
)
from strategies import (
    NOT_C_GENS,
    apery_inputs,
    gap_documents,
    orthant_csemigroups,
    simplicial_semigroups,
    small_csemigroups,
)

EXPECTED_SUM_BOX_S2 = {
    (0, 0), (8, 2), (9, 2), (12, 3), (17, 4), (18, 4), (20, 5), (21, 5),
    (24, 6), (26, 6), (27, 6), (29, 7), (30, 7), (32, 8), (33, 8), (35, 8),
    (36, 9), (38, 9), (39, 9), (41, 10), (42, 10), (44, 11), (45, 11),
    (47, 11), (50, 12), (51, 12), (53, 13), (54, 13), (59, 14), (62, 15),
    (63, 15), (71, 17),
}


def test_contains_examples(s1_gen, s2_gen):
    assert s2_gen.contains((31, 8))
    assert s1_gen.contains((0, 0))
    assert not s1_gen.contains((8, 2))


def test_contains_agrees_with_forward_closure(s1_gen):
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


# the non-simplicial cone of the CLI fuzz: four extremal rays in ℕ³, and
# its lattice points are those with z <= x + y
FOUR_RAYS = ((0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1))


@st.composite
def non_simplicial_generators(draw):
    """The four rays, or two multiples (up to 5) of each, plus up to three
    drawn cone points of grade at most 4."""
    if draw(st.booleans()):
        gens = set(FOUR_RAYS)
    else:
        gens = {
            tuple(k * x for x in d)
            for d in FOUR_RAYS
            for k in draw(st.lists(st.integers(1, 5), min_size=2, max_size=2, unique=True))
        }
    cone_points = [
        p for p in product(range(5), repeat=3) if 0 < sum(p) <= 4 and p[2] <= p[0] + p[1]
    ]
    gens |= set(draw(st.lists(st.sampled_from(cone_points), max_size=3)))
    return sorted(gens)


@given(
    gens=st.one_of(
        simplicial_semigroups().map(lambda data: data[0]), non_simplicial_generators()
    )
)
@settings(max_examples=150, deadline=None)
def test_descent_matches_closure_on_every_lattice_point(gens):
    """The descent on cone coordinates against the forward closure, on
    every point of ℕ^p up to the oracle grade, simplicial or not; a
    member's witness rebuilds it from the generators."""
    S = GenSemigroup(gens, warn_redundant=False)
    top = {1: 30, 2: 14, 3: 8}[S.dim]
    member = closure_member(gens, top)
    for p in product(range(top + 1), repeat=S.dim):
        if sum(p) > top:
            continue
        assert S.contains(p) == member(p), p
        w = S.witness(p)
        if member(p):
            rebuilt = tuple(
                sum(k * g[c] for k, g in zip(w, S.generators)) for c in range(S.dim)
            )
            assert rebuilt == p
        else:
            assert w is None
    assert not S.contains((-1,) + (top,) * (S.dim - 1))
    assert not S.contains((1,) * (S.dim + 1))


def test_redundant_generator_removed_with_warning():
    with pytest.warns(UserWarning, match="redundant"):
        s = GenSemigroup([(5, 1), (6, 2), (11, 3)])
    assert s.generators == ((5, 1), (6, 2))


def test_redundant_generator_warning_names_the_calling_line():
    with pytest.warns(UserWarning, match="redundant") as record:
        line = inspect.currentframe().f_lineno + 1
        GenSemigroup([(5, 1), (6, 2), (11, 3)])
    assert (record[0].filename, record[0].lineno) == (__file__, line)


def test_reduce_keeps_lex_order_and_warns_in_lex_order():
    gens = [(16, 4), (13, 3), (12, 4), (11, 3), (10, 2), (6, 2), (5, 1)]
    with pytest.warns(UserWarning) as record:
        s = GenSemigroup(gens)
    assert s.generators == ((5, 1), (6, 2), (13, 3))
    assert [str(w.message) for w in record] == [
        f"redundant generator {g} removed"
        for g in [(10, 2), (11, 3), (12, 4), (16, 4)]
    ]


@given(
    gens=st.one_of(
        simplicial_semigroups().map(lambda data: data[0]), non_simplicial_generators()
    ),
    pairs=st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_construction_memo_is_the_descent_memo(gens, pairs):
    """Generator reduction leaves in the membership memo the entries that a
    fresh descent over the final generators writes, with redundant
    generators (sums of two drawn ones) in the input, over simplicial cones
    of full and lower rank and the four-ray cone; witnesses then agree with
    a semigroup whose memo was reset."""
    redundant = [vadd(gens[i % len(gens)], gens[j % len(gens)]) for i, j in pairs]
    S = GenSemigroup(gens + redundant, warn_redundant=False)
    assert all(nums in S._memo for nums in S._gen_nums)
    for nums, index in S._memo.items():
        fresh = {S._origin: -1}
        assert semigroups._combination_index(nums, S._gen_nums, fresh) == index, nums
    reset = GenSemigroup(gens + redundant, warn_redundant=False)
    reset._memo = {reset._origin: -1}
    top = {1: 24, 2: 24, 3: 11}[S.dim]
    for p in product(range(top + 1), repeat=S.dim):
        if sum(p) <= top:
            assert S.witness(p) == reset.witness(p), p


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
    # passes the per-ray gcd precheck yet has infinitely many gaps: its core
    # {0} meets one of the two classes modulo ⊕ ℤ (1,0) ⊕ ℤ (1,2)
    skew = GenSemigroup([(1, 0), (1, 2)])
    with pytest.raises(NotCSemigroup) as info:
        gaps(skew, budget=3000)
    assert info.value.residue == (1, 1)
    assert info.value.ray is None and info.value.gcd is None
    # ⟨50,51⟩: the closure of its 50-point core decides 1,273 points, then
    # the scan visits grades 0..2449, up to the Frobenius number 2449, the
    # last gap grade the Apery table proves
    for budget, grade in ((1273, 0), (3722, 2449)):
        with pytest.raises(BudgetExceeded) as info:
            gaps(GenSemigroup([(50,), (51,)]), budget=budget)
        assert str(info.value) == (
            f"the budget of {budget} points ran out: the Apery core's closure "
            f"decided 1273 of them, and the gap scan reached grade {grade} of 2449"
        )
    assert gaps(GenSemigroup([(50,), (51,)]), budget=3723).genus == 1225


def test_gaps_refuses_before_scanning(monkeypatch):
    def scan(*args, **kwargs):
        raise AssertionError("gaps() ran the window scan")

    monkeypatch.setattr(semigroups, "certified_gap_scan", scan)
    for gens in (NOT_C_GENS, ((1, 0), (1, 2)), ((4,), (6,))):
        with pytest.raises(NotCSemigroup):
            gaps(GenSemigroup(gens))


def test_gaps_budget_bounds_the_core_closure():
    # the common Apery core of (1000,0) and (0,1000) has about 10^6 points;
    # the closure stops once its descents have decided more than the budget
    S = GenSemigroup([(1000, 0), (1001, 0), (0, 1000), (0, 1001)])
    with pytest.raises(BudgetExceeded):
        gaps(S, budget=1000)
    assert len(S._memo) < 2000
    # a cached core costs nothing: the 2,450 scanned points, grades
    # 0..2449, fill the budget
    T = GenSemigroup([(50,), (51,)])
    T._apery_table()
    with pytest.raises(BudgetExceeded):
        gaps(T, budget=2449)
    assert gaps(T, budget=2450).genus == 1225


@pytest.mark.parametrize(
    "gens, top",
    [
        (S1_GENS, 10),
        (((5,), (7,), (9,)), 13),
        (D3_GENS, 1),
        (((50,), (51,)), 2449),
        (((3,), (5,)), 7),
    ],
)
def test_gaps_scan_stops_at_the_last_gap_grade(monkeypatch, gens, top):
    # a gap of a class has ν_i below the least ray hit h_i of its core
    # elements, so no gap lies above the largest w(r) + Σ (h_i − 1)·w(n_i);
    # on these fixtures that bound is the last gap grade
    _, G, grades = _scanned_grades(monkeypatch, gens)
    assert max(grades) == max(map(sum, G.gaps)) == top


def _scanned_grades(monkeypatch, gens):
    """S = ⟨gens⟩, gaps(S) and the grades its scan walked."""
    grades = []
    listing = Cone.graded_split
    monkeypatch.setattr(
        Cone, "graded_split", lambda self, g: grades.append(g) or listing(self, g)
    )
    S = GenSemigroup(gens)
    G = gaps(S)
    monkeypatch.undo()
    return S, G, grades


@pytest.mark.parametrize(
    "gens, top",
    [
        (((4, 9), (7, 9), (1, 8), (3, 4), (1, 9)), 298),
        (((8, 7), (3, 4), (8, 9), (9, 8), (7, 9)), 194),
    ],
)
def test_gaps_scans_up_to_the_table_bound_past_the_window(monkeypatch, gens, top):
    """On these inputs the table's bound lies above the grade where the
    window certificate stops; gaps() scans up to the bound and lists the
    gaps of the window oracle and of the closure."""
    S, G, grades = _scanned_grades(monkeypatch, gens)
    assert max(grades) == top
    mults = S.multiplicities()
    weights = [sum(n) for n in mults]
    window_stop = max(sum(weights), max(map(sum, G.gaps)) + 1) + max(weights)
    assert window_stop <= top
    assert G.gaps == window_gap_scan(S.cone, S.contains, mults)
    closure = sum_closure(list(gens), top)
    cone_points = (p for g in range(top + 1) for p in S.cone.graded_points(g))
    assert G.gaps == {p for p in cone_points if p not in closure}


@pytest.mark.parametrize(
    "gens, ray, residue",
    [
        (NOT_C_GENS, (0, 1), (1, 0)),
        (((1, 0), (1, 2)), None, (1, 1)),
        (((2, 0, 0), (3, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 0, 1), (1, 0, 0)),
        (((2, 2, 0), (3, 3, 0), (1, 1, 1)), (1, 1, 1), (1, 1, 0)),
    ],
)
def test_gaps_refuses_with_the_missing_class(gens, ray, residue):
    # decided by a closure that decides at most six points, before any scan
    with pytest.raises(NotCSemigroup) as info:
        gaps(GenSemigroup(gens), budget=6)
    assert (info.value.ray, info.value.residue) == (ray, residue)


def _scale_ray(gens, d, factor):
    """Generators with those on ray d scaled by ``factor``, as the
    benchmark builds its rejects."""
    return [
        tuple(factor * x for x in g) if primitive(g) == d else g for g in gens
    ]


@pytest.mark.parametrize(
    "gens",
    [S1_GENS, ((2, 0, 0), (3, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1))],
)
@pytest.mark.parametrize("factor", [2, 3])
def test_gaps_refuses_ray_scaled_rejects(gens, factor):
    for d in GenSemigroup(gens).cone.rays:
        with pytest.raises(NotCSemigroup) as info:
            gaps(GenSemigroup(_scale_ray(gens, d, factor), warn_redundant=False))
        assert (info.value.ray, info.value.gcd) == (d, factor)


@given(data=simplicial_semigroups(), pick=st.integers(0, 2), factor=st.sampled_from((2, 3)))
@settings(max_examples=120, deadline=None)
def test_gaps_table_matches_scan_and_closure(data, pick, factor):
    """gaps() against the window scan and the closure, or a proven refusal.

    A C-semigroup's gaps equal the scan's and, up to one window past the
    largest gap and the ray grades, the closure's complement; its ray-scaled
    reject is refused on that ray.  A refusal is checked by the closure:
    every window of width max w(n_i) above sum w(n_i) holds a gap, so the
    scan could never stop, and a named residue plus every multiple of the
    named ray's multiplicity is a gap, or, when no ray is named, plus every
    combination of the multiplicities.
    """
    gens, in_cone, points = data
    S = GenSemigroup(gens, warn_redundant=False)
    mults = S.multiplicities()
    weights = [sum(n) for n in mults]
    wsum, wmax = sum(weights), max(weights)
    try:
        G = gaps(S)
    except NotCSemigroup as exc:
        top = wsum + 4 * wmax
        closure = sum_closure(gens, top)
        holes = {sum(p) for p in points(top) if p not in closure}
        assert all(holes & set(range(w, w + wmax)) for w in range(wsum, top - wmax + 1))
        if exc.residue is not None:
            steps = mults if exc.ray is None else [mults[S.cone.rays.index(exc.ray)]]
            assert in_cone(exc.residue)
            for ks in product(*(range(top // sum(n) + 1) for n in steps)):
                x = tuple(
                    a + sum(k * n[c] for k, n in zip(ks, steps))
                    for c, a in enumerate(exc.residue)
                )
                assert sum(x) > top or x not in closure, x
        return
    top = max(max(map(sum, G.gaps), default=0), wsum) + wmax
    closure = sum_closure(gens, top)
    assert G.gaps == {p for p in points(top) if p not in closure}
    assert G.gaps == window_gap_scan(S.cone, S.contains, mults)
    d = S.cone.rays[pick % len(S.cone.rays)]
    with pytest.raises(NotCSemigroup) as info:
        gaps(GenSemigroup(_scale_ray(gens, d, factor), warn_redundant=False))
    assert (info.value.ray, info.value.gcd) == (d, factor)


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


@given(data=simplicial_semigroups())
@settings(max_examples=80, deadline=None)
def test_gaps_keeps_the_generators_as_msg(data):
    """gaps() hands S to its result as the generated form, whose minimal
    generators the generated form of the gap set alone reproduces."""
    S = GenSemigroup(data[0], warn_redundant=False)
    try:
        G = gaps(S)
    except NotCSemigroup:
        return
    assert vars(G)["_generated"] is S
    assert G.minimal_generators() == GapSemigroup(S.cone, G.gaps).minimal_generators()


def test_gap_form_reuses_the_generated_semigroup(monkeypatch):
    """gaps(S) hands S itself to its result as the generated form, so a
    fiber over the multiplicities reads the core that gaps() cached."""
    S = GenSemigroup(S1_GENS)
    G = gaps(S)
    assert G.as_generated() is S

    def refuse(*args):
        raise AssertionError("the Apery core was built a second time")

    monkeypatch.setattr(semigroups, "_apery_core", refuse)
    results = with_multiplicities(G, S.multiplicities())
    monkeypatch.undo()
    fresh = GapSemigroup(S.cone, G.gaps)
    assert fresh.as_generated() is not S
    assert results == with_multiplicities(fresh, S.multiplicities())


def _closure_error(G):
    try:
        G.validate_closure()
    except ValueError as exc:
        return str(exc)
    return None


@given(data=gap_documents())
@settings(max_examples=300, deadline=None)
def test_generated_form_matches_the_generator_bound_form(data):
    """A gap document's generated form, built from the multiplicities and
    the points that shed none of them, against the form generated by every
    point up to the generator bound, on closed and unclosed gap sets in
    dimensions 1-3: the same minimal generators, the same closure verdict
    and the same error text."""
    doc = data[0]
    cone = Cone.from_generators([tuple(d) for d in doc["rays"]])
    gap_set = [tuple(h) for h in doc["gaps"]]
    new = GapSemigroup(cone, gap_set)
    old = GapSemigroup(cone, gap_set, generated=generator_bound_form(cone, gap_set))
    assert new.as_generated().generators == old.as_generated().generators
    assert new.minimal_generators() == old.minimal_generators()
    assert _closure_error(new) == _closure_error(old)


def test_minimal_generators_roundtrip(s1, s1_gen):
    assert s1.minimal_generators() == frozenset(S1_GENS)
    regen = gaps(GenSemigroup(sorted(s1.minimal_generators())))
    assert regen.gaps == s1.gaps


def test_minimal_generators_full_cone(n2):
    assert n2.minimal_generators() == {(1, 0), (0, 1)}


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
    assert set(s1_gen.multiplicities()) == {(5, 1), (6, 2)}
    assert set(s2_gen.multiplicities()) == {(5, 1), (6, 2)}
    assert set(n2.multiplicities()) == {(1, 0), (0, 1)}
    assert s1.multiplicities() == s1_gen.multiplicities()


def test_apery_context_s2(s2_gen):
    ctx = apery_context(s2_gen, [(5, 1), (6, 2)])
    by_gen = dict(zip(s2_gen.generators, ctx.multipliers))
    assert by_gen == {(5, 1): 1, (6, 2): 1, (8, 2): 2, (9, 2): 4, (12, 3): 4}
    assert ctx.sum_box == frozenset(EXPECTED_SUM_BOX_S2)
    assert ctx.core == {(0, 0), (8, 2), (9, 2), (12, 3)}


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


def test_apery_core_matches_bruteforce(s2_gen):
    member = closure_member(list(S2_GENS), 95)
    elems = [p for p in sum_closure(list(S2_GENS), 88)]
    expected = brute_apery_core(member, elems, [(5, 1), (6, 2)])
    ctx = apery_context(s2_gen, [(5, 1), (6, 2)])
    assert ctx.core == expected


@given(data=apery_inputs())
@settings(max_examples=60, deadline=None)
def test_apery_core_matches_box_filter_and_definition(data):
    S, M, member, _, elems = data
    ctx = apery_context(S, M)
    # q = the number of classes modulo ⊕ ℤ m_i always works, and that is at
    # most a t×t minor of M, below Π w(m_i)
    cap = prod(map(sum, M))
    assert list(ctx.multipliers) == [
        least_lattice_multiple(n, ctx.ray_elements, cap) for n in ctx.base.generators
    ]
    box = box_filter_core(member, ctx.base.generators, ctx.multipliers, M)
    assert ctx.core == box
    assert ctx.core == brute_apery_core(member, elems, M)


def test_apery_core_is_built_without_the_sum_box():
    # every point above grade 10 over the fixture cone: 18 minimal
    # generators, an 18-point core, and a sum box of 25,522 points
    S = GapSemigroup(
        Cone.from_generators([(3, 1), (5, 1)]),
        [p for p in fixture_cone_points(10) if any(p)],
    )
    M = [(9, 3), (10, 2)]
    ctx = apery_context(S, M)
    assert "sum_box" not in vars(ctx)
    assert len(ctx.base.generators) == 18

    def member(p):
        return in_fixture_cone(p) and (sum(p) > 10 or not any(p))

    # a point of grade 24 = w(M) or more has some p - m_i in the cone, of
    # grade above 10 and so in S: the core lies below grade 24
    assert ctx.core == brute_apery_core(member, fixture_cone_points(24), M)
    assert len(ctx.core) == 18
    assert len(ctx.sum_box) == 25522
    assert ctx.core <= ctx.sum_box


def test_apery_core_closure_splits_only_the_ray_elements(monkeypatch):
    # the closure carries each core point's numerators, so it splits the t
    # ray elements, never 0, a sum or a difference
    gens = [(7, 0), (9, 0), (0, 7), (0, 9), (3, 3), (4, 5)]
    S = GenSemigroup(gens)
    splits = []
    split = S._numerators
    monkeypatch.setattr(S, "_numerators", lambda x: splits.append(x) or split(x))
    cone_split = Cone._numerators
    monkeypatch.setattr(
        Cone, "_numerators", lambda self, x: splits.append(x) or cone_split(self, x)
    )
    core = semigroups._apery_core(S, [S._numerators(m) for m in S.multiplicities()])
    monkeypatch.undo()
    assert len(splits) <= len(S.cone.rays)
    fresh = GenSemigroup(gens)
    assert core == fresh._apery_table().core
    assert len(core) == 121
    assert len(S._memo) == len(fresh._memo)


# on these inputs no other generator, nor its cone coordinates, equals a
# ray element or the coordinates of one (S1's (10,3) has coordinates (5,1))
@pytest.mark.parametrize(
    "gens, M",
    [
        (S2_GENS, None),
        (S1_GENS, [(10, 2), (6, 2)]),
        (((5,), (7,), (9,)), None),
        (D3_GENS, None),
    ],
)
def test_apery_core_takes_no_step_along_a_ray_element(monkeypatch, gens, M):
    # (w + m) − m = w is in S, so w + m is never in the core: the closure
    # adds neither a ray element nor its cone coordinates to a core point
    S = GenSemigroup(gens)
    M = M or S.multiplicities()
    thresholds = [S._numerators(m) for m in M]
    ray_steps = set(M) | set(thresholds)
    summands = []
    add = semigroups.vadd
    monkeypatch.setattr(semigroups, "vadd", lambda a, b: summands.append(b) or add(a, b))
    semigroups._apery_core(S, thresholds)
    monkeypatch.undo()
    assert summands and not ray_steps & set(summands)


def test_semigroup_and_apery_table_split_each_point_once(monkeypatch):
    # building S1 splits 0 and each generator once; the table of (10,2),
    # (6,2) splits each ray element once for its membership test and its
    # closure threshold.  The cone's own ray certificate is not counted.
    splits = []
    cone_split = Cone._numerators
    monkeypatch.setattr(
        Cone, "_numerators", lambda self, x: splits.append(x) or cone_split(self, x)
    )
    build = Cone.from_generators.__func__

    def uncounted(cls, points):
        before = len(splits)
        cone = build(cls, points)
        del splits[before:]
        return cone

    monkeypatch.setattr(Cone, "from_generators", classmethod(uncounted))
    S = GenSemigroup(S1_GENS)
    ctx = apery_context(S, [(10, 2), (6, 2)])
    monkeypatch.undo()
    assert len(set(splits)) == 10
    assert len(splits) <= 11
    member = closure_member(list(S1_GENS), 70)
    elems = sum_closure(list(S1_GENS), 60)
    assert ctx.core == brute_apery_core(member, elems, [(10, 2), (6, 2)])


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
