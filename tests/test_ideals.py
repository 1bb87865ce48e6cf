import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from csemigroups import (
    BudgetExceeded,
    ConeMismatch,
    GapSemigroup,
    GenSemigroup,
    IdealSemigroup,
    NotCSemigroup,
    NotInSemigroup,
    SemigroupError,
    apery_context,
    gaps,
    ideal_from_set,
    ideal_is_csemigroup,
    imsg_of_isemigroup,
    isemigroup_from_ideal,
    minimal_elements,
    verify_isemigroup,
)
from csemigroups.semigroups import _as_generated
from bruteforce import brute_minimals, fixture_cone_points, window_gap_scan
from conftest import S1_GENS
from strategies import apery_inputs, simplicial_semigroups

# the twelve-element generating sets that collapse to the same ideal
M_FIX = [(10, 2), (6, 2)]
X1_FIX = [(5, 1), (9, 2), (9, 3), (10, 3), (12, 3), (13, 3), (13, 4), (14, 3), (14, 4), (17, 4)]
X2_FIX = [(5, 1), (9, 2), (9, 3), (10, 3), (12, 3), (13, 3), (13, 4), (14, 3), (14, 4), (18, 4)]
COLLAPSED = frozenset(
    [(5, 1), (6, 2), (9, 2), (9, 3), (10, 3), (12, 3), (13, 3), (13, 4)]
)


def test_minimal_elements_examples(s1):
    assert minimal_elements(s1, M_FIX + X1_FIX) == COLLAPSED
    assert minimal_elements(s1, [(9, 2)]) == {(9, 2)}
    assert minimal_elements(s1, [(5, 1), (10, 2)]) == {(5, 1)}


def test_minimal_elements_vs_bruteforce(s1):
    rng = random.Random(11)
    elems = [p for p in fixture_cone_points(25) if any(p) and s1.contains(p)]
    for _ in range(30):
        X = rng.sample(elems, rng.randrange(1, 7))
        assert minimal_elements(s1, X) == brute_minimals(s1.contains, X)


def test_minimal_elements_requires_membership(s1):
    with pytest.raises(NotInSemigroup):
        minimal_elements(s1, [(3, 1)])


def test_minimal_elements_output_incomparable(s1):
    got = minimal_elements(s1, M_FIX + X2_FIX)
    for x in got:
        for y in got:
            if x != y:
                d = tuple(a - b for a, b in zip(x, y))
                assert not (min(d) >= 0 and s1.contains(d))


def test_ideal_from_set_uniqueness_fixture(s1):
    i1 = ideal_from_set(s1, M_FIX + X1_FIX)
    i2 = ideal_from_set(s1, M_FIX + X2_FIX)
    assert i1 == i2
    assert i1.gens == COLLAPSED


def test_ideal_from_zero_is_whole_semigroup(s1):
    P = ideal_from_set(s1, [(0, 0), (5, 1)])
    assert P.gens == {(0, 0)}
    assert P.is_whole_semigroup
    assert P.contains((0, 0)) and P.contains((5, 1))


def test_ideal_from_msg(s1):
    P = ideal_from_set(s1, sorted(s1.minimal_generators()))
    assert P.gens == s1.minimal_generators()
    assert not P.contains((0, 0))


def test_ideal_from_set_errors(s1):
    with pytest.raises(ValueError):
        ideal_from_set(s1, [])
    with pytest.raises(NotInSemigroup):
        ideal_from_set(s1, [(8, 2)])


def test_ideal_contains_only_points_of_its_dimension(s1, s1_gen):
    # a point of another dimension is no member, as for GapSemigroup.contains
    for base in (s1, s1_gen):
        P = ideal_from_set(base, [(5, 1)])
        assert P.contains((5, 1)) and (10, 2) in P
        assert not P.contains((5, 1, 7))
        assert (5, 1, 0) not in P
        assert not P.contains((5,))


def test_ideal_axiom_on_box(s1):
    P = ideal_from_set(s1, [(5, 1), (9, 3)])
    msg = s1.minimal_generators()
    for p in fixture_cone_points(40):
        if P.contains(p):
            for n in msg:
                q = tuple(a + b for a, b in zip(p, n))
                if sum(q) <= 40:
                    assert P.contains(q)


def test_ideal_is_csemigroup_examples(s1, n2):
    assert ideal_is_csemigroup(ideal_from_set(s1, [(5, 1), (6, 2)]))
    assert not ideal_is_csemigroup(ideal_from_set(n2, [(1, 0)]))
    assert not ideal_is_csemigroup(ideal_from_set(s1, [(10, 2)]))
    assert ideal_is_csemigroup(ideal_from_set(s1, [(0, 0)]))


def test_ideal_is_csemigroup_needs_verified_base(s2_gen):
    P = ideal_from_set(s2_gen, [(5, 1), (6, 2)])
    with pytest.raises(NotCSemigroup):
        ideal_is_csemigroup(P)


def test_isemigroup_from_ideal_gap_law(s1, s1_gen):
    # scan route must agree with the Apery-core route for translated ideals
    M = [(5, 1), (6, 2)]
    T = isemigroup_from_ideal(ideal_from_set(s1, M))
    core = apery_context(s1_gen, M).core
    assert T.gaps == s1.gaps | (core - {(0, 0)})
    assert T.genus == s1.genus + len(core) - 1


@given(data=apery_inputs())
@example(data=(GenSemigroup(S1_GENS), [(10, 2), (6, 2)], None, None, None))
@example(data=(GenSemigroup([(50,), (51,)]), [(50,)], None, None, None))
@settings(max_examples=60, deadline=None)
def test_apery_core_is_the_set_the_ideal_m_plus_s_loses(data):
    """Ap(S, M) = S ∖ (M + S), and M is the canonical generating set of the
    ideal M + S: one element per extremal ray, so no m_j divides m_i.  The
    semigroup (M + S) ∪ {0} therefore loses exactly the nonzero core."""
    S, M = data[:2]
    try:
        G = gaps(_as_generated(S))
    except NotCSemigroup:
        assume(False)
    T = isemigroup_from_ideal(ideal_from_set(G, M))
    assert T.gaps - G.gaps == apery_context(G, M).core - {(0,) * G.dim}
    assert T.gens == set(M)


def test_isemigroup_from_ideal_budget_counts_lost_points(s1):
    # the ideal of (5,1) and (6,2) loses six points of S1
    P = ideal_from_set(s1, [(5, 1), (6, 2)])
    with pytest.raises(BudgetExceeded, match=r"^the ideal loses more than 5 points$"):
        isemigroup_from_ideal(P, budget=5)
    assert isemigroup_from_ideal(P, budget=6).genus == s1.genus + 6


def test_isemigroup_from_whole_semigroup(s1):
    T = isemigroup_from_ideal(ideal_from_set(s1, [(0, 0)]))
    assert T.gaps == s1.gaps
    assert T.minimal_generators() == s1.minimal_generators()


def test_isemigroup_rejects_bad_added_gaps(s1):
    # only the gaps beyond the base's are checked, and those always are
    for bad in [(1, 1), (9, 2, 0), (0, 0)]:
        with pytest.raises(ValueError):
            IdealSemigroup(s1, s1.gaps | {bad})


def test_isemigroup_from_ideal_rejects_ray_misses(s1):
    with pytest.raises(NotCSemigroup):
        isemigroup_from_ideal(ideal_from_set(s1, [(10, 2)]))


@given(data=simplicial_semigroups(), draws=st.data())
@settings(max_examples=100, deadline=None)
def test_isemigroup_from_ideal_matches_window_scan(data, draws):
    """P ∪ {0}, built by the walk over the points P loses, against the
    window-certified scan of the cone, on drawn ideals that meet every ray
    (the whole semigroup among them) in dimensions 1-3 and over cones of
    lower dimension than their lattice: the same gaps, and as ``gens`` the
    ideal's canonical generators, msg(S) for the whole semigroup."""
    gens, _, points = data
    try:
        S = gaps(GenSemigroup(gens, warn_redundant=False))
    except NotCSemigroup:
        assume(False)
    elements = [p for p in points({1: 12, 2: 6, 3: 4}[S.dim]) if S.contains(p)]
    X = draws.draw(st.lists(st.sampled_from(elements), max_size=3))
    # one element per ray, so the scan's window certificate holds
    rays = len(S.cone.rays)
    ks = draws.draw(st.lists(st.integers(1, 3), min_size=rays, max_size=rays))
    M = [tuple(k * a for a in m) for k, m in zip(ks, S.multiplicities())]
    P = ideal_from_set(S, X + M)
    T = isemigroup_from_ideal(P)
    origin = (0,) * S.dim
    expected = window_gap_scan(S.cone, lambda x: x == origin or P.contains(x), M)
    assert T.gaps == expected
    assert T.gens == (S.minimal_generators() if origin in X else P.gens)
    assert T.gens == imsg_of_isemigroup(IdealSemigroup(S, expected))


def test_imsg_of_isemigroup_two_routes(s1):
    for X in ([(5, 1), (6, 2)], [(6, 2), (9, 2), (5, 1)], [(0, 0)]):
        T = isemigroup_from_ideal(ideal_from_set(s1, X))
        via_msg = imsg_of_isemigroup(T)
        # second route: minimal elements of the ideal part inside a box
        part = [
            p
            for p in fixture_cone_points(40)
            if any(p) and T.contains(p)
        ]
        via_part = brute_minimals(s1.contains, part)
        assert via_msg == via_part
        if X != [(0, 0)]:
            assert via_msg == T.gens


def test_imsg_of_root_is_msg(s1):
    T = isemigroup_from_ideal(ideal_from_set(s1, [(0, 0)]))
    assert imsg_of_isemigroup(T) == s1.minimal_generators()


def test_verify_isemigroup(s1):
    assert verify_isemigroup(s1, s1)
    T = isemigroup_from_ideal(ideal_from_set(s1, [(5, 1), (6, 2)]))
    assert verify_isemigroup(s1, T)
    # removing a non-generator breaks closure under translation
    assert not verify_isemigroup(s1, GapSemigroup(s1.cone, s1.gaps | {(10, 2)}))


def test_verify_isemigroup_sandwich_check_raises(s1, monkeypatch):
    T = isemigroup_from_ideal(ideal_from_set(s1, [(9, 3), (10, 2)]))
    assert verify_isemigroup(s1, T)
    # (6,0) is the gap (18,4) of T less the lost element (12,4), and no gap
    # of T less a generator of S, so the ideal axiom still holds; read as an
    # element, it steps (12,4) to that gap, so (12,4) is no longer
    # pseudo-Frobenius in T
    real = T.contains
    monkeypatch.setattr(T, "contains", lambda x: tuple(x) == (6, 0) or real(x))
    with pytest.raises(SemigroupError, match="sandwich"):
        verify_isemigroup(s1, T)


def test_verify_isemigroup_requires_containment(s1):
    # candidate containing a gap of the base is not contained in it
    smaller = GapSemigroup(s1.cone, [(3, 1), (4, 1), (7, 2)])
    assert not verify_isemigroup(s1, smaller)


def test_verify_isemigroup_cone_mismatch(s1, n2):
    with pytest.raises(ConeMismatch):
        verify_isemigroup(s1, n2)


def test_uniqueness_over_random_subsets(s1):
    """Canonical generating sets are a perfect identity for ideals."""
    rng = random.Random(23)
    elems = [p for p in fixture_cone_points(25) if any(p) and s1.contains(p)]
    samples = []
    for _ in range(120):
        X = frozenset(rng.sample(elems, rng.randrange(1, 7)))
        samples.append((X, ideal_from_set(s1, X).gens))

    def member_from_x(p, X):
        return any(
            min(d := tuple(a - b for a, b in zip(p, x))) >= 0 and s1.contains(d)
            for x in X
        )

    for i in range(len(samples)):
        for j in range(i + 1, len(samples)):
            xa, ga = samples[i]
            xb, gb = samples[j]
            if ga == gb:
                probes = sorted(xa | xb | ga)
                assert all(
                    member_from_x(p, xa) == member_from_x(p, xb) for p in probes
                )
            else:
                assert any(
                    member_from_x(p, xa) != member_from_x(p, xb)
                    for p in sorted(ga | gb)
                )
