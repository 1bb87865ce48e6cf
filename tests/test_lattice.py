import random
from fractions import Fraction
from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from csemigroups import (
    EQ,
    GT,
    LT,
    Cone,
    DimensionMismatch,
    MonomialOrder,
    NonSimplicialCone,
    ZeroCone,
)
from bruteforce import in_fixture_cone, nonneg_combination_exists
from conftest import D3_GENS, S1_GENS, S2_GENS
from csemigroups import lattice
from csemigroups.lattice import _nonneg_combination_exists, bareiss, primitive

ORDERS = [
    MonomialOrder("lex"),
    MonomialOrder("deglex"),
    MonomialOrder("degrevlex"),
    MonomialOrder("lex", (1, 0)),
    MonomialOrder("deglex", (1, 0)),
    MonomialOrder("degrevlex", (1, 0)),
]

points2 = st.tuples(st.integers(0, 30), st.integers(0, 30))


@given(a=points2, b=points2, c=points2)
@settings(max_examples=80, deadline=None)
@pytest.mark.parametrize("order", ORDERS, ids=lambda o: f"{o.kind}{o.priority}")
def test_order_axioms(order, a, b, c):
    # totality with antisymmetry
    cmp = order.compare(a, b)
    assert cmp in (LT, EQ, GT)
    assert (cmp == EQ) == (a == b)
    assert order.compare(b, a) == -cmp
    # compatibility with addition
    shifted = order.compare(tuple(x + z for x, z in zip(a, c)),
                            tuple(y + z for y, z in zip(b, c)))
    assert shifted == cmp
    # zero is minimal
    assert order.compare((0, 0), c) in (LT, EQ)


def test_compare_examples(deglex):
    assert deglex.compare((5, 1), (6, 2)) == LT  # degree 6 < 8
    for order in ORDERS:
        assert order.compare((0, 0), (3, 1)) == LT
    # equal degree 12, first-coordinate tie break
    assert deglex.compare((10, 2), (9, 3)) == GT


def test_degree_compatible_flag():
    assert not MonomialOrder("lex").degree_compatible
    assert MonomialOrder("deglex").degree_compatible
    assert MonomialOrder("degrevlex").degree_compatible


def test_order_validation():
    with pytest.raises(ValueError):
        MonomialOrder("grlex")
    with pytest.raises(ValueError):
        MonomialOrder("lex", (0, 2))
    with pytest.raises(DimensionMismatch):
        MonomialOrder("lex").compare((1, 2), (1, 2, 3))
    with pytest.raises(DimensionMismatch):
        MonomialOrder("deglex", (0, 1, 2)).compare((1, 2), (3, 4))


@given(
    dim=st.integers(1, 4),
    kind=st.sampled_from(["lex", "deglex", "degrevlex"]),
    draws=st.data(),
)
@settings(max_examples=120, deadline=None)
def test_order_key_fast_path_matches_identity_priority(dim, kind, draws):
    points = draws.draw(
        st.lists(st.tuples(*[st.integers(0, 6)] * dim), min_size=1, max_size=12)
    )
    plain, identity = MonomialOrder(kind), MonomialOrder(kind, tuple(range(dim)))
    for a in points:
        assert plain.key(a) == identity.key(a)
        for b in points:
            assert plain.compare(a, b) == identity.compare(a, b)
    assert plain.max(points) == identity.max(points)
    wrong = MonomialOrder(kind, tuple(range(dim + 1)))
    with pytest.raises(DimensionMismatch):
        wrong.key(points[0])
    with pytest.raises(DimensionMismatch):
        wrong.compare(points[0], points[0])


def test_cone_from_generators_examples():
    c = Cone.from_generators(
        [(5, 1), (6, 2), (9, 2), (9, 3), (10, 3), (12, 3), (13, 4), (13, 3)]
    )
    assert set(c.rays) == {(5, 1), (3, 1)}
    assert Cone.from_generators([(1, 0), (0, 1)]).rays == ((0, 1), (1, 0))
    assert Cone.from_generators([(2, 2)]).rays == ((1, 1),)


def test_cone_from_generators_errors():
    with pytest.raises(ZeroCone):
        Cone.from_generators([(0, 0)])
    with pytest.raises(ZeroCone):
        Cone.from_generators([])


@pytest.mark.parametrize("points", [[(-1, 0), (1, 0)], [(1, -2), (0, 1), (1, 0)]])
def test_cone_from_generators_refuses_negative_coordinates(points):
    # a line, and a cone leaving ℕ², both once given a single wrong ray
    with pytest.raises(ValueError, match="has a negative coordinate"):
        Cone.from_generators(points)


def test_ray_primitivity_random():
    rng = random.Random(7)
    from math import gcd
    for _ in range(40):
        pts = [
            (rng.randrange(0, 12), rng.randrange(0, 12)) for _ in range(rng.randrange(1, 6))
        ]
        if not any(any(p) for p in pts):
            continue
        cone = Cone.from_generators(pts)
        for r in cone.rays:
            assert gcd(*r) == 1


plane_points = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 15)).filter(any),
    min_size=1,
    max_size=7,
)


@given(points=plane_points)
@settings(max_examples=120, deadline=None)
def test_plane_extremality_matches_slope_oracle(points):
    # in the plane the extremal directions are the slope extremes
    cone = Cone.from_generators(points)
    def slope_key(p):
        return Fraction(p[1], p[0]) if p[0] else Fraction(10**9)
    prims = sorted({primitive(p) for p in points}, key=slope_key)
    expected = {prims[0], prims[-1]}
    assert set(cone.rays) == expected


def test_cone_contains_examples():
    cone = Cone.from_generators([(5, 1), (3, 1)])
    assert cone.contains((4, 1))
    assert cone.coordinates((4, 1)) == (Fraction(1, 2), Fraction(1, 2))
    assert not cone.contains((2, 1))
    assert cone.coordinates((2, 1)) is None
    assert cone.contains((0, 0))
    assert cone.coordinates((0, 0)) == (Fraction(0), Fraction(0))


def test_cone_contains_agrees_with_inequalities():
    cone = Cone.from_generators([(5, 1), (3, 1)])
    for s in range(31):
        for x in range(s + 1):
            p = (x, s - x)
            assert cone.contains(p) == in_fixture_cone(p), p


def test_cone_contains_negative_and_mismatch():
    cone = Cone.from_generators([(5, 1), (3, 1)])
    assert not cone.contains((-3, -1))
    with pytest.raises(DimensionMismatch):
        cone.contains((1, 2, 3))


def test_non_simplicial_rejected():
    square = Cone.from_generators([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
    assert len(square.rays) == 4
    assert not square.simplicial
    with pytest.raises(NonSimplicialCone):
        square.contains((1, 1, 2))


def test_simplicial_rank_deficient_membership():
    # two independent rays inside a 3-dimensional lattice
    cone = Cone.from_generators([(1, 0, 1), (0, 1, 1)])
    assert cone.simplicial
    assert cone.contains((1, 1, 2))
    assert not cone.contains((1, 1, 1))
    assert cone.coordinates((2, 1, 3)) == (Fraction(1), Fraction(2))


def test_extremality_in_three_dimensions():
    cone = Cone.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    assert set(cone.rays) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def _points_to_grade(cone, max_grade):
    return [x for g in range(max_grade + 1) for x in cone.graded_points(g)]


def test_enumerate_cone_points_examples():
    cone = Cone.from_generators([(5, 1), (3, 1)])
    assert _points_to_grade(cone, 6) == [
        (0, 0), (3, 1), (4, 1), (5, 1),
    ]
    quadrant = Cone.from_generators([(1, 0), (0, 1)])
    assert _points_to_grade(quadrant, 1) == [
        (0, 0), (0, 1), (1, 0),
    ]
    assert _points_to_grade(cone, 0) == [(0, 0)]


def test_enumerate_cone_points_matches_box_filter():
    cone = Cone.from_generators([(5, 1), (3, 1)])
    got = _points_to_grade(cone, 30)
    expected = [
        (x, s - x)
        for s in range(31)
        for x in range(s + 1)
        if in_fixture_cone((x, s - x))
    ]
    assert got == expected


def cofactor_det(m):
    """Determinant by Laplace expansion along the first row."""
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
    )


def cofactor_adjugate(m):
    n = len(m)
    return [
        [
            (-1) ** (i + j)
            * cofactor_det(
                [row[:i] + row[i + 1:] for k, row in enumerate(m) if k != j]
            )
            for j in range(n)
        ]
        for i in range(n)
    ]


def submatrix(m, rows, cols):
    return [[m[r][c] for c in cols] for r in rows]


def largest_nonzero_minor(m):
    n_rows, n_cols = len(m), len(m[0])
    for k in range(min(n_rows, n_cols), 0, -1):
        for rows in combinations(range(n_rows), k):
            for cols in combinations(range(n_cols), k):
                if cofactor_det(submatrix(m, rows, cols)):
                    return k
    return 0


def matrices(min_cols=1, max_cols=4, lo=-4, hi=4):
    return st.integers(1, 4).flatmap(
        lambda r: st.integers(min_cols, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(lo, hi), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )


square_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


@given(m=square_matrices)
@settings(max_examples=300, deadline=None)
def test_bareiss_det_and_adjugate_match_cofactor_expansion(m):
    rank, cols, det, adj = bareiss(m)
    assert det == cofactor_det(m)
    if det:
        assert rank == len(m) and cols == tuple(range(len(m)))
        assert adj == cofactor_adjugate(m)
    else:
        assert rank < len(m) and adj is None


@given(m=matrices())
@settings(max_examples=300, deadline=None)
def test_bareiss_rank_is_largest_nonzero_minor(m):
    rank, cols, det, adj = bareiss(m)
    assert rank == largest_nonzero_minor(m) == len(cols)
    if rank == len(m):
        # independent rows: det and adjugate of the minor on the pivot columns
        minor = submatrix(m, range(len(m)), cols)
        assert det == cofactor_det(minor) != 0
        assert adj == cofactor_adjugate(minor)


def test_bareiss_empty_matrix():
    assert bareiss([]) == (0, (), 1, [])


def cramer_coordinates(rays, x):
    """Fraction coordinates of ``x`` in the span of independent ``rays``.

    Solves on the first t coordinates (in combination order) where the rays
    have a nonzero t×t minor, by Cramer's rule, then requires the solution
    to reproduce every coordinate of ``x``.
    """
    t, dim = len(rays), len(x)
    for cols in combinations(range(dim), t):
        # columns of the system matrix are the rays restricted to cols
        system = [[rays[i][c] for i in range(t)] for c in cols]
        det = cofactor_det(system)
        if det:
            break
    alphas = []
    for i in range(t):
        replaced = [row[:i] + [x[c]] + row[i + 1:] for row, c in zip(system, cols)]
        alphas.append(Fraction(cofactor_det(replaced), det))
    for c in range(dim):
        if sum(a * r[c] for a, r in zip(alphas, rays)) != x[c]:
            return None
    return tuple(alphas)


@st.composite
def simplicial_cones(draw):
    dim = draw(st.integers(1, 3))
    t = draw(st.integers(1, dim))
    vec = st.lists(st.integers(0, 6), min_size=dim, max_size=dim).filter(any)
    rays = draw(st.lists(vec, min_size=t, max_size=t, unique_by=tuple))
    # independent rays: some t×t minor is nonzero
    assume(largest_nonzero_minor(rays) == t)
    points = st.lists(
        st.lists(st.integers(-3, 15), min_size=dim, max_size=dim).map(tuple),
        min_size=1,
        max_size=12,
    )
    return Cone(dim, tuple(map(tuple, rays))), draw(points)


@given(data=simplicial_cones())
@settings(max_examples=300, deadline=None)
def test_cone_matches_cramer_oracle(data):
    cone, points = data
    assert cone.simplicial
    # include lattice points of the cone itself, not only random ones
    points = points + [tuple(map(sum, zip(*cone.rays)))]
    for x in points:
        alphas = cramer_coordinates(cone.rays, x)
        inside = alphas is not None and min(alphas) >= 0
        assert cone.coordinates(x) == (alphas if inside else None), x
        assert cone.contains(x) == (inside and min(x) >= 0), x
    with pytest.raises(DimensionMismatch):
        cone.contains(points[0] + (0,))
    with pytest.raises(DimensionMismatch):
        cone.coordinates(points[0] + (0,))


orthants = st.integers(1, 4).map(
    lambda dim: Cone(
        dim, tuple(sorted(tuple(int(i == j) for j in range(dim)) for i in range(dim)))
    )
)


@given(cone=simplicial_cones().map(lambda data: data[0]) | orthants, grade=st.integers(0, 8))
@settings(max_examples=150, deadline=None)
def test_graded_split_matches_brute_force(cone, grade):
    # every point of the grade in a box, in lex order, split by the solver
    box = sorted(x for x in product(range(grade + 1), repeat=cone.dim) if sum(x) == grade)
    expected = [(x, cone._numerators(x)) for x in box]
    assert list(cone.graded_split(grade)) == [(x, n) for x, n in expected if n is not None]


@given(m=matrices(min_cols=2, max_cols=3, lo=0, hi=4))
@settings(max_examples=150, deadline=None)
def test_simplicial_flag_is_full_row_rank(m):
    cone = Cone(len(m[0]), tuple(map(tuple, m)))
    assert cone.simplicial == (largest_nonzero_minor(m) == len(m))


@st.composite
def simplex_instances(draw):
    """Columns and a target for the phase-one simplex, in dimensions 1–4.

    Columns are drawn freely or from a small pool that holds the zero
    vector, so duplicate and zero columns are common; targets are free
    (often with zero coordinates) or non-negative integer combinations of
    the columns, so both outcomes occur and degenerate pivots and ratio
    ties are exercised.
    """
    dim = draw(st.integers(1, 4))
    vec = st.lists(st.integers(0, 6), min_size=dim, max_size=dim).map(tuple)
    pool = draw(st.lists(vec, min_size=1, max_size=3)) + [(0,) * dim]
    columns = draw(
        st.lists(st.one_of(vec, st.sampled_from(pool)), min_size=0, max_size=7)
    )
    sparse = st.lists(
        st.one_of(st.just(0), st.integers(0, 6)), min_size=dim, max_size=dim
    ).map(tuple)
    coeffs = st.lists(st.integers(0, 3), min_size=len(columns), max_size=len(columns))
    combination = coeffs.map(
        lambda cs: tuple(sum(k * c[i] for k, c in zip(cs, columns)) for i in range(dim))
    )
    return columns, draw(st.one_of(sparse, combination))


@given(data=simplex_instances())
@settings(max_examples=400, deadline=None)
def test_integer_simplex_matches_fraction_oracle(data):
    columns, target = data
    assert _nonneg_combination_exists(columns, target) == nonneg_combination_exists(
        columns, target
    )


@given(
    points=st.integers(1, 4).flatmap(
        lambda dim: st.lists(
            st.lists(st.integers(0, 6), min_size=dim, max_size=dim).map(tuple),
            min_size=1,
            max_size=7,
        ).filter(lambda pts: any(map(any, pts)))
    )
)
@settings(max_examples=200, deadline=None)
def test_extremal_rays_match_fraction_oracle(points):
    dirs = sorted({primitive(p) for p in points if any(p)})
    expected = [
        d for d in dirs if not nonneg_combination_exists([e for e in dirs if e != d], d)
    ]
    assert Cone.from_generators(points).rays == tuple(expected)


def extremal_oracle(points):
    dirs = sorted({primitive(p) for p in points if any(p)})
    return tuple(
        d for d in dirs if not nonneg_combination_exists([e for e in dirs if e != d], d)
    )


@st.composite
def certificate_branches(draw):
    """Generator sets in ℕ³ for each branch of the ray certificate.

    ``plane``: points on a plane or a line through 0 (t < p rays).
    ``ties``: two or three directions share the largest x_1/w (w the
    coordinate sum), and the points on the face x_1 = 0 share the least.
    ``polygon``: a cone over a rectangle or a pentagon at height h, so four
    or five rays, plus sums of its vertices inside it.  The coordinates are
    then permuted.
    """
    small = st.integers(0, 3)
    kind = draw(st.sampled_from(["plane", "ties", "polygon"]))
    if kind == "plane":
        u, v = draw(st.lists(st.tuples(small, small, small), min_size=2, max_size=2))
        coeffs = draw(st.lists(st.tuples(small, small), min_size=1, max_size=6))
        points = [tuple(a * x + b * y for x, y in zip(u, v)) for a, b in coeffs]
    elif kind == "ties":
        k = draw(st.integers(1, 3))
        tops = draw(st.lists(st.integers(0, k), min_size=2, max_size=3, unique=True))
        floor = draw(st.lists(st.tuples(st.just(0), small, small), max_size=3))
        below = st.tuples(small, small, small).filter(lambda q: q[0] < q[1] + q[2])
        points = [(k, a, k - a) for a in tops] + floor + draw(st.lists(below, max_size=3))
    else:
        a, b, h = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
        base = draw(st.sampled_from([
            [(0, 0), (a, 0), (0, b), (a, b)],
            [(0, 0), (2, 0), (2, 1), (1, 2), (0, 2)],
        ]))
        vertices = [(x, y, h) for x, y in base]
        pairs = draw(st.lists(st.tuples(*[st.sampled_from(vertices)] * 2), max_size=3))
        points = vertices + [tuple(map(sum, zip(p, q))) for p, q in pairs]
    perm = draw(st.permutations(range(3)))
    points = [tuple(q[i] for i in perm) for q in points]
    assume(any(map(any, points)))
    return points


@given(points=certificate_branches())
@settings(max_examples=300, deadline=None)
def test_extremal_rays_match_fraction_oracle_on_certificate_branches(points):
    assert Cone.from_generators(points).rays == extremal_oracle(points)


def _refuse_simplex(columns, target):
    raise AssertionError(f"simplex run for {target}")


@given(
    points=st.integers(1, 2).flatmap(
        lambda dim: st.lists(
            st.lists(st.integers(0, 9), min_size=dim, max_size=dim).map(tuple),
            min_size=1,
            max_size=8,
        ).filter(lambda pts: any(map(any, pts)))
    )
)
@settings(max_examples=200, deadline=None)
def test_certificate_decides_dimensions_one_and_two_without_the_simplex(points):
    # in ℕ¹ and ℕ² the least and the largest x_1/w are never tied
    with mock.patch.object(lattice, "_nonneg_combination_exists", _refuse_simplex):
        cone = Cone.from_generators(points)
    assert cone.rays == extremal_oracle(points)
    assert "_elimination" in vars(cone)


@pytest.mark.parametrize(
    "points",
    [
        S1_GENS,
        S2_GENS,
        D3_GENS,
        [(3, 1), (5, 1)],
        [(1, 0), (0, 1)],
        [(5,), (7,), (9,)],
        [(2, 0), (3, 0), (0, 1)],
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
    ],
)
def test_certificate_decides_the_fixtures_without_the_simplex(points):
    with mock.patch.object(lattice, "_nonneg_combination_exists", _refuse_simplex):
        cone = Cone.from_generators(points)
    assert cone.rays == extremal_oracle(points)
    assert cone.simplicial and "_elimination" in vars(cone)


def test_simplex_runs_only_for_the_undecided_directions():
    # the four-ray cone: (1,0,0) and (0,1,0) are certified, and the tied
    # (1,0,1) and (0,1,1) lie outside their cone
    targets = []

    def simplex(columns, target):
        targets.append(target)
        return _nonneg_combination_exists(columns, target)

    points = [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1), (2, 1, 2)]
    with mock.patch.object(lattice, "_nonneg_combination_exists", simplex):
        cone = Cone.from_generators(points)
    assert cone.rays == ((0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1))
    assert sorted(targets) == [(0, 1, 1), (1, 0, 1), (1, 1, 1), (2, 1, 2)]
