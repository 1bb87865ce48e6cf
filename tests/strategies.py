"""Hypothesis strategies for small C-semigroups known by construction."""

from hypothesis import strategies as st

from csemigroups import Cone, GapSemigroup, GenSemigroup
from bruteforce import (
    closure_member,
    fixture_cone_points,
    in_fixture_cone,
    least_lattice_multiple,
    sum_closure,
)
from conftest import S1_GENS, S2_GENS

# not a C-semigroup: (1, k) is a gap for every k
NOT_C_GENS = ((2, 0), (3, 0), (0, 1))


@st.composite
def small_csemigroups(draw):
    """A numerical semigroup, or S1 less a drawn down-set of its elements.

    The numerical semigroup holds every n > c and the sums of a few drawn
    numbers up to c.  In the plane, the elements of S1 that divide one of a
    few drawn elements are removed; the rest is an ideal, so with 0 it is a
    C-semigroup over the fixture cone.  Returns the semigroup, a membership
    oracle and a cone-point lister that know only this construction, and a
    grade c above which there are no gaps.
    """
    if draw(st.booleans()):
        c = draw(st.integers(0, 10))
        points = lambda n: [(k,) for k in range(n + 1)]
        seeds = draw(st.lists(st.sampled_from(points(c)[1:]), max_size=3)) if c else []
        kept = sum_closure(seeds, c) if seeds else set()
        rays = [(1,)]

        def member(p):
            return p[0] >= 0 and (p[0] > c or not any(p) or p in kept)
    else:
        c = 16
        points = fixture_cone_points
        in_s1 = closure_member(S1_GENS, 60)
        elements = [p for p in points(c) if any(p) and in_s1(p)]
        tops = draw(st.lists(st.sampled_from(elements), max_size=2))
        removed = {
            y for y in elements
            if any(in_s1(tuple(a - b for a, b in zip(t, y))) for t in tops)
        }
        rays = [(3, 1), (5, 1)]

        def member(p):
            return in_s1(p) and p not in removed

    gap_set = [p for p in points(c) if not member(p)]
    return GapSemigroup(Cone.from_generators(rays), gap_set), member, points, c


@st.composite
def orthant_csemigroups(draw):
    """ℕ³ less the nonzero points below up to two drawn points of grade ≤ 4.

    Returns the same four values as ``small_csemigroups``.
    """
    def points(n):
        return [
            (a, b, g - a - b)
            for g in range(n + 1) for a in range(g + 1) for b in range(g - a + 1)
        ]

    tops = draw(st.lists(st.sampled_from(points(4)[1:]), max_size=2))
    removed = {
        y for y in points(4)[1:]
        if any(all(u <= v for u, v in zip(y, t)) for t in tops)
    }

    def member(p):
        return min(p) >= 0 and p not in removed

    cone = Cone.from_generators([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    return GapSemigroup(cone, removed), member, points, 4


def _in_orthant(p):
    return min(p) >= 0


@st.composite
def apery_inputs(draw, max_k=3):
    """A semigroup S, ray elements M = k · multiplicity (k ≤ max_k), and oracles.

    S comes from ``small_csemigroups``, ``orthant_csemigroups``, S2 or
    ⟨(2,0),(3,0),(0,1)⟩; the last two are not C-semigroups.  Returns S, M,
    a membership oracle (for those two, only up to the grade below), a cone
    test, and the elements of S up to a grade that bounds its Apery core
    for M.
    """
    k = draw(st.integers(1, max_k))
    source = draw(st.sampled_from(["small", "orthant", "S2", "not-C"]))
    if source in ("S2", "not-C"):
        gens = list(S2_GENS if source == "S2" else NOT_C_GENS)
        S = GenSemigroup(gens)
        M = [tuple(k * x for x in n) for n in S.multiplicities()]
        # a core element is a sum of generators, each fewer times than its
        # least multiple in the lattice of M
        bound = max(
            sum(map(sum, M)),
            sum((least_lattice_multiple(n, M) - 1) * sum(n) for n in gens),
        )
        in_cone = in_fixture_cone if source == "S2" else _in_orthant
        member = closure_member(gens, bound)
        return S, M, member, in_cone, sorted(sum_closure(gens, bound))
    S, member, points, c = draw(
        small_csemigroups() if source == "small" else orthant_csemigroups()
    )
    M = [tuple(k * x for x in n) for n in S.multiplicities()]
    in_cone = in_fixture_cone if S.dim == 2 else _in_orthant
    # a core element w of grade at least sum w(M) has w - m_i in the cone for
    # some i, so w - m_i is a gap and w has grade at most c + w(m_i)
    bound = c + sum(map(sum, M))

    def member_anywhere(p):
        return in_cone(p) and (sum(p) > c or member(p))

    elems = [p for p in points(bound) if member_anywhere(p)]
    return S, M, member_anywhere, in_cone, elems


def _lattice_points(dim, n):
    """Points of ℕ^dim with coordinate sum at most n, by grade."""
    pts = [(g,) for g in range(n + 1)]
    for _ in range(dim - 1):
        pts = [(a,) + p for p in pts for a in range(n - sum(p) + 1)]
    return sorted(pts, key=lambda p: (sum(p), p))


# simplicial cones by their primitive rays, each with a membership test by
# explicit inequalities; two span fewer dimensions than their lattice
SIMPLICIAL_CONES = (
    (((1,),), lambda p: p[0] >= 0),
    (((0, 1), (1, 0)), _in_orthant),
    (((3, 1), (5, 1)), in_fixture_cone),
    (((1, 0), (1, 2)), lambda p: p[1] >= 0 and 2 * p[0] >= p[1]),
    (((1, 2),), lambda p: p[0] >= 0 and p[1] == 2 * p[0]),
    (((0, 0, 1), (0, 1, 0), (1, 0, 0)), _in_orthant),
    (((0, 1, 0), (1, 0, 0), (1, 1, 2)), lambda p: 0 <= p[2] <= 2 * min(p[:2])),
    (((1, 1, 0), (1, 1, 1)), lambda p: p[0] == p[1] and 0 <= p[2] <= p[0]),
)


def _low_grades(rays, in_cone):
    """The dimension of a cone of ``SIMPLICIAL_CONES``, the grade up to which
    draws over it take points, and a lister of its lattice points up to a
    grade, by grade."""
    dim = len(rays[0])

    def points(n):
        return [p for p in _lattice_points(dim, n) if in_cone(p)]

    return dim, {1: 12, 2: 6, 3: 4}[dim], points


@st.composite
def simplicial_semigroups(draw, max_dim=3):
    """Generators of a semigroup over one of ``SIMPLICIAL_CONES`` of
    dimension at most ``max_dim``, C or not.

    Two multiples (up to 5) of each ray and up to three drawn cone
    points of low grade.  Returns the generators, the cone test and a
    lister of the cone's lattice points up to a grade.
    """
    rays, in_cone = draw(
        st.sampled_from([c for c in SIMPLICIAL_CONES if len(c[0][0]) <= max_dim])
    )
    _, top, points = _low_grades(rays, in_cone)
    gens = {
        tuple(k * x for x in d)
        for d in rays
        for k in draw(st.lists(st.integers(1, 5), min_size=2, max_size=2, unique=True))
    }
    gens |= set(draw(st.lists(st.sampled_from(points(top)[1:]), max_size=3)))
    return sorted(gens), in_cone, points


@st.composite
def band_csemigroups(draw, max_dim=3, max_a=None):
    """Generators of a C-semigroup over one of ``SIMPLICIAL_CONES`` of
    dimension at most ``max_dim``, by construction, so none is rejected.

    Every cone point of grade a .. 2a+K (K the sum of the ray grades) and
    up to three drawn cone points below grade a, with a up to
    ``max_a[dim]`` (12, 6 and 4 in dimension 1, 2 and 3 by default).
    Every cone point of grade at least a is a sum of those of grade
    a .. 2a+K (split it into ray multiples and one point of the fundamental
    parallelepiped, each of grade at most K), so the gaps are finite and
    lie below grade a.
    Returns the generators, the cone test and a lister of the cone's
    lattice points up to a grade, as ``simplicial_semigroups`` does.
    """
    rays, in_cone = draw(
        st.sampled_from([c for c in SIMPLICIAL_CONES if len(c[0][0]) <= max_dim])
    )
    dim, top, points = _low_grades(rays, in_cone)
    a = draw(st.integers(1, top if max_a is None else max_a[dim]))
    K = sum(map(sum, rays))
    gens = [p for p in points(2 * a + K) if sum(p) >= a]
    low = [p for p in points(a - 1) if any(p)]
    if low:
        gens += draw(st.lists(st.sampled_from(low), max_size=3))
    return sorted(set(gens)), in_cone, points


@st.composite
def gap_documents(draw):
    """A gap-form document over one of ``SIMPLICIAL_CONES``, closed or not.

    The gaps are the nonzero cone points below a drawn grade, with up to
    four drawn points of low grade toggled.  Returns the document, the cone
    test and the lister of ``simplicial_semigroups``.
    """
    rays, in_cone = draw(st.sampled_from(SIMPLICIAL_CONES))
    dim, top, points = _low_grades(rays, in_cone)
    low = points(top)[1:]
    below = draw(st.integers(1, top))
    toggled = set(draw(st.lists(st.sampled_from(low), max_size=4)))
    gap_set = {p for p in low if sum(p) < below} ^ toggled
    rays, gaps = [list(d) for d in rays], sorted(map(list, gap_set))
    return {"p": dim, "rays": rays, "gaps": gaps}, in_cone, points
