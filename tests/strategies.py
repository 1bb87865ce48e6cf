"""Hypothesis strategies for small C-semigroups known by construction."""

from hypothesis import strategies as st

from csemigroups import Cone, GapSemigroup
from bruteforce import closure_member, fixture_cone_points, sum_closure
from conftest import S1_GENS


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
