"""Seeded inputs for the three benchmark workloads.

Everything here is independent of the library under test: cone membership,
sampling by grade and the brute-force closure use only integer arithmetic
written for the benchmark, so they can serve as oracles for the library.
"""

from __future__ import annotations

import random

# The running fixture of the test suite: a genus-4 C-semigroup over the cone
# spanned by (3,1) and (5,1).
S1 = ((5, 1), (6, 2), (9, 2), (9, 3), (10, 3), (12, 3), (13, 4), (13, 3))
# Same cone, only even multiples on the (3,1) ray: not a C-semigroup.
S2 = ((5, 1), (6, 2), (8, 2), (9, 2), (12, 3))
# A numerical semigroup (dimension 1).
D1 = ((5,), (7,), (9,))
# The 3-dimensional fixture of the test suite: gap set {(1,0,0)}.
D3 = ((2, 0, 0), (3, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1))
# Not a C-semigroup (every (1,k) is a gap), but the library cannot prove it
# and gives up at its default budget.
UNDECIDED = ((2, 0), (3, 0), (0, 1))

# the fixtures the enumerate jobs start from
FIXTURES = {"s1": S1, "d1": D1, "d3": D3}

# Cones by their primitive extremal rays.
CONES = {
    "n1": ((1,),),
    "q2": ((0, 1), (1, 0)),
    "s1cone": ((3, 1), (5, 1)),
    "wide2": ((1, 2), (3, 1)),
    "q3": ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
    "tall3": ((0, 1, 0), (1, 0, 0), (1, 1, 2)),
}


# ---------------------------------------------------------------------------
# integer geometry


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _adjugate(rows):
    """(adjugate, determinant) of a 1x1, 2x2 or 3x3 integer matrix."""
    n = len(rows)
    if n == 1:
        return [[1]], rows[0][0]
    if n == 2:
        (a, b), (c, d) = rows
        return [[d, -b], [-c, a]], a * d - b * c
    cof = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            r = [k for k in range(3) if k != i]
            c = [k for k in range(3) if k != j]
            minor = rows[r[0]][c[0]] * rows[r[1]][c[1]] - rows[r[0]][c[1]] * rows[r[1]][c[0]]
            cof[i][j] = (-1) ** (i + j) * minor
    det = sum(rows[0][j] * cof[0][j] for j in range(3))
    return [[cof[j][i] for j in range(3)] for i in range(3)], det


class ConeTest:
    """Membership in a full-dimensional simplicial cone, by integer adjugate."""

    def __init__(self, rays):
        self.rays = tuple(rays)
        self.dim = len(rays[0])
        columns = [[ray[i] for ray in rays] for i in range(self.dim)]
        adj, det = _adjugate(columns)
        if det == 0:
            raise ValueError(f"rays {rays} are not independent")
        self.adj = [[v if det > 0 else -v for v in row] for row in adj]

    def __call__(self, x):
        return all(sum(a * c for a, c in zip(row, x)) >= 0 for row in self.adj)

    @property
    def ray_grade_sum(self):
        return sum(sum(r) for r in self.rays)


def compositions(total, parts):
    """Non-negative integer vectors of the given length and coordinate sum."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def cone_points(cone, grade):
    """Cone points of the given grade, in lexicographic order."""
    if cone.dim != 2:
        return [x for x in compositions(grade, cone.dim) if cone(x)]
    # (t, grade - t) is inside when every row gives (p - q) t >= -q grade
    lo, hi = 0, grade
    for p, q in cone.adj:
        a, b = p - q, -q * grade
        if a > 0:
            lo = max(lo, -(-b // a))
        elif a < 0:
            hi = min(hi, b // a)
        elif b > 0:
            return []
    return [(t, grade - t) for t in range(lo, hi + 1)]


def sum_closure(gens, max_grade):
    """All sums of generators with coordinate sum at most ``max_grade``."""
    start = (0,) * len(gens[0])
    out = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = vadd(p, g)
                if sum(q) <= max_grade and q not in out:
                    out.add(q)
                    nxt.append(q)
        frontier = nxt
    return out


def brute_gaps(gens, cone, max_grade):
    """Cone points of grade 1..max_grade that are not generator sums."""
    closure = sum_closure(gens, max_grade)
    return {
        x for g in range(1, max_grade + 1) for x in cone_points(cone, g) if x not in closure
    }


# ---------------------------------------------------------------------------
# member: a stream of queries, uniform by grade within each fixture's cone


MEMBER_FIXTURES = (
    # name, generators, rays, highest query grade, has a gap form, queries
    ("s1", S1, CONES["s1cone"], 200, True, 500),
    ("s2", S2, CONES["s1cone"], 200, False, 500),
    ("d1", D1, CONES["n1"], 200, True, 500),
    # twice as many: its slowest queries set the tail, which then depends
    # less on where the seed places them
    ("d3", D3, CONES["q3"], 80, True, 1000),
)
# one query in this many lies outside the fixture's cone
MEMBER_OUTSIDE_EVERY = 20
# irrational step of the Kronecker sequence that spreads positions in a grade
_PHI = (5**0.5 - 1) / 2


def _unrank(cone, grade, u, points):
    """The cone point of the given grade at fraction ``u`` of their lex order.

    ``points`` caches the cone points per grade; returns None when the grade
    has none.
    """
    if grade not in points:
        points[grade] = cone_points(cone, grade)
    pts = points[grade]
    return pts[int(u * len(pts))] if pts else None


def _outside(rng, cone, grade, u, points):
    """A query point outside the cone at (about) the given grade."""
    if cone.dim == 2:
        outside = [x for x in compositions(grade, 2) if not cone(x)]
        if outside:
            return outside[int(u * len(outside))]
    # an orthant has no outside point in the non-negative lattice: step out
    # through a negative coordinate
    p = list(_unrank(cone, grade, u, points))
    p[rng.randrange(len(p))] = -1 - rng.randrange(3)
    return tuple(p)


def member_block(seed):
    """The seeded block of queries: (fixture name, point) pairs.

    Every fixture gets a fixed number of queries.  Their grades are
    stratified over the fixture's grade range and their positions within a
    grade follow a randomly shifted Kronecker sequence, so each query is
    uniform by grade and position while every block covers the range evenly
    and carries similar work.
    """
    rng = random.Random(f"member-{seed}")
    block = []
    for name, _, rays, top, _, per in MEMBER_FIXTURES:
        cone, cache = ConeTest(rays), {}
        shift_grade, shift_position = rng.random(), rng.random()
        for i in range(per):
            grade = int((i + shift_grade) * (top + 1) / per)
            u = (i * _PHI + shift_position) % 1.0
            if i % MEMBER_OUTSIDE_EVERY == MEMBER_OUTSIDE_EVERY // 2:
                block.append((name, _outside(rng, cone, max(grade, 1), u, cache)))
                continue
            p = _unrank(cone, grade, u, cache)
            while p is None:
                grade += 1
                p = _unrank(cone, grade, u, cache)
            block.append((name, p))
    rng.shuffle(block)
    return block


# ---------------------------------------------------------------------------
# enumerate: in-process CLI jobs

ENUMERATE_JOBS = {
    "tree-s1": ("tree", "s1", "--max-genus", "9", "--full"),
    "frobenius-s1": ("frobenius-fixed", "s1", "--f", "14,3"),
    "mult-s1": ("mult-fixed", "s1", "--m", "10,2", "--m", "6,2"),
    "tree-d1": ("tree", "d1", "--max-genus", "14", "--full"),
    "tree-d3": ("tree", "d3", "--max-genus", "5", "--full"),
}


def enumerate_order(seed, index):
    """The job order of pass ``index``."""
    names = sorted(ENUMERATE_JOBS)
    random.Random(f"enumerate-{seed}-{index}").shuffle(names)
    return names


# ---------------------------------------------------------------------------
# translate: generator-form inputs whose C-semigroup status is known
#
# A C-semigroup input is the minimal generating set of <E ∪ band(a)>, where
# band(a) is every cone point of grade a .. 2a+K (K the sum of the ray
# grades) and E a few cone points below grade a.  Every cone point of grade
# at least a is then a sum of band points (split it into ray multiples and
# one point of the fundamental parallelepiped, each of grade at most K), so
# the gaps are finite and all lie below grade a.  A rejected input scales
# every generator on one extremal ray by 2 or 3, so that ray only carries
# multiples of that factor: infinitely many gaps, provable from the ray.

TRANSLATE_SHAPES = (
    # name, cone, a, points of E, redundant generators added, variants drawn
    ("n1-a5", "n1", 5, 2, 1, 5),
    ("n1-a8", "n1", 8, 3, 1, 5),
    ("n1-a12", "n1", 12, 3, 2, 5),
    ("q2-a2", "q2", 2, 1, 1, 5),
    ("q2-a3", "q2", 3, 2, 1, 5),
    ("s1cone-a5", "s1cone", 5, 1, 1, 5),
    ("s1cone-a7", "s1cone", 7, 2, 1, 5),
    ("s1cone-a9", "s1cone", 9, 2, 2, 5),
    ("wide2-a3", "wide2", 3, 1, 1, 5),
    ("wide2-a4", "wide2", 4, 2, 1, 5),
    # one input of a 3-D shape takes as long as ten of the others; of the
    # orthant only rejects are drawn, its inputs take twice as long again
    ("q3-a2", "q3", 2, 1, 1, 0),
    ("tall3-a2", "tall3", 2, 1, 1, 1),
)
TRANSLATE_REJECTS = ("n1-a5", "q2-a2", "s1cone-a5", "wide2-a3", "q3-a2")
# variants in the pool per shape, and rejects drawn per shape
TRANSLATE_VARIANTS = 12
TRANSLATE_REJECTS_DRAWN = 3
# every C-semigroup input goes through these commands; the others through gaps
TRANSLATE_COMMANDS = ("gaps", "msg", "apery", "pf", "med", "decompose")


def _shape(name):
    for shape in TRANSLATE_SHAPES:
        if shape[0] == name:
            return shape
    raise KeyError(name)


def translate_input(shape_name, variant, kind):
    """One pool input: {"key", "kind", "generators", "rays", "max_grade"}.

    ``kind`` is "c" (a C-semigroup) or "reject".  The construction depends
    only on the shape and the variant number, so the pool is fixed and its
    outputs can be recorded once.
    """
    _, cone_name, a, n_extra, n_redundant, _ = _shape(shape_name)
    rays = CONES[cone_name]
    cone = ConeTest(rays)
    rng = random.Random(f"translate-{shape_name}-{variant}")
    K = cone.ray_grade_sum
    top = 2 * a + K
    low = [x for g in range(max(2, a // 2), a) for x in cone_points(cone, g)]
    extra = rng.sample(low, min(n_extra, len(low)))
    band = [x for g in range(a, top + 1) for x in cone_points(cone, g)]
    closure = sum_closure(extra + band, top)
    nonzero = [x for x in closure if any(x)]
    minimal = sorted(
        x
        for x in nonzero
        if not any(
            y != x and min(d := vsub(x, y)) >= 0 and any(d) and d in closure
            for y in nonzero
            if sum(y) < sum(x)
        )
    )
    redundant = [vadd(*rng.choices(minimal, k=2)) for _ in range(n_redundant)]
    gens = minimal + [r for r in redundant if r not in minimal]
    if kind == "reject":
        ray = rng.choice(rays)
        factor = rng.choice((2, 3))
        on_ray = {x for x in gens if _on_ray(x, ray)}
        gens = [tuple(factor * c for c in x) if x in on_ray else x for x in gens]
    rng.shuffle(gens)
    return {
        "key": f"{kind}:{shape_name}:{variant}",
        "kind": kind,
        "generators": [list(x) for x in dict.fromkeys(gens)],
        "rays": rays,
        "max_grade": top,
    }


def _on_ray(x, ray):
    return any(x) and all(xi * rj == xj * ri for (xi, ri) in zip(x, ray) for (xj, rj) in zip(x, ray))


def translate_pool():
    """Every input the translate workload can draw, keyed."""
    pool = {}
    for shape in TRANSLATE_SHAPES:
        for v in range(TRANSLATE_VARIANTS if shape[5] else 0):
            item = translate_input(shape[0], v, "c")
            pool[item["key"]] = item
    for name in TRANSLATE_REJECTS:
        for v in range(TRANSLATE_VARIANTS):
            item = translate_input(name, v, "reject")
            pool[item["key"]] = item
    return pool


def translate_family(seed):
    """The keys of one pass: variants of every shape, then rejects.

    Every shape contributes a fixed number of variants, so every seed
    carries the same mix of dimensions, cones and sizes.
    """
    rng = random.Random(f"translate-{seed}")
    variants = range(TRANSLATE_VARIANTS)
    keys = [
        f"c:{s[0]}:{v}" for s in TRANSLATE_SHAPES for v in rng.sample(variants, s[5])
    ]
    keys += [
        f"reject:{s}:{v}"
        for s in TRANSLATE_REJECTS
        for v in rng.sample(variants, TRANSLATE_REJECTS_DRAWN)
    ]
    rng.shuffle(keys)
    return keys
