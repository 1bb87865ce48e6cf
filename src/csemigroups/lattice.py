"""Exact integer and rational lattice primitives.

Points are plain tuples of arbitrary-precision integers.  All arithmetic in
this module (and in the rest of the package) is exact, never floating point.
Monomial-order comparisons and cone membership use integers only: one
fraction-free elimination (:func:`bareiss`) gives each simplicial cone an
integer adjugate solver, so a membership test is a few integer dot products
and sign tests.  Ray extremality is first decided by a certificate: a
direction that alone attains the extreme value of some x_i over the
coordinate sum is extremal, and when these rays are linearly independent
their solver rules out every direction inside their cone.  The simplex
runs only for the directions the certificate leaves undecided, on a
fraction-free integer tableau, so ``fractions.Fraction`` appears only in
the coordinates :meth:`Cone.coordinates` returns.

Functions are pure, and objects are immutable after construction except
for a :class:`Cone`'s caches: its solver and lattice index, and the points
of each grade :meth:`Cone.graded_points` was asked for (only by the Apery
table's unmet-residue search and the tests).  Each is a function of the
rays alone, so sharing a cone stays safe: a race only computes one twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import combinations
from math import gcd
from operator import add, mul, neg, sub

from .errors import DimensionMismatch, NonSimplicialCone, ZeroCone

Point = tuple[int, ...]

#: results of :meth:`MonomialOrder.compare`
LT, EQ, GT = -1, 0, 1

_ORDER_KINDS = ("lex", "deglex", "degrevlex")


def vadd(a: Point, b: Point) -> Point:
    return tuple(map(add, a, b))


def vsub(a: Point, b: Point) -> tuple[int, ...]:
    """Componentwise difference; coordinates may be negative."""
    return tuple(map(sub, a, b))


def scale(k: int, a: Point) -> Point:
    return tuple(k * x for x in a)


def zero(dim: int) -> Point:
    return (0,) * dim


def primitive(a) -> Point:
    """Divide a nonzero integer vector by the gcd of its coordinates."""
    g = reduce(gcd, a, 0)
    if g == 0:
        raise ZeroCone("the zero vector has no primitive direction")
    return tuple(x // g for x in a)


def _check_dim(a, dim):
    if len(a) != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {len(a)}: {a}")


@dataclass(frozen=True)
class MonomialOrder:
    """Total order on the lattice compatible with addition and with 0 minimal.

    ``kind`` is one of ``lex``, ``deglex`` or ``degrevlex``; ``priority`` is
    the coordinate permutation used for tie breaking, strongest coordinate
    first (identity when omitted).  Degree means coordinate sum.
    """

    kind: str = "deglex"
    priority: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in _ORDER_KINDS:
            raise ValueError(f"unknown monomial order kind {self.kind!r}")
        if self.priority is not None:
            object.__setattr__(self, "priority", tuple(self.priority))
            if sorted(self.priority) != list(range(len(self.priority))):
                raise ValueError("priority must be a permutation of the coordinates")

    @property
    def degree_compatible(self) -> bool:
        """True when greater degree always means greater element."""
        return self.kind != "lex"

    def _perm(self, dim):
        if len(self.priority) != dim:
            raise DimensionMismatch(
                f"order priority has length {len(self.priority)}, point has {dim}"
            )
        return self.priority

    def key(self, a: Point):
        """Sort key realizing the order: ``key(a) < key(b)`` iff ``a`` precedes ``b``.

        Without a priority the key is built from the point tuple itself,
        with no permutation.
        """
        if self.priority is None:
            if self.kind == "deglex":
                return (sum(a), a)
            if self.kind == "lex":
                return a
            return (sum(a), tuple(map(neg, reversed(a))))
        perm = self._perm(len(a))
        if self.kind == "lex":
            return tuple(a[i] for i in perm)
        if self.kind == "deglex":
            return (sum(a), tuple(a[i] for i in perm))
        # degrevlex: on equal degree the smaller point carries the larger
        # entry at the lowest-priority coordinate where they differ
        return (sum(a), tuple(-a[i] for i in reversed(list(perm))))

    def compare(self, a: Point, b: Point) -> int:
        if len(a) != len(b):
            raise DimensionMismatch(f"cannot compare {a} with {b}")
        ka, kb = self.key(a), self.key(b)
        if ka < kb:
            return LT
        if ka > kb:
            return GT
        return EQ

    def max(self, points):
        return max(points, key=self.key)


def _pivot(a, k, c, prev):
    """Bareiss step in place on pivot ``a[k][c]`` (exact division by ``prev``)."""
    prow = a[k]
    p = prow[c]
    for r, row in enumerate(a):
        if r != k:
            f = row[c]
            a[r] = [(p * x - f * y) // prev for x, y in zip(row, prow)]
    return p


def bareiss(rows):
    """Fraction-free Gauss-Jordan elimination of an integer matrix (Bareiss 1968).

    Returns ``(rank, cols, det, adj)``.  ``cols`` are the pivot columns, in
    order.  When the rows are linearly independent, ``det`` and ``adj`` are
    the determinant and the integer adjugate of the square submatrix on
    ``cols`` (for a nonsingular square matrix: of the matrix itself);
    otherwise ``det`` is 0 and ``adj`` is None.  Every intermediate entry is
    a minor of the input augmented by the identity, so each division is
    exact.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    # augmenting with the identity accumulates det·M_cols⁻¹ on the right
    a = [list(row) + [int(i == j) for j in range(m)] for i, row in enumerate(rows)]
    rank, cols, prev, sign = 0, [], 1, 1
    for c in range(n):
        if rank == m:
            break
        pivot = next((r for r in range(rank, m) if a[r][c]), None)
        if pivot is None:
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            sign = -sign
        prev = _pivot(a, rank, c, prev)
        cols.append(c)
        rank += 1
    if rank < m:
        return rank, tuple(cols), 0, None
    return rank, tuple(cols), sign * prev, [[sign * x for x in row[n:]] for row in a]


def _nonneg_combination_exists(columns, target) -> bool:
    """Exact feasibility of ``sum λ_i c_i = target`` with rational ``λ ≥ 0``.

    Phase-one simplex with Bland's rule (ties in the ratio test go to the
    smallest basis index); ``target`` must have non-negative coordinates,
    which makes the all-artificial basis feasible.  The tableau is
    fraction-free (Edmonds 1967): every entry is d times its rational value,
    d > 0 being the last pivot, and pivots are the Bareiss steps of :func:`_pivot`.
    """
    if not any(target):
        return True
    if not columns:
        return False
    m, n = len(target), len(columns)
    # tableau rows: [original vars | artificial vars | rhs]
    tab = [
        [c[i] for c in columns] + [int(k == i) for k in range(m)] + [target[i]]
        for i in range(m)
    ]
    basis = list(range(n, n + m))
    d = 1
    while True:
        # d times the reduced costs of the "minimize artificial sum" objective
        artificial = [row for row, b in zip(tab, basis) if b >= n]
        entering = next(
            (
                j
                for j in range(n + m)
                if d * (j >= n) < sum(row[j] for row in artificial)
            ),
            None,
        )
        if entering is None:
            break
        row = None
        for i, r in enumerate(tab):
            a = r[entering]
            if a <= 0:
                continue
            if row is not None:
                # ratio r[-1]/a against the best one by cross-multiplication,
                # ties to the smaller basis index
                lhs, rhs = r[-1] * tab[row][entering], tab[row][-1] * a
                if lhs > rhs or (lhs == rhs and basis[i] > basis[row]):
                    continue
            row = i
        if row is None:  # unbounded; cannot happen for this objective
            return False
        d = _pivot(tab, row, entering, d)
        basis[row] = entering
    return not any(row[-1] for row, b in zip(tab, basis) if b >= n)


def _certified_rays(dirs) -> tuple[Point, ...]:
    """The directions (distinct primitive vectors in ℕ^p) that are the
    unique minimiser of x_i/w or of −x_i/w for some coordinate i, w the
    coordinate sum; :meth:`Cone.from_generators` explains why each is an
    extremal ray."""
    weights = [sum(d) for d in dirs]
    found = set()
    for i in range(len(dirs[0])):
        for sign in (1, -1):
            best = [0]
            for j in range(1, len(dirs)):
                # sign·(x_i/w of j − x_i/w of the best), over w(j)·w(best) > 0
                b = best[0]
                c = sign * (dirs[j][i] * weights[b] - dirs[b][i] * weights[j])
                if c < 0:
                    best = [j]
                elif c == 0:
                    best.append(j)
            if len(best) == 1:
                found.add(dirs[best[0]])
    return tuple(sorted(found))


@dataclass(frozen=True)
class Cone:
    """Pointed rational cone spanned by primitive extremal ray directions.

    ``rays`` are lexicographically sorted primitive integer vectors, which
    fixes the ray indexing used across the package.  Membership and rational
    coordinates are only supported for simplicial cones (linearly
    independent rays); non-simplicial cones can be constructed but reject
    those operations with :class:`NonSimplicialCone`.
    """

    dim: int
    rays: tuple[Point, ...]

    def __post_init__(self):
        object.__setattr__(self, "rays", tuple(tuple(r) for r in self.rays))
        for r in self.rays:
            _check_dim(r, self.dim)

    @classmethod
    def from_generators(cls, points) -> "Cone":
        """Cone spanned by ``points`` in ℕ^p; keeps only primitive extremal
        directions.

        A certificate decides most directions without linear programming.
        With w the coordinate sum, a direction that alone attains the least
        x_i/w or the largest x_i/w over the directions is a vertex of the
        section w = 1, so an extremal ray (Ziegler, *Lectures on Polytopes*,
        1995); the ratios are compared by integer cross-multiplication.
        When these certified rays R are linearly independent, a direction
        that R's integer solver places in cone(R) is not extremal.  The
        phase-one simplex runs only for the directions left undecided (tied
        ratios, or directions outside cone(R) as in non-simplicial cones).
        When it runs for none, the cone on R is returned with the
        elimination its solver already holds.
        """
        points = [tuple(p) for p in points]
        if not points:
            raise ZeroCone("no generators given")
        dim = len(points[0])
        for p in points:
            _check_dim(p, dim)
            if any(x < 0 for x in p):
                raise ValueError(f"generator {p} has a negative coordinate")
        dirs = sorted({primitive(p) for p in points if any(p)})
        if not dirs:
            raise ZeroCone("all generators are zero")
        certified = cls(dim, _certified_rays(dirs))
        rays = set(certified.rays)
        inside = certified._numerators if certified.simplicial else lambda d: None
        undecided = [d for d in dirs if d not in rays and inside(d) is None]
        if not undecided:
            return certified
        rays.update(
            d
            for d in undecided
            if not _nonneg_combination_exists([e for e in dirs if e != d], d)
        )
        return cls(dim, tuple(sorted(rays)))

    @cached_property
    def _elimination(self):
        return bareiss(self.rays)

    @cached_property
    def simplicial(self) -> bool:
        """True when the ray directions are linearly independent."""
        return self._elimination[0] == len(self.rays)

    def _require_simplicial(self):
        if not self.simplicial:
            raise NonSimplicialCone(
                "operation supports only simplicial cones "
                f"(got {len(self.rays)} dependent rays in dimension {self.dim})"
            )

    @cached_property
    def lattice_index(self) -> int:
        """Index of the lattice spanned by the rays in the lattice points of
        their linear span: the gcd of the rays' t×t minors (|det| of the rays
        when the cone is full-dimensional)."""
        self._require_simplicial()
        minors = (
            bareiss([[r[c] for c in cols] for r in self.rays])[2]
            for cols in combinations(range(self.dim), len(self.rays))
        )
        return reduce(gcd, minors, 0)

    @cached_property
    def _solver(self):
        """Integer solver for ``x = Σ α_i r_i``: ``det·α = A·x``, det > 0.

        The rays have a nonzero t×t minor on the pivot coordinates of their
        elimination (all coordinates when the cone is full-dimensional); the
        rows of A carry that minor's adjugate there and 0 elsewhere.  The
        other coordinates, ``rest``, are checked by exact reconstruction.
        """
        self._require_simplicial()
        _, sel, det, adj = self._elimination
        # x_sel = Mᵀα with M[i][j] = rays[i][sel[j]], so det·α = adj(M)ᵀ·x_sel
        s = 1 if det > 0 else -1
        pos = {c: j for j, c in enumerate(sel)}
        rows = tuple(
            tuple(s * adj[pos[c]][i] if c in pos else 0 for c in range(self.dim))
            for i in range(len(adj))
        )
        rest = tuple(c for c in range(self.dim) if c not in pos)
        return rows, s * det, rest

    def _numerators(self, x) -> Point | None:
        """``det·α`` for the ray coordinates α of ``x``, or None when outside."""
        rows, det, rest = self._solver
        nums = []
        for row in rows:
            n = sum(map(mul, row, x))
            if n < 0:
                return None
            nums.append(n)
        for c in rest:
            if sum(n * r[c] for n, r in zip(nums, self.rays)) != det * x[c]:
                return None
        return tuple(nums)

    def coordinates(self, x) -> tuple[Fraction, ...] | None:
        """Rational ray coordinates of ``x``, or None when ``x`` is outside.

        Only simplicial cones are supported; the coordinates are then unique.
        Negative integer coordinates in ``x`` are allowed and simply yield
        None.
        """
        _check_dim(x, self.dim)
        nums = self._numerators(x)
        if nums is None:
            return None
        det = self._solver[1]
        return tuple(Fraction(n, det) for n in nums)

    def contains(self, x) -> bool:
        """Exact membership of an integer vector in the cone (within ℕ^p)."""
        _check_dim(x, self.dim)
        if min(x) < 0:
            return False
        return self._numerators(x) is not None

    @cached_property
    def _graded_cache(self):
        return {}

    def graded_split(self, grade: int):
        """Yield ``(x, _numerators(x))`` for the cone points x of the given
        coordinate sum, in ascending lexicographic order.

        The enumerator behind every walk of cone points by coordinate sum:
        each lattice point of the grade is split once, and None drops it.
        Nothing is cached, so a walk that reads the numerators (the
        decomposition check of :mod:`.med`) holds no more than the point
        it is at.
        """
        for x in _graded_tuples(self.dim, grade):
            nums = self._numerators(x)
            if nums is not None:
                yield x, nums

    def graded_points(self, grade: int) -> tuple[Point, ...]:
        """Cone points of the given coordinate sum, lexicographically sorted.

        The points of :meth:`graded_split`, cached per cone and shared by
        every semigroup built over this cone object.
        """
        cache = self._graded_cache
        if grade not in cache:
            cache[grade] = tuple(x for x, _ in self.graded_split(grade))
        return cache[grade]


def _graded_tuples(dim, total):
    """Points of ℕ^dim with coordinate sum ``total``, in ascending lex order."""
    if dim == 1:
        yield (total,)
        return
    if dim == 2:
        # the last two coordinates in one loop, without a generator per x0
        for x0 in range(total + 1):
            yield (x0, total - x0)
        return
    for x0 in range(total + 1):
        for rest in _graded_tuples(dim - 1, total - x0):
            yield (x0,) + rest
