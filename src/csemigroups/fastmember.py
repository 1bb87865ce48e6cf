"""Membership for simplicial affine semigroups via the finite Apery core.

After a one-time precomputation of the common Apery core of the ray
multiplicities, a query point is reduced greedily along each ray as long
as it stays in the cone, then the bounded box of reduction counts is
scanned for a remainder inside the core.  The core includes 0 here: the
remainder of a point that is an exact multiplicity combination is 0, and
excluding it would wrongly reject such elements.

The per-ray reduction capacity depends only on the query point's rational
cone coordinates, not on the processing order of the other rays; the order
still determines where an early core hit occurs, so results carry the ray
order used.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import DimensionMismatch
from .lattice import Point, scale, vsub, zero
from .semigroups import GenSemigroup, _as_generated


@dataclass(frozen=True)
class FastContext:
    """Precomputed membership data: ray order, multiplicities and Apery core."""

    semigroup: GenSemigroup
    rays: tuple[Point, ...]
    ray_elements: tuple[Point, ...]
    core: frozenset[Point]
    core_nonzero: frozenset[Point]

    @property
    def cone(self):
        return self.semigroup.cone


def precompute(S, ray_order=None) -> FastContext:
    """Build a :class:`FastContext` for repeated membership queries.

    ``ray_order`` optionally fixes the processing order of the extremal
    rays (default: the canonical lexicographic order).
    """
    S = _as_generated(S)
    table = S._apery_table()
    rays = tuple(S.cone.rays)
    elements = dict(zip(rays, table.ray_elements))
    if ray_order is not None:
        ray_order = tuple(tuple(r) for r in ray_order)
        if sorted(ray_order) != sorted(rays):
            raise ValueError(f"ray order {ray_order} does not match {rays}")
        rays = ray_order
    return FastContext(
        semigroup=S,
        rays=rays,
        ray_elements=tuple(elements[d] for d in rays),
        core=table.core,
        core_nonzero=table.core - {zero(S.dim)},
    )


@dataclass(frozen=True)
class FastResult:
    """Answer plus diagnostics: reduction counts, remainder and witness.

    ``reason`` is one of ``zero``, ``outside-cone``, ``early-core``,
    ``box-core`` and ``exhausted``.  When ``member`` is true,
    ``remainder + sum(coeffs[i] * ray_elements[i])`` reconstructs the query
    point with the remainder in the Apery core.
    """

    member: bool
    reason: str
    v: tuple[int, ...] | None = None
    remainder: Point | None = None
    coeffs: tuple[int, ...] | None = None

    def __bool__(self):
        return self.member


def fast_member(ctx: FastContext, x) -> FastResult:
    """Decide membership of ``x`` in the precomputed semigroup."""
    x = tuple(x)
    if len(x) != ctx.semigroup.dim:
        raise DimensionMismatch(f"point {x} vs dimension {ctx.semigroup.dim}")
    if not any(x):
        return FastResult(True, "zero")
    if min(x) < 0 or not ctx.cone.contains(x):
        return FastResult(False, "outside-cone")
    t = len(ctx.rays)
    v = [0] * t
    y = x
    for i, n in enumerate(ctx.ray_elements):
        while True:
            nxt = vsub(y, n)
            if min(nxt) < 0 or not ctx.cone.contains(nxt):
                break
            if nxt in ctx.core_nonzero:
                coeffs = list(v)
                coeffs[i] += 1
                return FastResult(
                    True, "early-core", tuple(v), nxt, tuple(coeffs)
                )
            y = nxt
            v[i] += 1
    for combo in product(*(range(k + 1) for k in v)):
        rem = x
        for lam, n in zip(combo, ctx.ray_elements):
            if lam:
                rem = vsub(rem, scale(lam, n))
        if min(rem) >= 0 and rem in ctx.core:
            return FastResult(True, "box-core", tuple(v), tuple(rem), combo)
    return FastResult(False, "exhausted", tuple(v))
