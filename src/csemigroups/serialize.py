"""JSON file format for semigroup descriptions.

A document holds exactly one representation:

    {"p": 2, "generators": [[5, 1], [6, 2], ...]}
    {"p": 2, "rays": [[3, 1], [5, 1]], "gaps": [[3, 1], [4, 1], ...]}

plus an optional monomial order:

    {"order": "deglex", "priority": [0, 1]}

Coordinates are JSON arrays of non-negative integers, never strings.
Loading validates the schema invariants (gap closure, ray extremality,
simplicial rays, dimensions, a priority that permutes the p coordinates)
and raises :class:`InvalidSemigroupFile` naming the violated invariant.
"""

from __future__ import annotations

import json

from .errors import InvalidSemigroupFile
from .lattice import _ORDER_KINDS, Cone, MonomialOrder
from .semigroups import GapSemigroup, GenSemigroup


def _point_list(doc, key, dim):
    raw = doc[key]
    if not isinstance(raw, list):
        raise InvalidSemigroupFile(f'"{key}" must be a list of points', key)
    points = []
    for entry in raw:
        if (
            not isinstance(entry, list)
            or not all(map(_is_int, entry))
            or any(c < 0 for c in entry)
        ):
            raise InvalidSemigroupFile(
                f'entry {entry!r} of "{key}" is not a vector of non-negative integers',
                "non-negative-integer-coordinates",
            )
        if len(entry) != dim:
            raise InvalidSemigroupFile(
                f'entry {entry!r} of "{key}" does not have dimension {dim}',
                "dimension",
            )
        points.append(tuple(entry))
    return points


def _is_int(c) -> bool:
    return isinstance(c, int) and not isinstance(c, bool)


def load_order(doc, dim) -> MonomialOrder | None:
    if "order" not in doc:
        return None
    kind = doc["order"]
    if kind not in _ORDER_KINDS:
        raise InvalidSemigroupFile(f"unknown order kind {kind!r}", "order-kind")
    priority = doc.get("priority")
    if priority is not None:
        if (
            not isinstance(priority, list)
            or not all(map(_is_int, priority))
            or sorted(priority) != list(range(dim))
        ):
            raise InvalidSemigroupFile(
                f"priority {priority!r} is not a coordinate permutation",
                "priority-permutation",
            )
        priority = tuple(priority)
    return MonomialOrder(kind, priority)


def load_document(doc):
    """Parse a document dict into (semigroup, order or None)."""
    if not isinstance(doc, dict):
        raise InvalidSemigroupFile("document must be a JSON object", "document")
    dim = doc.get("p")
    if not _is_int(dim) or dim < 1:
        raise InvalidSemigroupFile('"p" must be a positive integer', "dimension")
    has_gen = "generators" in doc
    has_gap = "rays" in doc or "gaps" in doc
    if has_gen == has_gap or ("rays" in doc) != ("gaps" in doc):
        raise InvalidSemigroupFile(
            'exactly one of "generators" or "rays"+"gaps" must be present',
            "exactly-one-representation",
        )
    order = load_order(doc, dim)
    if has_gen:
        generators = _point_list(doc, "generators", dim)
        if not generators:
            raise InvalidSemigroupFile("empty generating set", "generators")
        try:
            return GenSemigroup(generators), order
        except ValueError as exc:
            raise InvalidSemigroupFile(str(exc), "generators") from exc
    rays = _point_list(doc, "rays", dim)
    gap_points = _point_list(doc, "gaps", dim)
    try:
        canonical = Cone.from_generators(rays)
    except Exception as exc:
        raise InvalidSemigroupFile(str(exc), "ray-extremality") from exc
    if set(canonical.rays) != set(rays) or len(set(rays)) != len(rays):
        raise InvalidSemigroupFile(
            f"rays {rays} are not the primitive extremal directions "
            f"{list(canonical.rays)}",
            "ray-extremality",
        )
    if not canonical.simplicial:
        raise InvalidSemigroupFile(
            f"rays {rays} are linearly dependent", "simplicial-cone"
        )
    try:
        sgp = GapSemigroup(canonical, gap_points)
    except ValueError as exc:
        raise InvalidSemigroupFile(str(exc), "gap-in-cone") from exc
    try:
        sgp.validate_closure()
    except ValueError as exc:
        raise InvalidSemigroupFile(str(exc), "gap-closure") from exc
    return sgp, order


def load_semigroup(path):
    """Load (semigroup, order or None) from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InvalidSemigroupFile(f"cannot read {path}: {exc}", "io") from exc
    except json.JSONDecodeError as exc:
        raise InvalidSemigroupFile(f"invalid JSON in {path}: {exc}", "json") from exc
    return load_document(doc)


def semigroup_to_document(S, order: MonomialOrder | None = None) -> dict:
    """Canonical document for either representation (round-trips on load)."""
    if isinstance(S, GenSemigroup):
        doc = {"p": S.dim, "generators": [list(g) for g in S.generators]}
    elif isinstance(S, GapSemigroup):
        doc = {
            "p": S.dim,
            "rays": [list(r) for r in S.cone.rays],
            "gaps": [list(h) for h in sorted(S.gaps)],
        }
    else:
        raise TypeError(f"cannot serialize {type(S).__name__}")
    if order is not None:
        doc["order"] = order.kind
        if order.priority is not None:
            doc["priority"] = list(order.priority)
    return doc
