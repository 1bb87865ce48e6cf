"""Command-line interface.

Every subcommand loads a semigroup description from a JSON file, runs the
corresponding library operation and prints a machine-readable JSON object
(or an SVG/ASCII diagram for ``plot``).  Exit codes: 0 on success, 1 when
the reader closed stdout before all output was written (as ``| head``
does; no traceback is printed), 2 on validation errors (a JSON error
object naming the violated invariant is printed), 3 when a bounded search
gave up before reaching a certificate (the error object then also holds
the budget's ``limit``, the ``count`` that passed it and the ``unit``
counted).  The environment variable ``SEMIGROUP_BUDGET`` overrides the
default exploration budget; it also bounds the nodes of the ``tree`` walk,
the elements of S up to the ``frobenius-fixed`` target, the semigroups
the ``frobenius-fixed`` and ``mult-fixed`` fibers list (each walks from
its own start, so it counts nothing it does not list) and the lattice
points a ``plot`` window may hold; a ``tree`` node counted on the last
level without being built is charged like any other.  ``tree`` without
``--full`` counts its levels on the walk's generator bits as the
depth-first walk streams, and counts its last level by popcount, so it
holds one path of the tree, not its levels.  ``tree --full``,
``frobenius-fixed`` and ``mult-fixed`` write the document in pieces, one
semigroup at a time, each joined from the texts of the ranks the removal
walk's bare nodes hold, which every command call encodes once per point of
the walk's universe into a list indexed by rank
(:func:`_semigroup_encoder`), with no semigroup object built; ranks follow
tuple order, so the joined lists are sorted, and the bytes equal those of
the sorted-key encoding of the whole document.  The tree keeps each node
only as its text until the walk ends, and so do the fibers; no command
builds the whole text.  Every search and budget check ends before the
first byte is written.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import enumeration, fastmember, med, plot, semigroups, serialize
from .errors import BudgetExceeded, InvalidSemigroupFile, SemigroupError
from .ideals import ideal_from_set, ideal_is_csemigroup, isemigroup_from_ideal
from .lattice import MonomialOrder
from .semigroups import GapSemigroup, gaps

DEFAULT_ORDER = MonomialOrder("deglex")


def _budget():
    raw = os.environ.get("SEMIGROUP_BUDGET")
    if raw is None:
        return semigroups.DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise InvalidSemigroupFile(
            f"SEMIGROUP_BUDGET={raw!r} is not an integer", "budget"
        ) from exc
    if value <= 0:
        raise InvalidSemigroupFile("SEMIGROUP_BUDGET must be positive", "budget")
    return value


def _parse_point(text, dim):
    try:
        coords = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise InvalidSemigroupFile(
            f"{text!r} is not a comma-separated integer vector", "point"
        ) from exc
    if any(c < 0 for c in coords):
        raise InvalidSemigroupFile(f"{text!r} has negative coordinates", "point")
    if len(coords) != dim:
        raise InvalidSemigroupFile(
            f"{text!r} does not have dimension {dim}", "dimension"
        )
    return coords


def _parse_window(text):
    parts = text.lower().split("x")
    try:
        values = [int(p) for p in parts]
    except ValueError as exc:
        raise InvalidSemigroupFile(f"bad window {text!r}", "window") from exc
    if len(values) == 1:
        values = [values[0], values[0]]
    if len(values) != 2 or min(values) < 0:
        raise InvalidSemigroupFile(f"bad window {text!r}", "window")
    return tuple(values)


def _load(path):
    sgp, order = serialize.load_semigroup(path)
    return sgp, (order or DEFAULT_ORDER)


def _gap_rep(S, budget) -> GapSemigroup:
    return S if isinstance(S, GapSemigroup) else gaps(S, budget)


def _points(values):
    # json writes a tuple as it writes a list
    return sorted(values)


# Every document is a tree of dicts, lists, tuples and scalars that a command
# has just built, so no container can reach itself, and the encoder's cycle
# check (an id entry per container) guards nothing.
_encode = json.JSONEncoder(sort_keys=True, check_circular=False).encode


def _chunks(doc, items):
    """The text ``json.dumps(doc | {"semigroups": [...]}, sort_keys=True)``
    and a newline, in pieces: the list's items are given as their encoded
    texts, and each is written as its own piece, so the whole text is never
    held.  ``doc`` holds no string values, so the empty list's entry
    appears once in its encoding."""
    head, _, tail = _encode(doc | {"semigroups": []}).partition('"semigroups": []')
    yield head + '"semigroups": ['
    sep = ""
    for item in items:
        yield sep + item
        sep = ", "
    yield "]" + tail + "\n"


def _semigroup_encoder(genus, full=True, removed=False):
    """The maker, given the points that a removal walk's ranks name
    (``enumeration._walk``), of the text of ``{"gaps": ..., "genus": g,
    "imsg": ..., "removed": x}`` for each node of that walk whose root has
    genus ``genus``, as ``json.dumps`` with sorted keys writes it: ``gaps``
    only when ``full``, ``removed`` only when ``removed`` (and ``full``).
    A node's rank tuples are sorted, and ranks follow tuple order, so its
    point lists are already sorted.  Each point is encoded once per walk,
    into a list indexed by rank, and each command call makes its own, so
    no text outlives the call."""

    def make(points):
        texts = ["[" + ", ".join(map(str, p)) + "]" for p in points]
        text, join = texts.__getitem__, ", ".join

        def tree_node(node):
            k, x, gens, _, hs = node
            return (
                f'{{"gaps": [{join(map(text, hs))}], "genus": {genus + k}, '
                f'"imsg": [{join(map(text, gens))}], '
                f'"removed": {"null" if x is None else texts[x]}}}'
            )

        def full_node(node):
            k, _, gens, _, hs = node
            return (
                f'{{"gaps": [{join(map(text, hs))}], "genus": {genus + k}, '
                f'"imsg": [{join(map(text, gens))}]}}'
            )

        def gens_node(node):
            k, _, gens, _, _ = node
            return f'{{"genus": {genus + k}, "imsg": [{join(map(text, gens))}]}}'

        return tree_node if removed else full_node if full else gens_node

    return make


def cmd_gaps(args):
    S, _ = _load(args.semigroup)
    G = _gap_rep(S, _budget())
    return {"genus": G.genus, "gaps": _points(G.gaps)}


def cmd_msg(args):
    S, _ = _load(args.semigroup)
    return {"generators": _points(S.minimal_generators())}


def cmd_member(args):
    S, _ = _load(args.semigroup)
    Sg = semigroups._as_generated(S)
    point = _parse_point(args.point, S.dim)
    inside = Sg.contains(point)
    doc = {"member": inside}
    if inside:
        witness = Sg.witness(point)
        doc["witness"] = {
            "generators": [list(g) for g in Sg.generators],
            "coefficients": list(witness),
        }
    return doc


def cmd_fast_member(args):
    S, _ = _load(args.semigroup)
    ctx = fastmember.precompute(S)
    result = fastmember.fast_member(ctx, _parse_point(args.point, S.dim))
    doc = {
        "member": result.member,
        "reason": result.reason,
        "ray_order": [list(r) for r in ctx.rays],
    }
    if result.v is not None:
        doc["v"] = list(result.v)
    if result.remainder is not None:
        doc["remainder"] = list(result.remainder)
        doc["coefficients"] = list(result.coeffs)
    return doc


def _apery_ctx(args):
    S, _ = _load(args.semigroup)
    M = [_parse_point(m, S.dim) for m in args.m] if args.m else S.multiplicities()
    return semigroups.apery_context(S, M)


def cmd_apery(args):
    ctx = _apery_ctx(args)
    return {
        "m": _points(ctx.ray_elements),
        "multipliers": list(ctx.multipliers),
        "generators": [list(g) for g in ctx.base.generators],
        "core": _points(ctx.core),
    }


def cmd_gamma(args):
    ctx = _apery_ctx(args)
    return {
        "m": _points(ctx.ray_elements),
        "size": len(ctx.sum_box),
        "gamma": _points(ctx.sum_box),
    }


def cmd_pf(args):
    S, _ = _load(args.semigroup)
    G = _gap_rep(S, _budget())
    return {"pseudo_frobenius": _points(semigroups.pseudo_frobenius(G))}


def cmd_ideal(args):
    S, _ = _load(args.semigroup)
    G = _gap_rep(S, _budget())
    X = [_parse_point(p, S.dim) for p in args.points]
    P = ideal_from_set(G, X)
    doc = {
        "imsg": _points(P.gens),
        "meets_all_rays": ideal_is_csemigroup(P),
    }
    if doc["meets_all_rays"]:
        T = isemigroup_from_ideal(P, _budget())
        doc["genus"] = T.genus
        doc["gaps"] = _points(T.gaps)
    return doc


def cmd_tree(args):
    S, order = _load(args.semigroup)
    budget = _budget()
    G = _gap_rep(S, budget)
    if args.full:
        # each node is kept only as its encoded text, so the walk's nodes
        # are dropped as it moves on; the budget binds before any byte is written
        _, points, walk = enumeration._tree(G, args.max_genus, order, budget)
        encode = _semigroup_encoder(G.genus, removed=True)(points)
        levels = enumeration._levels(walk, encode)
        counts = [len(level) for level in levels]
    else:
        counts = enumeration.tree_counts(G, args.max_genus, order, budget)
    doc = {
        "root_genus": G.genus,
        "total": sum(counts),
        "levels": [
            {"genus": G.genus + i, "count": count} for i, count in enumerate(counts)
        ],
    }
    if args.full:
        return _chunks(doc, (node for level in levels for node in level))
    return doc


def cmd_frobenius_fixed(args):
    S, order = _load(args.semigroup)
    budget = _budget()
    G = _gap_rep(S, budget)
    f = _parse_point(args.f, S.dim)
    candidates, top, pool, coords = enumeration._frobenius_start(G, f, order, budget)
    results = []
    if top is not None:
        encode = _semigroup_encoder(top.genus)
        results = enumeration._fiber(G, top, coords, pool, budget, encode)
    doc = {"f": list(f), "candidates": _points(candidates), "count": len(results)}
    return _chunks(doc, results)


def cmd_mult_fixed(args):
    S, _ = _load(args.semigroup)
    budget = _budget()
    G = _gap_rep(S, budget)
    M = [_parse_point(m, S.dim) for m in args.m]
    verify = args.verify_multiplicities
    root, pool, coords = enumeration._multiplicity_start(G, M, verify)
    encode = _semigroup_encoder(root.genus, full=args.full)
    results = enumeration._fiber(G, root, coords, pool, budget, encode, args.full)
    doc = {"m": _points(M), "count": len(results), "verified": verify}
    return _chunks(doc, results)


def cmd_med(args):
    S, _ = _load(args.semigroup)
    report = med.is_med_definition(S)
    doc = {
        "is_med": report.is_med,
        "pairwise": med.is_med_pairwise(S),
        "via_translates": med.med_via_translates(S),
        "type2": med.med_type2_check(S).value,
        "apery_core": _points(report.apery_core),
        "non_ray_generators": _points(report.non_ray_generators),
    }
    if report.witness is not None:
        doc["witness"] = [list(p) for p in report.witness]
    return doc


def cmd_decompose(args):
    S, _ = _load(args.semigroup)
    dec = med.decompose(S)
    return {
        "ray_elements": _points(dec.ray_elements),
        "head": _points(dec.head),
        "identity_verified_up_to_grade": 40 if dec.verify_on_box(40) else None,
    }


def cmd_plot(args):
    S, _ = _load(args.semigroup)
    window = _parse_window(args.window) if args.window else None
    if args.ascii:
        return plot.render_ascii(S, window, _budget())
    return plot.render_svg(S, window, _budget())


@functools.cache
def build_parser():
    """The argument parser, built once per process; parsing never mutates it."""
    parser = argparse.ArgumentParser(
        prog="csemigroups",
        description="Exact computations with C-semigroups and their ideals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("semigroup", help="JSON semigroup description")
        p.set_defaults(func=func)
        return p

    add("gaps", cmd_gaps, help="gap set and genus")
    add("msg", cmd_msg, help="minimal generating set")
    p = add("member", cmd_member, help="membership oracle")
    p.add_argument("point", help="query point, e.g. 31,8")
    p = add("fast-member", cmd_fast_member, help="Apery-core membership")
    p.add_argument("point", help="query point, e.g. 31,8")
    p = add("apery", cmd_apery, help="common Apery core for on-ray elements")
    p.add_argument("--m", action="append", help="on-ray element (repeatable)")
    p = add("gamma", cmd_gamma, help="generator sums below their Apery multipliers")
    p.add_argument("--m", action="append", help="on-ray element (repeatable)")
    add("pf", cmd_pf, help="pseudo-Frobenius elements")
    p = add("ideal", cmd_ideal, help="canonical ideal generated by points")
    p.add_argument("points", nargs="+", help="generating points, e.g. 5,1 6,2")
    p = add("tree", cmd_tree, help="genus tree enumeration")
    p.add_argument("--max-genus", type=int, required=True)
    p.add_argument("--full", action="store_true", help="include every semigroup")
    p = add("frobenius-fixed", cmd_frobenius_fixed, help="fixed Frobenius fiber")
    p.add_argument("--f", required=True, help="Frobenius element, e.g. 11,3")
    p = add("mult-fixed", cmd_mult_fixed, help="fixed multiplicities fiber")
    p.add_argument("--m", action="append", required=True, help="ray element")
    p.add_argument("--verify-multiplicities", action="store_true")
    p.add_argument("--full", action="store_true", help="include gap sets")
    add("med", cmd_med, help="maximal-embedding-dimension predicates")
    add("decompose", cmd_decompose, help="head plus ray-section decomposition")
    p = add("plot", cmd_plot, help="SVG (or ASCII) gap diagram")
    p.add_argument("--window", help="window size W or WxH")
    p.add_argument("--ascii", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    code = 0
    try:
        result = args.func(args)
    except BudgetExceeded as exc:
        result = {
            "error": "BudgetExceeded",
            "message": str(exc),
            "limit": exc.limit,
            "count": exc.count,
            "unit": exc.unit,
        }
        code = 3
    except InvalidSemigroupFile as exc:
        result = {
            "error": "InvalidSemigroupFile",
            "invariant": exc.invariant,
            "message": str(exc),
        }
        code = 2
    except (SemigroupError, ValueError) as exc:
        result, code = {"error": type(exc).__name__, "message": str(exc)}, 2
    if isinstance(result, str):
        result = (result,)
    elif isinstance(result, dict):
        result = (_encode(result), "\n")
    try:
        sys.stdout.writelines(result)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (``| head``): point stdout at
        # devnull so that the flush at exit cannot fail again, and exit 1
        # without a traceback, as the Python docs on SIGPIPE advise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
