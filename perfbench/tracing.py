"""Spans around the library's public functions, recorded from outside.

The library has no instrumentation of its own, so the benchmark wraps the
public functions of each layer at run time.  A class method is patched on
its class (aliases such as ``__contains__`` included); a module function is
patched in every ``csemigroups`` module that holds it by name, so that
``from .semigroups import gaps`` in ``cli`` is traced as well.

Self time is computed as spans close: a span's duration minus the time its
direct child spans cover.  Spans of one thread nest, so the children's
durations never overlap and their sum is the covered part.  Totals are kept
for every span; the spans themselves are kept in memory up to a cap and
written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

# (layer name, module, attribute path); the name is what metrics are keyed by
TARGETS = (
    ("lattice.Cone.contains", "lattice", "Cone.contains"),
    ("lattice.Cone.coordinates", "lattice", "Cone.coordinates"),
    ("lattice.Cone.graded_points", "lattice", "Cone.graded_points"),
    ("lattice.Cone.from_generators", "lattice", "Cone.from_generators"),
    ("semigroups.GenSemigroup.init", "semigroups", "GenSemigroup.__init__"),
    ("semigroups.GenSemigroup.contains", "semigroups", "GenSemigroup.contains"),
    ("semigroups.GenSemigroup.witness", "semigroups", "GenSemigroup.witness"),
    ("semigroups.GapSemigroup.contains", "semigroups", "GapSemigroup.contains"),
    (
        "semigroups.GapSemigroup.minimal_generators",
        "semigroups",
        "GapSemigroup.minimal_generators",
    ),
    ("semigroups.gaps", "semigroups", "gaps"),
    ("semigroups.certified_gap_scan", "semigroups", "certified_gap_scan"),
    ("semigroups.pseudo_frobenius", "semigroups", "pseudo_frobenius"),
    ("semigroups.apery_context", "semigroups", "apery_context"),
    ("ideals.minimal_elements", "ideals", "minimal_elements"),
    ("ideals.verify_isemigroup", "ideals", "verify_isemigroup"),
    ("enumeration.enumerate_tree", "enumeration", "enumerate_tree"),
    ("enumeration.children", "enumeration", "children"),
    ("enumeration.with_frobenius", "enumeration", "with_frobenius"),
    ("enumeration.with_multiplicities", "enumeration", "with_multiplicities"),
    ("med.is_med_definition", "med", "is_med_definition"),
    ("med.is_med_pairwise", "med", "is_med_pairwise"),
    ("med.med_via_translates", "med", "med_via_translates"),
    ("med.med_type2_check", "med", "med_type2_check"),
    ("med.decompose", "med", "decompose"),
    ("fastmember.precompute", "fastmember", "precompute"),
    ("fastmember.fast_member", "fastmember", "fast_member"),
    ("serialize.load_semigroup", "serialize", "load_semigroup"),
    ("cli.main", "cli", "main"),
)

# spans kept in memory for the spans file; totals cover every span
KEEP_SPANS = 100_000

FAST_MEMBER_REASONS = ("zero", "outside-cone", "early-core", "box-core", "exhausted")

# counts taken from return values (and, for cli.main, from captured output)
COUNTS = (
    "semigroups.apery_context.sum_box_points",
    "semigroups.apery_context.core_points",
    "enumeration.children.results",
    "enumeration.with_frobenius.candidates",
    "enumeration.with_frobenius.results",
    "enumeration.with_multiplicities.pool",
    "enumeration.with_multiplicities.results",
    "med.med_type2_check.inconclusive",
    "cli.main.stdout_bytes",
) + tuple(f"fastmember.fast_member.reason.{r}" for r in FAST_MEMBER_REASONS)

# results / 2^(candidates or pool): the share of scanned subsets that yield
YIELDS = ("enumeration.with_frobenius.yield", "enumeration.with_multiplicities.yield")

# about the traced run itself
TRACE_METRICS = (
    ("trace.overhead_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.self_s_total", "s"),
    ("trace.spans", "count"),
)


def metric_units():
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name, _, _ in TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({name: "count" for name in COUNTS})
    units.update({name: "ratio" for name in YIELDS})
    units.update(dict(TRACE_METRICS))
    return units


class Tracer:
    """Span recorder with self-time totals per span name.

    ``clock`` returns integer nanoseconds.  ``run`` is stamped on every span
    and is set by the caller to the operation being measured.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[tuple] = []  # (id, parent, run, name, start, end)
        self.span_count = 0
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.subsets: Counter = Counter()
        self.run = 0
        self.last_core_points = 0
        # open spans: [id, start, time covered by children]
        self._stack: list[list] = []

    def enter(self):
        self.span_count += 1
        frame = [self.span_count, self.clock(), 0]
        self._stack.append(frame)
        return frame

    def exit(self, name, frame):
        end = self.clock()
        stack = self._stack
        stack.pop()
        duration = end - frame[1]
        self.calls[name] += 1
        self.self_ns[name] += duration - frame[2]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += duration
        if len(self.spans) < KEEP_SPANS:
            self.spans.append(
                (frame[0], parent[0] if parent else None, self.run, name, frame[1], end)
            )

    def wrap(self, name, fn, count=None):
        """``fn`` recording a span named ``name``; ``count(tracer, result)``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(name, frame)
            if count is not None:
                count(self, result)
            return result

        return traced

    def metrics(self):
        """Per-layer metrics: calls and self seconds per target, plus counts."""
        out = {}
        for name, _, _ in TARGETS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_ns[name] / 1e9
        for name in COUNTS:
            out[name] = self.counts[name]
        for name in YIELDS:
            base = name.rsplit(".", 1)[0]
            scanned = self.subsets[base]
            out[name] = self.counts[f"{base}.results"] / scanned if scanned else 0.0
        return out

    def self_s_total(self):
        return sum(self.self_ns.values()) / 1e9

    def write(self, path):
        """Write the kept spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, run, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "run": run,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                        }
                    )
                    + "\n"
                )


def _count_apery(tracer, ctx):
    tracer.counts["semigroups.apery_context.sum_box_points"] += len(ctx.sum_box)
    tracer.counts["semigroups.apery_context.core_points"] += len(ctx.core)
    tracer.last_core_points = len(ctx.core)


def _count_children(tracer, out):
    tracer.counts["enumeration.children.results"] += len(out)


def _count_frobenius(tracer, fiber):
    base = "enumeration.with_frobenius"
    tracer.counts[f"{base}.candidates"] += len(fiber.candidates)
    tracer.counts[f"{base}.results"] += len(fiber.results)
    tracer.subsets[base] += 2 ** len(fiber.candidates)


def _count_multiplicities(tracer, results):
    # the pool is the Apery core minus zero, from the apery_context call that
    # with_multiplicities makes first
    base = "enumeration.with_multiplicities"
    pool = tracer.last_core_points - 1
    tracer.counts[f"{base}.pool"] += pool
    tracer.counts[f"{base}.results"] += len(results)
    tracer.subsets[base] += 2**pool


def _count_type2(tracer, state):
    tracer.counts["med.med_type2_check.inconclusive"] += state.value == "inconclusive"


def _count_reason(tracer, result):
    tracer.counts[f"fastmember.fast_member.reason.{result.reason}"] += 1


HOOKS = {
    "semigroups.apery_context": _count_apery,
    "enumeration.children": _count_children,
    "enumeration.with_frobenius": _count_frobenius,
    "enumeration.with_multiplicities": _count_multiplicities,
    "med.med_type2_check": _count_type2,
    "fastmember.fast_member": _count_reason,
}


def _package_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "csemigroups" or name.startswith("csemigroups."))
    ]


def install(tracer):
    """Patch every target; returns a function that restores the originals."""
    targets = [(n, importlib.import_module(f"csemigroups.{m}"), p) for n, m, p in TARGETS]
    restore = []
    modules = _package_modules()
    for name, module, path in targets:
        hook = HOOKS.get(name)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(name, raw.__func__, hook))
            else:
                wrapped = tracer.wrap(name, raw, hook)
            for key, value in list(cls.__dict__.items()):
                if value is raw:
                    restore.append((cls, key, raw))
                    setattr(cls, key, wrapped)
        else:
            raw = getattr(module, path)
            wrapped = tracer.wrap(name, raw, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        restore.append((mod, key, raw))
                        setattr(mod, key, wrapped)

    def uninstall():
        for owner, key, raw in reversed(restore):
            setattr(owner, key, raw)

    return uninstall
