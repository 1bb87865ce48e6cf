"""Tests of the benchmark's own logic: statistics, tracing, judging, seeds.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gauge  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from csemigroups import cli, fastmember, ideals, semigroups  # noqa: E402


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail(range(1, 101)) == (90, 90.0, 10)
    value, pct, beyond = run.tail([5.0] * 20 + [9.0] * 11)
    assert (value, beyond) == (9.0, 10)
    assert round(pct, 4) == round(100 * 21 / 31, 4)
    # eleven samples: the smallest one has exactly ten beyond it
    assert run.tail(list(range(11, 0, -1))) == (1, 100 / 11, 10)
    # ten or fewer: no percentile qualifies, the maximum is reported
    assert run.tail([3, 1, 2]) == (3, 100.0, 0)


class _FixedGauge:
    """A gauge at a given mark whose factor is 2 at mark 0 and 1 elsewhere."""

    def __init__(self, mark=0):
        self.mark = mark

    def tick(self):
        pass

    def factor(self, mark):
        return 2.0 if mark == 0 else 1.0


def test_timing_metrics_take_each_items_median_scaled_time():
    outcome = workloads.Outcome()
    timings = [("a", 2, 0.4, 1), ("b", 1, 0.3, 1), ("a", 2, 0.1, 0), ("b", 1, 0.1, 2), ("a", 2, 0.3, 3)]
    for key, ops, seconds, mark in timings:
        outcome.gauge = _FixedGauge(mark)
        outcome.time(key, ops, seconds)
    assert outcome.times == {"a": (2, [(0.4, 1), (0.1, 0), (0.3, 3)]), "b": (1, [(0.3, 1), (0.1, 2)])}
    metrics = {name: value for name, (value, _) in run.timing_metrics(outcome.times, _FixedGauge()).items()}
    # "a" scales to 0.4, 0.2 and 0.3 s, median 0.3 s; "b" to 0.3 and 0.1 s, median 0.2 s
    assert metrics["wall_s"] == 0.3 + 0.2
    assert metrics["ops_per_s"] == 3 / (0.3 + 0.2)
    # "a" gives two samples of 150 ms, "b" one of 200 ms
    assert metrics["op_p50_ms"] == 150.0
    assert metrics["op_tail_ms"] == 200.0


def test_gauge_scales_by_the_reference_beside_a_timing():
    g = gauge.Gauge()
    g.samples = [2 * gauge.REF_NOMINAL_S, gauge.REF_NOMINAL_S, 4 * gauge.REF_NOMINAL_S]
    # before the first sample, between two samples, after the last one
    assert [round(g.factor(mark), 12) for mark in range(4)] == [0.5, round(1 / 1.5, 12), 0.4, 0.25]
    g.samples = []
    g.sample()
    assert g.mark == 1 and g.samples[0] > 0


def _scripted_tracer(times):
    ticks = iter(times)
    return tracing.Tracer(clock=lambda: next(ticks))


def test_self_time_on_a_synthetic_span_tree():
    # root [0,100] holds a [10,40] (which holds g [20,30]) and b [50,70]
    tracer = _scripted_tracer([0, 10, 20, 30, 40, 50, 70, 100])
    g = tracer.wrap("g", lambda: None)
    a = tracer.wrap("a", lambda: g())
    b = tracer.wrap("b", lambda: None)

    def body():
        a()
        b()

    tracer.wrap("root", body)()
    assert dict(tracer.self_ns) == {"root": 50, "a": 20, "g": 10, "b": 20}
    assert dict(tracer.calls) == {"root": 1, "a": 1, "g": 1, "b": 1}
    assert tracer.self_s_total() * 1e9 == 100
    spans = {name: (span_id, parent) for span_id, parent, _, name, _, _ in tracer.spans}
    assert spans["g"][1] == spans["a"][0]
    assert spans["a"][1] == spans["b"][1] == spans["root"][0]
    assert spans["root"][1] is None


def test_self_time_survives_an_exception():
    tracer = _scripted_tracer([0, 5, 8, 10])

    def fail():
        raise ValueError("boom")

    inner = tracer.wrap("inner", fail)

    def outer():
        try:
            inner()
        except ValueError:
            pass

    tracer.wrap("outer", outer)()
    assert dict(tracer.self_ns) == {"outer": 7, "inner": 3}


def test_install_patches_aliases_and_imports_by_name_then_restores():
    originals = (semigroups.gaps, semigroups.GenSemigroup.contains)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert cli.gaps is semigroups.gaps is not originals[0]
        assert ideals.certified_gap_scan is semigroups.certified_gap_scan
        G = semigroups.GenSemigroup([(3,), (5,)])
        assert (7,) not in G and G.contains((8,))
        assert semigroups.gaps(G).genus == 4
    finally:
        uninstall()
    assert (semigroups.gaps, semigroups.GenSemigroup.contains) == originals
    assert cli.gaps is originals[0]
    assert tracer.calls["semigroups.GenSemigroup.contains"] >= 2
    assert tracer.calls["semigroups.certified_gap_scan"] == 1
    assert tracer.calls["lattice.Cone.contains"] > 0


def test_classification_of_cli_outcomes():
    assert workloads.classify([0, None], "d", "d") == "crashed"
    assert workloads.classify([0, 3], "d", "d") == "inconclusive"
    assert workloads.classify([0, 0], "forced", "d") == "wrong"
    assert workloads.classify([0, 2], "d", "d") == "ok"


def _judge(golden):
    return workloads.Translate(1, None, {"translate": golden}).judge


def test_translate_judge_counts_forced_wrong_and_exit_3():
    item = inputs.translate_input("n1-a5", 0, "c")
    item["gaps"] = inputs.brute_gaps(
        [tuple(g) for g in item["generators"]], inputs.ConeTest(item["rays"]), item["max_grade"]
    )
    gaps_doc = json.dumps({"genus": len(item["gaps"]), "gaps": sorted(map(list, item["gaps"]))})
    transcript = [("gaps", 0, gaps_doc + "\n"), ("msg", 0, "{}\n")]
    judge = _judge({item["key"]: workloads.transcript_digest(transcript)})
    assert judge(item, transcript)[0] == "ok"
    # same digest, but the gap set contradicts the brute-force closure
    item_wrong = dict(item, gaps=item["gaps"] | {(99,)})
    assert judge(item_wrong, transcript)[0] == "wrong"
    # output that differs from the recording
    forced = [("gaps", 0, gaps_doc + " \n"), ("msg", 0, "{}\n")]
    assert judge(item, forced)[0] == "wrong"
    budget = [("gaps", 3, '{"error": "BudgetExceeded"}\n')]
    assert judge(item, budget)[0] == "inconclusive"


def test_undecided_input_is_correct_only_when_refused():
    judge = _judge({})
    item = {"key": "undecided", "kind": "undecided"}
    refused = [("gaps", 2, '{"error": "NotCSemigroup", "message": "m"}\n')]
    assert judge(item, refused)[0] == "ok"
    assert judge(item, [("gaps", 3, '{"error": "BudgetExceeded"}\n')])[0] == "inconclusive"
    assert judge(item, [("gaps", 0, '{"genus": 0, "gaps": []}\n')])[0] == "wrong"


def test_member_check_rejects_a_forced_wrong_answer():
    gen = semigroups.GenSemigroup(inputs.S1)
    ctx = fastmember.precompute(gen)
    x = (31, 8)
    fast = fastmember.fast_member(ctx, x)
    coeffs = gen.witness(x)
    assert workloads.check_member(x, gen.generators, True, coeffs, True, fast, ctx)
    assert not workloads.check_member(x, gen.generators, True, coeffs, False, fast, ctx)
    bad = list(coeffs)
    bad[0] += 1
    assert not workloads.check_member(x, gen.generators, True, bad, True, fast, ctx)
    forged = fastmember.FastResult(True, fast.reason, fast.v, fast.remainder, (0,) * len(fast.coeffs))
    assert not workloads.check_member(x, gen.generators, True, coeffs, True, forged, ctx)


def test_same_seed_gives_same_inputs():
    assert inputs.member_block(7) == inputs.member_block(7)
    assert inputs.member_block(7) != inputs.member_block(8)
    assert inputs.translate_family(7) == inputs.translate_family(7)
    assert inputs.translate_family(7) != inputs.translate_family(8)
    assert inputs.enumerate_order(7, 3) == inputs.enumerate_order(7, 3)
    assert inputs.translate_input("q3-a2", 1, "c") == inputs.translate_input("q3-a2", 1, "c")


def test_member_stream_stays_in_range():
    fixtures = {name: (inputs.ConeTest(rays), top) for name, _, rays, top, _, _ in inputs.MEMBER_FIXTURES}
    stream = inputs.member_block(3)
    counts = {name: 0 for name in fixtures}
    outside = 0
    for name, x in stream:
        cone, top = fixtures[name]
        counts[name] += 1
        outside += min(x) < 0 or not cone(x)
        assert sum(x) <= top
    assert counts == {fixture[0]: fixture[5] for fixture in inputs.MEMBER_FIXTURES}
    every = inputs.MEMBER_OUTSIDE_EVERY
    assert outside == sum(len(range(every // 2, per, every)) for per in counts.values())


def test_oracle_and_translate_construction():
    for rays in inputs.CONES.values():
        cone = inputs.ConeTest(rays)
        for grade in range(12):
            expected = [x for x in inputs.compositions(grade, cone.dim) if cone(x)]
            assert inputs.cone_points(cone, grade) == expected
    cone = inputs.ConeTest(inputs.CONES["s1cone"])
    assert inputs.brute_gaps(inputs.S1, cone, 30) == {(3, 1), (4, 1), (7, 2), (8, 2)}
    for key in ("c:q2-a3:2", "c:tall3-a2:0", "c:n1-a12:5"):
        _, shape, variant = key.split(":")
        item = inputs.translate_input(shape, int(variant), "c")
        a = inputs._shape(shape)[2]
        gens = [tuple(g) for g in item["generators"]]
        gaps = inputs.brute_gaps(gens, inputs.ConeTest(item["rays"]), item["max_grade"])
        assert all(sum(h) < a for h in gaps)
    # a rejected input carries only multiples of 2 or 3 on some extremal ray
    for variant in range(inputs.TRANSLATE_VARIANTS):
        item = inputs.translate_input("q2-a2", variant, "reject")
        on_ray = [
            [max(g) for g in item["generators"] if inputs._on_ray(tuple(g), ray)]
            for ray in item["rays"]
        ]
        assert any(ks and (all(k % 2 == 0 for k in ks) or all(k % 3 == 0 for k in ks)) for ks in on_ray)


def test_benchmark_json_matches_the_reported_metrics():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert per_layer == tracing.metric_units()
    end_to_end = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    assert end_to_end == dict(run.END_TO_END)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert doc["paths"] == ["perfbench"]
