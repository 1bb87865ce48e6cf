import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csemigroups import (
    GapSemigroup,
    GenSemigroup,
    MonomialOrder,
    apery_context,
    enumerate_tree,
    gaps,
    pseudo_frobenius,
    with_frobenius,
    with_multiplicities,
)
from csemigroups import cli, enumeration
from csemigroups.cli import main
from csemigroups.serialize import load_semigroup, semigroup_to_document
from conftest import D3_GENS, S1_GENS, S2_GENS
from strategies import band_csemigroups, gap_documents


@pytest.fixture()
def s1_file(tmp_path, s1_gen):
    path = tmp_path / "S1.json"
    path.write_text(json.dumps(semigroup_to_document(s1_gen, MonomialOrder("deglex"))))
    return str(path)


@pytest.fixture()
def s2_file(tmp_path, s2_gen):
    path = tmp_path / "S2.json"
    path.write_text(json.dumps(semigroup_to_document(s2_gen)))
    return str(path)


@pytest.fixture()
def n2_file(tmp_path):
    path = tmp_path / "N2.json"
    path.write_text(json.dumps({"p": 2, "generators": [[1, 0], [0, 1]]}))
    return str(path)


@pytest.fixture()
def d3_file(tmp_path):
    path = tmp_path / "D3.json"
    path.write_text(json.dumps({"p": 3, "generators": [list(g) for g in D3_GENS]}))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_gaps_matches_library(capsys, s1_file, s1):
    code, doc = run_json(capsys, "gaps", s1_file)
    assert code == 0
    assert doc["genus"] == s1.genus
    assert doc["gaps"] == [list(g) for g in sorted(s1.gaps)]


def test_gaps_empty(capsys, n2_file):
    code, doc = run_json(capsys, "gaps", n2_file)
    assert code == 0
    assert doc == {"gaps": [], "genus": 0}


def test_gaps_not_csemigroup_exit_2(capsys, s2_file):
    code, doc = run_json(capsys, "gaps", s2_file)
    assert code == 2
    assert doc["error"] == "NotCSemigroup"


def test_budget_env_exit_3(capsys, tmp_path, monkeypatch):
    # no C-semigroup, decided whatever the budget
    path = tmp_path / "skew.json"
    path.write_text(json.dumps({"p": 2, "generators": [[1, 0], [1, 2]]}))
    monkeypatch.setenv("SEMIGROUP_BUDGET", "500")
    code, doc = run_json(capsys, "gaps", str(path))
    assert code == 2
    assert doc["error"] == "NotCSemigroup"
    # the closure of ⟨50,51⟩'s core decides 1,273 points, its scan 2,450
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"p": 1, "generators": [[50], [51]]}))
    code, doc = run_json(capsys, "gaps", str(path))
    assert code == 3
    assert doc["error"] == "BudgetExceeded"


def test_gaps_names_the_ray_and_residue_exit_2(capsys, tmp_path, monkeypatch):
    path = tmp_path / "not_c.json"
    path.write_text(json.dumps({"p": 2, "generators": [[2, 0], [3, 0], [0, 1]]}))
    monkeypatch.setenv("SEMIGROUP_BUDGET", "50")
    code, doc = run_json(capsys, "gaps", str(path))
    assert code == 2
    assert doc["error"] == "NotCSemigroup"
    assert "ray (0, 1)" in doc["message"] and "(1, 0) + k·(0, 1)" in doc["message"]


def test_msg(capsys, s1_file, s1_gen):
    code, doc = run_json(capsys, "msg", s1_file)
    assert code == 0
    assert doc == {"generators": [list(g) for g in sorted(s1_gen.generators)]}


def test_member_and_fast_member_agree(capsys, s2_file):
    code, doc = run_json(capsys, "member", s2_file, "31,8")
    assert code == 0 and doc["member"] is True
    coeffs = doc["witness"]["coefficients"]
    gens = doc["witness"]["generators"]
    total = [0, 0]
    for lam, g in zip(coeffs, gens):
        total[0] += lam * g[0]
        total[1] += lam * g[1]
    assert total == [31, 8]

    code, fdoc = run_json(capsys, "fast-member", s2_file, "31,8")
    assert code == 0 and fdoc["member"] is True
    assert fdoc["remainder"] == [9, 2]

    code, doc = run_json(capsys, "member", s2_file, "8,3")
    assert doc["member"] is False


def test_bad_point_exit_2(capsys, s1_file, s2_file):
    code, doc = run_json(capsys, "member", s2_file, "xx")
    assert code == 2
    assert doc["error"] == "InvalidSemigroupFile"
    # a 3-D point against a 2-D semigroup is refused by every point parser
    for argv in (
        ("member", s2_file, "3,1,0"),
        ("fast-member", s2_file, "3,1,0"),
        ("apery", s2_file, "--m", "5,1,0", "--m", "6,2"),
        ("ideal", s1_file, "5"),
        ("frobenius-fixed", s1_file, "--f", "11,3,0"),
    ):
        code, doc = run_json(capsys, *argv)
        assert code == 2
        assert doc["error"] == "InvalidSemigroupFile"
        assert doc["invariant"] == "dimension"


def test_apery_and_gamma(capsys, s2_file, s2_gen):
    ctx = apery_context(s2_gen, [(5, 1), (6, 2)])
    code, doc = run_json(capsys, "apery", s2_file)
    assert code == 0
    assert doc["core"] == [list(p) for p in sorted(ctx.core)]
    assert doc["multipliers"] == [1, 1, 2, 4, 4]
    code, doc = run_json(capsys, "gamma", s2_file, "--m", "5,1", "--m", "6,2")
    assert code == 0
    assert doc["size"] == 32
    assert doc["gamma"] == [list(p) for p in sorted(ctx.sum_box)]


def test_pf(capsys, s1_file, s1):
    code, doc = run_json(capsys, "pf", s1_file)
    assert code == 0
    assert doc == {
        "pseudo_frobenius": [list(p) for p in sorted(pseudo_frobenius(s1))]
    }


def test_ideal(capsys, s1_file, s1):
    code, doc = run_json(capsys, "ideal", s1_file, "5,1", "10,2")
    assert code == 0
    assert doc == {"imsg": [[5, 1]], "meets_all_rays": False}
    code, doc = run_json(capsys, "ideal", s1_file, "5,1", "6,2")
    assert code == 0
    assert doc["meets_all_rays"] is True
    assert doc["genus"] == 10


def test_tree(capsys, s1_file, s1, deglex):
    levels = enumerate_tree(s1, 6, deglex)
    code, doc = run_json(capsys, "tree", "--max-genus", "6", s1_file)
    assert code == 0
    assert doc["total"] == sum(len(l) for l in levels)
    assert doc["levels"] == [
        {"count": len(l), "genus": 4 + i} for i, l in enumerate(levels)
    ]
    code, full = run_json(capsys, "tree", "--max-genus", "5", s1_file, "--full")
    assert code == 0
    assert len(full["semigroups"]) == 9


def node_document(T, full=True, **extra):
    """One listed semigroup's JSON object, built here so that the oracle
    shares no code with the CLI's encoder."""
    doc = {"genus": T.genus, "imsg": sorted(T.gens), **extra}
    if full:
        doc["gaps"] = sorted(T.gaps)
    return doc


def whole_document(args):
    """The JSON document of a ``tree --full``, ``frobenius-fixed`` or
    ``mult-fixed`` call, built whole from the library's lists."""
    S, order = load_semigroup(args.semigroup)
    G = S if isinstance(S, GapSemigroup) else gaps(S)
    order = order or MonomialOrder("deglex")
    if args.command == "tree":
        levels = enumerate_tree(G, args.max_genus, order)
        return {
            "root_genus": G.genus,
            "total": sum(map(len, levels)),
            "levels": [
                {"genus": G.genus + i, "count": len(l)} for i, l in enumerate(levels)
            ],
            "semigroups": [
                node_document(node.semigroup, removed=node.removed)
                for level in levels
                for node in level
            ],
        }
    if args.command == "frobenius-fixed":
        fiber = with_frobenius(G, tuple(map(int, args.f.split(","))), order)
        return {
            "f": list(fiber.f),
            "candidates": sorted(fiber.candidates),
            "count": len(fiber.results),
            "semigroups": [node_document(T) for T in fiber.results],
        }
    M = [tuple(map(int, m.split(","))) for m in args.m]
    results = with_multiplicities(
        G, M, verify_multiplicities=args.verify_multiplicities
    )
    return {
        "m": sorted(M),
        "count": len(results),
        "verified": args.verify_multiplicities,
        "semigroups": [node_document(T, full=args.full) for T in results],
    }


# semigroup documents the encoding test writes to a file, beside the
# fixtures: 1-D points, S1 under lex and under a priority, and points of
# two and three digits (the gap form of N² less (1,0), ..., (11,0), whose
# generators reach (23,0), and <100, ..., 199>)
_ENCODING_DOCUMENTS = {
    "n579": {"p": 1, "generators": [[5], [7], [9]]},
    "s1_lex": {"p": 2, "generators": [list(g) for g in S1_GENS], "order": "lex"},
    "s1_priority": {
        "p": 2,
        "generators": [list(g) for g in S1_GENS],
        "order": "degrevlex",
        "priority": [1, 0],
    },
    "axis_gaps": {"p": 2, "rays": [[1, 0], [0, 1]], "gaps": [[k, 0] for k in range(1, 12)]},
    "n100": {"p": 1, "generators": [[k] for k in range(100, 200)]},
}


@pytest.mark.parametrize(
    "source, argv",
    [
        ("s1_file", ("tree", "--max-genus", "7", "--full")),
        ("d3_file", ("tree", "--max-genus", "3", "--full")),
        ("s1_file", ("frobenius-fixed", "--f", "11,3")),
        ("d3_file", ("frobenius-fixed", "--f", "0,2,1")),
        ("s1_file", ("mult-fixed", "--m", "10,2", "--m", "6,2", "--full")),
        ("d3_file", ("mult-fixed", "--m", "2,0,0", "--m", "0,2,0", "--m", "0,0,1", "--full")),
        ("s1_file", ("gaps",)),
        ("s1_file", ("msg",)),
        ("s1_file", ("apery",)),
        ("s1_file", ("pf",)),
        ("s1_file", ("ideal", "5,1", "6,2")),
        ("s1_file", ("med",)),
        ("s1_file", ("decompose",)),
        ("s1_file", ("mult-fixed", "--m", "10,2", "--m", "6,2")),
        ("s1_file", ("mult-fixed", "--m", "10,2", "--m", "6,2", "--verify-multiplicities")),
        ("n579", ("tree", "--max-genus", "11", "--full")),
        ("s1_lex", ("tree", "--max-genus", "7", "--full")),
        ("s1_priority", ("tree", "--max-genus", "7", "--full")),
        ("axis_gaps", ("tree", "--max-genus", "13", "--full")),
        ("n100", ("frobenius-fixed", "--f", "101")),
    ],
)
def test_main_writes_the_default_encoding(capsys, request, tmp_path, source, argv):
    # main encodes without the cycle check, and the enumeration commands
    # join each semigroup from per-point texts; the bytes must be those of
    # the default encoder on the whole document: the result the command
    # itself returns, or for an enumeration the document built here from
    # the library's lists
    if source in _ENCODING_DOCUMENTS:
        path = tmp_path / f"{source}.json"
        path.write_text(json.dumps(_ENCODING_DOCUMENTS[source]))
    else:
        path = request.getfixturevalue(source)
    command, *options = argv
    argv = [command, str(path), *options]
    args = cli.build_parser().parse_args(argv)
    if command in ("tree", "frobenius-fixed", "mult-fixed"):
        result = whole_document(args)
    else:
        result = args.func(args)
    code, out = run(capsys, *argv)
    assert code == 0
    expected = json.dumps(result, sort_keys=True) + "\n"
    if out != expected:
        # name the first difference: pytest's diff of two long documents
        # can take minutes
        i = next(
            (i for i, (a, b) in enumerate(zip(out, expected)) if a != b),
            min(len(out), len(expected)),
        )
        near = slice(max(i - 40, 0), i + 40)
        pytest.fail(f"documents differ at {i}: {out[near]!r} != {expected[near]!r}")
    assert out == expected


@st.composite
def _walked_calls(draw, tmp_dir):
    """A ``tree --full``, ``frobenius-fixed`` or ``mult-fixed`` call (with
    and without ``--full`` and ``--verify-multiplicities``) on a
    C-semigroup drawn in dimension 1-3, written as a generator or a gap
    document, under deglex, lex or degrevlex (the Frobenius fiber needs a
    degree-compatible order), with no, a reversed or a drawn priority."""
    gens, _, points = draw(band_csemigroups(max_a={1: 8, 2: 3, 3: 2}))
    S = gaps(GenSemigroup(gens, warn_redundant=False))
    if draw(st.booleans()):
        doc = {"p": S.dim, "generators": sorted(map(list, S.minimal_generators()))}
    else:
        rays, gap_list = sorted(map(list, S.cone.rays)), sorted(map(list, S.gaps))
        doc = {"p": S.dim, "rays": rays, "gaps": gap_list}
    command = draw(st.sampled_from(["tree", "frobenius-fixed", "mult-fixed"]))
    kinds = ["deglex", "degrevlex"] + (["lex"] if command != "frobenius-fixed" else [])
    doc["order"] = draw(st.sampled_from(kinds))
    priority = draw(st.one_of(
        st.none(),
        st.just(list(range(S.dim))[::-1]),
        st.permutations(range(S.dim)),
    ))
    if priority is not None:
        doc["priority"] = list(priority)
    path = tmp_dir / "walked.json"
    path.write_text(json.dumps(doc))
    argv = [command, str(path)]
    if command == "tree":
        depth = draw(st.integers(0, {1: 7, 2: 4, 3: 3}[S.dim]))
        argv += ["--max-genus", str(S.genus + depth), "--full"]
    elif command == "frobenius-fixed":
        top = {1: 14, 2: 5, 3: 3}[S.dim]
        f = draw(st.sampled_from([p for p in points(top) if any(p)]))
        argv += ["--f", ",".join(map(str, f))]
    else:
        for m in S.multiplicities():
            argv += ["--m", ",".join(map(str, m))]
        argv += draw(st.sampled_from([
            [], ["--full"], ["--verify-multiplicities"],
            ["--full", "--verify-multiplicities"],
        ]))
    return argv


def _library_walk(args):
    """The base, the points and the removal walk, with gaps, behind a
    ``tree``, ``frobenius-fixed`` or ``mult-fixed`` call, or None when a
    fiber is empty before any walk."""
    S, order = load_semigroup(args.semigroup)
    G = S if isinstance(S, GapSemigroup) else gaps(S)
    order, budget = order or MonomialOrder("deglex"), 10**6
    if args.command == "tree":
        return G, *enumeration._tree(G, args.max_genus, order, budget)
    if args.command == "frobenius-fixed":
        f = tuple(map(int, args.f.split(",")))
        _, root, pool, coords = enumeration._frobenius_start(G, f, order, budget)
        if root is None:
            return None
    else:
        M = [tuple(map(int, m.split(","))) for m in args.m]
        verify = args.verify_multiplicities
        root, pool, coords = enumeration._multiplicity_start(G, M, verify)
    U = enumeration._rooted(G, root, coords, pool=pool)
    return G, U.points, enumeration._walk(U, budget)


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_walked_nodes_encode_as_the_library_lists_them(tmp_path_factory, data):
    # the CLI writes each node's text by editing its parent's; every text
    # it writes, in order, must be the sorted-key encoding of that node as
    # enumerate_tree, with_frobenius or with_multiplicities returns it, so
    # the whole document must be; and the parent the encoder edits must be
    # the last node the walk emitted one level up
    argv = data.draw(_walked_calls(tmp_path_factory.mktemp("walked")))
    args = cli.build_parser().parse_args(argv)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, (argv, out.getvalue())
    doc = whole_document(args)
    assert out.getvalue() == json.dumps(doc, sort_keys=True) + "\n", argv
    walked = _library_walk(args)
    if walked is None:
        return
    base, points, walk = walked
    last = []
    for node in walk:
        k, x = node[0], node[1]
        if k:
            parent = enumeration._semigroup(base, points, last[k - 1])
            child = enumeration._semigroup(base, points, node)
            assert points[x] in parent.gens
            assert child.gaps == parent.gaps | {points[x]}
        del last[k:]
        last.append(node)


def test_parser_reuse_keeps_output(capsys, s1_file):
    # each call alone, with a fresh parser, against the same calls in one
    # process sharing one parser: no namespace state or default may leak
    calls = [
        ("tree", "--max-genus", "5", "--full", s1_file),
        ("tree", "--max-genus", "5", s1_file),
        ("tree", s1_file),  # usage error: --max-genus is required
        ("gaps", s1_file),
    ]

    def call(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr()

    alone = []
    for argv in calls:
        cli.build_parser.cache_clear()
        alone.append(call(argv))
    cli.build_parser.cache_clear()
    shared = [call(argv) for argv in calls]
    assert cli.build_parser.cache_info().misses == 1
    assert shared == alone
    assert [code for code, _ in shared] == [0, 0, 2, 0]
    assert "semigroups" in json.loads(shared[0][1].out)
    assert "semigroups" not in json.loads(shared[1][1].out)


def test_fiber_budget_env_exit_3(capsys, n2_file, monkeypatch):
    # the fiber below (100,1) in N^2 is astronomically large
    monkeypatch.setenv("SEMIGROUP_BUDGET", "1000")
    code, doc = run_json(capsys, "frobenius-fixed", "--f", "100,1", n2_file)
    assert code == 3
    assert doc["error"] == "BudgetExceeded"


def test_mult_fixed_budget_env(capsys, s1_file, monkeypatch):
    argv = ("mult-fixed", "--m", "10,2", "--m", "6,2", s1_file)
    monkeypatch.setenv("SEMIGROUP_BUDGET", "351")
    code, doc = run_json(capsys, *argv)
    assert code == 3
    assert doc["error"] == "BudgetExceeded"
    monkeypatch.setenv("SEMIGROUP_BUDGET", "352")
    code, doc = run_json(capsys, *argv)
    assert code == 0
    assert doc["count"] == 352


@pytest.mark.parametrize("full", [(), ("--full",)])
def test_tree_budget_env_exit_3(capsys, s1_file, monkeypatch, full):
    # S1 to genus 6 has 1 + 8 + 30 = 39 tree nodes, the root among them
    argv = ("tree", "--max-genus", "6", *full, s1_file)
    monkeypatch.setenv("SEMIGROUP_BUDGET", "38")
    code, doc = run_json(capsys, *argv)
    assert code == 3
    assert doc["error"] == "BudgetExceeded"
    assert "removal walk" in doc["message"]
    monkeypatch.setenv("SEMIGROUP_BUDGET", "39")
    code, doc = run_json(capsys, *argv)
    assert code == 0
    assert doc["total"] == 39


# documents for the exit-3 cases: S1 in gap form, so that no gap scan
# spends the budget first; <50,51>, whose core closure decides 1,273
# points before the scan visits the cone points of grades 0..2449; and
# <(4,9),(7,9),(1,8),(3,4),(1,9)>, whose multiplicity fiber at (1,9) and
# (7,9) walks a pool of 122 points
_BUDGET_DOCUMENTS = {
    "s1_gaps": {
        "p": 2,
        "rays": [[3, 1], [5, 1]],
        "gaps": [[3, 1], [4, 1], [7, 2], [8, 2]],
    },
    "n50_51": {"p": 1, "generators": [[50], [51]]},
    "wide": {"p": 2, "generators": [[4, 9], [7, 9], [1, 8], [3, 4], [1, 9]]},
}


@pytest.mark.parametrize(
    "source, argv, budget, count, unit",
    [
        ("s1_gaps", ("tree", "--max-genus", "9"), 40, 41, "semigroups"),
        ("s1_gaps", ("mult-fixed", "--m", "10,2", "--m", "6,2"), 351, 352, "semigroups"),
        ("s1_gaps", ("frobenius-fixed", "--f", "14,3"), 9, 10, "elements up to f"),
        ("s1_gaps", ("ideal", "5,1", "6,2"), 5, 6, "lost points"),
        ("n50_51", ("gaps",), 500, 527, "decided points"),
        ("n50_51", ("gaps",), 3000, 3001, "decided or scanned points"),
        ("s1_gaps", ("plot", "--window", "10"), 50, 121, "window lattice points"),
    ],
    ids=["tree", "mult-fixed", "frobenius-fixed", "ideal", "gaps-closure", "gaps-scan", "plot"],
)
def test_exit_3_carries_the_budget_facts(
    capsys, tmp_path, monkeypatch, source, argv, budget, count, unit
):
    # the exit-3 object names the budget, the tally that passed it and what
    # was counted, beside the message; one case per unit a command reaches
    # (the sum box's fixed limit of 2,000,000 points is not run here)
    path = tmp_path / f"{source}.json"
    path.write_text(json.dumps(_BUDGET_DOCUMENTS[source]))
    command, *options = argv
    monkeypatch.setenv("SEMIGROUP_BUDGET", str(budget))
    code, out = run(capsys, command, str(path), *options)
    assert code == 3
    doc = json.loads(out)
    assert sorted(doc) == ["count", "error", "limit", "message", "unit"]
    assert (doc["error"], doc["limit"], doc["count"], doc["unit"]) == (
        "BudgetExceeded", budget, count, unit
    )
    assert out == json.dumps(doc, sort_keys=True) + "\n"


def test_mult_fixed_budget_binds_before_memory_runs_out(tmp_path, monkeypatch):
    """The multiplicity fiber of <(4,9),(7,9),(1,8),(3,4),(1,9)> at (1,9)
    and (7,9) walks a pool of 122 points and has more results than the
    default budget.  Without ``--full`` the walk's nodes carry no gaps and
    each result is kept only as its encoded text, so at a budget of 20,000
    the run exits 3 with its traced allocations under 32 MiB (about 6 MiB
    here; holding a semigroup with its gap set per result took 660 MiB)."""
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(_BUDGET_DOCUMENTS["wide"]))
    monkeypatch.setenv("SEMIGROUP_BUDGET", "20000")
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            code = main(["mult-fixed", "--m", "1,9", "--m", "7,9", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert json.loads(out.getvalue())["count"] == 20001
    assert peak < 32 * 2**20


def test_tree_counts_hold_one_path(s1_file):
    """``tree`` without ``--full`` streams its counts: to genus 12 on S1
    (4,616 nodes) its traced allocations peak under 3 MB, where holding
    every level takes about 7 MB."""
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            code = main(["tree", "--max-genus", "12", s1_file])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads(out.getvalue())["total"] == 4616
    assert peak < 3 * 2**20


def test_tree_full_holds_encoded_nodes(s1_file):
    """``tree --full`` keeps each node only as its encoded document and
    writes the document one node at a time: to genus 12 on S1 (4,616 nodes,
    0.94 MB of output) its traced allocations, the captured output among
    them, peak under 4 MB, where holding the nodes, a dict per node and the
    whole text takes about 9 MB."""
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            code = main(["tree", "--max-genus", "12", "--full", s1_file])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads(out.getvalue())["total"] == 4616
    assert peak < 4 * 2**20


@pytest.mark.parametrize(
    "argv, start",
    [
        (["tree", "--max-genus", "10", "--full"], b'{"levels": '),
        (["frobenius-fixed", "--f", "16,4"], b'{"candidates": '),
    ],
    ids=["tree", "frobenius-fixed"],
)
def test_closed_stdout_exits_1_without_traceback(s1_file, argv, start):
    # about 250 and 314 kB of output, more than a pipe buffer holds, so a
    # write part-way through the document meets the closed pipe
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    argv = [*argv, s1_file]
    proc = subprocess.Popen(
        [sys.executable, "-m", "csemigroups", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert head.startswith(start)
    assert b"Traceback" not in err
    assert err == b""


def test_tree_bad_genus_exit_2(capsys, s1_file):
    code, doc = run_json(capsys, "tree", "--max-genus", "3", s1_file)
    assert code == 2


def test_frobenius_fixed(capsys, s1_file, s1, deglex):
    fiber = with_frobenius(s1, (11, 3), deglex)
    code, doc = run_json(capsys, "frobenius-fixed", "--f", "11,3", s1_file)
    assert code == 0
    assert doc["count"] == 16
    assert doc["candidates"] == [list(p) for p in sorted(fiber.candidates)]
    assert [t["gaps"] for t in doc["semigroups"]] == [
        [list(p) for p in sorted(T.gaps)] for T in fiber.results
    ]


def test_mult_fixed(capsys, s1_file, s1):
    results = with_multiplicities(s1, [(10, 2), (6, 2)])
    code, doc = run_json(
        capsys, "mult-fixed", "--m", "10,2", "--m", "6,2", s1_file
    )
    assert code == 0
    assert doc["count"] == len(results) == 352
    assert doc["verified"] is False
    code, doc = run_json(
        capsys, "mult-fixed", "--m", "10,2", "--m", "6,2",
        "--verify-multiplicities", s1_file,
    )
    assert code == 0
    assert doc["verified"] is True
    assert doc["count"] == len(
        with_multiplicities(s1, [(10, 2), (6, 2)], verify_multiplicities=True)
    )


def test_med(capsys, s2_file):
    code, doc = run_json(capsys, "med", s2_file)
    assert code == 0
    assert doc["is_med"] is True
    assert doc["pairwise"] is True
    assert doc["via_translates"] is True
    assert doc["type2"] == "true"
    assert doc["apery_core"] == [[0, 0], [8, 2], [9, 2], [12, 3]]


def test_decompose(capsys, s2_file):
    code, doc = run_json(capsys, "decompose", s2_file)
    assert code == 0
    assert doc["head"] == [[0, 0]]
    assert doc["identity_verified_up_to_grade"] == 40


def test_gap_representation_file(capsys, tmp_path, s1):
    path = tmp_path / "gap.json"
    path.write_text(json.dumps(semigroup_to_document(s1)))
    code, doc = run_json(capsys, "gaps", str(path))
    assert code == 0
    assert doc["genus"] == 4
    code, doc = run_json(capsys, "msg", str(path))
    assert doc["generators"] == [list(g) for g in sorted(S1_GENS)]


def test_invalid_file_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"p": 2, "rays": [[1, 0], [0, 1]], "gaps": [[1, 1]]}))
    code, doc = run_json(capsys, "gaps", str(path))
    assert code == 2
    assert doc["error"] == "InvalidSemigroupFile"
    assert doc["invariant"] == "gap-closure"


# Documents for the CLI fuzz test: valid ones (one lex-ordered), the gap form
# of S1, a semigroup that is no C-semigroup by its ray gcd, a non-simplicial
# cone (four extremal rays in dimension 3) and one that is no C-semigroup by
# a class that misses a ray; drawn generator lists in dimension 1-2 and drawn
# gap documents in dimension 1-3, closed or not, are added to them.
_FUZZ_DOCUMENTS = [
    {"p": 2, "generators": [list(g) for g in S1_GENS], "order": "deglex"},
    {"p": 2, "generators": [list(g) for g in S1_GENS], "order": "lex"},
    {"p": 2, "rays": [[3, 1], [5, 1]], "gaps": [[3, 1], [4, 1], [7, 2], [8, 2]]},
    {"p": 1, "generators": [[5], [7], [9]], "order": "degrevlex"},
    {"p": 3, "generators": [[2, 0, 0], [3, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, 0, 1]]},
    {"p": 2, "generators": [list(g) for g in S2_GENS]},
    {"p": 3, "generators": [[1, 0, 0], [0, 1, 0], [1, 0, 1], [0, 1, 1]]},
    {"p": 2, "generators": [[2, 0], [3, 0], [0, 1]]},
]
_drawn_documents = st.builds(
    lambda gens: {"p": len(gens[0]), "generators": gens},
    st.lists(st.lists(st.integers(-1, 6), min_size=1, max_size=2), min_size=1, max_size=4),
)
# on-ray points of the documents above, so that some fibers are not empty
_RAY_POINTS = {1: ["5", "7"], 2: ["5,1", "6,2", "10,2", "9,3", "1,0", "0,2"],
               3: ["2,0,0", "3,0,0", "0,1,0", "0,0,1", "0,0,2"]}


def _point_texts(dim):
    # fiber sizes grow fast with the grade of the target; the fibers are
    # budgeted, but small targets keep each call cheap, so points stay at
    # grade 6 or less, 3 in dimension 3
    top = 3 if dim == 3 else 6
    right = st.lists(st.integers(-1, top), min_size=dim, max_size=dim)
    wrong = st.lists(st.integers(-1, 3), min_size=1, max_size=4)
    coordinates = right.filter(lambda c: sum(c) <= top) | wrong.filter(
        lambda c: len(c) != dim
    )
    return st.one_of(
        coordinates.map(lambda c: ",".join(map(str, c))),
        st.sampled_from(_RAY_POINTS[dim] + ["", "x", "1,,2", "1.5,2"]),
    )


@st.composite
def _cli_calls(draw, tmp_dir):
    fixed = st.sampled_from(_FUZZ_DOCUMENTS)
    drawn_gaps = gap_documents().map(lambda data: data[0])
    doc = draw(st.one_of(fixed, fixed, _drawn_documents, drawn_gaps))
    path = tmp_dir / "fuzz.json"
    path.write_text(json.dumps(doc))
    points = _point_texts(doc["p"])
    command = draw(st.sampled_from([
        "gaps", "msg", "pf", "member", "fast-member", "apery", "ideal", "tree",
        "frobenius-fixed", "mult-fixed", "med", "decompose", "gamma", "plot",
    ]))
    argv = [command, str(path)]
    if command in ("member", "fast-member"):
        argv.append(draw(points))
    elif command == "ideal":
        argv += draw(st.lists(points, min_size=1, max_size=3))
    elif command == "tree":
        argv += ["--max-genus", str(draw(st.integers(-2, 12)))]
        argv += ["--full"] if draw(st.booleans()) else []
    elif command == "frobenius-fixed":
        argv += ["--f", draw(points)]
    elif command == "plot":
        argv += ["--ascii"] if draw(st.booleans()) else []
        if draw(st.booleans()):
            size = st.integers(0, 12).map(str)
            argv += ["--window", draw(st.one_of(
                size,
                st.builds("{}x{}".format, size, size),
                st.sampled_from(["", "-1", "3x", "x3", "2x3x4", "a", "1.5", "-2x3"]),
            ))]
    elif command in ("apery", "gamma", "mult-fixed"):
        for m in draw(st.lists(points, min_size=command == "mult-fixed", max_size=3)):
            argv += ["--m", m]
        if command == "mult-fixed":
            argv += draw(st.sampled_from([
                [], ["--full"], ["--verify-multiplicities"],
                ["--full", "--verify-multiplicities"],
            ]))
    return argv


@pytest.mark.filterwarnings("ignore:redundant generator")
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_cli_fuzz_exits_cleanly(tmp_path_factory, data):
    # budgets small enough that the walks' exit 3 is drawn often, and one
    # that lets a tree of genus up to 12 or a small fiber finish
    argv = data.draw(_cli_calls(tmp_path_factory.mktemp("fuzz")))
    budget = data.draw(st.sampled_from(["5", "40", "1000", "20000"]))
    out = io.StringIO()
    with mock.patch.dict(os.environ, {"SEMIGROUP_BUDGET": budget}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    text = out.getvalue()
    assert code in (0, 2, 3), (argv, budget, text)
    if code == 3 and (doc := json.loads(text))["message"].startswith("removal walk"):
        # a walk counts the node past its budget, even one it only counts
        assert doc["count"] == doc["limit"] + 1 == int(budget) + 1, (argv, doc)
    if code == 0 and argv[0] != "plot":
        # every document is written with sorted keys and the default
        # separators, whatever writer built it
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n", argv
