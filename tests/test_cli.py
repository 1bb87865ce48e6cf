import json

import pytest

from csemigroups import (
    MonomialOrder,
    apery_context,
    enumerate_tree,
    pseudo_frobenius,
    with_frobenius,
    with_multiplicities,
)
from csemigroups.cli import main
from csemigroups.serialize import semigroup_to_document
from conftest import S1_GENS


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
    path = tmp_path / "skew.json"
    path.write_text(json.dumps({"p": 2, "generators": [[1, 0], [1, 2]]}))
    monkeypatch.setenv("SEMIGROUP_BUDGET", "500")
    code, doc = run_json(capsys, "gaps", str(path))
    assert code == 3
    assert doc["error"] == "BudgetExceeded"


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
