import hashlib
import json
import time

import pytest

from csemigroups import GenSemigroup, SemigroupError
from csemigroups.cli import main
from csemigroups.plot import render_ascii, render_svg


def test_svg_deterministic(s1):
    a = render_svg(s1, (12, 4))
    b = render_svg(s1, (12, 4))
    assert a == b
    assert a.startswith('<?xml version="1.0"')
    assert "</svg>" in a


def test_svg_classification(s1):
    svg = render_svg(s1, (12, 4))
    filled = svg.count('fill="#c0392b"')
    hollow = svg.count('fill="none" stroke="#2c3e50"')
    members = gaps = 0
    for x in range(13):
        for y in range(5):
            if s1.cone.contains((x, y)):
                if s1.contains((x, y)):
                    members += 1
                else:
                    gaps += 1
    assert filled == members
    assert hollow == gaps == 4  # all four gaps fall inside this window


def test_svg_empty_window(n2):
    svg = render_svg(n2, (0, 0))
    assert "</svg>" in svg
    assert svg.count("<circle") == 1  # just the origin


def test_ascii_markers(s1):
    art = render_ascii(s1, (8, 2))
    lines = art.splitlines()
    # row y=2: (6,2) element, (7,2) and (8,2) gaps
    row2 = lines[0]
    assert row2.strip().startswith("2")
    cells = row2[4:].split(" ")
    assert cells[6] == "*" and cells[7] == "o" and cells[8] == "o"


def test_plot_needs_plane():
    s = GenSemigroup([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(SemigroupError):
        render_svg(s)


def test_cli_plot(capsys, tmp_path, s1_gen):
    from csemigroups.serialize import semigroup_to_document

    path = tmp_path / "s.json"
    path.write_text(json.dumps(semigroup_to_document(s1_gen)))
    code = main(["plot", "--window", "10x4", str(path)])
    svg1 = capsys.readouterr().out
    assert code == 0
    code = main(["plot", "--window", "10x4", str(path)])
    assert capsys.readouterr().out == svg1
    code = main(["plot", "--ascii", "--window", "10x4", str(path)])
    art = capsys.readouterr().out
    assert code == 0
    assert "*" in art and "o" in art


# SHA-256 of the S1 SVG at --window 600 (601² = 361,201 lattice points, below
# the default budget of 500,000), as drawn before windows were budgeted
S1_SVG_600 = "48b6a3f99a30903c67fa806311ff8908312d691bc905f9592ad0861d5ee3f7a2"


def test_cli_plot_window_budget(capsys, tmp_path, s1_gen, monkeypatch):
    from csemigroups.serialize import semigroup_to_document

    path = tmp_path / "s.json"
    path.write_text(json.dumps(semigroup_to_document(s1_gen)))
    start = time.perf_counter()
    code = main(["plot", "--window", "100000", str(path)])
    assert time.perf_counter() - start < 1
    assert code == 3
    assert json.loads(capsys.readouterr().out)["error"] == "BudgetExceeded"
    assert main(["plot", "--window", "600", str(path)]) == 0
    svg = capsys.readouterr().out.encode()
    assert hashlib.sha256(svg).hexdigest() == S1_SVG_600
    # a 6x6 window holds 49 lattice points, a 7x6 window 56
    monkeypatch.setenv("SEMIGROUP_BUDGET", "49")
    assert main(["plot", "--ascii", "--window", "6", str(path)]) == 0
    assert main(["plot", "--ascii", "--window", "7x6", str(path)]) == 3
    # the default window of S1 is 16x6, 119 lattice points
    assert main(["plot", str(path)]) == 3
