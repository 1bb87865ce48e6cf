import json
import re
from ast import literal_eval
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csemigroups import GapSemigroup, InvalidSemigroupFile, MonomialOrder
from csemigroups.serialize import (
    load_document,
    load_semigroup,
    semigroup_to_document,
)
from bruteforce import brute_msg, closure_violation
from conftest import S1_GAPS
from strategies import gap_documents


def test_generator_roundtrip(s1_gen):
    doc = semigroup_to_document(s1_gen, MonomialOrder("deglex"))
    loaded, order = load_document(doc)
    assert loaded == s1_gen
    assert order == MonomialOrder("deglex")
    assert semigroup_to_document(loaded, order) == doc


def test_gap_roundtrip(s1):
    doc = semigroup_to_document(s1)
    loaded, order = load_document(doc)
    assert loaded == s1
    assert order is None
    assert semigroup_to_document(loaded) == doc


def test_load_from_file(tmp_path, s1_gen):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(semigroup_to_document(s1_gen)))
    loaded, _ = load_semigroup(path)
    assert loaded == s1_gen


def _expect_invariant(doc, invariant):
    with pytest.raises(InvalidSemigroupFile) as info:
        load_document(doc)
    assert info.value.invariant == invariant


def test_schema_violations():
    _expect_invariant([], "document")
    _expect_invariant({"generators": [[1, 0]]}, "dimension")
    _expect_invariant({"p": 0, "generators": [[1, 0]]}, "dimension")
    _expect_invariant({"p": 2}, "exactly-one-representation")
    _expect_invariant(
        {"p": 2, "generators": [[1, 0]], "rays": [[1, 0]], "gaps": []},
        "exactly-one-representation",
    )
    _expect_invariant({"p": 2, "rays": [[1, 0], [0, 1]]}, "exactly-one-representation")
    _expect_invariant(
        {"p": 2, "generators": [[1, -1]]}, "non-negative-integer-coordinates"
    )
    _expect_invariant(
        {"p": 2, "generators": [["5", 1]]}, "non-negative-integer-coordinates"
    )
    _expect_invariant({"p": 2, "generators": [[1, 0, 0]]}, "dimension")
    _expect_invariant({"p": 2, "generators": []}, "generators")
    _expect_invariant({"p": 2, "generators": [[0, 0]]}, "generators")


def test_ray_extremality_checked():
    _expect_invariant(
        {"p": 2, "rays": [[2, 0], [0, 1]], "gaps": []}, "ray-extremality"
    )
    _expect_invariant(
        {"p": 2, "rays": [[1, 0], [1, 1], [0, 1]], "gaps": []}, "ray-extremality"
    )


def test_gap_validation():
    _expect_invariant(
        {"p": 2, "rays": [[1, 0], [0, 1]], "gaps": [[0, 0]]}, "gap-in-cone"
    )
    # (1,1) = (1,0) + (0,1) with both kept: closure fails
    _expect_invariant(
        {"p": 2, "rays": [[1, 0], [0, 1]], "gaps": [[1, 1]]}, "gap-closure"
    )
    # four extremal rays in dimension 3: gap membership needs a simplicial cone
    square = [[0, 1, 0], [0, 1, 1], [1, 0, 0], [1, 0, 1]]
    for gap_list in ([], [[1, 1, 1]]):
        _expect_invariant({"p": 3, "rays": square, "gaps": gap_list}, "simplicial-cone")


def test_valid_gap_document():
    doc = {
        "p": 2,
        "rays": [[3, 1], [5, 1]],
        "gaps": [list(g) for g in S1_GAPS],
        "order": "degrevlex",
        "priority": [1, 0],
    }
    loaded, order = load_document(doc)
    assert isinstance(loaded, GapSemigroup)
    assert loaded.genus == 4
    assert order == MonomialOrder("degrevlex", (1, 0))


def test_order_validation():
    _expect_invariant(
        {"p": 2, "generators": [[1, 0]], "order": "grlex"}, "order-kind"
    )
    _expect_invariant(
        {"p": 2, "generators": [[1, 0]], "order": "lex", "priority": [1, 2]},
        "priority-permutation",
    )
    # entries that are not ints cannot be sorted against ints, or compare
    # equal to them as bools and floats do
    for priority in ([0, "a"], [True, False], [0.0, 1.0]):
        _expect_invariant(
            {"p": 2, "generators": [[1, 0]], "order": "deglex", "priority": priority},
            "priority-permutation",
        )
    # a permutation of the wrong number of coordinates
    for priority in ([0], [0, 1, 2]):
        _expect_invariant(
            {"p": 2, "generators": [[1, 0]], "order": "deglex", "priority": priority},
            "priority-permutation",
        )


def test_unreadable_file(tmp_path):
    with pytest.raises(InvalidSemigroupFile) as info:
        load_semigroup(tmp_path / "missing.json")
    assert info.value.invariant == "io"
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(InvalidSemigroupFile) as info:
        load_semigroup(bad)
    assert info.value.invariant == "json"


# JSON-shaped values: small ints, strings, bools, nulls and nested lists
_scalars = st.one_of(
    st.integers(-1, 6), st.sampled_from(["a", "1", ""]), st.booleans(), st.none()
)
_junk = st.recursive(_scalars, lambda inner: st.lists(inner, max_size=3), max_leaves=6)
_points = st.lists(st.lists(st.integers(-1, 6), max_size=4) | _junk, max_size=4)
_representations = st.sampled_from(
    [("generators",), ("rays", "gaps"), ("generators", "rays", "gaps"), ("rays",), ()]
)


# the priority is checked only once p, the representation keys and the order
# kind are valid, so most documents get an order and a priority
@st.composite
def _documents(draw):
    doc = {"p": draw(st.integers(0, 3))}
    for key in draw(_representations):
        doc[key] = draw(_points | _junk)
    if draw(st.integers(0, 3)):
        doc["order"] = draw(st.sampled_from(["lex", "deglex", "degrevlex"]) | _junk)
    if draw(st.integers(0, 3)):
        doc["priority"] = draw(
            st.lists(st.integers(-1, 3) | _scalars, max_size=4) | _junk
        )
    return doc


@given(doc=_documents())
@settings(max_examples=400, deadline=None)
def test_loader_only_raises_invalid_file(doc):
    try:
        load_document(doc)
    except InvalidSemigroupFile:
        pass


_CLOSURE_MESSAGE = re.compile(
    r"gap (\(.*\)) is the sum of elements (\(.*\)) and (\(.*\))"
)


@given(data=gap_documents())
@settings(max_examples=400, deadline=None)
def test_gap_document_loads_exactly_when_closed(data):
    """Loading accepts a gap set exactly when the pairwise scan finds no gap
    that is a sum of two elements; an accepted set has the minimal
    generators of a scan of all two-part splits, and a rejected one names a
    gap that is such a sum."""
    doc, in_cone, points = data
    gap_set = {tuple(h) for h in doc["gaps"]}
    violation = closure_violation(gap_set, in_cone, points)
    try:
        S, _ = load_document(doc)
    except InvalidSemigroupFile as exc:
        assert violation is not None
        assert exc.invariant == "gap-closure"
        h, x, y = map(literal_eval, _CLOSURE_MESSAGE.fullmatch(str(exc)).groups())
        assert h in gap_set and tuple(map(sum, zip(x, y))) == h
        assert all(any(z) and in_cone(z) and z not in gap_set for z in (x, y))
        return
    assert violation is None
    # every generator lies below sum_i w(n_i) + (largest gap grade), n_i the
    # least element on ray i
    weights = []
    for d in map(tuple, doc["rays"]):
        k = next(k for k in count(1) if tuple(k * c for c in d) not in gap_set)
        weights.append(k * sum(d))
    top = sum(weights) + max(map(sum, gap_set), default=0)
    member = lambda p: in_cone(p) and p not in gap_set  # noqa: E731
    assert S.minimal_generators() == brute_msg(member, points(top))
