"""The CLI's JSON writer against ``json.dumps(indent=2, sort_keys=True)``:
the same text, or the same exception type, on any value."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sitecalc.cli import _dumps


def reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


def outcome(write, value):
    try:
        return write(value)
    except Exception as err:  # noqa: BLE001 - the type is what is compared
        return type(err)


def assert_same(value) -> None:
    assert outcome(_dumps, value) == outcome(reference, value)


texts = st.text(max_size=6)
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**62, max_value=2**80)
    | st.floats(allow_nan=True, allow_infinity=True)
    | texts
)
keys = texts | st.integers() | st.booleans() | st.none() | st.floats(allow_nan=False)
rows = st.lists(texts, max_size=4) | st.lists(st.integers() | st.booleans(), max_size=4)


def containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.lists(rows, max_size=4)
        | st.lists(rows.map(tuple), max_size=3)
        | st.dictionaries(texts, children, max_size=4)
        | st.dictionaries(keys, children, max_size=3)
    )


json_values = st.recursive(scalars, containers, max_leaves=30)


@st.composite
def sharing(draw):
    """A document holding one list object several times, each under its own
    random stack of lists and dicts, so at equal and at unequal depths."""
    shared = draw(st.lists(rows, max_size=4) | st.lists(rows.map(tuple), max_size=3) | json_values)
    doc = []
    for _ in range(draw(st.integers(min_value=2, max_value=5))):
        value = shared
        for wrap in draw(st.lists(st.sampled_from(["list", "dict"]), max_size=3)):
            value = [value, draw(scalars)] if wrap == "list" else {"k": value, "s": draw(scalars)}
        doc.append(value)
    return doc


@settings(max_examples=600, deadline=None)
@given(json_values | sharing())
def test_writer_matches_json_dumps(value):
    assert_same(value)


class Label(str):
    pass


class Count(int):
    pass


def _cycle():
    out = [1]
    out.append({"again": out})
    return out


def _shared(depths):
    family = [["a", "b"], [], ["c"]]
    out = []
    for depth in depths:
        value = family
        for _ in range(depth):
            value = {"k": [value]}
        out.append(value)
    return out


def _nested(depth):
    out = inner = []
    for _ in range(depth):
        inner.append([])
        inner = inner[0]
    return out


@pytest.mark.parametrize(
    "value",
    [
        [],
        {},
        [[]],
        [[], ["a"], []],
        [[1, 2], [], [3]],
        [[1, True], [2]],
        [["a", 1]],
        [("x", "y"), ["z"]],
        {"pairs": [[0, 1], [1, 1]], "downsets": [[], ["ñ"], ["ñ", "é "]]},
        [float("nan"), float("inf"), -float("inf"), -0.0, 1e-7],
        [2**70, -(2**70)],
        {1: "a", "1": "b"},
        {"b": 1, 2: 3},
        {None: 1, True: 2, 1.5: 3},
        [Label("x")],
        [[Label("x")]],
        {Label("k"): 1},
        [Count(3)],
        [{1, 2}],
        [object()],
        _shared([0, 0, 1]),
        _shared([2, 1, 2, 0]),
        _cycle(),
        _nested(40),
        _nested(2000),
    ],
)
def test_writer_matches_json_dumps_on_edge_cases(value):
    assert_same(value)
