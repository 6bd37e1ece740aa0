"""The CLI's JSON writer against ``json.dumps(indent=2, sort_keys=True)``:
the same text, or the same exception type, on any value."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sitecalc import FinitePoset, enumerate_downsets, sites, subset_forms, subset_topology
from sitecalc.cli import _dumps
from sitecalc.poset import _LabelRows


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


# -- label rows written from masks ---------------------------------------------

ESCAPED = ['q"', "b\\", "ñ", "é ", "☃", "t\tab", "n\nl", "/"]


def _labelled(n: int, escaped: bool) -> list[str]:
    if escaped:
        return [f"{ESCAPED[i % len(ESCAPED)]}{i}" for i in range(n)]
    return [f"e{i}" for i in range(n)]


def _two_chains(n: int, escaped: bool) -> FinitePoset:
    """Two chains side by side, of sizes ceil(n/2) and floor(n/2): rows that
    skip bits, end in every chunk and leave some chunks empty."""
    half = (n + 1) // 2
    pairs = [(i, i + 1) for i in range(half - 1)] + [(i, i + 1) for i in range(half, n - 1)]
    return FinitePoset(_labelled(n, escaped), pairs)


def _chain(n: int, escaped: bool) -> FinitePoset:
    return FinitePoset(_labelled(n, escaped), [(i, i + 1) for i in range(n - 1)])


SIZES = [0, 1, 8, 9, 16, 17, 25]  # one to four 8-bit chunks
ROW_POSETS = {
    f"{shape.__name__[1:]}{n}{'-escaped' if escaped else ''}": shape(n, escaped)
    for shape in (_chain, _two_chains)
    for n in SIZES
    for escaped in (False, True)
}


def _text(poset: FinitePoset) -> _LabelRows:
    return _LabelRows(poset.labels, text=True)


@pytest.mark.parametrize("name", ROW_POSETS)
def test_rows_from_masks_write_the_bytes_of_the_plain_documents(name):
    """Frames, the three presentations and covers, each written from masks
    by the kernel and by ``json.dumps`` from the plain lists of ``to_json``."""
    poset = ROW_POSETS[name]
    frame = enumerate_downsets(poset)
    assert _dumps(frame._json(_text(poset))) == reference(frame.to_json())
    for xs in (range(0), range(1, poset.n, 3), range(poset.n)):
        topology = subset_topology(poset, xs)
        assert _dumps(topology._json(_text(poset))) == reference(topology.to_json())
        forms = subset_forms(poset, xs)
        for form in (forms.nucleus, forms.congruence, forms.sublocale):
            assert _dumps(form._json(_text(poset))) == reference(form.to_json())


def test_rows_from_masks_on_empty_listings_and_empty_rows():
    poset = _two_chains(9, True)
    rows, lists = _text(poset), _LabelRows(poset.labels)
    for masks in ([], [0], [0, 0b100000001], [0b100000000, 0, 1]):
        for wrap in (lambda v: {"rows": v}, lambda v: [[v]]):
            assert _dumps(wrap(rows.rows(masks))) == reference(wrap(lists.rows(masks)))
    assert _dumps({"pairs": rows.pairs(())}) == reference({"pairs": []})


@pytest.mark.parametrize("n", [8, 9])
def test_rows_from_masks_share_the_families_of_the_census(n):
    """The ``enumerate`` census hands one family to every J(X) with its key
    (p, L_p); written from masks, a shared family is the same ``_Text``,
    and the document keeps the bytes of the plain one, with the family at
    one nesting level and at two."""
    poset = _two_chains(n, True)
    shared = sites._CoverListing(poset, _text(poset))
    plain = sites._CoverListing(poset)
    subsets = [range(0), range(0, n, 2), range(1, n, 2), range(n)]
    doc = [{"covers": shared.covers_json(xs)} for xs in subsets]
    held = [family for entry in doc for family in entry["covers"].values()]
    assert len({id(f) for f in held}) < len(held)
    expected = [{"covers": plain.covers_json(xs)} for xs in subsets]
    assert _dumps(doc) == reference(expected)
    family, listed = held[0], expected[0]["covers"][poset.labels[0]]
    assert _dumps([family, {"k": [family]}, family]) == reference([listed, {"k": [listed]}, listed])
