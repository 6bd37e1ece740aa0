"""The sheaf requests' single-pass paths against the member-by-member code
they stand in for: the presheaf reader and constructor against the reader
and constructor loop they replaced, naturality on cover edges against the
scan of every strict pair, the isomorphism-class buckets, and ``sheaf
check`` reading one poset."""

import json
from itertools import product

import pytest
from conftest import iso_orbit, naturality_failure, presheaf_reader_oracle

import sitecalc.sheaves
from sitecalc import (
    CATALOG_NAMES,
    FinitePoset,
    FunctorialityError,
    ParseError,
    SiteCalcError,
    catalog,
    catalog_poset,
    enumerate_presheaves,
    nucleus_from_topology,
    subset_topology,
)
from sitecalc.cli import main
from sitecalc.sheaves import Presheaf, _is_natural, _iso_key

# chain3 with two values everywhere: every pair, including 0 <= 2, and one
# composite triple
CHAIN3_DOC = {
    "values": {"0": 2, "1": 2, "2": 2},
    "maps": {"0<=1": [1, 0], "0<=2": [0, 1], "1<=2": [1, 0]},
}


def _with(doc: dict, field: str, **changes) -> dict:
    """The document with entries of one field changed; None removes one."""
    inner = {**doc[field], **changes}
    return {**doc, field: {k: v for k, v in inner.items() if v is not None}}


MUTATIONS = {
    "valid": CHAIN3_DOC,
    "spaced key": {**CHAIN3_DOC, "maps": {"0 <= 1": [1, 0], "0<=2": [0, 1], "1<=2": [1, 0]}},
    "spaced key twice": {**CHAIN3_DOC, "maps": {**CHAIN3_DOC["maps"], " 0<=1": [0, 1]}},
    "bool entry": _with(CHAIN3_DOC, "maps", **{"0<=2": [False, True]}),
    "float entry": _with(CHAIN3_DOC, "maps", **{"0<=2": [0.0, 1]}),
    "bool size": _with(CHAIN3_DOC, "values", **{"1": True}),
    "float size": _with(CHAIN3_DOC, "values", **{"1": 2.0}),
    "negative size": _with(CHAIN3_DOC, "values", **{"2": -1}),
    "missing size": _with(CHAIN3_DOC, "values", **{"2": None}),
    "unknown label": _with(CHAIN3_DOC, "values", x=1),
    "missing pair": _with(CHAIN3_DOC, "maps", **{"0<=2": None}),
    "extra pair": _with(CHAIN3_DOC, "maps", **{"2<=0": [0, 1]}),
    "reflexive pair": _with(CHAIN3_DOC, "maps", **{"1<=1": [0, 1]}),
    "key without <=": _with(CHAIN3_DOC, "maps", **{"0-2": [0, 1]}),
    "table not a list": _with(CHAIN3_DOC, "maps", **{"1<=2": {"0": 1}}),
    "short table": _with(CHAIN3_DOC, "maps", **{"1<=2": [1]}),
    "entry too large": _with(CHAIN3_DOC, "maps", **{"1<=2": [1, 2]}),
    "negative entry": _with(CHAIN3_DOC, "maps", **{"1<=2": [-1, 0]}),
    "broken composition": _with(CHAIN3_DOC, "maps", **{"0<=2": [1, 0]}),
    "empty values": {**CHAIN3_DOC, "values": {}},
}


def _read(reader, doc: dict, poset: FinitePoset):
    """The presheaf, or the error's code, message and witness."""
    try:
        return reader(doc, poset)
    except SiteCalcError as err:
        return err.to_json()


def _both_readers(doc: dict, poset: FinitePoset) -> tuple:
    return _read(Presheaf.from_json, doc, poset), _read(presheaf_reader_oracle, doc, poset)


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_bulk_reader_agrees_with_the_member_reader(mutation):
    """``from_json`` gives the result or error of the member-by-member
    reader it replaced; a key with spaces around ``<=`` is split."""
    chain3 = catalog_poset("chain3")
    read, expected = _both_readers(MUTATIONS[mutation], chain3)
    assert read == expected
    assert isinstance(read, Presheaf) == (mutation in {"valid", "spaced key"})
    if isinstance(read, Presheaf):
        assert read.maps == expected.maps
        assert all(type(tab) is tuple for tab in read.maps.values())


def test_a_declined_document_is_checked_by_the_functor_tables_once(monkeypatch):
    """A document whose keys all name strict pairs but whose tables break a
    functor law goes from the declined functor check straight to the law
    by law scan, which names the broken composite."""
    chain = FinitePoset(["a", "b", "c"], [(0, 1), (1, 2)])
    doc = {
        "values": {"a": 2, "b": 2, "c": 2},
        "maps": {"a<=b": [0, 1], "b<=c": [0, 1], "a<=c": [1, 0]},
    }
    calls = []
    checked = sitecalc.sheaves._functor_tables

    def counted(*args):
        calls.append(args)
        return checked(*args)

    monkeypatch.setattr(sitecalc.sheaves, "_functor_tables", counted)
    with pytest.raises(FunctorialityError) as exc:
        Presheaf.from_json(doc, chain)
    assert exc.value.message == "composite restriction violated at a <= b <= c"
    assert exc.value.witness == {"r": "a", "q": "b", "p": "c"}
    assert len(calls) == 1


@pytest.mark.parametrize(
    "labels", [["a", "a<=b", "b"], [" a", "b", "c"], ["a", "b", "c "]], ids=["<=", "lead", "trail"]
)
def test_labels_that_keys_cannot_name_exactly_go_member_by_member(labels):
    """Keys split at their first ``<=`` and drop surrounding whitespace, so
    with such labels a key can name another pair than its text says: the
    pairs of such labels are left out of the name table, and their keys are
    split as the member reader split them."""
    chain3 = FinitePoset(labels, [(0, 1), (1, 2)])
    name = {i: label for i, label in enumerate(labels)}
    tables = [(0, 1, [1, 0]), (0, 2, [0, 1]), (1, 2, [1, 0])]
    maps = {f"{name[q]}<={name[p]}": tab for q, p, tab in tables}
    doc = {"values": {label: 2 for label in labels}, "maps": maps}
    read, expected = _both_readers(doc, chain3)
    assert read == expected


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_bulk_reader_reads_every_written_presheaf(name):
    p = catalog()[name]
    for f in enumerate_presheaves(p, 2, max_elements=p.n):
        g = Presheaf.from_json(json.loads(json.dumps(f.to_json())), p)
        assert g == f and type(g.sizes) is tuple
        assert all(type(tab) is tuple for tab in g.maps.values())


def test_missing_restrictions_are_named_in_index_order():
    """0 < 2 and 0 < 9 on ten elements: ``up(0)`` as a frozenset lists 9
    before 2, the strict pairs list 0 <= 2 first."""
    poset = FinitePoset(10, [(0, 2), (0, 9)])
    with pytest.raises(FunctorialityError) as exc:
        Presheaf(poset, [1] * 10, {})
    assert exc.value.message == "missing restriction for 0 <= 2"
    assert (exc.value.q, exc.value.p) == (0, 2)
    assert exc.value.witness == {"q": "0", "p": "2"}


@pytest.mark.parametrize("size", [2.0, True], ids=["float", "bool"])
def test_library_sizes_must_be_exact_integers(size):
    chain3 = catalog_poset("chain3")
    maps = {(0, 1): (0, 1), (0, 2): (0, 1), (1, 2): (0, 1)}
    with pytest.raises(ParseError) as exc:
        Presheaf(chain3, [2, size, 2], maps)
    assert exc.value.witness == {"sizes": {"0": 2, "1": size, "2": 2}}


@pytest.mark.parametrize("entry", [1.0, True], ids=["float", "bool"])
@pytest.mark.parametrize("pair", [(0, 1), (0, 2), (1, 2)], ids=str)
def test_library_entries_must_be_exact_integers(pair, entry):
    """An entry equal to 1 but not an ``int`` is a FunctorialityError at
    its pair; the constructor loop it replaced stored such an entry, or,
    for a float at (1, 2), ended in a bare TypeError."""
    chain3 = catalog_poset("chain3")
    maps = {(0, 1): [0, 1], (0, 2): [0, 1], (1, 2): [0, 1]}
    maps[pair] = [0, entry]
    with pytest.raises(FunctorialityError) as exc:
        Presheaf(chain3, [2, 2, 2], maps)
    q, p = pair
    assert (exc.value.q, exc.value.p) == pair
    assert exc.value.message == (
        f"restriction for {q} <= {p} is not a function between the value sets"
    )


def _components(f: Presheaf, g: Presheaf, every: bool):
    """Component tuples F(p) -> G(p): all of them, or the two uniform shifts
    a -> a and a -> a + 1 modulo |G(p)|; none when some F(p) -> G(p) cannot
    be a function."""
    n = f.poset.n
    if any(f.sizes[p] and not g.sizes[p] for p in range(n)):
        return []
    if every:
        columns = [list(product(range(g.sizes[p]), repeat=f.sizes[p])) for p in range(n)]
        return list(product(*columns))
    return [
        [tuple((a + shift) % g.sizes[p] for a in range(f.sizes[p])) for p in range(n)]
        for shift in (0, 1)
    ]


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_cover_edge_naturality_matches_the_all_pairs_scan(name):
    """Every ordered pair of presheaves at value cap 2; every family of
    components on posets of up to three elements, the two uniform shifts on
    chain4 and diamond, whose pairs are 44,521 and 62,001."""
    p = catalog()[name]
    fs = enumerate_presheaves(p, 2, max_elements=p.n)
    verdicts = set()
    for f in fs:
        for g in fs:
            for comps in _components(f, g, every=p.n <= 3):
                natural = naturality_failure(f, g, comps) is None
                assert _is_natural(f, g, comps) == natural
                verdicts.add(natural)
    assert verdicts == ({True, False} if p.hasse_pairs() else {True})


@pytest.mark.parametrize("name", [n for n in CATALOG_NAMES if catalog()[n].n <= 3])
def test_iso_keys_are_invariants_of_the_classes(name):
    """Presheaves in one orbit share a key: every relabelling of the values
    of a value-cap-2 presheaf gives its key."""
    p = catalog()[name]
    pairs = p._strict_pairs()
    for f in enumerate_presheaves(p, 2, max_elements=p.n):
        for tables in iso_orbit(f):
            g = Presheaf(p, f.sizes, dict(zip(pairs, tables)))
            assert _iso_key(g) == _iso_key(f)


def test_iso_classes_search_only_inside_a_bucket(monkeypatch):
    """On V at value cap 3 the 1,544 presheaves fall in 90 classes; the
    exact search meets only presheaves with the same key."""
    v = catalog_poset("V")
    fs = enumerate_presheaves(v, 3, max_elements=v.n, max_value_cap=3)
    calls = []
    original = sitecalc.sheaves.natural_iso_exists

    def counting(f, g):
        assert _iso_key(f) == _iso_key(g)
        calls.append(1)
        return original(f, g)

    monkeypatch.setattr(sitecalc.sheaves, "natural_iso_exists", counting)
    reps, labels = sitecalc.sheaves._iso_classes(fs)
    assert len(reps) == 90 and len(labels) == len(fs)
    assert calls


def _write(tmp_path, name: str, doc) -> str:
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


def _sheaf_check(tmp_path, capsys, poset_doc, topology_poset, presheaf_poset) -> tuple[int, dict]:
    chain3 = catalog_poset("chain3")
    topology = {**subset_topology(chain3, {0, 2}).to_json(), "poset": topology_poset}
    presheaf = {**CHAIN3_DOC, "poset": presheaf_poset}
    code = main([
        "sheaf", "check", "--poset", _write(tmp_path, "p.json", poset_doc),
        "--topology", _write(tmp_path, "t.json", topology),
        "--presheaf", _write(tmp_path, "f.json", presheaf),
    ])
    return code, json.loads(capsys.readouterr().out)


def _counting_parses(monkeypatch) -> list:
    parses = []
    original = FinitePoset.__init__

    def counting(self, *args, **kwargs):
        parses.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(FinitePoset, "__init__", counting)
    return parses


def test_sheaf_check_parses_one_poset_when_the_documents_embed_it(tmp_path, capsys, monkeypatch):
    doc = catalog_poset("chain3").to_json()
    parses = _counting_parses(monkeypatch)
    code, out = _sheaf_check(tmp_path, capsys, doc, doc, doc)
    assert code == 0 and set(out) == {"is_sheaf", "witness"}
    assert len(parses) == 1


@pytest.mark.parametrize("entry", [1.0, True], ids=["float", "bool"])
def test_topology_poset_equal_only_as_a_value_is_read_on_its_own(entry, tmp_path, capsys):
    """``1.0`` and ``true`` equal ``1``, so the document compares equal to
    ``--poset``; it is read on its own and its ParseError stands, for the
    topology and presheaf documents of ``sheaf check`` and the nucleus
    document of ``convert --from``, under ``--poset`` as JSON and as text."""
    chain3 = catalog_poset("chain3")
    doc = chain3.to_json()
    pairs = [list(pair) for pair in doc["le_pairs"]]
    assert pairs[1] == [0, 1]
    pairs[1] = [0, entry]
    inexact = {**doc, "le_pairs": pairs}
    assert inexact == doc
    nucleus = nucleus_from_topology(subset_topology(chain3, {0, 2}))
    text = "elements: 0 1 2\nle: 0 1\nle: 1 2\n"
    for poset_doc in (doc, text):
        outs = [
            _sheaf_check(tmp_path, capsys, poset_doc, inexact, doc),
            _sheaf_check(tmp_path, capsys, poset_doc, doc, inexact),
        ]
        code = main([
            "convert", "--poset", _write(tmp_path, "p.json", poset_doc), "--from", "nucleus",
            "--input", _write(tmp_path, "n.json", {**nucleus.to_json(), "poset": inexact}),
        ])
        outs.append((code, json.loads(capsys.readouterr().out)))
        for code, out in outs:
            assert code == 1 and out["error"]["code"] == "ParseError"
            assert out["error"]["witness"] == {"pair": [0, entry]}


def test_presheaf_on_another_order_of_the_labels_is_a_mismatch(tmp_path, capsys):
    """The presheaf document's own poset is compared with ``--poset``; the
    same labels in another order name the first pair that differs."""
    doc = catalog_poset("chain3").to_json()
    reversed_chain = FinitePoset(["0", "1", "2"], [(2, 1), (1, 0)]).to_json()
    code, out = _sheaf_check(tmp_path, capsys, doc, doc, reversed_chain)
    assert code == 1
    assert out["error"] == {
        "code": "PosetMismatchError",
        "message": "the document is on another poset than --poset",
        "witness": {"pair": ["0", "1"], "in_document": False},
    }


def test_presheaf_poset_is_read_when_poset_is_text(tmp_path, capsys):
    """With ``--poset`` in the text form there is no JSON to compare, so the
    presheaf document's poset is read and compared as a poset."""
    doc = catalog_poset("chain3").to_json()
    text = "elements: 0 1 2\nle: 0 1\nle: 1 2\n"
    code, out = _sheaf_check(tmp_path, capsys, text, doc, doc)
    assert code == 0 and set(out) == {"is_sheaf", "witness"}


def test_null_presheaf_poset_is_read_when_poset_is_text(tmp_path, capsys):
    """A text ``--poset`` has no JSON document, so a ``null`` poset field
    is not taken for a match: it is read, and is a ParseError, as it is
    against a JSON ``--poset``."""
    doc = catalog_poset("chain3").to_json()
    text = "elements: 0 1 2\nle: 0 1\nle: 1 2\n"
    for poset_doc in (text, doc):
        code, out = _sheaf_check(tmp_path, capsys, poset_doc, doc, None)
        assert code == 1
        assert out["error"]["code"] == "ParseError"
