"""Command-line behaviour: formats, exit codes, determinism."""

import contextlib
import copy
import io
import json
import os
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import antichain, fence, grid

from sitecalc import (
    FinitePoset,
    GrothTopology,
    Presheaf,
    catalog_poset,
    congruence_from_nucleus,
    nucleus_from_topology,
    sublocale_from_nucleus,
    subset_topology,
)
from sitecalc.cli import main
from sitecalc.sheaves import VALUE_BUDGET

V_TEXT = "elements: x y z\nle: y x\nle: z x\n"
CHAIN2_TEXT = "elements: 0 1\nle: 0 1\n"


@pytest.fixture
def v_file(tmp_path):
    path = tmp_path / "v.poset"
    path.write_text(V_TEXT)
    return str(path)


@pytest.fixture
def chain2_file(tmp_path):
    path = tmp_path / "chain2.poset"
    path.write_text(CHAIN2_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_round_trip(capsys, v_file):
    code, out = run(capsys, "validate", "--poset", v_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["poset"]["elements"] == ["x", "y", "z"]


def test_validate_cycle_gives_domain_error(capsys, tmp_path):
    path = tmp_path / "cyclic.poset"
    path.write_text("elements: a b\nle: a b\nle: b a\n")
    code, out = run(capsys, "validate", "--poset", str(path))
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["code"] == "CycleError"


def test_topology_subset_matches_library(capsys, v_file):
    code, out = run(capsys, "topology", "--poset", v_file, "--subset", "y")
    assert code == 0
    v = catalog_poset("V")
    expected = subset_topology(v, frozenset({v.index_of("y")}))
    assert GrothTopology.from_json(json.loads(out)) == expected


def test_topology_kind_and_errors(capsys, v_file):
    code, out = run(capsys, "topology", "--poset", v_file, "--kind", "dense")
    assert code == 0
    code, out = run(capsys, "topology", "--poset", v_file, "--kind", "atomic")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "NotDownwardsDirectedError"


def test_enumerate_tags_generating_subsets(capsys, chain2_file):
    code, out = run(capsys, "enumerate", "--poset", chain2_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 4
    assert sorted(tuple(t["generated_by"]) for t in doc["topologies"]) == [
        (),
        ("0",),
        ("0", "1"),
        ("1",),
    ]


def test_convert_round_trip(capsys, tmp_path, chain2_file):
    code, out = run(capsys, "topology", "--poset", chain2_file, "--subset", "0")
    topo_file = tmp_path / "j.json"
    topo_file.write_text(out)
    for kind in ("nucleus", "congruence", "sublocale"):
        code, out = run(
            capsys,
            "convert",
            "--poset",
            chain2_file,
            "--topology",
            str(topo_file),
            "--to",
            kind,
        )
        assert code == 0
        obj_file = tmp_path / f"{kind}.json"
        obj_file.write_text(out)
        code, back = run(
            capsys,
            "convert",
            "--poset",
            chain2_file,
            "--from",
            kind,
            "--input",
            str(obj_file),
        )
        assert code == 0
        assert json.loads(back) == json.loads(topo_file.read_text())


@pytest.mark.parametrize(
    "kind, field, corrupt, code",
    [
        ("nucleus", "pairs", lambda pairs: pairs[0].__setitem__(1, 99), "NotANucleusError"),
        ("nucleus", "pairs", lambda pairs: pairs.append([99, 0]), "NotANucleusError"),
        ("congruence", "classes", lambda classes: classes[0].append(99), "NotACongruenceError"),
        ("nucleus", "pairs", lambda pairs: pairs.pop(0), "NotANucleusError"),
        ("nucleus", "pairs", lambda pairs: pairs.append(list(pairs[-1])), "NotANucleusError"),
    ],
)
def test_convert_rejects_out_of_range_ids(capsys, tmp_path, chain2_file, kind, field, corrupt, code):
    _, out = run(capsys, "topology", "--poset", chain2_file, "--subset", "0")
    topo_file = tmp_path / "j.json"
    topo_file.write_text(out)
    _, out = run(
        capsys, "convert", "--poset", chain2_file, "--topology", str(topo_file), "--to", kind
    )
    doc = json.loads(out)
    corrupt(doc[field])
    obj_file = tmp_path / f"{kind}.json"
    obj_file.write_text(json.dumps(doc))
    exit_code, out = run(
        capsys, "convert", "--poset", chain2_file, "--from", kind, "--input", str(obj_file)
    )
    assert exit_code == 1
    error = json.loads(out)["error"]
    assert error["code"] == code
    assert error["witness"] is not None


@pytest.mark.parametrize(
    "corrupt, witness",
    [
        (lambda pairs: pairs.pop(0), {"id": 0, "downset": []}),
        (lambda pairs: pairs.append([1, 1]), {"pair": [1, 1]}),
        (lambda pairs: pairs.__setitem__(slice(None), [[2, 2], [1, 1], [1, 1]]), {"pair": [1, 1]}),
    ],
    ids=["missing", "repeated", "repeated_and_missing"],
)
def test_convert_rejects_nucleus_pairs_that_miss_or_repeat_an_id(
    capsys, tmp_path, chain2_file, corrupt, witness
):
    _, out = run(capsys, "topology", "--poset", chain2_file, "--subset", "0,1")
    topo_file = tmp_path / "j.json"
    topo_file.write_text(out)
    _, out = run(
        capsys, "convert", "--poset", chain2_file, "--topology", str(topo_file), "--to", "nucleus"
    )
    doc = json.loads(out)
    assert doc["pairs"] == [[0, 0], [1, 1], [2, 2]]
    corrupt(doc["pairs"])
    obj_file = tmp_path / "nucleus.json"
    obj_file.write_text(json.dumps(doc))
    exit_code, out = run(
        capsys, "convert", "--poset", chain2_file, "--from", "nucleus", "--input", str(obj_file)
    )
    assert exit_code == 1
    error = json.loads(out)["error"]
    assert (error["code"], error["witness"]) == ("NotANucleusError", witness)


@pytest.mark.parametrize(
    "corrupt, witness",
    [
        (lambda classes: classes[0].append(1), {"id": 1, "downset": ["0"]}),
        (lambda classes: classes.pop(0), {"id": 0, "downset": []}),
    ],
    ids=["overlapping", "missing"],
)
def test_convert_rejects_classes_that_do_not_partition(
    capsys, tmp_path, chain2_file, corrupt, witness
):
    _, out = run(capsys, "topology", "--poset", chain2_file, "--subset", "0")
    topo_file = tmp_path / "j.json"
    topo_file.write_text(out)
    _, out = run(
        capsys, "convert", "--poset", chain2_file, "--topology", str(topo_file), "--to", "congruence"
    )
    doc = json.loads(out)
    assert doc["classes"] == [[0], [1, 2]]
    corrupt(doc["classes"])
    obj_file = tmp_path / "congruence.json"
    obj_file.write_text(json.dumps(doc))
    exit_code, out = run(
        capsys, "convert", "--poset", chain2_file, "--from", "congruence", "--input", str(obj_file)
    )
    assert exit_code == 1
    error = json.loads(out)["error"]
    assert (error["code"], error["witness"]) == ("NotACongruenceError", witness)


@pytest.mark.parametrize(
    "text, maps, witness",
    [
        (CHAIN2_TEXT, {}, {"q": "0", "p": "1"}),
        (CHAIN2_TEXT, {"0<=1": [0]}, {"q": "0", "p": "1"}),
        (
            "elements: 0 1 2\nle: 0 1\nle: 1 2\n",
            {"0<=1": [0, 1], "1<=2": [1, 0], "0<=2": [0, 1]},
            {"r": "0", "q": "1", "p": "2"},
        ),
    ],
    ids=["missing", "not_a_function", "composite"],
)
def test_sheaf_check_rejects_a_non_functor_with_a_witness(capsys, tmp_path, text, maps, witness):
    poset_file = tmp_path / "p.poset"
    poset_file.write_text(text)
    _, topo = run(capsys, "topology", "--poset", str(poset_file), "--kind", "indiscrete")
    topo_file = tmp_path / "j.json"
    topo_file.write_text(topo)
    labels = text.split("\n")[0].split()[1:]
    ps_file = tmp_path / "f.json"
    ps_file.write_text(json.dumps({"values": {x: 2 for x in labels}, "maps": maps}))
    code, out = run(
        capsys, "sheaf", "check", "--poset", str(poset_file),
        "--topology", str(topo_file), "--presheaf", str(ps_file),
    )
    assert code == 1
    error = json.loads(out)["error"]
    assert (error["code"], error["witness"]) == ("FunctorialityError", witness)


def test_sheaf_check(capsys, tmp_path, chain2_file):
    code, topo = run(capsys, "topology", "--poset", chain2_file, "--subset", "0")
    topo_file = tmp_path / "j.json"
    topo_file.write_text(topo)
    presheaf = {
        "values": {"0": 2, "1": 2},
        "maps": {"0<=1": [0, 1]},
    }
    ps_file = tmp_path / "f.json"
    ps_file.write_text(json.dumps(presheaf))
    code, out = run(
        capsys,
        "sheaf",
        "check",
        "--poset",
        chain2_file,
        "--topology",
        str(topo_file),
        "--presheaf",
        str(ps_file),
    )
    assert code == 0
    assert json.loads(out)["is_sheaf"] is True
    presheaf["maps"]["0<=1"] = [0, 0]
    ps_file.write_text(json.dumps(presheaf))
    code, out = run(
        capsys,
        "sheaf",
        "check",
        "--poset",
        chain2_file,
        "--topology",
        str(topo_file),
        "--presheaf",
        str(ps_file),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["is_sheaf"] is False
    assert doc["witness"]["p"] == "1"


def test_subcanonical_command(capsys, tmp_path, v_file):
    code, topo = run(capsys, "topology", "--poset", v_file, "--kind", "indiscrete")
    topo_file = tmp_path / "ind.json"
    topo_file.write_text(topo)
    code, out = run(
        capsys, "subcanonical", "--poset", v_file, "--topology", str(topo_file)
    )
    assert code == 0
    assert json.loads(out)["subcanonical"] is True
    code, topo = run(capsys, "topology", "--poset", v_file, "--kind", "discrete")
    topo_file.write_text(topo)
    code, out = run(
        capsys, "subcanonical", "--poset", v_file, "--topology", str(topo_file)
    )
    doc = json.loads(out)
    assert doc["subcanonical"] is False and doc["witnesses"]


def test_catalog_listing(capsys):
    code, out = run(capsys, "catalog")
    assert code == 0
    doc = json.loads(out)
    names = [p["name"] for p in doc["posets"]]
    assert names == [
        "point",
        "chain2",
        "chain3",
        "chain4",
        "antichain2",
        "antichain3",
        "V",
        "Lambda",
        "diamond",
    ]
    code, out = run(capsys, "catalog", "--name", "V")
    assert json.loads(out)["elements"] == ["x", "y", "z"]


def test_export_dot(capsys, v_file):
    code, out = run(capsys, "export", "dot", "--poset", v_file)
    assert code == 0
    assert out.startswith("digraph") and out.count("->") == 2


def test_outputs_are_byte_stable(capsys, v_file, chain2_file):
    for argv in (
        ["topology", "--poset", v_file, "--subset", "y,z"],
        ["enumerate", "--poset", chain2_file],
        ["catalog"],
        ["export", "dot", "--poset", v_file],
    ):
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second


def test_golden_outputs_for_every_catalog_poset(capsys, tmp_path):
    # enumerate, convert, and subcanonical are byte-stable on the whole catalog
    from sitecalc import catalog, export_dot

    for name, poset in catalog().items():
        poset_file = tmp_path / f"{name}.json"
        poset_file.write_text(json.dumps(poset.to_json()))
        _, topo = run(capsys, "topology", "--poset", str(poset_file), "--kind", "dense")
        topo_file = tmp_path / f"{name}-dense.json"
        topo_file.write_text(topo)
        for argv in (
            ["enumerate", "--poset", str(poset_file)],
            [
                "convert",
                "--poset",
                str(poset_file),
                "--topology",
                str(topo_file),
                "--to",
                "nucleus",
            ],
            ["subcanonical", "--poset", str(poset_file), "--topology", str(topo_file)],
        ):
            code, first = run(capsys, *argv)
            assert code == 0
            _, second = run(capsys, *argv)
            assert first == second


def test_usage_errors_exit_two(capsys, v_file):
    with pytest.raises(SystemExit) as exc:
        main(["topology", "--poset", v_file])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["convert", "--poset", v_file])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_missing_file_is_a_domain_error(capsys):
    code, out = run(capsys, "validate", "--poset", "/nonexistent/zzz.poset")
    assert code == 1
    assert "error" in json.loads(out)


@pytest.mark.parametrize(
    "doc, witness",
    [
        ({"elements": ["a", "b"], "le_pairs": [["a", 0]]}, {"pair": ["a", 0]}),
        ({"elements": ["a", "b"], "le_pairs": [[0]]}, {"pair": [0]}),
        ({"elements": ["a", "b"], "le_pairs": [[0, 2]]}, {"pair": [0, 2]}),
        ({"elements": ["a", "b"], "le_pairs": [[0, True]]}, {"pair": [0, True]}),
        ({"elements": ["a", "b"], "le_pairs": {"0": 1}}, {"le_pairs": {"0": 1}}),
        ({"elements": "abc"}, {"elements": "abc"}),
        ({"elements": [1, 2]}, {"element": 1}),
        ({"elements": ["0", "1"], "relations": [["0", "1"]]}, {"unknown_keys": ["relations"]}),
    ],
)
def test_malformed_poset_json_is_a_parse_error(capsys, tmp_path, doc, witness):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "validate", "--poset", str(path))
    assert code == 1
    error = json.loads(out)["error"]
    assert error["code"] == "ParseError"
    assert error["witness"] == witness


@pytest.mark.parametrize(
    "text, message",
    [
        ("elements a b\n", "cannot parse line 'elements a b'"),
        ("elements:\nle: a b\n", "'elements:' line names no elements"),
        ("elements:   # none yet\n", "'elements:' line names no elements"),
    ],
)
def test_malformed_poset_text_is_a_parse_error(capsys, tmp_path, text, message):
    path = tmp_path / "bad.poset"
    path.write_text(text)
    code, out = run(capsys, "validate", "--poset", str(path))
    assert code == 1
    assert _error(out) == {"code": "ParseError", "message": message, "witness": None}


def test_presheaf_json_round_trip_via_cli_format():
    f = Presheaf(catalog_poset("chain2"), (2, 1), {(0, 1): (0,)})
    assert Presheaf.from_json(f.to_json()) == f


# -- malformed documents and mismatched posets ---------------------------------

CHAIN2_PRESHEAF = {"values": {"0": 2, "1": 2}, "maps": {"0<=1": [0, 1]}}


def _topology_doc(capsys, poset_file, subset="0"):
    _, out = run(capsys, "topology", "--poset", poset_file, "--subset", subset)
    return json.loads(out)


def _error(out):
    error = json.loads(out)["error"]
    assert set(error) == {"code", "message", "witness"}
    return error


@pytest.mark.parametrize(
    "mutate, witness",
    [
        (lambda doc: {"covers": doc["covers"]}, {"poset": None}),
        (lambda doc: [doc], None),
        (lambda doc: {**doc, "covers": []}, {"covers": []}),
        (lambda doc: {"poset": doc["poset"]}, {"covers": None}),
        (lambda doc: {**doc, "covers": {"0": "0"}}, {"element": "0", "family": "0"}),
        (lambda doc: {**doc, "covers": {"0": [[0]]}}, {"element": "0", "family": [[0]]}),
        (lambda doc: {**doc, "covers": {"0": [["q"]]}}, {"element": "q"}),
    ],
    ids=["no-poset", "list", "covers-list", "no-covers", "family-string", "member-int",
         "member-unknown"],
)
def test_malformed_topology_json_is_a_parse_error(capsys, tmp_path, chain2_file, mutate, witness):
    doc = mutate(_topology_doc(capsys, chain2_file))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "subcanonical", "--poset", chain2_file, "--topology", str(path))
    assert code == 1
    error = _error(out)
    assert error["code"] == "ParseError"
    assert error["witness"] == (witness or {"document": doc})


@pytest.mark.parametrize(
    "argv",
    [
        ["subcanonical"],
        ["convert", "--to", "nucleus"],
        ["convert", "--to", "sublocale"],
        ["sheaf", "check", "--presheaf"],
    ],
)
def test_topology_on_another_poset_is_a_mismatch(capsys, tmp_path, v_file, chain2_file, argv):
    """A topology document on another poset than ``--poset`` names the first
    difference, as a presentation or presheaf document does."""
    path = tmp_path / "v.json"
    path.write_text(json.dumps(_topology_doc(capsys, v_file, "y")))
    presheaf = tmp_path / "presheaf.json"
    presheaf.write_text(json.dumps(CHAIN2_PRESHEAF))
    if argv[-1] == "--presheaf":
        argv = [*argv, str(presheaf)]
    code, out = run(capsys, *argv, "--poset", chain2_file, "--topology", str(path))
    assert code == 1
    error = _error(out)
    assert (error["code"], error["witness"]) == (
        "PosetMismatchError", {"document": ["x", "y", "z"], "poset": ["0", "1"]}
    )


@pytest.mark.parametrize(
    "poset_text, subset, values, maps",
    [
        (V_TEXT, "x", {"x": 2, "y": 2**70, "z": 2}, {"y<=x": [1, 1], "z<=x": [1, 1]}),
        (
            "elements: bot a b top\nle: bot a\nle: bot b\nle: a top\nle: b top\n",
            "bot,a,b",
            {"bot": 10**6, "a": 1, "b": 1, "top": 1},
            {"bot<=a": [0], "bot<=b": [0], "bot<=top": [0], "a<=top": [0], "b<=top": [0]},
        ),
    ],
    ids=["V-huge-value-set", "diamond-long-minimal-value-set"],
)
def test_presheaf_past_the_value_budget_is_refused(
    capsys, tmp_path, poset_text, subset, values, maps
):
    """Value sets summing past the budget end in TooLargeError at once: a
    size of 2**70 once ended in an OverflowError traceback, and the verdict
    read every value of a minimal element, 10**6 of them here."""
    poset_file = tmp_path / "p.poset"
    poset_file.write_text(poset_text)
    topology = tmp_path / "topology.json"
    topology.write_text(json.dumps(_topology_doc(capsys, str(poset_file), subset)))
    presheaf = tmp_path / "presheaf.json"
    presheaf.write_text(json.dumps({"values": values, "maps": maps}))
    argv = ["--poset", str(poset_file), "--topology", str(topology), "--presheaf", str(presheaf)]
    start = time.perf_counter()
    code, out = run(capsys, "sheaf", "check", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    error = _error(out)
    spent = sum(values.values())
    assert (error["code"], error["witness"]) == (
        "TooLargeError", {"phase": "values", "budget": VALUE_BUDGET, "spent": spent}
    )


ANTICHAIN_PQ = FinitePoset(["p", "q"])  # 4 down-sets
CHAIN_XYZ = FinitePoset(["x", "y", "z"], [(0, 1), (1, 2)])  # 4 down-sets as well


def _presentation_docs(capsys, tmp_path, poset):
    """The nucleus, congruence and sublocale documents of J({first element})
    on ``poset``, as ``convert --to`` writes them."""
    poset_file = tmp_path / "own.json"
    poset_file.write_text(json.dumps(poset.to_json()))
    topo_file = tmp_path / "own-topology.json"
    topo_file.write_text(json.dumps(_topology_doc(capsys, str(poset_file), poset.labels[0])))
    docs = {}
    for kind in ("nucleus", "congruence", "sublocale"):
        argv = ["--poset", str(poset_file), "--topology", str(topo_file), "--to", kind]
        docs[kind] = json.loads(run(capsys, "convert", *argv)[1])
    return docs


@pytest.mark.parametrize("kind", ["nucleus", "congruence", "sublocale"])
@pytest.mark.parametrize(
    "own, witness",
    [
        (ANTICHAIN_PQ, {"document": ["p", "q"], "poset": ["x", "y", "z"]}),
        (FinitePoset(["x", "y", "z"], [(0, 1)]), {"pair": ["x", "z"], "in_document": False}),
    ],
    ids=["antichain", "same-labels"],
)
def test_convert_from_refuses_a_document_on_another_poset(capsys, tmp_path, kind, own, witness):
    """A presentation document is read against its own poset: one on another
    poset than ``--poset`` is a PosetMismatchError naming the first
    difference, even where the two frames have the same size."""
    doc = _presentation_docs(capsys, tmp_path, own)[kind]
    chain_file = tmp_path / "chain.json"
    chain_file.write_text(json.dumps(CHAIN_XYZ.to_json()))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = ["--poset", str(chain_file), "--from", kind, "--input", str(path)]
    code, out = run(capsys, "convert", *argv)
    assert code == 1
    error = _error(out)
    assert (error["code"], error["witness"]) == ("PosetMismatchError", witness)


@pytest.mark.parametrize("kind", ["nucleus", "congruence", "sublocale"])
def test_convert_from_reads_the_documents_poset_only_when_it_differs(
    capsys, tmp_path, monkeypatch, kind
):
    """The document's ``poset`` is compared with the ``--poset`` document as
    JSON first, and parsed only when the two differ: the same poset written
    with its pairs in another order is accepted, and a document with no
    ``poset`` field is read against ``--poset`` as before."""
    doc = _presentation_docs(capsys, tmp_path, CHAIN_XYZ)[kind]
    poset_file = tmp_path / "own.json"
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = ["convert", "--poset", str(poset_file), "--from", kind, "--input", str(path)]
    reads = []
    original = FinitePoset.from_json.__func__
    monkeypatch.setattr(
        FinitePoset, "from_json", classmethod(lambda cls, d: reads.append(d) or original(cls, d))
    )
    code, expected = run(capsys, *argv)
    assert code == 0 and len(reads) == 1  # --poset only
    monkeypatch.undo()
    for variant in (
        {**doc, "poset": {"elements": ["x", "y", "z"], "le_pairs": [[1, 2], [0, 1]]}},
        {key: value for key, value in doc.items() if key != "poset"},
    ):
        path.write_text(json.dumps(variant))
        assert run(capsys, *argv) == (0, expected)


@pytest.mark.parametrize(
    "kind, field, value, witness",
    [
        ("nucleus", "pairs", 5, {"pairs": 5}),
        ("nucleus", "pairs", [[0]], {"pair": [0]}),
        ("congruence", "classes", 5, {"classes": 5}),
        ("congruence", "classes", [[[0]]], {"class": [[0]]}),
        ("sublocale", "members", [[0]], {"member": [0]}),
    ],
)
def test_malformed_presentation_json_is_a_parse_error(
    capsys, tmp_path, chain2_file, kind, field, value, witness
):
    path = tmp_path / "j.json"
    path.write_text(json.dumps(_topology_doc(capsys, chain2_file)))
    _, out = run(capsys, "convert", "--poset", chain2_file, "--topology", str(path), "--to", kind)
    doc = json.loads(out)
    doc[field] = value
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "convert", "--poset", chain2_file, "--from", kind, "--input", str(path))
    assert code == 1
    error = _error(out)
    assert (error["code"], error["witness"]) == ("ParseError", witness)


@pytest.mark.parametrize(
    "field, value, witness",
    [
        ("values", [1], {"values": [1]}),
        ("maps", {"0<=1": 0}, {"key": "0<=1", "map": 0}),
        ("values", {"0": "x"}, {"element": "0", "size": "x"}),
    ],
)
def test_malformed_presheaf_json_is_a_parse_error(
    capsys, tmp_path, chain2_file, field, value, witness
):
    topo = tmp_path / "j.json"
    topo.write_text(json.dumps(_topology_doc(capsys, chain2_file)))
    presheaf = tmp_path / "f.json"
    presheaf.write_text(json.dumps({**CHAIN2_PRESHEAF, field: value}))
    code, out = run(
        capsys, "sheaf", "check", "--poset", chain2_file, "--topology", str(topo),
        "--presheaf", str(presheaf),
    )
    assert code == 1
    error = _error(out)
    assert (error["code"], error["witness"]) == ("ParseError", witness)


@pytest.mark.parametrize(
    "field, value, message, witness",
    [
        (
            "maps",
            {"0<=1": [0, 1], "1<=0": [0, 1]},
            "restriction '1<=0' does not match a strict pair",
            {"key": "1<=0"},
        ),
        ("values", {"0": -1, "1": 2}, "bad value sizes (-1, 2)", {"sizes": {"0": -1, "1": 2}}),
    ],
)
def test_presheaf_parse_errors_carry_labelled_witnesses(
    capsys, tmp_path, chain2_file, field, value, message, witness
):
    topo = tmp_path / "j.json"
    topo.write_text(json.dumps(_topology_doc(capsys, chain2_file)))
    presheaf = tmp_path / "f.json"
    presheaf.write_text(json.dumps({**CHAIN2_PRESHEAF, field: value}))
    code, out = run(
        capsys, "sheaf", "check", "--poset", chain2_file, "--topology", str(topo),
        "--presheaf", str(presheaf),
    )
    assert code == 1
    assert _error(out) == {"code": "ParseError", "message": message, "witness": witness}


# Integers reach 10,000: on chain2, is_sheaf is linear in the value-set
# sizes, and 10,000 values at each element take about 3 ms.  The value
# budget's first refused total and 2**70, which once ended in an
# OverflowError traceback, are drawn as well; sizes between are refused
# like them.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=10_000)
    | st.sampled_from([VALUE_BUDGET + 1, 2**70])
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=8,
)


def _fuzz_documents():
    """A valid document of each kind on chain2, and the CLI verb that reads it."""
    chain2 = catalog_poset("chain2")
    topology = subset_topology(chain2, {0})
    nucleus = nucleus_from_topology(topology)
    presentations = {
        "nucleus": nucleus,
        "congruence": congruence_from_nucleus(nucleus),
        "sublocale": sublocale_from_nucleus(nucleus),
    }
    docs = {"topology": topology.to_json(), "presheaf": {"poset": chain2.to_json(), **CHAIN2_PRESHEAF}}
    docs.update((kind, p.to_json()) for kind, p in presentations.items())
    return docs


FUZZ_DOCS = _fuzz_documents()


def _paths(doc):
    """The whole document, each field, and each entry of a field."""
    out = [()]
    for key, value in doc.items():
        out.append((key,))
        if isinstance(value, dict):
            out += [(key, k) for k in value]
        elif isinstance(value, list) and value:
            out.append((key, 0))
    return out


def _put(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_cli_survives_arbitrary_json_in_every_field(data):
    kind = data.draw(st.sampled_from(sorted(FUZZ_DOCS)))
    path = data.draw(st.sampled_from(_paths(FUZZ_DOCS[kind])))
    doc = _put(FUZZ_DOCS[kind], path, data.draw(JSON_VALUES))
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for name, text in (
            ("poset", CHAIN2_TEXT),
            ("topology", json.dumps(FUZZ_DOCS["topology"])),
            ("presheaf", json.dumps(FUZZ_DOCS["presheaf"])),
            ("doc", json.dumps(doc)),
        ):
            files[name] = os.path.join(tmp, name)
            with open(files[name], "w", encoding="utf-8") as handle:
                handle.write(text)
        common = ["--poset", files["poset"]]
        if kind == "topology":
            runs = [
                ["subcanonical", *common, "--topology", files["doc"]],
                ["convert", *common, "--topology", files["doc"], "--to", "nucleus"],
                ["sheaf", "check", *common, "--topology", files["doc"], "--presheaf", files["presheaf"]],
            ]
        elif kind == "presheaf":
            runs = [["sheaf", "check", *common, "--topology", files["topology"], "--presheaf", files["doc"]]]
        else:
            runs = [["convert", *common, "--from", kind, "--input", files["doc"]]]
        for argv in runs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            assert code in (0, 1), (argv, doc)
            if code == 1:
                _error(out.getvalue())


NOT_UTF8 = b"\xff\xfe" + "elements: a b\n".encode("utf-16-le")
DEEP_ARRAY = b"[" * 100_000 + b"]" * 100_000


@pytest.mark.parametrize(
    "argv, name, content",
    [
        (["validate", "--poset"], "bad.poset", NOT_UTF8),
        (["subcanonical", "--poset", "{chain2}", "--topology"], "bad.json", NOT_UTF8),
        (["subcanonical", "--poset", "{chain2}", "--topology"], "deep.json", DEEP_ARRAY),
    ],
    ids=["poset-not-utf8", "topology-not-utf8", "topology-deep-array"],
)
def test_unreadable_input_file_is_a_parse_error(capsys, tmp_path, chain2_file, argv, name, content):
    path = tmp_path / name
    path.write_bytes(content)
    argv = [arg.format(chain2=chain2_file) for arg in argv] + [str(path)]
    code, out = run(capsys, *argv)
    assert code == 1
    error = _error(out)
    assert error["code"] == "ParseError"
    assert set(error["witness"]) == {"path", "reason"}
    assert error["witness"]["path"] == str(path)


def test_cached_parser_gives_the_bytes_of_a_fresh_one(capsys, v_file, monkeypatch):
    """One process runs a success, a usage error and a domain error, then a
    success again, first on the shared parser and then on a fresh parser for
    each call; exit codes, stdout and stderr agree."""
    from sitecalc import cli

    assert cli.build_parser() is cli.build_parser()
    argvs = [
        ["validate", "--poset", v_file],
        ["topology", "--poset", v_file],
        ["topology", "--poset", v_file, "--kind", "atomic"],
        ["validate", "--poset", v_file],
    ]

    def run_all():
        results = []
        for argv in argvs:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    shared = run_all()
    assert [code for code, _, _ in shared] == [0, 2, 1, 0]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert run_all() == shared


@pytest.mark.parametrize(
    "poset", [antichain(8), fence(10), grid(3, 5)], ids=["antichain8", "fence10", "grid3x5"]
)
def test_mask_verbs_never_read_the_frozenset_views(capsys, tmp_path, poset):
    """Valid validate, topology (each kind), enumerate and convert runs (both
    directions) work on the order masks alone: the poset holds no frozenset
    views of its order (``REMOVED_ATTRIBUTES`` in test_public_surface.py
    pins that ``up(p)`` and ``down(p)`` are gone)."""
    poset_file = str(tmp_path / "p.json")
    (tmp_path / "p.json").write_text(json.dumps(poset.to_json()))
    labels = poset.labels
    subset = ",".join(labels[::3])
    runs = [["validate"], ["topology", "--subset", subset], ["topology", "--lx", subset]]
    runs += [["topology", "--kind", kind] for kind in ("indiscrete", "discrete", "dense")]
    if poset.is_downwards_directed():
        runs += [["topology", "--kind", "atomic"], ["topology", "--derived", subset]]
    if poset.n <= 10:
        runs.append(["enumerate", "--cap", "10"])
    for argv in runs:
        code, out = run(capsys, argv[0], "--poset", poset_file, *argv[1:])
        assert code == 0, (argv, out)
    topo_file = tmp_path / "j.json"
    topo_file.write_text(run(capsys, "topology", "--poset", poset_file, "--subset", subset)[1])
    for kind in ("nucleus", "congruence", "sublocale"):
        code, out = run(
            capsys, "convert", "--poset", poset_file, "--topology", str(topo_file), "--to", kind
        )
        assert code == 0, (kind, out)
        obj_file = tmp_path / f"{kind}.json"
        obj_file.write_text(out)
        code, back = run(
            capsys, "convert", "--poset", poset_file, "--from", kind, "--input", str(obj_file)
        )
        assert code == 0, (kind, back)
        assert json.loads(back) == json.loads(topo_file.read_text())
