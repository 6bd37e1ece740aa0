"""Command-line behaviour: formats, exit codes, determinism."""

import json

import pytest

from sitecalc import GrothTopology, Presheaf, catalog_poset, subset_topology
from sitecalc.cli import main

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


def test_presheaf_json_round_trip_via_cli_format():
    f = Presheaf(catalog_poset("chain2"), (2, 1), {(0, 1): (0,)})
    assert Presheaf.from_json(f.to_json()) == f
