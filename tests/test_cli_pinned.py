"""Every JSON verb's stdout, pinned by SHA-256 as recorded before the CLI
stopped writing its documents through ``json.dumps(indent=2)``, and a guard
that these documents never take the writer's ``json.dumps`` fallback."""

import contextlib
import hashlib
import io
import json

import pytest
from conftest import antichain, down_set, fence, grid

from sitecalc import FinitePoset, Presheaf, catalog
from sitecalc.cli import main


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _labels(poset: FinitePoset, keep) -> str:
    return ",".join(poset.labels[i] for i in range(poset.n) if keep(i))


def _constant_presheaf(poset: FinitePoset, size: int) -> dict:
    """The constant presheaf on ``size`` values, identity restrictions."""
    maps = {
        (q, p): tuple(range(size)) for p in range(poset.n) for q in down_set(poset, p) if q != p
    }
    return Presheaf(poset, [size] * poset.n, maps).to_json()


def verb_runs(poset: FinitePoset, tmp_path) -> list[tuple[str, int, str]]:
    """Each JSON verb on ``poset``, as (name, exit code, stdout): every way to
    build a topology, ``enumerate`` (refused above 10 elements), valid and
    corrupted ``subcanonical``, ``sheaf check`` of a sheaf and a non-sheaf,
    ``validate``, and a ParseError whose witness is a nested document."""

    def write(name: str, doc) -> str:
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    poset_file = write("poset.json", poset.to_json())
    runs = []

    def run(name: str, *argv: str) -> str:
        code, out = _run([*argv, "--poset", poset_file])
        runs.append((name, code, out))
        return out

    run("validate", "validate")
    subset = run("topology --subset", "topology", "--subset", _labels(poset, lambda i: i % 3 == 1))
    docs = {}
    for kind in ("indiscrete", "discrete", "atomic", "dense"):
        docs[kind] = run(f"topology --kind {kind}", "topology", "--kind", kind)
    run("topology --derived", "topology", "--derived", _labels(poset, lambda i: i % 4 == 0))
    run("topology --lx", "topology", "--lx", _labels(poset, lambda i: i % 2 == 0))
    run("enumerate", "enumerate", "--cap", "10")

    subset_file = write("subset.json", json.loads(subset))
    run("subcanonical", "subcanonical", "--topology", subset_file)
    corrupted = json.loads(subset)
    family = next(fam for fam in corrupted["covers"].values() if len(fam) > 1)
    del family[-1]  # the maximal sieve
    run("subcanonical corrupted", "subcanonical", "--topology", write("corrupted.json", corrupted))

    dense_file = write("dense.json", json.loads(docs["dense"]))
    terminal = write("terminal.json", _constant_presheaf(poset, 1))
    constant = write("constant.json", _constant_presheaf(poset, 2))
    run("sheaf check sheaf", "sheaf", "check", "--topology", dense_file, "--presheaf", terminal)
    run("sheaf check non-sheaf", "sheaf", "check", "--topology", subset_file, "--presheaf", constant)

    nested = {
        "poset": poset.to_json(),
        "covers": [{"ñ": {"weight": 0.25, "labels": ["é", "z"], "empty": {}}}, [1, 2.5e-7]],
    }
    run("nested witness", "subcanonical", "--topology", write("nested.json", nested))
    return runs


# SHA-256 of each run's stdout, recorded while json.dumps(indent=2) wrote it.
PINNED = {
    "antichain8": {
        "validate": "6da3960ff4a19ef658376da6ebc0c16562ab3b84fe50da20e61510dc7f5880d0",
        "topology --subset": "eabea7584b7a2bc3bb775ef9a501c9dd40c255e5ae32d7959668c316351acb30",
        "topology --kind indiscrete": "902ed84dc716005870a1cf8938d6516ca20e003a533b1e7340f096e63e5af4f0",
        "topology --kind discrete": "ee79e122e2883e3880e04c223ef6d0f1c7babbaed6c899c0d7d5a66a3aea34a6",
        "topology --kind atomic": "eb96fe2f173617e5b8c0617230d1f547f037b9a00ff61e275883e97e6c79d9de",
        "topology --kind dense": "902ed84dc716005870a1cf8938d6516ca20e003a533b1e7340f096e63e5af4f0",
        "topology --derived": "f0c6af09e8c9ee3f87e05b6c4bd1e1e910b20e5426fc73067e95395e54525b5e",
        "topology --lx": "dd255b122e3b73a55fd5356eceb3c89fd18bf7fa999f50518788f611e7b67b7c",
        "enumerate": "4f2585478f407267aa46c05a2ba6979e4e3afe94f247463dadbba02aab125fbc",
        "subcanonical": "4c9843c815524501367a9d6a3b76bc408d4550857f98327374feb7502bce2104",
        "subcanonical corrupted": "5d28635d94496d15de318244c2676ac9e05a31977dd48c79ef8b14215287d311",
        "sheaf check sheaf": "4992709062af325506f979d550a50e4ccd44dbeb6b3d694b2b73968687b807c7",
        "sheaf check non-sheaf": "e9ceea0546eaad44973cb920cbb60cad65501682767303400e196515ee1c156e",
        "nested witness": "ea16a57b49b941ee4b31acf15575c2ca8bdfd6c449d77d6b7adc4e5928b8d905",
    },
    "fence10": {
        "validate": "009a5b59167c23a661be00c8dfa4306d50b1624a889e171b3e5284afcc522f94",
        "topology --subset": "91e2d864c45498289b468ed10880acf08f81ccfd0253b3b7ed736ecb66ed69d9",
        "topology --kind indiscrete": "e1f986447d0606e1b86a6893b82b9586c0db9eeb6116f0d13d4f8ef3a9d7d886",
        "topology --kind discrete": "51f90da932d5a0813adc9145028a2e59fae5d7cf307e73c532d2a258edc41a6c",
        "topology --kind atomic": "eb96fe2f173617e5b8c0617230d1f547f037b9a00ff61e275883e97e6c79d9de",
        "topology --kind dense": "5fbb11b848557989a8ff423f9274250f8938e894f610fcd5fd4ace8dbdac7d00",
        "topology --derived": "f0c6af09e8c9ee3f87e05b6c4bd1e1e910b20e5426fc73067e95395e54525b5e",
        "topology --lx": "5fbb11b848557989a8ff423f9274250f8938e894f610fcd5fd4ace8dbdac7d00",
        "enumerate": "4aa0b70ac9749c94c8d5737476b02d3c63f6fe0fc13da797db403f50b1d7b997",
        "subcanonical": "869c4ac8ad4a904dc30f424ad501734616090d5230dc54462eb1bd2361258f1f",
        "subcanonical corrupted": "a58d00615b5e24bb41c4731a7c2ad80f39440f46c0a0dfe10a5c92633a785b16",
        "sheaf check sheaf": "4992709062af325506f979d550a50e4ccd44dbeb6b3d694b2b73968687b807c7",
        "sheaf check non-sheaf": "9d8572d2e84e230c402a6bc307bf8dcc656b8d346c0bdb0441d83bb48ebf6ef7",
        "nested witness": "ea16a57b49b941ee4b31acf15575c2ca8bdfd6c449d77d6b7adc4e5928b8d905",
    },
    "grid3x5": {
        "validate": "5cbbafb6da7e49b293b201597fe95448066e0c19790400d8a06f90412dcaa141",
        "topology --subset": "512ca5b1b61798d359cb9538a2aa2982e3b47512346397a852eb2462d8ff2873",
        "topology --kind indiscrete": "7949cf9c00607b969c57a399fe859a9160af40793927655fcc5299f1b4079fa3",
        "topology --kind discrete": "4b5ce21517fa671c7ff8a11e5f3df4da340ac5e8a7ff58445c83f8534ccc8279",
        "topology --kind atomic": "eceb35b136234bb5117e3c3fd74b07c3ecdb07ae691d667312891cd045d5f3ae",
        "topology --kind dense": "eceb35b136234bb5117e3c3fd74b07c3ecdb07ae691d667312891cd045d5f3ae",
        "topology --derived": "39f00a42408975f35acd5f20fd134d7bc177d6358440239d1403d92df1f2db16",
        "topology --lx": "eceb35b136234bb5117e3c3fd74b07c3ecdb07ae691d667312891cd045d5f3ae",
        "enumerate": "6fd91438a53b246826985e53d4ef55b769a64cd840496cfdbf35283ac3608a64",
        "subcanonical": "a81feaf3ef2f0267b8eeaf40bc5985065f580b77951703c6c724d672ce2348f2",
        "subcanonical corrupted": "3025e8d5f33c3e0d57d733ea44bd14f168fcd9c48c27fba94d6eea2675c9919f",
        "sheaf check sheaf": "4992709062af325506f979d550a50e4ccd44dbeb6b3d694b2b73968687b807c7",
        "sheaf check non-sheaf": "cddab2f296ef4ae1d4b0a96349be7f2de76a7dacec2bbda3b37a612081b35e3f",
        "nested witness": "ea16a57b49b941ee4b31acf15575c2ca8bdfd6c449d77d6b7adc4e5928b8d905",
    },
}

CATALOG_PINNED = {
    "catalog": "29293857e2d0241c5e3256e254888dceebbf8edc71d4fcb0133a93ecd5f762b6",
    "catalog --name V": "e720082302dfde1ed66af626ebdb619a72c45b7b490c76ac334a7d6c039889d6",
}

PINNED_POSETS = {"antichain8": antichain(8), "fence10": fence(10), "grid3x5": grid(3, 5)}

# SHA-256 of ``export dot`` stdout, recorded while the Hasse pairs were found
# by scanning every r for q < r < p.
DOT_PINNED = {
    "antichain8": "f8536c1cd1f26fa8b4e93e13ed205e34813cae153604e219041f527d44ca1aef",
    "fence10": "d2ff90bf0bb60285a0bfbbd01e3143d5d001ba1e96e6675279ba477fc1d984ef",
    "grid3x5": "0bcece3bd0a732473bf03d424f3626d0d5f701b5b3fbc2fe79eda307a53cb083",
    "point": "3d33afb8eb40592b979c70d6b1eca8bcbd39dea544e92600a483966c1f8ac382",
    "chain2": "9499f304de796e83649e837e90f0738ed3b483f0a47ce0371a718b9d46ce4530",
    "chain3": "8060a877c5b714427b8bcbfdfada340978444fb7c22ebf1459cd94936dada699",
    "chain4": "34c5edf9143a12304d80adc0c03205a76386b9dcc7d51f51fb02f787963b697c",
    "antichain2": "9c15913c2304011ee240d6bb5a24597e9283804c5a69701cb1078ce17b482810",
    "antichain3": "95c66b9a81a754c6393909669335b85443e35cee9649fe214dc12a52c11837ff",
    "V": "2e6dd718ca9aeff6e6cf3949d8c61f533b9efb4e2bdf788b1b762caae6d21729",
    "Lambda": "52071e172fd025526b137c74a50ea5e29b17bb4e7272283b0a5ead7d3a788482",
    "diamond": "a0fdd58772faf7ce70e71e55e0fa13d6d3f2c2226afc9fefdd71c026ac10a557",
}


def _digests(runs) -> dict[str, str]:
    return {name: hashlib.sha256(out.encode("utf-8")).hexdigest() for name, _, out in runs}


def catalog_runs() -> list[tuple[str, int, str]]:
    return [("catalog", *_run(["catalog"])), ("catalog --name V", *_run(["catalog", "--name", "V"]))]


@pytest.mark.parametrize("name", PINNED_POSETS)
def test_verb_output_is_pinned(name, tmp_path):
    runs = verb_runs(PINNED_POSETS[name], tmp_path)
    codes = {run: code for run, code, _ in runs}
    outs = {run: out for run, _, out in runs}
    assert codes["subcanonical corrupted"] == codes["nested witness"] == 1
    assert codes["enumerate"] == (1 if name == "grid3x5" else 0)
    assert json.loads(outs["sheaf check sheaf"])["is_sheaf"]
    assert not json.loads(outs["sheaf check non-sheaf"])["is_sheaf"]
    assert _digests(runs) == PINNED[name]


def test_catalog_output_is_pinned():
    runs = catalog_runs()
    assert [code for _, code, _ in runs] == [0, 0]
    assert _digests(runs) == CATALOG_PINNED


def test_pinned_documents_never_take_the_fallback(tmp_path, monkeypatch):
    plain = json.dumps

    def compact_only(obj, *args, **kwargs):
        assert "indent" not in kwargs, "the writer fell back to json.dumps"
        return plain(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", compact_only)
    for name, poset in PINNED_POSETS.items():
        runs = verb_runs(poset, tmp_path)
        assert _digests(runs) == PINNED[name]
    assert _digests(catalog_runs()) == CATALOG_PINNED


def test_export_dot_is_pinned(tmp_path):
    digests = {}
    for name, poset in {**PINNED_POSETS, **catalog()}.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(poset.to_json()))
        code, out = _run(["export", "dot", "--poset", str(path)])
        assert code == 0
        digests[name] = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digests == DOT_PINNED
