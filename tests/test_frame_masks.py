"""The down-set frame built on bitmasks, against the frozenset enumeration
it replaced, and the convert output it must keep byte for byte."""

import contextlib
import hashlib
import io
import json

import pytest
from conftest import LADDER, antichain, chain_poset, downsets_oracle, fan, fence, grid
from hypothesis import given, settings
from hypothesis import strategies as st

from sitecalc import (
    CATALOG_NAMES,
    FinitePoset,
    catalog,
    discrete_topology,
    enumerate_downsets,
    subset_topology,
)
from sitecalc.cli import main
from sitecalc.errors import FrameTooLargeError

KINDS = ("nucleus", "congruence", "sublocale")

POSETS = {**catalog(), **LADDER, "fan5": fan(5), "grid3x3": grid(3, 3)}


def assert_frame_matches_oracle(poset: FinitePoset) -> None:
    frame = enumerate_downsets(poset)
    oracle = downsets_oracle(poset)
    assert [frame.downset(i) for i in range(len(frame))] == oracle
    assert frame.masks == tuple(sum(1 << p for p in d) for d in oracle)
    assert frame.bottom_id == 0 and frame.top_id == len(oracle) - 1
    assert frame.to_json()["downsets"] == [[poset.labels[p] for p in sorted(d)] for d in oracle]
    covers = discrete_topology(poset).covers_json()
    for p in range(poset.n):
        sieves = downsets_oracle(poset, poset.down(p))
        assert covers[poset.labels[p]] == [[poset.labels[e] for e in sorted(s)] for s in sieves]


@pytest.mark.parametrize("name", POSETS)
def test_masks_downsets_and_sieves_match_the_oracle(name):
    assert_frame_matches_oracle(POSETS[name])


@st.composite
def relabelled_posets(draw):
    """A random order on a linear extension 0 < 1 < ... < n-1, relabelled by
    a random permutation, so index order need not be a linear extension."""
    n = draw(st.integers(min_value=0, max_value=7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    perm = draw(st.permutations(range(n)))
    return FinitePoset(n, [(perm[i], perm[j]) for i, j in pairs])


@settings(max_examples=300, deadline=None)
@given(relabelled_posets())
def test_masks_match_the_oracle_on_random_posets(poset):
    assert_frame_matches_oracle(poset)


@pytest.mark.parametrize(
    "poset",
    [
        antichain(13),
        fan(10),
        FinitePoset(18, [(i, i + 1) for i in range(9, 17)]),  # 9 points beside a 9-chain
        chain_poset(20),
        FinitePoset(0),
    ],
    ids=["antichain13", "fan10", "points9_chain9", "chain20", "empty"],
)
def test_frame_listing_reads_every_mask(poset):
    """The chunk tables list each down-set's labels ascending, each in a
    list of its own, over two and three chunks and on the empty poset."""
    frame = enumerate_downsets(poset)
    listing = frame.to_json()["downsets"]
    assert listing == [[poset.labels[p] for p in sorted(frame.downset(i))] for i in range(len(frame))]
    assert len({id(row) for row in listing}) == len(listing)


@pytest.mark.parametrize("k", [1, 4, 7])
def test_frame_cap_is_exact(k):
    with pytest.raises(FrameTooLargeError) as err:
        enumerate_downsets(antichain(k), cap=2**k - 1)
    assert err.value.witness == {"cap": 2**k - 1}
    assert len(enumerate_downsets(antichain(k), cap=2**k)) == 2**k


@pytest.mark.parametrize("members", [{1}, {2}, {-1}, {0, -1}, {10**9}, {"a"}])
def test_id_of_rejects_what_is_not_a_down_set(members):
    frame = enumerate_downsets(catalog()["chain2"])
    with pytest.raises(KeyError):
        frame.id_of(members)


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _corrupt(kind: str, doc: dict) -> dict:
    """One nucleus entry sent to the empty down-set, the first class of two
    or more ids split, or the middle sublocale member dropped."""
    doc = dict(doc)
    if kind == "nucleus":
        pairs = [list(pair) for pair in doc["pairs"]]
        pairs[len(pairs) // 2][1] = 0
        doc["pairs"] = pairs
    elif kind == "congruence":
        classes = [list(c) for c in doc["classes"]]
        k = next(i for i, c in enumerate(classes) if len(c) > 1)
        classes.append([classes[k].pop()])
        doc["classes"] = classes
    else:
        members = list(doc["members"])
        del members[len(members) // 2]
        doc["members"] = members
    return doc


def convert_runs(poset: FinitePoset, tmp_path) -> list[tuple[str, int, str]]:
    """``convert`` forward and back in every direction, then once on one
    corrupted input per kind, for the subset topology of the elements i with
    i % 3 == 1; each run as (name, exit code, stdout)."""
    poset_file = tmp_path / "poset.json"
    poset_file.write_text(json.dumps(poset.to_json()))
    topology_file = tmp_path / "topology.json"
    xs = [i for i in range(poset.n) if i % 3 == 1]
    topology_file.write_text(json.dumps(subset_topology(poset, xs).to_json()))
    base = ["convert", "--poset", str(poset_file)]
    runs, docs = [], {}
    for kind in KINDS:
        code, out = _run(base + ["--topology", str(topology_file), "--to", kind])
        runs.append((f"to {kind}", code, out))
        docs[kind] = json.loads(out)
    for tag in ("from", "corrupted"):
        for kind in KINDS:
            doc = docs[kind] if tag == "from" else _corrupt(kind, docs[kind])
            path = tmp_path / f"{tag}-{kind}.json"
            path.write_text(json.dumps(doc))
            code, out = _run(base + ["--from", kind, "--input", str(path)])
            runs.append((f"{tag} {kind}", code, out))
    return runs


@pytest.mark.parametrize(
    "poset", [*catalog().values(), antichain(8)], ids=[*CATALOG_NAMES, "antichain8"]
)
def test_convert_builds_no_frozenset_view(poset, tmp_path):
    """Convert runs on masks: the frame has no frozenset listing to build,
    as ``test_public_surface`` pins."""
    for name, code, out in convert_runs(poset, tmp_path):
        assert code == 0 or name.startswith("corrupted"), (name, out)


# SHA-256 of each run's stdout, recorded before the frame moved to bitmasks.
PINNED = {
    "antichain8": {
        "to nucleus": "84a3afc5a63d266b23bf78cce57462b960e1e56b5844ed155126d43b9afa5d0d",
        "to congruence": "023267e8ffab1fae9880d94f23dd3964bd0ae57120abde7c21194cf5c63fb50a",
        "to sublocale": "cf58d52926f1fa9b6ae7678d7a941e19cab25033d46570638dd5ab5ba450fecd",
        "from nucleus": "eabea7584b7a2bc3bb775ef9a501c9dd40c255e5ae32d7959668c316351acb30",
        "from congruence": "eabea7584b7a2bc3bb775ef9a501c9dd40c255e5ae32d7959668c316351acb30",
        "from sublocale": "eabea7584b7a2bc3bb775ef9a501c9dd40c255e5ae32d7959668c316351acb30",
        "corrupted nucleus": "96fdcc2477fac22a01059af30a165fa62583bc40af0c4e59ed2391a9e2419ce1",
        "corrupted congruence": "ad32779a11ea52769055075cc831d7a43e3a2d19ac6576a5824b4252d5369689",
        "corrupted sublocale": "b30d9a937b92fcf4a02a09772575f6e2b1003c96f1adae3cdc9f8c5d9543edcd",
    },
    "fence10": {
        "to nucleus": "456231b5be129b9e36625a82925c5b9499f9b48e11e22ee13eedcd6b248beb81",
        "to congruence": "e76c0754b8616fc331ab272eee09dc06e415f6dc5e46193d60b32f8c1234daef",
        "to sublocale": "beeb59ffd992d394f831512dd9d8edba7bfd53c68b632dcdf0fff9bafb2c00ee",
        "from nucleus": "91e2d864c45498289b468ed10880acf08f81ccfd0253b3b7ed736ecb66ed69d9",
        "from congruence": "91e2d864c45498289b468ed10880acf08f81ccfd0253b3b7ed736ecb66ed69d9",
        "from sublocale": "91e2d864c45498289b468ed10880acf08f81ccfd0253b3b7ed736ecb66ed69d9",
        "corrupted nucleus": "9aef399387ac4131479abad380616645113c59e2a07d40b486c23b0bf8aa7fd2",
        "corrupted congruence": "d55a26e8e5374ec429c0a0f1af91cec413206ccec918a20112c4279d4ac7fe73",
        "corrupted sublocale": "b30d9a937b92fcf4a02a09772575f6e2b1003c96f1adae3cdc9f8c5d9543edcd",
    },
    "grid3x5": {
        "to nucleus": "40378368c065d1dd4700e44ecc3c0f5b8b834caf956bea58ad28319cfbf58a0f",
        "to congruence": "afb47ab9781d022db49d7d1ec9607a3b0e86e88b11d326e4b457f27030de831d",
        "to sublocale": "7ac41361aea2455db4ed72f407e43dfe64ff01972d2c6391c3a356a460f0d006",
        "from nucleus": "512ca5b1b61798d359cb9538a2aa2982e3b47512346397a852eb2462d8ff2873",
        "from congruence": "512ca5b1b61798d359cb9538a2aa2982e3b47512346397a852eb2462d8ff2873",
        "from sublocale": "512ca5b1b61798d359cb9538a2aa2982e3b47512346397a852eb2462d8ff2873",
        "corrupted nucleus": "c21e8d3287e85fe9ade8c1f9481b560d8f3e5540b0c74f92338848b957dfb003",
        "corrupted congruence": "9d6661b6c6a2e47267c77f61d9272e73902feacd51153cadf458bd60a8a70c5c",
        "corrupted sublocale": "ed30191e04b94df433d04068878aaba444ca6a6f72218e26d8f9c552cad52bf7",
    },
}

PINNED_POSETS = {"antichain8": antichain(8), "fence10": fence(10), "grid3x5": grid(3, 5)}


@pytest.mark.parametrize("name", PINNED_POSETS)
def test_convert_output_is_pinned(name, tmp_path):
    runs = convert_runs(PINNED_POSETS[name], tmp_path)
    assert [code for _, code, _ in runs] == [0] * 6 + [1] * 3
    digests = {run: hashlib.sha256(out.encode("utf-8")).hexdigest() for run, _, out in runs}
    assert digests == PINNED[name]
