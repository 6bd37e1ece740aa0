"""The down-set frame built on bitmasks, against the frozenset enumeration
it replaced, and the convert output it must keep byte for byte."""

import contextlib
import hashlib
import io
import json

import pytest
from conftest import (
    LADDER,
    antichain,
    brute_downsets,
    chain_poset,
    down_set,
    downset_masks_sorting_oracle,
    downsets_oracle,
    fan,
    fence,
    grid,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from sitecalc import (
    CATALOG_NAMES,
    Congruence,
    DownSetFrame,
    FinitePoset,
    GrothTopology,
    Nucleus,
    Sublocale,
    catalog,
    congruence_from_topology,
    discrete_topology,
    enumerate_downsets,
    mx_frame_isomorphism,
    nucleus_from_topology,
    sublocale_from_topology,
    subset_forms,
    subset_topology,
)
from sitecalc import poset as poset_module
from sitecalc import sites
from sitecalc.cli import main
from sitecalc.errors import FrameTooLargeError
from sitecalc.poset import _bits, _down_closure, _downset_masks, _mask
from sitecalc.sites import _sieves_between

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
        sieves = downsets_oracle(poset, down_set(poset, p))
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


@settings(max_examples=300, deadline=None)
@given(relabelled_posets(), st.data())
def test_downset_masks_match_the_sorting_oracle(poset, data):
    """Deciding elements in descending index order lists the down-sets
    between ``start`` and ``within`` in id order, as growing them along a
    linear extension and sorting by bit-reversed mask does."""
    members = data.draw(st.lists(st.integers(0, max(poset.n - 1, 0)), max_size=poset.n))
    within = _down_closure(poset.down_masks, _mask(m for m in members if m < poset.n))
    if data.draw(st.booleans()):
        within = (1 << poset.n) - 1
    kept = _mask(e for e in _bits(within) if data.draw(st.booleans()))
    start = _down_closure(poset.down_masks, kept)
    expected = downset_masks_sorting_oracle(poset, within, start)
    assert _downset_masks(poset, within, 10**6, start) == expected


@pytest.mark.parametrize(
    "poset",
    [*LADDER.values(), antichain(13), grid(4, 4)],
    ids=[*LADDER, "antichain13", "grid4x4"],
)
def test_downset_masks_match_the_sorting_oracle_on_the_ladder(poset):
    full = (1 << poset.n) - 1
    assert _downset_masks(poset, full, 10**6) == downset_masks_sorting_oracle(poset, full)
    for p in range(poset.n):
        least = poset.down_masks[p] & ~(1 << p)
        assert _downset_masks(poset, poset.down_masks[p], 10**6, least) == (
            downset_masks_sorting_oracle(poset, poset.down_masks[p], least)
        )


@pytest.mark.parametrize(
    "poset", [*catalog().values(), *LADDER.values()], ids=[*catalog(), *LADDER]
)
def test_sieve_walk_matches_the_member_list_sort(poset):
    """For every X, p and q, the walk from L = down(X & down(q)) up to
    H = down(p) & down(q) lists the down-sets between L and H sorted by
    member list, and none when L is not inside H."""
    down = poset.down_masks
    downsets = [_mask(d) for d in brute_downsets(poset)]
    for x in range(1 << poset.n):
        for dq in down:
            least = _down_closure(down, x & dq)
            for dp in down:
                high = dp & dq
                between = [d for d in downsets if not least & ~d and not d & ~high]
                assert list(_sieves_between(down, least, high)) == sorted(between, key=_bits)


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


def test_downsets_are_listed_once_per_poset(monkeypatch):
    """D(P) depends on P alone: every frame of one poset, from the
    enumerator, the conversions, the readers and the closed forms, reads
    the masks listed by its first, and they all compare equal."""
    p = fence(6)
    built = []

    def counted(poset, *args):
        if poset is p:
            built.append(args)
        return listing(poset, *args)

    listing = poset_module._downset_masks
    for module in (poset_module, sites):
        monkeypatch.setattr(module, "_downset_masks", counted)
    x = frozenset({0, 3, 4})
    t = subset_topology(p, x)
    forms = subset_forms(p, x)
    frames = [
        enumerate_downsets(p),
        nucleus_from_topology(t).frame,
        congruence_from_topology(t).frame,
        sublocale_from_topology(t).frame,
        forms.nucleus.frame,
        Nucleus.from_json(forms.nucleus.to_json(), p).frame,
        Congruence.from_json(forms.congruence.to_json(), p).frame,
        Sublocale.from_json(forms.sublocale.to_json(), p).frame,
        mx_frame_isomorphism(p, x).sublocale.frame,
    ]
    assert len(built) == 1
    assert all(frame == frames[0] and frame.masks is frames[0].masks for frame in frames)


@pytest.mark.parametrize("k", [1, 4, 7])
def test_frame_cap_is_exact(k, monkeypatch):
    """``DEFAULT_FRAME_CAP`` bounds the listing of D(P), read when a fresh
    poset lists it: one below 2**k refuses a k-element antichain, and 2**k
    lists it whole.  The bound guards the listing only, so the D(P) a poset
    holds is handed out again after the bound is lowered."""
    monkeypatch.setattr(poset_module, "DEFAULT_FRAME_CAP", 2**k - 1)
    with pytest.raises(FrameTooLargeError) as err:
        DownSetFrame(antichain(k))
    assert err.value.witness == {"cap": 2**k - 1}
    monkeypatch.setattr(poset_module, "DEFAULT_FRAME_CAP", 2**k)
    poset = antichain(k)
    assert len(enumerate_downsets(poset)) == 2**k
    monkeypatch.setattr(poset_module, "DEFAULT_FRAME_CAP", 2**k - 1)
    assert DownSetFrame(poset).masks is enumerate_downsets(poset).masks


@pytest.mark.parametrize("members", [{1}, {2}, {-1}, {0, -1}, {10**9}, {"a"}])
def test_id_of_rejects_what_is_not_a_down_set(members):
    frame = enumerate_downsets(catalog()["chain2"])
    with pytest.raises(KeyError):
        frame.id_of(members)


@pytest.mark.parametrize("members", [[True], [False, True], [1.0], [0, 1.0]])
def test_id_of_takes_exact_ints_only(members):
    """A bool or a float equals an int id but names no element, so on the
    antichain {a, b} it is no down-set: ``[True]`` once read as {b} and
    ``[False, True]`` as the top."""
    frame = enumerate_downsets(FinitePoset(["a", "b"]))
    with pytest.raises(KeyError):
        frame.id_of(members)
    assert (frame.id_of([1]), frame.id_of([0, 1])) == (1, 3)


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


@pytest.mark.parametrize(
    "poset",
    [*catalog().values(), antichain(8), fence(17)],
    ids=[*CATALOG_NAMES, "antichain8", "fence17"],
)
def test_cli_builds_no_label_lists(poset, tmp_path, monkeypatch):
    """``convert``, ``topology`` and ``enumerate`` write their label rows
    from masks: the library's list readings raise if anything calls them."""
    poset_file = tmp_path / "poset.json"
    poset_file.write_text(json.dumps(poset.to_json()))
    doc = subset_topology(poset, range(1, poset.n, 3)).to_json()
    topology_file = tmp_path / "topology.json"
    topology_file.write_text(json.dumps(doc))
    written = json.dumps(doc, indent=2, sort_keys=True) + "\n"

    join = poset_module._LabelRows._join

    def text_only(rows, masks, deep):
        assert deep is not None, "a label list was built"
        return join(rows, masks, deep)

    def refuse(*args):
        raise AssertionError("a label list was built")

    monkeypatch.setattr(poset_module._LabelRows, "_join", text_only)
    monkeypatch.setattr(GrothTopology, "covers_json", refuse)
    base = ["convert", "--poset", str(poset_file)]
    for kind in KINDS:
        code, out = _run(base + ["--topology", str(topology_file), "--to", kind])
        assert code == 0, (kind, out)
        path = tmp_path / f"{kind}.json"
        path.write_text(out)
        assert _run(base + ["--from", kind, "--input", str(path)]) == (0, written)
    subset = ",".join(poset.labels[1::3])
    runs = [["topology", "--subset", subset], ["topology", "--kind", "discrete"]]
    if poset.n <= 8:
        runs.append(["enumerate", "--cap", "8"])
    for argv in runs:
        code, out = _run([argv[0], "--poset", str(poset_file), *argv[1:]])
        assert code == 0, (argv, out)


# SHA-256 of each run's stdout, recorded before the frame moved to bitmasks;
# fence17 and grid5x5, whose rows span three and four 8-bit chunks, were
# recorded before label rows were written from masks.
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
    "fence17": {
        "to nucleus": "15d12dcc3f374d4e054cbeebcd37d110fe5bf9ee9e298bf78bfbb9ac07ce517d",
        "to congruence": "84b433e4ff2b0cdfb40a1cd04e3d1a3fe3564bcc98a757669ae97c7c7920b53a",
        "to sublocale": "8fd1dd1b6a7af2e8f3ab39e13c44d1d56d26a3165bc1a513489163e4d0be97a0",
        "from nucleus": "b11ca3ced7b065f583b65f9e35ed5d2c4979c6358ec5653925290cda9fcf7dcb",
        "from congruence": "b11ca3ced7b065f583b65f9e35ed5d2c4979c6358ec5653925290cda9fcf7dcb",
        "from sublocale": "b11ca3ced7b065f583b65f9e35ed5d2c4979c6358ec5653925290cda9fcf7dcb",
        "corrupted nucleus": "127eef03deb9b1f66c15aca7f3cf09a180699e5279f0a86d4b7b03e57b6f38e4",
        "corrupted congruence": "23584d8ca561d570af64d01f646a0b28d34434225e796c4b7c15b544f50db537",
        "corrupted sublocale": "b30d9a937b92fcf4a02a09772575f6e2b1003c96f1adae3cdc9f8c5d9543edcd",
    },
    "grid5x5": {
        "to nucleus": "8b6f1aed8659ac603779c9ee4b7e45e64ea3171ff95f0b0c36b1f0c1e81ed69f",
        "to congruence": "22f7b38f9c69ae6d2e195bff5518ef2db84f940bd3479b23b79e867eabb9192c",
        "to sublocale": "42a72ef7e8c167b183aebf9e5ebcc83eed13e5e2e54c7bc22decca9668ce489d",
        "from nucleus": "f1ee3d8cb18d0872313b2426430563cd4799b00e245762ac64c66b936867b9f6",
        "from congruence": "f1ee3d8cb18d0872313b2426430563cd4799b00e245762ac64c66b936867b9f6",
        "from sublocale": "f1ee3d8cb18d0872313b2426430563cd4799b00e245762ac64c66b936867b9f6",
        "corrupted nucleus": "2d1908872e30dfc4f9bb46b6215ceee198dcb425d625fc01b1a3f2e90a221272",
        "corrupted congruence": "9d6661b6c6a2e47267c77f61d9272e73902feacd51153cadf458bd60a8a70c5c",
        "corrupted sublocale": "b30d9a937b92fcf4a02a09772575f6e2b1003c96f1adae3cdc9f8c5d9543edcd",
    },
}

PINNED_POSETS = {
    "antichain8": antichain(8),
    "fence10": fence(10),
    "grid3x5": grid(3, 5),
    "fence17": fence(17),
    "grid5x5": grid(5, 5),
}


@pytest.mark.parametrize("name", PINNED_POSETS)
def test_convert_output_is_pinned(name, tmp_path):
    runs = convert_runs(PINNED_POSETS[name], tmp_path)
    assert [code for _, code, _ in runs] == [0] * 6 + [1] * 3
    digests = {run: hashlib.sha256(out.encode("utf-8")).hexdigest() for run, _, out in runs}
    assert digests == PINNED[name]
