"""The cover listing behind ``covers_json`` and ``enumerate``: one family per
key (p, L_p), L_p = down(X & down(p)) the least cover, shared only inside
the document one call builds."""

import contextlib
import copy
import io
import json

import pytest
from conftest import (
    LADDER,
    all_subsets,
    antichain,
    brute_sieves,
    chain_poset,
    char_key,
    down_set,
    downsets_oracle,
    fan,
    fence,
    grid,
    subset_covers_oracle,
)

from sitecalc import catalog, enumerate_all_topologies, sites, subset_topology
from sitecalc.cli import main

# the number of distinct keys (p, L_p) over the 2^n subsets X
DISTINCT_KEYS = {
    "antichain6": (antichain(6), 12),
    "fence6": (fence(6), 19),
    "chain6": (chain_poset(6), 27),
    "grid2x3": (grid(2, 3), 28),
}


def _keys(poset) -> set:
    return {
        (p, poset.down_closure(xs & down_set(poset, p)))
        for xs in all_subsets(poset.n)
        for p in range(poset.n)
    }


def _enumerate(poset, tmp_path) -> str:
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(poset.to_json()))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["enumerate", "--poset", str(path), "--cap", "6"]) == 0
    return out.getvalue()


@pytest.mark.parametrize("name", DISTINCT_KEYS)
def test_enumerate_lists_each_key_once(name, tmp_path, monkeypatch):
    poset, keys = DISTINCT_KEYS[name]
    assert len(_keys(poset)) == keys
    calls = []
    original = sites._downset_masks

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(sites, "_downset_masks", counting)
    text = _enumerate(poset, tmp_path)
    assert len(calls) == keys
    monkeypatch.undo()
    # the shared families write the bytes of a document with none shared
    doc = {
        "poset": poset.to_json(),
        "count": 1 << poset.n,
        "topologies": [
            {
                "covers": t.covers_json(),
                "generated_by": sorted(poset.labels[i] for i in t.subset),
            }
            for t in enumerate_all_topologies(poset, cap=6)
        ],
    }
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_covers_json_hands_out_lists_of_its_own():
    poset = grid(2, 3)
    t = subset_topology(poset, {0, 4})
    first = t.covers_json()
    kept = copy.deepcopy(first)
    families = list(first.values())
    rows = [row for family in families for row in family]
    assert len({id(f) for f in families}) == len(families)
    assert len({id(r) for r in rows}) == len(rows)
    for family in families:
        for row in family:
            row.append("x")
        family.append(["y"])
    assert t.covers_json() == kept


@pytest.mark.parametrize("poset", [*catalog().values(), *LADDER.values()], ids=[*catalog(), *LADDER])
def test_listing_matches_the_oracle(poset):
    """Every J(X), listed by one listing shared over all X as ``enumerate``
    does and by a fresh one, against the filter over every sieve, in
    characteristic-vector order."""
    shared = sites._CoverListing(poset)
    for xs in all_subsets(poset.n):
        expected = {}
        for p, family in enumerate(subset_covers_oracle(poset, xs)):
            ordered = sorted(family, key=lambda s: char_key(poset.n, s))
            assert set(ordered) <= set(brute_sieves(poset, p))
            expected[poset.labels[p]] = [[poset.labels[i] for i in sorted(s)] for s in ordered]
        assert shared.covers_json(xs) == expected
        assert subset_topology(poset, xs).covers_json() == expected


@pytest.mark.parametrize(
    "poset",
    [chain_poset(25), fence(25), grid(4, 5), fan(10), grid(2, 9)],
    ids=["chain25", "fence25", "grid4x5", "fan10", "grid2x9"],
)
def test_listing_reads_every_chunk(poset):
    """Label lists over two to four 8-bit chunks, against the down-sets of
    down(p) grown as frozensets, for three subsets X and one shared listing."""
    shared = sites._CoverListing(poset)
    for xs in (frozenset(), frozenset({0}), frozenset(range(1, poset.n, 3))):
        expected = {}
        for p in range(poset.n):
            least = poset.down_closure(xs & down_set(poset, p))
            expected[poset.labels[p]] = [
                [poset.labels[i] for i in sorted(s)]
                for s in downsets_oracle(poset, down_set(poset, p))
                if least <= s
            ]
        assert shared.covers_json(xs) == expected
        assert subset_topology(poset, xs).covers_json() == expected
