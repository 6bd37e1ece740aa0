"""Frame maps against the pairwise scans their closed form replaced.

A table between two down-set frames is a frame morphism iff it is the
preimage map of a monotone map between the posets, which the library reads
off the table.  Every table between catalog frames of at most 6 down-sets,
the preimage table of every monotone map between catalog posets, each of
those with one entry changed, and seeded random tables are checked against
the law scan, the adjunction scan and the factorization through a quotient
on class representatives, kept in ``conftest``.
"""

import random
from itertools import product

import pytest
from conftest import (
    antichain,
    factorization_oracle,
    frame_law_scan_oracle,
    preimage_table_oracle,
    upper_adjoint_oracle,
)

from sitecalc import (
    CATALOG_NAMES,
    DownSetFrame,
    FrameMap,
    NotAFrameMorphismError,
    NotOrderMorphismError,
    OrderMorphism,
    SiteCalcError,
    all_order_morphisms,
    catalog_poset,
    enumerate_downsets,
    homomorphism_factorization,
    restriction_frame_map,
    subset_forms,
    upper_adjoint,
)
from sitecalc.poset import frame_morphism_violation

FRAMES = {name: enumerate_downsets(catalog_poset(name)) for name in CATALOG_NAMES}
SMALL_FRAMES = [name for name, frame in FRAMES.items() if len(frame) <= 6]
ORDERED_PAIRS = list(product(CATALOG_NAMES, repeat=2))


def _outcome(call, f):
    try:
        return call(f)
    except SiteCalcError as err:
        return type(err), err.witness


def _labelled(frame, witness):
    """The scan's witness with its down-set ids read as sorted labels."""
    if witness["a"] is None:
        return witness
    labels = frame.poset.labels
    return dict(
        witness,
        a=sorted(labels[e] for e in frame.downset(witness["a"])),
        b=sorted(labels[e] for e in frame.downset(witness["b"])),
    )


def _check(f) -> bool:
    """The library agrees with every oracle on ``f``; True iff f is a frame
    morphism."""
    scan = frame_law_scan_oracle(f)
    assert frame_morphism_violation(f) == scan
    if scan is not None:
        expected = (NotAFrameMorphismError, _labelled(f.source, scan))
        assert _outcome(upper_adjoint, f) == expected
        assert _outcome(homomorphism_factorization, f) == expected
        return False
    assert upper_adjoint(f).table == upper_adjoint_oracle(f)
    assert _outcome(_factorization, f) == _outcome(_factorization_oracle, f)
    return True


def _factorization(f):
    witness = homomorphism_factorization(f)
    return witness.kernel, witness.kernel.classes, witness.iso


def _factorization_oracle(f):
    kernel, iso = factorization_oracle(f)
    return kernel, kernel.classes, iso


@pytest.mark.parametrize("source, target", list(product(SMALL_FRAMES, repeat=2)))
def test_every_small_table_matches_the_oracles(source, target):
    """Every table D(P) -> D(Q); the accepted ones are as many as the
    monotone maps Q -> P."""
    src, tgt = FRAMES[source], FRAMES[target]
    accepted = sum(
        _check(FrameMap(src, tgt, table)) for table in product(range(len(tgt)), repeat=len(src))
    )
    assert accepted == len(all_order_morphisms(tgt.poset, src.poset))


@pytest.mark.parametrize("source, target", ORDERED_PAIRS)
def test_preimage_tables_and_their_neighbours_match_the_oracles(source, target):
    """The preimage table of every monotone Q -> P is accepted, and is onto
    iff phi is an order embedding; each with one entry changed, and seeded
    random tables, agree with the oracles."""
    src, tgt = FRAMES[source], FRAMES[target]
    for phi in all_order_morphisms(tgt.poset, src.poset):
        table = preimage_table_oracle(src, tgt, phi.mapping)
        assert _check(FrameMap(src, tgt, table))
        embedding = all(
            tgt.poset.leq(a, b) == src.poset.leq(phi(a), phi(b))
            for a, b in product(range(tgt.poset.n), repeat=2)
        )
        assert (set(table) == set(range(len(tgt)))) == embedding
        for i, t in product(range(len(src)), range(len(tgt))):
            if t != table[i]:
                _check(FrameMap(src, tgt, table[:i] + (t,) + table[i + 1:]))
    rng = random.Random(f"{source}->{target}")
    for _ in range(200):
        _check(FrameMap(src, tgt, tuple(rng.randrange(len(tgt)) for _ in src.masks)))


def test_no_pairwise_scan_runs_on_accepted_maps(monkeypatch):
    """On antichain(12) cut to its even elements, 4096 -> 64 down-sets, the
    three frame-map functions never call a binary meet or join."""
    poset = antichain(12)
    frame = enumerate_downsets(poset)
    evens = range(0, 12, 2)
    f = restriction_frame_map(frame, evens)

    def refuse(self, i, j):
        raise AssertionError("pairwise scan on an accepted map")

    monkeypatch.setattr(DownSetFrame, "meet", refuse)
    monkeypatch.setattr(DownSetFrame, "join", refuse)
    assert frame_morphism_violation(f) is None
    g = upper_adjoint(f)
    witness = homomorphism_factorization(f)
    forms = subset_forms(poset, evens)
    assert tuple(g.table[t] for t in f.table) == forms.nucleus.table
    assert witness.kernel == forms.congruence
    assert all(f.table[a] == witness.iso[c] for a, c in enumerate(forms.congruence.class_of))
    assert sorted(witness.iso) == list(range(len(f.target)))


def test_frame_morphism_witness_is_one_shape():
    """chain3 with down-set ids 1 and 2 swapped: both callers report the
    first failing pair as sorted labels."""
    frame = FRAMES["chain3"]
    f = FrameMap(frame, frame, (0, 2, 1, 3))
    assert frame_morphism_violation(f) == {"law": "meet", "a": 1, "b": 2}
    for call in (upper_adjoint, homomorphism_factorization):
        with pytest.raises(NotAFrameMorphismError) as exc:
            call(f)
        assert exc.value.witness == {"law": "meet", "a": ["0"], "b": ["0", "1"]}


def test_frame_map_input_checks():
    frame = FRAMES["chain3"]
    for bad in (1.0, True, "1", None, -1, 4):
        with pytest.raises(NotAFrameMorphismError) as exc:
            FrameMap(frame, frame, (0, bad, 2, 3))
        assert exc.value.witness == {"id": bad} and type(exc.value.witness["id"]) is type(bad)
    with pytest.raises(NotAFrameMorphismError) as exc:
        FrameMap(frame, frame, (0, 1, 2))
    assert exc.value.witness == {"entries": 3, "size": 4}
    f = FrameMap(frame, frame, [0, 1, 2, 3])
    assert f.table == (0, 1, 2, 3) and hash(f) == hash(FrameMap(frame, frame, (0, 1, 2, 3)))


def test_order_morphism_input_checks():
    chain2 = catalog_poset("chain2")
    for bad in (1.0, True, "1", None, -1, 2):
        with pytest.raises(NotOrderMorphismError) as exc:
            OrderMorphism(chain2, chain2, (0, bad))
        assert exc.value.witness == {"id": bad} and type(exc.value.witness["id"]) is type(bad)
    with pytest.raises(NotOrderMorphismError) as exc:
        OrderMorphism(chain2, chain2, (0, 1, 1))
    assert exc.value.witness == {"entries": 3, "size": 2}
    phi = OrderMorphism(chain2, chain2, [0, 1])
    assert phi.mapping == (0, 1) and hash(phi) == hash(OrderMorphism(chain2, chain2, (0, 1)))

