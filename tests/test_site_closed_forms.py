"""Site-morphism reports, subcanonicity and completeness read off the
generating subset X, checked against the scans over every cover of J(X)
that they replaced, and guarded against listing every sieve on p."""

import pytest
from conftest import (
    LADDER,
    all_subsets,
    covers_of,
    down_set,
    fan,
    site_morphism_scan_oracle,
    subcanonicity_scan_oracle,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from sitecalc import (
    FinitePoset,
    GrothTopology,
    OrderMorphism,
    adjoint_transfer_consistent,
    all_order_morphisms,
    catalog,
    congruence_from_topology,
    enumerate_all_topologies,
    enumerate_presheaves,
    is_sheaf,
    is_site_isomorphism,
    nucleus_from_topology,
    site_morphism_report,
    sites,
    subcanonicity_report,
    sublocale_from_topology,
    subset_topology,
    topology_from_congruence,
    topology_from_nucleus,
    topology_from_sublocale,
    validate_topology,
    verify_commuting_diagram,
)
from sitecalc import poset as poset_module

SMALL = [p for p in catalog().values() if p.n <= 3]


def reversed_ids(poset: FinitePoset) -> FinitePoset:
    """The same order with ids reversed, so index order runs top-down."""
    n = poset.n
    return FinitePoset(
        poset.labels[::-1], [(n - 1 - a, n - 1 - b) for a, b in poset.relation_pairs()]
    )


SUBCANONICITY_POSETS = {
    **catalog(),
    **LADDER,
    "fan5": fan(5),
    **{f"{name}_reversed": reversed_ids(p) for name, p in LADDER.items()},
}


def check_site_morphism(phi, x, y):
    """Same failing elements as the all-covers scan, each reported once with
    its least cover, which the scan also finds failing."""
    p, q = phi.source, phi.target
    j, k = subset_topology(p, x), subset_topology(q, y)
    report = site_morphism_report(phi, j, k)
    cover_scan, clp_scan = site_morphism_scan_oracle(phi, j, k)
    assert [e for e, _ in report.cover_violations] == sorted({e for e, _ in cover_scan})
    for e, witness in report.cover_violations:
        assert witness == p.down_closure(x & down_set(p, e))
        assert (e, witness) in cover_scan
    assert [e for e, _ in report.clp_violations] == sorted({e for e, _ in clp_scan})
    for e, witness in report.clp_violations:
        assert witness == q.down_closure(y & down_set(q, phi.mapping[e]))
        assert (e, witness) in clp_scan


def test_site_morphism_reports_match_the_cover_scan():
    triples = 0
    for p in SMALL:
        for q in SMALL:
            for phi in all_order_morphisms(p, q):
                for x in all_subsets(p.n):
                    for y in all_subsets(q.n):
                        check_site_morphism(phi, x, y)
                        triples += 1
    assert triples == 16804


@pytest.mark.parametrize("name", sorted(SUBCANONICITY_POSETS))
def test_subcanonicity_report_matches_the_cover_scan(name):
    p = SUBCANONICITY_POSETS[name]
    for x in all_subsets(p.n):
        j = subset_topology(p, x)
        assert subcanonicity_report(p, j) == subcanonicity_scan_oracle(p, j)


@st.composite
def relabelled_posets(draw):
    """A random order on 1 <= n <= 5 points whose index order need not be a
    linear extension."""
    n = draw(st.integers(min_value=1, max_value=5))
    perm = draw(st.permutations(range(n)))
    pairs = [
        (perm[i], perm[j]) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())
    ]
    return FinitePoset(n, pairs)


@st.composite
def site_maps(draw):
    """A monotone map between two random posets, with a subset of each."""
    p, q = draw(relabelled_posets()), draw(relabelled_posets())
    phi = draw(st.sampled_from(all_order_morphisms(p, q)))
    x = draw(st.frozensets(st.integers(min_value=0, max_value=p.n - 1)))
    y = draw(st.frozensets(st.integers(min_value=0, max_value=q.n - 1)))
    return phi, x, y


@settings(max_examples=100, deadline=None)
@given(site_maps())
def test_closed_forms_match_the_cover_scans_on_random_posets(case):
    phi, x, y = case
    check_site_morphism(phi, x, y)
    for p, s in ((phi.source, x), (phi.target, y)):
        j = subset_topology(p, s)
        assert subcanonicity_report(p, j) == subcanonicity_scan_oracle(p, j)


def test_subcanonicity_witness_enumerates_no_sieves(monkeypatch):
    """The top of fan(12) has 4097 sieves; the witness search lists none."""
    p = fan(12)
    topologies = [subset_topology(p, x) for x in ([], [0], [0, 1], range(12), [12])]
    expected = [subcanonicity_scan_oracle(p, j) for j in topologies]

    def refuse(*args):
        raise AssertionError("down-sets were enumerated")

    for module in (sites, poset_module):
        monkeypatch.setattr(module, "_downset_masks", refuse)
    assert [subcanonicity_report(p, j) for j in topologies] == expected
    assert [len(w) for w in expected] == [144, 122, 110, 0, 132]


def _check_without_listing_sieves(p, subsets, conversions=False):
    ident = OrderMorphism(p, p, tuple(range(p.n)))
    for x in subsets:
        j = subset_topology(p, x)
        k = subset_topology(p, frozenset(range(p.n)) - x)
        site_morphism_report(ident, j, k)
        is_site_isomorphism(ident, j, k)
        adjoint_transfer_consistent(ident, ident, j, k)
        subcanonicity_report(p, j)
        assert GrothTopology.from_json(j.to_json()) == j
        assert validate_topology(p, covers_of(j)) == j
        if conversions:
            assert topology_from_nucleus(nucleus_from_topology(j)) == j
            assert topology_from_congruence(congruence_from_topology(j)) == j
            assert topology_from_sublocale(sublocale_from_topology(j)) == j


def test_no_report_reads_the_cover_table(monkeypatch):
    """Listing, reading back, validating and enumerating J(X), and every
    report on it, grow covers from the least cover and list no sieve on p.
    The witnesses of ``is_sheaf`` walk the sieves from the least cover and
    list none at all; they are still read here, with the listing guarded."""
    p12 = fan(12)
    fan_subsets = [frozenset(x) for x in ([], [0], [0, 1], range(12), [12], range(13))]
    presheaves = {
        name: enumerate_presheaves(p, 2 if p.n <= 3 else 1, max_elements=4)
        for name, p in catalog().items()
    }
    witnesses = 0

    def grown_from_a_least_cover(listing):
        def guarded(poset, within, cap, *start):
            if not start:
                raise AssertionError("every sieve below an element was enumerated")
            return listing(poset, within, cap, *start)

        return guarded

    monkeypatch.setattr(sites, "_downset_masks", grown_from_a_least_cover(sites._downset_masks))
    for name, p in catalog().items():
        _check_without_listing_sieves(p, all_subsets(p.n), conversions=True)
        assert len(enumerate_all_topologies(p)) == 2**p.n
        assert verify_commuting_diagram(p).ok
        for x in all_subsets(p.n):
            j = subset_topology(p, x)
            for f in presheaves[name]:
                check = is_sheaf(f, j)
                assert (check.witness is None) == check.ok
                witnesses += not check.ok
    _check_without_listing_sieves(p12, fan_subsets)
    assert len(enumerate_all_topologies(p12, cap=13)) == 2**13
    assert witnesses > 0
