"""Site morphisms, the covering lifting property, and subcanonicity."""

import pytest
from conftest import (
    LADDER,
    all_subsets,
    down_set,
    grid,
    representable_is_sheaf,
    subset_subcanonicity_witnesses,
)

from sitecalc import (
    FinitePoset,
    NotOrderIsomorphismError,
    NotOrderMorphismError,
    OrderMorphism,
    PosetMismatchError,
    adjoint_transfer_consistent,
    all_order_isomorphisms,
    all_order_morphisms,
    canonical_subset_report,
    catalog,
    catalog_poset,
    derived_topology,
    indiscrete_topology,
    is_site_isomorphism,
    is_subcanonical,
    site_morphism_report,
    subcanonicity_report,
    subset_of_labels,
    subset_topology,
)

ORACLE_POSETS = {**catalog(), **LADDER, "grid3x3": grid(3, 3)}


def test_identity_is_site_isomorphism(catalog_pair):
    _, p = catalog_pair
    ident = OrderMorphism(p, p, tuple(range(p.n)))
    for x in all_subsets(p.n):
        j = subset_topology(p, x)
        assert is_site_isomorphism(ident, j, j)


def test_swap_on_antichain_is_site_isomorphism():
    anti = catalog_poset("antichain2")
    swap = OrderMorphism(anti, anti, (1, 0))
    j0 = subset_topology(anti, {0})
    j1 = subset_topology(anti, {1})
    assert is_site_isomorphism(swap, j0, j1)
    assert not is_site_isomorphism(swap, j0, j0)


def test_site_isomorphism_requires_an_order_isomorphism():
    chain2 = catalog_poset("chain2")
    collapse = OrderMorphism(chain2, chain2, (0, 0))
    with pytest.raises(NotOrderIsomorphismError):
        is_site_isomorphism(collapse, indiscrete_topology(chain2), indiscrete_topology(chain2))


def test_inclusion_has_clp():
    point = catalog_poset("point")
    chain2 = catalog_poset("chain2")
    inc = OrderMorphism(point, chain2, (0,))
    j_src = subset_topology(point, {0})
    j_tgt = subset_topology(chain2, {0})
    report = site_morphism_report(inc, j_src, j_tgt)
    assert report.has_clp
    assert report.clp_violations == ()


def test_clp_characterization_small():
    p = catalog_poset("V")
    q = catalog_poset("Lambda")
    for phi in all_order_morphisms(p, q):
        for x in all_subsets(p.n):
            for y in all_subsets(q.n):
                report = site_morphism_report(phi, subset_topology(p, x), subset_topology(q, y))
                assert report.has_clp == (phi.image_of(x) <= y)


def test_cover_preservation_characterization_for_isomorphisms():
    p = catalog_poset("antichain3")
    for phi in all_order_isomorphisms(p, p):
        for x in all_subsets(p.n):
            for y in all_subsets(p.n):
                report = site_morphism_report(phi, subset_topology(p, x), subset_topology(p, y))
                assert report.preserves_covers == (y <= phi.image_of(x))


def test_report_flags_match_witnesses():
    chain2 = catalog_poset("chain2")
    ident = OrderMorphism(chain2, chain2, (0, 1))
    report = site_morphism_report(
        ident, subset_topology(chain2, {1}), subset_topology(chain2, {0})
    )
    assert not report.preserves_covers and report.cover_violations
    assert report.has_clp == (not report.clp_violations)


def test_adjoint_transfer_constant_pair():
    chain2 = catalog_poset("chain2")
    point = catalog_poset("point")
    # bottom inclusion below, constant map above: an adjoint pair
    pi = OrderMorphism(point, chain2, (0,))
    phi = OrderMorphism(chain2, point, (0, 0))
    for x in all_subsets(chain2.n):
        for y in all_subsets(point.n):
            j = subset_topology(chain2, x)
            k = subset_topology(point, y)
            assert adjoint_transfer_consistent(phi, pi, j, k)


def test_adjoint_transfer_truncation_pair():
    chain2 = catalog_poset("chain2")
    chain3 = catalog_poset("chain3")
    pi = OrderMorphism(chain2, chain3, (0, 1))
    phi = OrderMorphism(chain3, chain2, (0, 1, 1))
    for x in all_subsets(chain3.n):
        for y in all_subsets(chain2.n):
            j = subset_topology(chain3, x)
            k = subset_topology(chain2, y)
            assert adjoint_transfer_consistent(phi, pi, j, k)


def test_adjoint_transfer_rejects_non_adjoint_pairs():
    chain2 = catalog_poset("chain2")
    top = OrderMorphism(chain2, chain2, (1, 1))
    ident = OrderMorphism(chain2, chain2, (0, 1))
    with pytest.raises(PosetMismatchError):
        adjoint_transfer_consistent(top, top, indiscrete_topology(chain2), indiscrete_topology(chain2))
    with pytest.raises(PosetMismatchError):
        adjoint_transfer_consistent(
            ident,
            OrderMorphism(chain2, catalog_poset("point"), (0, 0)),
            indiscrete_topology(chain2),
            indiscrete_topology(chain2),
        )


def test_site_morphism_report_needs_the_sites_posets():
    """Either end of the morphism off its site's poset is a mismatch."""
    chain2, v = catalog_poset("chain2"), catalog_poset("V")
    ident = OrderMorphism(chain2, chain2, (0, 1))
    for j, k in (
        (indiscrete_topology(v), indiscrete_topology(chain2)),
        (indiscrete_topology(chain2), indiscrete_topology(v)),
    ):
        with pytest.raises(PosetMismatchError) as exc:
            site_morphism_report(ident, j, k)
        assert exc.value.to_json() == {
            "code": "PosetMismatchError",
            "message": "morphism endpoints do not match the sites",
            "witness": None,
        }


# -- subcanonicity ---------------------------------------------------------


def test_wedge_subcanonicity_example():
    lam = catalog_poset("Lambda")
    good = subset_topology(lam, subset_of_labels(lam, ["y", "z"]))
    assert is_subcanonical(lam, good)
    assert subcanonicity_report(lam, good) == ()
    bad_subset = subset_of_labels(lam, ["y"])
    bad = subset_topology(lam, bad_subset)
    assert not is_subcanonical(lam, bad)
    witnesses = subset_subcanonicity_witnesses(lam, bad_subset)
    p, value = witnesses[0]
    assert lam.labels[p] == "x"
    assert value == down_set(lam, lam.index_of("z"))


def test_indiscrete_is_subcanonical(catalog_pair):
    _, p = catalog_pair
    assert is_subcanonical(p, indiscrete_topology(p))


@pytest.mark.parametrize("name", sorted(ORACLE_POSETS))
def test_heyting_criterion_matches_representables(name):
    p = ORACLE_POSETS[name]
    least = canonical_subset_report(p).subset
    for x in all_subsets(p.n):
        witnesses = {q for q, _ in subset_subcanonicity_witnesses(p, x)}
        j = subset_topology(p, x)
        for q in range(p.n):
            assert representable_is_sheaf(p, j, q) == (q not in witnesses)
        assert {q for q, _, _ in subcanonicity_report(p, j)} == witnesses
        assert is_subcanonical(p, j) == (not witnesses) == (least <= x)
        if p.is_downwards_directed():
            k = derived_topology(p, x)
            for q in range(p.n):
                assert representable_is_sheaf(p, k, q) == (q not in witnesses)


def test_subcanonicity_needs_a_topology_on_the_poset():
    with pytest.raises(PosetMismatchError):
        is_subcanonical(catalog_poset("V"), indiscrete_topology(catalog_poset("Lambda")))


def test_canonical_subset_search():
    lam = catalog_poset("Lambda")
    report = canonical_subset_report(lam)
    assert report.unique
    assert report.subset == subset_of_labels(lam, ["y", "z"])
    chain2 = catalog_poset("chain2")
    report = canonical_subset_report(chain2)
    assert report.unique and report.subset == frozenset({1})
    for name, p in ORACLE_POSETS.items():
        rep = canonical_subset_report(p)
        for x in rep.minimal_subsets:
            assert not subset_subcanonicity_witnesses(p, x), name
            for drop in x:
                assert subset_subcanonicity_witnesses(p, x - {drop}), name


def test_monotonicity_witness_is_the_first_failing_pair():
    """On 0 < 1 < 2 sent to a < a < b in an antichain, the Hasse edge 1 <= 2
    holds its images apart too, but the first failing pair, x ascending and
    then y ascending, is 0 <= 2."""
    chain3 = catalog_poset("chain3")
    with pytest.raises(NotOrderMorphismError) as exc:
        OrderMorphism(chain3, FinitePoset(["a", "b"]), (0, 0, 1))
    assert exc.value.witness == {"x": "0", "y": "2"}
