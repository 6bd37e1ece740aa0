"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything is exhaustive and exact at desk scale; the stated time budgets
are asserted, not assumed.  Run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines.
"""

import time

from conftest import (
    all_subsets,
    brute_downsets,
    census_oracle,
    covers_of,
    double_negation,
    down_set,
    frame_downsets,
    representable_is_sheaf,
    sieves_on,
    subset_covers_oracle,
    subset_subcanonicity_witnesses,
)

from sitecalc import (
    AxiomViolation,
    Congruence,
    NotASublocaleError,
    Nucleus,
    Sublocale,
    all_order_isomorphisms,
    all_order_morphisms,
    catalog,
    catalog_poset,
    congruence_from_topology,
    dense_topology,
    derived_topology,
    enumerate_all_topologies,
    enumerate_downsets,
    heyting_implication,
    is_sheaf,
    is_site_isomorphism,
    is_subcanonical,
    lx_topology,
    nucleus_from_topology,
    parse_poset,
    restrict_topology,
    site_morphism_report,
    subset_forms,
    subset_of_labels,
    subset_topology,
    topology_from_nucleus,
    validate_topology,
    verify_commuting_diagram,
    yoneda_presheaf,
)
from sitecalc.sheaves import comparison_check

CATALOG = catalog()


def test_criterion_1_all_topologies_are_subset_generated():
    started = time.monotonic()
    expected_counts = {"chain2": 4, "V": 8, "diamond": 16}
    for name, poset in CATALOG.items():
        assert poset.n <= 4
        found = enumerate_all_topologies(poset)
        assert len(found) == 2**poset.n, name
        assert found == census_oracle(poset), name
        for t in found:
            assert list(covers_of(t)) == subset_covers_oracle(poset, t.subset), name
        if name in expected_counts:
            assert len(found) == expected_counts[name]
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 1 PASS: the topology census, one J(X) per subset, equals "
        f"the filter scan on all {len(CATALOG)} catalog posets ({elapsed:.2f}s)"
    )


def test_criterion_2_conversion_diagram_commutes():
    started = time.monotonic()
    total = 0
    for name, poset in CATALOG.items():
        report = verify_commuting_diagram(poset)
        assert report.ok, (name, report.failures)
        total += report.topology_count
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 2 PASS: all conversion round trips and triangle composites "
        f"agree on {total} topologies ({elapsed:.2f}s)"
    )


def test_criterion_3_heyting_adjunction():
    checked = 0
    for name, poset in CATALOG.items():
        assert poset.n <= 5
        downsets = brute_downsets(poset)
        for x in all_subsets(poset.n):
            for y in all_subsets(poset.n):
                imp = heyting_implication(poset, x, y)
                for a in downsets:
                    assert (a & x <= y) == (a <= imp), (name, a, x, y)
                    checked += 1
    print(f"\nACCEPTANCE 3 PASS: implication adjunction on {checked} triples")


def test_criterion_4_subcanonicity_example():
    lam = catalog_poset("Lambda")
    good = subset_of_labels(lam, ["y", "z"])
    assert subset_subcanonicity_witnesses(lam, good) == ()
    assert is_subcanonical(lam, subset_topology(lam, good))
    assert all(
        is_sheaf(yoneda_presheaf(lam, p), subset_topology(lam, good)).ok
        for p in range(lam.n)
    )
    bad = subset_of_labels(lam, ["y"])
    witnesses = subset_subcanonicity_witnesses(lam, bad)
    assert witnesses, "the one-generator topology must fail"
    p, value = witnesses[0]
    assert lam.labels[p] == "x"
    assert value == down_set(lam, lam.index_of("z")) == frozenset(
        {lam.index_of("x"), lam.index_of("z")}
    )
    j_bad = subset_topology(lam, bad)
    assert not is_subcanonical(lam, j_bad)
    assert not representable_is_sheaf(lam, j_bad, lam.index_of("x"))
    assert not is_sheaf(yoneda_presheaf(lam, lam.index_of("x")), j_bad).ok
    print(
        "\nACCEPTANCE 4 PASS: two-generator topology subcanonical; "
        "one-generator fails with the printed implication witness"
    )


def test_criterion_5_comparison_lemma():
    started = time.monotonic()
    components = 0
    for name, poset in CATALOG.items():
        if poset.n > 3:
            continue
        for x in all_subsets(poset.n):
            report = comparison_check(poset, x, subset_topology(poset, x))
            for record in report.records:
                assert record.base_is_sheaf, (name, x, record)
                assert record.extension_is_sheaf, (name, x, record)
                assert record.counit_bijective and record.counit_natural, (name, x)
                assert record.unit_bijective and record.unit_natural, (name, x)
            components += len(report.records)
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    print(
        f"\nACCEPTANCE 5 PASS: extension sheaves plus natural unit/counit "
        f"bijections for {components} presheaves ({elapsed:.2f}s)"
    )


def test_criterion_6_derived_topology_identities():
    directed_checked = 0
    for name, poset in CATALOG.items():
        if poset.is_downwards_directed() and poset.least_element() is not None:
            bottom = poset.least_element()
            for x in all_subsets(poset.n):
                assert derived_topology(poset, x) == subset_topology(
                    poset, x | {bottom}
                ), (name, x)
                directed_checked += 1
        for x in all_subsets(poset.n):
            assert lx_topology(poset, x) == subset_topology(
                poset, poset.minimal_elements(x)
            ), (name, x)
            restricted = restrict_topology(poset, lx_topology(poset, x), x)
            assert restricted == dense_topology(poset.induced(sorted(x))), (name, x)
    print(
        f"\nACCEPTANCE 6 PASS: derived topologies absorb the least element "
        f"({directed_checked} cases); extension-of-dense identities hold everywhere"
    )


def test_criterion_7_dense_is_double_negation():
    for name, poset in CATALOG.items():
        dense = dense_topology(poset)
        assert dense == subset_topology(poset, poset.minimal_elements()), name
        frame = enumerate_downsets(poset)
        table = [frame.id_of(double_negation(poset, d)) for d in frame_downsets(frame)]
        nucleus = Nucleus(frame, table)  # validated as input from outside
        assert nucleus.subset == poset.minimal_elements(), name
        assert nucleus == nucleus_from_topology(dense), name
        assert topology_from_nucleus(nucleus) == dense, name
    print(
        "\nACCEPTANCE 7 PASS: the frozenset double-negation table, validated as "
        "a nucleus, and the minimal-element topology both give the dense topology"
    )


def test_criterion_8_generating_subset_extraction():
    for name, poset in CATALOG.items():
        frame = enumerate_downsets(poset)
        for x in all_subsets(poset.n):
            forms = subset_forms(poset, x)
            assert Congruence(frame, forms.congruence.classes).subset == x, (name, x)
        for topology in enumerate_all_topologies(poset):
            cong = congruence_from_topology(topology)
            outside = Congruence(frame, cong.classes)  # validated as input from outside
            rebuilt = subset_forms(poset, outside.subset).congruence
            assert outside == rebuilt == cong, name
    print(
        "\nACCEPTANCE 8 PASS: the subset read off the classes of every subset "
        "congruence, given as input, generates that congruence"
    )


def test_criterion_9_counterexample_regressions():
    v = catalog_poset("V")
    nonempty = [
        frozenset(s for s in sieves_on(v, q) if s) for q in range(v.n)
    ]
    try:
        validate_topology(v, nonempty)
        raise AssertionError("atomic candidate must fail on the two-prong poset")
    except AxiomViolation as err:
        assert err.axiom == "stability"
        assert v.labels[err.p] == "x"
        assert err.sieve == subset_of_labels(v, ["y"])
        assert v.labels[err.q] == "z"

    forked = parse_poset("elements: x y1 y2 / le: y1 x / le: y2 x")
    xset = subset_of_labels(forked, ["y1"])
    jx = subset_topology(forked, xset)
    dense = dense_topology(forked)
    upx = forked.up_closure(xset)
    hybrid = [
        covers_of(jx)[q] if q in upx else covers_of(dense)[q] for q in range(forked.n)
    ]
    try:
        validate_topology(forked, hybrid)
        raise AssertionError("the subset/dense hybrid must fail")
    except AxiomViolation as err:
        assert err.axiom == "stability"
        assert forked.labels[err.p] == "x"
        assert err.sieve == subset_of_labels(forked, ["y1"])
        assert forked.labels[err.q] == "y2"
        assert err.other == frozenset()

    frame = enumerate_downsets(v)
    try:
        Sublocale(frame, [frame.bottom_id, frame.top_id])
        raise AssertionError("the two-point candidate must fail")
    except NotASublocaleError as err:
        assert err.a == frozenset({v.index_of("z")})
        assert err.m == frozenset()
        assert err.result == frozenset({v.index_of("y")})
    print(
        "\nACCEPTANCE 9 PASS: stability and sublocale counterexamples "
        "reproduce with their exact witnesses"
    )


def test_criterion_10_site_morphism_characterizations():
    started = time.monotonic()
    iso_checked = 0
    clp_checked = 0
    posets = list(CATALOG.items())
    for name_p, p in posets:
        for name_q, q in posets:
            if p.n != q.n:
                continue
            jp = {x: subset_topology(p, x) for x in all_subsets(p.n)}
            jq = {y: subset_topology(q, y) for y in all_subsets(q.n)}
            for phi in all_order_isomorphisms(p, q):
                for x, jx in jp.items():
                    image = phi.image_of(x)
                    for y, jy in jq.items():
                        assert is_site_isomorphism(phi, jx, jy) == (image == y)
                        assert site_morphism_report(phi, jx, jy).preserves_covers == (
                            y <= image
                        )
                        iso_checked += 1
            for phi in all_order_morphisms(p, q):
                for x, jx in jp.items():
                    image = phi.image_of(x)
                    for y, jy in jq.items():
                        assert site_morphism_report(phi, jx, jy).has_clp == (image <= y), (
                            name_p,
                            name_q,
                            phi.mapping,
                            x,
                            y,
                        )
                        clp_checked += 1
    elapsed = time.monotonic() - started
    print(
        f"\nACCEPTANCE 10 PASS: site-isomorphism and lifting characterizations "
        f"on {iso_checked} iso and {clp_checked} morphism cases ({elapsed:.2f}s)"
    )
