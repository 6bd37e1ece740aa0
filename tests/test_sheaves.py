"""Presheaves, matching families, sheaf conditions, and the equivalences."""

import gc
import hashlib
from itertools import permutations, product

import pytest
from conftest import (
    all_subsets,
    amalgamations,
    down_set,
    matching_violation,
    representable_is_sheaf,
    up_set,
)

from sitecalc import (
    CATALOG_NAMES,
    BasePointError,
    FunctorialityError,
    NotDenseError,
    NotDownwardsDirectedError,
    PosetMismatchError,
    Presheaf,
    TooLargeError,
    adjoin_zero,
    atomic_topology,
    catalog_poset,
    choose_base_point,
    comparison_check,
    derived_topology,
    discrete_topology,
    enumerate_all_topologies,
    enumerate_presheaves,
    extend_presheaf,
    indiscrete_topology,
    is_sheaf,
    kx_sheaf_equivalence_check,
    matching_families,
    natural_iso_exists,
    restrict_presheaf,
    subset_of_labels,
    subset_topology,
    topology_leq,
    yoneda_presheaf,
)
from sitecalc.sheaves import _restriction_index

CHAIN2 = catalog_poset("chain2")


def constant_presheaf(poset, size):
    maps = {}
    for q in range(poset.n):
        for p in up_set(poset, q) - {q}:
            maps[(q, p)] = tuple(range(size))
    return Presheaf(poset, (size,) * poset.n, maps)


def test_constant_presheaf_is_valid(catalog_pair):
    _, p = catalog_pair
    f = constant_presheaf(p, 2)
    assert f.sizes == (2,) * p.n


def test_two_point_chain_presheaf():
    f = Presheaf(CHAIN2, (1, 2), {(0, 1): (0, 0)})
    assert f.restriction(0, 1) == (0, 0)
    assert f.restriction(1, 1) == (0, 1)


def test_broken_composite_is_rejected():
    chain3 = catalog_poset("chain3")
    maps = {
        (0, 1): (0, 1),
        (1, 2): (0, 1),
        (0, 2): (1, 0),  # disagrees with the composite
    }
    with pytest.raises(FunctorialityError) as exc:
        Presheaf(chain3, (2, 2, 2), maps)
    assert (exc.value.r, exc.value.q, exc.value.p) == (0, 1, 2)


def test_presheaf_shape_errors():
    with pytest.raises(FunctorialityError):
        Presheaf(CHAIN2, (1, 2), {})  # missing restriction
    with pytest.raises(FunctorialityError):
        Presheaf(CHAIN2, (1, 2), {(0, 1): (0, 2)})  # value out of range


def amalgamated(presheaf, p, family):
    """The values at p that ``_restriction_index`` groups under a family,
    given as a dict over its cover."""
    elems = sorted(family)
    key = tuple(family[x] for x in elems)
    return tuple(_restriction_index(presheaf, p, elems).get(key, ()))


def test_amalgamation_of_maximal_cover():
    f = constant_presheaf(CHAIN2, 2)
    for a in range(2):
        family = {0: f.restriction(0, 1)[a], 1: a}
        assert amalgamated(f, 1, family) == amalgamations(f, 1, {0, 1}, family) == (a,)


def test_empty_cover_amalgamations():
    f = constant_presheaf(CHAIN2, 2)
    assert amalgamated(f, 1, {}) == amalgamations(f, 1, frozenset(), {}) == (0, 1)
    assert amalgamated(f, 1, {0: 0}) == amalgamations(f, 1, frozenset({0}), {0: 0}) == (0,)


def test_collapsing_restriction_amalgamations():
    f = Presheaf(CHAIN2, (1, 2), {(0, 1): (0, 0)})
    assert amalgamated(f, 1, {0: 0}) == amalgamations(f, 1, {0}, {0: 0}) == (0, 1)


def test_matching_families_are_deterministic():
    f = constant_presheaf(CHAIN2, 2)
    fams = list(matching_families(f, {0, 1}))
    assert fams == [{0: 0, 1: 0}, {0: 1, 1: 1}]


BAD_IDS = [-1, 5, 0.0, "a"]


@pytest.mark.parametrize("bad", BAD_IDS, ids=repr)
def test_matching_families_take_element_ids(bad):
    """The cover is checked when the function is called, before any family
    is asked for: -1 no longer indexes the last element."""
    f = constant_presheaf(CHAIN2, 2)
    with pytest.raises(PosetMismatchError) as exc:
        matching_families(f, {bad})
    assert exc.value.witness == {"id": repr(bad)}


@pytest.mark.parametrize("bad", BAD_IDS, ids=repr)
def test_restrict_presheaf_takes_element_ids(bad):
    f = constant_presheaf(CHAIN2, 2)
    with pytest.raises(PosetMismatchError) as exc:
        restrict_presheaf(f, [0, bad])
    assert exc.value.witness == {"id": repr(bad)}


def test_is_sheaf_needs_the_topologys_poset():
    with pytest.raises(PosetMismatchError) as exc:
        is_sheaf(constant_presheaf(CHAIN2, 2), indiscrete_topology(catalog_poset("V")))
    assert exc.value.to_json() == {
        "code": "PosetMismatchError",
        "message": "presheaf and topology live on different posets",
        "witness": None,
    }


@pytest.mark.parametrize("base, subset", [("point", {0, 1}), ("V", {0, 1, 2}), ("chain2", {1, 2})])
def test_extend_presheaf_needs_a_base_on_the_induced_subposet(base, subset):
    """A base on a poset of another size, of another order, or with other
    labels than the induced subposet of chain3 is a mismatch."""
    with pytest.raises(PosetMismatchError) as exc:
        extend_presheaf(constant_presheaf(catalog_poset(base), 2), catalog_poset("chain3"), subset)
    assert exc.value.to_json() == {
        "code": "PosetMismatchError",
        "message": "base presheaf is not on the induced subposet",
        "witness": None,
    }


@pytest.mark.parametrize("bad", BAD_IDS, ids=repr)
def test_extend_presheaf_takes_element_ids(bad):
    base = constant_presheaf(catalog_poset("point"), 2)
    with pytest.raises(PosetMismatchError) as exc:
        extend_presheaf(base, CHAIN2, {bad})
    assert exc.value.witness == {"id": repr(bad)}


def test_everything_is_a_sheaf_for_indiscrete(catalog_pair):
    _, p = catalog_pair
    if p.n > 3:
        return
    j = indiscrete_topology(p)
    for f in enumerate_presheaves(p, 2):
        assert is_sheaf(f, j).ok


def test_discrete_sheaves_are_singleton_valued(catalog_pair):
    _, p = catalog_pair
    if p.n > 3:
        return
    j = discrete_topology(p)
    for f in enumerate_presheaves(p, 2):
        assert is_sheaf(f, j).ok == all(s == 1 for s in f.sizes)


def test_atomic_sheaves_have_bijective_restrictions():
    for name in ("chain2", "chain3"):
        p = catalog_poset(name)
        j = atomic_topology(p)
        for f in enumerate_presheaves(p, 2):
            if is_sheaf(f, j).ok:
                for q in range(p.n):
                    for r in up_set(p, q) - {q}:
                        tab = f.restriction(q, r)
                        assert len(set(tab)) == f.sizes[r] == f.sizes[q]


def test_sheaf_witness_shape():
    j = discrete_topology(CHAIN2)
    check = is_sheaf(constant_presheaf(CHAIN2, 2), j)
    assert not check.ok
    assert check.witness["cover"] == []


def test_restriction_of_presheaves():
    f = constant_presheaf(catalog_poset("chain3"), 2)
    r = restrict_presheaf(f, {0, 2})
    assert r.sizes == (2, 2)
    assert r.restriction(0, 1) == (0, 1)
    full = restrict_presheaf(f, range(3))
    assert full == f
    single = restrict_presheaf(f, {0})
    assert single.sizes == (2,)


def test_extension_outside_the_cone_is_singleton():
    lam = catalog_poset("Lambda")
    xs = subset_of_labels(lam, ["y"])
    base = constant_presheaf(lam.induced(sorted(xs)), 2)
    ext = extend_presheaf(base, lam, xs)
    z = lam.index_of("z")
    assert ext.presheaf.sizes[z] == 1
    assert ext.support[z] == ()


def test_extension_along_everything_is_evaluation():
    for name in ("chain2", "V", "Lambda"):
        p = catalog_poset(name)
        full = frozenset(range(p.n))
        for base in enumerate_presheaves(p, 2):
            ext = extend_presheaf(base, p, full)
            assert ext.presheaf.sizes == base.sizes
            assert natural_iso_exists(ext.presheaf, base)


def test_extension_example_on_chain2():
    base = Presheaf(CHAIN2.induced([0]), (2,), {})
    ext = extend_presheaf(base, CHAIN2, {0})
    assert ext.presheaf.sizes == (2, 2)
    assert len(set(ext.presheaf.restriction(0, 1))) == 2


def test_enumerate_presheaf_counts():
    assert len(enumerate_presheaves(catalog_poset("point"), 1)) == 2
    assert len(enumerate_presheaves(CHAIN2, 0)) == 1
    assert len(enumerate_presheaves(CHAIN2, 1)) == 3


def test_enumerate_presheaves_matches_raw_filter_oracle():
    # oracle: assign every strict-pair map directly and filter functor laws
    from itertools import product

    chain3 = catalog_poset("chain3")
    count = 0
    for sizes in product(range(3), repeat=3):
        pairs = [(0, 1), (1, 2), (0, 2)]
        tables = [
            list(product(range(sizes[q]), repeat=sizes[p])) for q, p in pairs
        ]
        for combo in product(*tables):
            maps = dict(zip(pairs, combo))
            composite = tuple(maps[(0, 1)][maps[(1, 2)][a]] for a in range(sizes[2]))
            if composite == tuple(maps[(0, 2)]):
                count += 1
    assert count == len(enumerate_presheaves(chain3, 2))


def test_enumerate_presheaves_caps():
    with pytest.raises(TooLargeError):
        enumerate_presheaves(catalog_poset("diamond"), 2)
    with pytest.raises(TooLargeError):
        enumerate_presheaves(CHAIN2, 3)
    assert enumerate_presheaves(catalog_poset("diamond"), 1, max_elements=4)


# SHA-256 of each enumeration's (sizes, maps) list, recorded while the
# enumerator assigned edge maps through nested closures.
ENUMERATION_PINNED = {
    ("V", 2): "0a3fb0a4995e850bbf02215959422c3f48948fbf12c6fd32f54a960c2b2a2878",
    ("Lambda", 2): "5fe3e12206cc77cf74fb159fb79c97363720780f545bb6128f9a07dee861afee",
    ("chain3", 2): "8dbb55afbbd8e14ada6661639a370d210edfcebf9cfa2cd237dc75fe6b3966cd",
    ("diamond", 1): "dc58b3b47f81ea7a06063781c489fb11023fdb6d44ab26666e8106beba17fc39",
    # the inputs of the sheaf census and of kx, recorded before the
    # enumerator held its composed tables by slot
    ("V", 3): "dd4410fee8c3fc548636fccf7752f1877b42bf8b6345ef4cb513c23722153ef8",
    ("Lambda", 3): "01923832bf93893cceab9fe8a061d1483413c4fdb445952f5e0ce378b755ee89",
    ("chain3", 3): "fd9c4caafd4af7601ea8c7be645d26b061944bd10e1e5706ca323fa141d4d006",
    ("diamond", 2): "bec959de7494c07e4e8b4f6a43573a4f4e5ec23eb79da63158cb0727b43ba19a",
}


@pytest.mark.parametrize("name, cap", ENUMERATION_PINNED)
def test_enumerate_presheaves_order_is_pinned(name, cap):
    found = enumerate_presheaves(catalog_poset(name), cap, max_elements=4, max_value_cap=cap)
    text = repr([(f.sizes, sorted(f.maps.items())) for f in found])
    assert hashlib.sha256(text.encode()).hexdigest() == ENUMERATION_PINNED[(name, cap)]


def test_enumerate_presheaves_leaves_no_reference_cycles():
    gc.collect()
    gc.disable()
    try:
        enumerate_presheaves(catalog_poset("V"), 2)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_sheaf_witnesses_leave_no_reference_cycles():
    v = catalog_poset("V")
    j = subset_topology(v, {0})
    presheaves = enumerate_presheaves(v, 2)
    gc.collect()
    gc.disable()
    try:
        witnesses = [is_sheaf(f, j).witness for f in presheaves]
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert any(w is not None for w in witnesses)


def test_natural_iso_search_leaves_no_reference_cycles():
    presheaves = enumerate_presheaves(catalog_poset("V"), 2)
    gc.collect()
    gc.disable()
    try:
        found = [natural_iso_exists(f, g) for f in presheaves for g in presheaves[:8]]
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert any(found) and not all(found)


def test_kx_report_leaves_no_reference_cycles():
    diamond = catalog_poset("diamond")
    gc.collect()
    gc.disable()
    try:
        report = kx_sheaf_equivalence_check(diamond, {1, 2})
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert report.ok


def test_comparison_reports_leave_no_reference_cycles():
    """Every subset D of the catalog posets with n <= 4, under every J(X)
    with X inside D, for which D is dense."""
    cases = [
        (p, d, subset_topology(p, x))
        for p in map(catalog_poset, CATALOG_NAMES)
        if p.n <= 4
        for d in all_subsets(p.n)
        for x in all_subsets(p.n)
        if x <= d
    ]
    gc.collect()
    gc.disable()
    try:
        reports = [comparison_check(p, d, j) for p, d, j in cases]
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert all(report.ok for report in reports)


@pytest.mark.parametrize("read", [False, True], ids=["witnesses-unread", "witnesses-read"])
def test_census_verdicts_leave_no_reference_cycles(read):
    """A failed check holds its presheaf, topology and first failing element
    until the witness is read; dropping it unread, or after the read, frees
    everything."""
    cases = []
    for name in ("V", "Lambda", "chain3"):
        p = catalog_poset(name)
        presheaves = enumerate_presheaves(p, 3, max_elements=p.n, max_value_cap=3)
        cases += [(presheaves, subset_topology(p, x)) for x in all_subsets(p.n)]
    gc.collect()
    gc.disable()
    try:
        verdicts = failed = 0
        for presheaves, topology in cases:
            for f in presheaves:
                check = is_sheaf(f, topology)
                verdicts += check.ok
                failed += read and check.witness is not None
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert verdicts and (failed or not read)


def test_yoneda_examples():
    top = yoneda_presheaf(CHAIN2, 1)
    assert top.sizes == (1, 1)
    bottom = yoneda_presheaf(CHAIN2, 0)
    assert bottom.sizes == (1, 0)


def test_yoneda_matches_representable_criterion():
    from sitecalc import catalog

    for name, p in catalog().items():
        for j in enumerate_all_topologies(p):
            for q in range(p.n):
                assert is_sheaf(yoneda_presheaf(p, q), j).ok == representable_is_sheaf(
                    p, j, q
                ), name


def test_sheaf_sets_shrink_as_topologies_grow():
    for name in ("chain2", "antichain2", "chain3", "antichain3", "V", "Lambda"):
        p = catalog_poset(name)
        presheaves = enumerate_presheaves(p, 2)
        tops = enumerate_all_topologies(p)
        sheaves = {
            t: {i for i, f in enumerate(presheaves) if is_sheaf(f, t).ok} for t in tops
        }
        for j in tops:
            for k in tops:
                if topology_leq(j, k):
                    assert sheaves[k] <= sheaves[j]


def test_extension_is_a_sheaf_on_big_catalog_posets():
    # the small-poset sweep lives in the acceptance suite; the four-element
    # posets are covered here at value cap 1
    for name in ("chain4", "diamond"):
        p = catalog_poset(name)
        for x in all_subsets(p.n):
            j = subset_topology(p, x)
            sub = p.induced(sorted(x))
            for base in enumerate_presheaves(sub, 1, max_elements=4):
                ext = extend_presheaf(base, p, x)
                assert is_sheaf(ext.presheaf, j).ok, (name, x, base.sizes)


def test_restriction_of_a_sheaf_satisfies_the_induced_condition():
    from sitecalc import restrict_topology

    for name in ("chain3", "V", "Lambda"):
        p = catalog_poset(name)
        for x in all_subsets(p.n):
            j = subset_topology(p, x)
            induced = restrict_topology(p, j, x)
            for f in enumerate_presheaves(p, 2):
                if is_sheaf(f, j).ok:
                    assert is_sheaf(restrict_presheaf(f, x), induced).ok


def test_derived_sheaves_match_bottomed_subset_topology():
    for name in ("chain2", "chain3", "Lambda"):
        p = catalog_poset(name)
        bottom = p.least_element()
        for x in all_subsets(p.n):
            kx = derived_topology(p, x)
            jx0 = subset_topology(p, x | {bottom})
            assert kx == jx0
            for f in enumerate_presheaves(p, 1):
                assert is_sheaf(f, kx).ok == is_sheaf(f, jx0).ok


def test_amalgamation_recipe_matches_direct_search():
    # extend a family over the generating cut to its full sieve, amalgamate,
    # and compare with the search over all values
    for name in ("chain3", "V", "Lambda"):
        p = catalog_poset(name)
        for x in all_subsets(p.n):
            j = subset_topology(p, x)
            for f in enumerate_presheaves(p, 2):
                if not is_sheaf(f, j).ok:
                    continue
                for q in range(p.n):
                    cut = sorted(x & down_set(p, q))
                    sieve = p.down_closure(cut)
                    for fam in matching_families(f, cut):
                        extended = {
                            z: f.restriction(z, next(c for c in cut if p.leq(z, c)))[
                                fam[next(c for c in cut if p.leq(z, c))]
                            ]
                            for z in sieve
                        }
                        assert matching_violation(f, sieve, extended) is None
                        via_recipe = amalgamated(f, q, extended)
                        direct = tuple(
                            a
                            for a in range(f.sizes[q])
                            if all(f.restriction(c, q)[a] == fam[c] for c in cut)
                        )
                        assert via_recipe == amalgamations(f, q, sieve, extended) == direct


def test_comparison_check_requires_denseness():
    with pytest.raises(NotDenseError):
        comparison_check(CHAIN2, frozenset({0}), indiscrete_topology(CHAIN2))


def test_comparison_check_on_subset_topologies():
    for name in ("chain2", "V"):
        p = catalog_poset(name)
        for x in all_subsets(p.n):
            report = comparison_check(p, x, subset_topology(p, x))
            assert report.ok
            assert all(r.base_is_sheaf for r in report.records)
            assert all(r.extension_is_sheaf for r in report.records)


def test_comparison_check_with_strictly_larger_topology():
    # the subset stays dense for any larger topology; only induced sheaves
    # are promised to extend
    p = catalog_poset("chain3")
    x = frozenset({0, 1})
    j = subset_topology(p, {0})
    report = comparison_check(p, x, j)
    assert report.ok
    assert any(not r.base_is_sheaf for r in report.records)


def test_adjoin_zero():
    p0 = adjoin_zero(catalog_poset("V"))
    assert p0.n == 4
    assert p0.least_element() == 3
    assert p0.labels[3] == "0"
    chain2_0 = adjoin_zero(CHAIN2)
    assert chain2_0.labels[2] == "bot"
    assert chain2_0.least_element() == 2


def test_choose_base_point():
    lam = catalog_poset("Lambda")
    assert choose_base_point(lam, subset_of_labels(lam, ["y"])) == lam.index_of("x")
    with pytest.raises(BasePointError):
        choose_base_point(lam, subset_of_labels(lam, ["x"]))


def test_kx_equivalence_on_chain2_without_generators():
    report = kx_sheaf_equivalence_check(CHAIN2, frozenset())
    assert report.ok
    assert not report.reduced_to_subset_case
    assert report.base_point == 0
    # one-point value census: sheaves are constant up to isomorphism
    assert report.sheaf_classes == report.transported_classes
    for f in enumerate_presheaves(CHAIN2, 2):
        if is_sheaf(f, derived_topology(CHAIN2, frozenset())).ok:
            assert len(set(f.restriction(0, 1))) == f.sizes[1] == f.sizes[0]


def test_kx_equivalence_reduces_when_cone_covers():
    report = kx_sheaf_equivalence_check(CHAIN2, frozenset({0}))
    assert report.ok
    assert report.reduced_to_subset_case
    assert report.base_point is None


def test_kx_equivalence_on_wedge():
    lam = catalog_poset("Lambda")
    report = kx_sheaf_equivalence_check(lam, subset_of_labels(lam, ["y"]))
    assert report.ok
    assert report.base_point == lam.index_of("x")
    assert report.sheaf_classes == report.transported_classes


def test_comparison_check_on_diamond_antichain_subset():
    d = catalog_poset("diamond")
    x = subset_of_labels(d, ["a", "b"])
    report = comparison_check(d, x, subset_topology(d, x))
    assert report.ok
    assert all(r.extension_is_sheaf for r in report.records)


def test_kx_equivalence_on_diamond():
    # the subset cone misses the bottom and one middle element, so the
    # equivalence routes through the freely adjoined bottom
    d = catalog_poset("diamond")
    report = kx_sheaf_equivalence_check(d, subset_of_labels(d, ["a"]), value_cap=2)
    assert report.ok
    assert not report.reduced_to_subset_case
    assert report.base_point == d.index_of("0")
    # presheaf classes on the two-point target, sizes <= 2, counted by hand
    assert report.sheaf_classes == report.transported_classes == 8
    assert report.covered_classes == 8 and report.cap_skipped_classes == 0


def test_kx_equivalence_needs_directedness():
    with pytest.raises(NotDownwardsDirectedError):
        kx_sheaf_equivalence_check(catalog_poset("V"), frozenset())
    # the wedge with its least element removed is a bare antichain
    lam = catalog_poset("Lambda")
    pruned = lam.induced(sorted(subset_of_labels(lam, ["y", "z"])))
    with pytest.raises(NotDownwardsDirectedError):
        kx_sheaf_equivalence_check(pruned, frozenset())


def _isomorphisms(f, g):
    """Every componentwise bijection f -> g commuting with restrictions."""
    poset = f.poset
    found = []
    for comps in product(*(permutations(range(m)) for m in f.sizes)):
        if all(
            g.restriction(q, p)[comps[p][a]] == comps[q][f.restriction(q, p)[a]]
            for q in range(poset.n)
            for p in range(poset.n)
            if poset.lt(q, p)
            for a in range(f.sizes[p])
        ):
            found.append(comps)
    return found


def test_natural_iso_search():
    f = Presheaf(CHAIN2, (2, 2), {(0, 1): (0, 1)})
    g = Presheaf(CHAIN2, (2, 2), {(0, 1): (1, 0)})
    h = Presheaf(CHAIN2, (2, 2), {(0, 1): (0, 0)})
    assert natural_iso_exists(f, g)
    assert not natural_iso_exists(f, h)
    # On V (y, z < x) a presheaf is a bipartite multigraph: the values at x
    # are edges between the values at y and at z.  This one is a 3-edge path
    # b0-c0-b1-c1, an edge b2-c2 and isolated b3, c3: it has no automorphism
    # but the identity, so the only isomorphism onto its relabelling by
    # sigma is sigma itself.
    v = catalog_poset("V")
    x, y, z = (v.index_of(s) for s in "xyz")
    ry, rz = (0, 1, 1, 2), (0, 0, 1, 2)
    f = Presheaf(v, (4, 4, 4), {(y, x): ry, (z, x): rz})
    sigma = {x: (1, 2, 3, 0), y: (3, 0, 2, 1), z: (2, 3, 1, 0)}

    def relabel(r, low):
        out = [0] * 4
        for a in range(4):
            out[sigma[x][a]] = sigma[low][r[a]]
        return tuple(out)

    g = Presheaf(v, (4, 4, 4), {(y, x): relabel(ry, y), (z, x): relabel(rz, z)})
    assert _isomorphisms(f, g) == [tuple(sigma[p] for p in range(v.n))]
    assert natural_iso_exists(f, g) and natural_iso_exists(g, f)
    # a star b1-{c0, c1, c2} with a pendant edge b0-c0 is not the same graph
    h = Presheaf(v, (4, 4, 4), {(y, x): (0, 1, 1, 1), (z, x): rz})
    assert _isomorphisms(f, h) == []
    assert not natural_iso_exists(f, h)


def test_presheaf_json_round_trip():
    f = Presheaf(CHAIN2, (1, 2), {(0, 1): (0, 0)})
    assert Presheaf.from_json(f.to_json()) == f
