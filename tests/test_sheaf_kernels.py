"""The matching-family kernel, the Ran_X families, the natural-isomorphism
search and the class labels of `sitecalc.sheaves`, against oracles that
share none of their code."""

from functools import cache

import pytest
from conftest import (
    LADDER,
    all_subsets,
    down_set,
    iso_orbit,
    matching_families_oracle,
    natural_iso_oracle,
    ran_oracle,
)

from sitecalc import (
    CATALOG_NAMES,
    FinitePoset,
    Presheaf,
    adjoin_zero,
    catalog,
    derived_topology,
    enumerate_presheaves,
    extend_presheaf,
    is_sheaf,
    kx_sheaf_equivalence_check,
    matching_families,
    natural_iso_exists,
)
from sitecalc.poset import _bits
from sitecalc.sheaves import _iso_classes, _matching_tuples

SMALL = [name for name in CATALOG_NAMES if catalog()[name].n <= 3]
# (catalog name, value cap) of every presheaf list the iso checks run on
ISO_LISTS = [(name, 2) for name in SMALL] + [("chain2", 3), ("V", 3)]


def assert_kernel_matches_the_oracle(presheaf, elems) -> list[dict[int, int]]:
    """The kernel's tuples are the oracle's families in the oracle's order,
    which the oracle returns."""
    expected = list(matching_families_oracle(presheaf, elems, 0, {}))
    assert list(_matching_tuples(presheaf, elems)) == [tuple(fam.values()) for fam in expected]
    return expected


@pytest.mark.parametrize("name", [*CATALOG_NAMES, *LADDER])
def test_matching_tuples_match_the_oracle_on_every_member_set(name):
    """Every member set, not only cuts and sieves, at value cap 2, and at
    cap 3 for n <= 3; on the catalog, the public dicts too."""
    p = {**catalog(), **LADDER}[name]
    for cap in (2, 3) if p.n <= 3 else (2,):
        for f in enumerate_presheaves(p, cap, max_elements=p.n, max_value_cap=cap):
            for mask in range(1 << p.n):
                expected = assert_kernel_matches_the_oracle(f, _bits(mask))
                if name in CATALOG_NAMES:
                    assert list(matching_families(f, _bits(mask))) == expected


def test_cover_pair_off_the_hasse_edges_is_checked():
    """On chain3 the members {0, 2} form a cover pair of the member set
    that is no Hasse edge of the poset: F(0 <= 2) swaps, so two of the four
    tuples match."""
    chain3 = catalog()["chain3"]
    f = Presheaf(chain3, (2, 2, 2), {(0, 1): (1, 0), (1, 2): (0, 1), (0, 2): (1, 0)})
    assert list(_matching_tuples(f, [0, 2])) == [(0, 1), (1, 0)]
    assert_kernel_matches_the_oracle(f, [0, 2])


def test_every_upper_cover_of_a_member_is_checked():
    """The bowtie c, d < a, b with identity tables except F(d <= b), which
    swaps: d must equal a and differ from b, which both equal c, so no
    family exists; a kernel that skips d < b finds two."""
    bowtie = FinitePoset(["a", "b", "c", "d"], [(2, 0), (2, 1), (3, 0), (3, 1)])
    identity = (0, 1)
    f = Presheaf(
        bowtie, (2, 2, 2, 2),
        {(2, 0): identity, (2, 1): identity, (3, 0): identity, (3, 1): (1, 0)},
    )
    assert list(_matching_tuples(f, [0, 1, 2, 3])) == []
    assert_kernel_matches_the_oracle(f, [0, 1, 2, 3])


@cache
def presheaves(name: str, cap: int) -> list:
    p = catalog()[name]
    return enumerate_presheaves(p, cap, max_elements=p.n, max_value_cap=cap)


@cache
def oracle_classes(name: str, cap: int) -> list[int]:
    """Per presheaf, the index of the first one naturally isomorphic to it."""
    first: dict = {}
    return [
        first.setdefault((f.sizes, min(iso_orbit(f))), i)
        for i, f in enumerate(presheaves(name, cap))
    ]


@pytest.mark.parametrize("name", [n for n in CATALOG_NAMES if catalog()[n].n <= 4])
def test_ran_families_and_maps_match_the_raw_product(name):
    p = catalog()[name]
    for xs in all_subsets(p.n):
        sub = p.induced(sorted(xs))
        for base in enumerate_presheaves(sub, 2, max_elements=sub.n):
            ext = extend_presheaf(base, p, xs)
            support, families, maps = ran_oracle(base, p, xs)
            assert ext.support == support
            assert ext.families == families
            assert ext.presheaf.sizes == tuple(len(f) for f in families)
            assert ext.presheaf.maps == maps


@pytest.mark.parametrize(
    "name, xs", [("chain3", {1}), ("Lambda", {1}), ("diamond", {1}), ("diamond", {1, 2})]
)
def test_ran_on_the_kx_ambients_matches_the_raw_product(name, xs):
    """The ambient of the kx report when the cone of X misses part of P:
    adjoin_zero(P) under X with the new bottom.  Every element outside the
    cone shares its support with the bottom, and so does P's least element
    when there is one, so supports repeat."""
    ambient = adjoin_zero(catalog()[name])
    subset = {*xs, ambient.n - 1}
    supports = [frozenset(subset & down_set(ambient, p)) for p in range(ambient.n)]
    assert len(set(supports)) < ambient.n
    sub = ambient.induced(sorted(subset))
    for base in enumerate_presheaves(sub, 2, max_elements=sub.n):
        ext = extend_presheaf(base, ambient, subset)
        support, families, maps = ran_oracle(base, ambient, subset)
        assert ext.support == support
        assert ext.families == families
        assert ext.presheaf.sizes == tuple(len(f) for f in families)
        assert ext.presheaf.maps == maps


@pytest.mark.parametrize("name,cap", ISO_LISTS)
def test_natural_iso_matches_the_permutation_oracle(name, cap):
    """Every ordered pair, except on V at value cap 3: its 640,252 ordered
    pairs of equal sizes take minutes on either side, so there each
    presheaf meets its class representative both ways, and every two
    representatives of equal sizes meet."""
    fs = presheaves(name, cap)
    if (name, cap) == ("V", 3):
        classes = oracle_classes(name, cap)
        reps = sorted(set(classes))
        pairs = [(f, fs[r]) for f, r in zip(fs, classes)]
        pairs += [(fs[r], f) for f, r in zip(fs, classes)]
        pairs += [(fs[r], fs[s]) for r in reps for s in reps if fs[r].sizes == fs[s].sizes]
    else:
        pairs = [(f, g) for f in fs for g in fs]
    for f, g in pairs:
        assert natural_iso_exists(f, g) == natural_iso_oracle(f, g), (f.maps, g.maps)


@pytest.mark.parametrize("name,cap", ISO_LISTS)
def test_iso_classes_label_the_oracle_classes(name, cap):
    fs = presheaves(name, cap)
    reps, labels = _iso_classes(fs)
    classes = oracle_classes(name, cap)
    # same partition: each label names one oracle class and each class one label
    assert len(set(zip(labels, classes))) == len(reps) == len(set(classes))
    assert reps == [fs[i] for i in sorted(set(classes))]
    assert all(reps[label] is fs[c] for label, c in zip(labels, classes))


@pytest.mark.parametrize(
    "name", [n for n in CATALOG_NAMES if catalog()[n].is_downwards_directed()]
)
def test_kx_sheaf_classes_match_the_pairwise_count(name):
    p = catalog()[name]
    for xs in all_subsets(p.n):
        report = kx_sheaf_equivalence_check(p, xs)
        topology = derived_topology(p, xs)
        sample = [
            f for f in enumerate_presheaves(p, 2, max_elements=p.n) if is_sheaf(f, topology).ok
        ]
        count = sum(
            not any(natural_iso_oracle(sample[j], sample[i]) for j in range(i))
            for i in range(len(sample))
        )
        assert report.sheaf_classes == count
        assert report.ok
