"""Presheaves that the library builds functorial by construction skip the
constructor's checks: restriction to a subposet, the extension Ran_X, the
extension over an adjoined bottom and the enumerator.  Each must be the presheaf that the validating constructor
builds from the same data, and the enumerator must keep exactly the
choices that pass the functor laws.  Induced subposets are built once per
subset and shared."""

from itertools import product

import pytest
from conftest import all_subsets
from hypothesis import given, settings
from hypothesis import strategies as st
from test_sheaf_least_cover import presheaves_with_subset

from sitecalc import (
    CATALOG_NAMES,
    FinitePoset,
    Presheaf,
    catalog_poset,
    enumerate_presheaves,
    extend_presheaf,
    restrict_presheaf,
)
from sitecalc.sheaves import _bottom_restrictions, adjoin_zero, extend_sheaf_over_bottom


def _assert_certified(f: Presheaf) -> None:
    assert type(f.sizes) is tuple
    assert all(type(tab) is tuple for tab in f.maps.values())
    checked = Presheaf(f.poset, f.sizes, f.maps)
    assert checked == f and hash(checked) == hash(f)
    assert checked.maps == f.maps


def test_presheaves_compare_by_poset_sizes_and_maps():
    chain2 = catalog_poset("chain2")
    f = Presheaf(chain2, (2, 2), {(0, 1): (0, 1)})
    same = Presheaf(chain2, [2, 2], {(0, 1): [0, 1]})
    assert f == same and hash(f) == hash(same)
    assert f != Presheaf(chain2, (2, 2), {(0, 1): (1, 0)})
    assert f != Presheaf(chain2, (2, 1), {(0, 1): (0,)})
    assert f != Presheaf(catalog_poset("antichain2"), (2, 2), {})


def _trusted_builds(presheaf: Presheaf, xs) -> list[Presheaf]:
    restricted = restrict_presheaf(presheaf, xs)
    return [restricted, extend_presheaf(restricted, presheaf.poset, xs).presheaf]


@settings(max_examples=200, deadline=None)
@given(presheaves_with_subset(), st.data())
def test_restriction_and_extension_pass_the_constructor(case, data):
    presheaf, topology = case
    ys = data.draw(st.frozensets(st.integers(min_value=0, max_value=presheaf.poset.n - 1)))
    for f in _trusted_builds(presheaf, topology.subset) + _trusted_builds(presheaf, ys):
        _assert_certified(f)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_constructions_pass_the_constructor(name):
    poset = catalog_poset(name)
    presheaves = enumerate_presheaves(poset, 2, max_elements=poset.n)
    for f in presheaves:
        _assert_certified(f)
    for xs in all_subsets(poset.n):
        for f in presheaves[::7]:
            for g in _trusted_builds(f, xs):
                _assert_certified(g)


def test_bottom_extension_passes_the_constructor():
    """Every presheaf of value cap 2 on a catalog poset or the bowtie (two
    minimal elements under two maximal ones, where the table at the bottom
    can depend on the mediating element), lifted over an adjoined bottom at
    every base point: the lift is the presheaf that the validating
    constructor builds whenever the bottom restrictions exist, V and the
    antichains included, and None otherwise."""
    bowtie = FinitePoset(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    lifts = 0
    for poset in [*map(catalog_poset, CATALOG_NAMES), bowtie]:
        assert poset.n <= 4
        poset0 = adjoin_zero(poset)
        for f in enumerate_presheaves(poset, 2, max_elements=poset.n):
            for p0 in range(poset.n):
                lift = extend_sheaf_over_bottom(f, poset0, p0)
                if _bottom_restrictions(f, p0)[1]:
                    _assert_certified(lift)
                    assert lift.poset == poset0 and lift.sizes == (*f.sizes, f.sizes[p0])
                    assert restrict_presheaf(lift, range(poset.n)) == f
                    lifts += 1
                else:
                    assert lift is None
    assert lifts == 1012


def _raw_functors(poset: FinitePoset, cap: int) -> list[tuple]:
    """(sizes, maps) of every assignment of a table to each strict pair
    that satisfies composition on every triple, in no particular order."""
    pairs = [(q, p) for q in range(poset.n) for p in range(poset.n) if poset.lt(q, p)]
    triples = [(r, q, p) for r, q in pairs for qq, p in pairs if qq == q]
    out = []
    for sizes in product(range(cap + 1), repeat=poset.n):
        tables = [product(range(sizes[q]), repeat=sizes[p]) for q, p in pairs]
        for combo in product(*tables):
            maps = dict(zip(pairs, combo))
            if all(
                tuple(maps[(r, q)][b] for b in maps[(q, p)]) == maps[(r, p)]
                for r, q, p in triples
            ):
                out.append((sizes, tuple(sorted(maps.items()))))
    return out


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_enumeration_keeps_exactly_the_functors(name):
    """On ``diamond`` some edge choices fail composition around the square;
    the enumerator drops them and keeps every functor once."""
    poset = catalog_poset(name)
    found = [(f.sizes, tuple(sorted(f.maps.items())))
             for f in enumerate_presheaves(poset, 2, max_elements=poset.n)]
    assert len(set(found)) == len(found)
    assert sorted(found) == sorted(_raw_functors(poset, 2))


@st.composite
def posets_with_subset(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    perm = draw(st.permutations(range(n)))
    poset = FinitePoset(n, [(perm[i], perm[j]) for i, j in pairs])
    return poset, draw(st.lists(st.integers(min_value=0, max_value=max(n - 1, 0)), max_size=n))


@settings(max_examples=200, deadline=None)
@given(posets_with_subset())
def test_induced_subposets_are_built_once(case):
    poset, subset = case
    sub = poset.induced(subset)
    elems = sorted(set(subset))
    uncached = FinitePoset(
        [poset.labels[e] for e in elems],
        [(k, m) for k, a in enumerate(elems) for m, b in enumerate(elems) if poset.lt(a, b)],
    )
    assert sub == uncached and sub.relation_pairs() == uncached.relation_pairs()
    assert poset.induced(reversed(subset)) is sub
    assert poset.induced(frozenset(subset)) is sub
