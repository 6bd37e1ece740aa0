"""Sheaf checks decided on the tops of each cut of J(X), against the
all-covers scan they replaced, and presheaf construction checked on
cover-edge triples, against the scan over every triple."""

import time
from itertools import product

import pytest
from conftest import (
    all_subsets,
    cut_tops_oracle,
    down_set,
    fan,
    functoriality_scan_oracle,
    matching_families_oracle,
    sheaf_scan_oracle,
    up_set,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import sitecalc.sheaves
from sitecalc import (
    CATALOG_NAMES,
    FinitePoset,
    FunctorialityError,
    Presheaf,
    catalog,
    catalog_poset,
    enumerate_presheaves,
    extend_presheaf,
    is_sheaf,
    restrict_presheaf,
    subset_topology,
)
from sitecalc import poset as poset_module
from sitecalc import sites
from sitecalc.poset import _bits
from sitecalc.sheaves import _matching_tuples


@st.composite
def presheaves_with_subset(draw):
    """A random poset with n <= 6, a subset X, and a random functor: built
    on a linear extension, where each value at p picks a matching family on
    the strict down-set of p as its restrictions, then relabelled by a
    random permutation, so index order need not be a linear extension.
    Half are replaced by the extension of their restriction to X, a sheaf
    for J(X)."""
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    linear = FinitePoset(n, pairs)
    sizes: list[int] = []
    maps = {}
    for p in range(n):
        below = sorted(down_set(linear, p) - {p})
        families = [
            fam for fam in product(*(range(sizes[q]) for q in below))
            if all(
                maps[(r, q)][fam[i]] == fam[j]
                for i, q in enumerate(below) for j, r in enumerate(below) if linear.lt(r, q)
            )
        ]
        picks = draw(st.lists(st.integers(0, len(families) - 1), max_size=3)) if families else []
        sizes.append(len(picks))
        for i, q in enumerate(below):
            maps[(q, p)] = tuple(families[k][i] for k in picks)
    perm = draw(st.permutations(range(n)))
    poset = FinitePoset(n, [(perm[i], perm[j]) for i, j in pairs])
    relabelled = [0] * n
    for i, size in enumerate(sizes):
        relabelled[perm[i]] = size
    presheaf = Presheaf(poset, relabelled, {(perm[q], perm[p]): t for (q, p), t in maps.items()})
    xs = draw(st.frozensets(st.integers(min_value=0, max_value=n - 1)))
    if draw(st.booleans()):
        presheaf = extend_presheaf(restrict_presheaf(presheaf, xs), poset, xs).presheaf
    return presheaf, subset_topology(poset, xs)


@settings(max_examples=500, deadline=None)
@given(presheaves_with_subset())
def test_least_cover_verdict_and_witness_match_the_all_covers_scan(case):
    presheaf, topology = case
    assert is_sheaf(presheaf, topology) == sheaf_scan_oracle(presheaf, topology)


@settings(max_examples=200, deadline=None)
@given(presheaves_with_subset())
def test_matching_tuples_match_the_oracle_on_relabelled_posets(case):
    """Every member set of a random poset whose index order need not be a
    linear extension, so a lower cover may come later in the member list."""
    presheaf, _ = case
    for mask in range(1 << presheaf.poset.n):
        elems = _bits(mask)
        expected = matching_families_oracle(presheaf, elems, 0, {})
        assert list(_matching_tuples(presheaf, elems)) == [tuple(f.values()) for f in expected]


def _scan_forbidden(*args):
    raise AssertionError("the witness scan ran on a sheaf")


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_sheaves_never_reach_the_scan(name, monkeypatch):
    p = catalog()[name]
    presheaves = enumerate_presheaves(p, 2, max_elements=p.n)
    topologies = [subset_topology(p, xs) for xs in all_subsets(p.n)]
    sheaves = [(f, t) for t in topologies for f in presheaves if sheaf_scan_oracle(f, t).ok]
    assert sheaves
    monkeypatch.setattr(sitecalc.sheaves, "_sheaf_scan", _scan_forbidden)
    for f, t in sheaves:
        assert is_sheaf(f, t).ok


@pytest.mark.parametrize("name", ["Lambda", "chain3"])
@pytest.mark.parametrize("xs", [{1}, {2}, {1, 2}], ids=["X=1", "X=2", "X=12"])
def test_empty_cut_witnesses_match_the_all_covers_scan(name, xs):
    """Elements outside ↓X have an empty cut; their witness, when F(p) is
    not a singleton, is the empty family on the empty sieve."""
    p = catalog_poset(name)
    topology = subset_topology(p, xs)
    for f in enumerate_presheaves(p, 3, max_elements=p.n, max_value_cap=3):
        assert is_sheaf(f, topology) == sheaf_scan_oracle(f, topology)


def test_large_bottom_value_set_on_chain2():
    """Not a sheaf for J({0}): the bottom has 1000 values, the top 2.
    Rescanning F(p) for every family makes this cubic in the value-set
    size, about 18 s, so the bound pins the per-cover index."""
    chain2 = catalog_poset("chain2")
    presheaf = Presheaf(chain2, (1000, 2), {(0, 1): (0, 1)})
    start = time.perf_counter()
    check = is_sheaf(presheaf, subset_topology(chain2, {0}))
    assert time.perf_counter() - start < 2.0
    assert not check.ok
    assert check.witness == {"p": "1", "cover": ["0"], "family": {"0": 2}, "amalgamations": []}


def _fan_with_two_values_on_top(k):
    """fan(k), one value on each atom and two on the top, under J({t0}):
    the top's first cover, {t0}, has a family with two amalgamations."""
    poset = fan(k)
    presheaf = Presheaf(poset, [1] * k + [2], {(i, k): (0, 0) for i in range(k)})
    return presheaf, subset_topology(poset, {0})


def _listing_forbidden(*args):
    raise AssertionError("the sieves on an element were listed")


@pytest.mark.parametrize("k", [20, 24])
def test_wide_element_witness_walks_from_the_least_cover(k, monkeypatch):
    """The top of fan(k) has 2^k + 1 sieves; the witness is the first cover
    of the walk, read with the down-set listing refused in every module
    that holds it."""
    presheaf, topology = _fan_with_two_values_on_top(k)
    for module in (sites, poset_module, sitecalc.sheaves):
        if hasattr(module, "_downset_masks"):
            monkeypatch.setattr(module, "_downset_masks", _listing_forbidden)
    assert is_sheaf(presheaf, topology).witness == {
        "p": "top", "cover": ["t0"], "family": {"t0": 0}, "amalgamations": [0, 1]
    }


def test_wide_element_witness_matches_the_all_covers_scan():
    presheaf, topology = _fan_with_two_values_on_top(8)
    assert is_sheaf(presheaf, topology) == sheaf_scan_oracle(presheaf, topology)


def test_identity_restriction_is_cached():
    f = Presheaf(catalog_poset("chain2"), (1, 3), {(0, 1): (0, 0, 0)})
    assert f.restriction(1, 1) == (0, 1, 2)
    assert f.restriction(1, 1) is f.restriction(1, 1)
    assert f.restriction(0, 0) == (0,)


def _scan_while_deciding(*args):
    raise AssertionError("the witness scan ran before the witness was read")


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_verdicts_skip_the_scan_and_witnesses_wait_for_a_read(name, monkeypatch):
    """Every presheaf at value cap 2 under every J(X), sheaves and
    non-sheaves alike: the verdicts are decided with the scan patched to
    raise, and the witnesses of those same checks, read once the scan is
    restored, are the all-covers scan's."""
    p = catalog()[name]
    presheaves = enumerate_presheaves(p, 2, max_elements=p.n)
    cases = [(f, subset_topology(p, xs)) for xs in all_subsets(p.n) for f in presheaves]
    expected = [sheaf_scan_oracle(f, t) for f, t in cases]
    assert any(e.ok for e in expected) and not all(e.ok for e in expected)
    with monkeypatch.context() as patched:
        patched.setattr(sitecalc.sheaves, "_sheaf_scan", _scan_while_deciding)
        checks = [is_sheaf(f, t) for f, t in cases]
        assert [c.ok for c in checks] == [e.ok for e in expected]
    assert [c.witness for c in checks] == [e.witness for e in expected]
    assert checks == expected


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_cut_tops_match_the_oracle_on_the_catalog(name):
    p = catalog()[name]
    for xs in all_subsets(p.n):
        topology = subset_topology(p, xs)
        tops = topology._cut_tops()
        assert tops == cut_tops_oracle(p, xs)
        assert topology._cut_tops() is tops
        assert [q for q in range(p.n) if tops[q] == (q,)] == sorted(xs)


@settings(max_examples=300, deadline=None)
@given(presheaves_with_subset())
def test_cut_tops_match_the_oracle_on_relabelled_posets(case):
    _, topology = case
    tops = topology._cut_tops()
    assert tops == cut_tops_oracle(topology.poset, topology.subset)
    assert topology._cut_tops() is tops


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_only_cuts_with_two_tops_count_families(name, monkeypatch):
    """Deciding ``ok`` counts matching families only on cuts with two or
    more tops that share an element of X below them; tops that share none
    give the product of their value sizes.  V's wide cut is of the second
    kind, so of the catalog posets only diamond reaches the count."""
    p = catalog()[name]
    presheaves = enumerate_presheaves(p, 2, max_elements=p.n)
    counted: list[frozenset[int]] = []
    original = sitecalc.sheaves._matching_tuples

    def counting(presheaf, elems):
        counted.append(frozenset(elems))
        return original(presheaf, elems)

    monkeypatch.setattr(sitecalc.sheaves, "_matching_tuples", counting)
    reached = has_wide_cut = has_shared_cut = False
    for xs in all_subsets(p.n):
        topology = subset_topology(p, xs)
        wide = [
            (frozenset(xs) & down_set(p, q), tops)
            for q, tops in enumerate(cut_tops_oracle(p, xs)) if len(tops) >= 2
        ]
        shared = {
            cut
            for cut, tops in wide
            if any(cut & down_set(p, t) & down_set(p, u) for t in tops for u in tops if t < u)
        }
        has_wide_cut = has_wide_cut or bool(wide)
        has_shared_cut = has_shared_cut or bool(shared)
        for f in presheaves:
            counted.clear()
            assert is_sheaf(f, topology).ok == sheaf_scan_oracle(f, topology).ok
            assert set(counted) <= shared
            reached = reached or bool(counted)
    assert has_wide_cut == (name in {"V", "diamond"})
    assert reached == has_shared_cut == (name == "diamond")


def _assert_constructor_matches_the_scan(poset, sizes, maps) -> bool:
    """Whether the constructor accepted, after checking it against the scan."""
    expected = functoriality_scan_oracle(poset, maps)
    if expected is None:
        assert Presheaf(poset, sizes, maps).maps == maps
        return True
    with pytest.raises(FunctorialityError) as exc:
        Presheaf(poset, sizes, maps)
    got = exc.value
    assert (got.message, got.witness, got.r, got.q, got.p) == (
        expected.message, expected.witness, expected.r, expected.q, expected.p
    )
    return False


@st.composite
def functors_with_one_entry_changed(draw):
    """A functor from :func:`presheaves_with_subset` with one entry of one
    restriction table moved to another value in range, when one can be."""
    presheaf, _ = draw(presheaves_with_subset())
    maps = dict(presheaf.maps)
    keys = [key for key, tab in sorted(maps.items()) if tab and presheaf.sizes[key[0]] >= 2]
    if keys:
        key = draw(st.sampled_from(keys))
        tab, size = list(maps[key]), presheaf.sizes[key[0]]
        i = draw(st.integers(0, len(tab) - 1))
        tab[i] = (tab[i] + draw(st.integers(1, size - 1))) % size
        maps[key] = tuple(tab)
    return presheaf.poset, presheaf.sizes, maps


@settings(max_examples=500, deadline=None)
@given(functors_with_one_entry_changed())
def test_constructor_raises_the_first_error_of_the_full_scan(case):
    _assert_constructor_matches_the_scan(*case)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_constructor_matches_the_full_scan_on_every_changed_entry(name):
    """Every presheaf at value cap 2 with each entry of each table changed
    in turn; only posets with a triple r < q < p reject one."""
    p = catalog()[name]
    verdicts = set()
    for f in enumerate_presheaves(p, 2, max_elements=p.n):
        for key, tab in f.maps.items():
            if f.sizes[key[0]] != 2:
                continue
            for i in range(len(tab)):
                maps = {**f.maps, key: tab[:i] + (1 - tab[i],) + tab[i + 1:]}
                verdicts.add(_assert_constructor_matches_the_scan(p, f.sizes, maps))
    has_triple = any(up_set(p, q) - {q} for _, q in p.hasse_pairs())
    assert (False in verdicts) == has_triple


def test_broken_triple_off_the_cover_edges_is_the_witness():
    """Breaking 2 <= 3 on chain4 fails the cover-edge triple (1, 2, 3)
    first, but the full scan meets (0, 2, 3) first, and that is the error."""
    chain4 = catalog_poset("chain4")
    maps = {(q, p): (0, 1) for q in range(4) for p in range(q + 1, 4)}
    maps[(2, 3)] = (1, 0)
    with pytest.raises(FunctorialityError) as exc:
        Presheaf(chain4, (2, 2, 2, 2), maps)
    assert (exc.value.r, exc.value.q, exc.value.p) == (0, 2, 3)
    assert exc.value.witness == {"r": "0", "q": "2", "p": "3"}
    assert exc.value.message == "composite restriction violated at 0 <= 2 <= 3"
