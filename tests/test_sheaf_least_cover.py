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
from sitecalc.poset import _bits, _mask
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
    more tops, and walks the families only where two of those tops share
    an element of X below them; tops that share none give the product of
    their value sizes.  V's wide cut is of the second kind, so of the
    catalog posets only diamond walks."""
    p = catalog()[name]
    presheaves = enumerate_presheaves(p, 2, max_elements=p.n)
    walked: list[frozenset[int]] = []
    walks: list[int] = []
    count, walk = sitecalc.sheaves._family_count, sitecalc.sheaves._family_walk

    def counting(presheaf, xs, tops, bound):
        walks.clear()
        families = count(presheaf, xs, tops, bound)
        if walks:
            walked.append(frozenset(tops))
        return families

    def walking(*args):
        walks.append(1)
        return walk(*args)

    monkeypatch.setattr(sitecalc.sheaves, "_family_count", counting)
    monkeypatch.setattr(sitecalc.sheaves, "_family_walk", walking)
    reached = has_wide_cut = has_shared_cut = False
    for xs in all_subsets(p.n):
        topology = subset_topology(p, xs)
        wide = [
            (frozenset(xs) & down_set(p, q), tops)
            for q, tops in enumerate(cut_tops_oracle(p, xs)) if len(tops) >= 2
        ]
        shared = {
            frozenset(tops)
            for cut, tops in wide
            if any(sum(x in down_set(p, t) for t in tops) >= 2 for x in cut)
        }
        has_wide_cut = has_wide_cut or bool(wide)
        has_shared_cut = has_shared_cut or bool(shared)
        for f in presheaves:
            walked.clear()
            assert is_sheaf(f, topology).ok == sheaf_scan_oracle(f, topology).ok
            assert set(walked) <= shared
            reached = reached or bool(walked)
    assert has_wide_cut == (name in {"V", "diamond"})
    assert reached == has_shared_cut == (name == "diamond")


def _two_tops_over_b(n: int, b_in_a2: int):
    """P = {a1, a2, b, top}, b < a1, a2 < top, under J({a1, a2, b}): n
    values at a1 and a2, two at b, none at top, F(b <= a1) constant 0 and
    F(b <= a2) constant ``b_in_a2``.  The cut of top has tops a1 and a2,
    which share b; it has n^2 families when ``b_in_a2`` is 0 and none when
    it is 1."""
    poset = FinitePoset(["a1", "a2", "b", "top"], [(2, 0), (2, 1), (0, 3), (1, 3)])
    maps = {(2, 0): (0,) * n, (2, 1): (b_in_a2,) * n, (0, 3): (), (1, 3): (), (2, 3): ()}
    return Presheaf(poset, (n, n, 2, 0), maps), subset_topology(poset, {0, 1, 2})


@pytest.mark.parametrize("b_in_a2", [0, 1], ids=["families", "no-family"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tops_sharing_a_member_match_the_all_covers_scan(n, b_in_a2):
    presheaf, topology = _two_tops_over_b(n, b_in_a2)
    check = is_sheaf(presheaf, topology)
    assert check == sheaf_scan_oracle(presheaf, topology)
    assert check.ok == bool(b_in_a2)


def test_tops_sharing_a_member_are_counted_per_top():
    """40,002 values, inside the value budget: counting the families of
    the top's cut over the whole cut multiplies the value sets of a1 and a2
    (minutes here), while walking the two tops, each value of the second
    taken from the fibre over b, reads each value once.  With no family the top has its one amalgamation of
    none; with n^2 families it fails at once, at the first family."""
    presheaf, topology = _two_tops_over_b(20_000, 1)
    start = time.perf_counter()
    assert is_sheaf(presheaf, topology).ok
    assert time.perf_counter() - start < 1.0
    presheaf, topology = _two_tops_over_b(20_000, 0)
    start = time.perf_counter()
    check = is_sheaf(presheaf, topology)
    assert not check.ok
    assert check.witness == {
        "p": "top", "cover": ["a1", "a2", "b"], "family": {"a1": 0, "a2": 0, "b": 0},
        "amalgamations": [],
    }
    assert time.perf_counter() - start < 1.0


def _tops_over_b_with_one_gap(n: int):
    """P = {a1, a2, b, top} as in :func:`_two_tops_over_b`: n values at a1
    and a2, two at b, n - 1 at top; F(b <= a1) constant 0, F(b <= a2)
    sending n - 1 to 0 and the rest to 1, and the top's value v restricting
    to v at a1, n - 1 at a2 and 0 at b.  The families are (v, n - 1, 0), and
    the last has no amalgamation; listed in id order, a1 and a2 come before
    b, the member that links them."""
    poset = FinitePoset(["a1", "a2", "b", "top"], [(2, 0), (2, 1), (0, 3), (1, 3)])
    maps = {
        (2, 0): (0,) * n,
        (2, 1): (1,) * (n - 1) + (0,),
        (0, 3): tuple(range(n - 1)),
        (1, 3): (n - 1,) * (n - 1),
        (2, 3): (0,) * (n - 1),
    }
    return Presheaf(poset, (n, n, 2, n - 1), maps), subset_topology(poset, {0, 1, 2})


def _three_tops(n: int, amalgamated: int):
    """P = {x, y, t1, t2, t3, top}, x < t1, t2 and y < t2, t3, all below
    top, under J({x, y, t1, t2, t3}): n values at x, y, t1 and t3, n + 1 at
    t2.  t1 and t3 restrict by the identity; t2 sends v < n to v at x and y,
    and n to n - 1 at x and 0 at y.  Each value at t2 fixes one of the
    n + 1 families, and t2 is the only top with n + 1 restrictions to the
    shared members, so the tops with fewest of them, t1 and t3, share none.
    The top's values are the first ``amalgamated`` families in
    lexicographic order, so the next family is the witness."""
    poset = FinitePoset(
        ["x", "y", "t1", "t2", "t3", "top"],
        [(0, 2), (0, 3), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)],
    )
    ids, at_x, at_y = tuple(range(n)), tuple(range(n)) + (n - 1,), tuple(range(n)) + (0,)
    families = sorted((at_x[v], at_y[v], at_x[v], v, at_y[v]) for v in range(n + 1))
    maps = {(0, 2): ids, (0, 3): at_x, (1, 3): at_y, (1, 4): ids}
    maps.update({(q, 5): tuple(f[q] for f in families[:amalgamated]) for q in range(5)})
    sizes = (n, n, n, n + 1, n, amalgamated)
    return Presheaf(poset, sizes, maps), subset_topology(poset, range(5))


# per case, the function that builds it, the n where it is timed (for the
# first two the largest that the value budget allows) and the witness
# family there, whose keys are the witness cover
THREE_TOPS_COVER = ["x", "y", "t1", "t2", "t3"]
LINKED_LATER_CASES = {
    "one-gap-over-b": (
        _tops_over_b_with_one_gap, 21_800, lambda n: {"a1": n - 1, "a2": n - 1, "b": 0}
    ),
    "three-tops-one-value": (
        lambda n: _three_tops(n, 1), 13_000, lambda n: dict.fromkeys(THREE_TOPS_COVER, 1)
    ),
    "three-tops-last-family": (
        lambda n: _three_tops(n, n), 300, lambda n: dict.fromkeys(THREE_TOPS_COVER, n - 1)
    ),
}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("case", sorted(LINKED_LATER_CASES))
def test_members_linked_by_a_later_member_match_the_all_covers_scan(case, n):
    presheaf, topology = LINKED_LATER_CASES[case][0](n)
    check = is_sheaf(presheaf, topology)
    assert check == sheaf_scan_oracle(presheaf, topology)
    assert not check.ok


@pytest.mark.parametrize("case", sorted(LINKED_LATER_CASES))
def test_members_linked_by_a_later_member_are_read_from_fibres(case):
    """Listing in id order chooses a1 and a2, or x and y, before the member
    that links them, and counting by a join of t1 and t3 would keep n^2
    entries; taking each value from the fibre of the values already fixed
    decides the check and reads its witness in well under a second.  The
    last case still walks n^2 prefixes that no family extends, and n^3
    when every member scans all its values."""
    build, n, family = LINKED_LATER_CASES[case]
    presheaf, topology = build(n)
    start = time.perf_counter()
    check = is_sheaf(presheaf, topology)
    assert not check.ok
    expected = family(n)
    assert check.witness == {
        "p": "top", "cover": list(expected), "family": expected, "amalgamations": []
    }
    assert time.perf_counter() - start < 1.0


def _tops_ruled_out_by_a_later_top(n: int):
    """P = {x, y, t1, t2, t3, top}, x < t1, t2 and y < t2, t3, all below
    top, under J({x, y, t1, t2, t3}): one value at x, n at t1 and t2,
    n + 1 at y and t3, none at top.  F(x <= t1) and F(x <= t2) are
    constant 0, F(y <= t2) sends v to v and F(y <= t3) is constant n, so
    every (t1, t2) pair agrees at x and no value of t3 agrees with t2 at y:
    there is no family.  Taking the tops fewest values first, t1 and t2
    come before t3."""
    poset = FinitePoset(
        ["x", "y", "t1", "t2", "t3", "top"],
        [(0, 2), (0, 3), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)],
    )
    maps = {(0, 2): (0,) * n, (0, 3): (0,) * n, (1, 3): tuple(range(n)), (1, 4): (n,) * (n + 1)}
    maps.update({(q, 5): () for q in range(5)})
    return Presheaf(poset, (1, n + 1, n, n, n + 1, 0), maps), subset_topology(poset, range(5))


def _tops_sharing_two_members(n: int):
    """P = {x1, x2, t1, t2, top}, x1, x2 < t1, t2 < top, under
    J({x1, x2, t1, t2}): one value at x1 and n at the rest.  F(x1 <= t) is
    constant 0 and F(x2 <= t) the identity, so the families are (v, v),
    one per value of top.  At x1 alone every value of t2 agrees with every
    value of t1."""
    poset = FinitePoset(["x1", "x2", "t1", "t2", "top"], [(0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)])
    ids = tuple(range(n))
    maps = {(0, 2): (0,) * n, (0, 3): (0,) * n, (1, 2): ids, (1, 3): ids}
    maps.update({(0, 4): (0,) * n, (1, 4): ids, (2, 4): ids, (3, 4): ids})
    return Presheaf(poset, (1, n, n, n, n), maps), subset_topology(poset, range(4))


# sheaves whose top's cut has tops that share members, each built with at
# most 4n + 3 values
COUNTED_SHEAVES = {
    "ruled-out-by-a-later-top": _tops_ruled_out_by_a_later_top,
    "constant-on-one-shared-member": _tops_sharing_two_members,
}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("case", sorted(COUNTED_SHEAVES))
def test_counted_tops_match_the_all_covers_scan(case, n):
    presheaf, topology = COUNTED_SHEAVES[case](n)
    check = is_sheaf(presheaf, topology)
    assert check == sheaf_scan_oracle(presheaf, topology)
    assert check.ok


@pytest.mark.parametrize("case", sorted(COUNTED_SHEAVES))
def test_counted_tops_are_decided_at_the_value_budget(case):
    """Every pair of values at t1 and t2 agrees at x, or x1; walking the
    tops without first dropping the values of t2 that no value of t3 agrees
    with, or trying t2's values by x1 alone, would reach about n^2 pairs."""
    n = (sitecalc.sheaves.VALUE_BUDGET - 3) // 4
    presheaf, topology = COUNTED_SHEAVES[case](n)
    start = time.perf_counter()
    assert is_sheaf(presheaf, topology).ok
    assert time.perf_counter() - start < 1.0


def _one_valued_tops_over_two_members(n: int, b1_in_a2: int):
    """P = {a1, a2, b1, b2, top}, b1, b2 < a1, a2 < top, under
    J({a1, a2, b1, b2}): n values at b1 and b2, one at a1 and a2, none at
    top; a1 restricts to 0 at b1 and b2, a2 to ``b1_in_a2`` at b1 and to 0
    at b2.  The cut of top has tops a1 and a2 over the incomparable b1 and
    b2: one family when ``b1_in_a2`` is 0, none when it is 1."""
    poset = FinitePoset(
        ["a1", "a2", "b1", "b2", "top"], [(2, 0), (3, 0), (2, 1), (3, 1), (0, 4), (1, 4)]
    )
    maps = {(2, 0): (0,), (3, 0): (0,), (2, 1): (b1_in_a2,), (3, 1): (0,)}
    maps.update({(q, 4): () for q in range(4)})
    return Presheaf(poset, (1, 1, n, n, 0), maps), subset_topology(poset, range(4))


def _linked_tops(n: int, x2_in_t3: int):
    """P = {x1, x2, t1, t2, t3, top}, x1 < t1, t3 and x2 < t2, t3, all
    below top, under J({x1, x2, t1, t2, t3}): n values at x1, t1 and t2,
    n + 1 at x2, one at t3, none at top; t1 and t2 restrict to x1 and x2
    by the identity, and t3 restricts to 0 at x1 and to n - 1 +
    ``x2_in_t3`` at x2.  The cut of top has tops t1, t2 and t3; t1 and t2
    share no member, and t3 links them: one family when ``x2_in_t3`` is 0,
    none when it is 1."""
    poset = FinitePoset(
        ["x1", "x2", "t1", "t2", "t3", "top"],
        [(0, 2), (0, 4), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)],
    )
    ids = tuple(range(n))
    maps = {(0, 2): ids, (0, 4): (0,), (1, 3): ids, (1, 4): (n - 1 + x2_in_t3,)}
    maps.update({(q, 5): () for q in range(5)})
    return Presheaf(poset, (n, n + 1, n, n, 1, 0), maps), subset_topology(poset, range(5))


# per case, the builder and the n that puts 40,000 to 60,000 values on P,
# inside the value budget
SHARED_VALUE_CASES = {
    "two-shared-members": (_one_valued_tops_over_two_members, 20_000),
    "linked-tops": (_linked_tops, 15_000),
}


@pytest.mark.parametrize("disagree", [0, 1], ids=["families", "no-family"])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("case", sorted(SHARED_VALUE_CASES))
def test_many_values_below_the_tops_match_the_all_covers_scan(case, n, disagree):
    presheaf, topology = SHARED_VALUE_CASES[case][0](n, disagree)
    check = is_sheaf(presheaf, topology)
    assert check == sheaf_scan_oracle(presheaf, topology)
    assert check.ok == bool(disagree)


@pytest.mark.parametrize("case", sorted(SHARED_VALUE_CASES))
def test_many_values_below_the_tops_are_joined_from_the_tops(case):
    """Listing the families on b1 and b2 multiplies their value sets, and
    so does taking t1 and t2 before t3; walking the tops in a connected
    order reads each value once."""
    build, n = SHARED_VALUE_CASES[case]
    for disagree in (1, 0):
        presheaf, topology = build(n, disagree)
        start = time.perf_counter()
        assert is_sheaf(presheaf, topology).ok == bool(disagree)
        assert time.perf_counter() - start < 1.0


# posets in a linear extension of their ids whose top has a cut with tops
# that share elements: three tops over one shared element; a "W", where
# the outer tops each have one of the two shared elements below them; a
# crown, where each of three tops has two of the three shared elements
# below it; and two tops over a shared element beside a third top with
# none below it
SHARED_CUT_POSETS = {
    "three-over-one": (5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]),
    "W": (6, [(0, 2), (0, 3), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)]),
    "crown": (7, [(0, 3), (1, 3), (1, 4), (2, 4), (0, 5), (2, 5), (3, 6), (4, 6), (5, 6)]),
    "two-and-one": (5, [(0, 1), (0, 2), (1, 4), (2, 4), (3, 4)]),
}


@st.composite
def presheaves_on_shared_cuts(draw):
    """A random functor on one of ``SHARED_CUT_POSETS``, built as in
    :func:`presheaves_with_subset` with up to four values per element,
    under J(X) for X the elements below the top."""
    n, pairs = SHARED_CUT_POSETS[draw(st.sampled_from(sorted(SHARED_CUT_POSETS)))]
    poset = FinitePoset(n, pairs)
    sizes: list[int] = []
    maps = {}
    for p in range(n):
        below = sorted(down_set(poset, p) - {p})
        families = [tuple(f.values()) for f in _oracle_families(poset, sizes, maps, below)]
        picks = draw(st.lists(st.integers(0, len(families) - 1), max_size=4)) if families else []
        sizes.append(len(picks))
        for i, q in enumerate(below):
            maps[(q, p)] = tuple(families[k][i] for k in picks)
    return Presheaf(poset, sizes, maps), subset_topology(poset, range(n - 1))


def _oracle_families(poset, sizes, maps, elems):
    """The matching families on ``elems`` of the functor built so far."""
    partial = Presheaf._trusted(poset, [*sizes, *[0] * (poset.n - len(sizes))], maps)
    return matching_families_oracle(partial, elems, 0, {})


@settings(max_examples=300, deadline=None)
@given(presheaves_on_shared_cuts())
def test_grouped_family_count_matches_the_raw_families(case):
    """The count of the top's cut against the families on the whole cut,
    listed by the oracle: exact with a bound at least that count, and the
    bound plus one below it; and the verdict against the all-covers scan."""
    presheaf, topology = case
    poset = presheaf.poset
    top = poset.n - 1
    cut = sorted(topology.subset & down_set(poset, top))
    tops = topology._cut_tops()[top]
    assert [x for x in cut if sum(x in down_set(poset, t) for t in tops) >= 2]
    expected = sum(1 for _ in matching_families_oracle(presheaf, cut, 0, {}))
    for bound in range(expected + 2):
        count = sitecalc.sheaves._family_count(presheaf, _mask(cut), tops, bound)
        assert count == min(expected, bound + 1)
    assert is_sheaf(presheaf, topology) == sheaf_scan_oracle(presheaf, topology)


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
