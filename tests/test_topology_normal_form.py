"""Topologies through their generating subset X: constructors, meet and join
build J(X) directly, validation accepts on a match with J(X), and the axiom
scan runs only to find the witness of a rejection."""

import pytest
from conftest import (
    LADDER,
    all_subsets,
    axiom_scan_oracle,
    brute_sieves,
    chain_poset,
    complete_scan_oracle,
    congruence_complete_scan,
    covers_of,
    down_set,
    fan,
    grid,
    nucleus_complete_scan,
    pointwise_meet_covers,
    restricted_covers,
    saturated_join_covers,
    sieves_on,
    stock_covers,
    subset_covers_oracle,
)
from hypothesis import event, given, settings
from hypothesis import strategies as st

from sitecalc import (
    AxiomViolation,
    FinitePoset,
    GrothTopology,
    NotDenseError,
    NotDownwardsDirectedError,
    atomic_topology,
    catalog,
    congruence_from_nucleus,
    congruence_from_topology,
    dense_topology,
    derived_topology,
    discrete_topology,
    enumerate_all_topologies,
    extend_topology,
    indiscrete_topology,
    join,
    lx_topology,
    meet,
    nucleus_from_topology,
    restrict_topology,
    subset_topology,
    sublocale_from_topology,
    topology_from_congruence,
    topology_from_nucleus,
    topology_from_sublocale,
    validate_topology,
)
from sitecalc import sites

POSETS = {**catalog(), **LADDER}


def _topologies(p):
    return enumerate_all_topologies(p, cap=p.n)


def _is_dense(p, t, x):
    covers = subset_covers_oracle(p, t.subset)
    return all(p.down_closure(x & down_set(p, q)) in covers[q] for q in range(p.n))


@pytest.mark.parametrize("name", sorted(POSETS))
def test_meet_and_join_match_the_pointwise_and_saturation_oracles(name):
    tops = _topologies(POSETS[name])
    for j in tops:
        for k in tops:
            assert list(covers_of(meet(j, k))) == pointwise_meet_covers(j, k)
            assert list(covers_of(join(j, k))) == saturated_join_covers(j, k)


@pytest.mark.parametrize("name", sorted(POSETS))
def test_completeness_predicates_match_the_scans(name):
    """Every J(X), its nucleus and its congruence are complete: the covers
    of p meet in the least cover, and implication from X and cutting by X
    commute with intersections.  The scans over every family check it."""
    p = POSETS[name]
    for t in _topologies(p):
        nuc = nucleus_from_topology(t)
        cong = congruence_from_nucleus(nuc)
        assert complete_scan_oracle(t)
        assert nucleus_complete_scan(nuc)
        assert congruence_complete_scan(cong)


@pytest.mark.parametrize("name", sorted(POSETS))
def test_stock_constructors_match_their_definitions(name):
    p = POSETS[name]
    assert list(covers_of(indiscrete_topology(p))) == stock_covers(p, "indiscrete")
    assert list(covers_of(discrete_topology(p))) == stock_covers(p, "discrete")
    assert list(covers_of(dense_topology(p))) == stock_covers(p, "dense")
    if not p.is_downwards_directed():
        with pytest.raises(NotDownwardsDirectedError):
            atomic_topology(p)
        with pytest.raises(NotDownwardsDirectedError):
            derived_topology(p, frozenset())
        return
    assert list(covers_of(atomic_topology(p))) == stock_covers(p, "atomic")
    for x in all_subsets(p.n):
        assert list(covers_of(derived_topology(p, x))) == stock_covers(p, "derived", x)


@pytest.mark.parametrize("name", sorted(POSETS))
def test_restriction_matches_the_down_closure_oracle(name):
    p = POSETS[name]
    for t in _topologies(p):
        for x in all_subsets(p.n):
            if _is_dense(p, t, x):
                assert list(covers_of(restrict_topology(p, t, x))) == restricted_covers(p, t, x)
            else:
                with pytest.raises(NotDenseError):
                    restrict_topology(p, t, x)


def _scan_forbidden(poset, covers):
    raise AssertionError("the axiom scan ran on a valid topology")


@pytest.mark.parametrize("name", sorted(POSETS))
def test_valid_topologies_never_reach_the_axiom_scan(name, monkeypatch):
    p = POSETS[name]
    tops = _topologies(p)
    monkeypatch.setattr(sites, "find_axiom_violation", _scan_forbidden)
    built = set()
    for t in tops:
        assert validate_topology(p, covers_of(t)) == t
        assert GrothTopology.from_json(t.to_json()) == t
        assert topology_from_nucleus(nucleus_from_topology(t)) == t
        assert topology_from_congruence(congruence_from_topology(t)) == t
        assert topology_from_sublocale(sublocale_from_topology(t)) == t
        for k in tops:
            built |= {meet(t, k), join(t, k)}
        for x in all_subsets(p.n):
            if _is_dense(p, t, x):
                inner = restrict_topology(p, t, x)
                built.add(extend_topology(p, x, inner))
    for x in all_subsets(p.n):
        built |= {subset_topology(p, x), lx_topology(p, x)}
        if p.is_downwards_directed():
            built.add(derived_topology(p, x))
    built |= {indiscrete_topology(p), discrete_topology(p), dense_topology(p)}
    if p.is_downwards_directed():
        built.add(atomic_topology(p))
    assert built == set(tops)


@pytest.mark.parametrize("name", sorted(POSETS))
def test_the_axiom_scan_finds_nothing_in_j_of_x(name):
    """Validation runs the scan only on families that are not J(X), so its
    verdict on J(X) itself, no violation, is checked here on every X."""
    p = POSETS[name]
    for x in all_subsets(p.n):
        fams = [{sum(1 << e for e in s) for s in fam} for fam in covers_of(subset_topology(p, x))]
        assert sites.find_axiom_violation(p, fams) is None


# -- the normal form against the axiom scan on perturbed inputs ----------------


@st.composite
def perturbed_subset_topologies(draw):
    """J(X) on a random poset with one subset of some down(p) toggled in the
    covers of p: an added or dropped sieve, or an added non-sieve."""
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    p = FinitePoset(n, pairs)
    xs = draw(st.frozensets(st.integers(min_value=0, max_value=n - 1)))
    covers = [set(fam) for fam in covers_of(subset_topology(p, xs))]
    q = draw(st.integers(min_value=0, max_value=n - 1))
    below = sorted(down_set(p, q))
    if draw(st.booleans()):
        s = draw(st.sampled_from(sieves_on(p, q)))
    else:
        s = draw(st.frozensets(st.sampled_from(below)))
    covers[q] ^= {s}
    return p, covers


def _verdict(violation):
    if violation is None:
        return None
    return (violation.axiom, violation.p, violation.sieve, violation.q, violation.other,
            violation.message)


def _validation_verdict(p, covers):
    try:
        validate_topology(p, covers)
    except AxiomViolation as err:
        return _verdict(err)
    return None


@settings(max_examples=300, deadline=None)
@given(perturbed_subset_topologies())
def test_validation_verdict_matches_the_axiom_scan(case):
    p, covers = case
    fams = [frozenset(c) for c in covers]
    assert _validation_verdict(p, covers) == _verdict(axiom_scan_oracle(p, fams))


def _renumbered(p, order):
    """The poset with element order[k] of p as element k: the scan's witness
    order follows ids, which need not be a linear extension."""
    new_id = {old: k for k, old in enumerate(order)}
    pairs = [(new_id[i], new_id[j]) for i, j in p.relation_pairs()]
    return FinitePoset([p.labels[old] for old in order], pairs)


def _ladder_poset(draw):
    shape = draw(st.sampled_from(["fan", "grid", "chain"]))
    if shape == "fan":
        p = fan(draw(st.integers(min_value=1, max_value=7)))
    elif shape == "grid":
        p = grid(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    else:
        p = chain_poset(draw(st.integers(min_value=1, max_value=8)))
    return _renumbered(p, draw(st.permutations(range(p.n))))


def _droppable(p, xs, covers):
    """The benchmark's corruption sites: each (q, cover of q) whose cover
    strictly contains the least cover of q and is not maximal."""
    return [
        (q, s)
        for q in range(p.n)
        for s in sorted(covers[q], key=sorted)
        if s != p.down_closure(xs & down_set(p, q)) and s != down_set(p, q)
    ]


@st.composite
def corrupted_ladder_topologies(draw):
    """J(X) on a fan of up to 7 atoms, a grid of up to 3x3 or a chain, its
    elements renumbered at random, with either one cover dropped as the benchmark corrupts documents (strictly
    above the least cover, not maximal) or two sieves toggled at once."""
    p = _ladder_poset(draw)
    xs = draw(st.frozensets(st.integers(min_value=0, max_value=p.n - 1)))
    covers = [set(fam) for fam in covers_of(subset_topology(p, xs))]
    options = _droppable(p, xs, covers)
    if options and draw(st.booleans()):
        q, s = draw(st.sampled_from(options))
        covers[q].discard(s)
    else:
        for _ in range(2):
            q = draw(st.integers(min_value=0, max_value=p.n - 1))
            covers[q] ^= {draw(st.sampled_from(brute_sieves(p, q)))}
    return p, covers


@settings(max_examples=200, deadline=None)
@given(corrupted_ladder_topologies())
def test_corrupted_ladder_verdicts_match_the_axiom_scan(case):
    p, covers = case
    want = _verdict(axiom_scan_oracle(p, [frozenset(c) for c in covers]))
    event(want[0] if want else "accepted")
    assert _validation_verdict(p, covers) == want


def _dropped_documents():
    """Every single-cover drop of the benchmark's kind on small ladder posets,
    numbered along a linear extension and in reverse."""
    ladder = (fan(3), grid(2, 2), grid(2, 3), chain_poset(4))
    for p in ladder + tuple(_renumbered(p, range(p.n - 1, -1, -1)) for p in ladder):
        for xs in all_subsets(p.n):
            covers = [set(fam) for fam in covers_of(subset_topology(p, xs))]
            for q, s in _droppable(p, xs, covers):
                yield p, [fam - {s} if i == q else fam for i, fam in enumerate(covers)]


def test_every_dropped_cover_gets_the_oracle_witness_without_sieves_on():
    """The axiom scan lists sieves as masks; the library keeps no frozenset
    listing of the sieves on p."""
    axioms = set()
    for p, covers in _dropped_documents():
        want = _verdict(axiom_scan_oracle(p, [frozenset(c) for c in covers]))
        assert want is not None
        assert _validation_verdict(p, covers) == want
        axioms.add(want[0])
    assert axioms == {"stability", "transitivity"}


def test_every_pair_of_toggles_gets_the_oracle_witness():
    """Two sieves toggled at once, on small posets whose ids are not a linear
    extension: transitivity fails at the least id among the minimal failing
    elements, not at the least failing id."""
    axioms = set()
    for p in (_renumbered(chain_poset(3), [0, 2, 1]), _renumbered(fan(2), [2, 0, 1]),
              _renumbered(grid(2, 2), [3, 1, 2, 0])):
        toggles = [(q, s) for q in range(p.n) for s in brute_sieves(p, q)]
        for xs in all_subsets(p.n):
            base = covers_of(subset_topology(p, xs))
            for i, (q1, s1) in enumerate(toggles):
                for q2, s2 in toggles[i + 1:]:
                    covers = [set(fam) for fam in base]
                    covers[q1] ^= {s1}
                    covers[q2] ^= {s2}
                    want = _verdict(axiom_scan_oracle(p, [frozenset(c) for c in covers]))
                    assert _validation_verdict(p, covers) == want
                    axioms.add(want and want[0])
    assert axioms == {None, "maximality", "stability", "transitivity"}
