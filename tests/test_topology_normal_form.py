"""Topologies through their generating subset X: constructors, meet and join
build J(X) directly, validation accepts on a match with J(X), and the axiom
scan runs only to find the witness of a rejection."""

import pytest
from conftest import (
    LADDER,
    all_subsets,
    congruence_complete_scan,
    covers_of,
    nucleus_complete_scan,
    pointwise_meet_covers,
    restricted_covers,
    saturated_join_covers,
    stock_covers,
    subset_covers_oracle,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from sitecalc import (
    FinitePoset,
    GrothTopology,
    NotDenseError,
    NotDownwardsDirectedError,
    atomic_topology,
    catalog,
    congruence_from_nucleus,
    congruence_from_topology,
    congruence_is_complete,
    dense_topology,
    derived_topology,
    discrete_topology,
    enumerate_all_topologies,
    enumerate_downsets,
    extend_topology,
    indiscrete_topology,
    join,
    lx_topology,
    meet,
    nucleus_from_topology,
    nucleus_is_complete,
    restrict_topology,
    sieves_on,
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
    return all(p.down_closure(x & p.down(q)) in covers[q] for q in range(p.n))


@pytest.mark.parametrize("name", sorted(POSETS))
def test_meet_and_join_match_the_pointwise_and_saturation_oracles(name):
    tops = _topologies(POSETS[name])
    for j in tops:
        for k in tops:
            assert list(covers_of(meet(j, k))) == pointwise_meet_covers(j, k)
            assert list(covers_of(join(j, k))) == saturated_join_covers(j, k)


@pytest.mark.parametrize("name", sorted(POSETS))
def test_completeness_predicates_match_the_scans(name):
    p = POSETS[name]
    frame = enumerate_downsets(p)
    for t in _topologies(p):
        nuc = nucleus_from_topology(t, frame)
        cong = congruence_from_nucleus(nuc)
        assert nucleus_is_complete(nuc) == nucleus_complete_scan(nuc)
        assert congruence_is_complete(cong) == congruence_complete_scan(cong)


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
    frame = enumerate_downsets(p)
    monkeypatch.setattr(sites, "find_axiom_violation", _scan_forbidden)
    built = set()
    for t in tops:
        assert validate_topology(p, covers_of(t)) == t
        assert GrothTopology.from_json(t.to_json()) == t
        assert topology_from_nucleus(nucleus_from_topology(t, frame)) == t
        assert topology_from_congruence(congruence_from_topology(t, frame)) == t
        assert topology_from_sublocale(sublocale_from_topology(t, frame)) == t
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
    below = sorted(p.down(q))
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


@settings(max_examples=300, deadline=None)
@given(perturbed_subset_topologies())
def test_validation_verdict_matches_the_axiom_scan(case):
    p, covers = case
    fams = [frozenset(c) for c in covers]
    try:
        validate_topology(p, covers)
        got = None
    except sites.AxiomViolation as err:
        got = _verdict(err)
    assert got == _verdict(sites.find_axiom_violation(p, fams))
