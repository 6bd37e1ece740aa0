"""The topology census, J(X) for each of the 2^n subsets X, checked against
the search over every filter of sieves, which re-derives the theorem that
every topology on a finite poset is some J(X)."""

import time

import pytest
from conftest import (
    LADDER,
    all_subsets,
    census_oracle,
    chain_poset,
    fan,
    fence,
    filters_of_sieves,
    sieves_on,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from sitecalc import FinitePoset, catalog, enumerate_all_topologies, subset_topology

ORACLE_POSETS = {
    **catalog(),
    **LADDER,
    "chain6": chain_poset(6),
    "fence6": fence(6),
    "fan3": fan(3),
    "fan4": fan(4),
}


@st.composite
def random_posets(draw):
    """A random order on n <= 5 points whose index order need not be a
    linear extension."""
    n = draw(st.integers(min_value=0, max_value=5))
    perm = draw(st.permutations(range(n)))
    pairs = [
        (perm[i], perm[j]) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())
    ]
    return FinitePoset(n, pairs)


@pytest.mark.parametrize("name", sorted(ORACLE_POSETS))
def test_census_matches_the_filter_scan(name):
    p = ORACLE_POSETS[name]
    assert enumerate_all_topologies(p, cap=p.n) == census_oracle(p)


@settings(max_examples=150, deadline=None)
@given(random_posets())
def test_census_matches_the_filter_scan_on_random_posets(p):
    found = enumerate_all_topologies(p, cap=p.n)
    assert found == census_oracle(p)
    assert len(found) == 2**p.n


@pytest.mark.parametrize("name", sorted(ORACLE_POSETS))
def test_filters_of_sieves_are_principal(name):
    p = ORACLE_POSETS[name]
    for e in range(p.n):
        sieves = sieves_on(p, e)
        principal = {frozenset(r for r in sieves if s <= r) for s in sieves}
        scanned = filters_of_sieves(p, e)
        assert len(scanned) == len(principal)
        assert set(scanned) == principal


def test_census_of_a_five_atom_fan_is_fast():
    p = fan(5)
    started = time.perf_counter()
    found = enumerate_all_topologies(p, cap=6)
    elapsed = time.perf_counter() - started
    assert len(found) == 64
    assert set(found) == {subset_topology(p, x) for x in all_subsets(p.n)}
    assert elapsed < 1.0

