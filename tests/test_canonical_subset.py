"""The least subcanonical generating subset in closed form, checked against
the scan over every subset and against the lemma behind the closed form."""

import pytest
from conftest import LADDER, canonical_scan_oracle, grid, subset_subcanonicity_witnesses
from hypothesis import given, settings
from hypothesis import strategies as st

from sitecalc import FinitePoset, canonical_subset_report, catalog
from sitecalc import poset as poset_module

ORACLE_POSETS = {**catalog(), **LADDER, "grid3x3": grid(3, 3)}


@st.composite
def random_orders(draw):
    """(n, generating pairs) of a random order on n <= 7 points whose
    index order need not be a linear extension."""
    n = draw(st.integers(min_value=1, max_value=7))
    perm = draw(st.permutations(range(n)))
    pairs = [
        (perm[i], perm[j]) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())
    ]
    return n, pairs


def _down_sets(n, pairs):
    """down[q] for the reflexive-transitive closure of pairs, by Warshall."""
    below = [[i == j for j in range(n)] for i in range(n)]
    for i, j in pairs:
        below[j][i] = True
    for k in range(n):
        for i in range(n):
            if below[i][k]:
                for j in range(n):
                    if below[k][j]:
                        below[i][j] = True
    return [frozenset(j for j in range(n) if below[q][j]) for q in range(n)]


@pytest.mark.parametrize("name", sorted(ORACLE_POSETS))
def test_closed_form_matches_the_scan(name):
    p = ORACLE_POSETS[name]
    report = canonical_subset_report(p)
    assert list(report.minimal_subsets) == canonical_scan_oracle(p)
    assert report.unique


@settings(max_examples=150, deadline=None)
@given(random_orders())
def test_closed_form_matches_the_scan_on_random_posets(order):
    p = FinitePoset(*order)
    minimal = canonical_scan_oracle(p)
    assert len(minimal) == 1
    report = canonical_subset_report(p)
    assert report.unique and list(report.minimal_subsets) == minimal


@settings(max_examples=300, deadline=None)
@given(random_orders())
def test_every_difference_of_down_sets_holds_a_singleton_one(order):
    down = _down_sets(*order)
    n = order[0]
    for q in range(n):
        for p in range(n):
            diff = down[q] - down[p]
            if q in down[p]:
                assert not diff
                continue
            assert any(down[m] - down[p] == {m} for m in diff)


def _chain(n):
    return FinitePoset([f"c{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])


def _refuse(*args, **kwargs):
    raise AssertionError("canonical_subset_report must not scan subsets")


@pytest.mark.parametrize(
    "p, expected",
    [
        # bottom row and left column but not the origin: every other point
        # has two lower covers, whose join it is
        (grid(5, 5), {i for i in range(1, 25) if i < 5 or i % 5 == 0}),
        (_chain(25), set(range(1, 25))),
    ],
    ids=["grid5x5", "chain25"],
)
def test_report_runs_without_the_scan(monkeypatch, p, expected):
    with monkeypatch.context() as patch:
        patch.setattr(poset_module, "heyting_implication", _refuse)
        report = canonical_subset_report(p)
    assert report.unique and report.subset == expected
    assert not subset_subcanonicity_witnesses(p, report.subset)
    for drop in report.subset:
        assert subset_subcanonicity_witnesses(p, report.subset - {drop})
