"""Topologies stored as their generating subset X.

The cover listing, the closed-form constructors and conversions are checked
against the family-building formulas they replaced (the oracles in
``conftest.py``), and validation is checked to end every family of sieves
in J(X) or in the axiom scan's violation.
"""

from itertools import product

import pytest
from conftest import (
    LADDER,
    all_subsets,
    axiom_scan_oracle,
    brute_sieves,
    congruence_classes_from_covers,
    covers_from_congruence,
    covers_from_nucleus,
    covers_from_sublocale,
    covers_of,
    dense_violation_scan,
    extended_covers,
    lx_covers,
    nucleus_table_from_covers,
    powerset,
    restricted_covers,
    subset_covers_oracle,
    sublocale_members_from_covers,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from sitecalc import (
    AxiomViolation,
    Congruence,
    FinitePoset,
    GrothTopology,
    NotDenseError,
    Nucleus,
    PosetMismatchError,
    Sublocale,
    catalog,
    catalog_poset,
    congruence_from_topology,
    discrete_topology,
    enumerate_all_topologies,
    enumerate_downsets,
    extend_topology,
    indiscrete_topology,
    lx_topology,
    lxy_topology,
    nucleus_from_topology,
    restrict_topology,
    sublocale_from_topology,
    subset_of_labels,
    subset_topology,
    topology_from_congruence,
    topology_from_nucleus,
    topology_from_sublocale,
    validate_topology,
)
from sitecalc.sites import dense_violation

POSETS = {**catalog(), **LADDER}


def check_subset(p, x, ds):
    """Every closed form on J(x) against its oracle, with density and
    restriction along each subset D in ``ds``, dense or not."""
    t = subset_topology(p, x)
    assert list(covers_of(t)) == subset_covers_oracle(p, x)
    assert list(covers_of(lx_topology(p, x))) == lx_covers(p, x)
    for d in ds:
        bad = dense_violation(p, t, d)
        assert bad == dense_violation_scan(p, t, d)
        assert (bad is None) == (x <= d)
        if bad is None:
            assert list(covers_of(restrict_topology(p, t, d))) == restricted_covers(p, t, d)
        else:
            with pytest.raises(NotDenseError):
                restrict_topology(p, t, d)


def check_extensions(p, d):
    """Extension of every topology on D, dense or not, against its oracle."""
    sub = p.induced(sorted(d))
    for y in all_subsets(sub.n):
        inner = subset_topology(sub, y)
        assert list(covers_of(extend_topology(p, d, inner))) == extended_covers(p, d, inner)


def check_conversions(t, frame):
    """Both directions between t and its nucleus, congruence and sublocale,
    each against its cover-membership form."""
    nuc = nucleus_from_topology(t)
    assert nuc.table == nucleus_table_from_covers(t, frame)
    cong = congruence_from_topology(t)
    assert set(cong.classes) == congruence_classes_from_covers(t, frame)
    sub = sublocale_from_topology(t)
    assert sub.members == sublocale_members_from_covers(t, frame)
    # the reverse direction starts from presentations built and validated
    # without the library's conversions
    nuc = Nucleus(frame, nucleus_table_from_covers(t, frame))
    cong = Congruence(frame, congruence_classes_from_covers(t, frame))
    sub = Sublocale(frame, sublocale_members_from_covers(t, frame))
    assert list(covers_of(topology_from_nucleus(nuc))) == covers_from_nucleus(nuc)
    assert list(covers_of(topology_from_congruence(cong))) == covers_from_congruence(cong)
    assert list(covers_of(topology_from_sublocale(sub))) == covers_from_sublocale(sub)


@pytest.mark.parametrize("name", sorted(POSETS))
def test_closed_forms_match_the_family_oracles(name):
    p = POSETS[name]
    for x in all_subsets(p.n):
        check_subset(p, x, all_subsets(p.n))
        check_extensions(p, x)


@pytest.mark.parametrize("name", sorted(POSETS))
def test_conversions_match_the_cover_membership_forms(name):
    p = POSETS[name]
    frame = enumerate_downsets(p)
    for t in enumerate_all_topologies(p, cap=p.n):
        check_conversions(t, frame)


def test_dense_witness_is_the_first_uncovered_cut():
    # on V with X = {y} and D = {x}, the cut sieve at x is all of V, a cover;
    # the first uncovered cut is at y, though x comes first among the points
    # above a point of X outside D
    v = catalog_poset("V")
    t = subset_topology(v, subset_of_labels(v, ["y"]))
    d = subset_of_labels(v, ["x"])
    assert v.labels[dense_violation(v, t, d)] == "y"
    assert dense_violation(v, t, d) == dense_violation_scan(v, t, d)


@st.composite
def subset_cases(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    p = FinitePoset(n, pairs)
    x, d = (draw(st.frozensets(st.integers(min_value=0, max_value=n - 1))) for _ in "xd")
    return p, x, d


@settings(max_examples=60, deadline=None)
@given(subset_cases())
def test_closed_forms_match_the_oracles_on_random_posets(case):
    p, x, d = case
    check_subset(p, x, [d, x | d])
    check_extensions(p, d)
    check_conversions(subset_topology(p, x), enumerate_downsets(p))


# -- validation has no outcome besides J(X) and an axiom violation --------------


@pytest.mark.parametrize("name", ["chain2", "chain3", "V", "Lambda"])
def test_every_family_of_sieves_is_j_of_x_or_an_axiom_violation(name):
    """Every assignment of a set of its sieves to each element ends in the
    J(X) that lists exactly those families, or in the violation the axiom
    scan finds: no families pass the axioms without being J(X).  V's top has
    id 0, so its ids are not a linear extension."""
    p = catalog_poset(name)
    choices = [[frozenset(f) for f in powerset(brute_sieves(p, q))] for q in range(p.n)]
    outcomes = set()
    for covers in product(*choices):
        want = axiom_scan_oracle(p, covers)
        try:
            got = covers_of(validate_topology(p, covers))
        except AxiomViolation as err:
            assert want is not None
            assert (err.axiom, err.p, err.sieve, err.q, err.other, err.message) == (
                want.axiom, want.p, want.sieve, want.q, want.other, want.message
            )
            outcomes.add(err.axiom)
        else:
            assert want is None and got == covers
            outcomes.add("J(X)")
    assert {"J(X)", "transitivity"} <= outcomes


def test_constructor_takes_a_subset_of_elements():
    p = catalog_poset("chain2")
    for bad in ([2], [-1], ["0"], [frozenset({0})]):
        with pytest.raises(PosetMismatchError):
            GrothTopology(p, bad)
    t = GrothTopology(p, [1])
    assert t == subset_topology(p, {1}) and hash(t) == hash(subset_topology(p, {1}))
    assert covers_of(t) == tuple(subset_covers_oracle(p, {1}))


def test_validation_takes_one_family_of_element_ids_per_element():
    p = catalog_poset("chain2")
    for bad in ("a", 5, -1, True, 1.0):
        families = [[frozenset({0})], [frozenset({0, 1}), frozenset({0, bad})]]
        with pytest.raises(PosetMismatchError) as exc:
            validate_topology(p, families)
        assert exc.value.witness == {"element": p.labels[1], "id": repr(bad)}
    for k in (1, 3):
        with pytest.raises(PosetMismatchError) as exc:
            validate_topology(p, [{frozenset({0})}] * k)
        assert exc.value.witness == {"families": k, "elements": 2}


def test_validation_names_a_cover_that_is_not_a_collection():
    p = catalog_poset("chain2")
    with pytest.raises(PosetMismatchError) as exc:
        validate_topology(p, [[0], [[0, 1]]])
    assert exc.value.witness == {"element": p.labels[0], "sieve": "0"}


def test_constructor_names_an_unhashable_member():
    p = catalog_poset("chain2")
    with pytest.raises(PosetMismatchError) as exc:
        GrothTopology(p, [[0]])
    assert exc.value.witness == {"id": "[0]"}


def _bad_id(call):
    with pytest.raises(PosetMismatchError) as exc:
        call()
    return exc.value.witness


def test_extend_topology_checks_its_subset():
    p = catalog_poset("chain2")
    inner = indiscrete_topology(p.induced([0]))
    assert _bad_id(lambda: extend_topology(p, [0, 7], inner)) == {"id": "7"}


def test_lxy_topology_checks_both_subsets():
    p = catalog_poset("chain2")
    assert _bad_id(lambda: lxy_topology(p, [0, 9], [0])) == {"id": "9"}
    assert _bad_id(lambda: lxy_topology(p, [0, 1], [True])) == {"id": "True"}


def test_restrict_topology_checks_its_subset_before_density():
    p = catalog_poset("chain2")
    t = discrete_topology(p)
    assert _bad_id(lambda: restrict_topology(p, t, [0, 7])) == {"id": "7"}


def test_dense_violation_checks_its_subset():
    p = catalog_poset("chain2")
    t = discrete_topology(p)
    assert _bad_id(lambda: dense_violation(p, t, [-1])) == {"id": "-1"}
