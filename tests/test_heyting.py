"""Heyting implication, frame adjoints, and the frozenset negation and cut
closure of the test oracles, checked against the library's implication and
nucleus validation."""

import pytest
from conftest import (
    all_subsets,
    brute_downsets,
    dm_closure,
    dm_completion,
    double_negation,
    down_set,
    frame_downsets,
    heyting_union_oracle,
    negation,
    nucleus_law_oracle,
)

from sitecalc import (
    FrameMap,
    NotAFrameMorphismError,
    NotANucleusError,
    Nucleus,
    catalog_poset,
    enumerate_downsets,
    heyting_implication,
    parse_poset,
    restriction_frame_map,
    sublocale_from_nucleus,
    subset_of_labels,
    upper_adjoint,
)


def test_heyting_matches_defining_union(catalog_pair):
    _, p = catalog_pair
    for x in all_subsets(p.n):
        for y in all_subsets(p.n):
            assert heyting_implication(p, x, y) == heyting_union_oracle(p, x, y)


def test_heyting_ignores_ids_outside_the_poset(catalog_pair):
    """Ids of X or Y that name no element of P change nothing, as they never
    lie below an element."""
    _, p = catalog_pair
    beyond = {p.n, p.n + 7}
    for x in all_subsets(p.n):
        for y in all_subsets(p.n):
            imp = heyting_union_oracle(p, x, y)
            assert heyting_implication(p, x | beyond, y) == imp
            assert heyting_implication(p, x | beyond, y | {p.n}) == imp


def test_frame_heyting_matches_defining_union(catalog_pair):
    _, p = catalog_pair
    frame = enumerate_downsets(p)
    downsets = frame_downsets(frame)
    for i, a in enumerate(downsets):
        for j, b in enumerate(downsets):
            assert frame.heyting(i, j) == frame.id_of(heyting_union_oracle(p, a, b))


def test_heyting_example_from_wedge():
    lam = catalog_poset("Lambda")
    x = subset_of_labels(lam, ["y"])
    y = down_set(lam, lam.index_of("x"))
    assert heyting_implication(lam, x, y) == down_set(lam, lam.index_of("z"))


def test_heyting_trivial_cases(catalog_pair):
    _, p = catalog_pair
    everything = frozenset(range(p.n))
    for y in all_subsets(p.n):
        assert heyting_implication(p, frozenset(), y) == everything
    assert heyting_implication(p, everything, everything) == everything


def test_heyting_adjunction_exhaustive(catalog_pair):
    _, p = catalog_pair
    downsets = brute_downsets(p)
    for x in all_subsets(p.n):
        for y in all_subsets(p.n):
            imp = heyting_implication(p, x, y)
            for a in downsets:
                assert (a & x <= y) == (a <= imp)


def test_heyting_output_is_down_closed_for_arbitrary_subsets(catalog_pair):
    _, p = catalog_pair
    for x in all_subsets(p.n):
        for y in all_subsets(p.n):
            imp = heyting_implication(p, x, y)
            assert p.down_closure(imp) == imp


def test_negation_examples():
    chain2 = catalog_poset("chain2")
    assert negation(chain2, {0}) == frozenset()
    assert double_negation(chain2, {0}) == frozenset({0, 1})
    assert negation(chain2, frozenset()) == frozenset({0, 1})
    v = catalog_poset("V")
    y, z = v.index_of("y"), v.index_of("z")
    assert negation(v, {y}) == frozenset({z})
    assert double_negation(v, {y}) == frozenset({y})


def test_negation_identities_exhaustive(catalog_pair):
    _, p = catalog_pair
    downsets = brute_downsets(p)
    for a in downsets:
        na = negation(p, a)
        assert a & na == frozenset()
        assert a <= double_negation(p, a)
        assert na == negation(p, double_negation(p, a))
        for b in downsets:
            assert a & heyting_implication(p, a, b) == a & b
            assert (b <= na) == (a & b == frozenset())
            if a <= b:
                assert negation(p, b) <= na
            assert double_negation(p, a & b) == double_negation(p, a) & double_negation(p, b)


# -- adjoints ---------------------------------------------------------------


def test_upper_adjoint_of_restriction_is_implication():
    chain2 = catalog_poset("chain2")
    frame = enumerate_downsets(chain2)
    f = restriction_frame_map(frame, {0})
    g = upper_adjoint(f)
    sub = f.target
    assert g.target.downset(g.table[sub.id_of({0})]) == frozenset({0, 1})
    assert g.target.downset(g.table[sub.id_of(())]) == frozenset()
    for b in range(len(sub)):
        lifted = frozenset(sorted({0})[k] for k in sub.downset(b))
        assert g.target.downset(g.table[b]) == heyting_implication(chain2, {0}, lifted)


def test_upper_adjoint_of_identity():
    frame = enumerate_downsets(catalog_poset("chain3"))
    ident = FrameMap(frame, frame, tuple(range(len(frame))))
    assert upper_adjoint(ident).table == ident.table


def test_constant_to_top_is_not_a_frame_morphism():
    # the all-to-top map drops the empty join, so no adjoint is computed
    frame = enumerate_downsets(catalog_poset("chain2"))
    const = FrameMap(frame, frame, (frame.top_id,) * len(frame))
    with pytest.raises(NotAFrameMorphismError):
        upper_adjoint(const)


def test_adjoint_triple_identities(catalog_pair):
    _, p = catalog_pair
    frame = enumerate_downsets(p)
    for x in all_subsets(p.n):
        f = restriction_frame_map(frame, x)
        g = upper_adjoint(f)
        fg = [f.table[g.table[b]] for b in range(len(f.target))]
        fgf = [fg[f.table[a]] for a in range(len(frame))]
        gfg = [g.table[fg[b]] for b in range(len(f.target))]
        assert fgf == list(f.table)
        assert gfg == list(g.table)


def test_upper_adjoint_preserves_meets():
    lam = catalog_poset("Lambda")
    frame = enumerate_downsets(lam)
    f = restriction_frame_map(frame, subset_of_labels(lam, ["y", "z"]))
    g = upper_adjoint(f)
    sub = f.target
    for a in range(len(sub)):
        for b in range(len(sub)):
            assert g.table[sub.meet(a, b)] == frame.meet(g.table[a], g.table[b])


# -- cut closure ---------------------------------------------------------------


def test_dm_closure_examples():
    chain3 = catalog_poset("chain3")
    assert dm_closure(chain3, {0}) == frozenset({0})
    # empty set: all upper bounds, then their lower bounds
    assert dm_closure(chain3, frozenset()) == frozenset({0})
    anti2 = catalog_poset("antichain2")
    assert dm_closure(anti2, {0}) == frozenset({0})
    assert dm_closure(anti2, frozenset()) == frozenset()


def test_dm_closure_laws(catalog_pair):
    _, p = catalog_pair
    downsets = brute_downsets(p)
    for a in downsets:
        c = dm_closure(p, a)
        assert a <= c
        assert dm_closure(p, c) == c
        for b in downsets:
            if a <= b:
                assert c <= dm_closure(p, b)


def test_dm_closure_meet_law_on_chains():
    for name in ("point", "chain2", "chain3", "chain4"):
        p = catalog_poset(name)
        downsets = brute_downsets(p)
        for a in downsets:
            for b in downsets:
                assert dm_closure(p, a & b) == dm_closure(p, a) & dm_closure(p, b)


def test_dm_closure_meet_law_counterexample_search():
    # the meet law is only promised on linear orders; the catalog must
    # witness a failure somewhere non-linear
    from sitecalc import catalog

    found = []
    for name, p in catalog().items():
        linear = all(
            p.leq(a, b) or p.leq(b, a) for a in range(p.n) for b in range(p.n)
        )
        downsets = brute_downsets(p)
        for a in downsets:
            for b in downsets:
                if dm_closure(p, a & b) != dm_closure(p, a) & dm_closure(p, b):
                    assert not linear
                    found.append((name, a, b))
    assert found, "expected a meet-law failure on some non-linear catalog poset"
    names = {name for name, _, _ in found}
    assert "antichain3" in names


def test_dm_completion_is_a_complete_lattice(catalog_pair):
    """The cut closure is accepted as a nucleus table exactly when the law
    oracle passes it, and then its fixed points are the completion."""
    _, p = catalog_pair
    fixed = dm_completion(p)
    frame = enumerate_downsets(p)
    table = tuple(frame.id_of(dm_closure(p, d)) for d in frame_downsets(frame))
    if nucleus_law_oracle(frame, table):
        members = sublocale_from_nucleus(Nucleus(frame, table)).members
        assert [frame.downset(i) for i in sorted(members)] == list(fixed)
    else:
        with pytest.raises(NotANucleusError):
            Nucleus(frame, table)
    assert all(dm_closure(p, a) == a for a in fixed)
    everything = frozenset(range(p.n))
    assert dm_closure(p, everything) == everything and everything in fixed
    for a in fixed:
        for b in fixed:
            assert (a & b) in fixed
            assert dm_closure(p, a | b) in fixed
    acc = everything
    for a in fixed:
        acc &= a
    assert acc in fixed


def test_dm_completion_contains_principal_ideals(catalog_pair):
    _, p = catalog_pair
    fixed = set(dm_completion(p))
    for q in range(p.n):
        assert down_set(p, q) in fixed


def test_dm_examples_against_scan():
    p = parse_poset("elements: 0 1 2 / le: 0 1 / le: 1 2")
    fixed = dm_completion(p)
    assert set(fixed) == set(brute_downsets(p)) - {frozenset()}
