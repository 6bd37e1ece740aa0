"""Posets, parsing, the down-set frame, and order morphisms."""

import pytest
from conftest import (
    LADDER,
    all_subsets,
    brute_downsets,
    close_relation,
    covers_of,
    cycle_witness_oracle,
    directed_pairs_oracle,
    down_set,
    downwards_directed_oracle,
    frame_downsets,
    hasse_pairs_oracle,
    minimal_elements_oracle,
    order_sets_oracle,
    recursive_downset_count,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from sitecalc import (
    CycleError,
    DuplicateElementError,
    FinitePoset,
    FrameTooLargeError,
    NotOrderIsomorphismError,
    NotOrderMorphismError,
    OrderMorphism,
    ParseError,
    all_order_isomorphisms,
    all_order_morphisms,
    catalog,
    catalog_poset,
    discrete_topology,
    enumerate_downsets,
    export_dot,
    parse_poset,
    subset_of_labels,
)
from sitecalc import poset as poset_module


def test_parse_v_poset():
    p = parse_poset("elements: x y z / le: y x / le: z x")
    assert p.labels == ("x", "y", "z")
    assert p.leq(1, 0) and p.leq(2, 0)
    assert not p.leq(0, 1) and not p.leq(1, 2)
    assert all(p.leq(i, i) for i in range(3))


def test_parse_singleton():
    p = parse_poset("elements: a")
    assert p.n == 1
    assert p.relation_pairs() == ((0, 0),)


def test_parse_cycle_is_rejected():
    with pytest.raises(CycleError):
        parse_poset("elements: a b / le: a b / le: b a")


def test_parse_takes_transitive_closure():
    p = parse_poset("elements: 0 1 2\nle: 0 1\nle: 1 2")
    assert p.leq(0, 2)


@pytest.mark.parametrize(
    "text, err",
    [
        ("le: a b", ParseError),
        ("elements: a a", DuplicateElementError),
        ("elements: a b / le: a c", ParseError),
        ("elements: a / stuff: a", ParseError),
        ("elements: a / elements: b", ParseError),
        ("elements: a / le: a", ParseError),
    ],
)
def test_parse_errors(text, err):
    with pytest.raises(err):
        parse_poset(text)


@pytest.mark.parametrize(
    "labels, pairs, witness",
    [
        (["a", "b"], [(True, 0)], {"pair": (True, 0)}),
        (2, [(0.0, 1)], {"pair": (0.0, 1)}),
        (2, [("0", 1)], {"pair": ("0", 1)}),
        (2, [(0, 1, 2)], {"pair": (0, 1, 2)}),
        (2, [(0, 2)], {"pair": (0, 2)}),
        (2, [0], {"pair": 0}),
        (["a", "a"], [(0, 5)], {"pair": (0, 5)}),
        ([1, 2], [], {"element": 1}),
        (["a", None], [(0.0, 1)], {"element": None}),
        (3.5, [], {"elements": 3.5}),
        (None, [], {"elements": None}),
        (["a"], 5, {"le_pairs": 5}),
        (["a"], None, {"le_pairs": None}),
    ],
    ids=["bool", "float", "str", "triple", "out-of-range", "not-a-pair", "before-duplicate",
         "int-label", "label-first", "float-labels", "no-labels", "int-pairs", "no-pairs"],
)
def test_constructor_checks_library_input_as_the_json_reader_does(labels, pairs, witness):
    """The constructor is the one check of a poset's entries: what the JSON
    reader rejects is a ParseError with the same text and witness when a
    library caller gives it, labels first, then pairs, then duplicates."""
    with pytest.raises(ParseError) as err:
        FinitePoset(labels, pairs)
    assert err.value.witness == witness
    (key, value), = witness.items()
    if key == "pair":
        assert str(err.value) == f"le_pairs entry {value!r} is not a pair of ids below 2"
    elif key == "element":
        assert str(err.value) == f"element {value!r} is not a string"
    else:
        assert str(err.value) == f"'{key}' is not a list"


def test_constructor_takes_any_iterable_of_labels_and_of_pairs():
    want = FinitePoset(["a", "b"], [(0, 1)])
    assert FinitePoset(("a", "b"), ((0, 1),)) == want
    assert FinitePoset(iter(["a", "b"]), (pair for pair in [[0, 1]])) == want
    assert FinitePoset("ab", {(0, 1)}) == want


@pytest.mark.parametrize("label", ["c", 0, None, ["a"], {"a": 1}])
def test_index_of_names_any_non_label(label):
    with pytest.raises(ParseError) as err:
        FinitePoset(["a", "b"]).index_of(label)
    assert err.value.witness == {"element": label}


def test_poset_json_round_trip(catalog_pair):
    _, p = catalog_pair
    assert FinitePoset.from_json(p.to_json()) == p


def test_down_closure_examples():
    v = catalog_poset("V")
    x = v.index_of("x")
    # reachability oracle: everything reachable downward from x
    reach = {x}
    frontier = [x]
    while frontier:
        cur = frontier.pop()
        for q in range(v.n):
            if v.leq(q, cur) and q not in reach:
                reach.add(q)
                frontier.append(q)
    assert v.down_closure({x}) == frozenset(reach) == frozenset({0, 1, 2})
    assert v.down_closure(frozenset()) == frozenset()


def test_down_closure_fixes_downsets(catalog_pair):
    _, p = catalog_pair
    for d in brute_downsets(p):
        assert p.down_closure(d) == d
    for s in all_subsets(p.n):
        d = p.down_closure(s)
        assert s <= d
        assert p.down_closure(d) == d


def test_up_closure_dual():
    v = catalog_poset("V")
    y = v.index_of("y")
    assert v.up_closure({y}) == frozenset({v.index_of("x"), y})


def test_downset_enumeration_examples():
    v = catalog_poset("V")
    frame = enumerate_downsets(v)
    assert len(frame) == 5
    expected = {
        frozenset(),
        frozenset({1}),
        frozenset({2}),
        frozenset({1, 2}),
        frozenset({0, 1, 2}),
    }
    assert set(frame_downsets(frame)) == expected
    assert len(enumerate_downsets(catalog_poset("antichain3"))) == 8
    assert len(enumerate_downsets(catalog_poset("chain3"))) == 4


def test_downset_enumeration_matches_oracles(catalog_pair):
    _, p = catalog_pair
    frame = enumerate_downsets(p)
    assert set(frame_downsets(frame)) == set(brute_downsets(p))
    assert len(frame) == recursive_downset_count(p)


def test_downset_ids_are_stable_and_lexicographic(catalog_pair):
    _, p = catalog_pair
    frame = enumerate_downsets(p)
    keys = [tuple(1 if i in d else 0 for i in range(p.n)) for d in frame_downsets(frame)]
    assert keys == sorted(keys)
    again = enumerate_downsets(p)
    assert frame_downsets(frame) == frame_downsets(again)


def test_frame_contains_extremes_and_is_closed(catalog_pair):
    _, p = catalog_pair
    frame = enumerate_downsets(p)
    downsets = set(frame_downsets(frame))
    assert frozenset() in downsets
    assert frozenset(range(p.n)) in downsets
    for a in downsets:
        for b in downsets:
            assert (a | b) in downsets
            assert (a & b) in downsets


def test_frame_cap(monkeypatch):
    """The one bound on D(P), ``DEFAULT_FRAME_CAP``, read when a poset lists
    it; a fresh poset, since a catalog poset may already hold its D(P)."""
    assert poset_module.DEFAULT_FRAME_CAP == 2**20
    monkeypatch.setattr(poset_module, "DEFAULT_FRAME_CAP", 3)
    with pytest.raises(FrameTooLargeError) as err:
        enumerate_downsets(FinitePoset(["a", "b", "c"]))
    assert err.value.witness == {"cap": 3}


def test_sieves_are_bounded_downsets(catalog_pair):
    """The covers of J of the empty subset, as the library lists them, are
    every sieve on q."""
    _, p = catalog_pair
    listed = covers_of(discrete_topology(p))
    for q in range(p.n):
        for s in listed[q]:
            assert s <= down_set(p, q)
            assert p.down_closure(s) == s
        assert listed[q] == {d for d in brute_downsets(p) if d <= down_set(p, q)}


def test_export_dot_chain2():
    text = export_dot(catalog_poset("chain2"))
    assert text.count("->") == 1
    assert 'n0 [label="0"]' in text and 'n1 [label="1"]' in text


def test_export_dot_v_covers_only():
    v = catalog_poset("V")
    text = export_dot(v)
    assert "n1 -> n0;" in text and "n2 -> n0;" in text
    assert text.count("->") == 2


def test_export_dot_antichain_has_no_edges():
    assert "->" not in export_dot(catalog_poset("antichain3"))


def test_diamond_covers_skip_transitive_edges():
    d = catalog_poset("diamond")
    assert set(d.hasse_pairs()) == {(0, 1), (0, 2), (1, 3), (2, 3)}


def test_induced_subposet():
    d = catalog_poset("diamond")
    sub = d.induced([0, 1, 3])
    assert sub.labels == ("0", "a", "1")
    assert sub.leq(0, 2) and sub.leq(1, 2) and not sub.leq(2, 0)


def test_least_and_directedness():
    assert catalog_poset("diamond").least_element() == 0
    assert catalog_poset("V").least_element() is None
    assert not catalog_poset("V").is_downwards_directed()
    assert catalog_poset("Lambda").is_downwards_directed()
    lam = catalog_poset("Lambda")
    assert not lam.is_downwards_directed(subset_of_labels(lam, ["y", "z"]))


def test_minimal_elements():
    v = catalog_poset("V")
    assert v.minimal_elements() == subset_of_labels(v, ["y", "z"])
    assert v.minimal_elements(subset_of_labels(v, ["x", "y"])) == subset_of_labels(v, ["y"])


def test_order_morphism_validation():
    chain2 = catalog_poset("chain2")
    anti = catalog_poset("antichain2")
    OrderMorphism(chain2, chain2, (0, 1))
    with pytest.raises(NotOrderMorphismError):
        OrderMorphism(chain2, anti, (0, 1))
    with pytest.raises(NotOrderMorphismError):
        OrderMorphism(chain2, chain2, (1, 0))


def test_order_isomorphism_census():
    chain2 = catalog_poset("chain2")
    anti2 = catalog_poset("antichain2")
    assert len(all_order_isomorphisms(chain2, chain2)) == 1
    assert len(all_order_isomorphisms(anti2, anti2)) == 2
    assert len(all_order_isomorphisms(catalog_poset("V"), catalog_poset("Lambda"))) == 0
    assert len(all_order_isomorphisms(catalog_poset("V"), catalog_poset("V"))) == 2


def test_inverse_of_an_order_isomorphism():
    """The inverse undoes the map and is itself a checked monotone map; a
    monotone bijection that reflects no order has none."""
    for name in ("V", "diamond", "antichain3"):
        p = catalog_poset(name)
        for phi in all_order_isomorphisms(p, p):
            inv = phi.inverse()
            assert inv == OrderMorphism(p, p, inv.mapping)
            assert [inv(phi(x)) for x in range(p.n)] == list(range(p.n))
    onto_chain = OrderMorphism(catalog_poset("antichain2"), catalog_poset("chain2"), (0, 1))
    assert not onto_chain.is_isomorphism()
    with pytest.raises(NotOrderIsomorphismError):
        onto_chain.inverse()


def test_all_order_morphisms_are_monotone():
    chain3 = catalog_poset("chain3")
    maps = all_order_morphisms(chain3, chain3)
    # monotone self-maps of a 3-chain: binomial(2*3-1, 3) = 10
    assert len(maps) == 10
    v = catalog_poset("V")
    for f in all_order_morphisms(v, chain3):
        for a in range(v.n):
            for b in range(v.n):
                if v.leq(a, b):
                    assert chain3.leq(f(a), f(b))


def test_catalog_aliases():
    assert catalog_poset("stability-counterexample") == catalog_poset("V")
    assert catalog_poset("subcanonicity-example") == catalog_poset("Lambda")
    assert set(catalog()) == {
        "point",
        "chain2",
        "chain3",
        "chain4",
        "antichain2",
        "antichain3",
        "V",
        "Lambda",
        "diamond",
    }
    with pytest.raises(KeyError):
        catalog_poset("nope")


@st.composite
def shuffled_posets(draw):
    """A random order on n <= 7 points whose index order need not be a
    linear extension, and a random subset of its elements."""
    n = draw(st.integers(min_value=0, max_value=7))
    perm = draw(st.permutations(range(n)))
    pairs = [
        (perm[i], perm[j]) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())
    ]
    return FinitePoset(n, pairs), draw(st.sets(st.integers(min_value=0, max_value=max(n - 1, 0))))


@settings(max_examples=300, deadline=None)
@given(shuffled_posets())
def test_masks_and_linear_extension_match_the_down_sets(case):
    p, _ = case
    assert p.down_masks == tuple(sum(1 << q for q in down_set(p, e)) for e in range(p.n))
    assert p.linear_extension == tuple(sorted(range(p.n), key=lambda e: (len(down_set(p, e)), e)))
    seen: set[int] = set()
    for e in p.linear_extension:
        assert down_set(p, e) - {e} <= seen
        seen.add(e)
    assert seen == set(range(p.n))


@settings(max_examples=300, deadline=None)
@given(shuffled_posets())
def test_directedness_and_hasse_pairs_match_the_oracles_on_random_posets(case):
    p, subset = case
    subset = {e for e in subset if e < p.n}
    assert p.is_downwards_directed() == downwards_directed_oracle(p)
    assert p.is_downwards_directed(subset) == downwards_directed_oracle(p, subset)
    assert p.hasse_pairs() == hasse_pairs_oracle(p)


@pytest.mark.parametrize("poset", [*catalog().values(), *LADDER.values()])
def test_directedness_and_hasse_pairs_match_the_oracles(poset):
    """Directedness as at most one minimal element, against the ``leq``
    scan over triples and the pairwise scan of down-set masks, on every
    subset."""
    for subset in all_subsets(poset.n):
        directed = poset.is_downwards_directed(subset)
        assert directed == downwards_directed_oracle(poset, subset)
        assert directed == directed_pairs_oracle(poset, subset)
    assert poset.is_downwards_directed() == downwards_directed_oracle(poset)
    assert poset.is_downwards_directed() == directed_pairs_oracle(poset)
    assert poset.hasse_pairs() == hasse_pairs_oracle(poset)
    assert poset.hasse_pairs() is poset.hasse_pairs()


def test_cycle_witness_is_the_least_partner():
    with pytest.raises(CycleError) as err:
        FinitePoset(17, [(0, 2), (2, 16), (16, 0)])
    assert err.value.witness == {"cycle": ["0", "2"]}


@st.composite
def relations(draw):
    """An arbitrary relation on n <= 20 points, cycles and loops included."""
    n = draw(st.integers(min_value=0, max_value=20))
    point = st.integers(min_value=0, max_value=max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(point, point), max_size=2 * n))
    return n, pairs


@settings(max_examples=400, deadline=None)
@given(relations())
def test_closure_and_cycle_witness_match_the_set_fixpoint(case):
    n, pairs = case
    witness = cycle_witness_oracle(n, pairs)
    if witness is not None:
        with pytest.raises(CycleError) as err:
            FinitePoset(n, pairs)
        assert err.value.witness == {"cycle": [str(e) for e in witness]}
        return
    p = FinitePoset(n, pairs)
    up = close_relation(n, pairs)
    assert p.up_masks == tuple(sum(1 << q for q in s) for s in up)
    assert p.down_masks == tuple(sum(1 << q for q in range(n) if e in up[q]) for e in range(n))


def _check_order_masks(p, subset):
    up, down = order_sets_oracle(p)
    assert p.up_masks == tuple(sum(1 << q for q in s) for s in up)
    assert p.down_masks == tuple(sum(1 << q for q in s) for s in down)
    assert p.relation_pairs() == tuple((i, j) for i in range(p.n) for j in sorted(up[i]))
    assert p.minimal_elements() == minimal_elements_oracle(p)
    assert p.minimal_elements(subset) == minimal_elements_oracle(p, subset)
    assert p.down_closure(subset) == frozenset().union(*(down[e] for e in subset))
    assert p.up_closure(subset) == frozenset().union(*(up[e] for e in subset))


@settings(max_examples=300, deadline=None)
@given(shuffled_posets())
def test_order_masks_match_the_oracles_on_random_posets(case):
    p, subset = case
    _check_order_masks(p, {e for e in subset if e < p.n})


@pytest.mark.parametrize("poset", [*catalog().values(), *LADDER.values()])
def test_order_masks_match_the_oracles(poset):
    for subset in all_subsets(poset.n):
        _check_order_masks(poset, subset)
