"""Topology constructors, the axioms, the lattice of topologies, enumeration."""

import pytest
from conftest import (
    LADDER,
    all_subsets,
    complete_scan_oracle,
    covers_of,
    down_set,
    fan,
    powerset,
    sieves_on,
)

from sitecalc import (
    AxiomViolation,
    FinitePoset,
    GrothTopology,
    InvalidInnerTopologyError,
    NotDenseError,
    NotDownwardsDirectedError,
    PosetMismatchError,
    TooLargeForBruteForceError,
    atomic_topology,
    catalog,
    catalog_poset,
    dense_topology,
    derived_topology,
    discrete_topology,
    enumerate_all_topologies,
    extend_topology,
    indiscrete_topology,
    join,
    lx_topology,
    lxy_topology,
    meet,
    restrict_topology,
    subset_of_labels,
    subset_topology,
    topology_leq,
    validate_topology,
)
from sitecalc import sites
from sitecalc.errors import SiteCalcError

SMALL = ("point", "chain2", "chain3", "antichain2", "antichain3", "V", "Lambda")


def _nonempty_sieves(p, q):
    return frozenset(s for s in sieves_on(p, q) if s)


def test_atomic_candidate_fails_stability_on_v():
    v = catalog_poset("V")
    covers = [_nonempty_sieves(v, q) for q in range(v.n)]
    with pytest.raises(AxiomViolation) as exc:
        validate_topology(v, covers)
    err = exc.value
    assert err.axiom == "stability"
    assert v.labels[err.p] == "x"
    assert err.sieve == subset_of_labels(v, ["y"])
    assert v.labels[err.q] == "z"


def test_indiscrete_candidate_is_valid():
    v = catalog_poset("V")
    covers = [frozenset((down_set(v, q),)) for q in range(v.n)]
    assert validate_topology(v, covers) == indiscrete_topology(v)


def test_missing_maximal_sieve():
    chain2 = catalog_poset("chain2")
    covers = [frozenset((frozenset({0}),)), frozenset((frozenset({0}),))]
    with pytest.raises(AxiomViolation) as exc:
        validate_topology(chain2, covers)
    assert exc.value.axiom == "maximality"
    assert exc.value.p == 1


def test_non_sieve_is_rejected():
    chain2 = catalog_poset("chain2")
    covers = [frozenset((frozenset({0}),)), frozenset((frozenset({1}), frozenset({0, 1})))]
    with pytest.raises(AxiomViolation) as exc:
        validate_topology(chain2, covers)
    assert exc.value.axiom == "sieve"


def test_subset_topology_explicit_families_on_v():
    v = catalog_poset("V")
    j = subset_topology(v, subset_of_labels(v, ["y"]))
    x, y, z = (v.index_of(l) for l in "xyz")
    assert covers_of(j)[x] == frozenset(
        {frozenset({y}), frozenset({y, z}), frozenset({x, y, z})}
    )
    assert covers_of(j)[y] == frozenset({frozenset({y})})
    assert covers_of(j)[z] == frozenset({frozenset(), frozenset({z})})
    # oracle: the filter of sieves containing the cut, computed raw
    for p in range(v.n):
        cut = subset_of_labels(v, ["y"]) & down_set(v, p)
        assert covers_of(j)[p] == frozenset(s for s in sieves_on(v, p) if cut <= s)


def test_subset_topology_extremes(catalog_pair):
    _, p = catalog_pair
    assert subset_topology(p, range(p.n)) == indiscrete_topology(p)
    assert subset_topology(p, frozenset()) == discrete_topology(p)


def test_subset_topology_caches_minimum_covers(catalog_pair):
    _, p = catalog_pair
    for x in all_subsets(p.n):
        j = subset_topology(p, x)
        for q in range(p.n):
            least = p.down_closure(x & down_set(p, q))
            assert least in covers_of(j)[q]
            assert all(least <= s for s in covers_of(j)[q])


def test_subset_topology_is_antitone(catalog_pair):
    _, p = catalog_pair
    for x in all_subsets(p.n):
        for y in all_subsets(p.n):
            if x <= y:
                assert topology_leq(subset_topology(p, y), subset_topology(p, x))


def test_generating_subset_examples():
    chain2 = catalog_poset("chain2")
    assert subset_topology(chain2, {0}).subset == frozenset({0})
    assert indiscrete_topology(chain2).subset == frozenset({0, 1})
    assert discrete_topology(chain2).subset == frozenset()


def test_generating_subset_round_trip(catalog_pair):
    _, p = catalog_pair
    for x in all_subsets(p.n):
        assert subset_topology(p, x).subset == x


def test_leq_reverses_generating_subsets(catalog_pair):
    _, p = catalog_pair
    for y in all_subsets(p.n):
        for z in all_subsets(p.n):
            assert topology_leq(subset_topology(p, y), subset_topology(p, z)) == (z <= y)


def test_canonical_constructors():
    v = catalog_poset("V")
    with pytest.raises(NotDownwardsDirectedError):
        atomic_topology(v)
    x = v.index_of("x")
    assert covers_of(dense_topology(v))[x] == frozenset(
        {subset_of_labels(v, ["y", "z"]), frozenset(range(3))}
    )
    chain2 = catalog_poset("chain2")
    assert covers_of(atomic_topology(chain2))[1] == frozenset(
        {frozenset({0}), frozenset({0, 1})}
    )


def test_dense_equals_minimal_subset_topology(catalog_pair):
    _, p = catalog_pair
    assert dense_topology(p) == subset_topology(p, p.minimal_elements())


def test_derived_topology_examples():
    chain2 = catalog_poset("chain2")
    k = derived_topology(chain2, frozenset())
    assert k == atomic_topology(chain2) == subset_topology(chain2, {0})
    diamond = catalog_poset("diamond")
    assert derived_topology(diamond, range(diamond.n)) == subset_topology(
        diamond, range(diamond.n)
    )
    with pytest.raises(NotDownwardsDirectedError):
        derived_topology(catalog_poset("V"), frozenset())


def test_derived_topology_piecewise_shape():
    lam = catalog_poset("Lambda")
    xset = subset_of_labels(lam, ["y"])
    k = derived_topology(lam, xset)
    jx = subset_topology(lam, xset)
    upx = lam.up_closure(xset)
    for p in range(lam.n):
        if p in upx:
            assert covers_of(k)[p] == covers_of(jx)[p]
        else:
            assert covers_of(k)[p] == _nonempty_sieves(lam, p)


def test_derived_equals_subset_with_bottom(catalog_pair):
    _, p = catalog_pair
    if not p.is_downwards_directed() or p.least_element() is None:
        return
    bottom = p.least_element()
    for x in all_subsets(p.n):
        assert derived_topology(p, x) == subset_topology(p, x | {bottom})


def test_restrict_subset_topology_is_indiscrete(catalog_pair):
    _, p = catalog_pair
    for x in all_subsets(p.n):
        j = subset_topology(p, x)
        restricted = restrict_topology(p, j, x)
        assert restricted == indiscrete_topology(p.induced(sorted(x)))


def test_restrict_whole_poset_is_identity(catalog_pair):
    _, p = catalog_pair
    for x in all_subsets(p.n):
        j = subset_topology(p, x)
        assert restrict_topology(p, j, frozenset(range(p.n))) == j


def test_restrict_requires_denseness():
    chain2 = catalog_poset("chain2")
    with pytest.raises(NotDenseError):
        restrict_topology(chain2, indiscrete_topology(chain2), frozenset({0}))


def test_extend_restrict_round_trip():
    # every topology on every subset extends and restricts back to itself
    for name in SMALL:
        p = catalog_poset(name)
        for x in all_subsets(p.n):
            sub = p.induced(sorted(x))
            for inner in enumerate_all_topologies(sub):
                extended = extend_topology(p, x, inner)
                assert restrict_topology(p, extended, x) == inner


def test_extend_is_injective():
    for name in SMALL:
        p = catalog_poset(name)
        for x in all_subsets(p.n):
            sub = p.induced(sorted(x))
            images = [extend_topology(p, x, k) for k in enumerate_all_topologies(sub)]
            assert len(set(images)) == len(images)


def test_extend_examples(catalog_pair):
    _, p = catalog_pair
    for x in all_subsets(p.n):
        sub = p.induced(sorted(x))
        assert extend_topology(p, x, indiscrete_topology(sub)) == subset_topology(p, x)
        extended = extend_topology(p, x, dense_topology(sub))
        assert extended == lx_topology(p, x)
        assert topology_leq(subset_topology(p, x), extended)
    full = frozenset(range(p.n))
    j = dense_topology(p)
    assert extend_topology(p, full, j) == j


def test_extend_rejects_wrong_inner_poset():
    chain2 = catalog_poset("chain2")
    with pytest.raises(InvalidInnerTopologyError):
        extend_topology(chain2, {0}, indiscrete_topology(chain2))


def test_invalid_inner_families_fail_validation():
    # a topology is built from its generating subset, so these families can
    # no longer reach extend_topology; validation rejects them: on {0 < 1}
    # the covers {{0}} at both points miss the maximal sieve {0, 1} of 1
    sub = catalog_poset("chain3").induced([0, 1])
    families = [frozenset((frozenset({0}),))] * 2
    with pytest.raises(PosetMismatchError):
        GrothTopology(sub, families)
    with pytest.raises(AxiomViolation) as exc:
        validate_topology(sub, families)
    assert (exc.value.axiom, exc.value.p) == ("maximality", 1)


def test_lx_examples(catalog_pair):
    _, p = catalog_pair
    assert lx_topology(p, frozenset()) == discrete_topology(p)
    for x in all_subsets(p.n):
        assert lx_topology(p, x) == subset_topology(p, p.minimal_elements(x))


def test_lxy_topology():
    lam = catalog_poset("Lambda")
    x = frozenset(range(lam.n))
    assert lxy_topology(lam, x, frozenset()) == lx_topology(lam, x)
    y = subset_of_labels(lam, ["y"])
    got = lxy_topology(lam, x, y)
    inner = derived_topology(lam, y)
    assert got == extend_topology(lam, x, inner)
    v = catalog_poset("V")
    with pytest.raises(NotDownwardsDirectedError):
        lxy_topology(v, subset_of_labels(v, ["y", "z"]), frozenset())
    for outer, inner in ((["x", "y"], ["z"]), ([], ["y"]), (["x"], ["x", "y"])):
        with pytest.raises(InvalidInnerTopologyError) as exc:
            lxy_topology(lam, subset_of_labels(lam, outer), subset_of_labels(lam, inner))
        assert exc.value.to_json() == {
            "code": "InvalidInnerTopologyError",
            "message": "inner subset must lie inside the outer subset",
            "witness": None,
        }


def test_lxy_defaults_to_lx(catalog_pair):
    _, p = catalog_pair
    for x in all_subsets(p.n):
        if p.is_downwards_directed(x):
            assert lxy_topology(p, x, frozenset()) == lx_topology(p, x)


def test_meet_and_join_of_subset_topologies(catalog_pair):
    _, p = catalog_pair
    for x in all_subsets(p.n):
        for y in all_subsets(p.n):
            jx, jy = subset_topology(p, x), subset_topology(p, y)
            assert meet(jx, jy) == subset_topology(p, x | y)
            assert join(jx, jy) == subset_topology(p, x & y)


def test_join_is_idempotent_and_discrete_cases():
    anti = catalog_poset("antichain2")
    j0, j1 = subset_topology(anti, {0}), subset_topology(anti, {1})
    assert join(j0, j1) == discrete_topology(anti)
    assert join(j0, j0) == j0
    assert meet(j0, j0) == j0


def test_lattice_operations_reject_poset_mismatch():
    with pytest.raises(PosetMismatchError):
        meet(
            indiscrete_topology(catalog_poset("chain2")),
            indiscrete_topology(catalog_poset("antichain2")),
        )


@pytest.mark.parametrize("op", [meet, join])
def test_lattice_operations_reject_unvalidated_input(op):
    # on {0 < 1} the covers {{0}} at both points miss the maximal sieve
    # {0, 1} of 1; they cannot be wrapped as a topology, so they reach op only
    # through validate_topology, which refuses them
    p = catalog_poset("chain3").induced([0, 1])
    bogus = [frozenset({frozenset({0})})] * 2
    with pytest.raises(PosetMismatchError):
        GrothTopology(p, bogus)
    with pytest.raises(AxiomViolation) as exc:
        op(validate_topology(p, bogus), indiscrete_topology(p))
    assert (exc.value.axiom, exc.value.p) == ("maximality", 1)
    # what op builds from valid input passes validation unchanged
    for x in all_subsets(p.n):
        for y in all_subsets(p.n):
            r = op(subset_topology(p, x), subset_topology(p, y))
            assert validate_topology(p, covers_of(r)) == r


def test_every_finite_topology_is_complete(catalog_pair):
    _, p = catalog_pair
    for t in enumerate_all_topologies(p):
        assert complete_scan_oracle(t)


def test_filter_property(catalog_pair):
    _, p = catalog_pair
    for t in enumerate_all_topologies(p):
        for q in range(p.n):
            fam = covers_of(t)[q]
            for s in fam:
                for r in sieves_on(p, q):
                    if s <= r:
                        assert r in fam
                for r in fam:
                    assert (s & r) in fam


def test_enumerate_examples():
    chain2 = catalog_poset("chain2")
    tops = enumerate_all_topologies(chain2)
    assert len(tops) == 4
    assert set(tops) == {subset_topology(chain2, x) for x in all_subsets(2)}
    assert len(enumerate_all_topologies(catalog_poset("point"))) == 2


def test_enumerate_cap():
    with pytest.raises(TooLargeForBruteForceError):
        enumerate_all_topologies(catalog_poset("diamond"), cap=3)


def test_enumerate_is_deterministic():
    v = catalog_poset("V")
    assert enumerate_all_topologies(v) == enumerate_all_topologies(v)


def test_derived_dense_hybrid_is_not_a_topology():
    # gluing the subset topology over the cone with the dense topology off
    # it breaks stability; the exact witness is pinned
    from sitecalc import parse_poset

    p = parse_poset("elements: x y1 y2 / le: y1 x / le: y2 x")
    xset = subset_of_labels(p, ["y1"])
    jx = subset_topology(p, xset)
    dense = dense_topology(p)
    upx = p.up_closure(xset)
    covers = [covers_of(jx)[q] if q in upx else covers_of(dense)[q] for q in range(p.n)]
    with pytest.raises(AxiomViolation) as exc:
        validate_topology(p, covers)
    err = exc.value
    assert err.axiom == "stability"
    assert p.labels[err.p] == "x"
    assert err.sieve == subset_of_labels(p, ["y1"])
    assert p.labels[err.q] == "y2"
    assert err.other == frozenset()


def test_topology_json_round_trip(catalog_pair):
    _, p = catalog_pair
    for x in all_subsets(p.n):
        j = subset_topology(p, x)
        assert GrothTopology.from_json(j.to_json()) == j


# -- topology documents read straight into masks ---------------------------------


def _outcome(read):
    try:
        return read()
    except SiteCalcError as err:
        return (type(err).__name__, err.message, err.witness, getattr(err, "sieve", None))


def _document(p, families):
    return {
        "poset": p.to_json(),
        "covers": {
            p.labels[q]: [[p.labels[e] for e in sorted(s)] for s in fam]
            for q, fam in enumerate(families)
        },
    }


@pytest.mark.parametrize(
    "poset", [*catalog().values(), *LADDER.values()], ids=[*catalog(), *LADDER]
)
def test_documents_of_j_of_x_are_accepted_from_masks(poset, monkeypatch):
    """Every J(X) document is accepted by listing each element's covers from
    its least cover, capped at the size of its family in the document; the
    axiom scan never runs."""
    listed = sites._downset_masks
    element = {down: q for q, down in enumerate(poset.down_masks)}

    def refuse(*args):
        raise AssertionError("a J(X) document was scanned")

    topologies = [subset_topology(poset, xs) for xs in all_subsets(poset.n)]
    docs = [t.to_json() for t in topologies]
    monkeypatch.setattr(sites, "find_axiom_violation", refuse)
    for topology, doc in zip(topologies, docs):
        least = sites._least_covers(poset.down_masks, sites._mask(topology.subset))

        def guarded(p, within, cap, start=0):
            q = element[within]
            assert start == least[q] and cap <= len(doc["covers"][poset.labels[q]])
            return listed(p, within, cap, start)

        monkeypatch.setattr(sites, "_downset_masks", guarded)
        assert GrothTopology.from_json(doc) == topology


def test_a_short_family_on_a_wide_element_stops_the_listing_at_once(monkeypatch):
    """The top of fan(18) has 2^18 + 1 sieves.  A document giving it only its
    maximal sieve and the empty one, and every atom its maximal sieve, has
    the stability witness it had before, and no listing asks for more
    sieves than the top's family holds."""
    p = fan(18)
    labels = p.labels
    covers = {labels[q]: [[labels[e] for e in sorted(down_set(p, q))]] for q in range(p.n)}
    covers["top"].append([])
    caps = []
    listed = sites._downset_masks

    def counted(poset, within, cap, start=0):
        caps.append(cap)
        return listed(poset, within, cap, start)

    monkeypatch.setattr(sites, "_downset_masks", counted)
    with pytest.raises(AxiomViolation) as exc:
        GrothTopology.from_json({"poset": p.to_json(), "covers": covers})
    err = exc.value
    assert err.to_json() == {
        "code": "AxiomViolation", "message": "stability fails at (top, [], t0)", "witness": None
    }
    assert (err.axiom, err.p, err.sieve, err.q, err.other) == (
        "stability", 18, frozenset(), 0, frozenset()
    )
    assert max(caps, default=0) <= 2


@pytest.mark.parametrize("k", [20, 24])
def test_a_two_cover_family_on_a_wide_element_gets_the_transitivity_witness(k, monkeypatch):
    """On fan(k), each atom listing itself and the empty sieve and the top
    listing its maximal sieve and the empty one pass every axiom but
    transitivity: the top needs its 2^k + 1 sieves.  The witness is read off
    the first sieves holding the top's least cover, and no listing asks for
    more sieves than the family it checks holds, two."""
    p = fan(k)
    labels = p.labels
    covers = {labels[q]: [[labels[q]], []] for q in range(k)}
    covers["top"] = [sorted(labels), []]
    caps = []
    listed = sites._downset_masks

    def counted(poset, within, cap, start=0):
        caps.append(cap)
        return listed(poset, within, cap, start)

    monkeypatch.setattr(sites, "_downset_masks", counted)
    with pytest.raises(AxiomViolation) as exc:
        GrothTopology.from_json({"poset": p.to_json(), "covers": covers})
    err = exc.value
    assert err.to_json() == {
        "code": "AxiomViolation",
        "message": "transitivity fails at (top, []); ['t0'] should be a cover",
        "witness": None,
    }
    assert (err.axiom, err.p, err.sieve, err.q, err.other) == (
        "transitivity", k, frozenset(), None, frozenset({0})
    )
    assert caps and max(caps) <= 2


@pytest.mark.parametrize("name", SMALL + ("chain4", "diamond"))
def test_documents_one_sieve_off_j_of_x_get_the_full_checks_verdict(name):
    """Toggling any one sieve on p in any family of any J(X), swapping its
    first cover for any subset of down(p) that is no sieve, so that the
    count still holds, or listing a cover twice, gives from ``from_json``
    exactly what ``validate_topology`` gives on the same families: the
    topology, or the same error, message and witness."""
    p = catalog_poset(name)
    for xs in all_subsets(p.n):
        base = [set(fam) for fam in covers_of(subset_topology(p, xs))]
        for q in range(p.n):
            first = min(base[q], key=sorted)
            changes = [{s} for s in sieves_on(p, q)]
            changes += [
                {first, r}
                for r in map(frozenset, powerset(down_set(p, q)))
                if r not in sieves_on(p, q)
            ]
            for change in changes:
                covers = [set(fam) for fam in base]
                covers[q] ^= change
                doc = _document(p, covers)
                want = _outcome(lambda: validate_topology(p, covers))
                assert _outcome(lambda: GrothTopology.from_json(doc)) == want
                x = [r for r in range(p.n) if covers[r] == {frozenset(down_set(p, r))}]
                listed = [set(fam) for fam in covers_of(subset_topology(p, x))]
                assert isinstance(want, GrothTopology) == (covers == listed)
            doc = _document(p, base)
            label = p.labels[q]
            doc["covers"][label] = doc["covers"][label] + doc["covers"][label][:1]
            assert GrothTopology.from_json(doc) == subset_topology(p, xs)


def test_a_label_repeated_in_a_row_is_one_member():
    """On the chain a < b < c, ``["a", "a", "a", "c"]`` is the non-sieve
    {a, c}, as the parent reader found; reading bits by a sum would carry
    a + a + a + c into {a, b, c}, the maximal sieve, and accept J({c})."""
    p = FinitePoset(["a", "b", "c"], [(0, 1), (1, 2)])
    doc = discrete_topology(p).to_json()
    doc["covers"]["c"] = [["a", "a", "a", "c"], ["a", "b", "c"]]
    with pytest.raises(AxiomViolation) as exc:
        GrothTopology.from_json(doc)
    assert (exc.value.axiom, str(exc.value)) == ("sieve", "['a', 'c'] is not a sieve on c")
    doc["covers"]["c"] = [["a", "a"], [], ["b", "a", "b"], ["c", "b", "a", "a"]]
    assert GrothTopology.from_json(doc) == discrete_topology(p)
