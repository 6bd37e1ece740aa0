"""Nuclei, congruences, sublocales, quotients, and the conversion diagram."""

import pytest
from conftest import (
    LADDER,
    all_subsets,
    antichain,
    class_join_table,
    congruence_complete_scan,
    covers_of,
    dm_closure,
    double_negation,
    down_set,
    frame_downsets,
    heyting_union_oracle,
    nucleus_complete_scan,
    nucleus_table_from_covers,
    sublocale_failure_oracle,
    sublocale_frame_iso_oracle,
    sublocale_members_from_covers,
)

from sitecalc import (
    CATALOG_NAMES,
    Congruence,
    FrameMap,
    NotACongruenceError,
    NotANucleusError,
    NotASublocaleError,
    NotSurjectiveError,
    Nucleus,
    Sublocale,
    catalog,
    catalog_poset,
    congruence_from_nucleus,
    congruence_from_topology,
    discrete_topology,
    enumerate_all_topologies,
    enumerate_downsets,
    homomorphism_factorization,
    indiscrete_topology,
    mx_frame_isomorphism,
    nucleus_from_congruence,
    nucleus_from_sublocale,
    nucleus_from_topology,
    restriction_frame_map,
    sublocale_from_nucleus,
    sublocale_from_topology,
    subset_forms,
    subset_topology,
    topology_from_congruence,
    topology_from_nucleus,
    topology_from_sublocale,
    upper_adjoint,
    verify_commuting_diagram,
)
from sitecalc import localic
from sitecalc.errors import SiteCalcError

SMALL = ("point", "chain2", "chain3", "antichain2", "antichain3", "V", "Lambda")


def _identity_nucleus(frame):
    return Nucleus(frame, tuple(range(len(frame))))


def test_nucleus_of_extreme_topologies(catalog_pair):
    _, p = catalog_pair
    frame = enumerate_downsets(p)
    assert nucleus_from_topology(indiscrete_topology(p)) == _identity_nucleus(frame)
    dis = nucleus_from_topology(discrete_topology(p))
    assert dis.table == (frame.top_id,) * len(frame)


def test_nucleus_example_on_chain2():
    chain2 = catalog_poset("chain2")
    frame = enumerate_downsets(chain2)
    nuc = nucleus_from_topology(subset_topology(chain2, {0}))
    assert frame.downset(nuc.table[frame.id_of({0})]) == frozenset({0, 1})
    assert frame.downset(nuc.table[frame.id_of(())]) == frozenset()


def test_nucleus_laws_are_enforced():
    anti3 = catalog_poset("antichain3")
    frame = enumerate_downsets(anti3)
    # cut closure fails binary meets off linear orders
    table = tuple(frame.id_of(dm_closure(anti3, d)) for d in frame_downsets(frame))
    with pytest.raises(NotANucleusError):
        Nucleus(frame, table)
    chain3 = catalog_poset("chain3")
    frame3 = enumerate_downsets(chain3)
    Nucleus(frame3, tuple(frame3.id_of(dm_closure(chain3, d)) for d in frame_downsets(frame3)))


def test_congruence_examples():
    chain2 = catalog_poset("chain2")
    frame = enumerate_downsets(chain2)
    diag = congruence_from_nucleus(_identity_nucleus(frame))
    assert all(len(c) == 1 for c in diag.classes)
    total = congruence_from_nucleus(
        Nucleus(frame, (frame.top_id,) * len(frame))
    )
    assert len(total.classes) == 1
    j0 = nucleus_from_topology(subset_topology(chain2, {0}))
    cong = congruence_from_nucleus(j0)
    assert set(cong.classes) == {
        frozenset({frame.id_of(frozenset())}),
        frozenset({frame.id_of(frozenset({0})), frame.id_of(frozenset({0, 1}))}),
    }


def test_congruence_laws_are_enforced():
    chain2 = catalog_poset("chain2")
    frame = enumerate_downsets(chain2)
    empty, bottom, top = (
        frame.id_of(frozenset()),
        frame.id_of(frozenset({0})),
        frame.id_of(frozenset({0, 1})),
    )
    with pytest.raises(NotACongruenceError):
        Congruence(frame, [[empty, top], [bottom]])
    with pytest.raises(NotACongruenceError):
        Congruence(frame, [[empty, bottom], [bottom, top]])


def test_sublocale_examples():
    chain2 = catalog_poset("chain2")
    frame = enumerate_downsets(chain2)
    assert sublocale_from_nucleus(_identity_nucleus(frame)).members == frozenset(
        range(len(frame))
    )
    const = Nucleus(frame, (frame.top_id,) * len(frame))
    assert sublocale_from_nucleus(const).members == frozenset({frame.top_id})


def test_two_point_candidate_fails_on_v_with_witness():
    v = catalog_poset("V")
    frame = enumerate_downsets(v)
    with pytest.raises(NotASublocaleError) as exc:
        Sublocale(frame, [frame.bottom_id, frame.top_id])
    err = exc.value
    z, y = v.index_of("z"), v.index_of("y")
    assert err.a == frozenset({z})
    assert err.m == frozenset()
    assert err.result == frozenset({y})


@pytest.mark.parametrize("name", [*CATALOG_NAMES, *LADDER])
def test_sublocale_witness_is_the_first_failure_in_id_order(name):
    """Every sublocale with one id added or dropped, handed over in
    descending order: a rejected set raises the first failing law of the
    oracle, with a, m and the result of the first failing pair in id
    order."""
    p = {**catalog(), **LADDER}[name]
    frame = enumerate_downsets(p)
    rejected = 0
    for x in all_subsets(p.n):
        members = sublocale_from_topology(subset_topology(p, x)).members
        for i in range(len(frame)):
            perturbed = sorted(members ^ {i}, reverse=True)
            expected = sublocale_failure_oracle(frame, perturbed)
            if expected is None:
                assert Sublocale(frame, perturbed).members == frozenset(perturbed)
                continue
            with pytest.raises(NotASublocaleError) as exc:
                Sublocale(frame, perturbed)
            err = exc.value
            got = (err.a, err.m, err.result)
            assert got == ((None,) * 3 if expected == ("top",) else expected[1:]), (x, i)
            rejected += 1
    assert rejected


def test_subset_forms_extremes(catalog_pair):
    _, p = catalog_pair
    frame = enumerate_downsets(p)
    full = subset_forms(p, range(p.n))
    assert full.nucleus == _identity_nucleus(frame)
    assert full.sublocale.members == frozenset(range(len(frame)))
    empty = subset_forms(p, frozenset())
    assert empty.nucleus.table == (frame.top_id,) * len(frame)
    assert empty.sublocale.members == frozenset({frame.top_id})


def test_subset_forms_fixed_points_on_chain2():
    # oracle: exhaustive fixed-point scan of implication from {0}
    chain2 = catalog_poset("chain2")
    frame = enumerate_downsets(chain2)
    xs = frozenset({0})
    fixed = {d for d in frame_downsets(frame) if heyting_union_oracle(chain2, xs, d) == d}
    assert fixed == {frozenset(), frozenset({0, 1})}
    forms = subset_forms(chain2, xs)
    assert {frame.downset(i) for i in forms.sublocale.members} == fixed
    assert forms.sublocale == sublocale_from_topology(subset_topology(chain2, xs))


def test_subset_forms_match_topology_conversions(catalog_pair):
    _, p = catalog_pair
    for x in all_subsets(p.n):
        forms = subset_forms(p, x)
        j = subset_topology(p, x)
        assert forms.nucleus == nucleus_from_topology(j)
        assert forms.congruence == congruence_from_topology(j)
        assert forms.sublocale == sublocale_from_topology(j)
        assert topology_from_nucleus(forms.nucleus) == j


def test_subset_congruence_relates_equal_cuts(catalog_pair):
    _, p = catalog_pair
    frame = enumerate_downsets(p)
    for x in all_subsets(p.n):
        cong = subset_forms(p, x).congruence
        for a in range(len(frame)):
            for b in range(len(frame)):
                assert cong.related(a, b) == (
                    frame.downset(a) & x == frame.downset(b) & x
                )


def test_subset_nucleus_is_adjoint_composite(catalog_pair):
    _, p = catalog_pair
    frame = enumerate_downsets(p)
    for x in all_subsets(p.n):
        f = restriction_frame_map(frame, x)
        g = upper_adjoint(f)
        composite = tuple(g.table[f.table[a]] for a in range(len(frame)))
        assert composite == subset_forms(p, x).nucleus.table


# -- the fibres of d -> d & X ---------------------------------------------------


@pytest.mark.parametrize("name", [*CATALOG_NAMES, *LADDER])
def test_fibre_tops_are_the_members_and_the_nucleus_values(name):
    """Each sublocale member is the largest id of its fibre of d -> d & X,
    and the nucleus sends every id of the fibre there.  Fibres, table and
    members come from cuts and cover membership, not from the library."""
    p = LADDER[name] if name in LADDER else catalog_poset(name)
    frame = enumerate_downsets(p)
    for x in all_subsets(p.n):
        j = subset_topology(p, x)
        fibres: dict = {}
        for a, d in enumerate(frame_downsets(frame)):
            fibres.setdefault(d & x, []).append(a)
        tops = {max(f) for f in fibres.values()}
        table = nucleus_table_from_covers(j, frame)
        assert sublocale_members_from_covers(j, frame) == tops
        assert all(table[a] == max(f) for f in fibres.values() for a in f)
        forms = subset_forms(p, x)
        assert forms.nucleus.table == table
        assert forms.congruence.classes == tuple(map(frozenset, fibres.values()))
        assert forms.sublocale.members == tops


@pytest.mark.parametrize("x", [range(0, 13, 2), range(13), ()], ids=["seven", "all", "none"])
def test_fibre_views_at_8192_downsets(x):
    p, x = antichain(13), frozenset(x)
    frame = enumerate_downsets(p)
    forms = subset_forms(p, x)
    classes, members = forms.congruence.classes, forms.sublocale.members
    assert len(frame) == 8192
    assert len(classes) == len(members) == 2 ** len(x)
    assert forms.nucleus.table == class_join_table(forms.congruence)
    assert members == sublocale_members_from_covers(subset_topology(p, x), frame)
    assert Nucleus(frame, forms.nucleus.table).subset == x
    assert Congruence(frame, classes).subset == x
    assert Sublocale(frame, members).subset == x


def test_mx_frame_isomorphism(catalog_pair):
    """The closed form equals the frozenset construction, whose bijection,
    inverse, meet and join checks the oracle asserts, on every subset."""
    _, p = catalog_pair
    frame = enumerate_downsets(p)
    for x in all_subsets(p.n):
        iso = mx_frame_isomorphism(p, x)
        assert (iso.forward, iso.backward) == sublocale_frame_iso_oracle(p, x, frame)
        assert iso.sublocale == sublocale_from_topology(subset_topology(p, x))
        assert iso.sub_frame == enumerate_downsets(p.induced(sorted(x)))


def _double_negation_table(p, frame):
    return tuple(frame.id_of(double_negation(p, d)) for d in frame_downsets(frame))


def test_double_negation_examples():
    chain2 = catalog_poset("chain2")
    frame = enumerate_downsets(chain2)
    nuc = Nucleus(frame, _double_negation_table(chain2, frame))
    assert frame.downset(nuc.table[frame.id_of({0})]) == frozenset({0, 1})
    assert frame.downset(nuc.table[frame.id_of(())]) == frozenset()
    v = catalog_poset("V")
    framev = enumerate_downsets(v)
    nucv = Nucleus(framev, _double_negation_table(v, framev))
    y = v.index_of("y")
    assert framev.downset(nucv.table[framev.id_of(down_set(v, y))]) == frozenset({y})


def test_double_negation_gives_the_dense_topology(catalog_pair):
    from sitecalc import dense_topology

    _, p = catalog_pair
    frame = enumerate_downsets(p)
    nuc = Nucleus(frame, _double_negation_table(p, frame))
    assert nuc.subset == p.minimal_elements()
    assert topology_from_nucleus(nuc) == dense_topology(p)


def test_conversion_monotonicity():
    for name in SMALL:
        p = catalog_poset(name)
        frame = enumerate_downsets(p)
        tops = enumerate_all_topologies(p)
        data = [
            (
                t,
                nucleus_from_topology(t),
                congruence_from_topology(t),
                sublocale_from_topology(t),
            )
            for t in tops
        ]
        for t1, n1, c1, s1 in data:
            for t2, n2, c2, s2 in data:
                tle = all(covers_of(t1)[q] <= covers_of(t2)[q] for q in range(p.n))
                nle = all(
                    frame.downset(n1.table[a]) <= frame.downset(n2.table[a])
                    for a in range(len(frame))
                )
                rel1 = {(a, b) for a in range(len(frame)) for b in range(len(frame)) if c1.related(a, b)}
                rel2 = {(a, b) for a in range(len(frame)) for b in range(len(frame)) if c2.related(a, b)}
                assert tle == nle == (rel1 <= rel2) == (s2.members <= s1.members)


def test_sublocales_closed_under_intersection():
    for name in SMALL:
        p = catalog_poset(name)
        frame = enumerate_downsets(p)
        subs = [
            sublocale_from_topology(t) for t in enumerate_all_topologies(p)
        ]
        for s1 in subs:
            for s2 in subs:
                Sublocale(frame, s1.members & s2.members)
        acc = frozenset(range(len(frame)))
        for s in subs:
            acc &= s.members
        Sublocale(frame, acc)


def test_everything_is_complete_on_finite_frames(catalog_pair):
    _, p = catalog_pair
    for t in enumerate_all_topologies(p):
        nuc = nucleus_from_topology(t)
        assert nucleus_complete_scan(nuc)
        assert congruence_complete_scan(congruence_from_nucleus(nuc))


def test_quotient_extremes():
    """The identity factors through the diagonal congruence, one class per
    down-set; the map onto D(empty) through the total one."""
    chain2 = catalog_poset("chain2")
    frame = enumerate_downsets(chain2)
    ident = homomorphism_factorization(FrameMap(frame, frame, tuple(range(len(frame)))))
    assert ident.kernel == congruence_from_nucleus(_identity_nucleus(frame))
    assert len(ident.kernel.classes) == len(frame) and ident.iso == tuple(range(len(frame)))
    total = homomorphism_factorization(restriction_frame_map(frame, ()))
    assert total.kernel == congruence_from_nucleus(Nucleus(frame, (frame.top_id,) * len(frame)))
    assert len(total.kernel.classes) == 1 and total.iso == (0,)


def test_factorization_of_restriction():
    chain2 = catalog_poset("chain2")
    frame = enumerate_downsets(chain2)
    f = restriction_frame_map(frame, {0})
    witness = homomorphism_factorization(f)
    assert len(witness.kernel.classes) == 2 == len(f.target)
    assert witness.kernel == subset_forms(chain2, {0}).congruence


def test_factorization_rejects_non_surjections():
    point = catalog_poset("point")
    chain2 = catalog_poset("chain2")
    small = enumerate_downsets(point)
    big = enumerate_downsets(chain2)
    table = (big.bottom_id, big.top_id)
    with pytest.raises(NotSurjectiveError):
        homomorphism_factorization(FrameMap(small, big, table))


def test_extract_subset_round_trip(catalog_pair):
    """X read back off the classes of the congruence it generates, given as
    input from outside."""
    _, p = catalog_pair
    frame = enumerate_downsets(p)
    for x in all_subsets(p.n):
        cong = subset_forms(p, x).congruence
        assert Congruence(frame, cong.classes).subset == x
    diag = congruence_from_nucleus(_identity_nucleus(frame))
    assert Congruence(frame, diag.classes).subset == frozenset(range(p.n))
    total = congruence_from_nucleus(Nucleus(frame, (frame.top_id,) * len(frame)))
    assert Congruence(frame, total.classes).subset == frozenset()


def test_direct_conversion_round_trips():
    chain2 = catalog_poset("chain2")
    for x in all_subsets(chain2.n):
        j = subset_topology(chain2, x)
        nuc = nucleus_from_topology(j)
        cong = congruence_from_nucleus(nuc)
        sub = sublocale_from_nucleus(nuc)
        assert nucleus_from_congruence(cong) == nuc
        assert nucleus_from_sublocale(sub) == nuc
        assert topology_from_congruence(cong) == j
        assert topology_from_sublocale(sub) == j


def test_commuting_diagram(catalog_pair):
    name, p = catalog_pair
    report = verify_commuting_diagram(p)
    assert report.ok, (name, report.failures)
    assert report.topology_count == 2**p.n


def test_localic_json_round_trips():
    chain2 = catalog_poset("chain2")
    forms = subset_forms(chain2, {0})
    assert Nucleus.from_json(forms.nucleus.to_json(), chain2) == forms.nucleus
    assert Congruence.from_json(forms.congruence.to_json(), chain2) == forms.congruence
    assert Sublocale.from_json(forms.sublocale.to_json(), chain2) == forms.sublocale
    assert Nucleus.from_json(forms.nucleus.to_json()) == forms.nucleus


@pytest.mark.parametrize(
    "poset", [*catalog().values(), *LADDER.values()], ids=[*catalog(), *LADDER]
)
def test_sublocale_members_are_read_off_the_downsets_of_x(poset):
    """The sublocale of J(X) built from D(X), j(down(y)) for each down-set y
    of X, is the set of fibre tops of d -> d & X over all of D(P)."""
    frame = enumerate_downsets(poset)
    for xs in all_subsets(poset.n):
        mask = sum(1 << e for e in xs)
        assert Sublocale._generate(frame, xs) == frozenset(localic._fibres(frame, mask)[1])
        assert len(Sublocale._generate(frame, xs)) == len(enumerate_downsets(poset.induced(xs)))


@pytest.mark.parametrize(
    "classes, code, witness",
    [
        ([[0, 1], [True]], "NotACongruenceError", {"id": True}),
        ([[0, 1], [2, "2"]], "ParseError", {"class": [2, "2"]}),
        ([[True], [0, 1, 2, "x"]], "ParseError", {"class": [0, 1, 2, "x"]}),
        ([[0, 7], [1, 2, 1.5]], "ParseError", {"class": [1, 2, 1.5]}),
        ([[0, 1], [2, 2.0]], "ParseError", {"class": [2, 2.0]}),
        ([[0, 7], [1, 2]], "NotACongruenceError", {"id": 7}),
        ([[], [0, 1, 2]], "NotACongruenceError", {"class": []}),
        ([[0, 1], [[2]]], "ParseError", {"class": [[2]]}),
        ([[0, 1], 2], "ParseError", {"class": 2}),
    ],
    ids=[
        "bool", "str", "str-after-bool", "float-after-range", "float-equal-to-an-int",
        "range", "empty", "list", "int",
    ],
)
def test_congruence_members_are_checked_once_with_their_codes(classes, code, witness):
    """Each check runs once and keeps each input's error: the reader's pass
    over the listed classes makes a class that is no list of ints, 2.0
    beside 2 among them, a ParseError, before the constructor sees any
    class, so it outranks a bool, an out-of-range id or an empty class
    listed before it, which the constructor makes a NotACongruenceError."""
    frame = enumerate_downsets(catalog_poset("chain2"))
    doc = {**frame.to_json(), "classes": classes}
    with pytest.raises(SiteCalcError) as err:
        Congruence.from_json(doc, frame.poset)
    assert (err.value.code, err.value.witness) == (code, witness)
    if code == "NotACongruenceError":
        with pytest.raises(NotACongruenceError) as err:
            Congruence(frame, classes)
        assert err.value.witness == witness
