"""Validation of nuclei, congruences and sublocales through their generating
subset, with the exhaustive law scan kept for the witness of a rejection."""

import os
import subprocess
import sys

import pytest
from conftest import (
    LADDER,
    antichain,
    class_join_table,
    double_negation,
    frame_downsets,
    least_member_table,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import sitecalc
from sitecalc import (
    Congruence,
    FinitePoset,
    NotACongruenceError,
    NotANucleusError,
    NotASublocaleError,
    Nucleus,
    SiteCalcError,
    Sublocale,
    catalog,
    congruence_from_nucleus,
    congruence_from_topology,
    enumerate_all_topologies,
    enumerate_downsets,
    nucleus_from_congruence,
    nucleus_from_sublocale,
    nucleus_from_topology,
    sublocale_from_nucleus,
    sublocale_from_topology,
    subset_forms,
)

POSETS = {**catalog(), **LADDER}
ORACLE_POSETS = {**catalog(), "fence5": LADDER["fence5"], "antichain4": LADDER["antichain4"]}


def _law_scan_forbidden(self):
    raise AssertionError(f"law scan ran on valid input {self!r}")


@pytest.mark.parametrize("name", sorted(POSETS))
def test_valid_presentations_skip_the_law_scan(name, monkeypatch):
    for cls in (Nucleus, Congruence, Sublocale):
        monkeypatch.setattr(cls, "_check_laws", _law_scan_forbidden)
    p = POSETS[name]
    frame = enumerate_downsets(p)
    for t in enumerate_all_topologies(p, cap=p.n):
        nuc = nucleus_from_topology(t)
        cong = congruence_from_topology(t)
        sub = sublocale_from_topology(t)
        assert congruence_from_nucleus(nuc) == cong
        assert sublocale_from_nucleus(nuc) == sub
        assert nucleus_from_congruence(cong) == nuc
        assert nucleus_from_sublocale(sub) == nuc
        assert Nucleus.from_json(nuc.to_json(), p) == nuc
    Nucleus(frame, tuple(frame.id_of(double_negation(p, d)) for d in frame_downsets(frame)))


@pytest.mark.parametrize("name", sorted(ORACLE_POSETS))
def test_conversions_match_direct_formulas(name):
    p = ORACLE_POSETS[name]
    for t in enumerate_all_topologies(p, cap=p.n):
        cong = congruence_from_topology(t)
        sub = sublocale_from_topology(t)
        assert nucleus_from_congruence(cong).table == class_join_table(cong)
        assert nucleus_from_sublocale(sub).table == least_member_table(sub)


# -- the fast path against the law scan on perturbed inputs ------------------


@st.composite
def posets_with_subset(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = [
        (i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())
    ]
    p = FinitePoset(n, pairs)
    xs = draw(st.frozensets(st.integers(min_value=0, max_value=n - 1)))
    return p, xs


def _outcome(build):
    """None on acceptance, else everything the raised domain error carries."""
    try:
        build()
    except SiteCalcError as err:
        extras = tuple(getattr(err, k, None) for k in ("a", "m", "result"))
        return type(err), err.to_json(), extras
    return None


@settings(max_examples=150, deadline=None)
@given(posets_with_subset(), st.data())
def test_nucleus_verdict_matches_law_scan(case, data):
    p, xs = case
    frame = enumerate_downsets(p)
    table = list(subset_forms(p, xs).nucleus.table)
    a = data.draw(st.integers(0, len(frame) - 1))
    table[a] = data.draw(st.integers(0, len(frame) - 1))
    assert _outcome(lambda: Nucleus(frame, table)) == _outcome(
        lambda: Nucleus._check_laws(frame, table)
    )


@settings(max_examples=150, deadline=None)
@given(posets_with_subset(), st.data())
def test_congruence_verdict_matches_law_scan(case, data):
    p, xs = case
    frame = enumerate_downsets(p)
    classes = [set(c) for c in subset_forms(p, xs).congruence.classes]
    a = data.draw(st.integers(0, len(frame) - 1))
    target = data.draw(st.integers(0, len(classes)))
    for c in classes:
        c.discard(a)
    if target == len(classes):
        classes.append({a})
    else:
        classes[target].add(a)
    classes = [c for c in classes if c]
    assert _outcome(lambda: Congruence(frame, classes)) == _outcome(
        lambda: Congruence._check_laws(frame, classes)
    )


@settings(max_examples=150, deadline=None)
@given(posets_with_subset(), st.data())
def test_sublocale_verdict_matches_law_scan(case, data):
    p, xs = case
    frame = enumerate_downsets(p)
    members = set(subset_forms(p, xs).sublocale.members)
    members ^= {data.draw(st.integers(0, len(frame) - 1))}
    assert _outcome(lambda: Sublocale(frame, members)) == _outcome(
        lambda: Sublocale._check_laws(frame, members)
    )


# -- no size cap, and ids out of range ----------------------------------------


def test_presentations_are_validated_at_any_size():
    frame = enumerate_downsets(antichain(13))
    assert len(frame) == 8192
    with pytest.raises(NotANucleusError) as exc:
        Nucleus(frame, [0] * 8192)
    assert exc.value.witness["law"] == "inflation"
    with pytest.raises(NotASublocaleError):
        Sublocale(frame, [0])


def test_bad_ids_and_empty_classes_are_domain_errors():
    frame = enumerate_downsets(antichain(2))
    size = len(frame)
    with pytest.raises(NotANucleusError) as exc:
        Nucleus(frame, [0, 1, 2, size])
    assert exc.value.witness == {"a": ["a0", "a1"], "value": size}
    doc = Nucleus(frame, range(size)).to_json()
    doc["pairs"].append([size, 0])
    with pytest.raises(NotANucleusError) as exc:
        Nucleus.from_json(doc, frame.poset)
    assert exc.value.witness == {"pair": [size, 0]}
    for bad in (size, -1):
        with pytest.raises(NotACongruenceError) as exc:
            Congruence(frame, [[0, 1], [2, 3, bad]])
        assert exc.value.witness == {"id": bad}
    with pytest.raises(NotACongruenceError) as exc:
        Congruence(frame, [[0, 1, 2, 3], []])
    assert exc.value.witness == {"class": []}
    for bad in (True, 1.0):
        with pytest.raises(NotACongruenceError) as exc:
            Congruence(frame, [[0, 2, 3], [bad]])
        assert exc.value.witness["id"] is bad
    for bad in (-1, True, 1.0):
        with pytest.raises(NotANucleusError) as exc:
            Nucleus(frame, [0, bad, 2, 3])
        assert exc.value.witness["value"] is bad
    for table in ([0, 1, 3], [0, 1, 2, 3, 3], []):
        with pytest.raises(NotANucleusError) as exc:
            Nucleus(frame, table)
        assert exc.value.to_json() == {
            "code": "NotANucleusError",
            "message": f"table has {len(table)} entries for a 4-element frame",
            "witness": None,
        }
    for bad in (size, -1, True, "top"):
        with pytest.raises(NotASublocaleError) as exc:
            Sublocale(frame, [size - 1, bad])
        assert exc.value.witness == {"id": bad} and type(exc.value.witness["id"]) is type(bad)


# -- checks that survive python -O --------------------------------------------

BROKEN_KERNEL = """
from sitecalc import NotAFrameMorphismError, catalog_poset, enumerate_downsets
from sitecalc import homomorphism_factorization, poset, restriction_frame_map

f = restriction_frame_map(enumerate_downsets(catalog_poset("chain2")), {0})
homomorphism_factorization(f)
poset._preimage_table = lambda source, target, fibres: (0,) * len(source)
try:
    homomorphism_factorization(f)
except NotAFrameMorphismError as err:
    print(err.witness["law"])
"""


BROKEN_GENERATOR = """
from sitecalc import NotANucleusError, Nucleus, catalog_poset, enumerate_downsets, localic
from sitecalc import nucleus_from_topology, subset_topology

p = catalog_poset("chain2")
frame = enumerate_downsets(p)
table = nucleus_from_topology(subset_topology(p, {0})).table
localic.Nucleus._generate = staticmethod(lambda frame, subset: ())
try:
    Nucleus(frame, table)
except NotANucleusError as err:
    print(err.witness["law"], err.witness["subset"])
"""


def _run_optimized(script: str) -> str:
    src = os.path.dirname(os.path.dirname(os.path.abspath(sitecalc.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_factorization_checks_survive_optimization():
    assert _run_optimized(BROKEN_KERNEL) == "preimage"


def test_presentation_subset_fallback_survives_optimization():
    """A lawful table that a faulty ``_generate`` no longer matches passes
    the law scan and is still rejected, by the kind's own error."""
    assert _run_optimized(BROKEN_GENERATOR) == "subset ['0']"
