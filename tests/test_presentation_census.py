"""Every lawful nucleus, congruence and sublocale on a catalog frame is the
form of exactly one generating subset X, so there are 2^n of each and the
constructors' subset fallback, the kind's error with law "subset" after a
clean law scan, is unreachable.  Every unlawful one is rejected by its law
scan, which runs once per rejected document."""

from collections import Counter
from itertools import product

import pytest
from conftest import (
    all_subsets,
    congruence_classes_from_covers,
    congruence_law_oracle,
    frame_downsets,
    nucleus_law_oracle,
    nucleus_table_from_covers,
    powerset,
    sublocale_law_oracle,
    sublocale_members_from_covers,
)

from sitecalc import (
    CATALOG_NAMES,
    Congruence,
    NotACongruenceError,
    NotANucleusError,
    NotASublocaleError,
    Nucleus,
    Sublocale,
    catalog_poset,
    enumerate_downsets,
    subset_forms,
    subset_topology,
)


def _generators(poset, frame, form) -> dict:
    """Each form of the subsets of the poset, by cover membership, mapped to
    the subsets that generate it."""
    out: dict = {}
    for x in all_subsets(poset.n):
        out.setdefault(form(subset_topology(poset, x), frame), []).append(x)
    return out


def _partitions(items: list) -> list[list[list]]:
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out = []
    for part in _partitions(rest):
        out.extend(part[:i] + [[first] + part[i]] + part[i + 1:] for i in range(len(part)))
        out.append([[first]] + part)
    return out


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_every_lawful_nucleus_is_implication_from_one_subset(name):
    """antichain3 has 4,096 inflationary tables and 8 nuclei."""
    p = catalog_poset(name)
    frame = enumerate_downsets(p)
    generators = _generators(p, frame, nucleus_table_from_covers)
    ds = frame_downsets(frame)
    above = [[e for e, d in enumerate(ds) if a <= d] for a in ds]
    lawful = 0
    for table in product(*above):
        if nucleus_law_oracle(frame, table):
            lawful += 1
            [x] = generators[table]
            nucleus = Nucleus(frame, table)
            assert (nucleus.subset, nucleus.table) == (x, table)
        else:
            with pytest.raises(NotANucleusError):
                Nucleus(frame, table)
    assert lawful == len(generators) == 2**p.n


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_every_lawful_congruence_is_the_fibres_of_one_subset(name):
    p = catalog_poset(name)
    frame = enumerate_downsets(p)
    generators = {
        frozenset(classes): xs
        for classes, xs in _generators(
            p, frame, lambda t, f: frozenset(congruence_classes_from_covers(t, f))
        ).items()
    }
    lawful = 0
    for part in _partitions(list(range(len(frame)))):
        if congruence_law_oracle(frame, part):
            lawful += 1
            [x] = generators[frozenset(map(frozenset, part))]
            congruence = Congruence(frame, part)
            assert congruence.subset == x
            assert set(congruence.classes) == set(map(frozenset, part))
        else:
            with pytest.raises(NotACongruenceError):
                Congruence(frame, part)
    assert lawful == len(generators) == 2**p.n


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_every_lawful_sublocale_is_the_fixed_points_of_one_subset(name):
    p = catalog_poset(name)
    frame = enumerate_downsets(p)
    generators = _generators(p, frame, sublocale_members_from_covers)
    lawful = 0
    for members in map(frozenset, powerset(range(len(frame)))):
        if sublocale_law_oracle(frame, members):
            lawful += 1
            [x] = generators[members]
            sublocale = Sublocale(frame, members)
            assert (sublocale.subset, sublocale.members) == (x, members)
        else:
            with pytest.raises(NotASublocaleError):
                Sublocale(frame, members)
    assert lawful == len(generators) == 2**p.n


def _corrupted(doc: dict, field: str, size: int) -> list[dict]:
    """Copies of a presentation document with one down-set id changed: a
    nucleus value moved on by one, a class member moved to the next class,
    a member toggled."""
    out = []
    for a in range(size):
        value = [list(v) if isinstance(v, list) else v for v in doc[field]]
        if field == "pairs":
            value[a][1] = (value[a][1] + 1) % size
        elif field == "classes":
            home = next(i for i, c in enumerate(value) if a in c)
            value[home].remove(a)
            value[(home + 1) % len(value)].append(a)
            value = [c for c in value if c]
        else:
            value = sorted(set(value) ^ {a})
        out.append({**doc, field: value})
    return out


def test_each_rejected_document_runs_its_law_scan_once(monkeypatch):
    """The count behind the benchmark's ``localic.law_checks``: one scan per
    rejected document, none per accepted one."""
    calls: Counter = Counter()
    for cls in (Nucleus, Congruence, Sublocale):

        def counted(frame, view, cls=cls, scan=cls._check_laws):
            calls[cls] += 1
            scan(frame, view)

        monkeypatch.setattr(cls, "_check_laws", staticmethod(counted))
    kinds = ((Nucleus, "nucleus", "pairs"), (Congruence, "congruence", "classes"),
             (Sublocale, "sublocale", "members"))
    rejected = Counter()
    for name in CATALOG_NAMES:
        p = catalog_poset(name)
        frame = enumerate_downsets(p)
        for x in all_subsets(p.n):
            forms = subset_forms(p, x)
            for cls, kind, field in kinds:
                for doc in _corrupted(getattr(forms, kind).to_json(), field, len(frame)):
                    calls.clear()
                    try:
                        cls.from_json(doc, p)
                    except (NotANucleusError, NotACongruenceError, NotASublocaleError):
                        assert calls == {cls: 1}, (name, x, kind, doc[field])
                        rejected[cls] += 1
                    else:
                        assert not calls, (name, x, kind, doc[field])
    assert all(rejected[cls] > 0 for cls, _, _ in kinds)
