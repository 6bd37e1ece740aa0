"""Shared oracles, iteration helpers and poset families.

The oracles here deliberately avoid the library's own computation paths:
down-sets by raw subset filtering, counts by interval recursion, Heyting
implication by its defining union, and the nuclei of congruences and
sublocales by their direct formulas on frozensets.
"""

from __future__ import annotations

from itertools import chain, combinations

import pytest

from sitecalc import CATALOG_NAMES, FinitePoset, catalog


def all_subsets(n: int):
    """Every subset of range(n) as a frozenset, in bitmask order."""
    for bits in range(1 << n):
        yield frozenset(i for i in range(n) if bits >> i & 1)


def brute_downsets(poset: FinitePoset) -> list[frozenset[int]]:
    """All down-sets by filtering every subset."""
    out = []
    for s in all_subsets(poset.n):
        if all(q in s for p in s for q in poset.down(p)):
            out.append(s)
    return out


def recursive_downset_count(poset: FinitePoset, elems: frozenset[int] | None = None) -> int:
    """Split on one element: down-sets avoid its up-set or contain its down-set."""
    if elems is None:
        elems = frozenset(range(poset.n))
    if not elems:
        return 1
    p = min(elems)
    return recursive_downset_count(
        poset, elems - (poset.up(p) & elems)
    ) + recursive_downset_count(poset, elems - (poset.down(p) & elems))


def heyting_union_oracle(poset: FinitePoset, x, y) -> frozenset[int]:
    """The defining union of all down-sets whose cut along x lands in y."""
    xs, ys = frozenset(x), frozenset(y)
    acc: frozenset[int] = frozenset()
    for d in brute_downsets(poset):
        if d & xs <= ys:
            acc |= d
    return acc


def powerset(iterable):
    items = list(iterable)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


@pytest.fixture(params=CATALOG_NAMES)
def catalog_pair(request):
    return request.param, catalog()[request.param]


def class_join_table(congruence) -> tuple[int, ...]:
    """Each down-set sent to the union of its whole class, element by element."""
    frame = congruence.frame
    table = []
    for a in range(len(frame)):
        acc: frozenset[int] = frozenset()
        for b in congruence.classes[congruence.class_of[a]]:
            acc |= frame.downset(b)
        table.append(frame.id_of(acc))
    return tuple(table)


def least_member_table(sublocale) -> tuple[int, ...]:
    """Each down-set sent to the intersection of all members above it."""
    frame = sublocale.frame
    table = []
    for a in range(len(frame)):
        acc = frozenset(range(frame.poset.n))
        for m in sublocale.members:
            if frame.downset(a) <= frame.downset(m):
                acc &= frame.downset(m)
        table.append(frame.id_of(acc))
    return tuple(table)


def antichain(n: int) -> FinitePoset:
    return FinitePoset([f"a{i}" for i in range(n)])


def fence(n: int) -> FinitePoset:
    """Zigzag f0 < f1 > f2 < f3 ...; even positions are minimal."""
    pairs = [(i, i + 1) if i % 2 == 0 else (i + 1, i) for i in range(n - 1)]
    return FinitePoset([f"f{i}" for i in range(n)], pairs)


def grid(rows: int, cols: int) -> FinitePoset:
    """Product of two chains, ordered componentwise."""
    pairs = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if r + 1 < rows:
                pairs.append((i, i + cols))
            if c + 1 < cols:
                pairs.append((i, i + 1))
    return FinitePoset([f"g{r}_{c}" for r in range(rows) for c in range(cols)], pairs)


# Posets beyond the catalog, small enough to enumerate every topology.
LADDER = {"fence5": fence(5), "antichain4": antichain(4), "grid2x3": grid(2, 3)}
