"""Shared oracles, iteration helpers and poset families.

The oracles here deliberately avoid the library's own computation paths:
down-sets by raw subset filtering, counts by interval recursion, Heyting
implication by its defining union, the nuclei of congruences and
sublocales by their direct formulas on frozensets (the class-join and
least-member passes the conversions replaced by passing X along), and the
laws of nuclei, congruences and sublocales by their definitions on every
down-set, pair and triple.  Topologies have their
own: the stock constructors by their defining formulas, meet as pointwise
intersection, join by saturating the pointwise union, restriction by
down-closure, and completeness by scanning every family of fibers or
classes.  The closed forms on a topology's generating subset have the
family-building formulas they replaced: J(X), lx, extension and the
density witness on raw sieves, and the conversions between topologies and
nuclei, congruences and sublocales by cover membership.  The least
subcanonical generating subset has the scan over every subset that its
closed form replaced, and subcanonicity, now C <= X, has the per-element
Heyting criterion and the representable-by-representable test.  Sheaf
checks have the all-covers scan that the least-cover decision replaced,
with families from the raw product of value sets.  The matching-family
kernel, which checks the cover pairs of the member set on masks, has the
depth-first search by ``leq`` on every pair that it replaced, and the
pair check and amalgamation search that left the library live here as
``matching_violation`` and ``amalgamations``.  The topology census
has the search over every family of sieves, which re-derives the normal
form the census assumes, and the axiom scan on masks
has the frozenset scan it replaced, with every sieve from ``brute_sieves``.
``covers_of`` reads the production cover listing back as frozensets, for
comparison with these oracles.  Site-morphism reports, subcanonicity and
completeness have the scans over every cover of J(X) that their closed forms
in X replaced.  The right Kan extension Ran_X reads its families off the raw
product of value sets, and natural isomorphism transports a presheaf along
every tuple of componentwise permutations.  The down-set frame, enumerated
on bitmasks, has the frozenset enumeration and characteristic-vector sort
that it replaced.  The order closure on masks has the set fixpoint it
replaced, with the least cycle witness read off that closure; the up-sets
and down-sets, the minimal elements, directedness and the Hasse pairs,
read off the masks, have the ``leq`` and ``lt`` scans they replaced;
directedness, now a count of minimal elements, also has the pairwise scan
of down-set masks it replaced; and the tops of each cut of J(X) have the
maximal elements of the cut by ``lt``.  Presheaf construction, which
checks composition on cover-edge triples, has the scan over every triple
that it replaced, and the presheaf reader, which looks keys up in a table of
pair names and leaves every law to the constructor, has the member-by-member
reader and the constructor loop over the frozenset up-sets that it replaced.
Naturality, checked on cover-edge squares, has the scan over every strict
pair with its first failing pair.

The frozenset forms that the library no longer carries live here: the
up-set and down-set of one element (``up_set``, ``down_set``, from the
``leq`` scan), the frame's down-sets by id, the sieves on p, negation and double negation by
the defining union, and the cut closure with its completion, an input
builder for nucleus tables that are lawful on chains only.  The closed-form
isomorphism between a subset sublocale and D(X) has the frozenset
construction with its bijection, inverse, meet and join checks, and the
sublocale law scan has the first failing law in id order.

Frame maps, accepted by Birkhoff duality as the preimage map of one
monotone map between the posets, have the loops that closed form
replaced: the law scan over every pair of down-sets with its first
failing law, the upper adjoint as the union of everything mapped below
with the adjunction checked on every pair, and the factorization through
a quotient on class representatives, checked for injectivity, meets and
joins on every pair of classes, and recomposition.  Preimage tables are
built on frozensets.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, combinations, permutations, product
from typing import Iterator, Sequence

import pytest

from sitecalc import (
    CATALOG_NAMES,
    Congruence,
    FinitePoset,
    NotSurjectiveError,
    catalog,
    validate_topology,
)
from sitecalc.errors import AxiomViolation, FunctorialityError, ParseError
from sitecalc.sheaves import Presheaf, SheafCheck, _pair_name


def all_subsets(n: int):
    """Every subset of range(n) as a frozenset, in bitmask order."""
    for bits in range(1 << n):
        yield frozenset(i for i in range(n) if bits >> i & 1)


def brute_downsets(poset: FinitePoset) -> list[frozenset[int]]:
    """All down-sets by filtering every subset."""
    out = []
    for s in all_subsets(poset.n):
        if all(q in s for p in s for q in down_set(poset, p)):
            out.append(s)
    return out


def char_key(n: int, downset: frozenset[int]) -> tuple[int, ...]:
    """The characteristic vector of a subset of range(n)."""
    return tuple(1 if i in downset else 0 for i in range(n))


def downsets_oracle(poset: FinitePoset, elems=None) -> list[frozenset[int]]:
    """The down-sets of P inside the down-closed set ``elems`` (default all
    of P), grown as frozensets along a linear extension, then sorted by
    characteristic vector."""
    elems = range(poset.n) if elems is None else elems
    order = sorted(elems, key=lambda e: (len(down_set(poset, e)), e))
    sets: list[frozenset[int]] = [frozenset()]
    for e in order:
        pred = down_set(poset, e) - {e}
        sets.extend([s | {e} for s in sets if pred <= s])
    sets.sort(key=lambda d: char_key(poset.n, d))
    return sets


def downset_masks_sorting_oracle(poset: FinitePoset, within: int, start: int = 0) -> list[int]:
    """The down-set masks between ``start`` and ``within``, grown along a
    linear extension with each mask carrying its bit-reversed copy above
    bit n, then sorted: a plain integer sort of the pairs is the id order."""
    n = poset.n
    down = poset.down_masks
    flip = [1 << (2 * n - 1 - e) for e in range(n)]
    sets = [start | sum(flip[e] for e in range(n) if start >> e & 1)]
    for e in sorted(range(n), key=lambda e: (down[e].bit_count(), e)):
        if within >> e & 1 and not start >> e & 1:
            pred = down[e] ^ 1 << e
            sets.extend([s | 1 << e | flip[e] for s in sets if s & pred == pred])
    sets.sort()
    return [s & (1 << n) - 1 for s in sets]


def recursive_downset_count(poset: FinitePoset, elems: frozenset[int] | None = None) -> int:
    """Split on one element: down-sets avoid its up-set or contain its down-set."""
    if elems is None:
        elems = frozenset(range(poset.n))
    if not elems:
        return 1
    p = min(elems)
    return recursive_downset_count(
        poset, elems - (up_set(poset, p) & elems)
    ) + recursive_downset_count(poset, elems - (down_set(poset, p) & elems))


def downwards_directed_oracle(poset: FinitePoset, subset=None) -> bool:
    """Every pair of the universe has a lower bound in it, by ``leq`` on
    every triple."""
    univ = sorted(subset) if subset is not None else range(poset.n)
    return all(
        any(poset.leq(c, a) and poset.leq(c, b) for c in univ) for a in univ for b in univ
    )


def directed_pairs_oracle(poset: FinitePoset, subset=None) -> bool:
    """Every pair of the universe has a lower bound in it: the masks of
    their down-sets meet inside it, pair by pair."""
    univ = (1 << poset.n) - 1 if subset is None else sum(1 << e for e in set(subset))
    down = poset.down_masks
    elems = [e for e in range(poset.n) if univ >> e & 1]
    return all(down[a] & down[b] & univ for i, a in enumerate(elems) for b in elems[i + 1:])


def close_relation(n: int, pairs) -> list[set[int]]:
    """Reflexive-transitive closure of a relation on range(n) by the set
    fixpoint, as per-element up-sets; cycles included."""
    up = [{i} for i in range(n)]
    for a, b in pairs:
        up[a].add(b)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            extra: set[int] = set()
            for j in up[i]:
                extra |= up[j]
            if not extra <= up[i]:
                up[i] |= extra
                changed = True
    return up


def cycle_witness_oracle(n: int, pairs) -> tuple[int, int] | None:
    """The least element on a cycle of the closed relation and its least
    partner, or None for a partial order."""
    up = close_relation(n, pairs)
    return next(
        ((i, j) for i in range(n) for j in sorted(up[i]) if j != i and i in up[j]), None
    )


def order_sets_oracle(poset: FinitePoset) -> tuple[list[frozenset[int]], list[frozenset[int]]]:
    """The up-set and the down-set of every element, by ``leq`` on every pair."""
    elems = range(poset.n)
    up = [frozenset(q for q in elems if poset.leq(p, q)) for p in elems]
    down = [frozenset(q for q in elems if poset.leq(q, p)) for p in elems]
    return up, down


@cache
def _order_sets(poset: FinitePoset) -> tuple[list[frozenset[int]], list[frozenset[int]]]:
    return order_sets_oracle(poset)


def up_set(poset: FinitePoset, p: int) -> frozenset[int]:
    """The up-set of p as a frozenset, from ``order_sets_oracle`` once per poset."""
    return _order_sets(poset)[0][p]


def down_set(poset: FinitePoset, p: int) -> frozenset[int]:
    """The down-set of p as a frozenset, from ``order_sets_oracle`` once per poset."""
    return _order_sets(poset)[1][p]


def minimal_elements_oracle(poset: FinitePoset, subset=None) -> frozenset[int]:
    """The members of the subset with no member strictly below, by ``lt``."""
    univ = frozenset(range(poset.n) if subset is None else subset)
    return frozenset(p for p in univ if not any(poset.lt(q, p) for q in univ))


def hasse_pairs_oracle(poset: FinitePoset) -> tuple[tuple[int, int], ...]:
    """The pairs (q, p) with q < p and no r strictly between, p ascending,
    then q ascending, by scanning every r."""
    out = []
    for p in range(poset.n):
        for q in sorted(down_set(poset, p) - {p}):
            if not any(poset.lt(q, r) and poset.lt(r, p) for r in range(poset.n)):
                out.append((q, p))
    return tuple(out)


def heyting_union_oracle(poset: FinitePoset, x, y) -> frozenset[int]:
    """The defining union of all down-sets whose cut along x lands in y."""
    xs, ys = frozenset(x), frozenset(y)
    acc: frozenset[int] = frozenset()
    for d in brute_downsets(poset):
        if d & xs <= ys:
            acc |= d
    return acc


def frame_downsets(frame) -> tuple[frozenset[int], ...]:
    """The down-sets of a frame as frozensets, by id."""
    return tuple(frame.downset(i) for i in range(len(frame)))


def sieves_on(poset: FinitePoset, p: int) -> tuple[frozenset[int], ...]:
    """The sieves on p, the down-sets inside down(p), in frame id order,
    grown as frozensets by ``downsets_oracle``."""
    return tuple(downsets_oracle(poset, down_set(poset, p)))


def negation(poset: FinitePoset, a) -> frozenset[int]:
    """The largest down-set disjoint from ``a``, by the defining union."""
    return heyting_union_oracle(poset, a, frozenset())


def double_negation(poset: FinitePoset, a) -> frozenset[int]:
    return negation(poset, negation(poset, a))


def upper_bounds(poset: FinitePoset, subset) -> frozenset[int]:
    acc = frozenset(range(poset.n))
    for a in subset:
        acc &= up_set(poset, a)
    return acc


def lower_bounds(poset: FinitePoset, subset) -> frozenset[int]:
    acc = frozenset(range(poset.n))
    for a in subset:
        acc &= down_set(poset, a)
    return acc


def dm_closure(poset: FinitePoset, a) -> frozenset[int]:
    """Lower bounds of the upper bounds of ``a``: a closure operator on
    down-sets that preserves binary intersections on linear orders, and so
    an input table that is a nucleus on chains and fails the meet law off
    them."""
    return lower_bounds(poset, upper_bounds(poset, a))


def dm_completion(poset: FinitePoset) -> tuple[frozenset[int], ...]:
    """The down-sets fixed by the cut closure, in frame id order."""
    return tuple(d for d in downsets_oracle(poset) if dm_closure(poset, d) == d)


def powerset(iterable):
    items = list(iterable)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


@pytest.fixture(params=CATALOG_NAMES)
def catalog_pair(request):
    return request.param, catalog()[request.param]


def class_join_table(congruence) -> tuple[int, ...]:
    """Each down-set sent to the union of its whole class, element by element;
    each class's union is taken once."""
    frame = congruence.frame
    joins = []
    for cls in congruence.classes:
        acc: frozenset[int] = frozenset()
        for b in cls:
            acc |= frame.downset(b)
        joins.append(frame.id_of(acc))
    return tuple(joins[c] for c in congruence.class_of)


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


def sublocale_frame_iso_oracle(poset: FinitePoset, subset, frame) -> tuple[dict, dict]:
    """The isomorphism between the fixed points of implication from X and
    the down-sets of X, on frozensets: forward cuts a member d to d & X,
    renumbered in X; backward takes a down-set y of X to the defining union
    of implication from X into y.  Asserts that forward is a bijection onto
    D(X), that the two maps are mutually inverse, and that forward sends
    intersections of members to intersections and the least member above a
    union to the union; returns (forward, backward) as id dicts."""
    xs = frozenset(subset)
    elems = sorted(xs)
    pos = {e: k for k, e in enumerate(elems)}
    sub_sets = downsets_oracle(poset.induced(elems))
    sub_id = {d: i for i, d in enumerate(sub_sets)}
    ds = frame_downsets(frame)
    members = [i for i, d in enumerate(ds) if heyting_union_oracle(poset, xs, d) == d]
    forward = {m: sub_id[frozenset(pos[e] for e in ds[m] & xs)] for m in members}
    backward = {
        y: frame.id_of(heyting_union_oracle(poset, xs, frozenset(elems[k] for k in d)))
        for y, d in enumerate(sub_sets)
    }
    assert sorted(forward.values()) == list(range(len(sub_sets)))
    assert all(backward[forward[m]] == m for m in members)
    assert all(forward[backward[y]] == y for y in backward)

    def least_member_above(d: frozenset[int]) -> int:
        acc = frozenset(range(poset.n))
        for m in members:
            if d <= ds[m]:
                acc &= ds[m]
        return frame.id_of(acc)

    for a in members:
        for b in members:
            meet = frame.id_of(ds[a] & ds[b])
            assert sub_sets[forward[meet]] == sub_sets[forward[a]] & sub_sets[forward[b]]
            join = least_member_above(ds[a] | ds[b])
            assert sub_sets[forward[join]] == sub_sets[forward[a]] | sub_sets[forward[b]]
    return forward, backward


def sublocale_failure_oracle(frame, members):
    """The first law that a member set breaks, as the sublocale scan reports
    it: ("top",) when the whole poset is missing, else ("meet", a, m, result)
    for the first pair of members in id order whose intersection is no
    member, else ("implication", a, m, result) for the first down-set a and
    member m, in id order, whose implication, by its defining union, is no
    member; None when every law holds."""
    ds = frame_downsets(frame)
    members = sorted(members)
    if frame.id_of(range(frame.poset.n)) not in members:
        return ("top",)
    for a in members:
        for b in members:
            meet = ds[a] & ds[b]
            if frame.id_of(meet) not in members:
                return ("meet", ds[a], ds[b], meet)
    for a, da in enumerate(ds):
        for m in members:
            value = frozenset().union(*(d for d in ds if d & da <= ds[m]))
            if frame.id_of(value) not in members:
                return ("implication", da, ds[m], value)
    return None


@cache
def _meets_and_joins(frame) -> tuple[list[list[int]], list[list[int]]]:
    """Per pair of down-set ids, the ids of their intersection and union."""
    ds = frame_downsets(frame)
    meets = [[frame.id_of(a & b) for b in ds] for a in ds]
    joins = [[frame.id_of(a | b) for b in ds] for a in ds]
    return meets, joins


def nucleus_law_oracle(frame, table) -> bool:
    """Inflation, idempotence and binary meets, on every down-set and pair."""
    ds = frame_downsets(frame)
    meets, _ = _meets_and_joins(frame)
    return (
        all(d <= ds[t] for d, t in zip(ds, table))
        and all(table[t] == t for t in table)
        and all(
            table[meets[a][b]] == meets[table[a]][table[b]]
            for a in range(len(ds)) for b in range(len(ds))
        )
    )


def congruence_law_oracle(frame, classes) -> bool:
    """Every two related down-sets stay related under meet and join with any
    third down-set."""
    meets, joins = _meets_and_joins(frame)
    class_of = {a: i for i, c in enumerate(classes) for a in c}
    return all(
        class_of[table[a][c]] == class_of[table[b][c]]
        for cls in classes for a in cls for b in cls
        for c in range(len(frame)) for table in (meets, joins)
    )


def sublocale_law_oracle(frame, members) -> bool:
    """The whole poset, the intersection of every two members, and every
    implication into a member, by its defining union, are members."""
    ds = frame_downsets(frame)
    meets, _ = _meets_and_joins(frame)

    def implication(a: frozenset[int], m: frozenset[int]) -> int:
        return frame.id_of(frozenset().union(*(d for d in ds if d & a <= m)))

    return (
        frame.id_of(range(frame.poset.n)) in members
        and all(meets[a][b] in members for a in members for b in members)
        and all(implication(a, ds[m]) in members for a in ds for m in members)
    )


def frame_law_scan_oracle(f) -> dict | None:
    """The first law a frame-map table breaks: top, bottom, then meet and
    join on each pair of down-set ids i < j in id order, as
    ``{"law", "a", "b"}`` with ids; None when every law holds."""
    src, tgt, table = f.source, f.target, f.table
    if table[src.top_id] != tgt.top_id:
        return {"law": "top", "a": None, "b": None}
    if table[src.bottom_id] != tgt.bottom_id:
        return {"law": "bottom", "a": None, "b": None}
    m = len(src)
    for i in range(m):
        for j in range(i + 1, m):
            if table[src.meet(i, j)] != tgt.meet(table[i], table[j]):
                return {"law": "meet", "a": i, "b": j}
            if table[src.join(i, j)] != tgt.join(table[i], table[j]):
                return {"law": "join", "a": i, "b": j}
    return None


def upper_adjoint_oracle(f) -> tuple[int, ...]:
    """The upper adjoint of a frame morphism as a table: each target
    down-set b goes to the union of every source down-set that f maps into
    b.  The adjunction f(a) <= b iff a <= g(b) is asserted on every pair."""
    src, tgt = f.source, f.target
    ds, ts = frame_downsets(src), frame_downsets(tgt)
    table = tuple(
        src.id_of(frozenset().union(*(a for a, fa in zip(ds, f.table) if ts[fa] <= b)))
        for b in ts
    )
    for a, fa in zip(ds, f.table):
        for b, gb in zip(ts, table):
            assert (ts[fa] <= b) == (a <= ds[gb])
    return table


def factorization_oracle(f) -> tuple:
    """The kernel and the iso of a frame surjection, through the quotient
    on class representatives: NotSurjectiveError naming the least target
    down-set outside the image; else the kernel from the fibres of the table,
    validated as a congruence from outside, and the iso from each class's
    least member, asserted injective, preserving meets and joins on every
    pair of classes, and recomposing to f.  Returns (kernel, iso)."""
    src, tgt = f.source, f.target
    missing = sorted(set(range(len(tgt))) - set(f.table))
    if missing:
        raise NotSurjectiveError(
            "map is not surjective", witness={"missing": sorted(tgt.downset(missing[0]))}
        )
    fibres: dict[int, list[int]] = {}
    for a, t in enumerate(f.table):
        fibres.setdefault(t, []).append(a)
    kernel = Congruence(src, fibres.values())
    reps = [min(c) for c in kernel.classes]
    iso = tuple(f.table[r] for r in reps)
    assert len(set(iso)) == len(reps)
    for c1, r1 in enumerate(reps):
        for c2, r2 in enumerate(reps):
            assert iso[kernel.class_of[src.meet(r1, r2)]] == tgt.meet(iso[c1], iso[c2])
            assert iso[kernel.class_of[src.join(r1, r2)]] == tgt.join(iso[c1], iso[c2])
    assert all(f.table[a] == iso[kernel.class_of[a]] for a in range(len(src)))
    return kernel, iso


def preimage_table_oracle(source, target, phi) -> tuple[int, ...]:
    """The table of d -> {q : phi(q) in d}, D(P) -> D(Q), for a monotone
    phi: Q -> P given as a sequence, on frozensets."""
    return tuple(
        target.id_of(q for q, p in enumerate(phi) if p in d) for d in frame_downsets(source)
    )


@cache
def brute_sieves(poset: FinitePoset, p: int) -> tuple[frozenset[int], ...]:
    """The down-sets below p, by filtering every down-set."""
    return tuple(d for d in brute_downsets(poset) if d <= down_set(poset, p))


def stock_covers(poset: FinitePoset, name: str, subset=frozenset()) -> list[frozenset]:
    """Cover families of a stock topology, straight from its definition."""
    covers = []
    for p in range(poset.n):
        sieves = brute_sieves(poset, p)
        if name == "indiscrete":
            fam = [down_set(poset, p)]
        elif name == "discrete":
            fam = sieves
        elif name == "dense":
            fam = [s for s in sieves if down_set(poset, p) <= poset.up_closure(s)]
        elif name == "atomic":
            fam = [s for s in sieves if s]
        else:  # "derived": the sieves over the subset cut, minus the empty one
            fam = [s for s in sieves if s and subset & down_set(poset, p) <= s]
        covers.append(frozenset(fam))
    return covers


def pointwise_meet_covers(j, k) -> list[frozenset]:
    jc, kc = subset_covers_oracle(j.poset, j.subset), subset_covers_oracle(k.poset, k.subset)
    return [a & b for a, b in zip(jc, kc)]


def saturated_join_covers(j, k) -> list[frozenset]:
    """The pointwise union of two topologies closed to a fixpoint under
    supersets, binary intersections, stability restrictions and
    transitivity.  Every added sieve is forced in any topology containing
    the union, so the fixpoint is the least upper bound."""
    poset = j.poset
    sieves = [brute_sieves(poset, p) for p in range(poset.n)]
    jc, kc = subset_covers_oracle(poset, j.subset), subset_covers_oracle(poset, k.subset)
    fams = [set(a | b) for a, b in zip(jc, kc)]
    changed = True
    while changed:
        changed = False
        for p in range(poset.n):
            fam = fams[p]
            additions: set[frozenset[int]] = set()
            for s in fam:
                for r in sieves[p]:
                    if s <= r and r not in fam:
                        additions.add(r)
            for s, r in combinations(fam, 2):
                if s & r not in fam:
                    additions.add(s & r)
            for r in sieves[p]:
                if r in fam or r in additions:
                    continue
                if any(all(r & down_set(poset, q) in fams[q] for q in s) for s in fam):
                    additions.add(r)
            if additions:
                fam |= additions
                changed = True
            for s in list(fam):
                for q in down_set(poset, p):
                    if q != p and s & down_set(poset, q) not in fams[q]:
                        fams[q].add(s & down_set(poset, q))
                        changed = True
    return [frozenset(f) for f in fams]


def restricted_covers(poset: FinitePoset, topology, subset) -> list[frozenset]:
    """Covers of each subset point: the subposet sieves whose down-closure
    in the whole poset covers it."""
    elems = sorted(subset)
    sub = poset.induced(elems)
    whole = subset_covers_oracle(poset, topology.subset)
    covers = []
    for k, x in enumerate(elems):
        covers.append(frozenset(
            s for s in brute_sieves(sub, k)
            if poset.down_closure(elems[i] for i in s) in whole[x]
        ))
    return covers


def subset_covers_oracle(poset: FinitePoset, subset) -> list[frozenset]:
    """J(X) by filtering every down-set below p for the cut X & down(p)."""
    xs = frozenset(subset)
    return [
        frozenset(s for s in brute_sieves(poset, p) if xs & down_set(poset, p) <= s)
        for p in range(poset.n)
    ]


def covers_of(topology) -> tuple[frozenset, ...]:
    """The production cover listing, ``covers_json``, read back as one
    frozenset of id frozensets per element."""
    poset = topology.poset
    listing = topology.covers_json()
    return tuple(
        frozenset(frozenset(poset.index_of(m) for m in s) for s in listing[label])
        for label in poset.labels
    )


def lx_covers(poset: FinitePoset, subset) -> list[frozenset]:
    """Covers of p: the sieves meeting the subset below every subset point under p."""
    xs = frozenset(subset)
    return [
        frozenset(
            s for s in brute_sieves(poset, p)
            if all(s & down_set(poset, x) & xs for x in xs & down_set(poset, p))
        )
        for p in range(poset.n)
    ]


def extended_covers(poset: FinitePoset, subset, inner) -> list[frozenset]:
    """Covers of p: the sieves whose cut below every subset point x under p is
    an inner cover of x, with the inner families filtered from raw sieves."""
    elems = sorted(subset)
    pos = {e: k for k, e in enumerate(elems)}
    inner_covers = subset_covers_oracle(inner.poset, inner.subset)
    xs = frozenset(elems)
    return [
        frozenset(
            s for s in brute_sieves(poset, p)
            if all(
                frozenset(pos[e] for e in s & xs & down_set(poset, x)) in inner_covers[pos[x]]
                for x in xs & down_set(poset, p)
            )
        )
        for p in range(poset.n)
    ]


def dense_violation_scan(poset: FinitePoset, topology, subset) -> int | None:
    """First element whose down-closed subset cut is not among its covers."""
    covers = subset_covers_oracle(poset, topology.subset)
    for p in range(poset.n):
        if poset.down_closure(subset & down_set(poset, p)) not in covers[p]:
            return p
    return None


def cover_elements(topology, d: frozenset[int]) -> frozenset[int]:
    """The elements p at which the cut d & down(p) is a cover."""
    poset = topology.poset
    covers = subset_covers_oracle(poset, topology.subset)
    return frozenset(p for p in range(poset.n) if d & down_set(poset, p) in covers[p])


def nucleus_table_from_covers(topology, frame) -> tuple[int, ...]:
    return tuple(frame.id_of(cover_elements(topology, d)) for d in frame_downsets(frame))


def congruence_classes_from_covers(topology, frame) -> set[frozenset[int]]:
    groups: dict = {}
    for i, d in enumerate(frame_downsets(frame)):
        groups.setdefault(cover_elements(topology, d), set()).add(i)
    return {frozenset(c) for c in groups.values()}


def sublocale_members_from_covers(topology, frame) -> frozenset[int]:
    """The down-sets containing every element they cover."""
    return frozenset(
        i for i, d in enumerate(frame_downsets(frame)) if cover_elements(topology, d) <= d
    )


def covers_from_nucleus(nucleus) -> list[frozenset]:
    """Covers of p: the sieves whose image under the nucleus reaches p."""
    frame = nucleus.frame
    poset = frame.poset
    return [
        frozenset(
            s for s in brute_sieves(poset, p)
            if p in frame.downset(nucleus.table[frame.id_of(s)])
        )
        for p in range(poset.n)
    ]


def covers_from_congruence(congruence) -> list[frozenset]:
    """Covers of p: the sieves congruent to the maximal sieve on p."""
    frame = congruence.frame
    poset = frame.poset
    return [
        frozenset(
            s for s in brute_sieves(poset, p)
            if congruence.related(frame.id_of(s), frame.id_of(down_set(poset, p)))
        )
        for p in range(poset.n)
    ]


def covers_from_sublocale(sublocale) -> list[frozenset]:
    """Covers of p: the sieves contained in no member that omits p."""
    frame = sublocale.frame
    poset = frame.poset
    return [
        frozenset(
            s for s in brute_sieves(poset, p)
            if all(p in frame.downset(m) for m in sublocale.members if s <= frame.downset(m))
        )
        for p in range(poset.n)
    ]


def nucleus_complete_scan(nucleus) -> bool:
    """For every set of image values, the intersection of their pooled
    fibers maps to the intersection of the values."""
    frame, table = nucleus.frame, nucleus.table
    image = sorted(set(table))
    fibers = {m: [i for i, t in enumerate(table) if t == m] for m in image}
    for chosen in powerset(image):
        pooled = [a for m in chosen for a in fibers[m]]
        if table[frame.meet_all(pooled)] != frame.meet_all(chosen):
            return False
    return True


def congruence_complete_scan(congruence) -> bool:
    """For every set of classes, the intersection of their members is
    congruent to the intersection of their joins."""
    frame, classes = congruence.frame, congruence.classes
    joins = [frame.join_all(c) for c in classes]
    for chosen in powerset(range(len(classes))):
        pooled = [a for i in chosen for a in classes[i]]
        if not congruence.related(frame.meet_all(pooled), frame.meet_all(joins[i] for i in chosen)):
            return False
    return True


def subset_subcanonicity_witnesses(poset: FinitePoset, subset) -> tuple:
    """(p, value) for each p whose down-set implication from the subset does
    not fix: value = {q : down(q) & X <= down(p)}, by frozensets."""
    xs = frozenset(subset)
    out = []
    for p in range(poset.n):
        dn = down_set(poset, p)
        value = frozenset(q for q in range(poset.n) if down_set(poset, q) & xs <= dn)
        if value != dn:
            out.append((p, value))
    return tuple(out)


def representable_is_sheaf(poset: FinitePoset, topology, p: int) -> bool:
    """No q off the cone of p has a cover of J(X) inside down(p); the least
    cover down(X & down(q)) lies in it iff X & down(q) does."""
    dn = down_set(poset, p)
    return all(
        q in dn or not topology.subset & down_set(poset, q) <= dn for q in range(poset.n)
    )


def canonical_scan_oracle(poset: FinitePoset) -> list[frozenset[int]]:
    """The inclusion-minimal subsets with no subcanonicity witness, found by
    testing every subset; sorted by size, then by members."""
    good = [x for x in all_subsets(poset.n) if not subset_subcanonicity_witnesses(poset, x)]
    minimal = [x for x in good if not any(y < x for y in good)]
    minimal.sort(key=lambda x: (len(x), sorted(x)))
    return minimal


def sheaf_scan_oracle(presheaf, topology) -> SheafCheck:
    """The first matching family without a unique amalgamation over every
    cover of J(X): p ascending, covers filtered from raw sieves in
    sorted-member order, families in the lexicographic order of the product
    of value sets, and amalgamations by testing every value at p."""
    poset, sizes = presheaf.poset, presheaf.sizes
    labels = poset.labels
    covers = subset_covers_oracle(poset, topology.subset)
    for p in range(poset.n):
        for cover in sorted(covers[p], key=sorted):
            elems = sorted(cover)
            for values in product(*(range(sizes[x]) for x in elems)):
                family = dict(zip(elems, values))
                if any(
                    presheaf.restriction(y, x)[family[x]] != family[y]
                    for x in elems for y in elems if y != x and poset.leq(y, x)
                ):
                    continue
                hits = [
                    a for a in range(sizes[p])
                    if all(presheaf.restriction(x, p)[a] == family[x] for x in elems)
                ]
                if len(hits) != 1:
                    return SheafCheck(ok=False, witness={
                        "p": labels[p],
                        "cover": [labels[x] for x in elems],
                        "family": {labels[x]: v for x, v in family.items()},
                        "amalgamations": hits,
                    })
    return SheafCheck(ok=True)


def matching_families_oracle(
    presheaf: Presheaf, elems: Sequence[int], idx: int, assignment: dict[int, int]
) -> Iterator[dict[int, int]]:
    """The matching families extending ``assignment``, the values on
    ``elems[:idx]``, by depth-first choice of the values that follow."""
    if idx == len(elems):
        yield dict(assignment)
        return
    poset = presheaf.poset
    x = elems[idx]
    for v in range(presheaf.sizes[x]):
        ok = True
        for y in elems[:idx]:
            if poset.leq(y, x) and presheaf.restriction(y, x)[v] != assignment[y]:
                ok = False
                break
            if poset.leq(x, y) and presheaf.restriction(x, y)[assignment[y]] != v:
                ok = False
                break
        if ok:
            assignment[x] = v
            yield from matching_families_oracle(presheaf, elems, idx + 1, assignment)
            del assignment[x]


def matching_violation(presheaf, cover, assignment) -> tuple[int, int] | None:
    """A pair (y, x) with y <= x whose restriction disagrees, or None."""
    poset = presheaf.poset
    elems = sorted(cover)
    for x in elems:
        for y in elems:
            if y != x and poset.leq(y, x):
                if presheaf.restriction(y, x)[assignment[x]] != assignment[y]:
                    return (y, x)
    return None


def amalgamations(presheaf, p: int, cover, assignment) -> tuple[int, ...]:
    """All values at p restricting to a matching family on every cover
    element, by testing every value at p."""
    elems = sorted(frozenset(cover))
    assert matching_violation(presheaf, elems, assignment) is None
    return tuple(
        a for a in range(presheaf.sizes[p])
        if all(presheaf.restriction(x, p)[a] == assignment[x] for x in elems)
    )


def cut_tops_oracle(poset: FinitePoset, subset) -> tuple[tuple[int, ...], ...]:
    """Per element p, the maximal elements of X & down(p) as a subposet,
    ascending, by ``lt`` on every pair of the cut."""
    out = []
    for p in range(poset.n):
        cut = frozenset(subset) & down_set(poset, p)
        out.append(tuple(sorted(t for t in cut if not any(poset.lt(t, u) for u in cut))))
    return tuple(out)


def functoriality_scan_oracle(poset: FinitePoset, maps) -> FunctorialityError | None:
    """The first triple r < q < p whose composite restriction differs from
    the direct one, scanned over every triple (r ascending, then q and p in
    up-set order), as the error the constructor raises for it; maps must
    hold an in-range table for every strict pair."""
    labels = poset.labels
    for r in range(poset.n):
        for q in up_set(poset, r) - {r}:
            for p in up_set(poset, q) - {q}:
                via = tuple(maps[(r, q)][b] for b in maps[(q, p)])
                if via != tuple(maps[(r, p)]):
                    return FunctorialityError(
                        f"composite restriction violated at "
                        f"{labels[r]} <= {labels[q]} <= {labels[p]}",
                        witness={"r": labels[r], "q": labels[q], "p": labels[p]},
                        r=r,
                        q=q,
                        p=p,
                    )
    return None


def presheaf_reader_oracle(doc: dict, poset: FinitePoset) -> Presheaf:
    """``Presheaf.from_json`` on ``poset`` as it read a document member by
    member: each size, then each key split at its first ``<=`` with its
    table type-checked, then :func:`presheaf_constructor_oracle`."""
    values, tables = doc.get("values", {}), doc.get("maps", {})
    for field, value in (("values", values), ("maps", tables)):
        if not isinstance(value, dict):
            raise ParseError(f"'{field}' is not an object", witness={field: value})
    # one lookup table per document; index_of raises for an unknown label
    ids = {label: i for i, label in enumerate(poset.labels)}

    def index(label: str) -> int:
        return ids[label] if label in ids else poset.index_of(label)

    sizes = [0] * poset.n
    for label, size in values.items():
        if type(size) is not int:
            raise ParseError(f"value size {size!r} is not an integer",
                             witness={"element": label, "size": size})
        sizes[index(label)] = size
    maps = {}
    for key, tab in tables.items():
        if "<=" not in key:
            raise ParseError(f"bad restriction key {key!r}", witness={"key": key})
        if not (isinstance(tab, list) and all(type(v) is int for v in tab)):
            raise ParseError(f"restriction {key!r} is not a list of integers",
                             witness={"key": key, "map": tab})
        qlab, plab = key.split("<=", 1)
        maps[(index(qlab.strip()), index(plab.strip()))] = tab
    return presheaf_constructor_oracle(poset, sizes, maps)


def presheaf_constructor_oracle(poset: FinitePoset, sizes, maps) -> Presheaf:
    """``Presheaf(poset, sizes, maps)`` as its loop checked the laws: the
    sizes, then for q ascending each p in the frozenset ``up(q) - {q}`` a
    missing or non-function table, then keys that are no strict pair, then
    composition on the triples whose lower step is a cover edge, with the
    first triple of the full scan as the witness.  Sizes and entries are
    not type-checked."""
    sizes = tuple(sizes)
    labels = poset.labels
    if len(sizes) != poset.n or any(s < 0 for s in sizes):
        witness = dict(zip(labels, sizes)) if len(sizes) == poset.n else list(sizes)
        raise ParseError(f"bad value sizes {sizes}", witness={"sizes": witness})

    def broken(message: str, **elems: int) -> FunctorialityError:
        witness = {k: labels[e] for k, e in elems.items()}
        return FunctorialityError(message, witness=witness, **elems)

    cleaned: dict[tuple[int, int], tuple[int, ...]] = {}
    for q in range(poset.n):
        for p in up_set(poset, q) - {q}:
            if (q, p) not in maps:
                raise broken(f"missing restriction for {labels[q]} <= {labels[p]}", q=q, p=p)
            tab = tuple(maps[(q, p)])
            if len(tab) != sizes[p] or any(not 0 <= v < sizes[q] for v in tab):
                raise broken(
                    f"restriction for {labels[q]} <= {labels[p]} "
                    f"is not a function between the value sets",
                    q=q,
                    p=p,
                )
            cleaned[(q, p)] = tab
    for key in maps:
        if key not in cleaned:
            named = _pair_name(labels, key)
            raise ParseError(
                f"restriction {named!r} does not match a strict pair", witness={"key": named}
            )
    for r, q in poset.hasse_pairs():
        lower = cleaned[(r, q)]
        if any(
            tuple(lower[b] for b in cleaned[(q, p)]) != cleaned[(r, p)]
            for p in up_set(poset, q) - {q}
        ):
            r, q, p = next(
                (r, q, p)
                for r in range(poset.n)
                for q in up_set(poset, r) - {r}
                for p in up_set(poset, q) - {q}
                if tuple(cleaned[(r, q)][b] for b in cleaned[(q, p)]) != cleaned[(r, p)]
            )
            raise broken(
                f"composite restriction violated at "
                f"{labels[r]} <= {labels[q]} <= {labels[p]}",
                r=r,
                q=q,
                p=p,
            )
    return Presheaf._trusted(poset, sizes, cleaned)


def _strict_pairs(poset: FinitePoset) -> list[tuple[int, int]]:
    return [(q, p) for q in range(poset.n) for p in range(poset.n) if q != p and poset.leq(q, p)]


def ran_oracle(base, poset: FinitePoset, subset) -> tuple:
    """Ran_X of a presheaf on the induced subposet of X, as (support,
    families, maps): at p, every tuple of values on X & down(p), in the
    lexicographic order of the product of value sets, whose restrictions
    agree; the map to q < p keeps the entries on X & down(q) and finds the
    result among the families at q."""
    elems = sorted(subset)
    pos = {e: k for k, e in enumerate(elems)}
    support, families = [], []
    for p in range(poset.n):
        xs = tuple(x for x in elems if poset.leq(x, p))
        support.append(xs)
        families.append(tuple(
            values for values in product(*(range(base.sizes[pos[x]]) for x in xs))
            if all(
                base.restriction(pos[y], pos[x])[values[i]] == values[j]
                for i, x in enumerate(xs) for j, y in enumerate(xs)
                if y != x and poset.leq(y, x)
            )
        ))
    maps = {
        (q, p): tuple(
            families[q].index(tuple(v for x, v in zip(support[p], fam) if poset.leq(x, q)))
            for fam in families[p]
        )
        for q, p in _strict_pairs(poset)
    }
    return tuple(support), tuple(families), maps


@cache
def iso_orbit(presheaf) -> frozenset:
    """The restriction tables, over the strict pairs in order, of every
    presheaf naturally isomorphic to F: one per tuple sigma in the product of
    componentwise permutations, with G the presheaf that makes each square
    G(q <= p)(sigma_p(a)) = sigma_q(F(q <= p)(a)) commute."""
    pairs = _strict_pairs(presheaf.poset)
    out = set()
    for sigma in product(*(permutations(range(m)) for m in presheaf.sizes)):
        tables = []
        for q, p in pairs:
            table = [0] * presheaf.sizes[p]
            for a, b in enumerate(presheaf.restriction(q, p)):
                table[sigma[p][a]] = sigma[q][b]
            tables.append(tuple(table))
        out.add(tuple(tables))
    return frozenset(out)


def naturality_failure(source, target, components) -> tuple[int, int] | None:
    """The first strict pair (q, p), in index order, whose naturality square
    fails: G(q <= p) after the component at p differs from the component at
    q after F(q <= p).  None when the components are natural."""
    for q, p in _strict_pairs(source.poset):
        down_s, down_t = source.restriction(q, p), target.restriction(q, p)
        if any(
            down_t[components[p][a]] != components[q][down_s[a]]
            for a in range(source.sizes[p])
        ):
            return (q, p)
    return None


def natural_iso_oracle(f, g) -> bool:
    """Whether g is among the transports of f along componentwise bijections."""
    return (
        f.poset == g.poset
        and f.sizes == g.sizes
        and tuple(g.restriction(q, p) for q, p in _strict_pairs(g.poset)) in iso_orbit(f)
    )


def site_morphism_scan_oracle(phi, source, target) -> tuple[list, list]:
    """Every failing cover, by scanning all covers of J(X) and J(Y) filtered
    from raw sieves: (p, s) for each source cover s of p whose down-closed
    image is not a target cover, then (p, s) for each target cover s of
    phi(p) that holds the image of no source cover of p; p ascending, covers
    in sorted-member order."""
    src_poset, tgt_poset = phi.source, phi.target
    src = subset_covers_oracle(src_poset, source.subset)
    tgt = subset_covers_oracle(tgt_poset, target.subset)
    cover_violations, clp_violations = [], []
    for p in range(src_poset.n):
        fp = phi.mapping[p]
        for s in sorted(src[p], key=sorted):
            image = frozenset(phi.mapping[x] for x in s)
            if tgt_poset.down_closure(image) not in tgt[fp]:
                cover_violations.append((p, s))
        for s in sorted(tgt[fp], key=sorted):
            if not any(all(phi.mapping[x] in s for x in r) for r in src[p]):
                clp_violations.append((p, s))
    return cover_violations, clp_violations


def subcanonicity_scan_oracle(poset: FinitePoset, topology) -> tuple:
    """(p, q, cover) for each q not <= p with a cover of J(X) inside down(p):
    the first such cover in sorted-member order, filtered from raw sieves."""
    covers = subset_covers_oracle(poset, topology.subset)
    out = []
    for p in range(poset.n):
        for q in range(poset.n):
            if poset.leq(q, p):
                continue
            for s in sorted(covers[q], key=sorted):
                if s <= down_set(poset, p):
                    out.append((p, q, s))
                    break
    return tuple(out)


def complete_scan_oracle(topology) -> bool:
    """Whether the intersection of all covers of each p, filtered from raw
    sieves, is itself a cover."""
    poset = topology.poset
    covers = subset_covers_oracle(poset, topology.subset)
    for p in range(poset.n):
        acc = down_set(poset, p)
        for s in covers[p]:
            acc &= s
        if acc not in covers[p]:
            return False
    return True


def filters_of_sieves(poset: FinitePoset, p: int) -> list[frozenset[frozenset[int]]]:
    """The filters of the sieve lattice of p that hold the maximal sieve, by
    testing every family of the other sieves for up-closure and meets."""
    sieves = brute_sieves(poset, p)
    top = down_set(poset, p)
    others = [s for s in sieves if s != top]
    out = []
    for bits in range(1 << len(others)):
        fam = {top} | {others[i] for i in range(len(others)) if bits >> i & 1}
        if not all(r in fam for s in fam for r in sieves if s <= r):
            continue
        if all(a & b in fam for a in fam for b in fam):
            out.append(frozenset(fam))
    out.sort(key=lambda f: sorted(char_key(poset.n, s) for s in f))
    return out


def axiom_scan_oracle(poset: FinitePoset, covers) -> AxiomViolation | None:
    """First axiom failure in deterministic witness order, or None: the
    frozenset scan that the mask scan ``find_axiom_violation`` replaced, with
    every sieve on p from ``brute_sieves``.  Each pass runs p ascending, then
    sieves in sorted-member order; transitivity re-tests every cover of p for
    each non-cover, and reports the least id among the minimal elements with
    a failure, which is the first failing element when ids are a linear
    extension."""
    labels = poset.labels
    for p in range(poset.n):
        dn = down_set(poset, p)
        for s in sorted(covers[p], key=sorted):
            if not s <= dn or poset.down_closure(s) != s:
                return AxiomViolation(
                    f"{sorted(labels[i] for i in s)} is not a sieve on {labels[p]}",
                    axiom="sieve",
                    p=p,
                    sieve=s,
                )
    for p in range(poset.n):
        if down_set(poset, p) not in covers[p]:
            return AxiomViolation(
                f"maximal sieve missing from the covers of {labels[p]}",
                axiom="maximality",
                p=p,
                sieve=down_set(poset, p),
            )
    for p in range(poset.n):
        for s in sorted(covers[p], key=sorted):
            for q in sorted(down_set(poset, p)):
                if q == p:
                    continue
                restricted = s & down_set(poset, q)
                if restricted not in covers[q]:
                    return AxiomViolation(
                        f"stability fails at ({labels[p]}, {sorted(labels[i] for i in s)}, "
                        f"{labels[q]})",
                        axiom="stability",
                        p=p,
                        sieve=s,
                        q=q,
                        other=restricted,
                    )
    failures = {}  # p -> its first failing (non-cover, cover) pair
    for p in range(poset.n):
        for r in sorted(brute_sieves(poset, p), key=sorted):
            if r in covers[p]:
                continue
            s = next((s for s in sorted(covers[p], key=sorted)
                      if all(r & down_set(poset, q) in covers[q] for q in s)), None)
            if s is not None:
                failures[p] = (r, s)
                break
    minimal = [p for p in failures if not any(q in failures for q in down_set(poset, p) - {p})]
    if not minimal:
        return None
    p = min(minimal)
    r, s = failures[p]
    return AxiomViolation(
        f"transitivity fails at ({labels[p]}, {sorted(labels[i] for i in s)}); "
        f"{sorted(labels[i] for i in r)} should be a cover",
        axiom="transitivity",
        p=p,
        sieve=s,
        other=r,
    )


def census_oracle(poset: FinitePoset) -> tuple:
    """Every topology by search over every filter of sieves at each element,
    assigned along a linear extension with stability pruning; each full
    assignment goes through the oracle axiom scan and then validate_topology, and
    the result is sorted by the cover families of the topologies found."""
    order = sorted(range(poset.n), key=lambda e: (len(down_set(poset, e)), e))
    choices = {p: filters_of_sieves(poset, p) for p in order}
    found = []
    assignment: dict[int, frozenset[frozenset[int]]] = {}

    def compatible(p, fam):
        return all(
            s & down_set(poset, q) in assignment[q]
            for q in down_set(poset, p) if q != p and q in assignment
            for s in fam
        )

    def assign(idx):
        if idx == len(order):
            covers = [assignment[p] for p in range(poset.n)]
            if axiom_scan_oracle(poset, covers) is None:
                found.append(validate_topology(poset, covers))
            return
        p = order[idx]
        for fam in choices[p]:
            if compatible(p, fam):
                assignment[p] = fam
                assign(idx + 1)
                del assignment[p]

    assign(0)
    found.sort(
        key=lambda t: tuple(
            sorted(char_key(poset.n, s) for s in subset_covers_oracle(poset, t.subset)[p])
            for p in range(poset.n)
        )
    )
    return tuple(found)


def antichain(n: int) -> FinitePoset:
    return FinitePoset([f"a{i}" for i in range(n)])


def chain_poset(n: int) -> FinitePoset:
    return FinitePoset([f"c{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])


def fan(k: int) -> FinitePoset:
    """k incomparable atoms under one top: 2^k + 1 sieves on the top."""
    return FinitePoset([f"t{i}" for i in range(k)] + ["top"], [(i, k) for i in range(k)])


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
