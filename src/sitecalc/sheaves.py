"""Finite-set-valued presheaves, sheaf conditions, and the restriction /
extension equivalence along a dense subset.

Value sets are canonical finite sets ``{0..m-1}``; restriction maps are
tuples indexed by the upstairs value.  Natural-isomorphism checks compare
componentwise bijections, never abstract equivalences: the explicit
unit/counit maps are constructed and tested for bijectivity and
naturality.

Each law is checked once, on the least data that decides it:

- a presheaf, from a document or a library caller, is checked by its
  constructor in one pass over the strict pairs, with composition on the
  triples whose lower step is a cover edge; only rejected input is scanned
  law by law, for the first failure in index order;
- naturality is checked on the squares of cover edges, which between
  functors imply every square;
- matching families are found by one walk, :func:`_family_walk`, which
  takes each position's values from the fibre of a value already fixed:
  listed on a member set by :func:`_matching_tuples`, for the witness and
  Ran_X, and counted on a cut's tops by :func:`_family_count`;
- a sheaf verdict counts matching families only on cuts whose tops share
  an element of X below them, up to one more than the values there, and a
  failed verdict builds its witness scan when the witness is first read;
- Ran_X lists the families once per distinct support;
- isomorphism classes are searched only among presheaves with equal value
  sizes and equal fibre sizes along each cover edge;
- the kx report reuses each lift that restricts back to its sheaf, and the
  Ran_X extension that the comparison built for each class representative.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice, permutations, product
from math import prod
from typing import Container, Iterable, Iterator, Mapping, Sequence

from .errors import (
    BasePointError,
    FunctorialityError,
    NotDownwardsDirectedError,
    ParseError,
    PosetMismatchError,
    TooLargeError,
)
from .poset import FinitePoset, _bits, _down_closure, _mask, _maximal
from .sites import (
    GrothTopology,
    _element_ids,
    _sieves_between,
    derived_topology,
    restrict_topology,
    subset_topology,
)

DEFAULT_ELEMENT_CAP = 3
DEFAULT_VALUE_CAP = 2
VALUE_BUDGET = 2**16  # values summed over P; sheaf checks read each value set


class Presheaf:
    """A contravariant finite-set assignment with restriction maps.

    ``sizes[p]`` is the cardinality of the value at ``p``; ``maps[(q, p)]``
    (for each strict comparable pair) sends values at ``p`` down to values
    at ``q``.  Construction checks the laws: every size is an exact ``int``
    of at least 0, the sizes sum to at most :data:`VALUE_BUDGET` (else a
    TooLargeError), each strict pair has one list or tuple of exact ``int``s
    that is a function between the value sets, no other key is given, and
    composition holds.  The private :meth:`_trusted`, which the library's
    own functorial-by-construction builders use, skips the check.
    """

    __slots__ = ("poset", "sizes", "maps", "_identities")

    def __init__(
        self,
        poset: FinitePoset,
        sizes: Sequence[int],
        maps: Mapping[tuple[int, int], Sequence[int]],
    ):
        sizes = tuple(sizes)
        if len(sizes) != poset.n or not set(map(type, sizes)) <= {int} or min(sizes, default=0) < 0:
            witness = dict(zip(poset.labels, sizes)) if len(sizes) == poset.n else list(sizes)
            raise ParseError(f"bad value sizes {sizes}", witness={"sizes": witness})
        _spend_values(sizes)
        tables = _functor_tables(poset, sizes, maps)
        if tables is None:
            tables = _scanned_tables(poset, sizes, maps)
        self.poset, self.sizes, self.maps = poset, sizes, tables
        self._identities: tuple[tuple[int, ...], ...] | None = None

    @classmethod
    def _trusted(
        cls,
        poset: FinitePoset,
        sizes: Sequence[int],
        maps: dict[tuple[int, int], tuple[int, ...]],
    ) -> "Presheaf":
        """A presheaf that is functorial by construction, left unchecked:
        ``maps`` holds a tuple in range for each strict pair and no other key."""
        presheaf = cls.__new__(cls)
        presheaf.poset, presheaf.sizes, presheaf.maps = poset, tuple(sizes), maps
        presheaf._identities = None
        return presheaf

    def restriction(self, q: int, p: int) -> tuple[int, ...]:
        if q != p:
            return self.maps[(q, p)]
        if self._identities is None:
            self._identities = tuple(tuple(range(size)) for size in self.sizes)
        return self._identities[p]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Presheaf) and (self.poset, self.sizes, self.maps) == (
            other.poset, other.sizes, other.maps
        )

    def __hash__(self) -> int:
        return hash((self.poset, self.sizes, frozenset(self.maps.items())))

    def __repr__(self) -> str:
        return f"<Presheaf sizes={list(self.sizes)}>"

    def to_json(self) -> dict:
        labels = self.poset.labels
        return {
            "poset": self.poset.to_json(),
            "values": {labels[p]: self.sizes[p] for p in range(self.poset.n)},
            "maps": {
                f"{labels[q]}<={labels[p]}": list(tab)
                for (q, p), tab in sorted(self.maps.items())
            },
        }

    @classmethod
    def from_json(cls, doc: dict, poset: FinitePoset | None = None) -> "Presheaf":
        """Read ``{"values": {label: size}, "maps": {"q<=p": [value, ...]}}``;
        any other shape is a ParseError with the offending value as witness.
        Labels become element ids here, and the laws are checked once: when
        every key names a strict pair and no size is negative, the tables go
        straight to the functor check, and a document it declines is read key
        by key, so that its ParseError comes first, and then scanned law by
        law for the first failure; any other document is read key by key and
        checked by the constructor.  Either way sizes past the budget are
        refused before the functor laws are checked."""
        if not isinstance(doc, dict):
            raise ParseError("presheaf JSON must be an object", witness={"document": doc})
        poset = poset if poset is not None else FinitePoset.from_json(doc.get("poset"))
        values, tables = doc.get("values", {}), doc.get("maps", {})
        for field, value in (("values", values), ("maps", tables)):
            if not isinstance(value, dict):
                raise ParseError(f"'{field}' is not an object", witness={field: value})
        index = poset.index_of
        sizes = [0] * poset.n
        for label, size in values.items():
            if type(size) is not int:
                raise ParseError(f"value size {size!r} is not an integer",
                                 witness={"element": label, "size": size})
            sizes[index(label)] = size
        # a key that is the name of a pair of labels holding no "<=" and no
        # surrounding whitespace splits into exactly that pair, so it is
        # looked up whole; any other key is split at its first "<="
        labels = poset.labels
        exact = [label == label.strip() and "<=" not in label for label in labels]
        names = {
            f"{labels[q]}<={labels[p]}": (q, p)
            for q, p in poset._strict_pairs()
            if exact[q] and exact[p]
        }
        maps = dict(zip(map(names.get, tables), tables.values()))
        named = None not in maps and min(sizes, default=0) >= 0
        if named:
            _spend_values(sizes)
            functor = _functor_tables(poset, sizes, maps)
            if functor is not None:
                return cls._trusted(poset, sizes, functor)

        def pair_of(key: str, tab: object) -> tuple[int, int]:
            if "<=" not in key:
                raise ParseError(f"bad restriction key {key!r}", witness={"key": key})
            if not (isinstance(tab, (list, tuple)) and all(type(v) is int for v in tab)):
                raise ParseError(f"restriction {key!r} is not a list of integers",
                                 witness={"key": key, "map": tab})
            qlab, plab = key.split("<=", 1)
            return index(qlab.strip()), index(plab.strip())

        maps = {pair_of(key, tab): tab for key, tab in tables.items()}
        if named:  # the sizes are sound and these are the tables the functor check declined
            return cls._trusted(poset, sizes, _scanned_tables(poset, sizes, maps))
        return cls(poset, sizes, maps)


def _spend_values(sizes: Sequence[int]) -> None:
    """TooLargeError when sizes, exact ints of at least 0, pass the budget."""
    spent = sum(sizes)
    if spent > VALUE_BUDGET:
        raise TooLargeError(
            f"{spent} values exceed the budget of {VALUE_BUDGET}",
            witness={"phase": "values", "budget": VALUE_BUDGET, "spent": spent},
        )


def _functor_tables(
    poset: FinitePoset, sizes: tuple[int, ...], maps: Mapping[tuple[int, int], Sequence[int]]
) -> dict[tuple[int, int], tuple[int, ...]] | None:
    """The tables of a functor, as tuples keyed by the strict pairs, or None
    when any law fails.  Each check runs over all tables at once, and
    composition on the triples whose lower step is a cover edge implies it
    on every triple, by induction on the length of [r, q]."""
    pairs = poset._strict_pairs()
    tabs = list(map(maps.get, pairs))
    if (
        len(maps) != len(pairs)
        or not set(map(type, tabs)) <= {list, tuple}
        or list(map(len, tabs)) != [sizes[p] for _, p in pairs]
    ):
        return None
    tuples = list(map(tuple, tabs))
    entries = list(chain.from_iterable(tuples))
    if not set(map(type, entries)) <= {int} or min(entries, default=0) < 0:
        return None
    spans = []  # the strict pairs of q are consecutive, and their tables map into F(q)
    start = 0
    for q, up in enumerate(poset.up_masks):
        end = start + up.bit_count() - 1
        if max(chain.from_iterable(tuples[start:end]), default=-1) >= sizes[q]:
            return None
        spans.append((start, end))
        start = end
    tables = dict(zip(pairs, tuples))
    for r, q in poset.hasse_pairs():
        lower = tables[r, q].__getitem__
        start, end = spans[q]
        for (_, p), tab in zip(pairs[start:end], tuples[start:end]):
            if tuple(map(lower, tab)) != tables[r, p]:
                return None
    return tables


def _scanned_tables(
    poset: FinitePoset, sizes: tuple[int, ...], maps: Mapping[tuple[int, int], Sequence[int]]
) -> dict[tuple[int, int], tuple[int, ...]]:
    """The tables of a functor, checked one law at a time; the first failure
    is raised: a missing or non-function table, pairs in (q, p) order, then
    a key that is no strict pair, then a broken composite, triples in
    (r, q, p) order."""
    labels = poset.labels

    def broken(message: str, **elems: int) -> FunctorialityError:
        witness = {k: labels[e] for k, e in elems.items()}
        return FunctorialityError(message, witness=witness, **elems)

    pairs = poset._strict_pairs()
    tables: dict[tuple[int, int], tuple[int, ...]] = {}
    for q, p in pairs:
        if (q, p) not in maps:
            raise broken(f"missing restriction for {labels[q]} <= {labels[p]}", q=q, p=p)
        tab = maps[q, p]
        if not (
            type(tab) in (list, tuple)
            and len(tab) == sizes[p]
            and all(type(v) is int and 0 <= v < sizes[q] for v in tab)
        ):
            raise broken(
                f"restriction for {labels[q]} <= {labels[p]} "
                f"is not a function between the value sets",
                q=q,
                p=p,
            )
        tables[q, p] = tuple(tab)
    for key in maps:
        if key not in tables:
            named = _pair_name(labels, key)
            raise ParseError(
                f"restriction {named!r} does not match a strict pair", witness={"key": named}
            )
    for r, q in pairs:
        lower = tables[r, q]
        for p in _bits(poset.up_masks[q] ^ 1 << q):
            if tuple(lower[b] for b in tables[q, p]) != tables[r, p]:
                raise broken(
                    f"composite restriction violated at "
                    f"{labels[r]} <= {labels[q]} <= {labels[p]}",
                    r=r,
                    q=q,
                    p=p,
                )
    return tables


def _pair_name(labels: Sequence[str], key: object) -> str:
    """``q<=p`` in labels for a pair of element ids, else the key's repr."""
    if (
        isinstance(key, tuple)
        and len(key) == 2
        and all(type(i) is int and 0 <= i < len(labels) for i in key)
    ):
        return f"{labels[key[0]]}<={labels[key[1]]}"
    return repr(key)


def matching_families(
    presheaf: Presheaf, cover: Iterable[int]
) -> Iterator[dict[int, int]]:
    """All matching families over a cover, in lexicographic value order;
    PosetMismatchError names a cover member that is no element id."""
    elems = sorted(_element_ids(presheaf.poset, cover))
    return (dict(zip(elems, values)) for values in _matching_tuples(presheaf, elems))


_Check = tuple[Sequence | None, int, Sequence | None]


def _family_walk(
    values: Sequence[Sequence[int]], checks: Sequence[Sequence[_Check]]
) -> Iterator[tuple[int, ...]]:
    """The tuples v with v[k] in ``values[k]``, each ascending, such that
    mine[v[k]] == theirs[v[j]], j < k, for each check (mine, j, theirs) at
    each position k, None standing for the identity; lazily, in
    lexicographic order.  Position k tries the fibre of its first check's
    table at the key read from the prefix, or that key under the identity,
    its other checks filter, and with no check it tries all its values.  A
    prefix that no tuple extends is still walked: there is no look-ahead."""

    def grow(prefixes, vals, pairs):
        if not pairs:
            for prefix in prefixes:
                for v in vals:
                    yield prefix + (v,)
            return
        (mine, j, theirs), rest = pairs[0], pairs[1:]
        fibres: dict[object, list[int]] = {}
        for v in vals if mine is not None else ():
            fibres.setdefault(mine[v], []).append(v)
        for prefix in prefixes:
            key = prefix[j] if theirs is None else theirs[prefix[j]]
            for v in fibres.get(key, ()) if mine is not None else (key,) if key in vals else ():
                for m, i, t in rest:
                    if (v if m is None else m[v]) != (prefix[i] if t is None else t[prefix[i]]):
                        break
                else:
                    yield prefix + (v,)

    families: Iterator[tuple[int, ...]] = iter(((),))
    for vals, pairs in zip(values, checks):
        families = grow(families, vals, pairs)
    return families


def _matching_tuples(presheaf: Presheaf, elems: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The matching families on ``elems``, ascending element ids, as tuples
    of their values in that order, lazily and in lexicographic order.

    :func:`_family_walk` checks a family along the cover pairs y < x of
    ``elems`` as a subposet, each when its later member is chosen, first
    those where that member is y: every comparable pair of members is a
    composite of such pairs, and F is functorial.  Each member x is also
    checked, at every later member b below it, against the first earlier
    member above b; a family agrees at b, so this only cuts prefixes.  The
    order is read from the masks alone."""
    poset, maps, sizes = presheaf.poset, presheaf.maps, presheaf.sizes
    down, up = poset.down_masks, poset.up_masks
    members = _mask(elems)
    checks: list[list[_Check]] = [[] for _ in elems]
    for k, x in enumerate(elems):
        if not (below := members & down[x] ^ 1 << x):
            continue
        for y in _bits(_maximal(down, below)):
            j = (members & (1 << y) - 1).bit_count()
            if y < x:
                checks[k].append((maps[y, x], j, None))
            else:
                checks[j].insert(0, (None, k, maps[y, x]))
        earlier = members & (1 << x) - 1
        for b in _bits(below >> x << x):
            if above := up[b] & earlier:
                low = above & -above
                j = (members & low - 1).bit_count()
                checks[k].append((maps[b, x], j, maps[b, low.bit_length() - 1]))
    return _family_walk([range(sizes[x]) for x in elems], checks)


def _restriction_index(
    presheaf: Presheaf, p: int, elems: Sequence[int]
) -> dict[tuple[int, ...], list[int]]:
    """The values at p grouped by their restrictions to ``elems`` (in that
    order), each group ascending: a family's amalgamations are its group."""
    tables = [presheaf.restriction(x, p) for x in elems]
    keys = zip(*tables) if tables else [()] * presheaf.sizes[p]
    index: dict[tuple[int, ...], list[int]] = {}
    for a, key in enumerate(keys):
        index.setdefault(key, []).append(a)
    return index


class SheafCheck:
    """The verdict of :func:`is_sheaf`: ``ok``, and for a presheaf that is
    not a sheaf the first matching family without a unique amalgamation.

    :func:`is_sheaf` decides ``ok`` on least covers alone and searches for
    the witness only when ``witness`` is first read.  Checks compare equal
    when ``(ok, witness)`` does.
    """

    __slots__ = ("ok", "_witness", "_search")

    def __init__(self, ok: bool, witness: dict | None = None):
        self.ok = ok
        self._witness = witness
        self._search: tuple[Presheaf, GrothTopology, int] | None = None

    @property
    def witness(self) -> dict | None:
        """The witness of the first failing p at which :func:`_sheaf_scan`
        finds one: the kept first failure, then each next one in turn."""
        if self._search is not None:
            presheaf, topology, p = self._search
            while (found := _sheaf_scan(presheaf, topology, p)) is None:
                p = _least_cover_failure(presheaf, topology, p + 1)
            self._witness, self._search = found, None
        return self._witness

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SheafCheck):
            return NotImplemented
        return (self.ok, self.witness) == (other.ok, other.witness)

    def __hash__(self) -> int:
        return hash((self.ok, self.witness))

    def __repr__(self) -> str:
        return f"SheafCheck(ok={self.ok!r}, witness={self.witness!r})"


def is_sheaf(presheaf: Presheaf, topology: GrothTopology) -> SheafCheck:
    """Unique amalgamation for every matching family of every cover.

    The least covers L_p = down(X & down(p)) form a basis of J(X):
    L_p & down(q) contains L_q for q <= p, and the union of the L_r over
    r in L_p contains L_p.  So F is a sheaf iff each F(p) maps bijectively,
    by restriction, onto the matching families on L_p.  Call F(s) separated
    when restriction to X & down(s) is injective; every z in L_s is under an
    x in X & down(s), so this is injectivity on L_s.  With F(s) separated
    for all s <= p, the matching families on L_p are those on X & down(p),
    and if F(p) maps bijectively onto them every cover S of p passes: a
    family on S has one amalgamation a on L_p, and F(s <= p)(a) agrees with
    the family at s in S on X & down(s), so equals it.  A sheaf passes this
    test at every p: F(s) is separated, as a family on L_s is fixed by its
    values on X & down(s), and F(p) is in bijection with the families on
    L_p.  So the test decides ``ok`` exactly, and :func:`_sheaf_scan` never
    runs for it.  :func:`_least_cover_failure` runs the test on the tops
    of each cut, its maximal elements.  The witness, read lazily, scans the
    failing p in ascending order; every p that passes the test passes the
    scan, so it is the first failure of the all-covers scan.  A failed
    check keeps only its presheaf, topology and first failing p; the scans,
    and the search for later failures, run when the witness is first read.
    """
    if presheaf.poset != topology.poset:
        raise PosetMismatchError("presheaf and topology live on different posets")
    first = _least_cover_failure(presheaf, topology, 0)
    check = SheafCheck(first is None)
    if first is not None:
        check._search = (presheaf, topology, first)
    return check


def _least_cover_failure(presheaf: Presheaf, topology: GrothTopology, start: int) -> int | None:
    """The least p >= ``start`` where some F(s) with s <= p is not
    separated or F(p) has fewer values than there are matching families on
    the cut X & down(p), or None.  Each member of a cut lies under one of
    the cut's tops, its maximal elements, and a family's value there is the
    restriction of its value at that top.  Hence F(s) is separated iff
    restriction to the tops of its cut is injective; for s in X the top is
    s and restriction is the identity, and an empty cut has one family, so
    |F(s)| <= 1 is needed.  A cut with one top t has |F(t)| families, which
    is |F(p)| for p in X, and one with none has one, the empty family.
    :func:`_family_count` counts the families of every cut up to
    |F(p)| + 1: with F(p) separated its images are |F(p)| distinct
    families, so the count differs from |F(p)| only when it is larger.  The
    separation of every s is decided first, into one mask, and the same
    pass reads X off the tops into another.  It returns one failure:
    :func:`is_sheaf` needs the first only, and the witness asks again past
    a failing p whose scan passes."""
    poset, sizes, maps = presheaf.poset, presheaf.sizes, presheaf.maps
    tops = topology._cut_tops()
    unseparated = members = 0
    for s, ts in enumerate(tops):
        if len(ts) == 1:
            if ts[0] == s:  # ts == (s,) iff s in X
                members |= 1 << s
            elif len(set(maps[ts[0], s])) != sizes[s]:
                unseparated |= 1 << s
        elif ts:
            if len(set(zip(*[maps[t, s] for t in ts]))) != sizes[s]:
                unseparated |= 1 << s
        elif sizes[s] > 1:
            unseparated |= 1 << s
    down = poset.down_masks
    for p in range(start, len(tops)):
        if down[p] & unseparated:
            return p
        ts = tops[p]
        families = sizes[ts[0]] if len(ts) == 1 else _family_count(presheaf, members, ts, sizes[p])
        if families != sizes[p]:
            return p
    return None


def _family_count(presheaf: Presheaf, xs: int, tops: Sequence[int], bound: int) -> int:
    """The number of matching families on a cut with these tops, X given
    as a mask, or ``bound`` + 1 if there are more.

    A tuple of top values is a family iff the tops agree on every element
    of X below two of them: a member below one top only is fixed by that
    top, and if x <= y with y below t then x is below t too, so the
    family's values at x and y come from one top and agree along x <= y.
    With no such element there are the product of the |F(t)|.  Otherwise
    :func:`_family_walk` takes the tops connected, fewest values first,
    each checked against the first earlier top above each of its elements
    of X, once per such top, on all its elements at once.  From the last top back to the third, each
    check first drops the earlier top's values that agree with no later
    value.  So if each top has one check, as on tops that share elements
    along a tree, every value tried past the first top yields a family;
    only a top with two checks can meet a prefix that no family extends."""
    down, maps, sizes = presheaf.poset.down_masks, presheaf.maps, presheaf.sizes
    seen = shared = 0  # the elements of X below one of the tops, and below two
    for t in tops:
        shared |= seen & down[t]
        seen |= down[t] & xs
    if not shared:
        return min(prod(sizes[t] for t in tops), bound + 1)
    order: list[int] = []
    checks: list[list[_Check]] = []
    left, seen = sorted(tops, key=sizes.__getitem__), 0
    while left:
        t = next((u for u in left if down[u] & seen), left[0])
        left.remove(t)
        pairs, rest = [], down[t] & xs
        for j, u in enumerate(order):
            if common := rest & down[u]:  # the elements of X below t whose first top is u
                rest ^= common
                below = _bits(common)
                pairs.append(
                    (maps[below[0], t], j, maps[below[0], u]) if len(below) == 1 else
                    (list(zip(*[maps[x, t] for x in below])), j,
                     list(zip(*[maps[x, u] for x in below])))
                )
        checks.append(pairs)
        order.append(t)
        seen |= down[t] & xs
    values: list[Sequence[int]] = [range(sizes[t]) for t in order]
    for k in range(len(order) - 1, 1, -1):
        for mine, j, theirs in checks[k]:
            keys = {mine[v] for v in values[k]}
            values[j] = [u for u in values[j] if theirs[u] in keys]
    return sum(1 for _ in islice(_family_walk(values, checks), bound + 1))


def _sheaf_scan(presheaf: Presheaf, topology: GrothTopology, p: int) -> dict | None:
    """The first matching family on a cover of p without a unique
    amalgamation: covers walked lazily from the least cover down(X & down(p))
    in sorted-member order by :func:`_sieves_between`, as every witness walks
    its sieves, so the scan stops at the first failing cover however wide p
    is; families in lexicographic order, one index of F(p) per cover.  With
    an empty cut the first cover is the empty sieve, whose one family, the
    empty one, has every value at p as an amalgamation."""
    poset = presheaf.poset
    down = poset.down_masks
    cut = _mask(topology.subset) & down[p]
    if not cut and presheaf.sizes[p] != 1:
        return {
            "p": poset.labels[p],
            "cover": [],
            "family": {},
            "amalgamations": list(range(presheaf.sizes[p])),
        }
    for elems in map(_bits, _sieves_between(down, _down_closure(down, cut), down[p])):
        index = _restriction_index(presheaf, p, elems)
        for family in _matching_tuples(presheaf, elems):
            hits = index.get(family, [])
            if len(hits) != 1:
                return {
                    "p": poset.labels[p],
                    "cover": [poset.labels[i] for i in elems],
                    "family": {poset.labels[k]: v for k, v in zip(elems, family)},
                    "amalgamations": hits,
                }
    return None


# -- restriction and extension ------------------------------------------------


def restrict_presheaf(presheaf: Presheaf, subset: Iterable[int]) -> Presheaf:
    """Reindex values and restrictions to the induced subposet;
    PosetMismatchError names a subset member that is no element id."""
    elems = sorted(_element_ids(presheaf.poset, subset))
    sub = presheaf.poset.induced(elems)
    sizes = [presheaf.sizes[e] for e in elems]
    tables = presheaf.maps
    maps = {(q, p): tables[elems[q], elems[p]] for q, p in sub._strict_pairs()}
    return Presheaf._trusted(sub, sizes, maps)


@dataclass(frozen=True)
class ExtendedPresheaf:
    """The right Kan extension Ran_X of a presheaf on a subset X.

    The value at p is the set of matching families on X & down(p), stored
    as explicit tuples in support order; restriction is tuple truncation.
    """

    presheaf: Presheaf
    support: tuple[tuple[int, ...], ...]  # per p: subset & down(p), sorted
    families: tuple[tuple[tuple[int, ...], ...], ...]  # per p: family tuples


def extend_presheaf(
    base: Presheaf, poset: FinitePoset, subset: Iterable[int]
) -> ExtendedPresheaf:
    """Materialize the matching families below each element.

    ``base`` lives on the induced subposet of ``subset``, whose index order
    is that of the subset, so the families on X & down(p) are those of
    :func:`_matching_tuples` on the base ids of the support, in support
    order.  They are listed once per distinct support, and elements with
    one support share them.  The table of q < p picks, per family at p,
    the values of the members below q, and looks the result up among the
    families at q; it depends on the two supports alone, so it is built
    once per pair of them.  PosetMismatchError names a subset member that
    is no element id.
    """
    elems = sorted(_element_ids(poset, subset))
    pos = {e: k for k, e in enumerate(elems)}
    if base.poset != poset.induced(elems):
        raise PosetMismatchError("base presheaf is not on the induced subposet")
    members = _mask(elems)
    cuts = [members & below for below in poset.down_masks]
    supports = {cut: tuple(_bits(cut)) for cut in dict.fromkeys(cuts)}
    listed = {
        cut: tuple(_matching_tuples(base, [pos[x] for x in xs])) for cut, xs in supports.items()
    }
    lookups = {cut: {fam: i for i, fam in enumerate(fams)} for cut, fams in listed.items()}
    tables: dict[tuple[int, int], tuple[int, ...]] = {}
    maps = {}
    for q, p in poset._strict_pairs():
        pair = cuts[q], cuts[p]
        if pair not in tables:
            keep = [i for i, x in enumerate(supports[cuts[p]]) if cuts[q] >> x & 1]
            lookup = lookups[cuts[q]]
            tables[pair] = tuple(lookup[tuple(fam[i] for i in keep)] for fam in listed[cuts[p]])
        maps[(q, p)] = tables[pair]
    families = tuple(listed[cut] for cut in cuts)
    presheaf = Presheaf._trusted(poset, [len(f) for f in families], maps)
    support = tuple(supports[cut] for cut in cuts)
    return ExtendedPresheaf(presheaf, support, families)


# -- natural transformations ---------------------------------------------------


def _square_commutes(
    down_t: Sequence[int], down_s: Sequence[int], cq: Sequence[int], cp: Sequence[int]
) -> bool:
    """Whether the naturality square of q < p commutes, given the target's
    and the source's restriction tables along it: restricting after the
    component at p equals the component at q after restricting."""
    return list(map(down_t.__getitem__, cp)) == list(map(cq.__getitem__, down_s))


def _is_natural(
    source: Presheaf, target: Presheaf, components: Sequence[Sequence[int]]
) -> bool:
    """Whether the components are natural, from the squares of the cover
    edges alone: between functors the square of q < r < p is the square of
    q < r pasted to that of r < p, so every square commutes once those of
    the cover edges do."""
    down_t, down_s = target.maps, source.maps
    return all(
        _square_commutes(down_t[edge], down_s[edge], components[edge[0]], components[edge[1]])
        for edge in source.poset.hasse_pairs()
    )


def natural_iso_exists(f: Presheaf, g: Presheaf) -> bool:
    """Search for a componentwise bijection commuting with restrictions.

    Components are assigned along a linear extension, so the lower covers
    of p are assigned before p: each square of a cover edge is checked once,
    when its top is assigned, which suffices by :func:`_is_natural`, and
    the search is exhaustive.  It backtracks over an explicit stack of the
    untried components at each assigned position, depth first, so it
    leaves no reference cycle behind.
    """
    if f.poset != g.poset or f.sizes != g.sizes:
        return False
    poset = f.poset
    order = poset.linear_extension
    # per p, its lower covers q with the tables of g and of f along q < p
    lower: list[list[tuple[int, tuple[int, ...], tuple[int, ...]]]] = [[] for _ in order]
    for q, p in poset.hasse_pairs():
        lower[p].append((q, g.maps[q, p], f.maps[q, p]))
    comps: list[tuple[int, ...]] = [()] * poset.n  # stale entries are reassigned before read
    untried = [permutations(range(f.sizes[p])) for p in order[:1]]
    while untried:
        p = order[len(untried) - 1]
        for comp in untried[-1]:  # up to the first whose squares all commute
            for q, gt, ft in lower[p]:
                if not _square_commutes(gt, ft, comps[q], comp):
                    break
            else:
                break
        else:
            untried.pop()
            continue
        if len(untried) == len(order):
            return True
        comps[p] = comp
        untried.append(permutations(range(f.sizes[order[len(untried)]])))
    return not order  # the empty poset's one transformation, or none found


def _iso_key(presheaf: Presheaf) -> tuple:
    """An invariant of natural isomorphism: the value sizes and, per cover
    edge q < p, the sorted fibre sizes of the restriction F(p) -> F(q)."""
    sizes, maps = presheaf.sizes, presheaf.maps
    return sizes, tuple(
        tuple(sorted(map(maps[q, p].count, range(sizes[q]))))
        for q, p in presheaf.poset.hasse_pairs()
    )


def _iso_classes(presheaves: Sequence[Presheaf]) -> tuple[list[Presheaf], list[int]]:
    """The first member of each natural-isomorphism class, in order, and
    the class label (an index into those reps) of every presheaf.  The
    search runs only against the earlier reps with the same
    :func:`_iso_key`, in order, so it finds the same first isomorphic rep."""
    reps: list[Presheaf] = []
    labels: list[int] = []
    buckets: dict[tuple, list[int]] = {}
    for f in presheaves:
        bucket = buckets.setdefault(_iso_key(f), [])
        label = next((k for k in bucket if natural_iso_exists(f, reps[k])), None)
        if label is None:
            label = len(reps)
            reps.append(f)
            bucket.append(label)
        labels.append(label)
    return reps, labels


# -- representables and enumeration --------------------------------------------


def yoneda_presheaf(poset: FinitePoset, p: int) -> Presheaf:
    """Singleton values on the down-set of p, empty elsewhere.  Functorial
    by construction: every table is constant at 0, and the table of q < r
    is empty unless r <= p, and then q <= p, so F(q) holds 0."""
    below = poset.down_masks[p]
    sizes = [below >> q & 1 for q in range(poset.n)]
    maps = {(q, r): (0,) * sizes[r] for q, r in poset._strict_pairs()}
    return Presheaf._trusted(poset, sizes, maps)


def enumerate_presheaves(
    poset: FinitePoset,
    value_cap: int = DEFAULT_VALUE_CAP,
    max_elements: int = DEFAULT_ELEMENT_CAP,
    max_value_cap: int = DEFAULT_VALUE_CAP,
) -> list[Presheaf]:
    """Every functor with canonical value sets of size up to ``value_cap``.

    Maps are enumerated on cover edges only and composed along canonical
    paths, so every table is a function between the value sets.  A choice
    is kept when composition holds on each triple r < q < p whose lower
    step r < q is a cover edge; by induction on the length of [r, q] it then
    holds on every triple.  A triple that is the canonical path of r < p
    holds by construction and is not checked.  Shapes that would need a
    function into an empty set are skipped automatically.
    """
    if poset.n > max_elements or value_cap > max_value_cap:
        raise TooLargeError(
            f"{poset.n} elements at value cap {value_cap} exceeds the configured caps",
            witness={"max_elements": max_elements, "max_value_cap": max_value_cap},
        )
    edges = poset.hasse_pairs()
    routes = _routes(poset, edges)
    made = set(routes)
    # the composed tables are held by slot: the edges, then the routes
    slot_pairs = [*edges, *((q, p) for q, _, p in routes)]
    slot = {pair: k for k, pair in enumerate(slot_pairs)}
    route_slots = [(slot[q, r], slot[r, p]) for q, r, p in routes]
    triple_slots = [
        (slot[r, p], slot[r, q], slot[q, p])
        for r, q in edges
        for p in _bits(poset.up_masks[q] ^ 1 << q)
        if (r, q, p) not in made
    ]
    out: list[Presheaf] = []
    for sizes in product(range(value_cap + 1), repeat=poset.n):
        # the first edge varies slowest, as in a depth-first assignment
        tables = [product(range(sizes[q]), repeat=sizes[p]) for q, p in edges]
        for choice in product(*tables):
            composed = list(choice)
            for qr, rp in route_slots:
                composed.append(tuple(map(composed[qr].__getitem__, composed[rp])))
            for rp, rq, qp in triple_slots:
                if composed[rp] != tuple(map(composed[rq].__getitem__, composed[qp])):
                    break
            else:
                out.append(Presheaf._trusted(poset, sizes, dict(zip(slot_pairs, composed))))
    return out


def _routes(
    poset: FinitePoset, edges: Sequence[tuple[int, int]]
) -> list[tuple[int, int, int]]:
    """The canonical path of every strict pair q < p that is not a cover
    edge, as (q, r, p): F(p) -> F(q) goes down the least lower cover r of p
    above q.  Ordered by p along the linear extension, so (q, r) is an edge
    or comes earlier."""
    edge_set = set(edges)
    down = poset.down_masks
    out = []
    for p in poset.linear_extension:
        lower = [r for r, pp in edges if pp == p]
        for q in _bits(down[p] ^ 1 << p):
            if (q, p) not in edge_set:
                out.append((q, min(r for r in lower if down[r] >> q & 1), p))
    return out


# -- the restriction/extension equivalence --------------------------------------


@dataclass(frozen=True)
class ComparisonRecord:
    index: int
    base_is_sheaf: bool
    extension_is_sheaf: bool
    counit_bijective: bool
    counit_natural: bool
    unit_bijective: bool | None
    unit_natural: bool | None

    @property
    def ok(self) -> bool:
        if not (self.counit_bijective and self.counit_natural):
            return False
        if self.base_is_sheaf:
            return bool(
                self.extension_is_sheaf and self.unit_bijective and self.unit_natural
            )
        return True


@dataclass(frozen=True)
class ComparisonReport:
    records: tuple[ComparisonRecord, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)


def _counit_components(ext: ExtendedPresheaf, elems: list[int]) -> list[tuple[int, ...]]:
    """Evaluation at the subset point itself: family |-> family value there."""
    comps = []
    for k, x in enumerate(elems):
        at = ext.support[x].index(x)
        comps.append(tuple(fam[at] for fam in ext.families[x]))
    return comps


def _unit_components(
    ext: ExtendedPresheaf, sheaf: Presheaf
) -> tuple[list[tuple[int, ...]], bool]:
    """Each family maps to its unique amalgamation in the sheaf; returns the
    components plus a flag that every amalgamation was unique."""
    comps = []
    all_unique = True
    for p in range(sheaf.poset.n):
        index = _restriction_index(sheaf, p, ext.support[p])
        col = []
        for fam in ext.families[p]:
            hits = index.get(fam, [])
            all_unique = all_unique and len(hits) == 1
            col.append(hits[0] if hits else 0)
        comps.append(tuple(col))
    return comps, all_unique


def _is_bijection_columns(components: Sequence[Sequence[int]], sizes: Sequence[int]) -> bool:
    return all(
        len(set(col)) == len(col) == size for col, size in zip(components, sizes)
    )


def comparison_check(
    poset: FinitePoset,
    subset: Iterable[int],
    topology: GrothTopology,
    base_presheaves: Sequence[Presheaf] | None = None,
    value_cap: int = DEFAULT_VALUE_CAP,
) -> ComparisonReport:
    """Certify the restriction/extension equivalence on a sample.

    The subset must be dense for the topology.  For every presheaf on the
    subset: the counit (evaluation) components are natural bijections; when
    it satisfies the induced sheaf condition, its extension satisfies the
    ambient one and the unit (amalgamation) components are natural
    bijections.
    """
    return _comparison(poset, subset, topology, base_presheaves, value_cap)[0]


def _comparison(
    poset: FinitePoset,
    subset: Iterable[int],
    topology: GrothTopology,
    base_presheaves: Sequence[Presheaf] | None,
    value_cap: int,
    keep: Container[int] = (),
) -> tuple[ComparisonReport, list[ExtendedPresheaf]]:
    """:func:`comparison_check`, with the Ran_X extension it built of each
    presheaf on the subset whose sample index is in ``keep``, in sample
    order; the others are dropped as soon as they are checked."""
    xs = frozenset(subset)
    elems = sorted(xs)
    induced = restrict_topology(poset, topology, xs)
    if base_presheaves is None:
        base_presheaves = enumerate_presheaves(
            poset.induced(elems), value_cap, max_elements=poset.n, max_value_cap=value_cap
        )
    records = []
    extensions = []
    for idx, base in enumerate(base_presheaves):
        base_ok = is_sheaf(base, induced).ok
        ext = extend_presheaf(base, poset, xs)
        if idx in keep:
            extensions.append(ext)
        ext_ok = is_sheaf(ext.presheaf, topology).ok
        counit = _counit_components(ext, elems)
        restricted = restrict_presheaf(ext.presheaf, xs)
        counit_bij = _is_bijection_columns(counit, base.sizes)
        counit_nat = _is_natural(restricted, base, counit)
        unit_bij = unit_nat = None
        if base_ok and ext_ok:
            sheaf = ext.presheaf
            re_ext = extend_presheaf(restricted, poset, xs)
            unit, unique = _unit_components(re_ext, sheaf)
            unit_bij = unique and _is_bijection_columns(unit, sheaf.sizes)
            unit_nat = _is_natural(re_ext.presheaf, sheaf, unit)
        records.append(
            ComparisonRecord(
                index=idx,
                base_is_sheaf=base_ok,
                extension_is_sheaf=ext_ok,
                counit_bijective=counit_bij,
                counit_natural=counit_nat,
                unit_bijective=unit_bij,
                unit_natural=unit_nat,
            )
        )
    return ComparisonReport(tuple(records)), extensions


# -- derived-topology sheaves via the freely adjoined bottom --------------------


def adjoin_zero(poset: FinitePoset) -> FinitePoset:
    """A fresh least element below everything, appended as the last index."""
    candidates = ["0", "bot"] + [f"bot{i}" for i in range(poset.n + 1)]
    fresh = next(name for name in candidates if name not in poset.labels)
    labels = list(poset.labels) + [fresh]
    pairs = list(poset.relation_pairs()) + [(poset.n, i) for i in range(poset.n)]
    return FinitePoset(labels, pairs)


def choose_base_point(poset: FinitePoset, subset: Iterable[int]) -> int:
    """Smallest-index element outside the up-closure of the subset."""
    outside = set(range(poset.n)) - poset.up_closure(frozenset(subset))
    if not outside:
        raise BasePointError(
            "the subset cone covers the whole poset; no base point exists"
        )
    return min(outside)


def _bottom_restrictions(
    sheaf: Presheaf, p0: int
) -> tuple[dict[int, tuple[int, ...]] | None, bool]:
    """Restriction maps from each element to the adjoined bottom, built as
    inverse-at-the-base-point composites; checked for independence of the
    mediating element."""
    masks, sizes = sheaf.poset.down_masks, sheaf.sizes
    inverses: dict[int, list[int]] = {}  # per r <= p0, the inverse of F(r <= p0)
    for r in _bits(masks[p0]):
        to_base = sheaf.restriction(r, p0)
        if len(set(to_base)) != sizes[r] or sizes[r] != sizes[p0]:
            return None, False
        inv = inverses[r] = [0] * sizes[r]
        for a, b in enumerate(to_base):
            inv[b] = a
    tables: dict[int, tuple[int, ...]] = {}
    for p, below in enumerate(masks):
        seen = {
            tuple(map(inverses[r].__getitem__, sheaf.restriction(r, p)))
            for r in _bits(below & masks[p0])
        }
        if len(seen) != 1:
            return None, False
        tables[p] = seen.pop()
    return tables, True


def extend_sheaf_over_bottom(
    sheaf: Presheaf, poset0: FinitePoset, p0: int
) -> Presheaf | None:
    """Transport a sheaf to ``poset0 = adjoin_zero(sheaf.poset)``, taking the
    base-point value at the bottom.  None when some needed restriction is
    not invertible (impossible for true derived-topology sheaves).

    The lift is functorial by construction.  Once ``_bottom_restrictions``
    succeeds, every q has some r <= q, p0, and the table at q is
    inv(F(r <= p0)) . F(r <= q) for any such r.  For q < p that r lies
    below p as well, so the table at q composed with F(q <= p) is
    inv(F(r <= p0)) . F(r <= p), the table at p.
    """
    poset = sheaf.poset
    tables, ok = _bottom_restrictions(sheaf, p0)
    if not ok:
        return None
    bottom = poset.n
    sizes = list(sheaf.sizes) + [sheaf.sizes[p0]]
    maps: dict[tuple[int, int], tuple[int, ...]] = dict(sheaf.maps)
    for p in range(poset.n):
        maps[(bottom, p)] = tables[p]
    return Presheaf._trusted(poset0, sizes, maps)


@dataclass(frozen=True)
class KxEquivalenceRecord:
    index: int
    roundtrip_identity: bool
    transported_is_sheaf: bool


@dataclass(frozen=True)
class KxEquivalenceReport:
    reduced_to_subset_case: bool
    base_point: int | None
    bottom_topology_is_subset_topology: bool
    records: tuple[KxEquivalenceRecord, ...]
    beta_ok: bool
    comparison: ComparisonReport
    sheaf_classes: int
    transported_classes: int
    transport_faithful: bool
    covered_classes: int
    cap_skipped_classes: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return (
            not self.failures
            and self.bottom_topology_is_subset_topology
            and self.beta_ok
            and self.comparison.ok
            and self.transport_faithful
            and self.sheaf_classes == self.transported_classes
            and all(r.roundtrip_identity and r.transported_is_sheaf for r in self.records)
        )


def kx_sheaf_equivalence_check(
    poset: FinitePoset,
    subset: Iterable[int],
    value_cap: int = DEFAULT_VALUE_CAP,
) -> KxEquivalenceReport:
    """Certify that derived-topology sheaves match presheaves on the subset,
    enlarged by a fresh bottom when the subset cone misses part of the poset.

    Every step of the equivalence is replayed on enumerated data: the
    bottom-extension is a sheaf and restricts back to the identity, the
    explicit comparison components are natural bijections, and the
    isomorphism-class census of sheaves matches the transported presheaves.
    """
    if not poset.is_downwards_directed():
        raise NotDownwardsDirectedError(
            "derived topologies need a downwards directed poset"
        )
    xs = frozenset(subset)
    topology = derived_topology(poset, xs)
    failures: list[str] = []
    sample = [
        f
        for f in enumerate_presheaves(
            poset, value_cap, max_elements=poset.n, max_value_cap=value_cap
        )
        if is_sheaf(f, topology).ok
    ]
    base_point: int | None = None
    if poset.up_closure(xs) == frozenset(range(poset.n)):
        matches_subset_form = topology == subset_topology(poset, xs)
        transported = [restrict_presheaf(f, xs) for f in sample]
        records = tuple(
            KxEquivalenceRecord(i, True, True) for i in range(len(sample))
        )
        beta_ok = True
        ambient, amb_subset, amb_topology, reduced = poset, xs, topology, True
    else:
        base_point = choose_base_point(poset, xs)
        poset0 = adjoin_zero(poset)
        bottom = poset.n
        x0 = xs | {bottom}
        topology0 = derived_topology(poset0, xs)
        matches_subset_form = topology0 == subset_topology(poset0, x0)
        records_list = []
        # each lift, and whether it restricts back to its sheaf
        lifts: list[tuple[Presheaf, bool]] = []
        transported = []
        for i, f in enumerate(sample):
            lifted = extend_sheaf_over_bottom(f, poset0, base_point)
            if lifted is None:
                failures.append(f"sheaf #{i}: bottom extension is not well defined")
                continue
            roundtrip = restrict_presheaf(lifted, range(poset.n)) == f
            lifts.append((lifted, roundtrip))
            lifted_ok = is_sheaf(lifted, topology0).ok
            records_list.append(KxEquivalenceRecord(i, roundtrip, lifted_ok))
            transported.append(restrict_presheaf(lifted, x0))
        records = tuple(records_list)
        beta_ok = True
        if poset0.n <= 4:
            lifts += [
                (g, False)
                for g in enumerate_presheaves(
                    poset0, value_cap, max_elements=poset0.n, max_value_cap=value_cap
                )
                if is_sheaf(g, topology0).ok
            ]
        for g, roundtrip in lifts:
            # a lift that restricts back to its sheaf f is the lift of f
            back = g if roundtrip else extend_sheaf_over_bottom(
                restrict_presheaf(g, range(poset.n)), poset0, base_point
            )
            if back is None:
                beta_ok = False
                continue
            comps = [tuple(range(g.sizes[p])) for p in range(poset.n)]
            comps.append(g.restriction(bottom, base_point))
            if not _is_bijection_columns(comps, g.sizes):
                beta_ok = False
            elif not _is_natural(back, g, comps):
                beta_ok = False
        ambient, amb_subset, amb_topology, reduced = poset0, x0, topology0, False
    # the presheaves on the subset, enumerated once for the comparison and
    # for the class census
    sub_poset = ambient.induced(sorted(amb_subset))
    sub_presheaves = enumerate_presheaves(
        sub_poset, value_cap, max_elements=sub_poset.n, max_value_cap=value_cap
    )
    # only the first member of each class keeps its extension
    firsts: dict[int, int] = {}
    for i, label in enumerate(_iso_classes(sub_presheaves)[1]):
        firsts.setdefault(label, i)
    comparison, extensions = _comparison(
        ambient, amb_subset, amb_topology, sub_presheaves, value_cap, set(firsts.values())
    )
    sheaf_reps, sheaf_labels = _iso_classes(sample)
    transported_reps, transported_labels = _iso_classes(transported)
    # the two partitions of the indices agree iff pairing the labels adds
    # no class on either side
    faithful = len(transported) == len(sample) and (
        len(set(zip(sheaf_labels, transported_labels)))
        == len(sheaf_reps)
        == len(transported_reps)
    )
    covered = 0
    cap_skipped = 0
    rep_keys = [_iso_key(f) for f in sheaf_reps]
    for ext in extensions:
        lifted = ext.presheaf
        if not reduced:
            lifted = restrict_presheaf(lifted, range(poset.n))
        if max(lifted.sizes, default=0) > value_cap:
            cap_skipped += 1
            continue
        if not is_sheaf(lifted, topology).ok:
            failures.append("back-transported presheaf is not a sheaf")
            continue
        key = _iso_key(lifted)
        if any(natural_iso_exists(lifted, f) for f, k in zip(sheaf_reps, rep_keys) if k == key):
            covered += 1
        else:
            failures.append("back-transported sheaf misses the enumeration")
    return KxEquivalenceReport(
        reduced_to_subset_case=reduced,
        base_point=base_point,
        bottom_topology_is_subset_topology=matches_subset_form,
        records=records,
        beta_ok=beta_ok,
        comparison=comparison,
        sheaf_classes=len(sheaf_reps),
        transported_classes=len(transported_reps),
        transport_faithful=faithful,
        covered_classes=covered,
        cap_skipped_classes=cap_skipped,
        failures=tuple(failures),
    )
