"""Grothendieck topologies on finite posets.

On a finite poset every topology is J(X) for exactly one subset X, the
elements whose only cover is their maximal sieve: s covers p iff
X & down(p) <= s.  A topology is stored as X, so no invalid one can be
built.  Its covers of p are the sieves above the least cover
L_p = down(X & down(p)), listed as masks grown from L_p.  Each constructor
and conversion computes X in closed form (min: minimal elements):

- dense = J(min P): s holds min P & down(p) iff its up-closure holds down(p);
  atomic and derived(Y) add the bottom, held by exactly the nonempty sieves.
- meet = J(X | Y), join = J(X & Y): J reverses inclusion.
- lx(X) = J(min X): down(m) & X = {m} for m in min X, and min X is under X.
- D is dense iff X <= D: down(D & down(p)) covers p iff it holds X & down(p).
- restricting to a dense D gives J_D(X): s & D holds X & down(x) iff s does.
- extending J_D(Y) gives J(Y): Y & down(x) <= s for all x in D & down(p) iff
  Y & down(p) <= s, as Y <= D.

Families from outside, in :func:`validate_topology`, must hold element ids
and must equal J(X) for the X read off them: each family is compared with
the covers of p in J(X), listed by the down-set kernel and capped at the
family's own size, so the work is bounded by the size of the input.
Otherwise the axiom scan finds the exact witness; families that are not
J(X) always fail an axiom, so none is replaced by J(X).  A topology
document is read straight into masks, one label-to-bit table per document,
and goes through the same check; the CLI hands it the ``--poset`` poset
when the document embeds the same JSON.  The scan runs on masks, and reads
its transitivity witness off the normal form within the same bound.
Subset arguments go through one id check.  The census
:func:`enumerate_all_topologies` lists J(X) for the 2^n subsets X.

A cover family depends only on the key (p, L_p), so the JSON listing of
covers lists each key once, from the down masks and linear extension that
the poset built once: ``covers_json`` once per key of its own call, and the
``enumerate`` verb once per key of the whole census, whose document then
holds each family once and refers to it from every J(X) with that key.

The finest subcanonical topology is J(C) for a closed-form C, and J(X) is
subcanonical iff C <= X (see :func:`canonical_subset_report`), so
:func:`is_subcanonical` is that one mask test.

Each topology builds, on first read, the tops of every cut X & down(p),
its maximal elements, which fix a matching family on the cut; the sheaf
check reads them.

Site morphisms and the subcanonicity witnesses read X too, through the
least cover L_p = down(X & down(p)), the weakest cover of p:

- phi: (P, J(X)) -> (Q, J(Y)) preserves covers at p iff
  Y & down(phi p) <= down(phi(X & down(p))), the image of L_p; it has
  covering lifting at p iff phi(X & down(p)) <= down(Y & down(phi p)), the
  least cover of phi(p).  Images and down-closures are monotone and covers
  up-closed, so a failing cover means a failing least cover.
- the representable of p fails for q iff q is not <= p and some cover of q
  lies in down(p), that is iff L_q does: X & down(q) <= down(p).

Witness searches iterate elements in index order, but transitivity takes
the least id among the minimal failing elements, and sieves in
sorted-member order, so reported counterexamples are deterministic; JSON
listings instead order sieves by their stable frame id.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterable, Iterator, Sequence

from .errors import (
    AxiomViolation,
    FrameTooLargeError,
    InvalidInnerTopologyError,
    NotDenseError,
    NotDownwardsDirectedError,
    NotOrderIsomorphismError,
    ParseError,
    PosetMismatchError,
    TooLargeForBruteForceError,
)
from .poset import (
    DEFAULT_FRAME_CAP,
    FinitePoset,
    OrderMorphism,
    _LabelRows,
    _bits,
    _down_closure,
    _downset_masks,
    _mask,
    _maximal,
)

DEFAULT_BRUTE_FORCE_CAP = 4


def _element_ids(poset: FinitePoset, subset: Iterable) -> frozenset[int]:
    """The subset as a frozenset of element ids; PosetMismatchError names the
    first member that is not one, hashable or not."""
    members = tuple(subset)
    for e in members:
        if not (type(e) is int and 0 <= e < poset.n):
            raise PosetMismatchError(
                f"{e!r} is not an element of the poset", witness={"id": repr(e)}
            )
    return frozenset(members)


class GrothTopology:
    """The topology J(X) generated by a subset X: s covers p iff X & down(p) <= s.
    X is the whole representation; :meth:`_cut_tops` is read off it."""

    __slots__ = ("poset", "subset", "_tops")

    def __init__(self, poset: FinitePoset, subset: Iterable[int]):
        self.poset = poset
        self.subset = _element_ids(poset, subset)
        self._tops: tuple[tuple[int, ...], ...] | None = None

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GrothTopology)
            and self.poset == other.poset
            and self.subset == other.subset
        )

    def __hash__(self) -> int:
        return hash((self.poset, self.subset))

    def __repr__(self) -> str:
        labels = self.poset.labels
        gens = sorted(labels[i] for i in self.subset)
        return f"<GrothTopology on {list(labels)} generated_by={gens}>"

    def _cut_tops(self) -> tuple[tuple[int, ...], ...]:
        """Per element p, the maximal elements of the cut X & down(p),
        ascending: the cut minus the strict down-sets of its members.  They
        are (p,) iff p is in X.  Built once."""
        if self._tops is None:
            down = self.poset.down_masks
            xs = _mask(self.subset)
            self._tops = tuple(tuple(_bits(_maximal(down, xs & d))) for d in down)
        return self._tops

    def covers_json(self) -> dict[str, list[list[str]]]:
        """The ``covers`` field of the JSON form: per element label, its
        covers as sorted label lists in frame id order, in lists of this
        call's own."""
        return _CoverListing(self.poset).covers_json(self.subset)

    def _json(self, rows: _LabelRows) -> dict:
        """The JSON form, with the covers as ``rows`` writes them."""
        covers = _CoverListing(self.poset, rows).covers_json(self.subset)
        return {"poset": self.poset.to_json(), "covers": covers}

    def to_json(self) -> dict:
        return self._json(_LabelRows(self.poset.labels))

    @classmethod
    def from_json(cls, doc: object, poset: FinitePoset | None = None) -> "GrothTopology":
        """Read ``{"poset": {...}, "covers": {label: [[label, ...], ...]}}`` and
        validate it; any other shape is a ParseError with the offending value.
        The covers are read on ``poset`` when given, which the caller has
        found to be the document's own; with None the document's poset is
        read."""
        if not isinstance(doc, dict):
            raise ParseError("topology JSON must be an object", witness={"document": doc})
        if poset is None:
            poset = FinitePoset.from_json(doc.get("poset"))
        families = doc.get("covers")
        if not isinstance(families, dict):
            raise ParseError("'covers' is not an object", witness={"covers": families})
        return _validate_masks(poset, _family_rows(poset, families))


def find_axiom_violation(poset: FinitePoset, fams: Sequence[set[int]]) -> AxiomViolation | None:
    """First axiom failure in deterministic witness order, or None: the sieve,
    maximality, stability and transitivity passes in turn.  The first three
    run p ascending, then sieves in sorted-member order, then q ascending;
    the families are sets of masks, as :func:`validate_topology` reads them.

    Transitivity is read off the normal form, X the elements whose only
    cover is their maximal sieve.  Once the first three passes hold, every
    family lies in J(X): x in X & down(p) and a cover s of p give
    s & down(x) in fams[x] = {down(x)}.  So a failure (p, s, r) has r in
    J(X)(p) - fams[p], and at a minimal p whose family is not J(X)(p) every
    such r fails at every cover s other than down(p), which exists as p is
    not in X: for q in s, fams[q] = J(X)(q) holds r & down(q).  The witness
    is the least such p by id, the first such r in sorted-member order,
    among the first |fams[p]| + 1 sieves holding L_p = down(X & down(p)),
    and the first such s; with ids a linear extension, p is the first
    element with a failure.
    """
    labels = poset.labels
    principal = poset.down_masks

    def names(mask: int) -> list[str]:
        return sorted(labels[i] for i in _bits(mask))

    for p, down in enumerate(principal):
        bad = [s for s in fams[p] if s & ~down or _down_closure(principal, s) != s]
        if bad:
            s = min(bad, key=_bits)
            return AxiomViolation(
                f"{names(s)} is not a sieve on {labels[p]}",
                axiom="sieve",
                p=p,
                sieve=frozenset(_bits(s)),
            )
    for p, down in enumerate(principal):
        if down not in fams[p]:
            return AxiomViolation(
                f"maximal sieve missing from the covers of {labels[p]}",
                axiom="maximality",
                p=p,
                sieve=frozenset(_bits(down)),
            )
    for p, fam in enumerate(fams):
        below = [(q, principal[q], fams[q]) for q in _bits(principal[p]) if q != p]
        failing = {}  # cover -> its first q whose cut is no cover
        for s in fam:
            for q, dq, fq in below:
                if s & dq not in fq:
                    failing[s] = q
                    break
        if failing:
            s = min(failing, key=_bits)
            q = failing[s]
            return AxiomViolation(
                f"stability fails at ({labels[p]}, {names(s)}, {labels[q]})",
                axiom="stability",
                p=p,
                sieve=frozenset(_bits(s)),
                q=q,
                other=frozenset(_bits(s & principal[q])),
            )
    xs = _mask(p for p, fam in enumerate(fams) if len(fam) == 1)  # each holds down(p)
    unlike = _mask(_unlike_j_of(poset, fams, xs))
    if not unlike:
        return None
    p = _bits(_maximal(poset.up_masks, unlike))[0]  # with the up masks, the minimal ones
    fam, high = fams[p], principal[p]
    least = _down_closure(principal, xs & high)
    r = next(r for r in _sieves_between(principal, least, high) if r not in fam)
    s = min((s for s in fam if s != high), key=_bits)
    return AxiomViolation(
        f"transitivity fails at ({labels[p]}, {names(s)}); {names(r)} should be a cover",
        axiom="transitivity",
        p=p,
        sieve=frozenset(_bits(s)),
        other=frozenset(_bits(r)),
    )


def _least_covers(principal: Sequence[int], xs: int) -> list[int]:
    """Per element p, the mask of its least cover L_p = down(X & down(p)),
    from the masks of the principal down-sets and X as a mask."""
    return [_down_closure(principal, xs & down) for down in principal]


def _family_rows(poset: FinitePoset, families: dict) -> list[set[int]]:
    """Each element's family, given as label rows under its label, as a set
    of masks, empty for an element with none.  A row becomes a mask off the
    poset's label-to-bit table, its bits combined by OR, so a label
    repeated in a row is one member and cannot carry into the next bit.  A
    family that is not read so is checked member by member: an unknown
    label, or a family that is not lists of labels, is a ParseError."""
    get = poset._label_bits().__getitem__
    fams: list[set[int]] = [set() for _ in range(poset.n)]
    for label, sieves in families.items():
        p = poset.index_of(label)
        try:
            if type(sieves) is list and set(map(type, sieves)) <= {list}:
                fams[p] = {reduce(or_, map(get, s), 0) for s in sieves}
                continue
        except (KeyError, TypeError):  # an unknown or unhashable label
            pass
        if not (
            isinstance(sieves, list)
            and all(isinstance(s, list) and all(isinstance(m, str) for m in s) for s in sieves)
        ):
            raise ParseError(
                f"the covers of {label!r} are not lists of element labels",
                witness={"element": label, "family": sieves},
            )
        fams[p] = {_mask(map(poset.index_of, s)) for s in sieves}
    return fams


def _unlike_j_of(poset: FinitePoset, fams: Sequence[set[int]], xs: int) -> Iterator[int]:
    """The elements whose family is not their covers in J(X), X given as a
    mask, ascending.  The covers of p in J(X) are the down-sets between
    L_p = down(X & down(p)) and down(p), listed by the down-set kernel up to
    the size of p's family, so a short family on a wide element stops the
    listing at once: more covers than the family holds means it differs."""
    down = poset.down_masks
    for p, (fam, high, least) in enumerate(zip(fams, down, _least_covers(down, xs))):
        try:
            if fam == set(_downset_masks(poset, high, len(fam), least)):
                continue
        except FrameTooLargeError:
            pass
        yield p


def _sieves_between(down: Sequence[int], least: int, high: int) -> Iterator[int]:
    """The down-sets between the down-sets ``least`` and ``high``, all masks,
    in sorted-member order.

    Depth first, adding members of ``high`` in ascending order.  A node is a
    prefix, its closure (``least`` joined with the down-sets of the prefix's
    members) and the members above its last one still to try; it is a
    down-set when it equals its closure.  A member e is added only while the
    closure holds nothing below e outside the prefix, which no later member
    could add, so every node entered leads to a down-set: its closure.  The
    stack holds the nodes to come back to."""
    prefix, closed, rest = 0, least, high
    stack = []
    while True:
        if closed == prefix:
            yield prefix
        while True:  # down to the next node, or back up
            bit = rest & -rest
            if rest and not closed & ~prefix & bit - 1:
                rest ^= bit
                grown = closed | down[bit.bit_length() - 1]
                if not grown & ~prefix & bit - 1:
                    stack.append((prefix, closed, rest))
                    prefix, closed = prefix | bit, grown
                    break
            elif stack:
                prefix, closed, rest = stack.pop()
            else:
                return


class _CoverListing:
    """The ``covers`` field of the JSON form of J(X), for any X on one poset.

    The covers of p are the sieves on p holding L_p = down(X & down(p)), so
    a family depends only on the key (p, L_p): it is listed once per key and
    handed out again for every later X with that key.  Each family is
    written by ``rows``, plain label lists unless given a text writer.  An
    instance serves one call, so its families are shared only inside the
    document that call builds.
    """

    __slots__ = ("poset", "rows", "_families")

    def __init__(self, poset: FinitePoset, rows: _LabelRows | None = None):
        self.poset = poset
        self.rows = rows if rows is not None else _LabelRows(poset.labels)
        self._families: dict[tuple[int, int], object] = {}

    def covers_json(self, subset: Iterable[int]) -> dict[str, object]:
        poset = self.poset
        down = poset.down_masks
        out = {}
        for p, least in enumerate(_least_covers(down, _mask(subset))):
            family = self._families.get((p, least))
            if family is None:
                masks = _downset_masks(poset, down[p], DEFAULT_FRAME_CAP, least)
                family = self._families[p, least] = self.rows.rows(masks)
            out[poset.labels[p]] = family
        return out


def _family_masks(poset: FinitePoset, covers: Sequence[Iterable]) -> list[set[int]]:
    """Each cover family as a set of masks, after checking that there is one
    family per element and that every member of a family is a collection of
    element ids."""
    n, labels = poset.n, poset.labels
    if len(covers) != n:
        raise PosetMismatchError(
            f"{len(covers)} cover families for {n} elements",
            witness={"families": len(covers), "elements": n},
        )
    fams = []
    for p, fam in enumerate(covers):
        masks = set()
        for s in fam:
            try:
                members = iter(s)
            except TypeError:
                raise PosetMismatchError(
                    f"{s!r} in the covers of {labels[p]} is not a set of element ids",
                    witness={"element": labels[p], "sieve": repr(s)},
                ) from None
            mask = 0
            for e in members:
                if not (type(e) is int and 0 <= e < n):
                    raise PosetMismatchError(
                        f"{e!r} in a cover of {labels[p]} is not an element of the poset",
                        witness={"element": labels[p], "id": repr(e)},
                    )
                mask |= 1 << e
            masks.add(mask)
        fams.append(masks)
    return fams


def validate_topology(poset: FinitePoset, covers: Sequence[Iterable]) -> GrothTopology:
    """J(X) when the families, one per element, equal it for X read off them,
    the elements whose only cover is their maximal sieve.  Otherwise the
    axiom scan's first violation raises: families that are not J(X) always
    fail an axiom (see :func:`find_axiom_violation`).  A wrong number of
    families or a member that is not an element id raises
    PosetMismatchError first."""
    return _validate_masks(poset, _family_masks(poset, covers))


def _validate_masks(poset: FinitePoset, fams: Sequence[set[int]]) -> GrothTopology:
    """:func:`validate_topology` on families already read into masks."""
    xs = _mask(p for p, down in enumerate(poset.down_masks) if fams[p] == {down})
    if next(_unlike_j_of(poset, fams, xs), None) is not None:
        # never None here; raised unbound: an exception held in a local of
        # the frame its traceback holds is a reference cycle
        raise find_axiom_violation(poset, fams)
    return GrothTopology(poset, _bits(xs))


# -- constructors ---------------------------------------------------------


def subset_topology(poset: FinitePoset, subset: Iterable[int]) -> GrothTopology:
    """Covers of p are the sieves containing the subset cut down to p.

    Antitone in the subset: a larger generating subset gives a smaller
    topology.  A degenerate cut (empty intersection with the down-set of
    p) admits every sieve, including the empty one.
    """
    return GrothTopology(poset, subset)


def indiscrete_topology(poset: FinitePoset) -> GrothTopology:
    """Only maximal sieves cover: J(P)."""
    return subset_topology(poset, range(poset.n))


def discrete_topology(poset: FinitePoset) -> GrothTopology:
    """Every sieve covers: J of the empty subset."""
    return subset_topology(poset, ())


def atomic_topology(poset: FinitePoset) -> GrothTopology:
    """All nonempty sieves; defined only on downwards directed posets.

    A downwards directed finite poset has a least element, its only minimal
    element, and a sieve is nonempty iff it contains it: J({bottom}).
    """
    if not poset.is_downwards_directed():
        raise NotDownwardsDirectedError(
            "the atomic topology needs a downwards directed poset"
        )
    return subset_topology(poset, poset.minimal_elements())


def dense_topology(poset: FinitePoset) -> GrothTopology:
    """Covers of p are the sieves whose up-closure reaches everything below p.

    A sieve does so iff it holds every minimal element below p, so this is
    J of the minimal elements.
    """
    return subset_topology(poset, poset.minimal_elements())


def derived_topology(poset: FinitePoset, subset: Iterable[int]) -> GrothTopology:
    """The subset topology with the empty sieve removed everywhere.

    A sieve is nonempty iff it holds the least element, so this is
    J(subset | {bottom}).
    """
    if not poset.is_downwards_directed():
        raise NotDownwardsDirectedError(
            "the derived topology needs a downwards directed poset"
        )
    return subset_topology(poset, frozenset(subset) | poset.minimal_elements())


def lx_topology(poset: FinitePoset, subset: Iterable[int]) -> GrothTopology:
    """Covers of p are the sieves meeting the subset below every subset point under p."""
    return GrothTopology(poset, poset.minimal_elements(subset))


# -- restriction and extension along a subset inclusion -------------------


def _require_poset(poset: FinitePoset, topology: GrothTopology) -> None:
    if topology.poset != poset:
        raise PosetMismatchError("topology is not defined on the given poset")


def dense_violation(poset: FinitePoset, topology: GrothTopology, subset: Iterable[int]) -> int | None:
    """First element p whose cut sieve down(D & down(p)) is not a cover, that
    is, misses part of X & down(p); None exactly when X <= D."""
    _require_poset(poset, topology)
    ds = _mask(_element_ids(poset, subset))
    xs = _mask(topology.subset)
    down = poset.down_masks
    for p, d in enumerate(down):
        if xs & d & ~_down_closure(down, ds & d):
            return p
    return None


def restrict_topology(
    poset: FinitePoset, topology: GrothTopology, subset: Iterable[int]
) -> GrothTopology:
    """The induced topology on the subset, which must be dense for the input.

    Covers of a subset point are the intersection images of its covers.
    """
    xs = frozenset(subset)
    bad = dense_violation(poset, topology, xs)
    if bad is not None:
        raise NotDenseError(
            f"subset is not dense: the cut sieve at {poset.labels[bad]} is not a cover",
            witness={"p": poset.labels[bad]},
        )
    elems = sorted(xs)
    return GrothTopology(poset.induced(elems), (elems.index(x) for x in topology.subset))


def extend_topology(
    poset: FinitePoset, subset: Iterable[int], inner: GrothTopology
) -> GrothTopology:
    """The largest topology on the whole poset restricting to ``inner``.

    A sieve covers p exactly when its cut below every subset point under p
    is an inner cover there.
    """
    elems = sorted(_element_ids(poset, subset))
    if inner.poset != poset.induced(elems):
        raise InvalidInnerTopologyError(
            "inner topology is not defined on the induced subposet"
        )
    return GrothTopology(poset, (elems[y] for y in inner.subset))


def lxy_topology(
    poset: FinitePoset, subset: Iterable[int], inner_subset: Iterable[int]
) -> GrothTopology:
    """Extension of the derived topology of ``inner_subset`` on ``subset``:
    J_D(Y | {bottom of D}) extends to J(Y | min D)."""
    xs = _element_ids(poset, subset)
    ys = _element_ids(poset, inner_subset)
    if not ys <= xs:
        raise InvalidInnerTopologyError("inner subset must lie inside the outer subset")
    if not poset.is_downwards_directed(xs):
        raise NotDownwardsDirectedError(
            "the outer subset must be downwards directed as a subposet"
        )
    return GrothTopology(poset, ys | poset.minimal_elements(xs))


# -- lattice structure -----------------------------------------------------


def _require_same_poset(j: GrothTopology, k: GrothTopology) -> FinitePoset:
    if j.poset != k.poset:
        raise PosetMismatchError("topologies live on different posets")
    return j.poset


def topology_leq(j: GrothTopology, k: GrothTopology) -> bool:
    """Pointwise inclusion of cover families: k's generating subset inside
    j's.  It stays public so that callers compare topologies without having
    to know that J reverses inclusion."""
    _require_same_poset(j, k)
    return k.subset <= j.subset


def meet(j: GrothTopology, k: GrothTopology) -> GrothTopology:
    """Pointwise intersection of cover families: J of the union of the
    generating subsets, since J reverses inclusion."""
    return GrothTopology(_require_same_poset(j, k), j.subset | k.subset)


def join(j: GrothTopology, k: GrothTopology) -> GrothTopology:
    """Least topology above both: J of the intersection of the generating
    subsets, since J reverses inclusion."""
    return GrothTopology(_require_same_poset(j, k), j.subset & k.subset)


# -- exhaustive enumeration -------------------------------------------------


def enumerate_all_topologies(
    poset: FinitePoset, cap: int = DEFAULT_BRUTE_FORCE_CAP
) -> tuple[GrothTopology, ...]:
    """Every topology on the poset: J(X) for each of the 2^n subsets X.

    Sorted by the least covers L_p = down(X & down(p)), p ascending, each
    as its characteristic vector, element 0 first: the order of the weakest
    covers in frame id order.  The key holds each L_p as its bit-reversed
    mask, the union of the bit-reversed masks of down(x) for x in
    X & down(p), so integers compare as the vectors do.
    """
    if poset.n > cap:
        raise TooLargeForBruteForceError(
            f"{poset.n} elements exceeds the brute-force cap {cap}",
            witness={"cap": cap, "n": poset.n},
        )
    n = poset.n
    down = poset.down_masks
    flipped = [_mask(n - 1 - e for e in _bits(d)) for d in down]  # element 0 highest

    def vectors(xs: int) -> list[int]:
        return [_down_closure(flipped, xs & d) for d in down]

    return tuple(GrothTopology(poset, _bits(xs)) for xs in sorted(range(1 << n), key=vectors))


# -- site morphisms ----------------------------------------------------------


@dataclass(frozen=True)
class SiteMorphismReport:
    """Cover-preservation and covering-lifting diagnostics for one map: one
    (p, least cover) witness per failing source element p, the least source
    cover of p for preservation and the least target cover of phi(p) for
    lifting."""

    cover_violations: tuple[tuple[int, frozenset[int]], ...]
    clp_violations: tuple[tuple[int, frozenset[int]], ...]

    @property
    def preserves_covers(self) -> bool:
        return not self.cover_violations

    @property
    def has_clp(self) -> bool:
        return not self.clp_violations


def _require_endpoints(
    phi: OrderMorphism, source: GrothTopology, target: GrothTopology
) -> None:
    if phi.source != source.poset or phi.target != target.poset:
        raise PosetMismatchError("morphism endpoints do not match the sites")


def site_morphism_report(
    phi: OrderMorphism, source: GrothTopology, target: GrothTopology
) -> SiteMorphismReport:
    """Check both site-morphism properties of ``phi`` at once, on least covers.

    Cover preservation at p: the down-closed image of every source cover is
    a target cover, iff Y & down(phi p) <= down(phi(X & down(p))).  Covering
    lifting at p: every target cover of phi(p) contains the image of some
    source cover of p, iff phi(X & down(p)) <= down(Y & down(phi p)).
    """
    _require_endpoints(phi, source, target)
    p_down, q_down = phi.source.down_masks, phi.target.down_masks
    xs, ys = _mask(source.subset), _mask(target.subset)
    mapping = phi.mapping
    cover_violations = []
    clp_violations = []
    for p, down in enumerate(p_down):
        cut = xs & down
        image = _mask(mapping[x] for x in _bits(cut))
        target_cut = ys & q_down[mapping[p]]
        if target_cut & ~_down_closure(q_down, image):
            cover_violations.append((p, frozenset(_bits(_down_closure(p_down, cut)))))
        least = _down_closure(q_down, target_cut)
        if image & ~least:
            clp_violations.append((p, frozenset(_bits(least))))
    return SiteMorphismReport(tuple(cover_violations), tuple(clp_violations))


def is_site_isomorphism(
    phi: OrderMorphism, source: GrothTopology, target: GrothTopology
) -> bool:
    """Order isomorphism carrying covers to covers in both directions.

    For an isomorphism, preservation forward is Y <= phi(X) and preservation
    backward is phi(X) <= Y, so this is phi(X) = Y.
    """
    if not phi.is_isomorphism():
        raise NotOrderIsomorphismError("site isomorphisms need an order isomorphism")
    _require_endpoints(phi, source, target)
    return phi.image_of(source.subset) == target.subset


def adjoint_transfer_consistent(
    phi: OrderMorphism,
    pi: OrderMorphism,
    source: GrothTopology,
    target: GrothTopology,
) -> bool:
    """For an adjoint pair, cover preservation of the upper map must match
    the covering-lifting property of the lower map.

    ``phi`` maps the source site into the target site and must be the
    upper adjoint of ``pi``.
    """
    p_poset, q_poset = phi.source, phi.target
    if pi.source != q_poset or pi.target != p_poset:
        raise PosetMismatchError("maps are not opposed")
    for q in range(q_poset.n):
        for p in range(p_poset.n):
            if p_poset.leq(pi(q), p) != q_poset.leq(q, phi(p)):
                raise PosetMismatchError(
                    "maps are not an adjoint pair",
                    witness={"p": p_poset.labels[p], "q": q_poset.labels[q]},
                )
    forward = site_morphism_report(phi, source, target)
    backward = site_morphism_report(pi, target, source)
    return forward.preserves_covers == backward.has_clp


# -- subcanonicity -----------------------------------------------------------


def subcanonicity_report(
    poset: FinitePoset, topology: GrothTopology
) -> tuple[tuple[int, int, frozenset[int]], ...]:
    """Witnesses (p, q, cover) for every representable failing the sheaf test:
    q fails for p iff q is not <= p and X & down(q) <= down(p), and the cover
    is the first in sorted-member order of the covers of q inside down(p)."""
    _require_poset(poset, topology)
    down = poset.down_masks
    least = _least_covers(down, _mask(topology.subset))
    out = []
    for p, high in enumerate(down):
        for q, dq in enumerate(down):
            if not high >> q & 1 and not least[q] & ~high:
                first = next(_sieves_between(down, least[q], high & dq))
                out.append((p, q, frozenset(_bits(first))))
    return tuple(out)


def _least_subcanonical(poset: FinitePoset) -> int:
    """The mask of C = {q : some p with q not <= p has down(q) - {q} <= down(p)},
    the least subcanonical generator (see :func:`canonical_subset_report`)."""
    down = poset.down_masks
    out = 0
    for q, dq in enumerate(down):
        strict = dq ^ 1 << q
        if any(not high >> q & 1 and not strict & ~high for high in down):
            out |= 1 << q
    return out


def is_subcanonical(poset: FinitePoset, topology: GrothTopology) -> bool:
    """Whether every representable is a sheaf: J(X) is subcanonical iff X
    holds the least subcanonical generator C."""
    _require_poset(poset, topology)
    return not _least_subcanonical(poset) & ~_mask(topology.subset)


@dataclass(frozen=True)
class CanonicalSubsetReport:
    """The least generating subset of the finest subcanonical subset topology.

    ``minimal_subsets`` always holds exactly one subset and ``unique`` is
    always true: the least subcanonical generator exists on every finite
    poset (see :func:`canonical_subset_report`).
    """

    minimal_subsets: tuple[frozenset[int], ...]
    unique: bool

    @property
    def subset(self) -> frozenset[int]:
        return self.minimal_subsets[0]


def canonical_subset_report(poset: FinitePoset) -> CanonicalSubsetReport:
    """The least subcanonical generating subset, in closed form.

    J(X) is subcanonical iff X meets down(q) - down(p) for every q not <= p.
    For m minimal in such a difference, down(m) - down(p) = {m}, so m lies in
    C = {q : some p with q not <= p has down(q) - {q} <= down(p)}.  Every
    subcanonical X contains C, its singleton differences, and C meets every
    difference, so C is the unique least generator; O(n^2) mask tests.
    """
    return CanonicalSubsetReport((frozenset(_bits(_least_subcanonical(poset))),), unique=True)
