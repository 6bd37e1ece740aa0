"""Nuclei, congruences, and sublocales on the down-set frame of a poset.

On a finite poset every topology is J(X) for exactly one subset X, and
nuclei, congruences and sublocales of D(P) are in bijection with
topologies, so each presentation is X as well.  Nuclei, congruences and
sublocales are stored, like topologies, as their frame and X; the lookup
table, the partition and the member set are views built from X on first
read and then kept.  The frame is the poset's one D(P), built once; only
the constructors, whose ids it numbers, are given it, and the JSON readers
take a poset as every reader does.  All three views read one kernel, the
fibres of d -> d & X.  The nucleus j of J(X), d -> {p : X & down(p) <= d},
depends only on the cut d & X and keeps it, so j(d) is the greatest
down-set in d's fibre:

- the nucleus sends each down-set to the greatest member of its fibre.
- the congruence is the partition into fibres.
- the sublocale holds the greatest member of each fibre.

Every conversion passes X along, and nothing the library builds from X is
checked again.  Input from outside, a table, a partition or a member set,
is validated at any frame size: X is read off it, as
X = {p : down(p) - {p} does not cover p}, that is the p whose down(p) and
down(p) - {p} differ under the table or the partition, or some member
cutting down(p) to down(p) - {p}, and the form X generates is rebuilt in
one pass over the down-set bitmasks.  A match is a proof.  On a mismatch the
exhaustive law scan runs and raises the witness of the first violated
law.  An input that passes it contradicts the normal form, so only a faulty
reader or builder can produce one; it raises the kind's own error with
witness ``{"law": "subset", "subset": [...]}`` instead of being accepted.

A frame surjection f = phi^-1 factors through the congruence of
J(phi(Q)): f(d) depends only on the cut d & phi(Q), and the induced
bijection reads f at the top of each class, with nothing checked beyond f.

Ordering conventions: nuclei, congruences, and topologies are compared
pointwise; sublocales are ordered by inclusion, and the nucleus/sublocale
conversion reverses order (larger nucleus, smaller sublocale).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    NotACongruenceError,
    NotANucleusError,
    NotASublocaleError,
    NotSurjectiveError,
    ParseError,
)
from .poset import (
    DownSetFrame,
    FinitePoset,
    FrameMap,
    _LabelRows,
    _frame_dual,
    _implication,
    _mask,
    _members,
    enumerate_downsets,
    restriction_frame_map,
)
from .sites import GrothTopology, enumerate_all_topologies


def _json_list(doc: object, field: str, kind: str) -> list:
    """The list ``doc[field]``, else a ParseError with the offending value."""
    if not isinstance(doc, dict):
        raise ParseError(f"{kind} JSON must be an object", witness={"document": doc})
    if not isinstance(doc.get(field), list):
        raise ParseError(f"'{field}' is not a list", witness={field: doc.get(field)})
    return doc[field]


def _punctured(down: int, p: int) -> int:
    """The principal down-set mask of p with p itself removed."""
    return down & ~(1 << p)


def _fibres(frame: DownSetFrame, xs: int) -> tuple[list[int], list[int]]:
    """The fibres of d -> d & X for the subset mask ``xs``, as ``(class_of,
    tops)``: ``class_of[i]`` is the class of down-set id i, classes numbered
    by least id, and ``tops[c]`` is the largest id in class c.

    ``tops[c]`` is j(d) for every d in class c, j the nucleus of J(X):
    j(d) contains d, j(d) & X = d & X, and j(d) depends only on d & X, so
    j(d) lies in d's fibre and contains each of its members.  Adding an
    element to a down-set raises its id, so the greatest member has the
    largest id.
    """
    first: dict[int, int] = {}  # cut -> class index, numbered by least id
    class_of = [first.setdefault(d & xs, len(first)) for d in frame.masks]
    tops = [0] * len(first)
    for i, c in enumerate(class_of):
        tops[c] = i
    return class_of, tops


def _split_subset(frame: DownSetFrame, label: Sequence[int]) -> frozenset[int]:
    """X = {p : label(down(p)) != label(down(p) - {p})}, read off a nucleus
    table or a congruence's class_of.  For a nucleus this is
    p not in j(down(p) - {p}): if p is in it, j(down(p)) lies between
    j(down(p) - {p}) and j(j(down(p) - {p})) = j(down(p) - {p})."""
    index = frame.mask_index
    return frozenset(
        p
        for p, down in enumerate(frame.poset.down_masks)
        if label[index[down]] != label[index[_punctured(down, p)]]
    )


def _sublocale_subset(frame: DownSetFrame, members: Iterable[int]) -> frozenset[int]:
    """X = {p : some member cuts down(p) to down(p) - {p}}."""
    member_masks = [frame.masks[i] for i in members]
    xs = set()
    for p, down in enumerate(frame.poset.down_masks):
        below = _punctured(down, p)
        if any(m & down == below for m in member_masks):
            xs.add(p)
    return frozenset(xs)


class _Presentation:
    """A presentation stored as its frame and generating subset X, with one
    view, the table, the partition or the members, built from X on first
    read and then kept.  Equality and hashing act on (frame, X)."""

    __slots__ = ("frame", "subset", "_view")

    @classmethod
    def _trusted(cls, frame: DownSetFrame, subset: Iterable[int]):
        """The form that ``subset``, element ids of the frame's poset,
        generates, left unchecked."""
        out = cls.__new__(cls)
        out._fill(frame, subset, None)
        return out

    def _fill(self, frame: DownSetFrame, subset: Iterable[int], view: object) -> None:
        self.frame = frame
        self.subset = frozenset(subset)
        self._view = view

    def _read(self):
        if self._view is None:
            self._view = self._generate(self.frame, self.subset)
        return self._view

    def _accept(
        self, frame: DownSetFrame, xs: frozenset[int], view: object, scanned: object
    ) -> None:
        """Keep a view from outside when it is the one X generates.  Otherwise
        the law scan runs on ``scanned`` and raises the first violation.
        Should none fail, which the normal form rules out on a finite poset,
        the kind's own error names the subset check and X, so a faulty
        ``_generate`` or X reader still rejects instead of accepting."""
        if view != self._generate(frame, xs):
            self._check_laws(frame, scanned)
            kind, labels = type(self).__name__.lower(), frame.poset.labels
            raise self._error(
                f"the {kind} satisfies every law but is not the form its subset generates",
                witness={"law": "subset", "subset": sorted(labels[i] for i in xs)},
            )
        self._fill(frame, xs, view)

    def __eq__(self, other: object) -> bool:
        same = type(other) is type(self)
        return same and (self.frame, self.subset) == (other.frame, other.subset)

    def __hash__(self) -> int:
        return hash((self.frame, self.subset))

    def to_json(self) -> dict:
        """The frame's JSON form plus this presentation's own field; the
        ``_json`` of each kind builds it with the rows written as given."""
        return self._json(_LabelRows(self.frame.poset.labels))


class Nucleus(_Presentation):
    """An inflationary, idempotent, meet-preserving endomap of a frame:
    implication from X, d -> {q : down(q) & X <= d}, which sends d to the
    greatest down-set in its fibre of d -> d & X.

    ``table``, the map over down-set ids, is a view built from the fibres.
    A table from outside must hold down-set ids and equal the one built
    from X = {p : j(down(p)) != j(down(p) - {p})}.  Otherwise inflation,
    idempotence and binary meets are scanned exhaustively, and the first
    violation raises with its witness.
    """

    __slots__ = ()
    _error = NotANucleusError

    def __init__(self, frame: DownSetFrame, table: Sequence[int]):
        table, size = tuple(table), len(frame)
        if len(table) != size:
            raise NotANucleusError(
                f"table has {len(table)} entries for a {size}-element frame"
            )
        for a, t in enumerate(table):
            if not (type(t) is int and 0 <= t < size):
                raise NotANucleusError(
                    f"table entry {t!r} is not a down-set id",
                    witness={"a": _members(frame, a), "value": t},
                )
        self._accept(frame, _split_subset(frame, table), table, table)

    @staticmethod
    def _check_laws(frame: DownSetFrame, table: Sequence[int]) -> None:
        masks = frame.masks
        for a, t in enumerate(table):
            if masks[a] & ~masks[t]:
                raise NotANucleusError(
                    "nucleus is not inflationary",
                    witness={"law": "inflation", "a": _members(frame, a)},
                )
            if table[t] != t:
                raise NotANucleusError(
                    "nucleus is not idempotent",
                    witness={"law": "idempotence", "a": _members(frame, a)},
                )
        for a in range(len(frame)):
            for b in range(a + 1, len(frame)):
                if table[frame.meet(a, b)] != frame.meet(table[a], table[b]):
                    raise NotANucleusError(
                        "nucleus does not preserve binary meets",
                        witness={
                            "law": "meet",
                            "a": _members(frame, a),
                            "b": _members(frame, b),
                        },
                    )

    @staticmethod
    def _generate(frame: DownSetFrame, subset: Iterable[int]) -> tuple[int, ...]:
        class_of, tops = _fibres(frame, _mask(subset))
        return tuple([tops[c] for c in class_of])

    @property
    def table(self) -> tuple[int, ...]:
        """The image of each down-set id, as a down-set id."""
        return self._read()

    def __repr__(self) -> str:
        return f"<Nucleus on {len(self.frame)} down-sets>"

    def _json(self, rows: _LabelRows) -> dict:
        doc = self.frame._json(rows)
        doc["pairs"] = rows.pairs(self.table)
        return doc

    @classmethod
    def from_json(cls, doc: dict, poset: FinitePoset | None = None) -> "Nucleus":
        pairs = _json_list(doc, "pairs", "nucleus")
        poset = poset if poset is not None else FinitePoset.from_json(doc.get("poset"))
        frame = enumerate_downsets(poset)
        size, unlisted = len(frame), object()
        table = [unlisted] * size
        for pair in pairs:
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ParseError(f"pairs entry {pair!r} is not a pair", witness={"pair": pair})
            i, t = pair
            if not (type(i) is int and 0 <= i < size):
                raise NotANucleusError(
                    f"pair index {i!r} is not a down-set id", witness={"pair": [i, t]}
                )
            if table[i] is not unlisted:
                raise NotANucleusError(
                    f"down-set id {i} is listed twice", witness={"pair": [i, t]}
                )
            table[i] = t
        if unlisted in table:
            i = table.index(unlisted)
            raise NotANucleusError(
                f"down-set id {i} has no pair", witness={"id": i, "downset": _members(frame, i)}
            )
        return cls(frame, table)


class Congruence(_Presentation):
    """A partition of a frame compatible with binary meets and all joins:
    the fibres of d -> d & X.

    ``classes``, ordered by least member, and ``class_of``, the class index
    of each down-set id, are views built from X.  Classes from outside must
    partition the down-set ids into the fibres of d -> d & X for
    X = {p : down(p) and down(p) - {p} are unrelated}.  Otherwise the laws
    are scanned for a witness: on a finite frame arbitrary joins collapse
    to finite ones, so the scan checks one-sided binary compatibility
    against a class representative, which implies compatibility of every
    finite family.

    The constructor is the one check of the classes, for documents and
    library callers alike: in one pass, a member of a class's set that is
    not an exact in-range int, or an empty class, is a NotACongruenceError;
    then the classes must partition the frame.  :meth:`from_json` checks
    only that the document lists lists of ints.
    """

    __slots__ = ()
    _error = NotACongruenceError

    def __init__(self, frame: DownSetFrame, classes: Iterable[Iterable[int]]):
        normalized, size = [], len(frame)
        for c in classes:
            cls = frozenset(c)
            for a in cls:
                if not (type(a) is int and 0 <= a < size):
                    raise NotACongruenceError(f"{a!r} is not a down-set id", witness={"id": a})
            if not cls:
                raise NotACongruenceError("a class is empty", witness={"class": []})
            normalized.append(cls)
        classes = tuple(sorted(normalized, key=min))
        class_of = [-1] * size
        for ci, cls in enumerate(classes):
            for a in cls:
                if class_of[a] != -1:
                    raise NotACongruenceError(
                        f"down-set id {a} appears in two classes",
                        witness={"id": a, "downset": _members(frame, a)},
                    )
                class_of[a] = ci
        if -1 in class_of:
            a = class_of.index(-1)
            raise NotACongruenceError(
                "classes do not partition the frame",
                witness={"id": a, "downset": _members(frame, a)},
            )
        xs = _split_subset(frame, class_of)
        self._accept(frame, xs, (classes, tuple(class_of)), classes)

    @staticmethod
    def _check_laws(frame: DownSetFrame, classes: Iterable[Iterable[int]]) -> None:
        classes = sorted(map(frozenset, classes), key=min)
        class_of = {a: ci for ci, cls in enumerate(classes) for a in cls}
        for cls in classes:
            rep = min(cls)
            for a in cls:
                if a == rep:
                    continue
                for c in range(len(frame)):
                    if class_of[frame.meet(a, c)] != class_of[frame.meet(rep, c)]:
                        raise NotACongruenceError(
                            "congruence does not respect meets",
                            witness={
                                "law": "meet",
                                "a": _members(frame, a),
                                "b": _members(frame, rep),
                                "c": _members(frame, c),
                            },
                        )
                    if class_of[frame.join(a, c)] != class_of[frame.join(rep, c)]:
                        raise NotACongruenceError(
                            "congruence does not respect joins",
                            witness={
                                "law": "join",
                                "a": _members(frame, a),
                                "b": _members(frame, rep),
                                "c": _members(frame, c),
                            },
                        )

    @staticmethod
    def _generate(
        frame: DownSetFrame, subset: Iterable[int]
    ) -> tuple[tuple[frozenset[int], ...], tuple[int, ...]]:
        class_of, tops = _fibres(frame, _mask(subset))
        groups: list[list[int]] = [[] for _ in tops]
        for a, c in enumerate(class_of):
            groups[c].append(a)
        return tuple(map(frozenset, groups)), tuple(class_of)

    @property
    def classes(self) -> tuple[frozenset[int], ...]:
        return self._read()[0]

    @property
    def class_of(self) -> tuple[int, ...]:
        return self._read()[1]

    def related(self, a: int, b: int) -> bool:
        return self.class_of[a] == self.class_of[b]

    def __repr__(self) -> str:
        return f"<Congruence with {len(self.classes)} classes>"

    def _json(self, rows: _LabelRows) -> dict:
        doc = self.frame._json(rows)
        doc["classes"] = [sorted(c) for c in self.classes]
        return doc

    @classmethod
    def from_json(cls, doc: dict, poset: FinitePoset | None = None) -> "Congruence":
        """A class that is not a list, or a listed member that is not an int,
        is a ParseError, and it outranks every NotACongruenceError of the
        constructor.  The check looks at the list because the constructor's
        sets merge 2.0 into 2."""
        classes = _json_list(doc, "classes", "congruence")
        poset = poset if poset is not None else FinitePoset.from_json(doc.get("poset"))
        frame = enumerate_downsets(poset)
        for c in classes:
            if not (isinstance(c, list) and all(isinstance(a, int) for a in c)):
                raise ParseError(f"class {c!r} is not a list of ids", witness={"class": c})
        return cls(frame, classes)


class Sublocale(_Presentation):
    """Down-set ids closed under all intersections and under implication
    from arbitrary down-sets into members: the fixed points of implication
    from X, one greatest down-set in each fibre of d -> d & X.

    ``members`` is a view built from X.  Members from outside must be down-set
    ids and the fixed points of implication from X = {p : some member
    contains down(p) - {p} but not p}; otherwise the laws are scanned for a
    witness.
    """

    __slots__ = ()
    _error = NotASublocaleError

    def __init__(self, frame: DownSetFrame, members: Iterable[int]):
        members, size = frozenset(members), len(frame)
        for i in members:
            if not (type(i) is int and 0 <= i < size):
                raise NotASublocaleError(f"{i!r} is not a down-set id", witness={"id": i})
        self._accept(frame, _sublocale_subset(frame, members), members, members)

    @staticmethod
    def _check_laws(frame: DownSetFrame, members: Iterable[int]) -> None:
        members = frozenset(members)
        if frame.top_id not in members:
            raise NotASublocaleError(
                "sublocale misses the empty intersection (the whole poset)"
            )
        ordered = sorted(members)
        for a in ordered:
            for b in ordered:
                if frame.meet(a, b) not in members:
                    raise NotASublocaleError(
                        "sublocale is not closed under intersections",
                        a=frame.downset(a),
                        m=frame.downset(b),
                        result=frame.downset(frame.meet(a, b)),
                    )
        for a in range(len(frame)):
            for m in ordered:
                h = frame.heyting(a, m)
                if h not in members:
                    raise NotASublocaleError(
                        "sublocale is not closed under implication into it",
                        a=frame.downset(a),
                        m=frame.downset(m),
                        result=frame.downset(h),
                    )

    @staticmethod
    def _generate(frame: DownSetFrame, subset: Iterable[int]) -> frozenset[int]:
        """The greatest member of each fibre of d -> d & X.  The cuts d & X
        are the down-sets y of X as an induced subposet, grown along P's
        linear extension, and the greatest down-set cutting to y is
        j(down(y)) = {q : X & down(q) <= y}, implication from X into y:
        |D(X)| members, with no pass over D(P)."""
        xs = _mask(subset)
        poset, index = frame.poset, frame.mask_index
        cuts = [0]
        for e in poset.linear_extension:
            if xs >> e & 1:
                pred = poset.down_masks[e] & xs ^ 1 << e
                cuts.extend([y | 1 << e for y in cuts if y & pred == pred])
        return frozenset(index[_implication(poset, xs & ~y)] for y in cuts)

    @property
    def members(self) -> frozenset[int]:
        return self._read()

    def __repr__(self) -> str:
        return f"<Sublocale with {len(self.members)} members>"

    def _json(self, rows: _LabelRows) -> dict:
        doc = self.frame._json(rows)
        doc["members"] = sorted(self.members)
        return doc

    @classmethod
    def from_json(cls, doc: dict, poset: FinitePoset | None = None) -> "Sublocale":
        members = _json_list(doc, "members", "sublocale")
        for i in members:
            if not isinstance(i, int):
                raise ParseError(f"member {i!r} is not an id", witness={"member": i})
        poset = poset if poset is not None else FinitePoset.from_json(doc.get("poset"))
        return cls(enumerate_downsets(poset), members)


# -- conversions between the four presentations ----------------------------


def nucleus_from_topology(topology: GrothTopology) -> Nucleus:
    """Send a down-set to the elements whose cut along it is a cover."""
    return Nucleus._trusted(enumerate_downsets(topology.poset), topology.subset)


def topology_from_nucleus(nucleus: Nucleus) -> GrothTopology:
    """Covers of p are the sieves whose image under the nucleus reaches p."""
    return GrothTopology(nucleus.frame.poset, nucleus.subset)


def congruence_from_nucleus(nucleus: Nucleus) -> Congruence:
    """Relate two down-sets with the same image."""
    return Congruence._trusted(nucleus.frame, nucleus.subset)


def nucleus_from_congruence(congruence: Congruence) -> Nucleus:
    """Send a down-set to the union (join) of its class."""
    return Nucleus._trusted(congruence.frame, congruence.subset)


def sublocale_from_nucleus(nucleus: Nucleus) -> Sublocale:
    """The fixed points, a sublocale for every nucleus."""
    return Sublocale._trusted(nucleus.frame, nucleus.subset)


def nucleus_from_sublocale(sublocale: Sublocale) -> Nucleus:
    """Send a down-set to the least member above it."""
    return Nucleus._trusted(sublocale.frame, sublocale.subset)


def congruence_from_topology(topology: GrothTopology) -> Congruence:
    """Relate two down-sets when they cut to covers at exactly the same elements."""
    return Congruence._trusted(enumerate_downsets(topology.poset), topology.subset)


def topology_from_congruence(congruence: Congruence) -> GrothTopology:
    """Covers of p are the sieves congruent to the maximal sieve on p."""
    return GrothTopology(congruence.frame.poset, congruence.subset)


def sublocale_from_topology(topology: GrothTopology) -> Sublocale:
    """Members are the down-sets containing every element they cover."""
    return Sublocale._trusted(enumerate_downsets(topology.poset), topology.subset)


def topology_from_sublocale(sublocale: Sublocale) -> GrothTopology:
    """Covers of p are the sieves contained in no member that omits p."""
    return GrothTopology(sublocale.frame.poset, sublocale.subset)


# -- subset-generated presentations -----------------------------------------


@dataclass(frozen=True)
class SubsetForms:
    nucleus: Nucleus
    congruence: Congruence
    sublocale: Sublocale


def subset_forms(poset: FinitePoset, subset: Iterable[int]) -> SubsetForms:
    """The nucleus, congruence, and sublocale generated by a subset.

    The congruence identifies down-sets with equal subset cut; the nucleus
    sends each down-set to the greatest member of its class, implication
    from the subset; the sublocale collects those greatest members.
    """
    topology = GrothTopology(poset, subset)
    frame = enumerate_downsets(poset)
    return SubsetForms(
        *(cls._trusted(frame, topology.subset) for cls in (Nucleus, Congruence, Sublocale))
    )


@dataclass(frozen=True)
class SublocaleFrameIso:
    """Concrete frame isomorphism from a subset sublocale onto the down-sets
    of the subset: forward is intersection, backward is implication."""

    sublocale: Sublocale
    sub_frame: DownSetFrame
    forward: dict  # member id -> sub-frame id
    backward: dict  # sub-frame id -> member id


def mx_frame_isomorphism(poset: FinitePoset, subset: Iterable[int]) -> SublocaleFrameIso:
    """The isomorphism between the sublocale of J(X) and D(X), the down-set
    frame of X as an induced subposet, in closed form.

    Forward sends a member d to d & X, re-indexed into D(X); backward sends
    a down-set y of X to j(down(y)), the nucleus at the down-set of P that y
    generates.  Implication from X depends only on the cut d & X and leaves
    it unchanged, and j(down(y)) & X = y, so the two maps are mutually
    inverse; meets of members are intersections and joins are j of unions,
    so both are preserved.  The members are one per fibre of d -> d & X,
    so forward is a bijection onto D(X), and backward, the member whose cut
    is y, is read off it by inverting.
    """
    sublocale = subset_forms(poset, subset).sublocale
    cut = restriction_frame_map(sublocale.frame, sorted(sublocale.subset))
    forward = {m: cut.table[m] for m in sorted(sublocale.members)}
    backward = dict(sorted((y, m) for m, y in forward.items()))
    return SublocaleFrameIso(sublocale, cut.target, forward, backward)


# -- the factorization of a frame surjection ---------------------------------


@dataclass(frozen=True)
class FactorizationWitness:
    kernel: Congruence
    iso: tuple[int, ...]  # class id -> target down-set id


def homomorphism_factorization(f: FrameMap) -> FactorizationWitness:
    """Factor a frame surjection through its kernel congruence.

    A frame morphism f: D(P) -> D(Q) is the preimage map of one monotone
    phi: Q -> P, so f(d) = {q : phi(q) in d} depends only on the cut
    d & phi(Q), and a p = phi(q) in one cut but not another puts q in one
    image only.  The kernel is therefore the congruence of J(phi(Q)), and
    the iso sends each class to f at its top.  It is a bijection because f
    is onto and constant exactly on the classes, and it preserves meets and
    joins because f does; nothing is checked beyond f itself.
    """
    fibres = _frame_dual(f)
    missing = set(range(len(f.target))).difference(f.table)
    if missing:
        raise NotSurjectiveError(
            "map is not surjective",
            witness={"missing": sorted(f.target.downset(min(missing)))},
        )
    image = [p for p, fibre in enumerate(fibres) if fibre]
    _, tops = _fibres(f.source, _mask(image))
    return FactorizationWitness(
        Congruence._trusted(f.source, image), tuple(f.table[t] for t in tops)
    )


# -- the commuting diagram ----------------------------------------------------


@dataclass(frozen=True)
class DiagramReport:
    poset: FinitePoset
    topology_count: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_commuting_diagram(poset: FinitePoset, cap: int = 4) -> DiagramReport:
    """Replay all conversion round trips on every topology of the poset.

    For each enumerated topology: the five round trips return the same X,
    and the two triangle composites through congruences and through
    sublocales agree with the direct conversion.  Every conversion passes X
    along, so this replays X round trips; the oracles that rebuild each
    presentation from cover membership alone live in the tests.
    """
    failures: list[str] = []
    topologies = enumerate_all_topologies(poset, cap=cap)
    for idx, topology in enumerate(topologies):
        tag = f"topology #{idx}"
        nuc = nucleus_from_topology(topology)
        if topology_from_nucleus(nuc) != topology:
            failures.append(f"{tag}: topology/nucleus round trip")
        cong = congruence_from_nucleus(nuc)
        if nucleus_from_congruence(cong) != nuc:
            failures.append(f"{tag}: nucleus/congruence round trip")
        sub = sublocale_from_nucleus(nuc)
        if nucleus_from_sublocale(sub) != nuc:
            failures.append(f"{tag}: nucleus/sublocale round trip")
        if congruence_from_topology(topology) != cong:
            failures.append(f"{tag}: congruence triangle")
        if sublocale_from_topology(topology) != sub:
            failures.append(f"{tag}: sublocale triangle")
        if topology_from_congruence(cong) != topology:
            failures.append(f"{tag}: congruence/topology round trip")
        if topology_from_sublocale(sub) != topology:
            failures.append(f"{tag}: sublocale/topology round trip")
    return DiagramReport(poset, len(topologies), tuple(failures))
