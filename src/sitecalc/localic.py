"""Nuclei, congruences, and sublocales on the down-set frame of a poset.

The three presentations are interconvertible with Grothendieck topologies;
:func:`verify_commuting_diagram` replays every conversion round trip on
every topology of a small poset.  Nuclei are stored as full lookup tables
over down-set ids, congruences as partitions of those ids, sublocales as
id sets.  A topology is stored as its generating subset X, and every
conversion goes through X in closed form, with one kernel, implication
from X, d -> {p : X & down(p) <= d}:

- to a nucleus: d & down(p) covers p iff it holds X & down(p), iff d does.
- to a congruence: the fibres of d -> d & X, which fixes j(d) = j(d & X)
  and is fixed by it, as j(d) & X = d & X.
- to a sublocale: the fixed points, the d holding every p they cover.
- back: X = {p : down(p) - {p} does not cover p}, read off as
  p not in j(down(p) - {p}), down(p) not congruent to down(p) - {p}
  (:func:`extract_subset`), or some member cutting down(p) to down(p) - {p}.

Every presentation is validated on construction, at any frame size.  Each
one is generated by a subset X of the poset, so a constructor first reads
a candidate X off its input, rebuilds the form X generates in O(|D|·n) on
down-set bitmasks, and accepts on a match: the forms a subset generates
are a nucleus, a congruence and a sublocale, so a match is a proof.  On a
mismatch the exhaustive law scan runs.  It raises the witness of the first
violated law or, finding none, accepts.  Completeness of a nucleus or a
congruence is likewise decided at any frame size, in linear time.

Ordering conventions: nuclei, congruences, and topologies are compared
pointwise; sublocales are ordered by inclusion, and the nucleus/sublocale
conversion reverses order (larger nucleus, smaller sublocale).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    NotACongruenceError,
    NotAFrameMorphismError,
    NotANucleusError,
    NotASublocaleError,
    NotSurjectiveError,
    ParseError,
    PosetMismatchError,
)
from .poset import (
    DownSetFrame,
    FinitePoset,
    FrameMap,
    _mask,
    double_negation,
    enumerate_downsets,
    frame_morphism_violation,
    heyting_implication,
)
from .sites import GrothTopology, enumerate_all_topologies
from .sites import is_complete as topology_is_complete


def _members(frame: DownSetFrame, i: int) -> list[str]:
    return sorted(frame.poset.labels[e] for e in frame.downset(i))


def _is_id(frame: DownSetFrame, i: object) -> bool:
    return type(i) is int and 0 <= i < len(frame)


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


def _implication_masks(frame: DownSetFrame, xs: int) -> list[int]:
    """Implication from the subset mask ``xs``, as a mask for every down-set id:
    d -> {q : down(q) & xs <= d}."""
    always = 0
    cuts = []
    for q, down in enumerate(frame.principal):
        cut = down & xs
        if cut:
            cuts.append((1 << q, cut))
        else:
            always |= 1 << q
    out = []
    for d in frame.masks:
        value = always
        for bit, cut in cuts:
            if cut & d == cut:
                value |= bit
        out.append(value)
    return out


def _nucleus_subset(frame: DownSetFrame, table: Sequence[int]) -> frozenset[int]:
    """X = {p : p not in j(down(p) - {p})} read off a nucleus table."""
    masks, index = frame.masks, frame.mask_index
    return frozenset(
        p
        for p, down in enumerate(frame.principal)
        if not masks[table[index[_punctured(down, p)]]] >> p & 1
    )


def _sublocale_subset(frame: DownSetFrame, members: Iterable[int]) -> frozenset[int]:
    """X = {p : some member cuts down(p) to down(p) - {p}}."""
    member_masks = [frame.masks[i] for i in members]
    xs = set()
    for p, down in enumerate(frame.principal):
        below = _punctured(down, p)
        if any(m & down == below for m in member_masks):
            xs.add(p)
    return frozenset(xs)


class Nucleus:
    """An inflationary, idempotent, meet-preserving endomap of a frame.

    Table entries must be down-set ids.  The table is accepted on
    construction when it is implication from the subset
    X = {p : p not in j(down(p) - {p})}, the map d -> {q : down(q) & X <= d}.
    Otherwise inflation, idempotence and binary meets are scanned
    exhaustively, and the first violation raises with its witness.
    """

    __slots__ = ("frame", "table")

    def __init__(self, frame: DownSetFrame, table: Sequence[int], check: bool = True):
        self.frame = frame
        self.table = tuple(table)
        if len(self.table) != len(frame):
            raise NotANucleusError(
                f"table has {len(self.table)} entries for a {len(frame)}-element frame"
            )
        for a, t in enumerate(self.table):
            if not _is_id(frame, t):
                raise NotANucleusError(
                    f"table entry {t!r} is not a down-set id",
                    witness={"a": _members(frame, a), "value": t},
                )
        if check and not self._is_subset_form():
            self._check_laws()

    def _is_subset_form(self) -> bool:
        frame, table, masks = self.frame, self.table, self.frame.masks
        xs = _mask(_nucleus_subset(frame, table))
        return all(masks[t] == j for t, j in zip(table, _implication_masks(frame, xs)))

    def _check_laws(self) -> None:
        frame, table, masks = self.frame, self.table, self.frame.masks
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

    def apply(self, downset: frozenset[int]) -> frozenset[int]:
        return self.frame.downset(self.table[self.frame.id_of(downset)])

    def fixed_point_ids(self) -> frozenset[int]:
        return frozenset(i for i, t in enumerate(self.table) if i == t)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Nucleus)
            and self.frame == other.frame
            and self.table == other.table
        )

    def __hash__(self) -> int:
        return hash((self.frame, self.table))

    def __repr__(self) -> str:
        return f"<Nucleus on {len(self.frame)} down-sets>"

    def to_json(self) -> dict:
        doc = self.frame.to_json()
        doc["pairs"] = [[i, t] for i, t in enumerate(self.table)]
        return doc

    @classmethod
    def from_json(cls, doc: dict, frame: DownSetFrame | None = None) -> "Nucleus":
        pairs = _json_list(doc, "pairs", "nucleus")
        frame = frame if frame is not None else frame_for_json(doc)
        table = [0] * len(frame)
        for pair in pairs:
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ParseError(f"pairs entry {pair!r} is not a pair", witness={"pair": pair})
            i, t = pair
            if not _is_id(frame, i):
                raise NotANucleusError(
                    f"pair index {i!r} is not a down-set id", witness={"pair": [i, t]}
                )
            table[i] = t
        return cls(frame, table)


class Congruence:
    """A partition of a frame compatible with binary meets and all joins.

    Accepted on construction when the classes are the fibres of d -> d & X
    for X = {p : down(p) and down(p) - {p} are unrelated}.  Otherwise the
    laws are scanned for a witness: on a finite frame arbitrary joins
    collapse to finite ones, so the scan checks one-sided binary
    compatibility against a class representative, which implies
    compatibility of every finite family.
    """

    __slots__ = ("frame", "classes", "class_of")

    def __init__(self, frame: DownSetFrame, classes: Iterable[Iterable[int]], check: bool = True):
        self.frame = frame
        normalized = []
        for c in classes:
            cls = frozenset(c)
            for a in cls:
                if not _is_id(frame, a):
                    raise NotACongruenceError(
                        f"{a!r} is not a down-set id", witness={"id": a}
                    )
            if not cls:
                raise NotACongruenceError("a class is empty", witness={"class": []})
            normalized.append(cls)
        self.classes = tuple(sorted(normalized, key=min))
        class_of = [-1] * len(frame)
        for ci, cls in enumerate(self.classes):
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
        self.class_of = tuple(class_of)
        if check and not self._is_subset_form():
            self._check_laws()

    def _is_subset_form(self) -> bool:
        xs = _mask(extract_subset(self))
        # every class is non-empty, so cut -> class is onto; one-to-one iff
        # there are as many cuts as classes
        class_of_cut: dict[int, int] = {}
        for d, c in zip(self.frame.masks, self.class_of):
            if class_of_cut.setdefault(d & xs, c) != c:
                return False
        return len(class_of_cut) == len(self.classes)

    def _check_laws(self) -> None:
        frame, class_of = self.frame, self.class_of
        for cls in self.classes:
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

    @classmethod
    def from_key(cls, frame: DownSetFrame, keys: Sequence) -> "Congruence":
        groups: dict = {}
        for i, key in enumerate(keys):
            groups.setdefault(key, []).append(i)
        return cls(frame, groups.values())

    def related(self, a: int, b: int) -> bool:
        return self.class_of[a] == self.class_of[b]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Congruence)
            and self.frame == other.frame
            and self.classes == other.classes
        )

    def __hash__(self) -> int:
        return hash((self.frame, self.classes))

    def __repr__(self) -> str:
        return f"<Congruence with {len(self.classes)} classes>"

    def to_json(self) -> dict:
        doc = self.frame.to_json()
        doc["classes"] = [sorted(c) for c in self.classes]
        return doc

    @classmethod
    def from_json(cls, doc: dict, frame: DownSetFrame | None = None) -> "Congruence":
        classes = _json_list(doc, "classes", "congruence")
        for c in classes:
            if not (isinstance(c, list) and all(isinstance(a, int) for a in c)):
                raise ParseError(f"class {c!r} is not a list of ids", witness={"class": c})
        frame = frame if frame is not None else frame_for_json(doc)
        return cls(frame, classes)


class Sublocale:
    """Down-set ids closed under all intersections and under implication
    from arbitrary down-sets into members.

    Accepted on construction when the members are the fixed points of
    implication from X = {p : some member contains down(p) - {p} but not
    p}; otherwise the laws are scanned for a witness.
    """

    __slots__ = ("frame", "members")

    def __init__(self, frame: DownSetFrame, members: Iterable[int], check: bool = True):
        self.frame = frame
        self.members = frozenset(members)
        for i in self.members:
            if not _is_id(frame, i):
                raise NotASublocaleError(f"{i!r} is not a down-set id", witness={"id": i})
        if check and not self._is_subset_form():
            self._check_laws()

    def _is_subset_form(self) -> bool:
        frame, members, masks = self.frame, self.members, self.frame.masks
        xs = _mask(_sublocale_subset(frame, members))
        fixed = _implication_masks(frame, xs)
        return all((j == d) == (i in members) for i, (d, j) in enumerate(zip(masks, fixed)))

    def _check_laws(self) -> None:
        frame, members = self.frame, self.members
        if frame.top_id not in members:
            raise NotASublocaleError(
                "sublocale misses the empty intersection (the whole poset)"
            )
        for a in members:
            for b in members:
                if frame.meet(a, b) not in members:
                    raise NotASublocaleError(
                        "sublocale is not closed under intersections",
                        a=frame.downset(a),
                        m=frame.downset(b),
                        result=frame.downset(frame.meet(a, b)),
                    )
        for a in range(len(frame)):
            for m in sorted(members):
                h = frame.heyting(a, m)
                if h not in members:
                    raise NotASublocaleError(
                        "sublocale is not closed under implication into it",
                        a=frame.downset(a),
                        m=frame.downset(m),
                        result=frame.downset(h),
                    )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Sublocale)
            and self.frame == other.frame
            and self.members == other.members
        )

    def __hash__(self) -> int:
        return hash((self.frame, self.members))

    def __repr__(self) -> str:
        return f"<Sublocale with {len(self.members)} members>"

    def to_json(self) -> dict:
        doc = self.frame.to_json()
        doc["members"] = sorted(self.members)
        return doc

    @classmethod
    def from_json(cls, doc: dict, frame: DownSetFrame | None = None) -> "Sublocale":
        members = _json_list(doc, "members", "sublocale")
        for i in members:
            if not isinstance(i, int):
                raise ParseError(f"member {i!r} is not an id", witness={"member": i})
        frame = frame if frame is not None else frame_for_json(doc)
        return cls(frame, members)


def frame_for_json(doc: dict) -> DownSetFrame:
    return enumerate_downsets(FinitePoset.from_json(doc.get("poset")))


# -- conversions between the four presentations ----------------------------


def _topology_frame(topology: GrothTopology, frame: DownSetFrame | None) -> DownSetFrame:
    frame = frame if frame is not None else enumerate_downsets(topology.poset)
    if frame.poset != topology.poset:
        raise PosetMismatchError("topology and frame live on different posets")
    return frame


def nucleus_from_topology(
    topology: GrothTopology, frame: DownSetFrame | None = None
) -> Nucleus:
    """Send a down-set to the elements whose cut along it is a cover."""
    return _implication_nucleus(_topology_frame(topology, frame), _mask(topology.subset))


def topology_from_nucleus(nucleus: Nucleus) -> GrothTopology:
    """Covers of p are the sieves whose image under the nucleus reaches p."""
    frame = nucleus.frame
    return GrothTopology(frame.poset, _nucleus_subset(frame, nucleus.table))


def congruence_from_nucleus(nucleus: Nucleus) -> Congruence:
    return Congruence.from_key(nucleus.frame, nucleus.table)


def nucleus_from_congruence(congruence: Congruence) -> Nucleus:
    """Send a down-set to the union (join) of its class."""
    frame = congruence.frame
    joins = [frame.join_all(c) for c in congruence.classes]
    return Nucleus(frame, [joins[c] for c in congruence.class_of])


def sublocale_from_nucleus(nucleus: Nucleus) -> Sublocale:
    """The fixed points, a sublocale for every nucleus."""
    return Sublocale(nucleus.frame, nucleus.fixed_point_ids(), check=False)


def nucleus_from_sublocale(sublocale: Sublocale) -> Nucleus:
    """Send a down-set to the least member above it.

    A member is its own least member above.  Any other down-set a lies
    strictly below every member above it, so each of those contains some
    one-element extension a | {p}; the least member above a is therefore
    the meet of the least members above its one-element extensions.  Those
    have larger ids, so one pass by decreasing id fills the table.
    """
    frame = sublocale.frame
    masks, mask_index = frame.masks, frame.mask_index
    top = (1 << frame.poset.n) - 1
    least = [0] * len(frame)  # id -> mask of the least member above it
    for a in reversed(range(len(frame))):
        d = masks[a]
        if a in sublocale.members:
            least[a] = d
            continue
        acc = top
        for p, down in enumerate(frame.principal):
            if down & ~d == 1 << p:  # p is minimal outside a
                acc &= least[mask_index[d | 1 << p]]
        least[a] = acc
    return Nucleus(frame, [mask_index[m] for m in least])


def congruence_from_topology(
    topology: GrothTopology, frame: DownSetFrame | None = None
) -> Congruence:
    """Relate two down-sets when they cut to covers at exactly the same elements."""
    frame = _topology_frame(topology, frame)
    xs = _mask(topology.subset)
    return Congruence.from_key(frame, [d & xs for d in frame.masks])


def topology_from_congruence(congruence: Congruence) -> GrothTopology:
    """Covers of p are the sieves congruent to the maximal sieve on p."""
    return GrothTopology(congruence.frame.poset, extract_subset(congruence))


def sublocale_from_topology(
    topology: GrothTopology, frame: DownSetFrame | None = None
) -> Sublocale:
    """Members are the down-sets containing every element they cover."""
    return sublocale_from_nucleus(nucleus_from_topology(topology, frame))


def topology_from_sublocale(sublocale: Sublocale) -> GrothTopology:
    """Covers of p are the sieves contained in no member that omits p."""
    frame = sublocale.frame
    return GrothTopology(frame.poset, _sublocale_subset(frame, sublocale.members))


# -- subset-generated presentations -----------------------------------------


@dataclass(frozen=True)
class SubsetForms:
    nucleus: Nucleus
    congruence: Congruence
    sublocale: Sublocale


def _implication_nucleus(frame: DownSetFrame, xs: int) -> Nucleus:
    """Implication from the subset mask ``xs``, a nucleus by construction."""
    mask_index = frame.mask_index
    return Nucleus(frame, [mask_index[j] for j in _implication_masks(frame, xs)], check=False)


def subset_forms(
    poset: FinitePoset, subset: Iterable[int], frame: DownSetFrame | None = None
) -> SubsetForms:
    """The nucleus, congruence, and sublocale generated by a subset.

    The nucleus is implication from the subset; the congruence identifies
    down-sets with equal subset cut; the sublocale collects the
    implication-fixed down-sets.
    """
    frame = frame if frame is not None else enumerate_downsets(poset)
    xs = _mask(subset)
    nucleus = _implication_nucleus(frame, xs)
    congruence = Congruence.from_key(frame, [d & xs for d in frame.masks])
    return SubsetForms(nucleus, congruence, sublocale_from_nucleus(nucleus))


def double_negation_nucleus(
    poset: FinitePoset, frame: DownSetFrame | None = None
) -> Nucleus:
    frame = frame if frame is not None else enumerate_downsets(poset)
    return Nucleus(frame, tuple(frame.id_of(double_negation(poset, d)) for d in frame))


@dataclass(frozen=True)
class SublocaleFrameIso:
    """Concrete frame isomorphism from a subset sublocale onto the down-sets
    of the subset: forward is intersection, backward is implication."""

    sublocale: Sublocale
    sub_frame: DownSetFrame
    forward: dict  # member id -> sub-frame id
    backward: dict  # sub-frame id -> member id


def mx_frame_isomorphism(
    poset: FinitePoset, subset: Iterable[int], frame: DownSetFrame | None = None
) -> SublocaleFrameIso:
    """Build and verify the isomorphism between the subset sublocale and the
    subset's own down-set frame.

    Meets on the sublocale are intersections; joins are the nucleus applied
    to the union.  Both are checked against the subset frame.
    """
    frame = frame if frame is not None else enumerate_downsets(poset)
    xs = frozenset(subset)
    forms = subset_forms(poset, xs, frame)
    sub = enumerate_downsets(poset.induced(sorted(xs)))
    elems = sorted(xs)
    pos = {e: k for k, e in enumerate(elems)}
    forward = {}
    for m in sorted(forms.sublocale.members):
        cut = frozenset(pos[e] for e in frame.downset(m) & xs)
        forward[m] = sub.id_of(cut)
    if len(set(forward.values())) != len(forward) or set(forward.values()) != set(
        range(len(sub))
    ):
        raise NotASublocaleError("subset sublocale is not in bijection with the subset frame")
    backward = {}
    for y in range(len(sub)):
        lifted = frozenset(elems[k] for k in sub.downset(y))
        backward[y] = frame.id_of(heyting_implication(poset, xs, lifted))
    for m in forward:
        if backward[forward[m]] != m:
            raise NotASublocaleError("intersection and implication are not mutually inverse")
    members = sorted(forms.sublocale.members)
    nuc = forms.nucleus
    for a in members:
        for b in members:
            if forward[frame.meet(a, b)] != sub.meet(forward[a], forward[b]):
                raise NotASublocaleError("isomorphism does not preserve meets")
            join_in_m = nuc.table[frame.join(a, b)]
            if forward[join_in_m] != sub.join(forward[a], forward[b]):
                raise NotASublocaleError("isomorphism does not preserve joins")
    return SublocaleFrameIso(forms.sublocale, sub, forward, backward)


# -- completeness ------------------------------------------------------------


def nucleus_is_complete(nucleus: Nucleus) -> bool:
    """Whether the nucleus preserves arbitrary intersections.

    The intersection of a family lies above the meet of the fibers j^-1(m)
    of its image values m.  When each fiber contains its own meet, the
    finite meet preservation that validation proved sends that lower bound
    to the meet of those m, so the family's intersection is preserved.  The
    check is therefore that each fiber contains its own meet, linear in
    the frame size.
    """
    frame, table = nucleus.frame, nucleus.table
    fibers: dict[int, list[int]] = {}
    for a, m in enumerate(table):
        fibers.setdefault(m, []).append(a)
    return all(table[frame.meet_all(f)] == m for m, f in fibers.items())


def congruence_is_complete(congruence: Congruence) -> bool:
    """Whether the congruence respects arbitrary intersections.

    The intersection of a family lies between the meet of every member of
    the classes it touches and the meet of one of its members per class.
    When each class contains its own meet, the two bounds are congruent,
    since validation proved binary meets respected, and classes are
    convex, so the intersection depends only on the classes touched.  The
    check is therefore that each class contains its own meet, linear in
    the frame size.
    """
    frame, class_of = congruence.frame, congruence.class_of
    return all(class_of[frame.meet_all(c)] == i for i, c in enumerate(congruence.classes))


# -- frame quotients ----------------------------------------------------------


@dataclass(frozen=True)
class QuotientFrame:
    """The frame of congruence classes, with operations via representatives."""

    congruence: Congruence

    @property
    def size(self) -> int:
        return len(self.congruence.classes)

    def rep(self, c: int) -> int:
        return min(self.congruence.classes[c])

    def meet(self, c1: int, c2: int) -> int:
        frame = self.congruence.frame
        return self.congruence.class_of[frame.meet(self.rep(c1), self.rep(c2))]

    def join(self, c1: int, c2: int) -> int:
        frame = self.congruence.frame
        return self.congruence.class_of[frame.join(self.rep(c1), self.rep(c2))]

    @property
    def top(self) -> int:
        return self.congruence.class_of[self.congruence.frame.top_id]

    @property
    def bottom(self) -> int:
        return self.congruence.class_of[self.congruence.frame.bottom_id]


def quotient_frame(congruence: Congruence) -> QuotientFrame:
    """Classes with meet and join via representatives; well-defined because
    congruence validation already checked representative independence."""
    return QuotientFrame(congruence)


@dataclass(frozen=True)
class FactorizationWitness:
    kernel: Congruence
    quotient: QuotientFrame
    iso: tuple[int, ...]  # class id -> target down-set id


def homomorphism_factorization(f: FrameMap) -> FactorizationWitness:
    """Factor a frame surjection through its kernel congruence.

    Produces the kernel, the quotient, and the induced bijection from
    classes onto the target, verified to preserve meets and joins and to
    recompose to the original map.
    """
    violation = frame_morphism_violation(f)
    if violation is not None:
        raise NotAFrameMorphismError(
            f"map does not preserve {violation['law']}", witness=violation
        )
    if set(f.table) != set(range(len(f.target))):
        missing = sorted(set(range(len(f.target))) - set(f.table))[0]
        raise NotSurjectiveError(
            "map is not surjective",
            witness={"missing": sorted(f.target.downset(missing))},
        )
    kernel = Congruence.from_key(f.source, f.table)
    quotient = QuotientFrame(kernel)
    iso = tuple(f.table[quotient.rep(c)] for c in range(quotient.size))
    if len(set(iso)) != quotient.size:
        raise NotAFrameMorphismError(
            "induced map on the quotient is not injective",
            witness={"law": "injective", "classes": quotient.size, "images": len(set(iso))},
        )
    laws = (("meet", quotient.meet, f.target.meet), ("join", quotient.join, f.target.join))
    for c1 in range(quotient.size):
        for c2 in range(quotient.size):
            for law, on_classes, on_target in laws:
                if iso[on_classes(c1, c2)] != on_target(iso[c1], iso[c2]):
                    raise NotAFrameMorphismError(
                        f"induced map on the quotient does not preserve {law}",
                        witness={
                            "law": law,
                            "a": _members(f.source, quotient.rep(c1)),
                            "b": _members(f.source, quotient.rep(c2)),
                        },
                    )
    for a in range(len(f.source)):
        if f.table[a] != iso[kernel.class_of[a]]:
            raise NotAFrameMorphismError(
                "factorization does not recompose to the map",
                witness={"law": "recomposition", "a": _members(f.source, a)},
            )
    return FactorizationWitness(kernel, quotient, iso)


def extract_subset(congruence: Congruence) -> frozenset[int]:
    """Elements whose principal down-set is separated from its punctured form."""
    frame = congruence.frame
    index = frame.mask_index
    return frozenset(
        p
        for p, down in enumerate(frame.principal)
        if not congruence.related(index[down], index[_punctured(down, p)])
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

    For each enumerated topology: the five round trips are identities, the
    two triangle composites through congruences and through sublocales
    agree with the direct conversion, and completeness is preserved across
    the three presentations.
    """
    frame = enumerate_downsets(poset)
    failures: list[str] = []
    topologies = enumerate_all_topologies(poset, cap=cap)
    for idx, topology in enumerate(topologies):
        tag = f"topology #{idx}"
        nuc = nucleus_from_topology(topology, frame)
        if topology_from_nucleus(nuc) != topology:
            failures.append(f"{tag}: topology/nucleus round trip")
        cong = congruence_from_nucleus(nuc)
        if nucleus_from_congruence(cong) != nuc:
            failures.append(f"{tag}: nucleus/congruence round trip")
        sub = sublocale_from_nucleus(nuc)
        if nucleus_from_sublocale(sub) != nuc:
            failures.append(f"{tag}: nucleus/sublocale round trip")
        if congruence_from_topology(topology, frame) != cong:
            failures.append(f"{tag}: congruence triangle")
        if sublocale_from_topology(topology, frame) != sub:
            failures.append(f"{tag}: sublocale triangle")
        if topology_from_congruence(cong) != topology:
            failures.append(f"{tag}: congruence/topology round trip")
        if topology_from_sublocale(sub) != topology:
            failures.append(f"{tag}: sublocale/topology round trip")
        flags = {
            topology_is_complete(topology),
            nucleus_is_complete(nuc),
            congruence_is_complete(cong),
        }
        if len(flags) != 1:
            failures.append(f"{tag}: completeness flags disagree")
    return DiagramReport(poset, len(topologies), tuple(failures))
