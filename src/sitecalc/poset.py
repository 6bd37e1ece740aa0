"""Finite posets, their down-set frames, and Heyting-algebra operations.

Elements are dense integer indices ``0..n-1``; labels are display metadata
only.  The order relation is stored fully closed (reflexive-transitive)
as masks only, the up mask and the down mask of each element, with a
linear extension fixed once per poset; the cover pairs and the strict
pairs are built from the masks on first read.

A down-set is an int bitmask, bit p set iff p is in it.  A
:class:`DownSetFrame` holds all down-sets of a poset as masks, with
stable integer ids in the order of the bit-reversed masks, which is the
lexicographic order on characteristic vectors, so golden files stay
byte-identical across runs.  D(P) depends on P alone, so the poset keeps
its masks and ids, listed on first read, and a frame is a view of them.
Meets, joins and implications are computed on the masks; one down-set
converts to a frozenset of element ids on request.

Each poset keeps one label-to-bit table, built on first use, and every
reader of labels from outside looks them up there.  Rows of labels held as
masks are written out by one private kernel, :class:`_LabelRows`: a row is
joined from one fragment per 8-bit chunk of its mask, label lists for
library callers or encoded JSON text for the CLI writer.

A :class:`FrameMap` D(P) -> D(Q) is a table of ids.  By Birkhoff duality
the frame morphisms among them are exactly the preimage maps of monotone
maps phi: Q -> P, so one kernel reads phi off the table and accepts the
table when it is phi's preimage map.  The upper adjoint is
e -> {p : f(down(p)) <= e}, and the restriction A -> A & X is the preimage
map of the inclusion X -> P.  Only a rejected table is scanned pair by pair,
for the witness of its first failing law.

All types are immutable after construction and safe to share across
concurrent readers.  The cover and strict pairs, the label table, D(P) and
the induced-subposet memo on :class:`FinitePoset` are write-once and
idempotent, so concurrent recomputation is benign.  D(P) is kept as ints,
not as a frame, which would point back at the poset in a reference cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from json.encoder import encode_basestring_ascii as _encode_label
from typing import Callable, Iterable, Sequence

from .errors import (
    CycleError,
    DuplicateElementError,
    FrameTooLargeError,
    NotAFrameMorphismError,
    NotOrderIsomorphismError,
    NotOrderMorphismError,
    ParseError,
)

DEFAULT_FRAME_CAP = 2**20


class FinitePoset:
    """A finite partial order on elements ``0..n-1``.

    The constructor is the one check of its input, for documents and
    library callers alike, in this order: the labels, unless a count, and
    the pairs are iterables, every label is a string, every generating pair
    is a list or tuple of two exact ``int`` ids below n (each a ParseError
    naming the offending value, as the JSON reader words it), the labels are
    distinct (DuplicateElementError), and the closure is antisymmetric.
    It closes the pairs reflexively and transitively on masks; a closure
    that violates antisymmetry raises :class:`CycleError` naming the least
    element on a cycle and its least partner.  The order is stored as masks
    only: ``up_masks`` and ``down_masks``, the mask of each element's up-set
    and down-set, with ``linear_extension``, the elements ordered by
    (|down(e)|, e), so every element comes after those below it.  The
    label table of :meth:`index_of` and D(P) are built on first use.
    """

    __slots__ = (
        "n", "labels", "up_masks", "down_masks", "linear_extension",
        "_hasse", "_strict", "_induced_cache", "_hash", "_bits", "_frame",
    )

    def __init__(self, labels: int | Sequence[str], pairs: Iterable[Sequence[int]] = ()):
        if isinstance(labels, int):
            labels = tuple(str(i) for i in range(labels))
        else:
            try:
                members = iter(labels)
            except TypeError:
                raise ParseError("'elements' is not a list", witness={"elements": labels}) from None
            labels = tuple(members)
            for label in labels:
                if not isinstance(label, str):
                    raise ParseError(
                        f"element {label!r} is not a string", witness={"element": label}
                    )
        n = len(labels)
        up = [1 << i for i in range(n)]
        edges = []
        try:
            entries = iter(pairs)
        except TypeError:
            raise ParseError("'le_pairs' is not a list", witness={"le_pairs": pairs}) from None
        for pair in entries:
            if not (
                isinstance(pair, (list, tuple))
                and len(pair) == 2
                and type(pair[0]) is type(pair[1]) is int
                and 0 <= pair[0] < n
                and 0 <= pair[1] < n
            ):
                raise ParseError(
                    f"le_pairs entry {pair!r} is not a pair of ids below {n}",
                    witness={"pair": pair},
                )
            a, b = pair
            up[a] |= 1 << b
            edges.append((a, b))
        if len(set(labels)) != n:
            raise DuplicateElementError(f"duplicate element names in {labels!r}")
        changed = True
        while changed:  # up[a] takes in up[b] for each pair until nothing grows
            changed = False
            for a, b in reversed(edges):  # pairs tend to come lower source first
                if up[b] & ~up[a]:
                    up[a] |= up[b]
                    changed = True
        down = [0] * n
        for i, mask in enumerate(up):
            for j in _bits(mask):
                down[j] |= 1 << i
        for i in range(n):
            partners = up[i] & down[i] ^ 1 << i
            if partners:
                j = (partners & -partners).bit_length() - 1
                raise CycleError(
                    f"antisymmetry fails: {labels[i]!r} <= {labels[j]!r} <= {labels[i]!r}",
                    witness={"cycle": [labels[i], labels[j]]},
                )
        self.n = n
        self.labels = labels
        self.up_masks = tuple(up)
        self.down_masks = tuple(down)
        self.linear_extension = tuple(sorted(range(n), key=lambda e: (down[e].bit_count(), e)))
        self._hasse: tuple[tuple[int, int], ...] | None = None
        self._strict: tuple[tuple[int, int], ...] | None = None
        self._induced_cache: dict[tuple[int, ...], FinitePoset] = {}
        self._hash = hash((self.labels, self.up_masks))
        self._bits: dict[str, int] | None = None
        self._frame: tuple[tuple[int, ...], dict[int, int]] | None = None

    # -- order queries -------------------------------------------------

    def leq(self, i: int, j: int) -> bool:
        return self.up_masks[i] >> j & 1 == 1

    def lt(self, i: int, j: int) -> bool:
        return i != j and self.up_masks[i] >> j & 1 == 1

    def _label_bits(self) -> dict[str, int]:
        """Each label's bit, its id the bit length less one.  Built once."""
        if self._bits is None:
            self._bits = {label: 1 << i for i, label in enumerate(self.labels)}
        return self._bits

    def index_of(self, label: str) -> int:
        try:
            return self._label_bits()[label].bit_length() - 1
        except (KeyError, TypeError):  # not a label, or unhashable
            raise ParseError(f"unknown element {label!r}", witness={"element": label}) from None

    def relation_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, j) for i, mask in enumerate(self.up_masks) for j in _bits(mask))

    # -- closures and extremal elements --------------------------------

    def down_closure(self, subset: Iterable[int]) -> frozenset[int]:
        """Smallest down-set containing ``subset``."""
        return frozenset(_bits(_down_closure(self.down_masks, _mask(subset))))

    def up_closure(self, subset: Iterable[int]) -> frozenset[int]:
        return frozenset(_bits(_down_closure(self.up_masks, _mask(subset))))

    def minimal_elements(self, subset: Iterable[int] | None = None) -> frozenset[int]:
        """Minimal elements of ``subset`` viewed as a subposet (default: all of P)."""
        univ = (1 << self.n) - 1 if subset is None else _mask(subset)
        return frozenset(_bits(_maximal(self.up_masks, univ)))

    def least_element(self) -> int | None:
        full = (1 << self.n) - 1
        return next((p for p, up in enumerate(self.up_masks) if up == full), None)

    def is_downwards_directed(self, subset: Iterable[int] | None = None) -> bool:
        """Every pair has a lower bound inside the given universe iff it has
        at most one minimal element: two minimal ones have no lower bound in
        it, and a unique one lies below every member.  Empty is directed."""
        univ = (1 << self.n) - 1 if subset is None else _mask(subset)
        return _maximal(self.up_masks, univ).bit_count() <= 1

    def hasse_pairs(self) -> tuple[tuple[int, int], ...]:
        """Hasse-diagram pairs (q, p) with q < p and nothing strictly between,
        p ascending, then q ascending: the lower covers of p are the maximal
        elements of its strict down-set.  Built once."""
        if self._hasse is None:
            down = self.down_masks
            self._hasse = tuple(
                (q, p) for p in range(self.n) for q in _bits(_maximal(down, down[p] ^ 1 << p))
            )
        return self._hasse

    def _strict_pairs(self) -> tuple[tuple[int, int], ...]:
        """The strict pairs (q, p), q < p, q ascending, then p ascending.
        Built once."""
        if self._strict is None:
            self._strict = tuple(
                (q, p) for q, up in enumerate(self.up_masks) for p in _bits(up ^ 1 << q)
            )
        return self._strict

    def induced(self, subset: Iterable[int]) -> "FinitePoset":
        """Full subposet on ``subset``; elements are renumbered in index order.
        Built once per subset: posets are immutable, so the result is shared."""
        elems = tuple(sorted(set(subset)))
        sub = self._induced_cache.get(elems)
        if sub is None:
            labels = [self.labels[i] for i in elems]
            pos = {e: k for k, e in enumerate(elems)}
            pairs = [(pos[a], pos[b]) for a in elems for b in elems if a != b and self.leq(a, b)]
            sub = self._induced_cache[elems] = FinitePoset(labels, pairs)
        return sub

    # -- value semantics ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        """Equal labels and order; the same object is equal at once, as a
        presheaf and its topology, which share their poset, are."""
        return self is other or (
            isinstance(other, FinitePoset)
            and self.labels == other.labels
            and self.up_masks == other.up_masks
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        rel = [f"{self.labels[a]}<{self.labels[b]}" for a, b in self.hasse_pairs()]
        return f"FinitePoset({list(self.labels)}, {rel})"

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "elements": list(self.labels),
            "le_pairs": [list(p) for p in self.relation_pairs()],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "FinitePoset":
        """Read ``{"elements": [str, ...], "le_pairs": [[i, j], ...]}``.

        Any other shape, an unknown key or a field that is not a list, is a
        ParseError with the offending value as its witness; the constructor
        checks the entries.
        """
        if not isinstance(doc, dict) or "elements" not in doc:
            raise ParseError("poset JSON must contain an 'elements' list", witness={"poset": doc})
        unknown = sorted(map(str, doc.keys() - {"elements", "le_pairs"}))
        if unknown:
            raise ParseError(f"unknown poset keys {unknown}", witness={"unknown_keys": unknown})
        elements, pairs = doc["elements"], doc.get("le_pairs", [])
        if not isinstance(elements, list):
            raise ParseError("'elements' is not a list", witness={"elements": elements})
        if not isinstance(pairs, list):
            raise ParseError("'le_pairs' is not a list", witness={"le_pairs": pairs})
        return cls(elements, pairs)


def parse_poset(text: str) -> FinitePoset:
    """Parse the line-oriented poset text format.

    ``#`` starts a comment; ``/`` may be used instead of a newline.  One
    ``elements:`` line names the elements; each ``le: a b`` line declares
    ``a <= b``.  The declared relation need not be closed or list covers;
    its reflexive-transitive closure is taken.
    """
    statements: list[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0]
        for part in line.split("/"):
            part = part.strip()
            if part:
                statements.append(part)
    names: list[str] | None = None
    le_decls: list[tuple[str, str]] = []
    for stmt in statements:
        if ":" not in stmt:
            raise ParseError(f"cannot parse line {stmt!r}")
        head, rest = stmt.split(":", 1)
        head = head.strip()
        if head == "elements":
            if names is not None:
                raise ParseError("more than one 'elements:' line")
            names = rest.split()
            if not names:
                raise ParseError("'elements:' line names no elements")
        elif head == "le":
            toks = rest.split()
            if len(toks) != 2:
                raise ParseError(f"'le:' wants two names, got {rest.strip()!r}")
            le_decls.append((toks[0], toks[1]))
        else:
            raise ParseError(f"unknown directive {head!r}")
    if names is None:
        raise ParseError("missing 'elements:' line")
    if len(set(names)) != len(names):
        raise DuplicateElementError(f"duplicate element names in {names!r}")
    index = {name: i for i, name in enumerate(names)}
    pairs = []
    for a, b in le_decls:
        if a not in index or b not in index:
            raise ParseError(f"'le: {a} {b}' mentions an undeclared element")
        pairs.append((index[a], index[b]))
    return FinitePoset(names, pairs)


def subset_of_labels(poset: FinitePoset, names: Iterable[str]) -> frozenset[int]:
    return frozenset(poset.index_of(name) for name in names)


def export_dot(poset: FinitePoset) -> str:
    """Hasse diagram (cover relation only) in DOT format, edges lower -> upper."""
    lines = ["digraph poset {", "  rankdir=BT;"]
    for i in range(poset.n):
        label = poset.labels[i].replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{i} [label="{label}"];')
    for q, p in poset.hasse_pairs():
        lines.append(f"  n{q} -> n{p};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- down-set enumeration ----------------------------------------------


def _mask(subset: Iterable[int]) -> int:
    out = 0
    for p in subset:
        out |= 1 << p
    return out


def _bits(mask: int) -> list[int]:
    """The elements of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _down_closure(principal: Sequence[int], mask: int) -> int:
    """The down-closure of a mask, from the masks of the principal down-sets;
    with the up masks, its up-closure."""
    out = 0
    for e in _bits(mask):
        out |= principal[e]
    return out


def _maximal(principal: Sequence[int], mask: int) -> int:
    """The maximal elements of a mask: the mask minus the strict principal
    down-sets of its members; with the up masks, its minimal elements."""
    shadow = 0
    for e in _bits(mask):
        shadow |= principal[e] ^ 1 << e
    return mask & ~shadow


class _Text:
    """A JSON value held as the function that writes it as
    ``json.dumps(indent=2)`` would, at the nesting level whose
    newline-plus-indent it is given.  Only the CLI writer reads it, in
    documents whose keys and labels are exact strings."""

    __slots__ = ("render",)

    def __init__(self, render: Callable[[str], str]):
        self.render = render


class _Fragments(dict):
    """The fragment of each value of one 8-bit chunk of a row's mask, for
    :class:`_LabelRows`, from ``pieces``, the fragment of each of its bits,
    and ``self[0]``, the empty one: built on first lookup, as the fragment
    of the value without its top bit followed by that bit's."""

    __slots__ = ("pieces",)

    def __missing__(self, chunk: int) -> str | list:
        high = chunk.bit_length() - 1
        out = self[chunk] = self[chunk ^ 1 << high] + self.pieces[high]
        return out


class _LabelRows:
    """Rows of one poset's labels held as masks, written out.

    ``rows(masks)`` gives the labels of each mask's elements, ascending, as
    fresh lists for library callers, or, for a writer of JSON text, as a
    :class:`_Text`; ``pairs(table)`` gives an id table as ``[i, table[i]]``
    rows the same two ways.  A row is joined from one fragment per 8-bit
    chunk of its mask, read off a table per chunk position: a list of
    labels, or the encoded labels each behind its separator.  A table fills
    in the fragment of a chunk value on its first lookup and keeps it, one
    set of tables per nesting level of the text, so an instance that serves
    one document renders each fragment once for it.
    """

    __slots__ = ("labels", "text", "_tables")

    def __init__(self, labels: Sequence[str], text: bool = False):
        self.labels = labels
        self.text = text
        self._tables: dict[str | None, list[_Fragments]] = {}

    def rows(self, masks: Sequence[int]) -> list[list[str]] | _Text:
        if self.text:
            return _Text(lambda nl: self._rows_text(masks, nl))
        return self._join(masks, None)

    def pairs(self, table: Sequence[int]) -> list[list[int]] | _Text:
        if self.text:
            return _Text(lambda nl: _pairs_text(table, nl))
        return [[i, t] for i, t in enumerate(table)]

    def _join(self, masks: Sequence[int], deep: str | None) -> list:
        """Each mask's row: fresh label lists when ``deep`` is None, else the
        encoded labels each behind ``,`` and ``deep``, the newline and indent
        of a row member."""
        tables = self._tables.get(deep)
        if tables is None:
            labels = self.labels
            if deep is None:
                empty, pieces = [], [[label] for label in labels]
            else:
                empty, pieces = "", ["," + deep + _encode_label(label) for label in labels]
            tables = self._tables[deep] = []
            for base in range(0, max(len(labels), 1), 8):  # the empty poset still has a row
                table = _Fragments({0: empty})
                table.pieces = pieces[base:base + 8]
                tables.append(table)
        first = tables[0]
        empty = first[0]
        rows = [empty + first[m & 255] for m in masks]  # a fresh list for each row
        for k in range(1, len(tables)):
            table, base = tables[k], 8 * k
            rows = [row + table[m >> base & 255] for row, m in zip(rows, masks)]
        return rows

    def _rows_text(self, masks: Sequence[int], nl: str) -> str:
        """The rows as ``json.dumps(indent=2)`` writes them at the nesting
        level ``nl``: each row's joined fragments less the first comma."""
        if not masks:
            return "[]"
        inner = nl + "  "
        tail = inner + "]"
        rows = [f"[{body[1:]}{tail}" if body else "[]" for body in self._join(masks, inner + "  ")]
        return "[" + inner + ("," + inner).join(rows) + nl + "]"


def _pairs_text(table: Sequence[int], nl: str) -> str:
    """``[[i, table[i]], ...]`` as ``json.dumps(indent=2)`` writes it at the
    nesting level ``nl``."""
    if not table:
        return "[]"
    inner = nl + "  "
    deep = inner + "  "
    rows = [f"[{deep}{i},{deep}{t}{inner}]" for i, t in enumerate(table)]
    return "[" + inner + ("," + inner).join(rows) + nl + "]"


def _downset_masks(poset: FinitePoset, within: int, cap: int, start: int = 0) -> list[int]:
    """Masks of all down-sets of P that contain the down-set mask ``start``
    and lie in the down-set mask ``within``, in id order;
    FrameTooLargeError once there are more than ``cap``.

    Decides the other elements in descending index order.  Deciding e keeps
    the sets that hold nothing above e, then adds e to the sets that hold
    the decided part of down(e); as e is the most significant place of the
    characteristic vector so far, the sets without it come first and the
    list stays in id order.  Each list is the down-sets of the decided
    subposet, which are no more than those of the whole, so the cap check
    is exact.
    """
    up, down = poset.up_masks, poset.down_masks
    free = within & ~start
    sets = [start]
    for e in reversed(_bits(free)):
        bit = 1 << e
        above = up[e] ^ bit
        need = down[e] & ~(free & bit - 1) ^ bit  # start and the decided elements below e
        kept = [s for s in sets if not s & above] if above else sets
        grown = [s | bit for s in sets if s & need == need] if need else [s | bit for s in sets]
        sets = kept + grown
        if len(sets) > cap:
            raise FrameTooLargeError(
                f"more than {cap} down-sets", witness={"cap": cap}
            )
    return sets


class DownSetFrame:
    """The frame D(P) of all down-sets of a finite poset.

    Each down-set is an int bitmask, bit p set iff p is in it.  Ids are
    positions in the order of the bit-reversed masks, which is the
    lexicographic order on characteristic vectors, so they are stable for
    a fixed poset, and adding an element to a down-set always gives a
    larger id: the empty down-set is id 0 and P the last.  Meets are
    intersections and joins are unions.

    A frame is a view of the poset's D(P) and holds its masks and ids only:
    ``masks`` holds the down-sets by id and ``mask_index`` maps a mask back
    to its id; the rest, the principal down-sets too, is read off the poset.
    ``downset(i)`` converts one mask to a frozenset.  The poset's first
    frame lists D(P); FrameTooLargeError names ``DEFAULT_FRAME_CAP`` when it
    holds more down-sets.  Frames are equal when their posets are.
    """

    __slots__ = ("poset", "masks", "mask_index")

    def __init__(self, poset: FinitePoset):
        if poset._frame is None:
            masks = tuple(_downset_masks(poset, (1 << poset.n) - 1, DEFAULT_FRAME_CAP))
            poset._frame = masks, dict(zip(masks, range(len(masks))))
        self.poset = poset
        self.masks, self.mask_index = poset._frame

    def __len__(self) -> int:
        return len(self.masks)

    def id_of(self, downset: Iterable[int]) -> int:
        members = frozenset(downset)
        if all(type(p) is int and 0 <= p < self.poset.n for p in members):
            i = self.mask_index.get(_mask(members))
            if i is not None:
                return i
        raise KeyError(f"{sorted(members)} is not a down-set of this poset")

    def downset(self, i: int) -> frozenset[int]:
        return frozenset(_bits(self.masks[i]))

    @property
    def bottom_id(self) -> int:
        return 0

    @property
    def top_id(self) -> int:
        return len(self.masks) - 1

    def meet(self, i: int, j: int) -> int:
        return self.mask_index[self.masks[i] & self.masks[j]]

    def join(self, i: int, j: int) -> int:
        return self.mask_index[self.masks[i] | self.masks[j]]

    def meet_all(self, ids: Iterable[int]) -> int:
        acc = (1 << self.poset.n) - 1
        for i in ids:
            acc &= self.masks[i]
        return self.mask_index[acc]

    def join_all(self, ids: Iterable[int]) -> int:
        acc = 0
        for i in ids:
            acc |= self.masks[i]
        return self.mask_index[acc]

    def heyting(self, i: int, j: int) -> int:
        return self.mask_index[_implication(self.poset, self.masks[i] & ~self.masks[j])]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DownSetFrame) and self.poset == other.poset

    def __hash__(self) -> int:
        return hash(self.poset)

    def _json(self, rows: _LabelRows) -> dict:
        """The JSON form, with the down-sets as ``rows`` writes them."""
        return {"poset": self.poset.to_json(), "downsets": rows.rows(self.masks)}

    def to_json(self) -> dict:
        return self._json(_LabelRows(self.poset.labels))


def enumerate_downsets(poset: FinitePoset) -> DownSetFrame:
    """D(P) with stable ids; FrameTooLargeError beyond ``DEFAULT_FRAME_CAP``."""
    return DownSetFrame(poset)


# -- Heyting structure --------------------------------------------------


def _implication(poset: FinitePoset, outside: int) -> int:
    """{p : down(p) & outside is empty}, all of P less the up-closure of
    ``outside``, bits beyond P ignored: X => Y for outside = X - Y."""
    full = (1 << poset.n) - 1
    return full ^ _down_closure(poset.up_masks, outside & full)


def heyting_implication(
    poset: FinitePoset, x: Iterable[int], y: Iterable[int]
) -> frozenset[int]:
    """The largest down-set A with A & X <= Y, for arbitrary subsets X, Y:
    ``{p : down(p) & X <= Y}``, all of P less the up-closure of X - Y, which
    is down-closed by construction.  Ids of X outside P are ignored; the
    defining union over all down-sets is kept as a test oracle.
    """
    return frozenset(_bits(_implication(poset, _mask(x) & ~_mask(y))))


# -- maps between frames -------------------------------------------------


@dataclass(frozen=True)
class FrameMap:
    """A table-backed map between two down-set frames: ``table[i]``, an int,
    is the target id of source down-set i."""

    source: DownSetFrame
    target: DownSetFrame
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        table, size = tuple(self.table), len(self.target)
        object.__setattr__(self, "table", table)
        if len(table) != len(self.source):
            raise NotAFrameMorphismError(
                f"table has {len(table)} entries for a {len(self.source)}-element frame",
                witness={"entries": len(table), "size": len(self.source)},
            )
        for i in table:
            if not (type(i) is int and 0 <= i < size):
                raise NotAFrameMorphismError(
                    f"table entry {i!r} is not a target id", witness={"id": i}
                )


def _members(frame: DownSetFrame, i: int) -> list[str]:
    """The labels of down-set i, sorted: the form every law witness takes."""
    return sorted(frame.poset.labels[e] for e in _bits(frame.masks[i]))


def _preimage_table(
    source: DownSetFrame, target: DownSetFrame, fibres: Sequence[int]
) -> tuple[int | None, ...]:
    """The table of the preimage map D(P) -> D(Q) of a map phi: Q -> P given
    by its fibres, ``fibres[p]`` the mask of {q : phi(q) = p}.  An entry is
    None where the preimage is not a down-set, which happens for some entry
    iff phi is not monotone."""
    index = target.mask_index
    return tuple(index.get(_down_closure(fibres, d)) for d in source.masks)


def _dual_fibres(f: FrameMap) -> list[int] | None:
    """The fibres of the monotone phi: Q -> P with f = phi^-1, or None when
    there is none, that is, when f is not a frame morphism.

    On finite posets the frame morphisms D(P) -> D(Q) are exactly the
    preimage maps of monotone maps Q -> P (Birkhoff duality; Davey &
    Priestley, Introduction to Lattices and Order, ch. 5).  For f = phi^-1,
    q lies in f(down(p)) iff phi(q) <= p, so phi(q) is the first p along
    P's linear extension with q in f(down(p)).  f is accepted when every q
    gets a phi(q) and the table equals the preimage table of that phi, at
    O(|D(P)| n) cost.
    """
    src, tgt, table = f.source, f.target, f.table
    index, masks = src.mask_index, tgt.masks
    fibres, seen = [0] * src.poset.n, 0
    for p in src.poset.linear_extension:
        image = masks[table[index[src.poset.down_masks[p]]]]
        fibres[p] = image & ~seen
        seen |= image
    if seen != (1 << tgt.poset.n) - 1 or _preimage_table(src, tgt, fibres) != table:
        return None
    return fibres


def frame_morphism_violation(f: FrameMap) -> dict | None:
    """None if ``f`` preserves finite meets and all joins, else a witness.

    A table is accepted when it is a preimage map (``_dual_fibres``).  A
    rejected table is scanned for its first failing law: top, bottom, then
    meet and join on each pair of down-set ids i < j.  Should none fail,
    which Birkhoff duality rules out, the witness names the preimage check.
    """
    if _dual_fibres(f) is not None:
        return None
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
    return {"law": "preimage", "a": None, "b": None}


def _frame_dual(f: FrameMap) -> list[int]:
    """The fibres of phi with f = phi^-1, else NotAFrameMorphismError whose
    witness names the first failing law and its down-sets as sorted labels."""
    fibres = _dual_fibres(f)
    if fibres is None:
        witness = frame_morphism_violation(f)
        if witness["a"] is not None:
            witness.update(a=_members(f.source, witness["a"]), b=_members(f.source, witness["b"]))
        raise NotAFrameMorphismError(
            f"map is not a frame morphism: {witness['law']} fails", witness=witness
        )
    return fibres


def upper_adjoint(f: FrameMap) -> FrameMap:
    """The upper adjoint g of a frame morphism f = phi^-1:
    g(e) = {p : f(down(p)) <= e}, the union of every down-set f sends into
    e, since f preserves joins and every down-set is the union of the
    principal down-sets below it."""
    fibres = _frame_dual(f)
    src, tgt = f.source, f.target
    images = [_down_closure(fibres, down) for down in src.poset.down_masks]
    table = tuple(
        src.mask_index[_mask(p for p, image in enumerate(images) if not image & ~e)]
        for e in tgt.masks
    )
    return FrameMap(tgt, src, table)


def restriction_frame_map(frame: DownSetFrame, subset: Iterable[int]) -> FrameMap:
    """The frame surjection D(P) -> D(X) given by A |-> A & X: the preimage
    map of the inclusion X -> P, X renumbered in index order."""
    elems = sorted(set(subset))
    sub_frame = enumerate_downsets(frame.poset.induced(elems))
    fibres = [0] * frame.poset.n
    for k, e in enumerate(elems):
        fibres[e] = 1 << k
    return FrameMap(frame, sub_frame, _preimage_table(frame, sub_frame, fibres))


# -- order morphisms -----------------------------------------------------


def _monotonicity_failure(
    source: FinitePoset, target: FinitePoset, mapping: Sequence[int]
) -> tuple[int, int] | None:
    """The first pair x <= y of the source, x ascending, then y ascending,
    whose images are not in order in the target, or None when the map is
    monotone: every y in the up-set of x must map into the up-set of the
    image of x."""
    above = target.up_masks
    for x, up in enumerate(source.up_masks):
        reach = above[mapping[x]]
        for y in _bits(up):
            if not reach >> mapping[y] & 1:
                return x, y
    return None


@dataclass(frozen=True)
class OrderMorphism:
    """A monotone map between finite posets, validated on construction."""

    source: FinitePoset
    target: FinitePoset
    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        mapping = tuple(self.mapping)
        object.__setattr__(self, "mapping", mapping)
        if len(mapping) != self.source.n:
            raise NotOrderMorphismError(
                f"mapping has {len(mapping)} entries for {self.source.n} elements",
                witness={"entries": len(mapping), "size": self.source.n},
            )
        for i in mapping:
            if not (type(i) is int and 0 <= i < self.target.n):
                raise NotOrderMorphismError(
                    f"image {i!r} is not a target element", witness={"id": i}
                )
        failure = _monotonicity_failure(self.source, self.target, mapping)
        if failure is not None:
            x, y = (self.source.labels[e] for e in failure)
            raise NotOrderMorphismError(
                f"monotonicity fails at {x} <= {y}", witness={"x": x, "y": y}
            )

    @classmethod
    def _trusted(
        cls, source: FinitePoset, target: FinitePoset, mapping: tuple[int, ...]
    ) -> "OrderMorphism":
        """The map ``mapping``, which must be monotone, unchecked."""
        out = cls.__new__(cls)
        object.__setattr__(out, "source", source)
        object.__setattr__(out, "target", target)
        object.__setattr__(out, "mapping", mapping)
        return out

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    def image_of(self, subset: Iterable[int]) -> frozenset[int]:
        return frozenset(self.mapping[x] for x in subset)

    def is_isomorphism(self) -> bool:
        """A monotone bijection sends the pairs x <= y of the source to
        distinct pairs of the target, so its inverse is monotone iff both
        orders hold equally many pairs."""
        source, target = self.source, self.target
        return (
            source.n == target.n
            and len(set(self.mapping)) == source.n
            and sum(m.bit_count() for m in source.up_masks)
            == sum(m.bit_count() for m in target.up_masks)
        )

    def inverse(self) -> "OrderMorphism":
        if not self.is_isomorphism():
            raise NotOrderIsomorphismError("map is not an order isomorphism")
        inv = [0] * self.target.n
        for x, fx in enumerate(self.mapping):
            inv[fx] = x
        return OrderMorphism._trusted(self.target, self.source, tuple(inv))


def all_order_morphisms(source: FinitePoset, target: FinitePoset) -> list[OrderMorphism]:
    """Every monotone map source -> target, in lexicographic mapping order."""
    return [
        OrderMorphism._trusted(source, target, mapping)
        for mapping in product(range(target.n), repeat=source.n)
        if _monotonicity_failure(source, target, mapping) is None
    ]


def all_order_isomorphisms(source: FinitePoset, target: FinitePoset) -> list[OrderMorphism]:
    if source.n != target.n:
        return []
    return [f for f in all_order_morphisms(source, target) if f.is_isomorphism()]
