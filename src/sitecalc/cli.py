"""Command-line surface.

Exit codes: 0 on success with JSON (or DOT) on stdout, 1 on domain errors
with an ``{"error": {code, message, witness}}`` envelope, 2 on usage
errors.  All output is deterministic; the library is randomness-free.

:func:`main` runs each verb with the cyclic garbage collector paused, as
verbs leave no reference cycles for it to free, and restores the caller's
setting; the pause is process-wide, so it covers every thread of a host
while a verb runs.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Sequence

from . import localic, sheaves, sites
from .catalog import ALIASES, catalog, catalog_poset
from .errors import ParseError, PosetMismatchError, SiteCalcError
from .poset import (
    FinitePoset,
    _LabelRows,
    _Text,
    export_dot,
    parse_poset,
    subset_of_labels,
)


_encode_int = int.__repr__
_MAX_INDENT = 64  # newline plus indent, so about 31 levels of nesting


class _Fallback(Exception):
    """The document holds something only ``json.dumps`` writes exactly."""


def _render(obj, nl: str, memo: dict[tuple[int, str], str]) -> str:
    """``obj`` as ``json.dumps(obj, indent=2, sort_keys=True)`` writes it at
    the nesting level whose newline-plus-indent is ``nl``.  Lists of exact
    ``str`` or ``int``, and lists of such lists, are joined over the C
    mappers in one pass; ``_Fallback`` for anything else it does not know.
    A ``_Text`` writes its own text: label rows held as masks and id
    tables, from the library's document builders.  ``memo`` marks each
    ``_Text`` it renders by (id, ``nl``) and keeps the text of one it meets
    a second time: a ``_Text`` that the document holds k times at one level,
    as the rows a cover listing shares, is rendered twice, not k times, and
    one held once keeps no copy of its text.  No other container is shared
    inside a CLI document, so no other is marked.  Ids are stable while the
    document, which holds every object, is being written."""
    kind = type(obj)
    if kind is str:
        return _encode_str(obj)
    if kind is int:
        return _encode_int(obj)
    if obj is None:
        return "null"
    if kind is bool:
        return "true" if obj else "false"
    if kind is float:
        return json.dumps(obj)
    if len(nl) > _MAX_INDENT:
        raise _Fallback  # a cycle, or nesting left to json's own limits
    if kind is _Text:
        ref = (id(obj), nl)
        text = memo.get(ref)
        if not text:
            text = obj.render(nl)
            memo[ref] = text if ref in memo else ""
        return text
    inner = nl + "  "
    sep = "," + inner
    if kind is dict:
        if not obj:
            return "{}"
        if not all(type(key) is str for key in obj):
            raise _Fallback
        items = sorted(obj.items())
        body = sep.join([_encode_str(k) + ": " + _render(v, inner, memo) for k, v in items])
        return "{" + inner + body + nl + "}"
    if kind is not list and kind is not tuple:
        raise _Fallback
    if not obj:
        return "[]"
    kinds = set(map(type, obj))
    if kinds == {str}:
        return "[" + inner + sep.join(map(_encode_str, obj)) + nl + "]"
    if kinds == {int}:
        return "[" + inner + sep.join(map(_encode_int, obj)) + nl + "]"
    if kinds <= {list, tuple}:
        leaves = set(map(type, chain.from_iterable(obj)))
        if leaves <= {str} or leaves == {int}:
            encode = _encode_int if leaves == {int} else _encode_str
            deep = inner + "  "
            join, head, tail = ("," + deep).join, "[" + deep, inner + "]"
            rows = [f"{head}{join(map(encode, row))}{tail}" if row else "[]" for row in obj]
            return "[" + inner + sep.join(rows) + nl + "]"
    return "[" + inner + sep.join([_render(x, inner, memo) for x in obj]) + nl + "]"


def _dumps(obj) -> str:
    """Exactly ``json.dumps(obj, indent=2, sort_keys=True)``, without its
    pure-Python encoder on the containers this CLI writes; a ``_Text``
    writes the value it holds.  A non-``str`` key, a subclass, an unknown
    type or a cycle hands the whole document to ``json.dumps``, so its key
    coercion and its errors stay as they are; the documents that hold a
    ``_Text`` have none of these.  The memo of rendered ``_Text`` values
    lives for this call only."""
    try:
        return _render(obj, "\n", {})
    except _Fallback:
        return json.dumps(obj, indent=2, sort_keys=True)


def _emit(obj) -> None:
    sys.stdout.write(_dumps(obj) + "\n")


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as err:
            raise ParseError(
                f"{path} is not UTF-8 text", witness={"path": path, "reason": str(err)}
            ) from None


def _parse_json(path: str, text: str):
    try:
        return json.loads(text)
    except RecursionError as err:
        raise ParseError(
            f"{path} nests too deeply", witness={"path": path, "reason": str(err)}
        ) from None


def _read_poset(path: str) -> tuple[FinitePoset, object]:
    """The poset in the file and its JSON document, None for the text form."""
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        doc = _parse_json(path, text)
        return FinitePoset.from_json(doc), doc
    return parse_poset(text), None


def _load_poset(path: str) -> FinitePoset:
    return _read_poset(path)[0]


def _load_json(path: str) -> dict:
    return _parse_json(path, _read_text(path))


def _embeds(given: object, doc: object) -> bool:
    """Whether a document's ``poset`` is ``given``, the JSON document of
    ``--poset`` (None for the text form), with every id an exact ``int``:
    ``1.0`` and ``true`` equal ``1`` but are read as errors, so a document
    holding one has its poset read on its own."""
    return (
        given is not None
        and isinstance(doc, dict)
        and doc.get("poset") == given
        and set(map(type, chain.from_iterable(doc["poset"].get("le_pairs", ())))) <= {int}
    )


def _load_topology(path: str, poset: FinitePoset, given: object) -> sites.GrothTopology:
    """The topology in the file, read on ``poset`` when the document names
    it; a document with no ``poset`` field is left to its reader."""
    doc = _load_json(path)
    _require_document_poset(poset, given, doc)
    named = isinstance(doc, dict) and "poset" in doc
    return sites.GrothTopology.from_json(doc, poset if named else None)


def _split_elements(poset: FinitePoset, raw: str) -> frozenset[int]:
    names = [tok for tok in raw.replace(",", " ").split() if tok]
    return subset_of_labels(poset, names)


def _cmd_validate(args) -> int:
    poset = _load_poset(args.poset)
    _emit({"ok": True, "poset": poset.to_json()})
    return 0


def _cmd_topology(args) -> int:
    poset = _load_poset(args.poset)
    if args.subset is not None:
        topology = sites.subset_topology(poset, _split_elements(poset, args.subset))
    elif args.kind is not None:
        maker = {
            "indiscrete": sites.indiscrete_topology,
            "discrete": sites.discrete_topology,
            "atomic": sites.atomic_topology,
            "dense": sites.dense_topology,
        }[args.kind]
        topology = maker(poset)
    elif args.derived is not None:
        topology = sites.derived_topology(poset, _split_elements(poset, args.derived))
    else:
        topology = sites.lx_topology(poset, _split_elements(poset, args.lx))
    _emit(topology._json(_LabelRows(poset.labels, text=True)))
    return 0


def _cmd_enumerate(args) -> int:
    poset = _load_poset(args.poset)
    topologies = sites.enumerate_all_topologies(poset, cap=args.cap)
    # one family per (p, L_p), shared across the census and written from its masks
    listing = sites._CoverListing(poset, _LabelRows(poset.labels, text=True))
    out = [
        {
            "covers": listing.covers_json(topology.subset),
            "generated_by": sorted(poset.labels[i] for i in topology.subset),
        }
        for topology in topologies
    ]
    _emit({"poset": poset.to_json(), "count": len(topologies), "topologies": out})
    return 0


def _require_document_poset(poset: FinitePoset, given: object, doc: object) -> None:
    """PosetMismatchError when a topology, presentation or presheaf document
    names a poset other than ``--poset``, whose JSON document is ``given``.
    The document's poset is read unless it :func:`_embeds` ``given``; a
    document with no ``poset`` field is left to its reader."""
    if not isinstance(doc, dict) or "poset" not in doc or _embeds(given, doc):
        return
    own = FinitePoset.from_json(doc["poset"])
    if own == poset:
        return
    if own.labels != poset.labels:
        witness = {"document": list(own.labels), "poset": list(poset.labels)}
    else:
        n = poset.n
        a, b = next((a, b) for a in range(n) for b in range(n) if own.leq(a, b) != poset.leq(a, b))
        witness = {"pair": [poset.labels[a], poset.labels[b]], "in_document": own.leq(a, b)}
    raise PosetMismatchError("the document is on another poset than --poset", witness=witness)


def _cmd_convert(args) -> int:
    poset, given = _read_poset(args.poset)
    if args.to is not None:
        topology = _load_topology(args.topology, poset, given)
        view = localic.nucleus_from_topology(topology)
        if args.to == "congruence":
            view = localic.congruence_from_nucleus(view)
        elif args.to == "sublocale":
            view = localic.sublocale_from_nucleus(view)
        _emit(view._json(_LabelRows(poset.labels, text=True)))
        return 0
    doc = _load_json(args.input)
    _require_document_poset(poset, given, doc)
    if args.from_ == "nucleus":
        nucleus = localic.Nucleus.from_json(doc, poset)
    elif args.from_ == "congruence":
        nucleus = localic.nucleus_from_congruence(localic.Congruence.from_json(doc, poset))
    else:
        nucleus = localic.nucleus_from_sublocale(localic.Sublocale.from_json(doc, poset))
    _emit(localic.topology_from_nucleus(nucleus)._json(_LabelRows(poset.labels, text=True)))
    return 0


def _cmd_sheaf(args) -> int:
    poset, given = _read_poset(args.poset)
    topology = _load_topology(args.topology, poset, given)
    doc = _load_json(args.presheaf)
    _require_document_poset(poset, given, doc)
    presheaf = sheaves.Presheaf.from_json(doc, poset)
    check = sheaves.is_sheaf(presheaf, topology)
    _emit({"is_sheaf": check.ok, "witness": check.witness})
    return 0


def _cmd_subcanonical(args) -> int:
    poset, given = _read_poset(args.poset)
    topology = _load_topology(args.topology, poset, given)
    witnesses = sites.subcanonicity_report(poset, topology)
    _emit(
        {
            "subcanonical": not witnesses,
            "witnesses": [
                {
                    "representable": poset.labels[p],
                    "q": poset.labels[q],
                    "cover": sorted(poset.labels[i] for i in s),
                }
                for p, q, s in witnesses
            ],
        }
    )
    return 0


def _cmd_catalog(args) -> int:
    if args.name is not None:
        _emit(catalog_poset(args.name).to_json())
        return 0
    _emit(
        {
            "posets": [
                {"name": name, **poset.to_json()} for name, poset in catalog().items()
            ],
            "aliases": dict(ALIASES),
        }
    )
    return 0


def _cmd_export(args) -> int:
    poset = _load_poset(args.poset)
    sys.stdout.write(export_dot(poset))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    call in the process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="sitecalc",
        description="Grothendieck topologies on finite posets",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", help="parse and validate a poset file")
    p.add_argument("--poset", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("topology", help="construct a topology")
    p.add_argument("--poset", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--subset", help="comma-separated generating elements")
    group.add_argument("--kind", choices=["indiscrete", "discrete", "atomic", "dense"])
    group.add_argument("--derived", help="subset for the derived topology")
    group.add_argument("--lx", help="subset for the meets-the-subset topology")
    p.set_defaults(func=_cmd_topology)

    p = sub.add_parser("enumerate", help="all topologies, one per generating subset")
    p.add_argument("--poset", required=True)
    p.add_argument("--cap", type=int, default=sites.DEFAULT_BRUTE_FORCE_CAP)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("convert", help="move between topology presentations")
    p.add_argument("--poset", required=True)
    p.add_argument("--topology", help="topology JSON file (forward direction)")
    p.add_argument("--to", choices=["nucleus", "congruence", "sublocale"])
    p.add_argument("--from", dest="from_", choices=["nucleus", "congruence", "sublocale"])
    p.add_argument("--input", help="presentation JSON file (reverse direction)")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("sheaf", help="sheaf conditions")
    action = p.add_subparsers(dest="action", required=True)
    check = action.add_parser("check", help="test a presheaf against a topology")
    check.add_argument("--poset", required=True)
    check.add_argument("--topology", required=True)
    check.add_argument("--presheaf", required=True)
    check.set_defaults(func=_cmd_sheaf)

    p = sub.add_parser("subcanonical", help="do all representables satisfy descent")
    p.add_argument("--poset", required=True)
    p.add_argument("--topology", required=True)
    p.set_defaults(func=_cmd_subcanonical)

    p = sub.add_parser("catalog", help="built-in posets")
    p.add_argument("--name")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("export", help="export formats")
    what = p.add_subparsers(dest="what", required=True)
    dot = what.add_parser("dot", help="Hasse diagram in DOT format")
    dot.add_argument("--poset", required=True)
    dot.set_defaults(func=_cmd_export)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one verb, argument parsing included, and return its exit code.

    The cyclic garbage collector is paused while the verb runs, and the
    caller's setting is restored on every exit, a usage error's
    ``SystemExit`` included.  Reference counting frees what a verb builds,
    since no verb leaves a reference cycle, so the collections that the
    containers of a large document would set off scan for nothing.  The
    pause is process-wide: a host calling ``main`` from several threads
    pauses collection for all of them while a verb runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.verb == "convert":
            forward = args.topology is not None and args.to is not None
            reverse = args.from_ is not None and args.input is not None
            if forward == reverse:
                parser.error("convert wants either --topology/--to or --from/--input")
        try:
            return args.func(args)
        except SiteCalcError as err:
            _emit({"error": err.to_json()})
            return 1
        except (OSError, json.JSONDecodeError, KeyError) as err:
            _emit({"error": {"code": type(err).__name__, "message": str(err), "witness": None}})
            return 1
    finally:
        if enabled:
            gc.enable()


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
