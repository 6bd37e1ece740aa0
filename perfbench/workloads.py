"""Request pools for the three workloads, and how each response is judged.

A workload is a fixed pool of requests plus a list of block slots.  Each
slot lists interchangeable requests of one kind on one input shape; a
block takes one request from every slot, chosen by the run's seed, in a
seeded order.  Every block therefore has the same composition, so a run's
latency distribution does not depend on how many blocks fit in its time.

The pool itself is built from ``POOL_SEED``, not from the run's seed, so
that every request has a reference digest in ``reference.json`` recorded
at the seed commit.  Inputs are written by the benchmark's own code; the
library only ever sees the generated files and documents.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import posets as P

POOL_SEED = 14054408

# The seed commit's documented caps.  Requests past them are the named
# known failures: they must keep failing for that reason or start passing.
SEED_LAW_CHECK_CAP = 4096
SEED_COMPLETENESS_GUARD = 20

BUDGET_CODES = frozenset({"TooLargeError", "TooLargeForBruteForceError", "FrameTooLargeError"})
FAILURE_TYPES = ("unexpected_error", "wrong_output", "wrong_error", "refused_by_budget")


@dataclass
class Request:
    key: str
    kind: str
    call: Callable[[], tuple[int, str]]
    expect: str | None = None  # the error code a correct program returns; None for success
    check: Callable[[dict], str | None] | None = None  # own-code invariant on the output
    known_failure: str | None = None  # the seed defect this request is known to hit


@dataclass
class Workload:
    pool: dict[str, Request]
    slots: list[list[str]]

    def block(self, rng: random.Random) -> list[Request]:
        keys = [rng.choice(slot) for slot in self.slots]
        rng.shuffle(keys)
        return [self.pool[k] for k in keys]


class Inputs:
    """Input files for one workload, written under a private directory."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.root, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path


# -- calling the library ------------------------------------------------------


def dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def cli_call(lib, argv: list[str]) -> Callable[[], tuple[int, str]]:
    """Run one CLI verb in-process; returns the exit code and captured stdout."""

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = lib.cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
        return code, out.getvalue()

    return call


def lib_call(lib, fn: Callable[[], object]) -> Callable[[], tuple[int, str]]:
    """Run one library operation; domain errors get the CLI's error envelope."""

    def call():
        try:
            result = fn()
        except lib.errors.SiteCalcError as err:
            return 1, dump({"error": err.to_json()})
        return 0, dump(result)

    return call


def plain(obj):
    """Reports and witnesses as JSON values, with sets in sorted order."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
        if hasattr(type(obj), "ok"):
            out["ok"] = obj.ok
        return out
    if isinstance(obj, (set, frozenset)):
        return sorted((plain(v) for v in obj), key=lambda v: json.dumps(v, sort_keys=True))
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    return obj


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def judge(req: Request, code: int, text: str, reference: dict[str, str]) -> tuple[str, str]:
    """``("pass", "")`` or a failure type from FAILURE_TYPES with a detail."""
    if code not in (0, 1):
        return "unexpected_error", f"exit code {code}"
    try:
        doc = json.loads(text)
    except ValueError:
        return "unexpected_error", "stdout is not JSON"
    error = doc.get("error") if code == 1 and isinstance(doc, dict) else None
    if code == 1 and not isinstance(error, dict):
        return "unexpected_error", "exit code 1 without an error envelope"
    got = error.get("code") if error else None
    if got != req.expect:
        if got in BUDGET_CODES:
            return "refused_by_budget", got
        if got is None:
            return "wrong_output", f"accepted; expected {req.expect}"
        return "wrong_error", f"{got}; expected {req.expect or 'success'}"
    if got is None and req.check is not None:
        try:
            reason = req.check(doc)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            reason = f"malformed output: {exc!r}"
        if reason:
            return "wrong_output", reason
    ref = reference.get(req.key)
    if ref is not None and ref != digest(text):
        return ("wrong_error" if got else "wrong_output"), "differs from the reference digest"
    return "pass", ""


def _covers_check(shape: P.Shape, expected: list[list[int]]):
    want = [set(fam) for fam in expected]

    def check(doc):
        got = P.covers_of_doc(shape, doc)
        for p in range(shape.n):
            if got[p] != want[p]:
                return f"covers of {shape.labels[p]} differ from the closed form"
        return None

    return check


def _subset_names(shape: P.Shape, mask: int) -> str:
    return ",".join(shape.names(mask))


def _random_subset(rng: random.Random, n: int, size: int) -> int:
    return sum(1 << i for i in rng.sample(range(n), size))


def _generators(rng: random.Random, shape: P.Shape) -> int:
    """A third of the elements, never a greatest one.

    A greatest element in X cuts every cover family down to the maximal
    sieve, which would make the variants of one slot unequal in cost.
    """
    top = (1 << shape.n) - 1
    among = [i for i in range(shape.n) if shape.down[i] != top]
    return sum(1 << i for i in rng.sample(among, max(1, shape.n // 3)))


# -- presentations ------------------------------------------------------------

PRESENTATION_RUNGS = (
    P.grid(3, 5),  # 56 down-sets
    P.antichain(6),  # 64
    P.grid(4, 4),  # 70
    P.grid(3, 7),  # 120
    P.grid(4, 5),  # 126
    P.antichain(7),  # 128
    P.fence(10),  # 144
    P.grid(4, 6),  # 210
    P.fence(11),  # 233
    P.grid(5, 5),  # 252
    P.antichain(8),  # 256
    P.fence(12),  # 377
    P.antichain(13),  # 8192, above the seed's law-check cap
)
PRESENTATION_VARIANTS = 4
KINDS = ("nucleus", "congruence", "sublocale")
CORRUPT_CODES = {
    "nucleus": "NotANucleusError",
    "congruence": "NotACongruenceError",
    "sublocale": "NotASublocaleError",
}


def _corrupt_nucleus(rng, frame, table):
    a = rng.choice([i for i, d in enumerate(frame) if d])
    bad = list(table)
    bad[a] = rng.choice([i for i, d in enumerate(frame) if frame[a] & ~d])
    return bad


def _corrupt_congruence(rng, frame, classes):
    """Split off a member strictly inside its class.

    With b and t the least and greatest members of the class, b ~ t forces
    b | a ~ t | a, that is a ~ t, so the split partition is no congruence.
    """
    cls = rng.choice([c for c in classes if len(c) >= 3])
    low = high = frame[cls[0]]
    for i in cls:
        low &= frame[i]
        high |= frame[i]
    a = rng.choice([i for i in cls if frame[i] not in (low, high)])
    return [c for c in classes if c is not cls] + [[i for i in cls if i != a], [a]]


def _corrupt_sublocale(rng, frame, members):
    """Drop a member that is the meet of two other members, else the top."""
    masks = [frame[m] for m in members]
    meets = set()
    for i, a in enumerate(masks):
        for b in masks[i + 1:]:
            if a & b not in (a, b):
                meets.add(a & b)
    droppable = [m for m in members if frame[m] in meets]
    drop = rng.choice(droppable) if droppable else len(frame) - 1
    return [m for m in members if m != drop]


def presentations(lib, inputs: Inputs) -> Workload:
    rng = random.Random(POOL_SEED)
    pool: dict[str, Request] = {}
    slots: list[list[str]] = []
    for shape in PRESENTATION_RUNGS:
        frame = shape.downsets()
        known = "accepted_above_LAW_CHECK_CAP" if len(frame) > SEED_LAW_CHECK_CAP else None
        poset_file = inputs.write(f"{shape.name}.poset.json", shape.text())
        head = json.dumps(P.frame_doc(shape, frame))[:-1]  # the frame listing, left open
        listing = [shape.names(d) for d in frame]
        direction_slots = {f"{way}.{kind}": [] for way in ("forward", "reverse") for kind in KINDS}
        corrupt_slot: list[str] = []
        subsets: list[int] = []
        while len(subsets) < PRESENTATION_VARIANTS:
            x = _random_subset(rng, shape.n, (shape.n + 1) // 2)
            if x not in subsets and any(len(c) >= 3 for c in P.subset_classes(frame, x)):
                subsets.append(x)
        for v, x in enumerate(subsets):
            tag = f"{shape.name}/x{v}"
            covers = P.subset_covers(shape, x)
            table = P.subset_nucleus(shape, frame, x)
            classes = P.subset_classes(frame, x)
            fixed = [i for i, t in enumerate(table) if i == t]
            body = {
                "nucleus": ("pairs", _pairs(table)),
                "congruence": ("classes", classes),
                "sublocale": ("members", fixed),
            }
            topo_file = inputs.write(f"{tag.replace('/', '.')}.topology.json",
                                     json.dumps(P.topology_doc(shape, covers)))
            for kind in KINDS:
                field, value = body[kind]
                key = f"{tag}/forward.{kind}"
                pool[key] = Request(
                    key, f"convert.forward.{kind}",
                    cli_call(lib, ["convert", "--poset", poset_file, "--topology", topo_file, "--to", kind]),
                    check=_presentation_check(field, value, listing),
                )
                direction_slots[f"forward.{kind}"].append(key)
                doc_file = inputs.write(f"{tag.replace('/', '.')}.{kind}.json",
                                        head + f', "{field}": {json.dumps(value)}}}')
                key = f"{tag}/reverse.{kind}"
                pool[key] = Request(
                    key, f"convert.reverse.{kind}",
                    cli_call(lib, ["convert", "--poset", poset_file, "--from", kind, "--input", doc_file]),
                    check=_covers_check(shape, covers),
                )
                direction_slots[f"reverse.{kind}"].append(key)
            corrupted = {
                "nucleus": ("pairs", _pairs(_corrupt_nucleus(rng, frame, table))),
                "congruence": ("classes", _corrupt_congruence(rng, frame, classes)),
                "sublocale": ("members", _corrupt_sublocale(rng, frame, fixed)),
            }
            for kind, (field, value) in corrupted.items():
                doc_file = inputs.write(f"{tag.replace('/', '.')}.{kind}.corrupt.json",
                                        head + f', "{field}": {json.dumps(value)}}}')
                key = f"{tag}/corrupt.{kind}"
                pool[key] = Request(
                    key, f"convert.corrupt.{kind}",
                    cli_call(lib, ["convert", "--poset", poset_file, "--from", kind, "--input", doc_file]),
                    expect=CORRUPT_CODES[kind],
                    known_failure=known,
                )
                corrupt_slot.append(key)
        slots.extend(direction_slots.values())
        slots.append(corrupt_slot)
    return Workload(pool, slots)


def _pairs(table):
    return [[i, t] for i, t in enumerate(table)]


def _presentation_check(field, value, listing):
    def check(doc):
        if doc.get("downsets") != listing:
            return "frame listing differs from the poset's down-sets"
        if doc.get(field) != value:
            return f"{field} differ from the subset closed form"
        return None

    return check


# -- topologies -----------------------------------------------------------------

TOPOLOGY_POSETS = (
    P.grid(4, 4), P.grid(4, 5), P.grid(5, 5),
    P.fan(6), P.fan(8), P.fan(10),
    P.chain(12), P.chain(25), P.fence(16), P.fence(25),
)
LATTICE_POSETS = (P.grid(4, 4), P.grid(4, 5), P.grid(5, 5), P.fan(6), P.fan(8), P.chain(25), P.fence(25))
DENSE_SUBSET_POSETS = (P.grid(4, 4), P.grid(5, 5), P.fan(8), P.chain(25), P.fence(16))
ENUMERATE_POSETS = (
    P.chain(5), P.chain(6), P.fence(5), P.fence(6), P.antichain(5), P.antichain(6),
    P.fan(3), P.fan(4), P.grid(2, 3),
)
CANONICAL_POSETS = (
    P.grid(3, 4), P.grid(2, 6), P.chain(12), P.fence(12), P.fan(11), P.antichain(12),
    P.grid(2, 5), P.fence(10), P.fan(9), P.grid(3, 3), P.antichain(10),
)
CENSUS_POSETS = (
    P.chain(4), P.chain(5), P.chain(6), P.fence(4), P.fence(5), P.fan(3), P.grid(2, 3),
    P.antichain(4), P.catalog_shape("V"), P.catalog_shape("diamond"),
    P.antichain(5), P.fence(6),  # more than 20 down-sets: refused at the seed
)
TOPOLOGY_VARIANTS = 6


def _directed(shape: P.Shape) -> bool:
    """Downwards directed; for a finite poset, the same as having a least element."""
    return any(all(shape.leq(b, q) for q in range(shape.n)) for b in range(shape.n))


def _corrupt_covers(rng, shape, x, covers):
    """Remove one cover that strictly contains the least cover of its element.

    Cover families of a topology are upward closed, so the result is no
    topology; without such a cover, remove a maximal sieve instead.
    """
    options = []
    for p in range(shape.n):
        least = shape.closure(x & shape.down[p])
        options += [(p, s) for s in covers[p] if s != least and s != shape.down[p]]
    if options:
        p, s = rng.choice(options)
    else:
        p = rng.randrange(shape.n)
        s = shape.down[p]
    return [[t for t in fam if not (q == p and t == s)] for q, fam in enumerate(covers)]


def _subcanonical_check(shape, x):
    want = sorted(P.subcanonical_witness_pairs(shape, x))

    def check(doc):
        got = sorted((shape.labels.index(w["representable"]), shape.labels.index(w["q"]))
                     for w in doc["witnesses"])
        if doc["subcanonical"] != (not want) or got != want:
            return "subcanonicity witnesses differ from the closed form"
        return None

    return check


def _census_check(shape):
    def check(doc):
        if doc["count"] != 2 ** shape.n or len(doc["topologies"]) != 2 ** shape.n:
            return f"found {doc['count']} topologies, expected 2^{shape.n}"
        gens = {frozenset(t["generated_by"]) for t in doc["topologies"]}
        if len(gens) != 2 ** shape.n:
            return "topologies are not generated by distinct subsets"
        return None

    return check


def _diagram_check(shape):
    def check(doc):
        if doc["topology_count"] != 2 ** shape.n or not doc["ok"]:
            return "conversion diagram census failed"
        return None

    return check


def _canonical_check(shape):
    def check(doc):
        minimal = [shape.mask(m) for m in doc["minimal_subsets"]]
        for m in minimal:
            if not P.is_subcanonical_subset(shape, m):
                return "a reported generator is not subcanonical"
            if any(P.is_subcanonical_subset(shape, m & ~(1 << i)) for i in P.members(m)):
                return "a reported generator is not minimal"
        if doc["unique"] != (len(minimal) == 1):
            return "uniqueness flag is wrong"
        return None

    return check


def topologies(lib, inputs: Inputs) -> Workload:
    rng = random.Random(POOL_SEED + 1)
    pool: dict[str, Request] = {}
    slots: list[list[str]] = []

    def add(slot: list[str], req: Request) -> None:
        pool[req.key] = req
        slot.append(req.key)

    def parse(shape):
        return lib.poset.FinitePoset.from_json(shape.doc())

    def subsets(shape, count=TOPOLOGY_VARIANTS):
        return [_generators(rng, shape) for _ in range(count)]

    files = {}
    for shape in {s.name: s for s in TOPOLOGY_POSETS + ENUMERATE_POSETS + CENSUS_POSETS}.values():
        files[shape.name] = inputs.write(f"{shape.name}.poset.json", shape.text())

    for shape in TOPOLOGY_POSETS:
        pf = files[shape.name]
        fixed = {"dense": P.dense_covers(shape)}
        if _directed(shape):
            fixed["atomic"] = [[s for s in fam if s] for fam in P.subset_covers(shape, 0)]
        for kind, covers in fixed.items():
            add(slot := [], Request(f"{shape.name}/{kind}", f"topology.{kind}",
                                    cli_call(lib, ["topology", "--poset", pf, "--kind", kind]),
                                    check=_covers_check(shape, covers)))
            slots.append(slot)
        kinds = ["subset", "lx", "subcanonical.valid", "subcanonical.corrupt"]
        if _directed(shape):
            kinds.append("derived")
        by_kind = {k: [] for k in kinds}
        for v, x in enumerate(subsets(shape)):
            tag = f"{shape.name}/x{v}"
            names = _subset_names(shape, x)
            covers = P.subset_covers(shape, x)
            add(by_kind["subset"], Request(f"{tag}/subset", "topology.subset",
                                           cli_call(lib, ["topology", "--poset", pf, "--subset", names]),
                                           check=_covers_check(shape, covers)))
            add(by_kind["lx"], Request(f"{tag}/lx", "topology.lx",
                                       cli_call(lib, ["topology", "--poset", pf, "--lx", names]),
                                       check=_covers_check(shape, P.lx_covers(shape, x))))
            if "derived" in by_kind:
                derived = [[s for s in fam if s] for fam in covers]
                add(by_kind["derived"], Request(f"{tag}/derived", "topology.derived",
                                                cli_call(lib, ["topology", "--poset", pf, "--derived", names]),
                                                check=_covers_check(shape, derived)))
            tf = inputs.write(f"{tag.replace('/', '.')}.topology.json",
                              json.dumps(P.topology_doc(shape, covers)))
            add(by_kind["subcanonical.valid"], Request(
                f"{tag}/subcanonical", "subcanonical.valid",
                cli_call(lib, ["subcanonical", "--poset", pf, "--topology", tf]),
                check=_subcanonical_check(shape, x)))
            bad = inputs.write(f"{tag.replace('/', '.')}.topology.corrupt.json",
                               json.dumps(P.topology_doc(shape, _corrupt_covers(rng, shape, x, covers))))
            add(by_kind["subcanonical.corrupt"], Request(
                f"{tag}/subcanonical.corrupt", "subcanonical.corrupt",
                cli_call(lib, ["subcanonical", "--poset", pf, "--topology", bad]),
                expect="AxiomViolation"))
        slots.extend(by_kind.values())

    for shape in ENUMERATE_POSETS:
        add(slot := [], Request(f"{shape.name}/enumerate", "enumerate",
                                cli_call(lib, ["enumerate", "--poset", files[shape.name], "--cap", "6"]),
                                check=_census_check(shape)))
        slots.append(slot)

    for shape in LATTICE_POSETS:
        meets, joins = [], []
        for v in range(TOPOLOGY_VARIANTS):
            x, y = subsets(shape, 2)

            def pair(shape=shape, x=x, y=y):
                poset = parse(shape)
                j = lib.sites.subset_topology(poset, frozenset(P.members(x)))
                k = lib.sites.subset_topology(poset, frozenset(P.members(y)))
                return j, k

            add(meets, Request(f"{shape.name}/v{v}/meet", "lib.meet",
                               lib_call(lib, lambda pair=pair: lib.sites.meet(*pair()).to_json()),
                               check=_covers_check(shape, P.subset_covers(shape, x | y))))
            add(joins, Request(f"{shape.name}/v{v}/join", "lib.join",
                               lib_call(lib, lambda pair=pair: lib.sites.join(*pair()).to_json()),
                               check=_covers_check(shape, P.subset_covers(shape, x & y))))
        slots += [meets, joins]

    for shape in DENSE_SUBSET_POSETS:
        restricts, extends = [], []
        for v, x in enumerate(subsets(shape)):
            d = x | _random_subset(rng, shape.n, shape.n // 3)
            sub = P.induced(shape, d)
            x_in_d = P.restrict_mask(x, d)

            def restrict(shape=shape, x=x, d=d):
                poset = parse(shape)
                topology = lib.sites.subset_topology(poset, frozenset(P.members(x)))
                return lib.sites.restrict_topology(poset, topology, P.members(d)).to_json()

            def extend(shape=shape, d=d, x_in_d=x_in_d):
                poset = parse(shape)
                inner = lib.sites.subset_topology(poset.induced(P.members(d)), frozenset(P.members(x_in_d)))
                return lib.sites.extend_topology(poset, P.members(d), inner).to_json()

            add(restricts, Request(f"{shape.name}/v{v}/restrict", "lib.restrict", lib_call(lib, restrict),
                                   check=_covers_check(sub, P.subset_covers(sub, x_in_d))))
            add(extends, Request(f"{shape.name}/v{v}/extend", "lib.extend", lib_call(lib, extend),
                                 check=_covers_check(shape, P.subset_covers(shape, x))))
        slots += [restricts, extends]

    for shape in CANONICAL_POSETS:
        def canonical(shape=shape):
            poset = parse(shape)
            report = lib.sites.canonical_subset_report(poset)
            return {
                "minimal_subsets": [[poset.labels[i] for i in sorted(m)] for m in report.minimal_subsets],
                "unique": report.unique,
            }

        add(slot := [], Request(f"{shape.name}/canonical", "lib.canonical", lib_call(lib, canonical),
                                check=_canonical_check(shape)))
        slots.append(slot)

    for shape in CENSUS_POSETS:
        def diagram(shape=shape):
            report = lib.localic.verify_commuting_diagram(parse(shape), cap=6)
            return {"topology_count": report.topology_count, "failures": list(report.failures), "ok": report.ok}

        refused = len(shape.downsets()) > SEED_COMPLETENESS_GUARD
        add(slot := [], Request(f"{shape.name}/diagram", "lib.diagram", lib_call(lib, diagram),
                                check=_diagram_check(shape),
                                known_failure="COMPLETENESS_GUARD_refusal" if refused else None))
        slots.append(slot)
    return Workload(pool, slots)


# -- sheaves --------------------------------------------------------------------

SHEAF_POSETS = (
    P.grid(3, 3), P.grid(3, 4), P.grid(4, 4),
    P.fan(4), P.fan(6), P.fan(8),
    P.chain(8), P.chain(12), P.chain(16),
)
SHEAF_VARIANTS = 4
CENSUS_CATALOG = ("V", "Lambda", "chain3")
COMPARISON_CASES = (("chain3", 0b011), ("chain3", 0b001), ("V", 0b110), ("Lambda", 0b001),
                    ("diamond", 0b0001), ("diamond", 0b0110), ("chain4", 0b0101))
KX_CASES = (("chain2", 0b01), ("chain3", 0b010), ("chain3", 0b101), ("Lambda", 0b010),
            ("Lambda", 0b001), ("diamond", 0b0010), ("diamond", 0b0001), ("diamond", 0b0110))


def presheaf_doc(shape: P.Shape, rng: random.Random, k: int, x: int, sheafy: bool) -> dict:
    """A quotient of the constant presheaf on k values.

    Each element p draws a labelling of the k values; the value set at p is
    the common refinement of the labellings of everything below p, so
    restriction along q <= p is well defined and functorial.  ``sheafy``
    keeps the labellings of elements outside X trivial, which makes the
    presheaf separated for the topology generated by X and often a sheaf;
    otherwise most draws fail at an early witness.
    """
    labelling = [
        [0] * k if sheafy and not x >> p & 1 else [rng.randrange(k) for _ in range(k)]
        for p in range(shape.n)
    ]
    parts = []
    for p in range(shape.n):
        index: dict[tuple, int] = {}
        below = P.members(shape.down[p])
        parts.append([index.setdefault(tuple(labelling[q][g] for q in below), len(index)) for g in range(k)])
    maps = {}
    for p in range(shape.n):
        for q in P.members(shape.down[p] & ~(1 << p)):
            table = [0] * (max(parts[p]) + 1)
            for g in range(k):
                table[parts[p][g]] = parts[q][g]
            maps[f"{shape.labels[q]}<={shape.labels[p]}"] = table
    values = {shape.labels[p]: max(parts[p]) + 1 for p in range(shape.n)}
    return {"poset": shape.doc(), "values": values, "maps": maps}


def _ok_check(doc):
    return None if doc.get("ok") is True else "the certifying report is not ok"


def sheaves(lib, inputs: Inputs) -> Workload:
    rng = random.Random(POOL_SEED + 2)
    pool: dict[str, Request] = {}
    slots: list[list[str]] = []

    def add(slot: list[str], req: Request) -> None:
        pool[req.key] = req
        slot.append(req.key)

    def parse(shape):
        return lib.poset.FinitePoset.from_json(shape.doc())

    for shape in SHEAF_POSETS:
        pf = inputs.write(f"{shape.name}.poset.json", shape.text())
        dense = inputs.write(f"{shape.name}.dense.json", json.dumps(P.topology_doc(shape, P.dense_covers(shape))))
        variants = {}
        for v in range(SHEAF_VARIANTS):
            x = _generators(rng, shape)
            tf = inputs.write(f"{shape.name}.x{v}.topology.json",
                              json.dumps(P.topology_doc(shape, P.subset_covers(shape, x))))
            variants[v] = (x, tf)
        for topology in ("dense", "subset"):
            for k in (2, 3, 4):
                for sheafy in (True, False):
                    slot: list[str] = []
                    for v, (x, tf) in variants.items():
                        tag = f"{shape.name}/{topology}/k{k}/{'sheafy' if sheafy else 'any'}/v{v}"
                        hf = inputs.write(tag.replace("/", ".") + ".presheaf.json",
                                          json.dumps(presheaf_doc(shape, rng, k, x, sheafy)))
                        add(slot, Request(tag, "sheaf.check", cli_call(lib, [
                            "sheaf", "check", "--poset", pf,
                            "--topology", dense if topology == "dense" else tf, "--presheaf", hf])))
                    slots.append(slot)

    for name in CENSUS_CATALOG:
        shape = P.catalog_shape(name)
        slot = []
        for x in range(1, 1 << shape.n):
            def census(shape=shape, x=x):
                poset = parse(shape)
                topology = lib.sites.subset_topology(poset, frozenset(P.members(x)))
                family = lib.sheaves.enumerate_presheaves(poset, 3, max_elements=poset.n, max_value_cap=3)
                verdicts = "".join("1" if lib.sheaves.is_sheaf(f, topology).ok else "0" for f in family)
                return {"presheaves": len(family), "sheaves": verdicts.count("1"), "verdicts": verdicts}

            add(slot, Request(f"{name}/x{x}/census", "lib.census", lib_call(lib, census)))
        slots.append(slot)

    for name, d in COMPARISON_CASES:
        shape = P.catalog_shape(name)
        slot = []
        for x in range(1, 1 << shape.n):
            if x & ~d:
                continue

            def comparison(shape=shape, x=x, d=d):
                poset = parse(shape)
                topology = lib.sites.subset_topology(poset, frozenset(P.members(x)))
                return plain(lib.sheaves.comparison_check(poset, P.members(d), topology))

            add(slot, Request(f"{name}/d{d}/x{x}/comparison", "lib.comparison", lib_call(lib, comparison),
                              check=_ok_check))
        slots.append(slot)

    for name, s in KX_CASES:
        shape = P.catalog_shape(name)

        def kx(shape=shape, s=s):
            return plain(lib.sheaves.kx_sheaf_equivalence_check(parse(shape), P.members(s)))

        add(slot := [], Request(f"{name}/s{s}/kx", "lib.kx", lib_call(lib, kx), check=_ok_check))
        slots.append(slot)
    return Workload(pool, slots)


WORKLOADS = {"presentations": presentations, "topologies": topologies, "sheaves": sheaves}

# Every request kind each workload must contain; the self-checks hold the
# pools to this list.
KINDS_BY_WORKLOAD = {
    "presentations": [f"convert.{way}.{k}" for way in ("forward", "reverse", "corrupt") for k in KINDS],
    "topologies": [
        "topology.subset", "topology.dense", "topology.atomic", "topology.derived", "topology.lx",
        "subcanonical.valid", "subcanonical.corrupt", "enumerate",
        "lib.meet", "lib.join", "lib.restrict", "lib.extend", "lib.canonical", "lib.diagram",
    ],
    "sheaves": ["sheaf.check", "lib.census", "lib.comparison", "lib.kx"],
}
