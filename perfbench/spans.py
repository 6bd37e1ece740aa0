"""Spans and counters around the library's layers, for the traced run.

The tracer replaces every public function and method of the layer modules
where it is bound: module attributes (including names a module imported
from another layer) and the methods of classes defined there.  Calls made
inside the library therefore pass through the wrappers too, for example
``sites`` calling ``find_axiom_violation`` or ``sieves_on``.  A span is
named ``<layer>.<qualname>`` after the module that defines the function.

Each span records its name, start, end, parent span and request index.
Calls of the hot kernels in ``AGGREGATED`` are timed and counted but keep
no record of their own, so memory stays bounded; the first ``MAX_SPANS``
records are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import time
import types
from collections import Counter, defaultdict

LAYERS = ("poset", "sites", "localic", "sheaves", "cli")
MAX_SPANS = 200_000

# O(1) accessors that inner loops call millions of times: not wrapped, so
# their cost stays in the caller's self time.  Poset and frame to_json are
# charged to the document that embeds them.
UNTRACED = frozenset({
    "poset.FinitePoset.leq", "poset.FinitePoset.lt", "poset.FinitePoset.up",
    "poset.FinitePoset.down", "poset.FinitePoset.label", "poset.FinitePoset.to_json",
    "poset.DownSetFrame.downset", "poset.DownSetFrame.to_json", "poset.FrameMap.apply_id",
    "poset.OrderMorphism.__call__", "sheaves.Presheaf.restriction", "sheaves.Presheaf.value",
    "sheaves.MatchingFamily.value_at", "localic.Congruence.related", "localic.Nucleus.apply_id",
})

# Traced for time and calls, without span records.
AGGREGATED = frozenset({
    "poset.DownSetFrame.meet", "poset.DownSetFrame.join", "poset.DownSetFrame.heyting",
    "poset.DownSetFrame.id_of", "poset.DownSetFrame.meet_all", "poset.DownSetFrame.join_all",
    "poset.heyting_implication", "poset.negation", "poset.double_negation", "poset.sieves_on",
    "poset.FinitePoset.down_closure", "poset.FinitePoset.up_closure", "poset.FinitePoset.index_of",
    "sites.GrothTopology.is_cover", "sites.GrothTopology.covers_on",
    "sheaves.matching_families", "sheaves.amalgamations", "sheaves.matching_violation",
    "sheaves.natural_iso_exists", "sheaves.Presheaf.__init__",
})

# Private methods traced because a metric counts them.
PRIVATE = frozenset({"_check_laws"})

# Self time of these spans makes up each ``_s`` metric.
SELF_TIME = {
    "poset.parse_s": ["poset.FinitePoset.from_json", "poset.parse_poset", "poset.FinitePoset.__init__"],
    "poset.frame_build_s": ["poset.enumerate_downsets"],
    "poset.sieves_s": ["poset.sieves_on"],
    "poset.frame_op_s": [
        "poset.DownSetFrame.meet", "poset.DownSetFrame.join", "poset.DownSetFrame.heyting",
        "poset.DownSetFrame.id_of", "poset.DownSetFrame.meet_all", "poset.DownSetFrame.join_all",
    ],
    "sites.construct_s": [
        "sites.subset_topology", "sites.indiscrete_topology", "sites.discrete_topology",
        "sites.atomic_topology", "sites.dense_topology", "sites.derived_topology",
        "sites.lx_topology", "sites.lxy_topology", "sites.GrothTopology.__init__",
        "sites.GrothTopology.from_json", "sites.restrict_topology", "sites.extend_topology",
        "sites.generating_subset", "sites.canonical_constructors", "sites.dense_violation",
    ],
    "sites.validate_s": ["sites.validate_topology", "sites.find_axiom_violation"],
    "sites.lattice_s": ["sites.meet", "sites.join", "sites.topology_leq", "sites.is_complete"],
    "sites.enumerate_s": ["sites.enumerate_all_topologies"],
    "sites.canonical_s": ["sites.canonical_subset_report", "sites.subset_subcanonicity_witnesses"],
    "sites.to_json_s": ["sites.GrothTopology.to_json", "sites.GrothTopology.covers_on"],
    "localic.convert_s": [
        "localic.nucleus_from_topology", "localic.topology_from_nucleus",
        "localic.congruence_from_nucleus", "localic.nucleus_from_congruence",
        "localic.sublocale_from_nucleus", "localic.nucleus_from_sublocale",
        "localic.congruence_from_topology", "localic.topology_from_congruence",
        "localic.sublocale_from_topology", "localic.topology_from_sublocale",
        "localic.subset_forms", "localic.extract_subset", "localic.frame_for_json",
        "localic.Congruence.from_key", "localic.Nucleus.from_json",
        "localic.Congruence.from_json", "localic.Sublocale.from_json",
    ],
    "localic.law_check_s": [
        "localic.Nucleus.__init__", "localic.Congruence.__init__", "localic.Sublocale.__init__",
        "localic.Nucleus._check_laws", "localic.Congruence._check_laws", "localic.Sublocale._check_laws",
    ],
    "localic.diagram_s": [
        "localic.verify_commuting_diagram", "localic.nucleus_is_complete", "localic.congruence_is_complete",
    ],
    "localic.to_json_s": ["localic.Nucleus.to_json", "localic.Congruence.to_json", "localic.Sublocale.to_json"],
    "sheaves.is_sheaf_s": [
        "sheaves.is_sheaf", "sheaves.matching_families", "sheaves.amalgamations", "sheaves.matching_violation",
    ],
    "sheaves.presheaf_ctor_s": ["sheaves.Presheaf.__init__", "sheaves.Presheaf.from_json"],
    "sheaves.enumerate_s": ["sheaves.enumerate_presheaves"],
    "sheaves.natural_iso_s": ["sheaves.natural_iso_exists", "sheaves.iso_class_count"],
    "sheaves.comparison_s": [
        "sheaves.comparison_check", "sheaves.extend_presheaf", "sheaves.restrict_presheaf",
        "sheaves.naturality_failure", "sheaves.NaturalTransformation.__post_init__",
    ],
    "sheaves.kx_s": [
        "sheaves.kx_sheaf_equivalence_check", "sheaves.adjoin_zero", "sheaves.choose_base_point",
        "sheaves.extend_sheaf_over_bottom",
    ],
    "cli.self_s": ["cli.main", "cli.build_parser"],
}

# Call counts of these spans make up each call-count metric.
CALLS = {
    "poset.sieves_calls": ["poset.sieves_on"],
    "poset.frame_op_calls": SELF_TIME["poset.frame_op_s"],
    "poset.heyting_calls": ["poset.heyting_implication"],
    "sites.validate_calls": ["sites.find_axiom_violation"],
    "sites.subsets_tested": ["sites.subset_subcanonicity_witnesses"],
    "localic.law_checks": SELF_TIME["localic.law_check_s"][3:],
    "sheaves.is_sheaf_calls": ["sheaves.is_sheaf"],
    "sheaves.amalgamations": ["sheaves.amalgamations"],
    "sheaves.natural_iso_calls": ["sheaves.natural_iso_exists"],
}

# Counters summing the length of a span's result.
RESULT_SIZES = {
    "poset.enumerate_downsets": "poset.downsets_built",
    "sites.enumerate_all_topologies": "sites.topologies_found",
    "sheaves.enumerate_presheaves": "sheaves.presheaves_enumerated",
}


def _layer_of(obj) -> str | None:
    module = getattr(obj, "__module__", "") or ""
    layer = module.rsplit(".", 1)[-1]
    return layer if module.startswith("sitecalc.") and layer in LAYERS else None


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.dropped = 0
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()
        self.stack: list[list] = []  # [name, start, child time, record index]
        self.request = -1
        self._patches: list[tuple[object, str, object]] = []
        self._sieve_keys: set[tuple[int, int]] = set()
        self._sieve_posets: list[object] = []

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            module = getattr(self.lib, layer)
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and _layer_of(value):
                    self._patch(module, attr, value, f"{_layer_of(value)}.{value.__qualname__}")
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    self._patch_class(value, layer)

    def _patch_class(self, cls, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__", "__post_init__") and attr not in PRIVATE:
                continue
            func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            if not inspect.isfunction(func):
                continue
            name = f"{layer}.{func.__qualname__}"
            if name in UNTRACED:
                continue
            wrapped = self._wrap(func, name)
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def _patch(self, owner, attr: str, func, name: str) -> None:
        if name in UNTRACED:
            return
        self._patches.append((owner, attr, func))
        setattr(owner, attr, self._wrap(func, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- recording ----------------------------------------------------------

    def _enter(self, name: str, record: bool) -> list:
        index = -1
        if record:
            if len(self.spans) < MAX_SPANS:
                index = len(self.spans)
                parent = self.stack[-1][3] if self.stack else -1
                self.spans.append((self._name_id(name), 0.0, 0.0, parent, self.request))
            else:
                self.dropped += 1
        frame = [name, time.perf_counter(), 0.0, index]
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self.stack.pop()
        name, start, child, index = frame
        duration = end - start
        self.self_time[name] += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        if index >= 0:
            name_id, _, _, parent, request = self.spans[index]
            self.spans[index] = (name_id, start, end, parent, request)

    def _error(self, name: str, exc: BaseException) -> None:
        if isinstance(exc, self.lib.errors.SiteCalcError) and not getattr(exc, "_traced", False):
            exc._traced = True
            self.counters[name.split(".", 1)[0] + ".errors"] += 1

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, func, name: str):
        record = name not in AGGREGATED
        size_counter = RESULT_SIZES.get(name)
        sieves = name == "poset.sieves_on"
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            if sieves:
                tracer._note_sieve(*args)
            frame = tracer._enter(name, record)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                tracer._error(name, exc)
                raise
            finally:
                tracer._exit(frame)
            if size_counter:
                tracer.counters[size_counter] += len(result)
            if isinstance(result, types.GeneratorType):
                return tracer._resume(result, name)
            return result

        return wrapper

    def _resume(self, gen, name: str):
        """Time each resumption of a generator the library returned."""
        counter = name if name == "sheaves.matching_families" else None
        while True:
            frame = self._enter(name, False)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._exit(frame)
            if counter:
                self.counters[counter] += 1
            yield item

    def _note_sieve(self, poset, p) -> None:
        """Distinct (poset object, element) keys: the sieve cache's misses."""
        key = (id(poset), p)
        if key not in self._sieve_keys:
            self._sieve_keys.add(key)
            self._sieve_posets.append(poset)  # keeps ids unique within the request

    def begin_request(self, index: int) -> list:
        self.request = index
        return self._enter("request", True)

    def end_request(self, frame: list) -> None:
        self._exit(frame)
        self.counters["poset.sieves_distinct"] += len(self._sieve_keys)
        self._sieve_keys.clear()
        self._sieve_posets.clear()

    # -- reporting ------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for metric, names in SELF_TIME.items():
            out[metric] = (sum(self.self_time.get(n, 0.0) for n in names), "s")
        for metric, names in CALLS.items():
            out[metric] = (sum(self.calls.get(n, 0) for n in names), "count")
        for counter in list(RESULT_SIZES.values()) + ["poset.sieves_distinct", "sheaves.matching_families"]:
            out[counter] = (self.counters.get(counter, 0), "count")
        for layer in LAYERS:
            out[f"{layer}.errors"] = (self.counters.get(f"{layer}.errors", 0), "count")
        sites_self = sum(t for n, t in self.self_time.items() if n.startswith("sites."))
        out["sites.validate_share"] = (_share(out["sites.validate_s"][0], sites_self), "ratio")
        law, convert = out["localic.law_check_s"][0], out["localic.convert_s"][0]
        out["localic.law_check_share"] = (_share(law, law + convert), "ratio")
        return out

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": [list(s) for s in self.spans],
            "dropped_spans": self.dropped,
            "self_time_s": dict(self.self_time),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
        }


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
