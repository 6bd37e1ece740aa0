"""The public names of ``sitecalc``, pinned, so that a change to the surface
is a deliberate edit of this list; and the frozenset layer, the constant
predicates, the set fixpoint of the order relation, the frame quotient, the
second presheaf reader, the all-pairs naturality scan and the subcanonicity
entry points that a closed form answers, the pair check and amalgamation
search beside the matching-family kernel, the error only that search
raised, the error of a lawful presentation that no subset generates,
which the normal form rules out, the helpers that built or checked a
frame handed in beside its poset, and the frame's copy of its poset's
principal masks, all of which left the library and must resolve nowhere,
in the code or in the README; ``sheaves`` reads the order
through masks only; the readers find labels in the poset's one label
table; and no module imports a name it does not use.

The options of the surface are pinned too: ``OPTIONS`` maps each public
callable with defaulted parameters, an exported callable or a public method
of an exported class, to the names of those parameters, so adding an option
is as deliberate an edit as adding a name.  The keyword fields of the error
types are the witness of their envelope, not options, and are left out.
``enumerate_presheaves`` keeps ``max_elements`` and ``max_value_cap``,
although every caller in the library sets them to switch its guard off,
because the benchmark's workloads pass them (ROADMAP items 6 and 11)."""

import ast
import inspect
import re
import types
from pathlib import Path

import pytest

import sitecalc
from sitecalc import cli, errors, localic, poset, sheaves, sites

PUBLIC = (
    "ALIASES", "AxiomViolation", "BasePointError", "CATALOG_NAMES", "Congruence",
    "CycleError", "DownSetFrame", "DuplicateElementError", "FinitePoset", "FrameMap",
    "FrameTooLargeError", "FunctorialityError", "GrothTopology", "InvalidInnerTopologyError",
    "NotACongruenceError", "NotAFrameMorphismError", "NotANucleusError", "NotASublocaleError",
    "NotDenseError", "NotDownwardsDirectedError", "NotOrderIsomorphismError",
    "NotOrderMorphismError", "NotSurjectiveError", "Nucleus",
    "OrderMorphism", "ParseError", "PosetMismatchError", "Presheaf", "SiteCalcError",
    "Sublocale", "TooLargeError", "TooLargeForBruteForceError", "adjoin_zero",
    "adjoint_transfer_consistent", "all_order_isomorphisms", "all_order_morphisms",
    "atomic_topology", "canonical_subset_report",
    "catalog", "catalog_poset", "choose_base_point", "comparison_check",
    "congruence_from_nucleus", "congruence_from_topology", "dense_topology",
    "derived_topology", "discrete_topology", "enumerate_all_topologies", "enumerate_downsets",
    "enumerate_presheaves", "export_dot", "extend_presheaf", "extend_topology",
    "heyting_implication", "homomorphism_factorization", "indiscrete_topology", "is_sheaf",
    "is_site_isomorphism", "is_subcanonical", "join", "kx_sheaf_equivalence_check",
    "lx_topology", "lxy_topology", "matching_families", "meet", "mx_frame_isomorphism",
    "natural_iso_exists", "nucleus_from_congruence", "nucleus_from_sublocale",
    "nucleus_from_topology", "parse_poset",
    "restrict_presheaf", "restrict_topology", "restriction_frame_map",
    "site_morphism_report", "subcanonicity_report", "sublocale_from_nucleus",
    "sublocale_from_topology", "subset_forms", "subset_of_labels",
    "subset_topology", "topology_from_congruence",
    "topology_from_nucleus", "topology_from_sublocale", "topology_leq", "upper_adjoint",
    "validate_topology", "verify_commuting_diagram", "yoneda_presheaf",
)

REMOVED = (
    "sieves_on", "upper_bounds", "lower_bounds", "dm_closure", "dm_completion", "negation",
    "double_negation", "double_negation_nucleus", "extract_subset", "is_complete",
    "nucleus_is_complete", "congruence_is_complete", "_close_relation", "_implication_masks",
    "_nucleus_subset", "_congruence_subset", "_is_id", "quotient_frame", "QuotientFrame",
    "_read_in_bulk", "naturality_failure", "representable_is_sheaf",
    "subset_subcanonicity_witnesses", "canonical_constructors",
    "amalgamations", "matching_violation", "_extend_families", "NotMatchingError",
    "_Closures", "_closure_of", "_downset_counter", "NotSubsetGeneratedError",
    "frame_for_json", "_topology_frame", "_shared_below",
)

OPTIONS = {
    "Congruence.from_json": ("poset",),
    "FinitePoset": ("pairs",),
    "FinitePoset.is_downwards_directed": ("subset",),
    "FinitePoset.minimal_elements": ("subset",),
    "GrothTopology.from_json": ("poset",),
    "Nucleus.from_json": ("poset",),
    "Presheaf.from_json": ("poset",),
    "Sublocale.from_json": ("poset",),
    "comparison_check": ("base_presheaves", "value_cap"),
    "enumerate_all_topologies": ("cap",),
    "enumerate_presheaves": ("value_cap", "max_elements", "max_value_cap"),
    "kx_sheaf_equivalence_check": ("value_cap",),
    "verify_commuting_diagram": ("cap",),
}

REMOVED_ATTRIBUTES = (
    (poset.DownSetFrame, "downsets"),
    (poset.DownSetFrame, "index"),
    (poset.DownSetFrame, "__iter__"),
    (poset.DownSetFrame, "_downsets"),
    (poset.DownSetFrame, "_index"),
    (poset.DownSetFrame, "_trusted"),
    (poset.DownSetFrame, "_fill"),
    (poset.DownSetFrame, "principal"),
    (poset.FrameMap, "apply"),
    (localic.Nucleus, "apply"),
    (localic.FactorizationWitness, "quotient"),
    (poset.FinitePoset, "up"),
    (poset.FinitePoset, "down"),
    (poset.FinitePoset, "_up_sets"),
    (poset.FinitePoset, "_down_sets"),
    (poset._LabelRows, "bits"),
    (localic.Congruence, "_build"),
    (sites.GrothTopology, "_from_json"),
    (sheaves.Presheaf, "value"),
)

README = Path(__file__).resolve().parent.parent / "README.md"
SHEAVES = Path(sheaves.__file__)
LABEL_READERS = [Path(m.__file__) for m in (sites, sheaves, localic, cli)]
MODULES = sorted(p for p in Path(sitecalc.__file__).parent.glob("*.py") if p.name != "__init__.py")


def test_public_names_are_pinned():
    names = sorted(
        name
        for name in dir(sitecalc)
        if not name.startswith("_") and not isinstance(getattr(sitecalc, name), types.ModuleType)
    )
    assert names == sorted(PUBLIC)


def _options(obj) -> tuple[str, ...]:
    """The names of the parameters of ``obj`` that have a default."""
    params = inspect.signature(obj).parameters.values()
    return tuple(p.name for p in params if p.default is not p.empty)


def test_options_are_pinned():
    found = {}
    for name in PUBLIC:
        obj = getattr(sitecalc, name)
        if not callable(obj) or isinstance(obj, type) and issubclass(obj, Exception):
            continue
        members = [(name, obj)]
        if isinstance(obj, type):
            members += [
                (f"{name}.{attr}", getattr(obj, attr))
                for attr in dir(obj)
                if not attr.startswith("_") and callable(getattr(obj, attr))
            ]
        for label, member in members:
            options = _options(member)
            if options:
                found[label] = options
    assert found == OPTIONS


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_resolve_nowhere(name):
    for module in (sitecalc, errors, poset, sites, localic, sheaves):
        assert not hasattr(module, name), (module.__name__, name)


@pytest.mark.parametrize("owner, name", REMOVED_ATTRIBUTES, ids=lambda x: getattr(x, "__name__", x))
def test_removed_views_resolve_nowhere(owner, name):
    assert not hasattr(owner, name)


def test_readme_names_no_removed_entry():
    """No public entry of ``REMOVED`` is a whole word of a code span of the
    README, inline or fenced; prose may still say "negation"."""
    text = README.read_text(encoding="utf-8")
    fenced = re.findall(r"```.*?```", text, re.S)
    inline = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    code = "\n".join(fenced + inline)
    named = [n for n in REMOVED if not n.startswith("_") and re.search(rf"\b{n}\b", code)]
    assert named == []


def test_sheaves_read_the_order_through_masks_only():
    source = SHEAVES.read_text(encoding="utf-8")
    assert [call for call in (".leq(", ".lt(", ".up(", ".down(") if call in source] == []


@pytest.mark.parametrize("path", LABEL_READERS, ids=lambda p: p.name)
def test_labels_are_looked_up_in_the_posets_one_table(path):
    """Every label from outside is found through the poset's own table, by
    ``index_of`` or ``_label_bits``, never by a search or a table of the
    reader's own."""
    source = path.read_text(encoding="utf-8")
    built = ("labels.index(", "{label: i for i, label in enumerate(")
    assert [text for text in built if text in source] == []


def _names_used(tree: ast.Module) -> set[str]:
    """Every name a module reads, those of quoted annotations included."""
    nodes = list(ast.walk(tree))
    notes = [getattr(node, field, None) for node in nodes for field in ("annotation", "returns")]
    for note in notes:
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            nodes += ast.walk(ast.parse(note.value, mode="eval"))
    return {node.id for node in nodes if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_modules_import_no_unused_name(path):
    """A module of the library, ``__init__`` aside, which re-exports, uses
    every name it imports."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    assert sorted(imported - _names_used(tree)) == []
