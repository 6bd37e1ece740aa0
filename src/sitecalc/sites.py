"""Grothendieck topologies on finite posets.

A topology is stored as, per element ``p``, the set of cover sieves on
``p``.  On a finite poset every topology is J(X) for the subset X of
elements whose only cover is their maximal sieve: a sieve s covers p iff
X & down(p) <= s.  Validation reads X off its input, rebuilds J(X) and
accepts on a match; J(X) is always a topology, so a match is a proof.  On
a mismatch the axiom scan (maximality, stability, transitivity) runs to
find the exact witness.  The stock constructors build J(X) directly, and
meet and join validate their inputs the same way and return J of the union
and of the intersection of generating subsets.  The finest subcanonical
subset topology is J(C) for a closed-form least subset C, with no search
over subsets.

Witness searches iterate elements in index order and sieves in
sorted-member order, so reported counterexamples are deterministic; JSON
listings instead order sieves by their stable frame id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import (
    AxiomViolation,
    InvalidInnerTopologyError,
    NotDenseError,
    NotDownwardsDirectedError,
    NotOrderIsomorphismError,
    PosetMismatchError,
    TooLargeForBruteForceError,
)
from .poset import (
    FinitePoset,
    OrderMorphism,
    _char_key,
    heyting_implication,
    sieves_on,
)

DEFAULT_BRUTE_FORCE_CAP = 4


@dataclass(frozen=True)
class Sieve:
    """A down-set bounded by the principal down-set of its apex."""

    apex: int
    members: frozenset[int]


def sieve_on(poset: FinitePoset, apex: int, members: Iterable[int]) -> Sieve:
    ms = frozenset(members)
    if not ms <= poset.down(apex):
        raise AxiomViolation(
            f"{sorted(ms)} is not bounded by the down-set of {poset.labels[apex]}",
            axiom="sieve",
            p=apex,
            sieve=ms,
        )
    if poset.down_closure(ms) != ms:
        raise AxiomViolation(
            f"{sorted(ms)} is not down-closed", axiom="sieve", p=apex, sieve=ms
        )
    return Sieve(apex, ms)


def _members_key(s: frozenset[int]) -> list[int]:
    return sorted(s)


class GrothTopology:
    """Per-element families of cover sieves satisfying the site axioms."""

    __slots__ = ("poset", "covers", "_hash")

    def __init__(self, poset: FinitePoset, covers: Sequence[frozenset[frozenset[int]]]):
        self.poset = poset
        self.covers = tuple(frozenset(c) for c in covers)
        self._hash = hash((poset, self.covers))

    def covers_on(self, p: int) -> tuple[frozenset[int], ...]:
        """Covers of p sorted by stable down-set id order."""
        return tuple(sorted(self.covers[p], key=lambda s: _char_key(self.poset.n, s)))

    def is_cover(self, p: int, sieve: Iterable[int]) -> bool:
        return frozenset(sieve) in self.covers[p]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GrothTopology)
            and self.poset == other.poset
            and self.covers == other.covers
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        labels = self.poset.labels
        gens = sorted(labels[i] for i in generating_subset(self))
        return f"<GrothTopology on {list(labels)} generated_by={gens}>"

    def to_json(self) -> dict:
        labels = self.poset.labels
        return {
            "poset": self.poset.to_json(),
            "covers": {
                labels[p]: [[labels[i] for i in sorted(s)] for s in self.covers_on(p)]
                for p in range(self.poset.n)
            },
        }

    @classmethod
    def from_json(cls, doc: dict) -> "GrothTopology":
        poset = FinitePoset.from_json(doc["poset"])
        covers: list[set[frozenset[int]]] = [set() for _ in range(poset.n)]
        for label, sieves in doc["covers"].items():
            p = poset.index_of(label)
            for members in sieves:
                covers[p].add(frozenset(poset.index_of(m) for m in members))
        return validate_topology(poset, covers)


def _normalize_covers(
    poset: FinitePoset, covers: Mapping[int, Iterable] | Sequence[Iterable]
) -> list[frozenset[frozenset[int]]]:
    if isinstance(covers, Mapping):
        fams = [covers.get(p, ()) for p in range(poset.n)]
    else:
        fams = list(covers)
        if len(fams) != poset.n:
            raise AxiomViolation(
                f"{len(fams)} cover families for {poset.n} elements", axiom="sieve", p=0
            )
    return [frozenset(frozenset(s) for s in fam) for fam in fams]


def find_axiom_violation(
    poset: FinitePoset, covers: Sequence[frozenset[frozenset[int]]]
) -> AxiomViolation | None:
    """First axiom failure in deterministic witness order, or None."""
    labels = poset.labels
    for p in range(poset.n):
        dn = poset.down(p)
        for s in sorted(covers[p], key=_members_key):
            if not s <= dn or poset.down_closure(s) != s:
                return AxiomViolation(
                    f"{sorted(labels[i] for i in s)} is not a sieve on {labels[p]}",
                    axiom="sieve",
                    p=p,
                    sieve=s,
                )
    for p in range(poset.n):
        if poset.down(p) not in covers[p]:
            return AxiomViolation(
                f"maximal sieve missing from the covers of {labels[p]}",
                axiom="maximality",
                p=p,
                sieve=poset.down(p),
            )
    for p in range(poset.n):
        for s in sorted(covers[p], key=_members_key):
            for q in sorted(poset.down(p)):
                if q == p:
                    continue
                restricted = s & poset.down(q)
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
    for p in range(poset.n):
        for r in sorted(sieves_on(poset, p), key=_members_key):
            if r in covers[p]:
                continue
            for s in sorted(covers[p], key=_members_key):
                if all(r & poset.down(q) in covers[q] for q in s):
                    return AxiomViolation(
                        f"transitivity fails at ({labels[p]}, "
                        f"{sorted(labels[i] for i in s)}); "
                        f"{sorted(labels[i] for i in r)} should be a cover",
                        axiom="transitivity",
                        p=p,
                        sieve=s,
                        other=r,
                    )
    return None


def _subset_covers(poset: FinitePoset, xs: frozenset[int]) -> list[frozenset[frozenset[int]]]:
    """J(X): the covers of p are the sieves containing X & down(p)."""
    covers = []
    for p in range(poset.n):
        cut = xs & poset.down(p)
        covers.append(frozenset(s for s in sieves_on(poset, p) if cut <= s))
    return covers


def _axiom_violation(
    poset: FinitePoset, covers: Sequence[frozenset[frozenset[int]]]
) -> AxiomViolation | None:
    """None when the covers are J(X) for the X read off them, else the scan's
    verdict: the first failing axiom, or None if it finds none."""
    xs = frozenset(p for p in range(poset.n) if covers[p] == frozenset((poset.down(p),)))
    if list(covers) == _subset_covers(poset, xs):
        return None
    return find_axiom_violation(poset, covers)


def validate_topology(
    poset: FinitePoset, covers: Mapping[int, Iterable] | Sequence[Iterable]
) -> GrothTopology:
    """The validated topology, or AxiomViolation with the exact witness."""
    fams = _normalize_covers(poset, covers)
    violation = _axiom_violation(poset, fams)
    if violation is not None:
        raise violation
    return GrothTopology(poset, fams)


# -- constructors ---------------------------------------------------------


def subset_topology(poset: FinitePoset, subset: Iterable[int]) -> GrothTopology:
    """Covers of p are the sieves containing the subset cut down to p.

    Antitone in the subset: a larger generating subset gives a smaller
    topology.  A degenerate cut (empty intersection with the down-set of
    p) admits every sieve, including the empty one.
    """
    return GrothTopology(poset, _subset_covers(poset, frozenset(subset)))


def generating_subset(topology: GrothTopology) -> frozenset[int]:
    """Elements whose only cover is their maximal sieve."""
    poset = topology.poset
    return frozenset(
        p for p in range(poset.n) if topology.covers[p] == frozenset((poset.down(p),))
    )


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


def canonical_constructors(poset: FinitePoset) -> dict[str, GrothTopology]:
    """The named stock topologies; 'atomic' appears only when it is defined."""
    out = {
        "indiscrete": indiscrete_topology(poset),
        "discrete": discrete_topology(poset),
        "dense": dense_topology(poset),
    }
    if poset.is_downwards_directed():
        out["atomic"] = atomic_topology(poset)
    return out


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
    xs = frozenset(subset)
    covers = []
    for p in range(poset.n):
        fam = []
        for s in sieves_on(poset, p):
            if all(s & poset.down(x) & xs for x in xs & poset.down(p)):
                fam.append(s)
        covers.append(frozenset(fam))
    return validate_topology(poset, covers)


# -- restriction and extension along a subset inclusion -------------------


def dense_violation(poset: FinitePoset, topology: GrothTopology, subset: frozenset[int]) -> int | None:
    """First element whose generated subset-cut sieve is not a cover, else None."""
    for p in range(poset.n):
        if poset.down_closure(subset & poset.down(p)) not in topology.covers[p]:
            return p
    return None


def _sub_positions(subset: Iterable[int]) -> tuple[list[int], dict[int, int]]:
    elems = sorted(set(subset))
    return elems, {e: k for k, e in enumerate(elems)}


def restrict_topology(
    poset: FinitePoset, topology: GrothTopology, subset: Iterable[int]
) -> GrothTopology:
    """The induced topology on the subset, which must be dense for the input.

    Covers of a subset point are the intersection images of its covers.
    """
    if topology.poset != poset:
        raise PosetMismatchError("topology is not defined on the given poset")
    xs = frozenset(subset)
    bad = dense_violation(poset, topology, xs)
    if bad is not None:
        raise NotDenseError(
            f"subset is not dense: the cut sieve at {poset.labels[bad]} is not a cover",
            witness={"p": poset.labels[bad]},
        )
    elems, pos = _sub_positions(xs)
    sub = poset.induced(elems)
    covers = [
        frozenset(frozenset(pos[e] for e in s if e in pos) for s in topology.covers[x])
        for x in elems
    ]
    return validate_topology(sub, covers)


def extend_topology(
    poset: FinitePoset, subset: Iterable[int], inner: GrothTopology
) -> GrothTopology:
    """The largest topology on the whole poset restricting to ``inner``.

    A sieve covers p exactly when its cut below every subset point under p
    is an inner cover there.
    """
    elems, pos = _sub_positions(subset)
    sub = poset.induced(elems)
    if inner.poset != sub:
        raise InvalidInnerTopologyError(
            "inner topology is not defined on the induced subposet"
        )
    inner_violation = _axiom_violation(sub, inner.covers)
    if inner_violation is not None:
        raise InvalidInnerTopologyError(
            f"inner topology is invalid: {inner_violation.message}"
        )
    xs = frozenset(elems)
    covers = []
    for p in range(poset.n):
        fam = []
        for s in sieves_on(poset, p):
            ok = True
            for x in xs & poset.down(p):
                cut = frozenset(pos[e] for e in s & xs & poset.down(x))
                if not inner.is_cover(pos[x], cut):
                    ok = False
                    break
            if ok:
                fam.append(s)
        covers.append(frozenset(fam))
    return validate_topology(poset, covers)


def lxy_topology(
    poset: FinitePoset, subset: Iterable[int], inner_subset: Iterable[int]
) -> GrothTopology:
    """Extension of the derived topology of ``inner_subset`` on ``subset``."""
    xs = frozenset(subset)
    ys = frozenset(inner_subset)
    if not ys <= xs:
        raise InvalidInnerTopologyError("inner subset must lie inside the outer subset")
    if not poset.is_downwards_directed(xs):
        raise NotDownwardsDirectedError(
            "the outer subset must be downwards directed as a subposet"
        )
    elems, pos = _sub_positions(xs)
    sub = poset.induced(elems)
    inner = derived_topology(sub, frozenset(pos[y] for y in ys))
    return extend_topology(poset, xs, inner)


# -- lattice structure -----------------------------------------------------


def _require_same_poset(j: GrothTopology, k: GrothTopology) -> FinitePoset:
    if j.poset != k.poset:
        raise PosetMismatchError("topologies live on different posets")
    return j.poset


def topology_leq(j: GrothTopology, k: GrothTopology) -> bool:
    _require_same_poset(j, k)
    return all(j.covers[p] <= k.covers[p] for p in range(j.poset.n))


def _require_valid(*topologies: GrothTopology) -> None:
    """Raise the first axiom witness of an input built without validation."""
    for t in topologies:
        violation = _axiom_violation(t.poset, t.covers)
        if violation is not None:
            raise violation


def meet(j: GrothTopology, k: GrothTopology) -> GrothTopology:
    """Pointwise intersection of cover families: J of the union of the
    generating subsets, since J reverses inclusion."""
    poset = _require_same_poset(j, k)
    _require_valid(j, k)
    return subset_topology(poset, generating_subset(j) | generating_subset(k))


def join(j: GrothTopology, k: GrothTopology) -> GrothTopology:
    """Least topology above both: J of the intersection of the generating
    subsets, since J reverses inclusion."""
    poset = _require_same_poset(j, k)
    _require_valid(j, k)
    return subset_topology(poset, generating_subset(j) & generating_subset(k))


def is_complete(topology: GrothTopology) -> bool:
    """Whether each pointwise intersection of all covers is itself a cover.

    Closure of cover families under supersets reduces arbitrary
    intersections to this single one.
    """
    poset = topology.poset
    for p in range(poset.n):
        acc = poset.down(p)
        for s in topology.covers[p]:
            acc &= s
        if acc not in topology.covers[p]:
            return False
    return True


# -- exhaustive enumeration -------------------------------------------------


def _filters_of_sieves(poset: FinitePoset, p: int) -> list[frozenset[frozenset[int]]]:
    """All filters in the sieve lattice of p that contain the maximal sieve."""
    sieves = sieves_on(poset, p)
    top = poset.down(p)
    others = [s for s in sieves if s != top]
    out = []
    for bits in range(1 << len(others)):
        fam = {top} | {others[i] for i in range(len(others)) if bits >> i & 1}
        upclosed = all(
            r in fam for s in fam for r in sieves if s <= r
        )
        if not upclosed:
            continue
        if all(a & b in fam for a in fam for b in fam):
            out.append(frozenset(fam))
    out.sort(key=lambda f: sorted(_char_key(poset.n, s) for s in f))
    return out


def enumerate_all_topologies(
    poset: FinitePoset, cap: int = DEFAULT_BRUTE_FORCE_CAP
) -> tuple[GrothTopology, ...]:
    """Every topology on the poset, found by raw search over sieve filters.

    Per-element candidate families are restricted to filters of sieves
    containing the maximal sieve (a necessary condition), assigned along a
    linear extension so stability prunes early, and finally checked against
    all three axioms.
    """
    if poset.n > cap:
        raise TooLargeForBruteForceError(
            f"{poset.n} elements exceeds the brute-force cap {cap}",
            witness={"cap": cap, "n": poset.n},
        )
    order = sorted(range(poset.n), key=lambda e: (len(poset.down(e)), e))
    choices = {p: _filters_of_sieves(poset, p) for p in order}
    found: list[GrothTopology] = []
    assignment: dict[int, frozenset[frozenset[int]]] = {}

    def compatible(p: int, fam: frozenset[frozenset[int]]) -> bool:
        for q in poset.down(p):
            if q == p or q not in assignment:
                continue
            if any(s & poset.down(q) not in assignment[q] for s in fam):
                return False
        return True

    def assign(idx: int) -> None:
        if idx == len(order):
            covers = [assignment[p] for p in range(poset.n)]
            if find_axiom_violation(poset, covers) is None:
                found.append(GrothTopology(poset, covers))
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
            sorted(_char_key(poset.n, s) for s in t.covers[p]) for p in range(poset.n)
        )
    )
    return tuple(found)


# -- site morphisms ----------------------------------------------------------


@dataclass(frozen=True)
class SiteMorphismReport:
    """Cover-preservation and covering-lifting diagnostics for one map."""

    cover_violations: tuple[tuple[int, frozenset[int]], ...]
    clp_violations: tuple[tuple[int, frozenset[int]], ...]

    @property
    def preserves_covers(self) -> bool:
        return not self.cover_violations

    @property
    def has_clp(self) -> bool:
        return not self.clp_violations


def site_morphism_report(
    phi: OrderMorphism, source: GrothTopology, target: GrothTopology
) -> SiteMorphismReport:
    """Check both site-morphism properties of ``phi`` at once.

    Cover preservation: the down-closed image of every source cover is a
    target cover.  Covering lifting: every target cover of the image of p
    contains the image of some source cover of p.
    """
    if phi.source != source.poset or phi.target != target.poset:
        raise PosetMismatchError("morphism endpoints do not match the sites")
    p_poset, q_poset = phi.source, phi.target
    cover_violations = []
    clp_violations = []
    for p in range(p_poset.n):
        fp = phi(p)
        for s in sorted(source.covers[p], key=_members_key):
            image = q_poset.down_closure(phi.image_of(s))
            if image not in target.covers[fp]:
                cover_violations.append((p, s))
        for s in sorted(target.covers[fp], key=_members_key):
            if not any(phi.image_of(r) <= s for r in source.covers[p]):
                clp_violations.append((p, s))
    return SiteMorphismReport(tuple(cover_violations), tuple(clp_violations))


def is_site_isomorphism(
    phi: OrderMorphism, source: GrothTopology, target: GrothTopology
) -> bool:
    """Order isomorphism carrying covers to covers in both directions."""
    if not phi.is_isomorphism():
        raise NotOrderIsomorphismError("site isomorphisms need an order isomorphism")
    forward = site_morphism_report(phi, source, target)
    backward = site_morphism_report(phi.inverse(), target, source)
    return forward.preserves_covers and backward.preserves_covers


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


def representable_is_sheaf(poset: FinitePoset, topology: GrothTopology, p: int) -> bool:
    """No element off the cone of p may have a cover inside the down-set of p."""
    dn = poset.down(p)
    for q in range(poset.n):
        if poset.leq(q, p):
            continue
        if any(s <= dn for s in topology.covers[q]):
            return False
    return True


def subcanonicity_report(
    poset: FinitePoset, topology: GrothTopology
) -> tuple[tuple[int, int, frozenset[int]], ...]:
    """Witnesses (p, q, cover) for every representable failing the sheaf test."""
    out = []
    for p in range(poset.n):
        dn = poset.down(p)
        for q in range(poset.n):
            if poset.leq(q, p):
                continue
            for s in sorted(topology.covers[q], key=_members_key):
                if s <= dn:
                    out.append((p, q, s))
                    break
    return tuple(out)


def is_subcanonical(poset: FinitePoset, topology: GrothTopology) -> bool:
    return all(representable_is_sheaf(poset, topology, p) for p in range(poset.n))


def subset_subcanonicity_witnesses(
    poset: FinitePoset, subset: Iterable[int]
) -> tuple[tuple[int, frozenset[int]], ...]:
    """Elements p where implication from the subset fails to fix the cone of p.

    Empty exactly when the subset topology is subcanonical; each witness
    carries the computed implication value.
    """
    xs = frozenset(subset)
    out = []
    for p in range(poset.n):
        value = heyting_implication(poset, xs, poset.down(p))
        if value != poset.down(p):
            out.append((p, value))
    return tuple(out)


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
    difference, so C is the unique least generator; O(n^2) subset tests.
    """
    least = frozenset(
        q
        for q in range(poset.n)
        if any(
            not poset.leq(q, p) and poset.down(q) - {q} <= poset.down(p)
            for p in range(poset.n)
        )
    )
    return CanonicalSubsetReport((least,), unique=True)
