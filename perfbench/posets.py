"""Poset ladders and the benchmark's own oracles for subset topologies.

Nothing here imports sitecalc.  Posets are plain JSON documents in the
library's input format, and every computation is done on int bitmasks
(bit i stands for element i), so the oracles share no code path with the
library they check.
"""

from __future__ import annotations

import json


class Shape:
    """A finite poset given by labels and generating pairs ``i <= j``."""

    def __init__(self, name: str, labels: list[str], pairs: list[tuple[int, int]]):
        self.name = name
        self.labels = labels
        self.pairs = pairs
        n = self.n = len(labels)
        up = [1 << i for i in range(n)]
        changed = True
        while changed:
            changed = False
            for a, b in pairs:
                if up[a] | up[b] != up[a]:
                    up[a] |= up[b]
                    changed = True
        self.up = up
        self.down = [sum(1 << q for q in range(n) if up[q] >> p & 1) for p in range(n)]

    def doc(self) -> dict:
        return {"elements": list(self.labels), "le_pairs": [list(p) for p in self.pairs]}

    def text(self) -> str:
        return json.dumps(self.doc())

    def leq(self, a: int, b: int) -> bool:
        return bool(self.up[a] >> b & 1)

    def names(self, mask: int) -> list[str]:
        return [self.labels[i] for i in members(mask)]

    def mask(self, names) -> int:
        index = {lab: i for i, lab in enumerate(self.labels)}
        return sum(1 << index[lab] for lab in names)

    def downsets_within(self, within: int) -> list[int]:
        """Down-sets contained in the down-closed mask, in the library's id order."""
        order = sorted(members(within), key=lambda e: (bin(self.down[e]).count("1"), e))
        sets = [0]
        for e in order:
            pred = self.down[e] & ~(1 << e)
            sets += [s | 1 << e for s in sets if s & pred == pred]
        return sorted(sets, key=self.id_key)

    def downsets(self) -> list[int]:
        return self.downsets_within((1 << self.n) - 1)

    def id_key(self, mask: int) -> int:
        """Characteristic vectors compared lexicographically, element 0 first."""
        return int(format(mask, f"0{self.n}b")[::-1], 2) if self.n else 0

    def closure(self, mask: int) -> int:
        out = 0
        for i in members(mask):
            out |= self.down[i]
        return out


def members(mask: int) -> list[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


# -- ladders ------------------------------------------------------------------


def chain(n: int) -> Shape:
    return Shape(f"chain{n}", [f"c{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])


def antichain(n: int) -> Shape:
    return Shape(f"antichain{n}", [f"a{i}" for i in range(n)], [])


def fence(n: int) -> Shape:
    """Zigzag f0 < f1 > f2 < f3 ...; even positions are minimal."""
    pairs = [(i, i + 1) if i % 2 == 0 else (i + 1, i) for i in range(n - 1)]
    return Shape(f"fence{n}", [f"f{i}" for i in range(n)], pairs)


def grid(rows: int, cols: int) -> Shape:
    """Product of two chains, ordered componentwise."""
    labels = [f"g{r}_{c}" for r in range(rows) for c in range(cols)]
    pairs = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if r + 1 < rows:
                pairs.append((i, i + cols))
            if c + 1 < cols:
                pairs.append((i, i + 1))
    return Shape(f"grid{rows}x{cols}", labels, pairs)


def fan(k: int) -> Shape:
    """k incomparable atoms under one top: 2^k + 1 sieves on the top."""
    labels = [f"t{i}" for i in range(k)] + ["top"]
    return Shape(f"fan{k}", labels, [(i, k) for i in range(k)])


def catalog_shape(name: str) -> Shape:
    """The library's catalog posets, rebuilt from their published definitions."""
    defs = {
        "chain2": (["0", "1"], [(0, 1)]),
        "chain3": (["0", "1", "2"], [(0, 1), (1, 2)]),
        "chain4": (["0", "1", "2", "3"], [(0, 1), (1, 2), (2, 3)]),
        "V": (["x", "y", "z"], [(1, 0), (2, 0)]),
        "Lambda": (["x", "y", "z"], [(0, 1), (0, 2)]),
        "diamond": (["0", "a", "b", "1"], [(0, 1), (0, 2), (1, 3), (2, 3)]),
    }
    labels, pairs = defs[name]
    return Shape(name, labels, pairs)


# -- the subset normal form ---------------------------------------------------
#
# Every topology on a finite poset is generated by a subset X.  These are the
# paper's closed forms for that topology and its presentations; the benchmark
# checks the library's answers against them.


def subset_covers(shape: Shape, x: int) -> list[list[int]]:
    """Per element p, the sieves s on p with X & down(p) <= s."""
    out = []
    for p in range(shape.n):
        cut = x & shape.down[p]
        out.append([s for s in shape.downsets_within(shape.down[p]) if s & cut == cut])
    return out


def topology_doc(shape: Shape, covers: list[list[int]]) -> dict:
    return {
        "poset": shape.doc(),
        "covers": {shape.labels[p]: [shape.names(s) for s in fam] for p, fam in enumerate(covers)},
    }


def covers_of_doc(shape: Shape, doc: dict) -> list[set[int]]:
    """A topology JSON document read back as per-element sets of masks."""
    fams = [set() for _ in range(shape.n)]
    for label, sieves in doc["covers"].items():
        fams[shape.labels.index(label)] = {shape.mask(s) for s in sieves}
    return fams


def subset_nucleus(shape: Shape, frame: list[int], x: int) -> list[int]:
    """Implication from X: d |-> {p : down(p) & X <= d}, as a table of ids."""
    index = {d: i for i, d in enumerate(frame)}
    table = []
    for d in frame:
        value = sum(1 << p for p in range(shape.n) if shape.down[p] & x & ~d == 0)
        table.append(index[value])
    return table


def subset_classes(frame: list[int], x: int) -> list[list[int]]:
    """Down-sets with the same cut along X, classes ordered by least id."""
    groups: dict[int, list[int]] = {}
    for i, d in enumerate(frame):
        groups.setdefault(d & x, []).append(i)
    return sorted(groups.values(), key=min)


def frame_doc(shape: Shape, frame: list[int]) -> dict:
    return {"poset": shape.doc(), "downsets": [shape.names(d) for d in frame]}


def induced(shape: Shape, mask: int) -> Shape:
    """The full subposet on the elements of ``mask``, renumbered in index order."""
    elems = members(mask)
    pairs = [
        (i, j)
        for i, a in enumerate(elems)
        for j, b in enumerate(elems)
        if a != b and shape.leq(a, b)
    ]
    return Shape(f"{shape.name}|{mask:x}", [shape.labels[e] for e in elems], pairs)


def restrict_mask(mask: int, within: int) -> int:
    """Re-index the bits of ``mask`` that lie in ``within`` to consecutive positions."""
    out = 0
    for k, e in enumerate(members(within)):
        if mask >> e & 1:
            out |= 1 << k
    return out


def dense_covers(shape: Shape) -> list[list[int]]:
    """Per element p, the sieves whose up-closure contains the down-set of p."""
    out = []
    for p in range(shape.n):
        fam = []
        for s in shape.downsets_within(shape.down[p]):
            upper = 0
            for i in members(s):
                upper |= shape.up[i]
            if shape.down[p] & ~upper == 0:
                fam.append(s)
        out.append(fam)
    return out


def lx_covers(shape: Shape, x: int) -> list[list[int]]:
    """Per element p, the sieves meeting X below every point of X under p."""
    out = []
    for p in range(shape.n):
        below = members(x & shape.down[p])
        out.append([
            s
            for s in shape.downsets_within(shape.down[p])
            if all(s & shape.down[q] & x for q in below)
        ])
    return out


def subcanonical_witness_pairs(shape: Shape, x: int) -> list[tuple[int, int]]:
    """Pairs (p, q) with q not below p where X & down(q) lies in down(p).

    For the topology generated by X, the least cover of q is the down-closure
    of X & down(q), so these are exactly the pairs where q has a cover inside
    down(p) and the representable y(p) fails descent.
    """
    return [
        (p, q)
        for p in range(shape.n)
        for q in range(shape.n)
        if not shape.leq(q, p) and shape.down[q] & x & ~shape.down[p] == 0
    ]


def is_subcanonical_subset(shape: Shape, x: int) -> bool:
    return not subcanonical_witness_pairs(shape, x)
