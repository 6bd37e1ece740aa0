"""The certifying reports of ``comparison_check`` and
``kx_sheaf_equivalence_check``, pinned by SHA-256 of a sorted-key JSON
rendering as recorded while every presheaf they built was validated by the
constructor and every sheaf verdict also searched for a witness.  The cases
are the catalog cases of the ``sheaves`` benchmark workload: each dense
subset d with every nonempty generating subset x inside it, and each kx
subset."""

import dataclasses
import hashlib
import json

import pytest

from sitecalc import catalog_poset
from sitecalc.sheaves import comparison_check, kx_sheaf_equivalence_check
from sitecalc.sites import subset_topology


def _members(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _plain(obj):
    """A report as JSON values, with its ``ok`` property added."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
        if hasattr(type(obj), "ok"):
            out["ok"] = obj.ok
        return out
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def _digest(report) -> str:
    text = json.dumps(_plain(report), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


COMPARISON_PINNED = {
    ("chain3", 0b011): "5b9ddaac55ac39e0b1c204fe4e16fc797ba78ae3c4fd7411d36b66357afb0330",
    ("chain3", 0b001): "8aa5507d4aee859408c70d66ce38d8d970a5be253db11cf0c6e71cc77fcd108d",
    ("V", 0b110): "73aed660cbe3f23a5c7bfc2f491c536a9eb3c3360f1edb75880583608212c857",
    ("Lambda", 0b001): "8aa5507d4aee859408c70d66ce38d8d970a5be253db11cf0c6e71cc77fcd108d",
    ("diamond", 0b0001): "8aa5507d4aee859408c70d66ce38d8d970a5be253db11cf0c6e71cc77fcd108d",
    ("diamond", 0b0110): "73aed660cbe3f23a5c7bfc2f491c536a9eb3c3360f1edb75880583608212c857",
    ("chain4", 0b0101): "5b9ddaac55ac39e0b1c204fe4e16fc797ba78ae3c4fd7411d36b66357afb0330",
}

KX_PINNED = {
    ("chain2", 0b01): "28aa2e021404e7302ef097f6af2ec8fc36ce665de3debe4585b1379e6af9de79",
    ("chain3", 0b010): "eedaf9f708089e07e46271495de89c7bbc8499dda1592a21fcd525502968001e",
    ("chain3", 0b101): "04be10d70c55f78139bd864eaf20fd88ec09249ed103870b3f3b2c659503aefa",
    ("Lambda", 0b010): "9e50e5cf150ccc67dfb0722babf38291dd81bc3e78ea473762d852fabf04f20b",
    ("Lambda", 0b001): "16521a082d141db3175e55d6e1e7aa1ceb1b3204c087c80fe29a10d710e0ed92",
    ("diamond", 0b0010): "0491705ef878a75b3b97e11b192edc8b574db0a1c53de9115ba81c9467895310",
    ("diamond", 0b0001): "fa5cd06acb89cc166729499ebb46c50298bf472e0daba7756a10da8df777b4a9",
    ("diamond", 0b0110): "be707e5eb4a1cc446774d50e9d3a0d43696c9013d42a18ddc0e29e63ca090d2d",
}


@pytest.mark.parametrize("case", COMPARISON_PINNED, ids=lambda c: f"{c[0]}-d{c[1]}")
def test_comparison_reports_are_pinned(case):
    name, d = case
    poset = catalog_poset(name)
    reports = [
        comparison_check(poset, _members(d), subset_topology(poset, frozenset(_members(x))))
        for x in range(1, 1 << poset.n)
        if not x & ~d
    ]
    assert all(report.ok for report in reports)
    assert hashlib.sha256(
        "\n".join(_digest(report) for report in reports).encode("utf-8")
    ).hexdigest() == COMPARISON_PINNED[case]


@pytest.mark.parametrize("case", KX_PINNED, ids=lambda c: f"{c[0]}-s{c[1]}")
def test_kx_reports_are_pinned(case):
    name, s = case
    report = kx_sheaf_equivalence_check(catalog_poset(name), _members(s))
    assert report.ok
    assert _digest(report) == KX_PINNED[case]
