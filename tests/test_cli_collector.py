"""The CLI pauses the cyclic garbage collector for each verb: the pause is
scoped to ``main``, and no verb leaves reference cycles for it to find."""

import contextlib
import gc
import json
import os
import subprocess
import sys

import pytest

import sitecalc
from sitecalc import catalog, cli
from sitecalc.cli import build_parser, main

CHAIN2_TEXT = "elements: 0 1\nle: 0 1\n"


@contextlib.contextmanager
def collector(enabled):
    """The collector switched on or off, and the test runner's setting
    restored afterwards."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


def write(path, text):
    path.write_text(text)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_verb_runs_with_the_collector_paused(capsys, monkeypatch, tmp_path):
    seen = []
    parser = build_parser()
    parse_args, read_poset = parser.parse_args, cli._read_poset

    def recording(inner):
        def wrapped(*args):
            seen.append(gc.isenabled())
            return inner(*args)

        return wrapped

    monkeypatch.setattr(parser, "parse_args", recording(parse_args))
    monkeypatch.setattr(cli, "_read_poset", recording(read_poset))
    poset = write(tmp_path / "p.poset", CHAIN2_TEXT)
    with collector(True):
        code, out = run(capsys, ["validate", "--poset", poset])
        assert gc.isenabled()
    assert code == 0 and json.loads(out)["ok"] is True
    assert seen == [False, False]


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "outcome, text, code",
    [
        ("result", CHAIN2_TEXT, 0),
        ("domain_error", "elements: a b\nle: a b\nle: b a\n", 1),
        ("os_error", None, 1),
        ("usage_error", CHAIN2_TEXT, 2),
    ],
)
def test_main_restores_the_callers_collector_setting(
    capsys, tmp_path, enabled, outcome, text, code
):
    poset = str(tmp_path / "missing.poset") if text is None else write(tmp_path / "p.poset", text)
    argv = ["validate", "--poset", poset] + (["--bogus"] if outcome == "usage_error" else [])
    with collector(enabled):
        with pytest.raises(SystemExit) if code == 2 else contextlib.nullcontext() as stop:
            assert main(argv) == code
        assert gc.isenabled() is enabled
    if code == 2:
        assert stop.value.code == 2
    capsys.readouterr()


def success_verbs(capsys, tmp_path, name, poset):
    """Every verb on its success path for one poset, its inputs written by
    earlier verbs."""
    poset_file = write(tmp_path / "p.json", json.dumps(poset.to_json()))
    first = poset.labels[0]
    # the atomic and derived topologies exist on downwards directed posets only
    kinds = ["indiscrete", "discrete", "dense"]
    constructions = [["--subset", first], ["--lx", first]]
    if poset.is_downwards_directed():
        kinds.append("atomic")
        constructions.append(["--derived", first])
    constructions += [["--kind", kind] for kind in kinds]
    argvs = [["topology", "--poset", poset_file, *how] for how in constructions] + [
        ["validate", "--poset", poset_file],
        ["enumerate", "--poset", poset_file],
        ["catalog"],
        ["catalog", "--name", name],
        ["export", "dot", "--poset", poset_file],
    ]
    yield from argvs
    topology = write(tmp_path / "j.json", run(capsys, argvs[0])[1])
    yield ["subcanonical", "--poset", poset_file, "--topology", topology]
    for kind in ("nucleus", "congruence", "sublocale"):
        forward = ["convert", "--poset", poset_file, "--topology", topology, "--to", kind]
        yield forward
        presentation = write(tmp_path / f"{kind}.json", run(capsys, forward)[1])
        yield ["convert", "--poset", poset_file, "--from", kind, "--input", presentation]
    pairs = poset._strict_pairs()
    presheaf = {
        "values": {label: 1 for label in poset.labels},
        "maps": {f"{poset.labels[q]}<={poset.labels[p]}": [0] for q, p in pairs},
    }
    presheaf_file = write(tmp_path / "f.json", json.dumps(presheaf))
    yield ["sheaf", "check", "--poset", poset_file, "--topology", topology,
           "--presheaf", presheaf_file]


@pytest.mark.parametrize("name", sorted(catalog()))
def test_verbs_leave_no_reference_cycles(capsys, tmp_path, name):
    build_parser()
    with collector(False):
        for argv in success_verbs(capsys, tmp_path, name, catalog()[name]):
            gc.collect()
            code, _ = run(capsys, argv)
            assert (code, gc.collect()) == (0, 0), argv


def domain_error(tmp_path, case):
    """The argv of one domain-error case, with the files it reads."""
    chain2 = write(tmp_path / "c2.poset", CHAIN2_TEXT)
    good = {"poset": {"elements": ["0", "1"], "le_pairs": [[0, 0], [0, 1], [1, 1]]}}
    if case == "AxiomViolation":
        bad = dict(good, covers={"0": [], "1": [["0", "1"]]})
        return ["subcanonical", "--poset", chain2, "--topology",
                write(tmp_path / "j.json", json.dumps(bad))]
    if case == "NotANucleusError":
        bad = dict(good, pairs=[[0, 99], [1, 1], [2, 2]])
        return ["convert", "--poset", chain2, "--from", "nucleus", "--input",
                write(tmp_path / "n.json", json.dumps(bad))]
    if case == "FunctorialityError":
        bad = {"values": {"0": 2, "1": 2}, "maps": {}}
        topology = dict(good, covers={"0": [["0"]], "1": [["0", "1"]]})
        return ["sheaf", "check", "--poset", chain2,
                "--topology", write(tmp_path / "j.json", json.dumps(topology)),
                "--presheaf", write(tmp_path / "f.json", json.dumps(bad))]
    if case == "ParseError":
        return ["validate", "--poset", write(tmp_path / "bad.poset", "elements: a\nle: a b\n")]
    if case == "PosetMismatchError":
        other = {"poset": {"elements": ["x", "y"], "le_pairs": [[0, 0], [1, 1]]}, "pairs": []}
        return ["convert", "--poset", chain2, "--from", "nucleus", "--input",
                write(tmp_path / "n.json", json.dumps(other))]
    if case == "TooLargeForBruteForceError":
        return ["enumerate", "--poset", chain2, "--cap", "1"]
    if case == "FileNotFoundError":
        return ["validate", "--poset", str(tmp_path / "missing.poset")]
    assert case == "JSONDecodeError"
    return ["validate", "--poset", write(tmp_path / "bad.json", "{nope")]


@pytest.mark.parametrize(
    "case",
    [
        "AxiomViolation",
        "NotANucleusError",
        "FunctorialityError",
        "ParseError",
        "PosetMismatchError",
        "TooLargeForBruteForceError",
        "FileNotFoundError",
        "JSONDecodeError",
    ],
)
def test_domain_errors_leave_no_reference_cycles(capsys, tmp_path, case):
    # Usage errors are left out: argparse's own HelpFormatter objects form
    # reference cycles when it writes a usage message.
    argv = domain_error(tmp_path, case)
    build_parser()
    with collector(False):
        gc.collect()
        code, out = run(capsys, argv)
        assert gc.collect() == 0
    assert code == 1 and json.loads(out)["error"]["code"] == case


@pytest.mark.parametrize("outcome", ["result", "domain_error", "usage_error"])
def test_console_main_in_a_fresh_interpreter(capsys, tmp_path, outcome):
    poset = write(tmp_path / "c2.poset", CHAIN2_TEXT)
    argv = {
        "result": ["topology", "--poset", poset, "--subset", "0"],
        "domain_error": ["enumerate", "--poset", poset, "--cap", "1"],
        "usage_error": ["topology", "--poset", poset],
    }[outcome]
    src = os.path.dirname(os.path.dirname(os.path.abspath(sitecalc.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", "from sitecalc.cli import console_main; console_main()", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    try:
        code = main(argv)
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    assert (done.returncode, done.stdout, done.stderr) == (code, captured.out, captured.err)
    assert code == {"result": 0, "domain_error": 1, "usage_error": 2}[outcome]
