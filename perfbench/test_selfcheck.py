"""Self-checks of the benchmark: python3 -m pytest perfbench/test_selfcheck.py"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys

import pytest

import posets as P
import run
import workloads as W

LIB, _ = run.load_library()


@pytest.fixture(scope="module")
def pools(tmp_path_factory):
    """Every workload's pool, built twice in separate directories."""
    out = {}
    for name, build in W.WORKLOADS.items():
        out[name] = tuple(build(LIB, W.Inputs(str(tmp_path_factory.mktemp(f"{name}{i}")))) for i in range(2))
    return out


def block_keys(workload: W.Workload, seed: int, blocks: int = 3) -> list[str]:
    rng = random.Random(seed)
    return [req.key for _ in range(blocks) for req in workload.block(rng)]


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_same_seed_same_requests(pools, name):
    first, second = pools[name]
    assert sorted(first.pool) == sorted(second.pool)
    assert block_keys(first, 7) == block_keys(second, 7)


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_other_seed_other_requests(pools, name):
    first, _ = pools[name]
    assert block_keys(first, 7) != block_keys(first, 8)


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_every_kind_in_every_block(pools, name):
    workload, _ = pools[name]
    assert {req.kind for req in workload.pool.values()} == set(W.KINDS_BY_WORKLOAD[name])
    for seed in range(3):
        kinds = {req.kind for req in workload.block(random.Random(seed))}
        assert kinds == set(W.KINDS_BY_WORKLOAD[name])


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_every_request_has_a_reference(pools, name):
    workload, _ = pools[name]
    reference = run.json.load(open(os.path.join(run.HERE, "reference.json")))[name]
    for key, req in workload.pool.items():
        assert (key in reference) != bool(req.known_failure), key


def test_same_seed_same_digests(pools):
    """Both pools give byte-identical responses, matching the reference."""
    first, second = pools["sheaves"]
    reference = run.json.load(open(os.path.join(run.HERE, "reference.json")))["sheaves"]
    for req in first.block(random.Random(3)):
        _, code_a, text_a, exc_a = run.execute(req)
        _, code_b, text_b, exc_b = run.execute(second.pool[req.key])
        assert exc_a is None and exc_b is None
        assert (code_a, W.digest(text_a)) == (code_b, W.digest(text_b))
        assert W.judge(req, code_a, text_a, reference) == ("pass", "")


def test_known_failures_are_the_named_ones(pools):
    names = {
        req.known_failure
        for workload, _ in pools.values()
        for req in workload.pool.values()
        if req.known_failure
    }
    assert names == {"accepted_above_LAW_CHECK_CAP", "COMPLETENESS_GUARD_refusal"}
    presentations, _ = pools["presentations"]
    assert all(
        req.key.startswith("antichain13/") == bool(req.known_failure)
        for req in presentations.pool.values()
        if req.kind.startswith("convert.corrupt")
    )


def test_traced_counts_repeat_exactly(pools):
    workload, _ = pools["sheaves"]
    runs = []
    for _ in range(2):
        tally = run.Tally({})
        metrics, _ = run.traced_run(LIB, workload, random.Random(5), tally)
        runs.append({k: v for k, (v, unit) in metrics.items() if unit in ("count", "bytes")})
    assert runs[0] == runs[1]
    assert runs[0]["sheaves.is_sheaf_calls"] > 0


def test_closed_forms_match_the_definitions():
    """The oracles against brute force on a small fence."""
    shape = P.fence(5)
    frame = shape.downsets()
    assert all(shape.closure(d) == d for d in frame)
    assert len(frame) == len({d for d in range(1 << shape.n) if shape.closure(d) == d})
    for x in range(1 << shape.n):
        table = P.subset_nucleus(shape, frame, x)
        for i, d in enumerate(frame):
            best = 0
            for e in frame:
                if e & x & ~d == 0:
                    best |= e
            assert frame[table[i]] == best


def test_refuses_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sheaves", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
