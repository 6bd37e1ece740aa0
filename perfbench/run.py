"""The sitecalc benchmark.

    python3 perfbench/run.py --workload presentations --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Each workload is a closed loop: one process, one client, no threads, the
next request sent when the previous one has returned.  Requests are CLI
verbs run in-process through ``sitecalc.cli.main(argv)`` with stdout
captured, or library calls whose results are serialized to JSON.  Every
response is judged against the benchmark's own closed forms and the
reference digests recorded at the seed commit (``reference.json``).

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs one
seeded block untraced and then traced, and reports per-layer self times
and counts plus the tracing overhead.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import workloads as W  # noqa: E402

SETUP_PROBES = 6  # extra fresh-interpreter set-ups per run; setup_s is the median
MIN_SAMPLES = 100  # p90 needs at least ten samples beyond it


def load_library():
    """Import sitecalc from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "sitecalc", "__init__.py")):
        raise SystemExit(f"perfbench: no sitecalc sources under {src}")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import sitecalc
    from sitecalc import cli, errors, localic, poset, sheaves, sites

    import_s = time.perf_counter() - start
    if not os.path.abspath(sitecalc.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported sitecalc from {sitecalc.__file__}, not {src}")
    lib = types.SimpleNamespace(cli=cli, errors=errors, localic=localic, poset=poset, sheaves=sheaves, sites=sites)
    return lib, import_s


class Tally:
    """Outcomes per request kind, with the known seed failures by name."""

    def __init__(self, reference: dict[str, str]):
        self.reference = reference
        self.by_kind: defaultdict[str, Counter] = defaultdict(Counter)
        self.known: Counter[str] = Counter()
        self.unexplained: list[tuple[str, str, str]] = []  # the first few, for the summary
        self.unexplained_count = 0
        self.sheaf_verdicts: Counter[str] = Counter()
        self._verdicts: dict[tuple, tuple[str, str]] = {}

    def add(self, req: W.Request, code, text: str, exc: str | None) -> None:
        if exc is not None:
            outcome, detail = "unexpected_error", exc
        else:
            memo = (req.key, code, W.digest(text))
            if memo not in self._verdicts:
                self._verdicts[memo] = W.judge(req, code, text, self.reference)
            outcome, detail = self._verdicts[memo]
        counts = self.by_kind[req.kind]
        counts["attempted"] += 1
        counts[outcome] += 1
        if req.kind == "sheaf.check" and outcome == "pass":
            self.sheaf_verdicts["sheaf" if '"is_sheaf": true' in text else "not a sheaf"] += 1
        if outcome == "pass":
            return
        if req.known_failure:
            self.known[f"{req.known_failure} ({outcome})"] += 1
            return
        self.unexplained_count += 1
        if len(self.unexplained) < 20:
            self.unexplained.append((req.key, outcome, detail))

    @property
    def attempted(self) -> int:
        return sum(c["attempted"] for c in self.by_kind.values())

    @property
    def failed(self) -> int:
        return sum(c["attempted"] - c["pass"] for c in self.by_kind.values())

    @property
    def correct(self) -> bool:
        return self.unexplained_count == 0

    def report(self) -> dict:
        return {
            "by_kind": {k: dict(v) for k, v in sorted(self.by_kind.items())},
            "known_failures": dict(self.known),
            "unexplained_failures": self.unexplained_count,
            "unexplained_samples": self.unexplained,
            "sheaf_verdicts": dict(self.sheaf_verdicts),
        }


def execute(req: W.Request):
    """One request, timed from the call until its result is serialized."""
    start = time.perf_counter()
    try:
        code, text = req.call()
    except Exception as exc:  # a traceback is an outcome to count, not a crash
        return time.perf_counter() - start, None, "", type(exc).__name__
    return time.perf_counter() - start, code, text, None


def timed_run(workload: W.Workload, rng: random.Random, args, tally: Tally):
    """Whole blocks until the time is up and p90 has enough samples.

    Returns each request's time and the fresh-interpreter set-ups.  Those
    run between blocks, spread over the run, so that their median does not
    hang on one moment of a shared machine; their time does not count
    towards the run's seconds.
    """
    latencies: list[float] = []
    setups: list[dict] = []
    start = time.perf_counter()
    paused = 0.0
    while time.perf_counter() - start - paused < args.seconds or len(latencies) < MIN_SAMPLES:
        for req in workload.block(rng):
            elapsed, code, text, exc = execute(req)
            latencies.append(elapsed)
            tally.add(req, code, text, exc)
        worked = (time.perf_counter() - start - paused) / args.seconds
        while len(setups) < min(SETUP_PROBES, int(SETUP_PROBES * worked)):
            before = time.perf_counter()
            setups.append(setup_probe(args))
            paused += time.perf_counter() - before
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(args))
    return latencies, setups


def traced_run(lib, workload: W.Workload, rng: random.Random, tally: Tally):
    """One seeded block untraced, then the same block traced."""
    from spans import Tracer

    block = workload.block(rng)
    untraced = 0.0
    for req in block:
        elapsed, code, text, exc = execute(req)
        untraced += elapsed
        tally.add(req, code, text, exc)
    tracer = Tracer(lib)
    tracer.install()
    traced = 0.0
    output_bytes = 0
    try:
        for index, req in enumerate(block):
            frame = tracer.begin_request(index)
            elapsed, code, text, exc = execute(req)
            tracer.end_request(frame)
            traced += elapsed
            output_bytes += len(text.encode("utf-8"))
            tally.add(req, code, text, exc)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["cli.output_bytes"] = (output_bytes, "bytes")
    untraced_rate = len(block) / untraced
    traced_rate = len(block) / traced
    metrics["trace.untraced_verdicts_per_s"] = (untraced_rate, "1/s")
    metrics["trace.traced_verdicts_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_share"] = (1 - traced_rate / untraced_rate, "ratio")
    metrics["trace.spans_recorded"] = (len(tracer.spans), "count")
    return metrics, tracer.dump()


def setup_probe(args) -> dict:
    """Set the workload up again in a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def percentile90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def print_summary(args, tally: Tally, metrics: dict, extra: str) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  {extra}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    share = tally.failed / tally.attempted
    print(f"  {'failed_share':34s} {share:14.6g} ratio ({tally.failed} of {tally.attempted})")
    header = ["attempted", "pass", *W.FAILURE_TYPES]
    print(f"  {'kind':28s}" + "".join(f"{h:>18s}" for h in header))
    for kind, counts in sorted(tally.by_kind.items()):
        print(f"  {kind:28s}" + "".join(f"{counts.get(h, 0):18d}" for h in header))
    for name, count in sorted(tally.known.items()):
        print(f"  known seed failure: {name}: {count}")
    if tally.sheaf_verdicts:
        print(f"  sheaf check verdicts: {dict(tally.sheaf_verdicts)}")
    for key, outcome, detail in tally.unexplained:
        print(f"  UNEXPLAINED {outcome}: {key}: {detail}")
    if tally.unexplained_count > len(tally.unexplained):
        print(f"  ... {tally.unexplained_count} unexplained failures in all")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    lib, import_s = load_library()
    work = os.path.join(ROOT, ".perfbench", "work", f"{args.workload}-{os.getpid()}")
    try:
        workload = W.WORKLOADS[args.workload](lib, W.Inputs(work))
        setup_s = time.perf_counter() - SETUP_START
        own_setup = {"setup_s": setup_s, "import_s": import_s}
        if args.setup_only:
            print(json.dumps(own_setup))
            return 0
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
            reference = json.load(handle)[args.workload]
        tally = Tally(reference)
        rng = random.Random(args.seed)
        dump = None
        if args.trace:
            metrics, dump = traced_run(lib, workload, rng, tally)
            probes = [setup_probe(args) for _ in range(SETUP_PROBES)]
            metrics["cli.import_s"] = (statistics.median(p["import_s"] for p in [own_setup] + probes), "s")
            extra = "one block untraced, then traced"
        else:
            latencies, probes = timed_run(workload, rng, args, tally)
            metrics = {
                "verdict_p50_ms": (statistics.median(latencies) * 1000, "ms"),
                "verdict_p90_ms": (percentile90(latencies) * 1000, "ms"),
                "verdicts_per_s": (len(latencies) / sum(latencies), "1/s"),
                "setup_s": (statistics.median(p["setup_s"] for p in [own_setup] + probes), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            extra = f"requests {len(latencies)}  timed {sum(latencies):.2f} s"
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print_summary(args, tally, metrics, extra)
    out_dir = os.path.join(ROOT, ".perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, stem + ".json"), "w", encoding="utf-8") as handle:
        json.dump({"metrics": metrics, "outcomes": tally.report(), "trace": dump}, handle)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
