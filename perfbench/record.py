"""Record the reference digests in reference.json.

    python3 perfbench/record.py

Run at the commit whose outputs are the reference.  Every request of every
pool runs once and is judged against the benchmark's own closed forms.
Nothing is written unless the only failures are the requests marked with
a known seed failure, and each of those does fail.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads as W


def record(lib, name: str, problems: list[str]) -> dict[str, str]:
    work = os.path.join(run.ROOT, ".perfbench", "work", f"record-{name}-{os.getpid()}")
    try:
        workload = W.WORKLOADS[name](lib, W.Inputs(work))
        digests = {}
        for key, req in sorted(workload.pool.items()):
            _, code, text, exc = run.execute(req)
            outcome, detail = ("unexpected_error", exc) if exc else W.judge(req, code, text, {})
            if outcome == "pass":
                if req.known_failure:
                    problems.append(f"{name} {key}: expected {req.known_failure}, but it passed")
                digests[key] = W.digest(text)
            elif not req.known_failure:
                problems.append(f"{name} {key}: {outcome}: {detail}")
        return digests
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    lib, _ = run.load_library()
    problems: list[str] = []
    reference = {name: record(lib, name, problems) for name in W.WORKLOADS}
    for line in problems:
        print(line)
    if problems:
        return 1
    with open(os.path.join(run.HERE, "reference.json"), "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print({name: len(d) for name, d in reference.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
