"""Self-tests of the benchmark itself.

Usage (from the root of a checkout):  python3 wsbench/selftest.py

1. A one-second untraced run of each workload emits exactly the
   end-to-end metrics of BENCHMARK.json, with their units, and a
   two-second run with the same seed attempts and fails the same jobs.
2. Two traced runs of each workload with one seed, in two processes,
   emit exactly the per-layer metrics of BENCHMARK.json, and every
   `calls` count repeats exactly.
3. The same seed generates the same inputs; another seed changes them.

Exits 1 on the first failed check.  Takes about five minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def fail(message: str) -> None:
    print("FAIL " + message)
    sys.exit(1)


def bench(workload: str, seed: int, trace: int, seconds: int = 1) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        fail("%s --trace %d exited %d:\n%s"
             % (workload, trace, proc.returncode, proc.stderr))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (workload, sorted(result)))
    if not result["correct"] or result["attempted"] < 1:
        fail("%s --trace %d: %s" % (workload, trace, proc.stdout))
    return result


def check_counts(workload: str, first: dict, second: dict) -> None:
    one = (first["attempted"], first["failed"])
    two = (second["attempted"], second["failed"])
    if one != two:
        fail("%s: one seed attempted and failed %s, then %s" % (workload, one, two))


def check_units(workload: str, result: dict, expected: list) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        fail("%s: missing %s, unexpected %s, wrong units %s"
             % (workload, missing, extra, wrong))
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            fail("%s: %s is not a number" % (workload, name))


def first_rounds(name: str, seed: int, workdir: str, count: int = 2):
    workload = workloads.WORKLOADS[name](seed, workdir)
    rounds = workloads.job_rounds(workload, seed)
    return [[(job.id, job.label, job.data) for job in next(rounds)]
            for _ in range(count)]


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)

    for name in workloads.WORKLOADS:
        short = bench(name, 1, 0)
        check_units(name, short, spec["end_to_end"])
        check_counts(name, short, bench(name, 1, 0, seconds=2))
        print("ok  %s: end-to-end metrics and units; attempted and failed "
              "repeat" % name)

    for name in workloads.WORKLOADS:
        first, second = bench(name, 7, 1), bench(name, 7, 1)
        check_units(name, first, spec["per_layer"])
        check_counts(name, first, second)
        diff = [k for k in first["metrics"] if k.endswith(".calls")
                and first["metrics"][k] != second["metrics"][k]]
        if diff:
            fail("%s: calls differ between two traced runs: %s" % (name, diff))
        print("ok  %s: per-layer metrics and units; calls repeat exactly"
              % name)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    workdir = os.path.join(HERE, "out", "selftest-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        for name in workloads.WORKLOADS:
            one = first_rounds(name, 1, workdir)
            if one != first_rounds(name, 1, workdir):
                fail("%s: one seed generated different inputs" % name)
            if one == first_rounds(name, 2, workdir):
                fail("%s: a second seed generated the same inputs" % name)
            print("ok  %s: inputs follow the seed" % name)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
