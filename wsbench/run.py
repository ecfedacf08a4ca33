"""The wildsets benchmark: one workload per process, closed loop, one client.

Usage (from the root of a checkout):

    python3 wsbench/run.py --workload symbols|ranks|certify|all \
        --seed N --seconds S --trace 0|1

With --trace 0 the run sets up the workload (in this process and in
SETUPS-1 fresh child processes, reporting the median set-up time), then
runs whole rounds of operations, one operation after another, cycling
through the seed's jobs until they have all run once and have taken
--seconds seconds at the reference machine speed (see REFERENCE_S), and
reports the end-to-end metrics.  `attempted` and `failed` count distinct
jobs, so they depend on the seed alone.  With --trace 1 it
wraps the public functions of each wildsets module, runs a fixed number
of operations traced, runs the same operations again untraced, and
reports per-layer calls, self times and ratios.  Spans are written to
wsbench/out/.  Every answer is checked.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --workload all runs the three
workloads one after another, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

# set-ups per run: this process plus SETUPS - 1 fresh child processes
SETUPS = 7
# Times are CPU times of this process (workloads.clock says why).  On a
# shared host the speed of a CPU drifts by tens of percent within minutes
# (on a shared 2-vCPU host the reference routine below took from 4.1 to
# 7.0 ms in consecutive runs).  Every time the runner reports is therefore
# scaled to a fixed machine speed: it times reference_seconds() next to
# the work, at least every CALIBRATE_EVERY_S of operations, and multiplies
# each time by REFERENCE_S / (the mean of the calibrations around it).  On
# a machine where the routine takes REFERENCE_S, scaled times are CPU
# times; the unscaled CPU times are printed as well.
REFERENCE_S = 0.005
CALIBRATE_EVERY_S = 1.0
# no new round starts after this much wall time, so a run ends well
# within three minutes even on a very slow machine
WALL_CAP_S = 100.0
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _require_package() -> None:
    """Put the checkout's src/ first on the path, or exit with status 1."""
    if not os.path.isfile(os.path.join(SRC, "wildsets", "__init__.py")):
        sys.exit("wsbench: no src/wildsets in %s; run from a full checkout"
                 % ROOT)
    sys.path.insert(0, SRC)


def _check_import() -> None:
    import wildsets
    where = os.path.dirname(os.path.abspath(wildsets.__file__))
    if where != os.path.join(SRC, "wildsets"):
        sys.exit("wsbench: imported wildsets from %s, not from %s"
                 % (where, SRC))


def reference_seconds() -> float:
    """Median time of five runs of a fixed pure-Python routine.

    Schoolbook products of small polynomials mod 7 plus dict updates: the
    same kind of interpreter work as the package, and never changed, so
    its time measures the speed of the machine alone.
    """
    def once() -> float:
        start = workloads.clock()
        seen = {}
        f = tuple(range(1, 13))
        for i in range(300):
            g = tuple(c * (i + 1) % 7 for c in f)
            prod = [0] * 24
            for a, x in enumerate(f):
                for b, y in enumerate(g):
                    prod[a + b] = (prod[a + b] + x * y) % 7
            key = tuple(prod)
            seen[key] = seen.get(key, 0) + 1
        return workloads.clock() - start
    return statistics.median(once() for _ in range(5))


def _scale(before: float, after: float) -> float:
    return REFERENCE_S / ((before + after) / 2)


def setup(name: str, seed: int, workdir: str):
    """Import, model construction, job generation and warm-up, timed.

    Returns the workload, its list of rounds of jobs and the set-up time,
    raw and scaled to the reference speed.
    """
    before = reference_seconds()
    start = workloads.clock()
    _check_import()
    workload = workloads.WORKLOADS[name](seed, workdir)
    generated = workloads.job_rounds(workload, seed)
    rounds = [next(generated) for _ in range(workload.pass_rounds)]
    workload.warm_up()
    raw = workloads.clock() - start
    return workload, rounds, raw, raw * _scale(before, reference_seconds())


def _child_setup_seconds(name: str, seed: int):
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.exit("wsbench: set-up child failed:\n%s" % proc.stderr)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return line["raw_s"], line["setup_s"]


def _tail(latencies):
    """The highest percentile leaving at least 10 samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Tally:
    """Outcomes of the operations of one run, by job.

    A job that runs more than once fails if any of its runs fails.
    """

    def __init__(self):
        self.by_job = {}  # job id -> the results of its runs

    def add(self, result) -> None:
        if result is not None:
            self.by_job.setdefault(result.job.id, []).append(result)

    @property
    def attempted(self) -> int:
        return len(self.by_job)

    @property
    def failed(self):
        """The first failed run of each job that failed."""
        failed = []
        for results in self.by_job.values():
            bad = [r for r in results if r.status != workloads.OK]
            if bad:
                failed.append(bad[0])
        return failed

    @property
    def correct(self) -> bool:
        return all(r.status != workloads.WRONG
                   for results in self.by_job.values() for r in results)

    def report_failures(self) -> None:
        for r in self.failed:
            runs = self.by_job[r.job.id]
            print("failed %s [%s] %s: %s (%d of %d runs)"
                  % (r.job.id, r.status, r.job.label, r.detail,
                     sum(x.status != workloads.OK for x in runs), len(runs)))


def timed_run(name: str, seed: int, seconds: float, workdir: str) -> dict:
    setups = [_child_setup_seconds(name, seed) for _ in range(SETUPS - 1)]
    workload, rounds, *own = setup(name, seed, workdir)
    setups.append(tuple(own))

    # Whole rounds only, so every run measures the same mix of strata; at
    # least one whole pass, so every job is checked; and until the ops have
    # taken `seconds` at the reference speed, so a slow machine does not
    # run fewer rounds (which would move op_tail_ms).
    # blocks[i] ran between calibrations[i] and calibrations[i + 1].
    tally = Tally()
    calibrations, blocks, since, done = [reference_seconds()], [[]], 0.0, 0.0
    wall_start = time.perf_counter()
    cutoff = wall_start + WALL_CAP_S
    ran = 0
    while ((done < seconds or ran < len(rounds))
           and time.perf_counter() < cutoff):
        if ran % len(rounds) == 0:
            workload.reset()
        for job in rounds[ran % len(rounds)]:
            result = workload.run(job)
            if result is None:
                continue
            tally.add(result)
            blocks[-1].append(result)
            since += result.seconds
            done += result.seconds * REFERENCE_S / calibrations[-1]
            if since >= CALIBRATE_EVERY_S:
                calibrations.append(reference_seconds())
                blocks.append([])
                since = 0.0
        ran += 1
    calibrations.append(reference_seconds())
    wall = time.perf_counter() - wall_start
    # a calibration caught in a brief stall would rescale a whole block, so
    # each one is replaced by the median of itself and its neighbours
    smooth = [statistics.median(calibrations[max(0, i - 1):i + 2])
              for i in range(len(calibrations))]

    raw, latencies, reads = [], [], []
    for block, before, after in zip(blocks, smooth, smooth[1:]):
        factor = _scale(before, after)
        for r in block:
            raw.append(r.seconds)
            latencies.append(r.seconds * factor)
            if r.read_seconds is not None:
                reads.append(r.read_seconds * factor)
    tail, percentile = _tail(latencies)
    metrics = {
        "setup_s": statistics.median(s for _, s in setups),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail,
        # Linux reports ru_maxrss in KiB
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    n, jobs, failed = len(latencies), tally.attempted, len(tally.failed)
    print("workload %s seed %d: %d ops (%d rounds of %d distinct jobs), "
          "%.1f s of unscaled CPU time in operations, %.1f s of wall time"
          % (name, seed, n, ran, jobs, sum(raw), wall))
    for key, unit in END_TO_END:
        print("  %-14s %12.4f %s" % (key, metrics[key], unit))
    print("  op_tail_ms is p%.2f of %d samples, %d beyond it"
          % (percentile, n, min(10, n - 1)))
    print("  %-14s %12.4f (%d of %d jobs)"
          % ("failed_ratio", failed / jobs, failed, jobs))
    if reads:
        print("  %-14s %12.4f ms (median of %d verify commands)"
              % ("verify_p50_ms", 1e3 * statistics.median(reads), len(reads)))
    print("  unscaled CPU time: setup_s %.4f ops_per_s %.4f op_p50_ms %.4f "
          "op_tail_ms %.4f" % (statistics.median(r for r, _ in setups),
                               n / sum(raw), 1e3 * statistics.median(raw),
                               1e3 * _tail(raw)[0]))
    print("  reference routine: %.2f to %.2f ms over %d calibrations "
          "(scaled to %.2f ms)" % (1e3 * min(calibrations),
                                   1e3 * max(calibrations), len(calibrations),
                                   1e3 * REFERENCE_S))
    tally.report_failures()
    return {
        "correct": tally.correct,
        "attempted": jobs,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END},
    }


def _run_scaled(workload, jobs, tally: Tally, tracer=None) -> float:
    """CPU time of running the jobs in order, scaled to the reference."""
    before = reference_seconds()
    start = workloads.clock()
    for op, job in enumerate(jobs):
        if tracer is not None:
            tracer.op = op
        tally.add(workload.run(job))
    return (workloads.clock() - start) * _scale(before, reference_seconds())


def traced_run(name: str, seed: int, workdir: str) -> dict:
    _check_import()
    tracer = tracing.Tracer()
    tracer.install()
    tally = Tally()
    tracer.active = True
    try:
        workload, rounds, _, _ = setup(name, seed, workdir)
        if name == "certify":
            workload.tracer = tracer
        traced_jobs = [job for jobs in rounds[:workload.trace_rounds]
                       for job in jobs]
        traced_s = _run_scaled(workload, traced_jobs, tally, tracer)
    finally:
        tracer.active = False
        tracer.uninstall()

    # the same operations untraced, on freshly built models
    workload, _, _, _ = setup(name, seed, workdir)
    untraced_s = _run_scaled(workload, traced_jobs, tally)

    metrics = tracer.per_layer(traced_s / untraced_s)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "spans-%s-seed%d.tsv" % (name, seed))
    spans = tracer.write(path)
    print("workload %s seed %d traced: %d ops, %.2f s traced, %.2f s untraced "
          "(scaled), "
          "%d spans written to %s" % (name, seed, len(traced_jobs), traced_s,
                                      untraced_s, spans,
                                      os.path.relpath(path, ROOT)))
    for key, unit in tracing.metric_names():
        print("  %-62s %14.6f %s" % (key, metrics[key], unit))
    tally.report_failures()
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": len(tally.failed),
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in tracing.metric_names()},
    }


def run_all(args) -> None:
    """Each workload in its own process, so peak_rss_mb is its own."""
    summary = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit("wsbench: workload %s exited %d" % (name, proc.returncode))
        summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(summary))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _require_package()
    if args.workload == "all":
        run_all(args)
        return
    workdir = os.path.join(OUT, "work-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        if args.setup_only:
            _, _, raw, scaled = setup(args.workload, args.seed, workdir)
            print(json.dumps({"raw_s": raw, "setup_s": scaled}))
        elif args.trace:
            print(json.dumps(traced_run(args.workload, args.seed, workdir)))
        else:
            print(json.dumps(timed_run(args.workload, args.seed, args.seconds,
                                       workdir)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
