"""The three workloads: seeded inputs, one timed operation, and its check.

Each workload yields its jobs in rounds.  A round holds the same strata
in the same order for every seed; the seed picks only the concrete
inputs inside each stratum.  A run's jobs are the first `pass_rounds`
rounds for its seed; it executes them in passes, whole rounds at a time,
so it covers the same mix on every seed, which keeps the medians steady,
and checks the same jobs however fast the machine is, so the seed alone
fixes how many jobs are attempted and which of them fail.

An operation's outcome is one of:

  ok         the answer was checked and is right;
  wrong      a wrong answer (the run is then not `correct`);
  refused    exit 3 although the hypothesis holds or the certificate
             is good;
  exit       an unexpected exit code;
  exception  an exception escaped the program.

Everything but `ok` counts as a failed operation.

Functions of the package are looked up on their module at call time
(`ls.reciprocity_product`, `scs.g_rank`, `cli.run`), so that the traced
run sees the calls through its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time
from typing import Iterator, List, NamedTuple, Optional, Tuple

OK, WRONG, REFUSED, EXIT, EXCEPTION = "ok", "wrong", "refused", "exit", "exception"

# Operations are timed in CPU time of this process.  They run on one
# thread and wait for nothing but small local files, so on an idle machine
# their CPU time is their latency.  On a shared host wall time also counts
# the time the host ran other tenants instead: it made single `symbols`
# ops read up to three times their CPU time, and those ops set op_tail_ms.
clock = time.process_time


# Every workload is built as cls(seed, workdir): workdir is a scratch
# directory inside the checkout, used by certify for certificate files.


class Workload:
    """What the three workloads share.

    Each sets pass_rounds, the rounds of distinct jobs per run: fewer than
    a 22 s run executes at the seed state, so a run ends by repeating its
    first rounds; and trace_rounds (at most pass_rounds), the rounds a
    traced run executes.
    """

    def reset(self) -> None:
        """Forget what one job leaves for the next; called before a pass."""


class Job(NamedTuple):
    id: str
    label: str
    data: tuple


class Result(NamedTuple):
    job: Job
    seconds: float
    status: str
    detail: str = ""
    read_seconds: Optional[float] = None  # certify: the verify command


def _sample_places(rng, pools, k, degrees):
    """k distinct places, each of a degree drawn uniformly from `degrees`."""
    chosen = []
    while len(chosen) < k:
        P = rng.choice(pools[rng.choice(degrees)])
        if P not in chosen:
            chosen.append(P)
    return chosen


# ---------------------------------------------------------------------------
# symbols: reciprocity_product on random pairs


class Symbols(Workload):
    """One op builds a and b from seeded polynomials (factoring them) and
    checks reciprocity_product(a, b) == +1."""

    name = "symbols"
    pass_rounds = 180
    trace_rounds = 30
    FIELDS = (3, 5, 9, 27, 243)
    DEGREES = (3, 6)

    def __init__(self, seed: int, workdir: str):
        from wildsets.base_algebra import GF, poly_parse
        from wildsets.elliptic_curve import EllipticModel
        from wildsets.projective_line import ProjectiveLine
        self.seed = seed
        self.models = [("F%d" % q, ProjectiveLine(GF(q))) for q in self.FIELDS]
        curve = EllipticModel(GF(5), poly_parse("t^3 + 4t", GF(5)))
        self.models.append(("E5", curve))
        self.y = curve.y()

    def rounds(self, rng: random.Random) -> Iterator[List[Job]]:
        r = 0
        while True:
            jobs = []
            for m, (label, model) in enumerate(self.models):
                q = model.field.q
                for j, d in enumerate(self.DEGREES):
                    polys = tuple(_random_poly(rng, q, d) for _ in range(4))
                    times_y = label == "E5" and (r + j) % 2 == 1
                    jobs.append(Job("r%d.%d" % (r, len(jobs)),
                                    "%s deg<=%d%s" % (label, d,
                                                      " *y" if times_y else ""),
                                    (m, polys, times_y)))
            yield jobs
            r += 1

    def warm_up(self) -> None:
        rng = random.Random("warm-up %d" % self.seed)
        for job in next(self.rounds(rng)):
            self.run(job)

    def run(self, job: Job) -> Result:
        from wildsets import local_symbols as ls
        m, (n1, d1, n2, d2), times_y = job.data
        model = self.models[m][1]
        try:
            start = clock()
            a = model.from_poly(n1) / model.from_poly(d1)
            b = model.from_poly(n2) / model.from_poly(d2)
            if times_y:
                b = b * self.y
            value = ls.reciprocity_product(a, b)
            seconds = clock() - start
        except Exception as exc:  # the benchmark records, never crashes
            return Result(job, clock() - start, EXCEPTION, repr(exc))
        if value != 1:
            return Result(job, seconds, WRONG, "product %r" % (value,))
        return Result(job, seconds, OK)


def _random_poly(rng, q, d) -> Tuple[int, ...]:
    while True:
        coeffs = tuple(rng.randrange(q) for _ in range(d + 1))
        if any(coeffs):
            return coeffs


# ---------------------------------------------------------------------------
# ranks: Sing/Delta/G ranks and the two checked identities


class Ranks(Workload):
    """One op runs g_rank, sing_space, delta_space, check_pic_rank_formula
    and check_lin_dep_lemma on one removed set S."""

    name = "ranks"
    pass_rounds = 6
    trace_rounds = 2
    LINES = (3, 5, 9, 13)
    CURVES = ("t^3 + 4t", "t^3 + 2")
    SIZES = (1, 2, 3, 4)
    # Two wide sets of 13 places per round keep the 11th-slowest op inside
    # one cluster; the third covers the rest of the 10..13 range.
    WIDE = (13, 13)
    WIDE_CYCLE = (10, 11, 12)
    # Two sets per size on the cheap F_3 and F_5 lines put the median op
    # inside the dense 15-30 ms band of F_5 and curve sets, not in the
    # sparse 30-50 ms band above it, where it moved by 15 % between seeds.
    TWICE = ("F3", "F5")

    def __init__(self, seed: int, workdir: str):
        from wildsets.base_algebra import GF, poly_parse
        from wildsets.elliptic_curve import EllipticModel
        from wildsets.projective_line import ProjectiveLine
        self.models = [("F%d" % q, ProjectiveLine(GF(q))) for q in self.LINES]
        self.models += [("E5[%s]" % f, EllipticModel(GF(5), poly_parse(f, GF(5))))
                        for f in self.CURVES]
        self.pools = []
        for label, model in self.models:
            pools = {d: model.places_of_degree(d) for d in (1, 2, 3)}
            if label.startswith("E"):
                pools[1] = [P for P in pools[1] if not P.is_infinite]
            self.pools.append(pools)
        self.wide_model = self.LINES.index(5)

    def rounds(self, rng: random.Random) -> Iterator[List[Job]]:
        r = 0
        while True:
            jobs = []
            for k in self.SIZES:
                for m, (label, model) in enumerate(self.models):
                    for _ in range(2 if label in self.TWICE else 1):
                        if label.startswith("E"):
                            S = [model.infinity] + _sample_places(
                                rng, self.pools[m], k - 1, (1, 2, 3))
                        else:
                            S = _sample_places(rng, self.pools[m], k, (1, 2, 3))
                        jobs.append(Job("r%d.%d" % (r, len(jobs)),
                                        "%s |S|=%d" % (label, k), (m, tuple(S))))
            for k in self.WIDE + (self.WIDE_CYCLE[r % len(self.WIDE_CYCLE)],):
                m = self.wide_model
                S = _sample_places(rng, self.pools[m], k, (1, 2, 3))
                jobs.append(Job("r%d.%d" % (r, len(jobs)),
                                "%s wide |S|=%d" % (self.models[m][0], k),
                                (m, tuple(S))))
            # spread the slow strata over the round
            order = sorted(range(len(jobs)), key=lambda i: (i % 7, i))
            yield [jobs[i] for i in order]
            r += 1

    def warm_up(self) -> None:
        for m, (label, model) in enumerate(self.models):
            S = (model.infinity,) if label.startswith("E") else \
                (self.pools[m][1][0],)
            self.run(Job("warm-up", label, (m, S)))

    def run(self, job: Job) -> Result:
        from wildsets import square_class_spaces as scs
        m, S = job.data
        label, model = self.models[m]
        try:
            start = clock()
            g = scs.g_rank(model, S)
            sing = scs.sing_space(model, S)
            delta = scs.delta_space(model, S)
            pic = scs.check_pic_rank_formula(model, S)
            lemma = scs.check_lin_dep_lemma(model, S)
            seconds = clock() - start
        except Exception as exc:  # a failed identity raises; so does a bug
            return Result(job, clock() - start, EXCEPTION, repr(exc))
        problems = []
        if sing.rank - delta.rank != len(S):
            problems.append("rk Sing - rk Delta = %d, |S| = %d"
                            % (sing.rank - delta.rank, len(S)))
        if lemma["classes_independent"] != (g.rank == len(S)):
            problems.append("lemma independence disagrees with g_rank")
        if pic["formula_rank"] != 1 + model.pic_zero_two_rank() - g.rank:
            problems.append("formula rank disagrees with g_rank")
        if not label.startswith("E"):
            # Pic of the line is Z by degree: rank 1 iff some degree is odd
            expected = 1 if any(P.degree % 2 for P in S) else 0
            if g.rank != expected:
                problems.append("rk G %d, degree parity says %d"
                                % (g.rank, expected))
        if problems:
            return Result(job, seconds, WRONG, "; ".join(problems))
        return Result(job, seconds, OK)


# ---------------------------------------------------------------------------
# certify: `wildsets construct` then `wildsets verify`, in process

CURVE = "t^3 + 4t"
INERT = ("(t^2 + 2; inert)", "(t^2 + 3; inert)")
RAMIFIED = ("(t; ramified)", "(t + 1; ramified)", "(t + 4; ramified)")
# the criterion-5 job: two independent points, two 2-divisible ones
GENERAL = (RAMIFIED[:2], INERT)
MUTATIONS = ("reverse quotient_images", "drop a claimed place", "S is [1]")


class CliCall(NamedTuple):
    code: object  # exit code, or the escaped exception
    seconds: float
    out: str
    err: str


class Certify(Workload):
    """Construct-and-verify jobs, tampered certificates, expected refusals.

    Every CLI command builds its model afresh, as a CLI process would.
    """

    name = "certify"
    pass_rounds = 3
    trace_rounds = 1
    LINES = (5, 9, 13)
    # (q, |S|, places of degree 1) for the line jobs of a round, in run
    # order; the rest of S has degree 2, so a job has rank 0 exactly when
    # it has no degree-1 place.  A fixed degree mix fixes the construction
    # path, so the seed varies only which places are drawn.
    # The mix also puts the median op inside a cluster of similar costs
    # rather than at a gap between two, so the median does not jump.
    LINE_JOBS = (
        ((5, 2, 0), (5, 2, 1), (9, 2, 0), (9, 2, 1), (13, 2, 0)),
        ((5, 3, 1), (5, 3, 3), (9, 3, 1), (13, 3, 2)),
        ((5, 4, 4), (9, 4, 4), (13, 4, 4)),
    )

    def __init__(self, seed: int, workdir: str):
        from wildsets.base_algebra import GF
        from wildsets.projective_line import ProjectiveLine
        self.pools = {}
        for q in self.LINES + (3,):
            line = ProjectiveLine(GF(q))
            self.pools[q] = {d: [str(P) for P in line.places_of_degree(d)]
                             for d in (1, 2)}
        self.cert_path = os.path.join(workdir, "cert.json")
        self.tampered_path = os.path.join(workdir, "tampered.json")
        self.last_cert: Optional[str] = None  # what tamper jobs mutate
        self.tracer = None  # set by a traced run, to tag verify commands

    def rounds(self, rng: random.Random) -> Iterator[List[Job]]:
        r = 0
        while True:
            jobs = []

            def add(kind, label, data):
                jobs.append(Job("r%d.%d" % (r, len(jobs)),
                                "%s %s" % (kind, label), (kind,) + data))

            for i, line_jobs in enumerate(self.LINE_JOBS):
                for q, k, odd in line_jobs:
                    S = rng.sample(self.pools[q][1], odd) + \
                        rng.sample(self.pools[q][2], k - odd)
                    rng.shuffle(S)
                    rank = "1" if odd else "0"
                    add("construct", "F%d rank %s {%s}" % (q, rank, ", ".join(S)),
                        (q, None, rank, tuple(S), None))
                if i == 0:
                    pick = tuple(rng.sample(INERT, 2))
                    add("construct", "E5 rank 0 {%s}" % ", ".join(pick),
                        (5, CURVE, "0", pick, None))
                elif i == 1:
                    pick = (rng.choice(RAMIFIED), rng.choice(INERT))
                    add("construct", "E5 rank 1 {%s}" % ", ".join(pick),
                        (5, CURVE, "1", pick, None))
                else:
                    add("construct", "E5 general {%s} + {%s}"
                        % (", ".join(GENERAL[0]), ", ".join(GENERAL[1])),
                        (5, CURVE, "general", GENERAL[0], GENERAL[1]))
                # Two refusals of each kind per round: they take 2 ms, and
                # with one of each the median op fell in the gap between
                # the F_5 jobs and the F_9 and curve jobs above them.
                if i != 2:
                    pair = tuple(rng.sample(self.pools[3][1], 2))
                    add("refusal", "F3 rank 1 {%s}" % ", ".join(pair),
                        (3, None, "1", pair, None))
                if i != 1:
                    q = rng.choice(self.LINES)
                    single = (rng.choice(self.pools[q][1]),)
                    add("refusal", "F%d rank 1 {%s}" % (q, single[0]),
                        (q, None, "1", single, None))
                add("tamper", MUTATIONS[i], (i, rng.random()))
            yield jobs
            r += 1

    def warm_up(self) -> None:
        self.run(Job("warm-up", "construct F5 rank 1",
                     ("construct", 5, None, "1", ("t", "t + 4"), None)))
        self.reset()

    def reset(self) -> None:
        self.last_cert = None

    # -- running the CLI in process

    def _cli(self, argv: List[str], tag: str = "") -> CliCall:
        from wildsets import cli
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.tag = tag
        start = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
        except SystemExit as exc:  # argparse exits on unusable argv
            code = exc.code
        except Exception as exc:  # recorded as a failed op, never a pass
            code = exc
        seconds = clock() - start
        if self.tracer is not None:
            self.tracer.tag = ""
        return CliCall(code, seconds, out.getvalue(), err.getvalue())

    def run(self, job: Job) -> Optional[Result]:
        """None for a tamper job whose mutation would change nothing."""
        kind = job.data[0]
        if kind == "tamper":
            return self._run_tamper(job)
        _, q, curve, rank, places, aux = job.data
        argv = ["construct", "--q", str(q), "--rank", rank,
                "--places", ", ".join(places), "--out", self.cert_path]
        if curve is not None:
            argv += ["--curve", curve]
        if aux is not None:
            argv += ["--aux", ", ".join(aux)]
        if os.path.exists(self.cert_path):
            os.remove(self.cert_path)
        made = self._cli(argv)
        if kind == "refusal":
            return self._expect_refusal(job, made)
        status, detail = _check_exit(made, 0)
        if status != OK:
            return Result(job, made.seconds, status, detail)
        wild = set(places) | set(aux or ())
        line = "wild set: {%s}" % ", ".join(sorted(wild))
        if line not in made.out.splitlines():
            return Result(job, made.seconds, WRONG,
                          "construct printed %r" % made.out[:200])
        if not os.path.exists(self.cert_path):
            return Result(job, made.seconds, WRONG,
                          "construct exited 0 but wrote no certificate")
        with open(self.cert_path) as handle:
            cert = handle.read()
        checked = self._cli(["verify", "--cert", self.cert_path], "verify")
        seconds = made.seconds + checked.seconds
        status, detail = _check_exit(checked, 0)
        if status != OK:
            return Result(job, seconds, status, "verify: " + detail)
        lines = checked.out.splitlines()
        if line not in lines or "verdict: pass" not in lines:
            return Result(job, seconds, WRONG,
                          "verify printed %r" % checked.out[:200])
        self.last_cert = cert
        return Result(job, seconds, OK, read_seconds=checked.seconds)

    def _expect_refusal(self, job: Job, made: CliCall) -> Result:
        if made.code == 0:
            return Result(job, made.seconds, WRONG,
                          "built a certificate the hypothesis rules out")
        return Result(job, made.seconds, *_check_exit(made, 3))

    def _tampered(self, job: Job) -> Optional[str]:
        """The mutated certificate text, or None when it would not change."""
        if self.last_cert is None:
            return None
        which, pick = job.data[1], job.data[2]
        data = json.loads(self.last_cert)
        if which == 0:
            data["quotient_images"] = list(reversed(data["quotient_images"]))
        elif which == 1:
            claimed = data["claimed_wild_set"]
            if claimed:
                del claimed[int(pick * len(claimed))]
        else:
            data["S"] = [1]
        if data == json.loads(self.last_cert):
            return None
        return json.dumps(data, indent=2)

    def _run_tamper(self, job: Job) -> Optional[Result]:
        text = self._tampered(job)
        if text is None:
            return None
        with open(self.tampered_path, "w") as handle:
            handle.write(text + "\n")
        checked = self._cli(["verify", "--cert", self.tampered_path], "tamper")
        if checked.code == 0:
            return Result(job, checked.seconds, WRONG,
                          "a tampered certificate passed verification")
        if checked.code in (2, 3):
            return Result(job, checked.seconds, OK)
        return Result(job, checked.seconds, *_check_exit(checked, 3))


def _check_exit(call: CliCall, expected: int) -> Tuple[str, str]:
    if isinstance(call.code, BaseException):
        return EXCEPTION, "%s escaped" % type(call.code).__name__
    if call.code == expected:
        return OK, ""
    message = call.err.strip().splitlines()[-1:] or [""]
    status = REFUSED if call.code == 3 else EXIT
    return status, "exit %s: %s" % (call.code, message[0][:160])


WORKLOADS = {"symbols": Symbols, "ranks": Ranks, "certify": Certify}


def job_rounds(workload, seed: int) -> Iterator[List[Job]]:
    """The workload's rounds of jobs for one benchmark seed."""
    return workload.rounds(random.Random("%s %d" % (workload.name, seed)))
