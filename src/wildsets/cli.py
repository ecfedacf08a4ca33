"""Command-line surface for the package.

One process, one command.  Symbol and rank queries print their value;
`construct` emits a certificate (optionally to a file), `verify` and
`wild` re-check one, and `selftest` runs the embedded invariant checks.
Exit codes tell the four outcomes apart: 0 success; 2 unusable input,
an empty or repeated place list included; 3 a refusal (a proof that the
set is not wild, a failed certificate check, or a failed sufficient
hypothesis of the chosen route); 4 undecided (a bounded search ran out
or found nothing in its space).

The argument parser is built once per process and reused by every call
of run.  Each subcommand accepts only the options it reads.

Places and elements are written as polynomials in t (reduced mod p),
`inf` for the infinite place, and `(base; kind; branch)` for places of
an elliptic model.  Lists are comma separated; commas inside
parentheses do not split.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from typing import List, Sequence

from .base_algebra import GF, MAX_FIELD_SIZE, checked_field, poly_parse
from .constructions import (
    construct_general,
    construct_rank0,
    construct_rank1,
)
from .elliptic_curve import EllipticModel
from .equivalence_core import (
    DEGREE_CAP,
    SMALL_EQUIVALENCE_CHECKS,
    certificate_from_json,
    certificate_to_json,
)
from .errors import HypothesisError, SearchExhausted, VerificationError
from .local_symbols import (
    LocalMap,
    PI,
    U,
    U_PI,
    hilbert_symbol,
    reciprocity_product,
)
from .projective_line import ProjectiveLine
from .square_class_spaces import (
    _delta_of,
    _sing_relations,
    check_lin_dep_lemma,
    check_pic_rank_formula,
    delta_space,
    g_rank,
    pic_complement_two_rank,
    sing_space,
    smile,
)

__all__ = ["MAX_FIELD_SIZE", "run", "main"]


def _model(args):
    if args.q is None:
        raise ValueError("--q is required for this command")
    field = checked_field(args.q)
    if args.curve is None:
        return ProjectiveLine(field)
    return EllipticModel(field, poly_parse(args.curve, field))


def _split_list(text: str) -> List[str]:
    """Split on commas at parenthesis depth zero."""
    parts, cur, depth = [], [], 0
    for ch in text:
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
            continue
        depth += ch == "("
        depth -= ch == ")"
        cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def _places(model, text: str) -> List:
    return [model.parse_place(s) for s in _split_list(text)]


def _emit(fmt: str, payload: dict, lines: Sequence[str]) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


# -- subcommands

def _cmd_hilbert(args) -> int:
    model = _model(args)
    place = model.parse_place(args.place)
    value = hilbert_symbol(model.parse(args.a), model.parse(args.b), place)
    _emit(args.format, {"symbol": value}, ["%+d" % value])
    return 0


def _cmd_reciprocity(args) -> int:
    model = _model(args)
    value = reciprocity_product(model.parse(args.a), model.parse(args.b))
    _emit(args.format, {"product": value}, ["%+d" % value])
    return 0


def _cmd_ranks(args) -> int:
    model = _model(args)
    S = _places(model, args.places)
    g = g_rank(model, S).rank
    sing, _, relations = _sing_relations(model, S)
    ranks = {
        "sing": sing.rank,
        "delta": _delta_of(model, sing, relations).rank,
        "g": g,
        "pic_y": pic_complement_two_rank(model, S),
    }
    _emit(args.format, ranks, [
        "rk Sing %d" % ranks["sing"],
        "rk Delta %d" % ranks["delta"],
        "rk G %d" % ranks["g"],
        "rk PicY %d" % ranks["pic_y"],
    ])
    return 0


def _cmd_smile(args) -> int:
    model = _model(args)
    S = _places(model, args.places)
    if len(S) != 2:
        raise ValueError("smile expects exactly two places, got %d" % len(S))
    value = smile(model, S[0], S[1])
    _emit(args.format, {"smile": value}, ["yes" if value else "no"])
    return 0


def _cmd_construct(args) -> int:
    model = _model(args)
    if args.degree_cap < 1:
        raise ValueError("the degree cap must be positive")
    if args.aux is not None and args.rank != "general":
        raise ValueError("--aux is read only by --rank general")
    S = _places(model, args.places)
    if args.rank == "0":
        cert = construct_rank0(model, S, args.degree_cap)
    elif args.rank == "1":
        cert = construct_rank1(model, S, args.degree_cap)
    else:
        aux = _places(model, args.aux or "")
        if not aux:
            raise ValueError(
                "--rank general needs the 2-divisible points in --aux")
        cert = construct_general(model, S, aux, args.degree_cap)
    blob = certificate_to_json(cert)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(blob + "\n")
    report = {
        "wild_set": sorted(str(P) for P in cert.wild_set),
        "places": len(cert.equivalence.places),
        "out": args.out,
    }
    lines = ["wild set: {%s}" % ", ".join(report["wild_set"]),
             "certificate places: %d" % report["places"]]
    if args.out:
        lines.append("written to %s" % args.out)
    elif args.format == "text":
        lines.append(blob)
    if args.format == "json" and not args.out:
        print(blob)
    else:
        _emit(args.format, report, lines)
    return 0


def _load_certificate(path: str):
    with open(path) as handle:
        return certificate_from_json(handle.read())


def _cmd_verify(args) -> int:
    # loading runs certify, whose report already holds every check
    cert = _load_certificate(args.cert)
    report = cert.report
    payload = {
        "passes": report["passes"],
        "checks": {k: report[k] for k in sorted(SMALL_EQUIVALENCE_CHECKS)},
        "wild_set": sorted(str(P) for P in cert.wild_set),
        # a WildSetCertificate cannot exist without it
        "necessary_condition": True,
    }
    lines = ["%s: %s" % (k, "pass" if v else "FAIL")
             for k, v in payload["checks"].items()]
    lines.append("wild set: {%s}" % ", ".join(payload["wild_set"]))
    lines.append("verdict: %s" % ("pass" if report["passes"] else "FAIL"))
    _emit(args.format, payload, lines)
    return 0 if report["passes"] else 3


def _cmd_wild(args) -> int:
    cert = _load_certificate(args.cert)
    wild = sorted(str(P) for P in cert.wild_set)
    _emit(args.format, {"wild_set": wild}, wild or ["(empty)"])
    return 0


# -- the embedded selftest battery

def _random_function(model, rng: random.Random):
    field = model.field
    def poly():
        while True:
            coeffs = [rng.randrange(field.q) for _ in range(4)]
            if any(coeffs):
                return coeffs
    return model.from_poly(poly()) / model.from_poly(poly())


def _selftest(seed: int) -> List[str]:
    failures = []

    def check(label, fn):
        try:
            fn()
        except Exception as exc:  # the battery reports, never crashes
            failures.append("%s: %s" % (label, exc))

    def local_map_laws():
        twist = LocalMap.tame_twist()
        assert not twist.is_wild
        assert twist.compose(twist).is_identity
        for iu in (U, PI, U_PI):
            for ip in (U, PI, U_PI):
                if iu == ip:
                    continue
                lm = LocalMap(iu, ip)
                assert lm.is_wild == (iu != U)
                assert twist.compose(lm).is_wild == lm.is_wild
    check("local map laws", local_map_laws)

    def reciprocity_battery():
        rng = random.Random(seed)
        for q in (3, 5):
            model = ProjectiveLine(GF(q))
            for _ in range(60):
                a = _random_function(model, rng)
                b = _random_function(model, rng)
                assert reciprocity_product(a, b) == 1
        curve = EllipticModel(GF(5), poly_parse("t^3 + 4t", GF(5)))
        for _ in range(20):
            a = _random_function(curve, rng)
            b = _random_function(curve, rng) * curve.parse("y")
            assert reciprocity_product(a, b) == 1
    check("reciprocity", reciprocity_battery)

    def rank_identities():
        model = ProjectiveLine(GF(5))
        pool = (model.places_of_degree(1) +
                model.places_of_degree(2)[:3])
        sets = [[P] for P in pool]
        sets += [[P, Q] for i, P in enumerate(pool) for Q in pool[i + 1:]]
        for S in sets:
            check_pic_rank_formula(model, S)
            check_lin_dep_lemma(model, S)
            assert sing_space(model, S).rank - delta_space(model, S).rank \
                == len(S)
    check("rank identities", rank_identities)

    def construction_round_trip():
        model = ProjectiveLine(GF(5))
        S = [model.parse_place("t^2 + 2")]
        cert = construct_rank0(model, S)
        blob = certificate_to_json(cert)
        again = certificate_from_json(blob)
        assert certificate_to_json(again) == blob
        pair = construct_rank1(
            model, [model.parse_place("t"), model.parse_place("t - 1")])
        assert len(pair.wild_set) == 2
    check("construction round trip", construction_round_trip)

    return failures


def _cmd_selftest(args) -> int:
    failures = _selftest(args.seed)
    payload = {"failures": failures, "passes": not failures}
    if failures:
        _emit(args.format, payload, ["FAIL %s" % f for f in failures])
        return 1
    _emit(args.format, payload, ["selftest: all checks passed"])
    return 0


# -- argument plumbing

@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wildsets",
        description="wild sets of self-equivalences of F_q(t) and "
                    "odd elliptic extensions")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_field=True):
        p.add_argument("--format", choices=("text", "json"), default="text")
        if with_field:
            p.add_argument("--q", type=int, default=None,
                           help="size of the constant field")
            p.add_argument("--curve", default=None,
                           help="cubic f(t) for the model y^2 = f(t); "
                                "omit for the projective line")

    p = sub.add_parser("hilbert", help="one local Hilbert symbol")
    common(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--place", required=True)
    p.set_defaults(fn=_cmd_hilbert)

    p = sub.add_parser("reciprocity", help="product of all local symbols")
    common(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(fn=_cmd_reciprocity)

    p = sub.add_parser("ranks", help="ranks of Sing, Delta, G and Pic Y")
    common(p)
    p.add_argument("--places", required=True)
    p.set_defaults(fn=_cmd_ranks)

    p = sub.add_parser("smile", help="the pairing condition for two points")
    common(p)
    p.add_argument("--places", required=True,
                   help="exactly two places, comma separated")
    p.set_defaults(fn=_cmd_smile)

    p = sub.add_parser("construct", help="build a wild-set certificate")
    common(p)
    p.add_argument("--rank", choices=("0", "1", "general"), required=True)
    p.add_argument("--places", required=True,
                   help="the requested wild points (rank general: the "
                        "independent ones)")
    p.add_argument("--aux", default=None,
                   help="rank general only: the 2-divisible points")
    p.add_argument("--out", default=None, help="file for the certificate")
    p.add_argument("--degree-cap", type=int, default=DEGREE_CAP,
                   help="search budget for auxiliary places "
                        "(default %d)" % DEGREE_CAP)
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("verify", help="re-check a certificate file")
    common(p, with_field=False)
    p.add_argument("--cert", required=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("wild", help="recomputed wild set of a certificate")
    common(p, with_field=False)
    p.add_argument("--cert", required=True)
    p.set_defaults(fn=_cmd_wild)

    p = sub.add_parser("selftest", help="run the embedded invariant checks")
    common(p, with_field=False)
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the random reciprocity battery")
    p.set_defaults(fn=_cmd_selftest)

    return parser


def run(argv=None) -> int:
    """Parse argv, dispatch, and map errors to documented exit codes."""
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except (HypothesisError, VerificationError) as exc:
        print("refused: %s" % exc, file=sys.stderr)
        return 3
    except SearchExhausted as exc:
        print("search exhausted: %s" % exc, file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
