"""End-to-end tests of the command-line interface.

Most cases drive run() in process and read capsys; the certificate
round trip also goes through a genuinely fresh interpreter, since that
is the workflow the JSON format exists for.
"""

import argparse
import ast
import functools
import hashlib
import itertools
import json
import os
import pathlib
import random
import shlex
import subprocess
import sys
import time

import pytest

import wildsets
from expression_oracle import parse_whole
from wildsets import cli, constructions, equivalence_core, square_class_spaces
from wildsets.base_algebra import GF, poly_is_irreducible, poly_str
from wildsets.cli import MAX_FIELD_SIZE, run
from wildsets.equivalence_core import (
    PreEquivalence,
    certificate_to_json,
    certify,
    check_necessary_condition,
)
from wildsets.function_field import Model
from wildsets.local_symbols import LocalMap, minus_one_is_square
from wildsets.projective_line import ProjectiveLine
from wildsets.square_class_spaces import sing_space


def lines_of(capsys):
    return capsys.readouterr().out.strip().splitlines()


def fresh_interpreter(*args):
    """Run Python on args with this wildsets importable, as installed."""
    source = str(pathlib.Path(wildsets.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (source, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


def test_hilbert_symbol_query(capsys):
    assert run(["hilbert", "--q", "5", "--a", "t", "--b", "2",
                "--place", "t"]) == 0
    assert lines_of(capsys) == ["-1"]


def test_reciprocity_is_plus_one(capsys):
    assert run(["reciprocity", "--q", "5", "--a", "(t-1)/(t+2)",
                "--b", "t^3 + 2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"product": 1}


def test_ranks_report(capsys):
    assert run(["ranks", "--q", "5", "--places", "t^2+2"]) == 0
    assert lines_of(capsys) == [
        "rk Sing 2", "rk Delta 1", "rk G 0", "rk PicY 1"]


def test_smile_query(capsys):
    assert run(["smile", "--q", "5", "--places", "t^2+2,t^2+3"]) == 0
    assert lines_of(capsys) == ["yes"]


def test_construct_verify_round_trip(tmp_path, capsys):
    cert = tmp_path / "c.json"
    assert run(["construct", "--q", "5", "--rank", "1",
                "--places", "t,t-1", "--out", str(cert)]) == 0
    out = capsys.readouterr().out
    assert "wild set: {t, t + 4}" in out
    # verification in a fresh interpreter, as a consumer would run it
    probe = ("import sys; from wildsets.cli import run; "
             "sys.exit(run(sys.argv[1:]))")
    done = fresh_interpreter("-c", probe, "verify", "--cert", str(cert))
    assert done.returncode == 0, done.stderr
    assert "verdict: pass" in done.stdout


def test_construct_output_is_reproducible(tmp_path, capsys):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    for path in (first, second):
        assert run(["construct", "--q", "5", "--rank", "0",
                    "--places", "t^2+2", "--out", str(path)]) == 0
    capsys.readouterr()
    assert first.read_text() == second.read_text()


def test_wild_lists_the_wild_points(tmp_path, capsys):
    cert = tmp_path / "c.json"
    run(["construct", "--q", "5", "--rank", "1", "--places", "t,t-1",
         "--out", str(cert)])
    capsys.readouterr()
    assert run(["wild", "--cert", str(cert)]) == 0
    assert lines_of(capsys) == ["t", "t + 4"]


def test_elliptic_construct_through_the_cli(tmp_path, capsys):
    cert = tmp_path / "c.json"
    assert run(["construct", "--q", "5", "--curve", "t^3 + 4t",
                "--rank", "general",
                "--places", "(t; ramified),(t + 1; ramified)",
                "--aux", "(t^2 + 2; inert),(t^2 + 3; inert)",
                "--out", str(cert)]) == 0
    capsys.readouterr()
    assert run(["verify", "--cert", str(cert)]) == 0
    assert "verdict: pass" in capsys.readouterr().out


def test_refusal_exits_three(capsys):
    assert run(["construct", "--q", "5", "--rank", "0",
                "--places", "t"]) == 3
    assert "not 2-divisible" in capsys.readouterr().err


def test_search_exhaustion_exits_four(capsys, monkeypatch):
    monkeypatch.setattr(equivalence_core, "DEGREE_CAP", 1)
    assert run(["construct", "--q", "5", "--rank", "1",
                "--places", "t,t-1,t-2"]) == 4
    assert "degree <= 1" in capsys.readouterr().err


# rank 1 over F_5 whose compositions reach the matching fallback
FALLBACK_ARGV = ["construct", "--q", "5", "--rank", "1",
                 "--places", "t + 4, t + 2, t^2 + t + 1, t^2 + 3"]


# what a matching search that its node allowance cuts prints
CUT_TEXT = ("search exhausted: the matching search for the wild locus {%s} "
            "was cut at its allowance of %d orderings and twist patterns "
            "before it finished its image pool\n")


def test_matching_cap_exhaustion_exits_four(capsys, monkeypatch):
    # 1 node cuts the first twist walk of the last search; 3 nodes cut
    # the walk over the 24 orderings of the last compose's pool
    for allowance, locus in ((1, "t^2 + t + 1, t^2 + 3"),
                             (3, "t + 4, t + 2, t^2 + t + 1, t^2 + 3")):
        monkeypatch.setattr(equivalence_core, "MATCHING_ALLOWANCE", allowance)
        assert run(FALLBACK_ARGV) == 4
        assert capsys.readouterr().err == CUT_TEXT % (locus, allowance)


def test_twist_walk_exhaustion_exits_four(capsys, monkeypatch):
    # both searches of the first compose examine at least 2 twist
    # patterns in their first ordering, so 2 nodes cut a twist walk
    monkeypatch.setattr(equivalence_core, "MATCHING_ALLOWANCE", 2)
    assert run(FALLBACK_ARGV) == 4
    assert capsys.readouterr().err == CUT_TEXT % ("t^2 + t + 1, t^2 + 3", 2)


def _sing_eliminations(monkeypatch, argv, out=None):
    """Exit code of argv and the eliminations of Sing(S) it made.

    Every quotient_basis and every delta_space eliminates the class table
    of Sing(S) through _sing_relations, so the count covers both.
    """
    calls = []
    real = square_class_spaces._sing_relations

    def counting(model, S):
        calls.append(S)
        return real(model, S)

    for module in (square_class_spaces, equivalence_core):
        monkeypatch.setattr(module, "_sing_relations", counting)
    return run(argv + (["--out", str(out)] if out else [])), len(calls)


# six degree-1 places over F_13: the fallback's winner is ordering 121
# of 720, out of the pool's order.  A walk that builds a quotient basis
# per ordering builds 123 of them here, and 25 for FALLBACK_ARGV
SIX_POINT_ARGV = ["construct", "--q", "13", "--rank", "1", "--places",
                  "t, t + 1, t + 2, t + 3, t + 4, t + 5"]
SIX_POINT_SHA256 = \
    "d6698b9c0022941fbcb60b06ccc3059b3a3576496c69febc17b455a273f067e7"


def test_fallback_builds_one_basis_per_side(capsys, monkeypatch, tmp_path):
    cert = tmp_path / "six.json"
    code, built = _sing_eliminations(monkeypatch, SIX_POINT_ARGV, cert)
    assert (code, capsys.readouterr().err) == (0, "")
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == SIX_POINT_SHA256
    assert built <= 4
    # every ordering of the pool fails here, within the default allowance
    code, built = _sing_eliminations(monkeypatch, FALLBACK_ARGV)
    assert capsys.readouterr().err == (
        "search exhausted: no matching of the wild locus {t + 4, t + 2, "
        "t^2 + t + 1, t^2 + 3} into its image pool realizes the composed "
        "local maps within the search budget\n")
    assert code == 4 and built <= 5


def test_an_allowance_of_the_nodes_a_search_uses_is_enough(
        capsys, monkeypatch, tmp_path):
    # the six-point search wins after 123 nodes, 122 orderings and one
    # twist pattern; the winner's second solve, on its own basis, is not
    # charged again
    cert = tmp_path / "six.json"
    monkeypatch.setattr(equivalence_core, "MATCHING_ALLOWANCE", 123)
    assert run(SIX_POINT_ARGV + ["--out", str(cert)]) == 0
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == SIX_POINT_SHA256
    capsys.readouterr()
    monkeypatch.setattr(equivalence_core, "MATCHING_ALLOWANCE", 122)
    assert run(SIX_POINT_ARGV) == 4
    assert capsys.readouterr().err == CUT_TEXT % (
        "t, t + 1, t + 2, t + 3, t + 4, t + 5", 122)


# five degree-1 places over F_13: the fallback's image pool is not the
# wild locus, so every ordering permutes the pool's own class table
FIVE_POINT_ARGV = ["construct", "--q", "13", "--rank", "1", "--places",
                   "t, t + 1, t + 2, t + 3, t + 4"]
FIVE_POINT_SHA256 = \
    "fa56529a4b56e4af6eea3f543d36814250d7cabdd73f895c3dce0293ed83ea1d"


def test_fallback_on_another_pool_is_pinned(capsys, tmp_path):
    cert = tmp_path / "five.json"
    assert run(FIVE_POINT_ARGV + ["--out", str(cert)]) == 0
    assert capsys.readouterr().err == ""
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == FIVE_POINT_SHA256


@pytest.mark.parametrize("q", ["5", "13"])
def test_composite_repeating_an_image_exits_four(capsys, q):
    # the head pair swaps t^2 + 2 and t; the tail triple sends t + 3 to
    # its auxiliary point t^2 + 2, so the composite sends t and t + 3 to
    # t^2 + 2, and no injective matching into that image pool exists
    assert run(["construct", "--q", q, "--rank", "1", "--places",
                "t^2 + 2, t, t + 1, t + 2, t + 3"]) == 4
    assert capsys.readouterr().err.startswith(
        "search exhausted: no matching of the wild locus")


def test_triple_without_fitting_images_exits_four(capsys, monkeypatch):
    # the witness search is complete; when it still finds nothing, a
    # hypothesis failed undetected, which proves nothing about the set
    refused = []

    def refuse(pe):
        refused.append(pe)
        return ("diagram breaks at t on 2",)

    monkeypatch.setattr(constructions, "verify_pre_equivalence", refuse)
    assert run(["construct", "--q", "5", "--rank", "1",
                "--places", "t, t + 1, t + 4"]) == 4
    assert "no combination of the witnesses" in capsys.readouterr().err
    assert refused


# SHA-256 of the census transcript: (exit code, stdout, stderr) of every
# set, recorded before the extension and glue stopped rebuilding spaces
CENSUS_TRANSCRIPT = \
    "d2d46f7a8aecb8743e1d4a541c7ac93fdcec5a292cc92dd25508fe9df497c260"


def test_small_line_census_exits_three_only_on_a_proof(capsys, monkeypatch):
    # every set of 1-3 distinct places of degree <= 2 on the F_5 line;
    # without --out construct prints the certificate, so the transcript
    # pins every certificate and refusal line byte for byte
    L = ProjectiveLine(GF(5))
    pool = L.places_of_degree(1) + L.places_of_degree(2)
    assert len(pool) == 16
    # q = 1 mod 4: the -1 condition holds everywhere, leaves |S| >= 2 rk G
    assert all(minus_one_is_square(P) for P in pool)
    sets = [S for size in (1, 2, 3)
            for S in itertools.combinations(pool, size)]
    assert len(sets) == 696
    transcript = hashlib.sha256()
    for S in sets:
        code = run(["construct", "--q", "5", "--rank", "1",
                    "--places", ", ".join(map(str, S))])
        out, err = capsys.readouterr()
        transcript.update(json.dumps([code, out, err]).encode() + b"\n")
        if code == 0:
            wild = "wild set: {%s}" % ", ".join(sorted(map(str, S)))
            assert wild in out.splitlines(), S
        elif code == 3:
            assert not check_necessary_condition(L, S), (S, err)
        else:
            assert code == 4, (S, code, err)
    assert transcript.hexdigest() == CENSUS_TRANSCRIPT


def test_parser_is_built_at_most_once_per_process(capsys, monkeypatch):
    # only the top-level parser adds subparsers: one call per build
    built = []
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def counting(self, **kwargs):
        built.append(self)
        return add_subparsers(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting)
    for argv in (["ranks", "--q", "5", "--places", "t"],
                 ["smile", "--q", "5", "--places", "t^2+2, t^2+3"],
                 ["verify", "--cert", "/nonexistent/path.json"]):
        run(argv)
    assert len(built) <= 1
    capsys.readouterr()


def test_unusable_input_exits_two(capsys):
    assert run(["hilbert", "--q", "6", "--a", "t", "--b", "2",
                "--place", "t"]) == 2
    assert run(["ranks", "--q", "5", "--places", "not a poly"]) == 2
    assert run(["construct", "--q", "5", "--rank", "general",
                "--places", "t"]) == 2
    assert run(["verify", "--cert", "/nonexistent/path.json"]) == 2
    # --aux is read by --rank general alone
    assert run(["construct", "--q", "5", "--rank", "1",
                "--places", "t, t-1", "--aux", "t"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == \
        "error: --aux is read only by --rank general"
    # a place that is no polynomial of positive degree is quoted as given,
    # and so is a reducible one, each with the fault found
    assert run(["ranks", "--q", "5", "--places", "2"]) == 2
    assert capsys.readouterr().err == "error: a finite place needs an " \
        "irreducible polynomial, but '2' is constant\n"
    assert run(["ranks", "--q", "5", "--places", "2t^2+2"]) == 2
    assert capsys.readouterr().err == "error: a finite place needs an " \
        "irreducible polynomial, but '2*t^2 + 2' is reducible\n"
    assert run(["ranks", "--q", "5", "--curve", "t^3 + 4t",
                "--places", "(2t^2 - 2; split)"]) == 2
    assert capsys.readouterr().err == "error: finite places sit over " \
        "irreducibles, but '2*t^2 + 3' is reducible\n"
    # a non-monic irreducible is the place of its monic multiple
    outputs = []
    for text in ("2t+4", "t+2"):
        assert run(["ranks", "--q", "5", "--places", text]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    # an option the subcommand does not read is a usage error: a seed
    # outside selftest, a field in selftest, and a degree cap anywhere,
    # since no command reads one
    for argv in (["ranks", "--seed", "1", "--q", "5", "--places", "t"],
                 ["construct", "--q", "5", "--rank", "1", "--places", "t, t-1",
                  "--degree-cap", "6"],
                 ["selftest", "--q", "5"]):
        with pytest.raises(SystemExit) as usage:
            run(argv)
        assert usage.value.code == 2, argv
    capsys.readouterr()


CURVE = ["--q", "5", "--curve", "t^3 + 4t"]
RAMIFIED = "(t; ramified), (t + 1; ramified)"

# Every construction refusal a `construct` command line reaches: the
# arguments after `construct`, the exit code and the whole stderr line.
CONSTRUCT_REFUSALS = [
    (["--q", "5", "--rank", "1", "--places", ""], 2,
     "error: the removed set must contain at least one place"),
    (["--q", "5", "--rank", "0", "--places", ""], 2,
     "error: the removed set must contain at least one place"),
    (["--q", "5", "--rank", "1", "--places", "t, t^2+2, t"], 2,
     "error: the removed set has repeated places"),
    (["--q", "5", "--rank", "0", "--places", "t^2+2, t^2+2"], 2,
     "error: the removed set has repeated places"),
    (["--q", "5", "--rank", "general", "--places", "t, t",
      "--aux", "t^2+2, t^2+3"], 2,
     "error: the removed set has repeated places"),
    (["--q", "5", "--rank", "general", "--places", "t",
      "--aux", "t^2+2, t^2+2"], 2,
     "error: the removed set has repeated places"),
    (["--q", "5", "--rank", "general", "--places", "t^2+2",
      "--aux", "t^2+2"], 2,
     "error: the removed set has repeated places"),
    (["--q", "5", "--rank", "0", "--places", "t"], 3,
     "refused: the class of t is not 2-divisible, so the set has "
     "positive rank"),
    (["--q", "5", "--rank", "1", "--places", "t"], 3,
     "refused: a wild set of rank 1 needs at least 2 points, got 1"),
    (CURVE + ["--rank", "1", "--places", RAMIFIED], 3,
     "refused: the classes of S span rank 2; this construction needs "
     "rank at most 1"),
    (CURVE + ["--rank", "1", "--places", RAMIFIED + ", (t^2 + 2; inert)"], 3,
     "refused: the classes of S span rank 2; this construction needs "
     "rank at most 1"),
    (["--q", "3", "--rank", "1", "--places", "t, t+1"], 3,
     "refused: -1 is not a local square at t"),
    (["--q", "3", "--rank", "1", "--places", "t"], 3,
     "refused: -1 is not a local square at t"),
    (["--q", "3", "--rank", "general", "--places", "t",
      "--aux", "t^2+1"], 3,
     "refused: -1 is not a local square at t"),
    (["--q", "5", "--rank", "general", "--places", "t"], 2,
     "error: --rank general needs the 2-divisible points in --aux"),
    (["--q", "5", "--rank", "general", "--places", "t", "--aux", ""], 2,
     "error: --rank general needs the 2-divisible points in --aux"),
    (CURVE + ["--rank", "general", "--places", RAMIFIED,
              "--aux", "(t^2 + 2; inert)"], 3,
     "refused: 2 independent classes need at least as many 2-divisible "
     "points, got 1"),
    (["--q", "5", "--rank", "general", "--places", "t, t+1",
      "--aux", "t^2+2, t^2+3"], 3,
     "refused: the classes of P span rank 1, not 2; they are dependent"),
    (CURVE + ["--rank", "general", "--places", RAMIFIED,
              "--aux", "(t^2 + 2; inert), (t + 4; ramified)"], 3,
     "refused: the class of (t + 4; ramified) is not 2-divisible"),
    (CURVE + ["--rank", "general", "--places", RAMIFIED, "--aux",
              "(t^4 + t + 4; split; 2*t^2 + 4*t + 1), (t^2 + 3; inert)"], 3,
     "refused: the points (t^4 + t + 4; split; 2*t^2 + 4*t + 1) and "
     "(t^2 + 3; inert) do not satisfy the pairing condition"),
    (["--q", "5", "--rank", "general", "--places", "t", "--aux", ","], 2,
     "error: --rank general needs the 2-divisible points in --aux"),
]


def _argv_id(args):
    """The argv of a refusal row as its test id: the options in reverse
    order and the spaces dropped from each value, so that --aux and
    --places, where the rows differ, open the id."""
    pairs = list(zip(args[::2], args[1::2]))
    return shlex.join(word.replace(" ", "")
                      for pair in reversed(pairs) for word in pair)


@pytest.mark.parametrize("args,code,line", CONSTRUCT_REFUSALS,
                         ids=[_argv_id(row[0]) for row in CONSTRUCT_REFUSALS])
def test_construct_refusals_are_pinned(capsys, args, code, line):
    assert run(["construct"] + args) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err == line + "\n"


def test_rank_general_without_independent_places_is_the_rank0_route(tmp_path):
    general, rank0 = tmp_path / "general.json", tmp_path / "rank0.json"
    assert run(["construct", "--q", "5", "--rank", "general", "--places", "",
                "--aux", "t^2+2", "--out", str(general)]) == 0
    assert run(["construct", "--q", "5", "--rank", "0", "--places", "t^2+2",
                "--out", str(rank0)]) == 0
    assert general.read_bytes() == rank0.read_bytes()


def test_tampered_certificate_fails_verification(tmp_path, capsys):
    cert = tmp_path / "c.json"
    run(["construct", "--q", "5", "--rank", "0", "--places", "t^2+2",
         "--out", str(cert)])
    data = json.loads(cert.read_text())
    data["claimed_wild_set"] = []
    cert.write_text(json.dumps(data))
    assert run(["verify", "--cert", str(cert)]) == 3
    assert "claimed wild set" in capsys.readouterr().err


def test_selftest_passes(capsys):
    assert run(["selftest"]) == 0
    assert "all checks passed" in capsys.readouterr().out
    assert run(["selftest", "--seed", "3"]) == 0
    assert "all checks passed" in capsys.readouterr().out


def test_selftest_reports_a_failing_check(capsys, monkeypatch):
    def planted(model, S):
        raise AssertionError("planted")

    monkeypatch.setattr(cli, "check_lin_dep_lemma", planted)
    assert run(["selftest"]) == 1
    out, err = capsys.readouterr()
    assert out == "FAIL rank identities: planted\n"
    assert err == ""


# Usage errors past the parser: the arguments, and the whole stderr line.
UNUSABLE_ARGUMENTS = [
    (["ranks", "--places", "t"],
     "error: --q is required for this command"),
    (["smile", "--q", "5", "--places", "t, t+1, t+2"],
     "error: smile expects exactly two places, got 3"),
    (["ranks"] + CURVE + ["--places", "(t)"],
     "error: expected '(base; kind[; branch])', got '(t)'"),
    (["ranks"] + CURVE + ["--places", "(t; bogus)"],
     "error: unknown place kind 'bogus'"),
    (["hilbert", "--q", "5", "--a", "y", "--b", "t", "--place", "t"],
     "error: bad polynomial 'y': 'y' not allowed here (at index 0)"),
]


@pytest.mark.parametrize("argv,line", UNUSABLE_ARGUMENTS,
                         ids=[" ".join(row[0][:1] + row[0][-1:])
                              for row in UNUSABLE_ARGUMENTS])
def test_unusable_arguments_are_pinned(capsys, argv, line):
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == line + "\n"


def test_construct_json_without_out_prints_the_certificate(tmp_path, capsys):
    cert = tmp_path / "c.json"
    args = ["construct", "--q", "5", "--rank", "0", "--places", "t^2+2"]
    assert run(args + ["--out", str(cert)]) == 0
    capsys.readouterr()
    assert run(args + ["--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == cert.read_text()
    assert json.loads(out)["claimed_wild_set"] == ["t^2 + 2"]


# -- the verify command, pinned

PINNED_VERIFY_TEXT = """\
diagram_commutes: pass
domain_rank_zero: pass
injective: pass
minus_one_fixed: pass
source_basis: pass
symbols_preserved: pass
target_basis: pass
unit_class_fixed: pass
wild set: {t, t + 4}
verdict: pass
"""

PINNED_VERIFY_JSON = """\
{
  "passes": true,
  "checks": {
    "diagram_commutes": true,
    "domain_rank_zero": true,
    "injective": true,
    "minus_one_fixed": true,
    "source_basis": true,
    "symbols_preserved": true,
    "target_basis": true,
    "unit_class_fixed": true
  },
  "wild_set": [
    "t",
    "t + 4"
  ],
  "necessary_condition": true
}
"""


def test_verify_output_is_pinned_in_both_formats(tmp_path, capsys):
    # verify reads its checks off the report certify kept while loading;
    # the output must stay byte for byte what a separate re-check printed
    cert = tmp_path / "c.json"
    assert run(["construct", "--q", "5", "--rank", "1", "--places", "t,t-1",
                "--out", str(cert)]) == 0
    capsys.readouterr()
    assert run(["verify", "--cert", str(cert)]) == 0
    assert capsys.readouterr().out == PINNED_VERIFY_TEXT
    assert run(["verify", "--cert", str(cert), "--format", "json"]) == 0
    assert capsys.readouterr().out == PINNED_VERIFY_JSON


def test_verify_accepts_an_empty_wild_set(tmp_path, capsys):
    # the identity on {t, t^2 + 2} over F_5 is a valid certificate with
    # no wild place; the empty set holds the size bound 0 >= 2 * 0
    line = ProjectiveLine(GF(5))
    S = [line.parse_place("t"), line.parse_place("t^2 + 2")]
    gens = sing_space(line, S).generators
    cert = certify(PreEquivalence(line, S, S, gens, gens,
                                  [LocalMap.identity()] * len(S)))
    assert cert.wild_set == ()
    path = tmp_path / "identity.json"
    path.write_text(certificate_to_json(cert))
    assert run(["wild", "--cert", str(path)]) == 0
    assert lines_of(capsys) == ["(empty)"]
    assert run(["verify", "--cert", str(path)]) == 0
    assert lines_of(capsys)[-2:] == ["wild set: {}", "verdict: pass"]
    assert run(["verify", "--cert", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["passes"], payload["wild_set"],
            payload["necessary_condition"]) == (True, [], True)


# -- certificate files are untrusted input

@pytest.fixture
def good_certificate(tmp_path, capsys):
    cert = tmp_path / "good.json"
    assert run(["construct", "--q", "5", "--rank", "1", "--places", "t,t-1",
                "--out", str(cert)]) == 0
    capsys.readouterr()
    return json.loads(cert.read_text())


def verify_edited(tmp_path, capsys, data):
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    code = run(["verify", "--cert", str(path)])
    return code, capsys.readouterr().err


def test_huge_exponents_exit_two_fast(tmp_path, capsys, good_certificate):
    start = time.process_time()
    assert run(["ranks", "--q", "5", "--places", "t^99999999"]) == 2
    assert "above the bound" in capsys.readouterr().err
    data = dict(good_certificate, quotient_basis=["t^99999999"] * 2)
    code, err = verify_edited(tmp_path, capsys, data)
    assert (code, "above the bound" in err) == (2, True)
    assert time.process_time() - start < 5


def test_deep_nesting_exits_two(tmp_path, capsys, good_certificate):
    nested = "(" * 3000 + "t" + ")" * 3000
    assert run(["ranks", "--q", "5", "--places", nested]) == 2
    err = capsys.readouterr().err
    # the message quotes the start of the input and its length, not all
    assert "nested deeper" in err and len(err) < 200
    data = dict(good_certificate, quotient_basis=[nested] * 2)
    code, err = verify_edited(tmp_path, capsys, data)
    assert (code, "nested deeper" in err, len(err) < 200) == (2, True, True)
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    assert run(["verify", "--cert", str(path)]) == 2
    assert "nested too deeply" in capsys.readouterr().err


def test_long_products_exit_two_fast(capsys):
    # one degree bound for powers and products: 6000 factors of t stop
    # at the first product above it
    start = time.process_time()
    assert run(["ranks", "--q", "5", "--places", "t" * 6000]) == 2
    assert "above the bound" in capsys.readouterr().err
    assert time.process_time() - start < 1.42


def test_long_places_are_quoted_in_short(capsys):
    # 6000 factors of t: not a place text on the curve, and t^6000 is no
    # irreducible under a place of either backend
    long_t = "t" * 6000
    for argv in (["--curve", "t^3+4t", "--places", long_t],
                 ["--places", long_t],
                 ["--curve", "t^3+4t", "--places", "(%s; inert)" % long_t]):
        assert run(["ranks", "--q", "5"] + argv) == 2
        err = capsys.readouterr().err
        assert len(err) < 200, err[:300]


def test_places_must_be_strings(tmp_path, capsys, good_certificate):
    for key in ("S", "T", "claimed_wild_set", "quotient_basis"):
        data = dict(good_certificate, **{key: [1]})
        assert verify_edited(tmp_path, capsys, data)[0] == 2
    data = dict(good_certificate, S="t")
    assert verify_edited(tmp_path, capsys, data)[0] == 2
    data = dict(good_certificate)
    data["local_maps"] = [dict(m, place=5) for m in data["local_maps"]]
    assert verify_edited(tmp_path, capsys, data)[0] == 2
    assert verify_edited(tmp_path, capsys, [good_certificate])[0] == 2


@pytest.mark.parametrize("q", ["5", 5.0, True, 4, 25 * 41, 1031])
def test_field_size_must_be_an_odd_bounded_int(tmp_path, capsys,
                                              good_certificate, q):
    assert 1031 > MAX_FIELD_SIZE
    data = dict(good_certificate, q=q)
    assert verify_edited(tmp_path, capsys, data)[0] == 2


def _with_local_map(data, **entry):
    first = dict(data["local_maps"][0], **entry)
    return dict(data, local_maps=[first] + data["local_maps"][1:])


@functools.lru_cache(maxsize=None)
def long_place() -> str:
    """A place of degree 60 on the F_5 line: 384 characters of text."""
    F, rng = GF(5), random.Random("long place")
    while True:
        f = tuple(rng.randrange(5) for _ in range(60)) + (1,)
        if poly_is_irreducible(f, F):
            return poly_str(f, "t", F)


def _with_long_place(data, count):
    extra = dict(data["local_maps"][0], place=long_place())
    return dict(data, local_maps=data["local_maps"] + [extra] * count)


# (edit of a good certificate, words its error line must hold)
LONG_VALUES = [
    (lambda d: _with_long_place(d, 1), "which is not a removed place"),
    (lambda d: _with_long_place(d, 2), "two local maps at"),
    (lambda d: dict(d, claimed_wild_set=[long_place()] * 2),
     "twice as wild"),
    (lambda d: dict(d, S=d["S"] + [long_place()]), "no local map at"),
    (lambda d: _with_local_map(d, image_of_u="u" * 100000),
     "unknown square class"),
    (lambda d: _with_local_map(d, image_of_u=[0] * 30000),
     "image_of_u must be a string"),
    (lambda d: dict(d, local_maps=[[0] * 30000] + d["local_maps"][1:]),
     "a local map must be an object"),
    (lambda d: dict(d, backend="b" * 50000), "unknown backend"),
    (lambda d: dict(d, q=10 ** 4000), "the field size must be"),
    (lambda d: dict(d, backend="elliptic_curve", curve=[0] * 30000),
     "the curve must be a string"),
]


@pytest.mark.parametrize("edit,words", LONG_VALUES,
                         ids=[words for _, words in LONG_VALUES])
def test_long_certificate_values_are_echoed_in_short(
        tmp_path, capsys, good_certificate, edit, words):
    code, err = verify_edited(tmp_path, capsys, edit(good_certificate))
    assert code == 2
    assert words in err
    assert len(err) < 200, err[:300]


def test_duplicate_local_maps_are_rejected(tmp_path, capsys, good_certificate):
    data = dict(good_certificate)
    first = data["local_maps"][0]
    data["local_maps"] = data["local_maps"] + [dict(first, image_of_u="u*pi")]
    code, err = verify_edited(tmp_path, capsys, data)
    assert code == 2
    assert "two local maps at t" in err


def test_a_repeated_claimed_place_is_rejected(tmp_path, capsys,
                                             good_certificate):
    data = dict(good_certificate, claimed_wild_set=["t", "t", "t + 4"])
    assert verify_edited(tmp_path, capsys, data) == (
        2, "error: the certificate claims t twice as wild\n")


def test_a_missing_local_map_names_the_place(tmp_path, capsys,
                                             good_certificate):
    data = dict(good_certificate)
    data["local_maps"] = data["local_maps"][:1]
    code, err = verify_edited(tmp_path, capsys, data)
    assert code == 2
    assert "no local map at t + 4" in err


@pytest.mark.parametrize("size", [1, 3])
def test_a_basis_of_the_wrong_size_is_refused(tmp_path, capsys,
                                              good_certificate, size):
    # one element and its image dropped from the pair's basis, or added
    data = dict(good_certificate)
    for key in ("quotient_basis", "quotient_images"):
        data[key] = (data[key] + ["2"])[:size]
    assert verify_edited(tmp_path, capsys, data) == (
        3, "refused: certificate is invalid: source basis has %d elements "
        "for 2 places\n" % size)


# (edited key, its length after the edit: a pair's basis has two)
UNEVEN_BASES = [("quotient_images", 1), ("quotient_basis", 1),
                ("quotient_images", 3)]


@pytest.mark.parametrize("key,size", UNEVEN_BASES)
def test_a_basis_and_images_of_different_lengths_exit_two(
        tmp_path, capsys, good_certificate, key, size):
    data = dict(good_certificate)
    data[key] = (data[key] + ["2"])[:size]
    assert verify_edited(tmp_path, capsys, data) == (
        2, "error: basis and images must have the same length\n")


# -- the README examples and the module entry point

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_cli_lines():
    text = README.read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
    block = block.split("```", 1)[0]
    return [line for line in block.strip().splitlines() if line.strip()]


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = readme_cli_lines()
    assert len(lines) >= 7
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "wildsets"
        assert run(argv[1:]) == 0, line
    capsys.readouterr()


def readme_python_tour():
    text = README.read_text()
    block = text.split("## Quick tour", 1)[1].split("```python", 1)[1]
    return block.split("```", 1)[0]


def _commented_value(comment):
    """The literal a tour comment opens with: all of it, or the part
    before its first comma, as in '+1, always'."""
    try:
        return ast.literal_eval(comment)
    except (SyntaxError, ValueError):
        return ast.literal_eval(comment.split(",", 1)[0])


def test_readme_python_tour_runs():
    tour = readme_python_tour()
    namespace = {}
    exec(tour, namespace)
    checked = []
    for line in tour.splitlines():
        code, _, comment = line.partition("#")
        if comment:
            value = eval(code, namespace)
            assert value == _commented_value(comment.strip()), line
            checked.append(value)
    assert checked == [-1, 1, ["t", "t + 4"]]


def test_python_dash_m_entry_point():
    done = fresh_interpreter("-m", "wildsets", "ranks", "--q", "5",
                             "--places", "t^2+2")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "rk Sing 2"


def test_mutated_certificates_never_escape(tmp_path, capsys,
                                           good_certificate):
    # a seeded, bounded fuzz: every mutation ends in exit 0, 2 or 3
    rng = random.Random(2018)
    values = [None, True, 0, -1, 3, 7, 1025, 2.5, "", "t", "inf", "t^2 - 1",
              "(t; inert)", "u*pi", [], [1], ["t"], [None], {}, {"place": "t"}]
    keys = sorted(good_certificate)
    for _ in range(80):
        data = json.loads(json.dumps(good_certificate))
        for _ in range(rng.randint(1, 2)):
            key = rng.choice(keys)
            target = data
            if isinstance(data[key], list) and data[key] and rng.random() < 0.5:
                target, key = data[key], rng.randrange(len(data[key]))
                if isinstance(target[key], dict) and rng.random() < 0.7:
                    target, key = target[key], rng.choice(sorted(target[key]))
            if rng.random() < 0.1 and isinstance(target, dict):
                del target[key]
            else:
                target[key] = json.loads(json.dumps(rng.choice(values)))
        code, _ = verify_edited(tmp_path, capsys, data)
        assert code in (0, 2, 3), data


def _edit_function_text(s, rng):
    """s with one atom made reducible or non-monic, an exponent pushed
    past the degree bound, an atom repeated, or the constant dropped."""
    const, *pieces = s.split(" * ")
    kind = rng.choice(["reducible", "non-monic", "exponent", "repeat",
                       "no constant"])
    if kind == "no constant":
        return " * ".join(pieces or ["(t)^1"])
    pieces = pieces or ["(t)^1"]
    i = rng.randrange(len(pieces))
    atom, e = pieces[i].rsplit("^", 1)
    if kind == "reducible":
        pieces[i] = "(t^2 + 4)^" + e
    elif kind == "non-monic":
        pieces[i] = "(2*t + 2)^" + e
    elif kind == "exponent":
        pieces[i] = "%s^%d" % (atom, rng.choice([4097, -4097, 5000]))
    else:
        pieces.insert(rng.randrange(len(pieces) + 1),
                      "%s^%d" % (atom, rng.randint(-2, 2)))
    return " * ".join([const] + pieces)


def test_mutated_function_texts_verify_as_the_expression_parser_does(
        tmp_path, capsys, monkeypatch, good_certificate):
    # verify reads a function's top-level product factor by factor; on
    # edited texts it must answer exactly as multiplying each text out
    # whole would
    def whole(model, s, atoms=None):
        return parse_whole(model, s)

    rng = random.Random(2019)
    for _ in range(30):
        data = json.loads(json.dumps(good_certificate))
        for _ in range(rng.randint(1, 2)):
            texts = data[rng.choice(["quotient_basis", "quotient_images"])]
            i = rng.randrange(len(texts))
            texts[i] = _edit_function_text(texts[i], rng)
        got = verify_edited(tmp_path, capsys, data)
        with monkeypatch.context() as patch:
            patch.setattr(Model, "parse", whole)
            assert verify_edited(tmp_path, capsys, data) == got, data
        assert got[0] in (0, 2, 3), data
