"""Compose's matching route against the two glues it replaced.

Seeded `construct` runs on the F_5 and F_13 lines and on the curve
y^2 = t^3 + 4t over F_5 record every call of `_realize`, grouped by
the compose that made it: the first call solves the whole domain, a
second one the wild locus.  Each call is replayed through `_realize`
and through the old route for it, the rigid glue or the per-ordering
walk.  The wild-locus walks must give the same certificate text, or
the same exception with the same message.  On the whole domain the
glues must give the same certificate text, or both fail: the old glue
raised the solve's own error there, and compose went on to the wild
locus either way.
"""

from __future__ import annotations

import json
import random

from fallback_oracle import rigid_glue, wild_union_fallback
from wildsets import constructions, equivalence_core
from wildsets.base_algebra import GF, poly_parse
from wildsets.cli import run
from wildsets.elliptic_curve import EllipticModel
from wildsets.equivalence_core import certificate_to_json, certify
from wildsets.errors import HypothesisError, SearchExhausted, VerificationError
from wildsets.projective_line import ProjectiveLine
from wildsets.square_class_spaces import g_rank


def _argvs(rng):
    """Rank-1 line sets of 3-6 places, then rank-0 and rank-1 curve sets.

    The curve has no 2-divisible place below degree 4, so its rank-0
    sets are drawn from those of degree 4, and its rank-1 sets from the
    places of degree <= 3, kept when their classes span rank 1.
    """
    F5, F13 = GF(5), GF(13)
    L5, L13 = ProjectiveLine(F5), ProjectiveLine(F13)
    lines = {"5": L5.places_of_degree(1) + L5.places_of_degree(2),
             "13": L13.places_of_degree(1)}
    for _ in range(30):
        q = rng.choice(sorted(lines))
        S = rng.sample(lines[q], rng.randint(3, 6))
        yield ["construct", "--q", q, "--rank", "1",
               "--places", ", ".join(map(str, S))]
    E = EllipticModel(F5, poly_parse("t^3 + 4t", F5))
    divisible = [P for P in E.places_of_degree(4) if E.pic_mod2(P) == 0]
    low = [P for d in (1, 2, 3) for P in E.places_of_degree(d)]
    for rank in "01" * 8:
        if rank == "0":
            S = rng.sample(divisible, rng.randint(2, 4))
        else:
            S = rng.sample(low, rng.randint(3, 5))
            while g_rank(E, S).rank != 1:
                S = rng.sample(low, len(S))
        yield ["construct", "--q", "5", "--curve", "t^3 + 4t",
               "--rank", rank, "--places", ", ".join(map(str, S))]


def _outcome(realize, *args):
    """Certificate text of realize(*args), or its exception and message."""
    try:
        return certificate_to_json(certify(realize(*args)))
    except (HypothesisError, SearchExhausted, VerificationError) as exc:
        return type(exc), str(exc)


def _glued(realize, *args):
    """Certificate text of a whole-domain glue, or "falls through"."""
    try:
        se = realize(*args)
    except (SearchExhausted, VerificationError):
        return "falls through"
    return certificate_to_json(certify(se))


def test_realize_matches_the_old_glues(capsys, monkeypatch):
    realize, compose = equivalence_core._realize, constructions.compose
    composes = []

    def composing(*args):
        composes.append([])
        return compose(*args)

    def recording(model, places, maps, pool, orderings):
        args = (model, places, maps, pool, list(orderings))
        composes[-1].append(args)
        return realize(*args)

    monkeypatch.setattr(constructions, "compose", composing)
    monkeypatch.setattr(equivalence_core, "_realize", recording)
    for argv in _argvs(random.Random(5)):
        run(argv)
    capsys.readouterr()
    tally = {"glued": 0, "falls through": 0, "in order": 0,
             "out of order": 0, "exhausted": 0, "curve": 0}
    for calls in composes:
        assert 1 <= len(calls) <= 2, calls
        model, places, maps, images, orderings = calls[0]
        assert orderings == [images]
        new = _glued(realize, *calls[0])
        assert new == _glued(rigid_glue, model, places, images, maps), \
            (places, images)
        tally["falls through" if new == "falls through" else "glued"] += 1
        if len(calls) == 1:
            continue
        assert new == "falls through"
        model, places, maps, pool, _ = calls[1]
        new = _outcome(realize, *calls[1])
        assert new == _outcome(wild_union_fallback, model, places, pool,
                               maps), (places, pool)
        tally["curve"] += isinstance(model, EllipticModel)
        if isinstance(new, tuple):
            tally["exhausted"] += new[0] is SearchExhausted
            continue
        matched = json.loads(new)["T"][:len(pool)]
        tally["in order" if matched == list(map(str, pool))
              else "out of order"] += 1
    assert tally["glued"] >= 10 and tally["falls through"] >= 10, tally
    assert tally["in order"] >= 1 and tally["out of order"] >= 5, tally
    assert tally["exhausted"] >= 5 and tally["curve"] >= 5, tally
