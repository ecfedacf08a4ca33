"""The compose fallback against the per-ordering walk it replaced.

Seeded `construct` runs on the F_5 and F_13 lines and on the curve
y^2 = t^3 + 4t over F_5 record every call of the fallback; each call is
then replayed through both walks, which must give the same certificate
text, or the same exception with the same message.
"""

from __future__ import annotations

import json
import random

from fallback_oracle import wild_union_fallback
from wildsets import equivalence_core
from wildsets.base_algebra import GF, poly_parse
from wildsets.cli import run
from wildsets.elliptic_curve import EllipticModel
from wildsets.equivalence_core import certificate_to_json, certify
from wildsets.errors import SearchExhausted, VerificationError
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


def _outcome(fallback, args):
    try:
        return certificate_to_json(certify(fallback(*args)))
    except (VerificationError, SearchExhausted) as exc:
        return type(exc), str(exc)


def test_fallback_matches_the_per_ordering_walk(capsys, monkeypatch):
    fallback = equivalence_core._wild_union_fallback
    calls = []

    def recording(*args):
        calls.append(args)
        return fallback(*args)

    monkeypatch.setattr(equivalence_core, "_wild_union_fallback", recording)
    for argv in _argvs(random.Random(5)):
        run(argv)
    capsys.readouterr()
    tally = {"in order": 0, "out of order": 0, "exhausted": 0, "curve": 0}
    for args in calls:
        new = _outcome(fallback, args)
        assert new == _outcome(wild_union_fallback, args), args[1:3]
        model, _, images, maps, _ = args
        tally["curve"] += isinstance(model, EllipticModel)
        if isinstance(new, tuple):
            tally["exhausted"] += new[0] is SearchExhausted
            continue
        pool = [str(Q) for Q, m in zip(images, maps) if m.is_wild]
        matched = json.loads(new)["T"][:len(pool)]
        tally["in order" if matched == pool else "out of order"] += 1
    assert tally["in order"] >= 1 and tally["out of order"] >= 5, tally
    assert tally["exhausted"] >= 5 and tally["curve"] >= 5, tally
