"""Byte-identity pins: certificate text and demo output, by SHA-256.

Each digest was recorded from the code before the certificate path was
simplified (one verifier body, one Klein-four map rule, one
punctured-class-group rank).  Refactors of that path must keep every
certificate and every demo line byte for byte, so a changed digest means
changed output, not a stale pin.  The cases are chosen to cross each
route the constructions take: both backends, a compose that the rigid
glue realizes, a compose that needs the second matching of the
wild-union fallback, the swap pair (given in both orders) and the
fixed-place pair constructions, a rank-1 triple through the fitted
images, and the rank-2 and rank-3 general sets (the rank-3 digest was
recorded before the general construction's gate was split from its
builder).  Each pinned certificate must also read back through
certificate_from_json and print to the same text, on the fast paths and
again with the kernel, residue and divisor oracles of tests/ installed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import pathlib
import runpy
import sys

import pytest

import kernel_oracle
from divisor_oracle import oracle_divisor
from residue_oracle import euler_square_class
from wildsets import base_algebra, elliptic_curve, function_field
from wildsets.base_algebra import GF, poly_parse
from wildsets.constructions import (
    construct_general,
    construct_rank0,
    construct_rank1,
    construct_rank1_pair,
    construct_rank1_triple,
)
from wildsets.elliptic_curve import CurveFunction, EllipticModel
from wildsets.equivalence_core import (
    certificate_from_json,
    certificate_to_json,
    compose,
)
from wildsets.local_symbols import local_square_class, square_class_table
from wildsets.projective_line import ProjectiveLine

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def line5():
    return ProjectiveLine(GF(5))


def curve5():
    return EllipticModel(GF(5), poly_parse("t^3 + 4t", GF(5)))


def places(model, *names):
    return [model.parse_place(s) for s in names]


def rank0_pair_by_rigid_glue():
    L = line5()
    return construct_rank0(L, places(L, "t^2 + 2", "t^2 + 3"))


def pair_fixing_its_places():
    L = line5()
    return construct_rank1_pair(L, *places(L, "t", "t + 4"))


def pair_swapping_its_places():
    L = line5()
    return construct_rank1(L, places(L, "t", "t^2 + 2"))


def pair_swapping_its_places_divisible_first():
    # the pair builder puts the 2-divisible t^2 + 2 second again
    L = line5()
    return construct_rank1(L, places(L, "t^2 + 2", "t"))


def triple_on_f5():
    L = line5()
    return construct_rank1_triple(L, *places(L, "t", "t + 1", "t + 4"))


def triple_on_f13():
    L = ProjectiveLine(GF(13))
    return construct_rank1_triple(L, *places(L, "t", "t + 1", "t + 4"))


def singletons_through_the_second_matching():
    L = line5()
    c1, c2, c3 = (construct_rank0(L, [P])
                  for P in places(L, "t^2 + 2", "t^2 + 3", "t^2 + t + 1"))
    return compose(compose(c1, c2), c3)


def curve_rank0():
    E = curve5()
    return construct_rank0(E, places(E, "(t^2 + 2; inert)",
                                     "(t^2 + 3; inert)"))


def curve_rank1():
    E = curve5()
    return construct_rank1(E, places(E, "(t; ramified)", "(t^2 + 2; inert)"))


def curve_general():
    E = curve5()
    return construct_general(
        E, places(E, "(t; ramified)", "(t + 1; ramified)"),
        places(E, "(t^2 + 2; inert)", "(t^2 + 3; inert)"))


def curve_general_rank_three():
    # three steps of the general induction, with no leftover point
    F = GF(13)
    E = EllipticModel(F, poly_parse("t^3 - t", F))
    return construct_general(
        E, places(E, "inf", "(t + 1; ramified)", "(t + 5; split; 6)"),
        places(E, "(t^2 + t + 12; split; 5*t)", "(t^2 + t + 12; split; 8*t)",
               "(t + 2; inert)"))


CERTIFICATES = {
    rank0_pair_by_rigid_glue:
        "0e8fd46e321dfb30d615e18c08010c80ad5d4a23f0051dd4836736250f39e418",
    pair_fixing_its_places:
        "b716c7a32fa132ea1116fa976173b89f733eaecabe87a5a97613e9391b50f822",
    pair_swapping_its_places:
        "b503e9783db597a6f82467f54222fb45c14b3ab8d86653d71db17204ebfb219d",
    pair_swapping_its_places_divisible_first:
        "b503e9783db597a6f82467f54222fb45c14b3ab8d86653d71db17204ebfb219d",
    triple_on_f5:
        "f6963cafd2f8343774ef8268e75397caaf6795d24a26df3939c639eca9b6e08e",
    triple_on_f13:
        "d98a47340d3e3c060783c1b0212094d49d5d97539a0b3cf56bd49ccc1e62c057",
    singletons_through_the_second_matching:
        "2c146cc8964a941f53e9135499f12ed88c61a99769c809747452e510da6d6f99",
    curve_rank0:
        "7ab931ace9656ddea7d556e300a08189b366ab4f6886d6e7d25b12ed6b47e23e",
    curve_rank1:
        "6c2b9959c0b7906782a6cc2fd75fb28980482fb26a25686c4d211618af08299f",
    curve_general:
        "8c19077a056f820291ad18f34b01d26706cdf9ac9b5b77e326e6a2864f9ec0d6",
    curve_general_rank_three:
        "5ace23cbdac32ff6f3965cd1c3b18c80a7ec0d7c8f4796bfc5f9a8638dc7ab9e",
}

DEMO_STDOUT = {
    "build_wild_sets":
        "29b7b93688b0e8c481d62a49fe5fcc72795fbc42dd57d97d8250c96eefa49747",
    "rank_walkthrough":
        "aa014def7cfd842d7476480b47211a4aab8ab192a74e740f805946c8568bfde6",
    "reciprocity_tour":
        "b6d24dd1cc79e86687e60cb3dd7c1ee34165eec9d3ec70e559945423a6a0e6db",
}


@pytest.mark.parametrize("build", list(CERTIFICATES),
                         ids=lambda fn: fn.__name__)
def test_certificate_text_is_pinned(build):
    assert sha(certificate_to_json(build())) == CERTIFICATES[build]


@pytest.mark.parametrize("build", list(CERTIFICATES),
                         ids=lambda fn: fn.__name__)
def test_certificate_text_reads_back_byte_for_byte(build):
    # verify reads each function back as it is printed, pair atoms too
    text = certificate_to_json(build())
    assert certificate_to_json(certificate_from_json(text)) == text


def euler_table(elements, places):
    """square_class_table entry by entry, through the Euler criterion."""
    return [[euler_square_class(b, P) for P in places] for b in elements]


def never_entered(*args, **kwargs):
    raise AssertionError("the fast class table ran on the slow paths")


@pytest.mark.parametrize("build", list(CERTIFICATES),
                         ids=lambda fn: fn.__name__)
def test_certificate_text_reads_back_on_the_slow_paths(build, monkeypatch):
    # the kernel, residue and divisor oracles keep the routes the fast
    # paths replaced; verify must read the same certificate through them,
    # every class table included, and never reach the fast table
    text = certificate_to_json(build())
    kernel_oracle.install(monkeypatch)
    for fast, slow in ((local_square_class, euler_square_class),
                       (square_class_table, euler_table)):
        for name, module in list(sys.modules.items()):
            if name.startswith("wildsets") and \
                    getattr(module, fast.__name__, None) is fast:
                monkeypatch.setattr(module, fast.__name__, slow)
    monkeypatch.setattr(square_class_table, "__code__", never_entered.__code__)
    monkeypatch.setattr(CurveFunction, "divisor", oracle_divisor)
    assert certificate_to_json(certificate_from_json(text)) == text


def test_reading_a_certificate_factors_no_constant(monkeypatch):
    # a constant half, and the gcd 1 of a pair a + b*y, have nothing to
    # factor; what is left are the polynomials of the places and pairs
    text = certificate_to_json(curve_general_rank_three())
    factored = []
    real = base_algebra.poly_factor

    def counting(f, F):
        factored.append(f)
        return real(f, F)

    for module in (function_field, elliptic_curve):
        monkeypatch.setattr(module, "poly_factor", counting)
    certificate_from_json(text)
    assert len(factored) == 6, factored


@pytest.mark.parametrize("demo", sorted(DEMO_STDOUT))
def test_demo_stdout_is_pinned(demo):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / (demo + ".py")), run_name="__main__")
    assert sha(out.getvalue()) == DEMO_STDOUT[demo]
