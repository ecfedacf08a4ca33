"""The printed-form reader of ``Model.parse`` against the expression parser.

``FactoredFunction.parse`` reads text in the form ``str`` prints -- a
nonzero constant, then ``(atom)^e`` factors -- atom by atom, and hands
any other text to the backend's ``_parse_expression``, which multiplies
the expression out and factors it.  The reader may never give anything
that path would not: on every text here both give the same element
(constant and factors) or the same ValueError text.
"""

import random

import pytest

from wildsets.base_algebra import (
    GF,
    MAX_PARSED_NESTING,
    irreducibles_of_degree,
    poly_parse,
)
from wildsets.elliptic_curve import EllipticModel
from wildsets.projective_line import ProjectiveLine


def _models():
    F5 = GF(5)
    return {
        "F5": ProjectiveLine(F5),
        "F9": ProjectiveLine(GF(9)),
        "F13": ProjectiveLine(GF(13)),
        "curve": EllipticModel(F5, poly_parse("t^3 + 4t", F5)),
    }


MODELS = _models()


def outcome(parse, model, s):
    try:
        h = parse(model, s)
    except ValueError as exc:
        return ("error", str(exc))
    return ("element", h.constant, h.factors)


def whole(model, s):
    return model._function._parse_expression(model, s)


def assert_agrees(model, s, atoms=None):
    got = outcome(lambda m, text: m.parse(text, atoms), model, s)
    assert got == outcome(whole, model, s), s
    return got


def random_text(model, rng):
    """A factored element in printed form, with its atoms in random order,
    some repeated and some with exponent 0."""
    F = model.field
    pieces = []
    for _ in range(rng.randrange(5)):
        d = rng.choice([1, 1, 2, 3])
        atoms = list(irreducibles_of_degree(F, d))
        atom = model.from_poly(atoms[rng.randrange(len(atoms))])
        text = str(atom).split(" * ", 1)[1].rsplit("^", 1)[0]
        for _ in range(rng.choice([1, 1, 2])):
            pieces.append("%s^%d" % (text, rng.randint(-3, 3)))
    rng.shuffle(pieces)
    const = str(model.constant(rng.randrange(1, F.q)))
    return " * ".join([const] + pieces)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_printed_elements_are_read_directly(name):
    model = MODELS[name]
    rng = random.Random("reader " + name)
    atoms = {}
    for _ in range(60):
        s = random_text(model, rng)
        h = whole(model, s)
        for text in (s, str(h)):
            assert model._function._read_printed(model, text, atoms) == h, text
            assert_agrees(model, text, atoms)


# (model, text): what a hand-edited or hostile certificate may hold
CRAFTED = [
    ("F5", "1 * (t^2 - 1)^1"),                  # reducible atom
    ("F5", "1 * (t^2 + 4)^-1 * (t)^2"),
    ("F5", "1 * (2*t + 2)^1"),                  # non-monic atom
    ("F5", "3 * (t)^2 * (t + 1)^1 * (t)^-1"),   # repeated atom
    ("F5", "2 * (t + 1)^1 * (t + 1)^-1"),
    ("F5", "2 * (t)^0 * (t + 1)^-3"),           # exponents 0 and -3
    ("F5", "2 * (t^2 - 1)^0"),
    ("F5", "1 * (t)^5000"),                     # past the degree bound
    ("F5", "1 * (t)^2049 * (t)^-2049"),
    ("F5", "1 * (t^2100)^1 * (t^2000)^-1"),
    ("F5", "1 * (t^4097)^0"),
    ("F5", "1 * (t)^99999999"),
    ("F5", "1 * (t)^" + "9" * 5000),            # more digits than int() reads
    ("F5", "1 * (x)^" + "9" * 5000),
    ("F5", "9" * 5000 + " * (t)^1"),
    ("F5", "0 * (t)^1"),                        # zero constant
    ("F5", "5 * (t)^1"),
    ("F5", "(t)^1 * (t + 1)^2"),                # no constant
    ("F5", "(t)^1"),
    ("F5", "2*(t)^1*(t+1)^-1"),                 # no spaces
    ("F5", "2 *(t)^1 * (t + 1)^-1"),
    ("F5", "1 * " + "(" * MAX_PARSED_NESTING + "t" + ")" * MAX_PARSED_NESTING + "^1"),
    ("F5", "1 * " + "(" * (MAX_PARSED_NESTING + 1) + "t"
     + ")" * (MAX_PARSED_NESTING + 1) + "^1"),
    ("F5", "(" * (MAX_PARSED_NESTING + 1) + "2" + ")" * (MAX_PARSED_NESTING + 1)
     + " * (t)^1"),
    ("F5", "1 * (t)^1 + (t + 1) - (t)^2"),      # a sum hiding in a factor
    ("F5", "1 - 2 * (t)^1"),
    ("F5", "1 + 1 * (t)^1"),
    ("F5", "4/2 * (t)^1"),
    ("F5", "1 * (t)^1) * ((t)^1"),
    ("F5", "1 * ((t)^1 * (t))^1"),
    ("F5", "1 * ((t))^1"),
    ("F5", "1 * (t)^+1"),
    ("F5", "1 * (t)^-0"),
    ("F5", "1 * (t)^- 1"),
    ("F5", "1 * (1)^5"),
    ("F5", "1 * (0)^-1"),
    ("F5", "1 * (t/t)^1"),
    ("F5", "1 * (t/2)^1"),
    ("F5", "1 * (2*t/2)^1"),
    ("F5", "1 * (t)^1 * "),
    ("F5", ""),
    ("F5", "2"),
    ("F5", "1 * (t + g)^1"),
    ("F5", "1 * (t)^²"),
    ("F5", "² * (t)^1"),
    ("F5", "1 * (t)^1\n"),
    ("F5", "t^2 + 2"),                          # input a user types
    ("F5", "(t + 1) / (t - 1)"),
    ("F9", "(g + 2) * (t + (g))^1 * (t^2 + (g)*t + (2*g + 1))^-1"),
    ("F9", "(g + 2) * (t + g)^2"),
    ("F9", "(g - g) * (t)^1"),
    ("F9", "(g) * ((g + 2)*t + 1)^1"),
    ("F13", "12 * (t + 12)^3 * (t^2 + 2)^-2"),
    ("curve", "1 * (t + y)^1"),                 # pair atoms
    ("curve", "2 * (t)^1 * (t + 4 + y)^-1"),
    ("curve", "1 * (y)^2"),
    ("curve", "3 * (t)^1 * (t^2 + 2)^-1"),
    ("curve", "1 * (t^2 + 1)^1"),
]


def _case_id(case):
    name, s = case
    return "%s-%s" % (name, s if len(s) <= 40 else "%s...(%d)" % (s[:30], len(s)))


@pytest.mark.parametrize("name,s", CRAFTED, ids=[_case_id(c) for c in CRAFTED])
def test_crafted_texts_agree(name, s):
    assert_agrees(MODELS[name], s)


def test_a_shared_memo_keeps_every_answer():
    # one memo across texts that reuse atoms, as a certificate's do, reads
    # each text as a fresh memo does (which the tests above hold to the
    # expression parser)
    for name, model in MODELS.items():
        read, atoms = model._function._read_printed, {}
        texts = [s for n, s in CRAFTED if n == name]
        for s in texts + texts[::-1]:
            assert read(model, s, atoms) == read(model, s, {}), s


def test_pair_atoms_are_left_to_the_expression_parser():
    model = MODELS["curve"]
    h = model.from_pair((1,), (1,)) * model.from_poly((0, 1))
    assert model._function._read_printed(model, str(h), {}) is None
    assert model.parse(str(h)) == h
