"""``Model.parse`` against the whole-text route it replaced.

``FactoredFunction.parse`` reads the top-level product of a text factor
by factor and factors each base once per memo.  The oracle
(expression_oracle) multiplies the whole text out and factors the
numerator and the denominator.  On the line both must give the same
element (constant and factors) or the same ValueError text on every
text here.  On the curve a product of pair atoms, multiplied out,
factors into other atoms, so there they must give the same function
(divisor and unit residues) or the same ValueError text, and ``parse``
must undo ``str``.
"""

import random

import pytest

from expression_oracle import parse_whole
from residue_oracle import unit_residue
from wildsets.base_algebra import (
    GF,
    MAX_PARSED_NESTING,
    const_str,
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
        "curve9": EllipticModel(GF(9), poly_parse("t^3 + 2t + g", GF(9))),
    }


MODELS = _models()


def outcome(parse, model, s):
    """The element parse gives, in the form the oracle must match, or
    its ValueError text."""
    try:
        h = parse(model, s)
    except ValueError as exc:
        return ("error", str(exc))
    if isinstance(model, ProjectiveLine):
        return ("element", h.constant, h.factors)
    places = [model.infinity] + model.places_of_degree(1)
    return ("function", h.divisor(), [unit_residue(h, P) for P in places])


def assert_agrees(model, s, atoms=None):
    got = outcome(lambda m, text: m.parse(text, atoms), model, s)
    assert got == outcome(parse_whole, model, s), s
    return got


def random_atom(model, rng, pairs):
    """A monic irreducible in t or, on the curve and with pairs set, as
    often a primitive pair a + b*y."""
    if pairs and isinstance(model, EllipticModel) and rng.random() < 0.5:
        return random_pair(model, rng)
    atoms = list(irreducibles_of_degree(model.field, rng.choice([1, 1, 2, 3])))
    return model.from_poly(atoms[rng.randrange(len(atoms))])


def random_pair(model, rng):
    """A pair atom a + b*y, a of degree below 3 and b of degree below 2."""
    q = model.field.q
    while True:
        a = tuple(rng.randrange(q) for _ in range(rng.randrange(3)))
        b = tuple(rng.randrange(q) for _ in range(rng.randrange(2))) + (1,)
        h = model.from_pair(a, b)
        if len(h.factors) == 1:
            return h


def random_text(model, rng, pairs=False):
    """A factored element in printed form, with its atoms in random order,
    some repeated and some with exponent 0."""
    F = model.field
    pieces = []
    for _ in range(rng.randrange(5)):
        atom = random_atom(model, rng, pairs)
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
        s = random_text(model, rng, pairs=True)
        h = model.parse(s)
        assert model.parse(str(h)) == h, s
        for text in (s, str(h)):
            assert_agrees(model, text, atoms)


def random_expression(model, rng, depth=2):
    """Text a user may type: sums, quotients, powers and parentheses,
    with y on the curve and g over an extension field."""
    F = model.field
    letters = ["t", "t", str(rng.randrange(F.q))]
    if isinstance(model, EllipticModel):
        letters.append("y")
    if F.k > 1:
        letters.append(const_str(rng.randrange(F.p, F.q), F))
    terms = []
    for _ in range(rng.choice([1, 1, 2, 3])):
        factors = []
        for _ in range(rng.choice([1, 2, 3])):
            if depth and rng.random() < 0.4:
                atom = "(%s)" % random_expression(model, rng, depth - 1)
            else:
                atom = rng.choice(letters)
            if rng.random() < 0.4:
                atom += "^%d" % rng.randint(-2, 3)
            if factors:
                # a space is dropped, so it joins no literal to a number
                ops = ["*", " * ", " / ", "/"] + [" "] * (atom[0] in "(ty")
                atom = rng.choice(ops) + atom
            factors.append(atom)
        terms.append("".join(factors))
    text = terms[0]
    for term in terms[1:]:
        text += rng.choice([" + ", " - "]) + term
    return rng.choice(["", "-", "+"]) + text if rng.random() < 0.2 else text


@pytest.mark.parametrize("name", sorted(MODELS))
def test_user_style_expressions_agree(name):
    model = MODELS[name]
    rng = random.Random("expressions " + name)
    atoms, kinds = {}, set()
    for _ in range(150):
        s = random_expression(model, rng)
        kinds.add(assert_agrees(model, s, atoms)[0])
    assert len(kinds) == 2, kinds


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
    ("F5", "-(t)^2 * (t + 1)^-1"),              # a sign at the top
    ("F5", "1 * (0)^0 / (0)^0"),
    ("F5", "2^99999999 * (t)^1"),               # a huge power of a constant
    ("F5", "1 * (t - t + 1)^99999999"),
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
    ("curve", "1 * (2*t + 2*y)^1"),             # a pair that is not primitive
    ("curve", "1 * (t^2 + t*y)^1 * (t + y)^-1"),
    ("curve", "1 * (y^2 - t^3 - 4*t)^1"),       # zero on the curve
    ("curve", "1 * (y^2 - t^3 - 4*t)^0"),
    ("curve", "1 / (y^2 - t^3 - 4t)"),
    ("curve", "0 * (y^2 - t^3 - 4*t)^-1"),      # zero over a vanishing denominator
    ("curve", "(1 / (y^2 - t^3 - 4*t))^-1"),
    ("curve", "(t + y) * (t - y) / (t^2 - t^3 - 4*t)"),
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
    # oracle)
    def read(model, s, atoms):
        try:
            return model.parse(s, atoms)
        except ValueError as exc:
            return str(exc)

    for name, model in MODELS.items():
        atoms = {}
        texts = [s for n, s in CRAFTED if n == name]
        for s in texts + texts[::-1]:
            assert read(model, s, atoms) == read(model, s, {}), s


@pytest.mark.parametrize("name", ["curve", "curve9"])
def test_str_and_parse_are_inverse_on_pair_atoms(name):
    model = MODELS[name]
    rng = random.Random("pairs " + name)
    for n in [1, 2, 3, 4] * 10:
        h = model.constant(rng.randrange(1, model.field.q))
        for _ in range(n):
            h = h * random_pair(model, rng) ** rng.choice([-2, -1, 1, 3])
        for _ in range(rng.randrange(3)):
            h = h * random_atom(model, rng, pairs=False) ** rng.choice([-1, 2])
        assert model.parse(str(h)) == h, str(h)
