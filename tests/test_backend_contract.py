"""Both backends keep the one contract of function_field.Model.

The contract is the list of names in Model's docstring.  Each backend
provides every one of them, the layers above the backends touch a model
through those names only, and the three layers that work for any
backend import neither backend module.
"""

import ast
import pathlib

import pytest

import wildsets
from wildsets.base_algebra import GF, poly_is_irreducible, poly_parse
from wildsets.elliptic_curve import CurvePlace, EllipticModel
from wildsets.function_field import Model, ModelPlace
from wildsets.projective_line import Place, ProjectiveLine

PACKAGE = pathlib.Path(wildsets.__file__).resolve().parent

CONTRACT = (
    "backend", "key", "field", "infinity",
    "places_of_degree", "parse_place", "pic_mod2", "pic_zero_two_rank",
    "two_torsion_witnesses", "halve_in_pic", "two_divisible",
    "punctured_pic_two_rank", "function_with_divisor",
    "one", "constant", "from_poly", "parse", "header", "from_header",
)
METHODS = CONTRACT[4:]

BACKENDS = ("projective_line", "elliptic_curve")
GENERIC_LAYERS = ("local_symbols", "square_class_spaces", "constructions")
UPPER_LAYERS = GENERIC_LAYERS + ("equivalence_core", "cli")


def models():
    F = GF(5)
    return [ProjectiveLine(F), EllipticModel(F, poly_parse("t^3 + 4t", F))]


def test_the_contract_is_written_in_the_model_docstring():
    for name in CONTRACT:
        assert "``%s" % name in Model.__doc__, name


@pytest.mark.parametrize("model", models(), ids=lambda m: m.backend)
def test_every_contract_name_exists_on_both_backends(model):
    for name in CONTRACT:
        assert hasattr(model, name), (model.backend, name)
    for name in METHODS:
        assert callable(getattr(type(model), name)), (model.backend, name)


@pytest.mark.parametrize("model", models(), ids=lambda m: m.backend)
def test_every_place_names_the_irreducible_under_it(model):
    assert model.infinity.base is None
    for d in (1, 2):
        for P in model.places_of_degree(d):
            if not P.is_infinite:
                assert P.base[-1] == 1
                assert poly_is_irreducible(P.base, model.field)
                assert model.parse_place(str(P)).base == P.base


def test_plumbing_lives_in_the_bases_only():
    for cls in (Place, CurvePlace):
        assert issubclass(cls, ModelPlace)
        for name in ("field", "__eq__", "__hash__", "__lt__", "__repr__"):
            assert name not in vars(cls), (cls.__name__, name)
    for cls in (ProjectiveLine, EllipticModel):
        assert issubclass(cls, Model)
        for name in ("one", "constant", "from_poly", "parse", "_places_of_degree"):
            assert name not in vars(cls), (cls.__name__, name)
    assert "header" not in vars(ProjectiveLine)
    assert "from_header" not in vars(ProjectiveLine)


def test_the_curve_header_extends_the_base_header():
    line, curve = models()
    assert list(line.header()) == ["backend", "q"]
    assert list(curve.header()) == ["backend", "q", "curve"]
    for model in (line, curve):
        again = type(model).from_header(model.field, model.header())
        assert again.key == model.key


def parsed(module):
    path = PACKAGE / ("%s.py" % module)
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("module", GENERIC_LAYERS)
def test_generic_layers_import_no_backend(module):
    for node in ast.walk(parsed(module)):
        if isinstance(node, ast.Import):
            names = [alias.name.split(".")[-1] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [(node.module or "").split(".")[-1]]
            if node.module is None:  # from . import x
                names = [alias.name for alias in node.names]
        else:
            continue
        assert not set(names) & set(BACKENDS), "%s imports %s" % (module, names)


@pytest.mark.parametrize("module", UPPER_LAYERS)
def test_upper_layers_reach_a_model_through_the_contract(module):
    """Every attribute read on a name or attribute called ``model``."""
    for node in ast.walk(parsed(module)):
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        if (isinstance(base, ast.Name) and base.id == "model") or \
                (isinstance(base, ast.Attribute) and base.attr == "model"):
            assert node.attr in CONTRACT, "%s uses model.%s" % (module, node.attr)
