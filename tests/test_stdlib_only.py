"""The runtime imports nothing outside the standard library.

Every module of the package is parsed, not imported, and each import
must be relative, of the package itself, or of a standard-library
module, so a stray third-party dependency fails here rather than on a
machine without it.  The parse is held to the oldest Python that
pyproject.toml admits, so newer syntax fails here too.
"""

import ast
import pathlib
import sys

import wildsets

PACKAGE = pathlib.Path(wildsets.__file__).resolve().parent
OLDEST_PYTHON = (3, 10)


def imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_every_import_is_the_package_or_the_standard_library():
    pyproject = (PACKAGE.parents[1] / "pyproject.toml").read_text()
    assert 'requires-python = ">=%d.%d"' % OLDEST_PYTHON in pyproject
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path),
                         feature_version=OLDEST_PYTHON)
        for root in imported_roots(tree):
            assert root == "wildsets" or root in sys.stdlib_module_names, \
                "%s imports %s" % (path.name, root)
