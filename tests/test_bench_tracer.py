"""The benchmark's tracer still installs over the package and uninstalls.

wsbench/tracing.py wraps each class attribute it names through that
class's own __dict__, so a target that moves to a base class breaks a
traced benchmark run (--trace 1) and nothing else.  This test loads the
tracer by path, installs it, and checks that uninstalling restores every
binding it touched.
"""

import importlib.util
import pathlib
import sys

TRACING = pathlib.Path(__file__).resolve().parents[1] / "wsbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("wsbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings():
    """Every attribute of every loaded wildsets module and of its classes."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "wildsets" or name.startswith("wildsets.")):
            continue
        for attr, value in vars(module).items():
            out[name, attr] = value
            if isinstance(value, type) and value.__module__ == name:
                for cls_attr, member in vars(value).items():
                    out[name, attr, cls_attr] = member
    return out


def test_tracer_installs_and_restores_every_target():
    tracing = load_tracing()
    for module_name, _, _ in tracing.TARGETS:
        importlib.import_module("wildsets." + module_name)
    before = bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        wrapped = {key for key, value in bindings().items()
                   if value is not before.get(key)}
        # every target is wrapped where it is defined
        for module_name, qualname, _ in tracing.TARGETS:
            key = ("wildsets." + module_name,) + tuple(qualname.split("."))
            assert key in wrapped, key
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
