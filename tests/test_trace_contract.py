"""The benchmark tracer must install on the package and restore it fully.

``perfbench/tracer.py`` wraps the functions and methods it names through
each owner's ``__dict__``.  A traced name that moves (for instance a
``__mul__`` inherited from a base class instead of defined in its own
class body) makes ``perfbench/run.py --trace 1`` fail with a KeyError, so
this test enters and exits the tracer once.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import heckedem.cli  # noqa: F401  the tracer wraps cli.main and the verify suites
import heckedem.verify  # noqa: F401

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot() -> dict:
    """Every attribute of every heckedem module and of the classes they define."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if not name.startswith("heckedem") or mod is None:
            continue
        for key, value in vars(mod).items():
            out[(name, key)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = member
    return out


def test_tracer_installs_and_restores():
    tracer_mod = load_tracer()
    before = snapshot()
    with tracer_mod.Tracer() as tracer:
        patched = {(owner, attribute) for owner, attribute, _ in tracer._patches}
        assert patched
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in tracer_mod._heckedem_modules()}
        for mod_name, attribute, _ in tracer_mod.SPANS:
            if "." in attribute:
                cls_name, method = attribute.split(".")
                owner = getattr(mods[mod_name], cls_name)
                assert hasattr(owner.__dict__[method], "__wrapped__"), attribute
            else:
                assert hasattr(getattr(mods[mod_name], attribute), "__wrapped__"), attribute
    after = snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
