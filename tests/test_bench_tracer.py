"""The traced benchmark run wraps library functions by name; every name it
lists must still exist, or `perfbench/run.py --trace 1` fails at start."""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules while the class is built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.TRACED


@pytest.mark.parametrize("layer, attr", _traced())
def test_traced_name_resolves(layer, attr):
    owner = importlib.import_module(f"qpathnet.{layer}")
    if "." in attr:
        cls_name, method = attr.split(".")
        assert method in getattr(owner, cls_name).__dict__
    else:
        assert callable(getattr(owner, attr))
