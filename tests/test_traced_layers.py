"""The benchmark's tracer rebinds the siclift functions named in its LAYERS
table; a function dropped or renamed here must fail in the test suite, not
first in a benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  _TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.LAYERS


@pytest.mark.parametrize("defining, path", [(d, p) for d, p, *_ in _layers()])
def test_traced_layer_resolves(defining, path):
    owner = importlib.import_module("siclift." + defining)
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    # the tracer reads class attributes from the class's own dict
    found = vars(owner).get(attr) if cls_path else getattr(owner, attr, None)
    assert callable(getattr(found, "__func__", found)), f"{defining}.{path}"
