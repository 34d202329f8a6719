"""The benchmark's tracer rebinds the siclift functions named in its LAYERS
table, and its self-check and workloads call siclift with fixed arguments;
a function dropped or renamed here, or a signature those calls no longer
bind to, must fail in the test suite, not first in a benchmark run."""

import importlib
import inspect
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


# (module, attribute path, positional arguments, keyword arguments) of the
# calls perfbench/selfcheck.py and perfbench/workloads.py make; None stands
# for an object the benchmark builds first
_BENCH_CALLS = [
    ("bignum", "CMatrix.identity", (2, 30), {}),
    ("bignum", "CVector", ([1, 2], 30), {}),
    ("bignum", "solve_linear", (None, None), {}),
    ("fidsearch", "seed_search", (4, "fz"), {"attempts": 24, "seed": 11}),
    ("fidsearch", "refine", (None, 200), {}),
    ("heisenberg", "overlaps", (None,), {}),
    ("lattice", "integer_relation", ([1, 2],), {"precision": 60}),
    ("lattice", "raw_relation", ([1, 2],), {"precision": 60}),
    ("numfield", "recognize", (None, 1), {}),
    ("numfield", "automorphisms", (None,), {"fixing_level": 1}),
    ("numfield", "factor_over_tower", (None, [1, 0, 1]),
     {"root_selector": 1j}),
    ("numfield", "adjoin", (None, [-5, 0, 1]), {"root_selector": 2}),
    ("numfield", "cyclotomic_polynomial", (8,), {}),
    ("exactify", "symmetry_structure", (None,), {}),
    ("exactify", "method2_exactify", (None,), {}),
    ("exactify", "verify_exact", (None,), {}),
    ("exactify", "verify_certified", (None,), {"digits": 60}),
    ("exactify", "ExactFiducialCertificate.to_json", (None,), {}),
    ("exactify", "ExactFiducialCertificate.save", (None, "d4.cert"), {}),
    ("cli", "main", (["verify", "--cert", "d4.cert"],), {}),
]


@pytest.mark.parametrize("defining, path, args, kwargs", _BENCH_CALLS,
                         ids=[f"{d}.{p}" for d, p, *_ in _BENCH_CALLS])
def test_benchmark_call_binds(defining, path, args, kwargs):
    target = importlib.import_module("siclift." + defining)
    for part in path.split("."):
        target = getattr(target, part)
    inspect.signature(target).bind(*args, **kwargs)
