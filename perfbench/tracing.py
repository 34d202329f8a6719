"""Span tracing of siclift's layers, installed from outside the package.

Each named function is rebound, in its defining module and in every siclift
module that imported the name (``from .x import f``), to a wrapper that
records a span: name, the alias it was called through, start, end, parent
span and operation id. Spans stay in memory until the run ends. Nothing is
installed unless ``Tracer.install`` is called, and ``uninstall`` restores
every binding it replaced.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

MODULES = ("bignum", "modring", "heisenberg", "lattice", "numfield",
           "fidsearch", "exactify", "cli")

# (defining module, attribute path, metric name, what the wrapper records)
LAYERS = (
    ("lattice", "lll_reduce", "lattice.lll_reduce", "lll"),
    ("lattice", "integer_relation", "lattice.integer_relation", "hits"),
    ("lattice", "raw_relation", "lattice.raw_relation", "time"),
    ("numfield", "recognize", "numfield.recognize", "hits"),
    ("numfield", "automorphisms", "numfield.automorphisms", "time"),
    ("numfield", "factor_over_tower", "numfield.factor_over_tower", "time"),
    ("numfield", "adjoin", "numfield.adjoin", "time"),
    ("numfield", "AlgebraicNumber.__mul__", "numfield.AlgebraicNumber.mul",
     "count"),
    ("numfield", "EmbeddingAutomorphism.__call__",
     "numfield.EmbeddingAutomorphism.call", "count"),
    ("exactify", "symmetry_structure", "exactify.symmetry_structure", "time"),
    ("exactify", "build_orbit_polynomials",
     "exactify.build_orbit_polynomials", "time"),
    ("exactify", "lift_coefficients", "exactify.lift_coefficients", "time"),
    ("exactify", "method2_exactify", "exactify.method2_exactify", "time"),
    ("exactify", "verify_exact", "exactify.verify_exact", "time"),
    ("exactify", "verify_certified", "exactify.verify_certified", "time"),
    ("exactify", "ExactFiducialCertificate.load",
     "exactify.ExactFiducialCertificate.load", "time"),
    ("exactify", "ExactFiducialCertificate.galois_rows",
     "exactify.ExactFiducialCertificate.galois_rows", "time"),
    ("fidsearch", "seed_search", "fidsearch.seed_search", "time"),
    ("fidsearch", "refine", "fidsearch.refine", "time"),
    ("heisenberg", "overlaps", "heisenberg.overlaps", "time"),
    ("bignum", "solve_linear", "bignum.solve_linear", "time"),
    ("cli", "main", "cli.main", "time"),
)

MARK = "_perfbench_wrapped"
OP = "op"


def _modules():
    pkg = importlib.import_module("siclift")
    mods = {name: importlib.import_module("siclift." + name)
            for name in MODULES}
    mods["siclift"] = pkg
    return mods


def _bindings(mods, defining, path):
    """Every (namespace, attribute, original) that holds the named function:
    the defining binding first, then each module-level or class-level alias.
    Classmethods are returned as the descriptor found in the class dict."""
    owner = mods[defining]
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    if cls_path:
        original = vars(owner)[attr]
        target = getattr(original, "__func__", original)
        return [(owner, a, v) for a, v in vars(owner).items()
                if getattr(v, "__func__", v) is target]
    original = getattr(owner, attr)
    out = [(owner, attr, original)]
    for mod in mods.values():
        for a, v in vars(mod).items():
            if v is original and (mod, a) != (owner, attr):
                out.append((mod, a, v))
    return out


def _alias_name(ns, attr):
    if isinstance(ns, type):
        return f"{ns.__module__.rsplit('.', 1)[-1]}.{ns.__name__}.{attr}"
    return f"{ns.__name__.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """Records spans for the wrapped layers and for the benchmark's own
    operations. A span is [id, name, alias, parent, op, start, end, info]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None
        self._saved = []
        self.aliases = {}

    # -- span recording ---------------------------------------------------

    def _open(self, name, alias):
        span = [len(self.spans), name, alias,
                self._stack[-1][0] if self._stack else None, self._op,
                time.perf_counter(), None, None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span[6] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, op_id, label):
        """One benchmark operation: the root span of everything inside."""
        self._op = op_id
        span = self._open(OP, label)
        try:
            yield span
        finally:
            self._close(span)
            self._op = None

    # -- installation -----------------------------------------------------

    def _wrap(self, fn, name, alias, kind):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            span = tracer._open(name, alias)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if kind == "hits":
                span[7] = result is not None
            elif kind == "lll":
                rows = args[0] if args else kwargs["rows"]
                span[7] = (len(rows), max((abs(x).bit_length()
                                           for r in rows for x in r),
                                          default=0))
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = _modules()
        plan = []
        for defining, path, name, kind in LAYERS:
            binds = _bindings(mods, defining, path)
            self.aliases[name] = [_alias_name(ns, a) for ns, a, _v in binds]
            plan.append((name, kind, binds))
        for name, kind, binds in plan:
            for ns, attr, original in binds:
                fn = getattr(original, "__func__", original)
                w = self._wrap(fn, name, _alias_name(ns, attr), kind)
                if isinstance(original, classmethod):
                    w = classmethod(w)
                setattr(ns, attr, w)
                self._saved.append((ns, attr, original))
        leftover = originals_reachable(mods, plan)
        if leftover:
            raise RuntimeError(f"unwrapped aliases remain: {leftover}")

    def uninstall(self):
        for ns, attr, original in reversed(self._saved):
            setattr(ns, attr, original)
        self._saved = []

    # -- aggregation ------------------------------------------------------

    def layer_metrics(self):
        """Per-layer calls, inclusive seconds (outermost activation of each
        name only) and self seconds (minus direct children), plus the extra
        counters each layer asks for."""
        children = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] is not None:
                children[s[3]] += s[6] - s[5]
        agg = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "hits": 0,
                      "miss_s": 0.0, "max_dim": 0, "max_input_bits": 0}
               for _d, _p, name, _k in LAYERS}
        for s in self.spans:
            name = s[1]
            if name == OP:
                continue
            a = agg[name]
            dt = s[6] - s[5]
            a["calls"] += 1
            a["self_s"] += dt - children[s[0]]
            if not self._nested_in_same(s):
                a["s"] += dt
            info = s[7]
            if isinstance(info, bool):
                a["hits"] += info
                if not info:
                    a["miss_s"] += dt
            elif isinstance(info, tuple):
                a["max_dim"] = max(a["max_dim"], info[0])
                a["max_input_bits"] = max(a["max_input_bits"], info[1])
        out = {}
        for _d, _p, name, kind in LAYERS:
            a = agg[name]
            out[f"{name}.calls"] = (a["calls"], "count")
            if kind == "count":
                continue
            out[f"{name}.s"] = (a["s"], "s")
            out[f"{name}.self_s"] = (a["self_s"], "s")
            if kind == "hits":
                out[f"{name}.hits"] = (a["hits"], "count")
            if name == "numfield.recognize":
                out[f"{name}.hit_ratio"] = (
                    a["hits"] / a["calls"] if a["calls"] else 0.0, "ratio")
                out[f"{name}.miss_s"] = (a["miss_s"], "s")
            if kind == "lll":
                out[f"{name}.max_dim"] = (a["max_dim"], "count")
                out[f"{name}.max_input_bits"] = (a["max_input_bits"], "bits")
        return out

    def _nested_in_same(self, span):
        parent = span[3]
        while parent is not None:
            p = self.spans[parent]
            if p[1] == span[1]:
                return True
            parent = p[3]
        return False

    def alias_calls(self):
        counts = {name: {a: 0 for a in aliases}
                  for name, aliases in self.aliases.items()}
        for s in self.spans:
            if s[1] != OP:
                counts[s[1]][s[2]] += 1
        return counts

    def spans_json(self):
        keys = ("id", "name", "alias", "parent", "op", "start", "end", "info")
        return [dict(zip(keys, s)) for s in self.spans]


def _namespaces(mods):
    """Every siclift module and every siclift class they hold."""
    for mod in mods.values():
        yield mod
        for v in vars(mod).values():
            if isinstance(v, type) and v.__module__.startswith("siclift"):
                yield v


def originals_reachable(mods, plan):
    """Bindings in any siclift namespace that still hold an unwrapped
    original of a traced function."""
    originals = {id(getattr(v, "__func__", v))
                 for _n, _k, binds in plan for _ns, _a, v in binds}
    return [_alias_name(ns, a) for ns in _namespaces(mods)
            for a, v in vars(ns).items()
            if id(getattr(v, "__func__", v)) in originals]


def installed_wrappers():
    """Names of every siclift binding that holds a benchmark wrapper."""
    return [_alias_name(ns, a) for ns in _namespaces(_modules())
            for a, v in vars(ns).items()
            if getattr(getattr(v, "__func__", v), MARK, False)]
