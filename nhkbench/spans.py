"""Span tracing of the ``nhk`` layers from outside the package.

The tracer wraps chosen functions of each ``nhk`` module at the module
boundary.  Modules import each other's functions by name (``from
.manifold import base_at``), so a function is replaced in every module
namespace that holds it, not only where it is defined.  Each call then
records one span: name, start, end, parent span and operation id.
Spans live in flat in-memory arrays and are written out once, at the
end of the run.

Spans recorded outside an operation (operation id 0) belong to the
benchmark's own output checks and are left out of every metric.

Each wrapped call adds the wrapper's own cost to the time of every span
around it.  ``span_cost_ns`` measures that cost per call, and
``arrays`` subtracts it: from a span's duration once per span nested in
it, and from its self time once per direct child.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter, perf_counter_ns

import numpy as np

# module -> wrapped functions ("Class.method" for methods): the ones the
# benchmark's loops reach, plus all of _linalg's pk_*/jm_* so that their
# call counts keep one definition when a change reroutes work among them
LAYERS = {
    "expr": ["parse", "resolve", "fold_constants"],
    "_compile": ["get_compiled", "CompiledSystem.__init__",
                 "GridEval.packed", "ScalarEval.evaluate"],
    "jet": ["jet_binary", "jet_unary", "jet_const"],
    "_linalg": ["pk_from_jets", "pk_unpack", "pk_const", "pk_matmul",
                "pk_inv", "pk_add", "pk_sub", "pk_neg", "pk_transpose",
                "pk_hstack", "pk_rows", "jm_identity", "jm_values",
                "jm_matmul", "jm_inv"],
    "manifold": ["load_system", "base_at", "omega_M", "sample_points"],
    "bracket": ["chart_tensors", "nh_bivector", "hamiltonian_M",
                "nh_vector_field"],
    "curvature": ["curvature_coeffs"],
    "jacobiator": ["cross_validate", "jacobiator_tensor", "_trivector_brute",
                   "_global_tensor", "_km_point_data", "_km_value"],
    "sim": ["integrate", "_rhs"],
}


def _order_arg(args, kwargs, pos, default):
    if "order" in kwargs:
        return kwargs["order"]
    return args[pos] if len(args) > pos else default


# spans whose name carries the jet order of the call
_ORDERED = {
    "manifold.base_at": lambda a, k: _order_arg(a, k, 2, 1),
    "_compile.GridEval.packed": lambda a, k: _order_arg(a, k, 2, None),
}


class Tracer:
    """Records spans of the wrapped layer functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self._op = 0              # current operation id; 0 outside one
        self._ops = 0             # operations opened so far
        self._patches = []          # (owner, attribute, original)

    # ---------------------------------------------------------- recording
    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(i)
        return i

    def _wrap(self, fn, name: str):
        name_of = _ORDERED.get(name)
        nid = self._id(name)
        ids = {}
        start, end, stack = self.start, self.end, self._stack
        open_ = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name_of is None:
                i = open_(nid)
            else:
                o = name_of(args, kwargs)
                if o not in ids:
                    ids[o] = self._id(f"{name}.o{o}")
                i = open_(ids[o])
            start[i] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter_ns()
                stack.pop()
        return wrapper

    @contextmanager
    def operation(self, phase: str):
        """One root span ``bench.<phase>`` with a fresh operation id;
        layer spans opened inside it carry that id."""
        self._ops += 1
        self._op = self._ops
        i = self._open(self._id(f"bench.{phase}"))
        self.start[i] = perf_counter_ns()
        try:
            yield
        finally:
            self.end[i] = perf_counter_ns()
            self._stack.pop()
            self._op = 0

    # ------------------------------------------------------------ patching
    def install(self) -> None:
        mods = {n: importlib.import_module(f"nhk.{n}") for n in LAYERS}
        namespaces = [m for n, m in sys.modules.items()
                      if n == "nhk" or n.startswith("nhk.")]
        for mod_name, funcs in LAYERS.items():
            mod = mods[mod_name]
            for fname in funcs:
                span = f"{mod_name}.{fname}"
                if "." in fname:
                    cls_name, meth = fname.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    self._patch(cls, meth, orig, self._wrap(orig, span))
                    continue
                orig = getattr(mod, fname)
                wrapped = self._wrap(orig, span)
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is orig:
                            self._patch(ns, attr, orig, wrapped)

    def _patch(self, owner, attr, orig, new) -> None:
        setattr(owner, attr, new)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # ------------------------------------------------------------ analysis
    @staticmethod
    def span_cost_ns(calls: int = 20000, repeats: int = 7) -> float:
        """What one wrapped call adds to the time of the spans around it:
        a wrapped no-op against the bare no-op, per call, the median of
        ``repeats`` paired timings.  The no-op takes positional and
        keyword arguments, as the layer functions do."""
        probe = Tracer()

        def noop(a, b, c=None):
            return None

        wrapped = probe._wrap(noop, "probe")

        def loop(fn) -> float:
            t0 = perf_counter()
            for _ in range(calls):
                fn(1, 2, c=3)
            return perf_counter() - t0

        diffs = [loop(wrapped) - loop(noop) for _ in range(repeats)]
        return max(statistics.median(diffs) / calls * 1e9, 0.0)

    def arrays(self, cost_ns: float = 0.0) -> dict:
        """Spans as numpy arrays, with each span's duration (``dur``),
        that duration less the wrapper cost ``cost_ns`` of every span
        nested in it (``net_dur``), and its self time: its duration less
        those of its direct children and their wrapper cost
        (``net_self``)."""
        a = {k: np.array(getattr(self, k), dtype=np.int64)
             for k in ("name_id", "start", "end", "parent", "op")}
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has = a["parent"] >= 0
        np.add.at(child, a["parent"][has], dur[has])
        # one thread, so the spans nested in span i are exactly those
        # opened after it and before it ended; starts rise with the index
        nested = (np.searchsorted(a["start"], a["end"], side="left")
                  - np.arange(len(dur)) - 1)
        children = np.bincount(a["parent"][has], minlength=len(dur))
        a["dur"] = dur
        a["net_dur"] = dur - cost_ns * nested
        a["net_self"] = dur - child - cost_ns * children
        return a

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 **{k: np.asarray(getattr(self, k))
                    for k in ("name_id", "start", "end", "parent", "op")})
