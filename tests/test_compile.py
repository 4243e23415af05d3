"""Compiled grid kernels against the jet interpretation: bit-equal
values and derivatives at orders 0, 1 and 2, the same guard errors at
the same points, and one evaluation of a shared subexpression."""

import math

import numpy as np
import pytest

import nhk
from expr_corpus import CORPUS, nested_system
from nhk import _compile
from nhk._compile import GridEval, get_compiled
from nhk._linalg import pk_from_jets
from nhk.errors import EvalError
from nhk.expr import eval_expr, fold_constants, parse, resolve

GRIDS = ("_metric_c", "_constraints_c", "_w_frame_c", "_d_frame_c")


def _folded(text, names):
    return fold_constants(resolve(parse(text), set(names), set()), {})


def _assert_kernel_exact(packed, grid, names, q):
    """Kernel output equals eval_expr of every entry, bit for bit."""
    coords = {name: float(v) for name, v in zip(names, q)}
    for order in (0, 1, 2):
        got = packed(q, order)
        ref = pk_from_jets([[eval_expr(e, coords, {}, names, order)
                             for e in row] for row in grid],
                           len(names), order)
        assert np.array_equal(got.val, ref.val)
        if order >= 1:
            assert np.array_equal(got.d1, ref.d1)
        if order >= 2:
            assert np.array_equal(got.d2, ref.d2)


def _assert_system_exact(system, count, seed):
    comp = get_compiled(system)
    names = list(system.coord_names)
    kernels = [comp.metric, comp.eps, comp.w, comp.d]
    grids = [(k, getattr(system, g)) for k, g in zip(kernels, GRIDS)
             if k is not None]
    grids.append((comp.potential._grid, [[system._potential_c]]))
    for p in nhk.sample_points(system, count, seed=seed):
        for kernel, grid in grids:
            _assert_kernel_exact(kernel.packed, grid, names, p.q)


def test_compiled_grids_equal_jet_exactly_on_fixtures(system):
    _assert_system_exact(system, 4, seed=71)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_compiled_grids_equal_jet_exactly_on_nested_system(seed):
    system = nhk.load_system(nested_system(seed, depth=4))
    _assert_system_exact(system, 3, seed=seed + 100)


@pytest.mark.parametrize("text,bindings", CORPUS)
def test_compiled_corpus_entry_equals_jet_exactly(text, bindings):
    names = sorted(bindings)
    grid = [[_folded(text, names)]]
    q = np.array([bindings[n] for n in names], dtype=float)
    _assert_kernel_exact(GridEval(grid, names).packed, grid, names, q)


# ---------------------------------------------------------------- guards


@pytest.mark.parametrize("text,x", [
    ("tan(x)", math.pi / 2),
    ("sec(x)", math.pi / 2),
    ("sqrt(x)", 0.0),
    ("ln(x)", -1.0),
    ("1/(x - 0.5)", 0.5),
    ("x^-2", 0.0),
    ("y + sin(1/(x - 0.5))", 0.5),
])
def test_compiled_guards_raise_the_jet_message(text, x):
    names = ["x", "y"]
    e = _folded(text, names)
    q = np.array([x, 0.25])
    with pytest.raises(EvalError) as ref:
        eval_expr(e, {"x": x, "y": 0.25}, {}, names, 2)
    kernel = GridEval([[e]], names)
    for order in (0, 1, 2):
        with pytest.raises(EvalError) as got:
            kernel.packed(q, order)
        assert got.value.message == ref.value.message


def test_shared_subexpression_is_evaluated_once(monkeypatch):
    calls = []

    def counting(fn, x):
        calls.append(fn)
        return rules(fn, x)

    rules = _compile._GLOBALS["_fn_derivatives"]
    monkeypatch.setitem(_compile._GLOBALS, "_fn_derivatives", counting)
    names = ["x", "y"]
    texts = [["tan(x*y) + x", "y*tan(x*y)"],
             ["tan(x*y)^2", "1/(2 + tan(x*y))"]]
    kernel = GridEval([[_folded(t, names) for t in row] for row in texts],
                      names)
    for order in (0, 1, 2):
        calls.clear()
        kernel.packed(np.array([0.3, 0.7]), order)
        assert calls == ["tan"]
