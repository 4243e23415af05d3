"""Compiled grid kernels against the jet interpretation: bit-equal
values and derivatives at orders 0, 1 and 2, the same guard errors at
the same points, and one evaluation of a shared subexpression."""

import ast
import math
import re

import numpy as np
import pytest

import nhk
from expr_corpus import CORPUS, nested_system
from nhk import _compile
from nhk._compile import GridEval, get_compiled
from nhk._linalg import pk_const, pk_from_jets
from nhk.errors import EvalError
from nhk.expr import eval_expr, fold_constants, parse, resolve

def _folded(text, names):
    return fold_constants(resolve(parse(text), set(names), set()), {})


def _unit_grid(indices, names):
    """Row a is the unit row of coordinate indices[a], as folded "1" and
    "0" entries."""
    return [[_folded("1" if j == i else "0", names)
             for j in range(len(names))] for i in indices]


def _assert_kernel_exact(packed, grid, names, q, orders=(0, 1, 2)):
    """Kernel output equals eval_expr of every entry, bit for bit, at
    each jet order of ``orders``."""
    coords = {name: float(v) for name, v in zip(names, q)}
    for order in orders:
        got = packed(q, order)
        ref = pk_from_jets([[eval_expr(e, coords, {}, names, order)
                             for e in row] for row in grid],
                           len(names), order)
        if not grid:
            # no forms on n coordinates: pk_from_jets reads an empty
            # grid as 0 x 0, the kernel returns the 0 x n matrix
            ref = pk_const(np.zeros((0, len(names))), len(names), order)
        assert np.array_equal(got.val, ref.val)
        if order >= 1:
            assert np.array_equal(got.d1, ref.d1)
        if order >= 2:
            assert np.array_equal(got.d2, ref.d2)


def _assert_system_exact(system, count, seed):
    comp = get_compiled(system)
    names = list(system.coord_names)
    # the one complement grid: the declared w_frame, else in adapted
    # coordinates d/ds, whose coframe rows chi are dr, a constant array
    w_frame = system.w_frame
    if system.adapted is not None and w_frame is None:
        w_frame = _unit_grid(system.s_indices, names)
        chi = comp.adapted_chi
        assert np.array_equal(chi, np.eye(system.n)[list(system.r_indices)])
        assert not chi.flags.writeable
    else:
        assert comp.adapted_chi is None
    # the complement frame is compiled to values only, and refuses more
    pairs = [(comp.metric, system.metric, 2),
             (comp.eps, system.constraints, 2), (comp.w, w_frame, 0),
             (comp.d, system.d_frame, 2),
             (comp.potential._grid, [[system.potential]], 2)]
    assert all((k is None) == (g is None) for k, g, _ in pairs)
    grids = [(k, g, o) for k, g, o in pairs if k is not None]
    for p in nhk.sample_points(system, count, seed=seed):
        for kernel, grid, order in grids:
            assert kernel.order == order
            _assert_kernel_exact(kernel.packed, grid, names, p.q,
                                 range(order + 1))
            if order < 2:
                with pytest.raises(ValueError, match="compiled to order 0"):
                    kernel.packed(p.q, order + 1)


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


# -------------------------------------------------------------- emission


def _kernel_sources(monkeypatch, build) -> list:
    """The source of every kernel compiled while ``build()`` runs."""
    sources = []

    def capturing(src, *args):
        sources.append(src)
        return compile(src, *args)

    monkeypatch.setattr(_compile, "compile", capturing, raising=False)
    build()
    return sources


def _assert_lean(sources):
    """Parentheses only where Python would group the operands otherwise,
    and one store per Hessian entry."""
    for src in sources:
        assert src.count("(") == ast.unparse(ast.parse(src)).count("(")
        assert re.search(r"d2\[[^]]*\] = d2\[", src) is None


def test_kernel_source_is_lean_on_fixtures(monkeypatch, system):
    sources = _kernel_sources(
        monkeypatch, lambda: nhk.load_system(system.definition))
    comp = get_compiled(system)
    grids = (comp.metric, comp.eps, comp.w, comp.d, comp.potential._grid)
    assert len(sources) == sum(g is not None and not g.constant
                               for g in grids)
    _assert_lean(sources)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kernel_source_is_lean_on_nested_system(monkeypatch, seed):
    sources = _kernel_sources(
        monkeypatch, lambda: nhk.load_system(nested_system(seed, depth=4)))
    assert len(sources) == 3            # metric, constraints, potential
    _assert_lean(sources)


def test_kernel_source_is_lean_on_corpus(monkeypatch):
    def build():
        for text, bindings in CORPUS:
            names = sorted(bindings)
            GridEval([[_folded(text, names)]], names)

    sources = _kernel_sources(monkeypatch, build)
    assert len(sources) == sum(bool(b) for _, b in CORPUS)
    _assert_lean(sources)


# ---------------------------------------------------------------- guards


@pytest.mark.parametrize("text,x", [
    ("tan(x)", math.pi / 2),
    ("sec(x)", math.pi / 2),
    ("sqrt(x)", 0.0),
    ("ln(x)", -1.0),
    ("1/(x - 0.5)", 0.5),
    ("x^-2", 0.0),
    ("y + sin(1/(x - 0.5))", 0.5),
    ("x*x + y", 1e200),             # beyond the float range: no rule
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
