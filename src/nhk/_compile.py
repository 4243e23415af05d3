"""Per-system compiled evaluators for expression grids.

The jet evaluator in ``expr`` is the reference semantics for grid
entries, but walking ASTs per point is too slow for inner loops
(simulation right-hand sides, large cross-validation sweeps).  Here
each grid is compiled once into forward-mode code: its entries are
hash-consed into one expression DAG, and every node gets straight-line
scalar code for its value, gradient and Hessian, restricted to the
coordinates it depends on.  The code fills the packed value/gradient/
Hessian arrays directly, and a subexpression shared by several entries
is evaluated once.

The rules are jet's own: unary functions call ``jet._fn_derivatives``,
integer powers ``jet._ipow_derivatives`` and divisions
``jet._div_inverse``, so the guards and their thresholds exist only in
``jet``.  Each combination repeats the operations of ``jet_binary`` and
``jet_unary`` in their order and grouping, leaving out only terms that
are structurally zero, so the compiled arrays are bit-equal to
``expr.eval_expr`` on the same constant-folded expressions, and both
raise EvalError with the same message at the same points.

The source is kept lean because Python's ``compile()`` of it dominates
the set-up of a large system.  Each compound term carries its top
operator (sum or difference, product or quotient, negation), and an
operand is parenthesized only where Python would otherwise group it
differently: the right operand of ``+``/``-`` when it is a sum, the
left operand of ``*``/``/`` when it is a sum, the right operand of
``*``/``/`` when it is a sum or a product, and the operand of a
negation when it is a sum or a product.  The code so parses to the
same expression trees as fully parenthesized code would, so the
arithmetic, its order and its errors are those described above.  The
code stores each Hessian entry [l, m] with l <= m once, at its offset in
a flat view of the Hessian block (one index compiles faster than four);
``packed`` copies the entries with l < m onto [m, l].  The code returns
the sum of the locals it stored, so that one float test finds a
non-finite entry, which ``packed`` refuses with ``EvalError``.

A grid with no q-dependent code has no kernel: its arrays are filled at
compile time and shared, read-only.  ``CompiledSystem`` also keeps the
rest of what ``manifold.base_at`` and ``manifold.complement_at`` need
that is constant in q.

``manifold.load_system`` builds a system's ``CompiledSystem`` once and
stores it on the system; ``get_compiled`` reads it back.  Nothing here
is built lazily, so there is no cache and no lock.
"""

from __future__ import annotations

import math

import numpy as np

from ._linalg import Packed
from .expr import Binary, Num, Unary, Var
from .errors import EvalError
from .jet import NONFINITE, _div_inverse, _fn_derivatives, _ipow_derivatives

__all__ = ["get_compiled", "CompiledSystem", "GridEval"]


# A term of the generated code is None (structurally zero), a float known
# at compile time, a str naming a local, or a compound: a (text, rank)
# pair whose rank is its top operator, _SUM (+ or -), _PROD (* or /) or
# _NEG (unary -).  Float-only operations are done at compile time in the
# same float arithmetic the code would do, and x*1.0 is x, so both are
# exact.
_SUM, _PROD, _NEG = 1, 2, 3


def _src(t) -> str:
    """The text of an atom: a local name or a float literal."""
    if type(t) is str:
        return t
    return repr(t) if math.isfinite(t) else f"float('{t!r}')"


def _opnd(t, bare: int) -> str:
    """The text of t as an operand, in parentheses if t is a compound
    whose rank is below ``bare``."""
    if type(t) is str:
        return t
    if type(t) is tuple:
        return t[0] if t[1] >= bare else f"({t[0]})"
    return _src(t)


def _neg(a):
    if a is None or type(a) is float:
        return None if a is None else -a
    return ("-" + _opnd(a, _NEG), _NEG)


def _add(a, b):
    if a is None or b is None:
        return b if a is None else a
    if type(a) is float and type(b) is float:
        return a + b
    return (f"{_opnd(a, _SUM)} + {_opnd(b, _PROD)}", _SUM)


def _sub(a, b):
    if a is None or b is None:
        return _neg(b) if a is None else a
    if type(a) is float and type(b) is float:
        return a - b
    return (f"{_opnd(a, _SUM)} - {_opnd(b, _PROD)}", _SUM)


def _mul(a, b):
    if a is None or b is None:
        return None
    if type(a) is float:
        if type(b) is float:
            return a * b
        if a == 1.0:
            return b
    elif b == 1.0:
        return a
    return (f"{_opnd(a, _PROD)} * {_opnd(b, _NEG)}", _PROD)


class _Node:
    """Terms of one DAG node: value, gradient and Hessian (l <= m) over
    the coordinates in ``deps``."""
    __slots__ = ("val", "deps", "grad", "hess")

    def __init__(self, val, deps=()):
        self.val, self.deps = val, deps
        self.grad, self.hess = {}, {}


class _Emitter:
    """Hash-conses expressions into one DAG and emits, per new node, its
    value code (``s0``), gradient code (``s1``) and Hessian code
    (``s2``), each in topological order, up to derivative order
    ``order``."""

    def __init__(self, coord_names, order=2):
        self.order = order
        self.idx = {name: i for i, name in enumerate(coord_names)}
        self.ids = {}
        self.s0, self.s1, self.s2 = [], [], []
        self._pairs = {}

    def pairs(self, deps) -> tuple:
        """The index pairs (l, m), l <= m, of deps; made once per deps."""
        p = self._pairs.get(deps)
        if p is None:
            p = self._pairs[deps] = tuple(
                (l, m) for c, l in enumerate(deps) for m in deps[c:])
        return p

    def node(self, e) -> _Node:
        # keyed by kind, payload and child nodes (hashed by identity), so
        # each lookup is O(1) whatever the size of the subtree
        if isinstance(e, Num):
            key = ("num", repr(e.value))
        elif isinstance(e, Var):
            key = ("var", self.idx[e.name])
        elif isinstance(e, Unary):
            key = (e.fn, self.node(e.child))
        elif isinstance(e, Binary) and e.op == "pow":
            key = ("pow", self.node(e.left), int(e.right.value))
        elif isinstance(e, Binary):
            key = (e.op, self.node(e.left), self.node(e.right))
        else:
            raise AssertionError(f"unexpected node {type(e).__name__}")
        nd = self.ids.get(key)
        if nd is None:
            nd = self.ids[key] = self._emit(key, e, len(self.ids))
        return nd

    @staticmethod
    def _bind(lines, name, t) -> str:
        """Assign the compound term t to the new local ``name``."""
        lines.append(f"{name} = {t[0]}")
        return name

    def _emit(self, key, e, i) -> _Node:
        kind = key[0]
        if kind == "num":
            return _Node(float(e.value))
        if kind == "var":
            l = key[1]
            self.s0.append(f"x{l} = float(q[{l}])")
            nd = _Node(f"x{l}", (l,))
            nd.grad[l] = 1.0
            return nd
        if kind == "pow" and key[2] == 0:
            return _Node(1.0)      # jet's x^0 is the constant 1
        a = key[1]
        b = key[2] if kind in ("add", "sub", "mul", "div") else None
        deps = tuple(sorted(set(a.deps) | set(b.deps))) if b else a.deps
        nd = _Node(None, deps)
        g, v = nd.grad, f"v{i}"
        ag, ah = a.grad.get, a.hess.get
        bg, bh = (b.grad.get, b.hess.get) if b else (None, None)
        # the node's value term and rules for its derivative terms, in
        # jet_binary's / jet_unary's operation order
        if kind == "neg":
            val = _neg(a.val)
            grad = lambda l: _neg(ag(l))
            hess = lambda l, m: _neg(ah((l, m)))
        elif kind in ("add", "sub"):
            op = _add if kind == "add" else _sub
            val = op(a.val, b.val)
            grad = lambda l: op(ag(l), bg(l))
            hess = lambda l, m: op(ah((l, m)), bh((l, m)))
        elif kind == "mul":
            val = _mul(a.val, b.val)
            grad = lambda l: _add(_mul(a.val, bg(l)), _mul(b.val, ag(l)))
            hess = lambda l, m: _add(
                _add(_mul(a.val, bh((l, m))), _mul(b.val, ah((l, m)))),
                _add(_mul(ag(l), bg(m)), _mul(ag(m), bg(l))))
        elif kind == "div":
            inv = f"i{i}"
            self.s0.append(f"{inv} = _div_inverse({_src(b.val)})")
            val = (f"{_opnd(a.val, _PROD)} / {_opnd(b.val, _NEG)}", _PROD)
            grad = lambda l: _mul(_sub(ag(l), _mul(v, bg(l))), inv)
            hess = lambda l, m: _mul(_sub(
                _sub(ah((l, m)), _mul(v, bh((l, m)))),
                _add(_mul(g.get(l), bg(m)), _mul(g.get(m), bg(l)))), inv)
        else:                      # chain rule: functions, integer powers
            d1, d2 = f"f{i}", f"ff{i}"
            if kind == "pow":
                call = f"_ipow_derivatives({_src(a.val)}, {key[2]})"
            else:
                call = f"_fn_derivatives({kind!r}, {_src(a.val)})"
            self.s0.append(f"{v}, {d1}, {d2} = {call}")
            val = v
            grad = lambda l: _mul(d1, ag(l))
            hess = lambda l, m: _add(_mul(d2, _mul(ag(l), ag(m))),
                                     _mul(d1, ah((l, m))))
        # compound terms are bound to locals; the names are made only then
        bind, s1, s2, h = self._bind, self.s1, self.s2, nd.hess
        nd.val = val if type(val) is not tuple else bind(self.s0, v, val)
        if self.order < 1:
            return nd
        for l in deps:
            t = grad(l)
            g[l] = t if type(t) is not tuple else bind(s1, f"g{i}_{l}", t)
        if self.order < 2:
            return nd
        for l, m in self.pairs(deps):
            t = hess(l, m)
            h[l, m] = t if type(t) is not tuple else \
                bind(s2, f"h{i}_{l}_{m}", t)
        return nd


_GLOBALS = {"_fn_derivatives": _fn_derivatives,
            "_ipow_derivatives": _ipow_derivatives,
            "_div_inverse": _div_inverse}


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class GridEval:
    """Compiled evaluator of one expression grid to packed jets (an
    empty grid is 0 x n: no forms on the n coordinates).

    A grid without q-dependent code is constant: its value and its
    (zero) derivatives are computed once, here, and a single point
    reads them as shared read-only arrays.  Code is emitted up to
    derivative order ``order``, and ``packed`` refuses a higher one."""

    def __init__(self, grid, coord_names, order=2):
        n = len(coord_names)
        self.order = order
        rows = len(grid)
        cols = len(grid[0]) if rows else n
        self.n = n
        self.shape = (rows, cols)
        self._val0 = np.zeros((rows, cols))
        self._d10 = np.zeros((n, rows, cols))
        self._d20 = np.zeros((n, n, rows, cols))
        em = _Emitter(coord_names, order)
        s0, s1, s2 = em.s0, em.s1, em.s2
        stored = ([], [], [])      # the locals stored, per order
        upper = []                 # (l, m, i, j), l < m, of stored entries
        for i in range(rows):
            for j in range(cols):
                nd = em.node(grid[i][j])
                if isinstance(nd.val, float):
                    self._val0[i, j] = nd.val
                else:
                    s0.append(f"val[{i},{j}] = {nd.val}")
                    stored[0].append(nd.val)
                for l in nd.deps:
                    t = nd.grad.get(l)
                    if isinstance(t, float):
                        self._d10[l, i, j] = t
                    elif t is not None:
                        s1.append(f"d1[{l},{i},{j}] = {t}")
                        stored[1].append(t)
                for l, m in em.pairs(nd.deps):
                    t = nd.hess.get((l, m))
                    if isinstance(t, float):
                        self._d20[l, m, i, j] = self._d20[m, l, i, j] = t
                    elif t is not None:
                        at = ((l * n + m) * rows + i) * cols + j
                        s2.append(f"d2[{at}] = {t}")
                        stored[2].append(t)
                        if l != m:
                            upper.append((l, m, i, j))
        # the sum of the stored locals is non-finite if one of them is,
        # or if it overflows, which packed tells apart; the constants
        # are checked once, here
        for lines, names in zip((s0, s1, s2), stored):
            for c in range(0, len(names), 64):
                lines.append(f"z += {' + '.join(names[c:c + 64])}")
        self._finite = all(np.isfinite(a).all() for a in
                           (self._val0, self._d10, self._d20))
        for a in (self._val0, self._d10, self._d20):
            _read_only(a)
        # offsets, in one point's flat Hessian block, of the stored
        # entries [l, m] with l < m and of their mirror images [m, l]
        self._upper = self._lower = None
        if upper:
            l, m, i, j = np.array(upper, dtype=np.intp).T
            self._upper = np.ravel_multi_index((l, m, i, j), self._d20.shape)
            self._lower = np.ravel_multi_index((m, l, i, j), self._d20.shape)
        if not (s0 or s1 or s2):
            self._fill = None
        else:
            src = ["def _fill(q, val, d1, d2, order):", " z = 0.0"]
            src += [" " + s for s in s0]
            src.append(" if order >= 1:")
            src += ["  " + s for s in s1] or ["  pass"]
            src.append("  if order >= 2:")
            src += ["   " + s for s in s2] or ["   pass"]
            src.append(" return z")
            ns = dict(_GLOBALS)
            exec(compile("\n".join(src), "<nhk-grid>", "exec"), ns)
            self._fill = ns["_fill"]

    @property
    def constant(self) -> bool:
        return self._fill is None

    def packed(self, q, order: int) -> Packed:
        """The grid at q of shape (n,), or at every row of a stack of
        shape (B, n); the arrays then lead with the stack axis.  The
        generated code fills one point at a time.  A stack gets its own
        contiguous copies, laid out per point as a single point's.  A
        non-finite entry raises EvalError (``jet.NONFINITE``).

        The code writes each q-dependent Hessian entry [l, m] with
        l <= m only; at order 2 one indexed copy, made with index
        arrays built at compile time, then sets [m, l] to [l, m] for
        the entries with l < m: once for a single point, and once for
        a whole stack."""
        if order > self.order:
            raise ValueError(f"grid compiled to order {self.order}, "
                             f"asked for order {order}")
        q = np.asarray(q, dtype=float)
        if not self._finite:
            raise EvalError(NONFINITE)
        if q.ndim == 1:
            if self._fill is None:
                return Packed(self._val0, self._d10 if order >= 1 else None,
                              self._d20 if order >= 2 else None)
            val = self._val0.copy()
            d1 = self._d10.copy() if order >= 1 else None
            d2 = self._d20.copy() if order >= 2 else None
            f = None if d2 is None else d2.reshape(-1)  # a view of the copy
            z = self._fill(q, val, d1, f, order)
            if f is not None and self._upper is not None:
                f[self._lower] = f[self._upper]
        else:
            b = len(q)
            val = self._val0[None].repeat(b, 0)
            d1 = self._d10[None].repeat(b, 0) if order >= 1 else None
            d2 = self._d20[None].repeat(b, 0) if order >= 2 else None
            # a row per point (sized explicitly: b may be 0)
            f = None if d2 is None else d2.reshape(b, self._d20.size)
            z = 0.0
            if self._fill is not None:
                for i in range(b):
                    z += self._fill(q[i], val[i],
                                    None if d1 is None else d1[i],
                                    None if f is None else f[i], order)
                if f is not None and self._upper is not None:
                    f[:, self._lower] = f.take(self._upper, axis=1)
        if not math.isfinite(z) and not all(
                np.isfinite(a).all() for a in (val, d1, d2) if a is not None):
            raise EvalError(NONFINITE)
        return Packed(val, d1, d2)


class ScalarEval:
    """Compiled evaluator of one scalar expression (value, grad, hess);
    grad and hess of a constant expression are shared read-only
    arrays."""

    def __init__(self, e, coord_names):
        self._grid = GridEval([[e]], coord_names)

    def evaluate(self, q, order: int):
        p = self._grid.packed(q, order)
        value = float(p.val[0, 0])
        grad = p.d1[:, 0, 0] if order >= 1 else None
        hess = p.d2[:, :, 0, 0] if order >= 2 else None
        return value, grad, hess


def _unit_rows(indices, n) -> list:
    """Constant rows: row a is the unit covector/vector of indices[a]."""
    return [[Num(1.0 if j == i else 0.0) for j in range(n)]
            for i in indices]


class CompiledSystem:
    """The compiled grids of one system, and what of its base geometry
    is constant in q: the index bookkeeping, the domain bounds, the
    canonical frames of adapted coordinates, and whether the adapted
    s-block of the constraint forms is the constant identity exactly.
    ``load_system`` builds it from the system's constant-folded grids
    and stores it on the system; it holds no reference to the system.
    Its one run-time fact, ``loaded``, is written by ``load_system``."""

    def __init__(self, system):
        names = system.coord_names
        n, k = system.n, system.k
        self.metric = GridEval(system.metric, names)
        self.eps = GridEval(system.constraints, names)
        self.d = GridEval(system.d_frame, names) \
            if system.d_frame is not None else None
        self.potential = ScalarEval(system.potential, names)

        # r/s coordinate indices
        self.r_idx = _read_only(np.array(system.r_indices, dtype=np.intp))
        self.s_idx = _read_only(np.array(system.s_indices, dtype=np.intp))
        self.eye_k = _read_only(np.eye(k))
        # the declared domain as bounds per coordinate, +-inf where none
        lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
        for c, bounds in system.domain.items():
            lo[names.index(c)], hi[names.index(c)] = bounds
        self.lo, self.hi = _read_only(lo), _read_only(hi)
        # the complement grid, rows Z_a: the declared w_frame, else in
        # adapted coordinates the canonical Z = d/ds, whose coframe dual
        # to [X|Z] is {dr^alpha, eps^a}: chi is the constant array of
        # the rows dr^alpha
        w_frame, self.adapted_chi = system.w_frame, None
        if system.adapted is not None and w_frame is None:
            w_frame = _unit_rows(system.s_indices, n)
            self.adapted_chi = _read_only(np.eye(n)[list(system.r_indices)])
        # values only: no library path reads a derivative of Z
        self.w = GridEval(w_frame, names, 0) if w_frame is not None else None
        # an adapted s-block of folded constants that is the identity
        # exactly: the compiled grid copies these constants unchanged
        # into every evaluation, so every point passes the block check
        # (and the rank check it certifies), and eps(X) of the frame
        # derived from it is exactly 0 (A*1 - 1*A, the other terms 0*A)
        self.identity_block = system.adapted is not None and all(
            isinstance(e, Num) and e.value == (1.0 if b == a else 0.0)
            for a, row in enumerate(system.constraints)
            for b, e in enumerate(row[i] for i in system.s_indices))
        # set once load_system's probes have checked the constant grids
        self.loaded = False


def get_compiled(system) -> CompiledSystem:
    """The compiled form that ``load_system`` stored on the system."""
    return system._compiled
