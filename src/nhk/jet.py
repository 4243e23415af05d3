"""Second-order forward-mode differential arithmetic.

A :class:`Jet2` bundles a scalar value with its gradient and Hessian with
respect to an ordered list of active variables: the reference evaluator
behind ``nhk eval``.  The library's smooth data (metric entries,
constraint coefficients, frames) comes from compiled kernels that call
this module's rules and guards, carried as ``Packed`` arrays, so every
first and second derivative used downstream is exact to machine
precision — no finite differences anywhere in the library.

Orders:
    order 0  — value only (grad is None, hess is None)
    order 1  — value + gradient (hess is None)
    order 2  — value + gradient + Hessian

Mixing orders in one operation truncates to the lower order.  The free
functions :func:`jet_lift`, :func:`jet_binary` and :func:`jet_unary`
always work at order 2, which is the hard cap: the cyclic bracket sum
needs one derivative of bivector coefficients, and those already contain
one derivative of the input data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvalError

__all__ = ["Jet2", "jet_lift", "jet_binary", "jet_unary", "jet_const",
           "BINARY_OPS", "UNARY_FNS", "DIV_EPS"]

# Near-zero denominator threshold.  All benchmark systems keep metric
# determinants and cos(phi) well away from zero on their declared domains.
DIV_EPS = 1e-14
# tan and sec refuse |cos x| at or below this (a pole).
POLE_EPS = 1e-12

BINARY_OPS = ("add", "sub", "mul", "div", "pow")
UNARY_FNS = ("neg", "sin", "cos", "tan", "sec", "sqrt", "exp", "ln")

# Integer exponent range accepted by pow.
POW_MIN, POW_MAX = -6, 6

# The evaluators' refusal of a non-finite result: arithmetic beyond the
# float range, where no function rule guards (x*x at x = 1e200).
NONFINITE = "arithmetic has no finite value or derivative in the float range"


@dataclass(frozen=True, slots=True)
class Jet2:
    """value, gradient and Hessian w.r.t. V active variables.

    grad has shape (V,), hess has shape (V, V) and is symmetric by
    construction; either may be None when the jet was built at a lower
    order.
    """

    value: float
    grad: np.ndarray | None = None
    hess: np.ndarray | None = None

    def __post_init__(self):
        # Every construction below is symmetric by design; keep it honest.
        if __debug__ and self.hess is not None:
            assert np.array_equal(self.hess, self.hess.T, equal_nan=True), \
                "asymmetric Hessian"

    @property
    def nvars(self) -> int:
        if self.grad is not None:
            return self.grad.shape[0]
        return 0

    @property
    def order(self) -> int:
        if self.hess is not None:
            return 2
        if self.grad is not None:
            return 1
        return 0

    # Operator sugar; the workhorses are the module-level functions.
    def __add__(self, other):
        return jet_binary("add", self, _as_jet(other, self))

    def __radd__(self, other):
        return jet_binary("add", _as_jet(other, self), self)

    def __sub__(self, other):
        return jet_binary("sub", self, _as_jet(other, self))

    def __rsub__(self, other):
        return jet_binary("sub", _as_jet(other, self), self)

    def __mul__(self, other):
        return jet_binary("mul", self, _as_jet(other, self))

    def __rmul__(self, other):
        return jet_binary("mul", _as_jet(other, self), self)

    def __truediv__(self, other):
        return jet_binary("div", self, _as_jet(other, self))

    def __rtruediv__(self, other):
        return jet_binary("div", _as_jet(other, self), self)

    def __neg__(self):
        return jet_unary("neg", self)


def jet_const(value: float, nvars: int, order: int = 2) -> Jet2:
    """A constant: zero gradient and Hessian."""
    g = np.zeros(nvars) if order >= 1 else None
    h = np.zeros((nvars, nvars)) if order >= 2 else None
    return Jet2(float(value), g, h)


def jet_lift(values, index: int, order: int = 2) -> Jet2:
    """Seed the coordinate function x_index at the given point:
    value = values[index], grad = e_index, hess = 0."""
    values = np.asarray(values, dtype=float)
    V = values.shape[0]
    if not 0 <= index < V:
        raise EvalError(f"jet_lift index {index} out of range for {V} variables")
    g = None
    h = None
    if order >= 1:
        g = np.zeros(V)
        g[index] = 1.0
    if order >= 2:
        h = np.zeros((V, V))
    return Jet2(float(values[index]), g, h)


def _as_jet(x, like: Jet2) -> Jet2:
    if isinstance(x, Jet2):
        return x
    return jet_const(float(x), like.nvars, like.order)


def _combine_order(a: Jet2, b: Jet2) -> int:
    return min(a.order, b.order)


def jet_binary(op: str, a: Jet2, b: Jet2) -> Jet2:
    """add / sub / mul / div / pow to second order.

    div requires |b.value| > DIV_EPS.  pow requires b to be a constant jet
    with integer value in [-6, 6].
    """
    if a.grad is not None and b.grad is not None and a.nvars != b.nvars:
        raise EvalError(
            f"jet variable count mismatch: {a.nvars} vs {b.nvars}")
    order = _combine_order(a, b)

    if op == "add":
        return Jet2(a.value + b.value,
                    _add(a.grad, b.grad, order >= 1),
                    _add(a.hess, b.hess, order >= 2))
    if op == "sub":
        return Jet2(a.value - b.value,
                    _sub(a.grad, b.grad, order >= 1),
                    _sub(a.hess, b.hess, order >= 2))
    if op == "mul":
        g = h = None
        if order >= 1:
            g = a.value * b.grad + b.value * a.grad
        if order >= 2:
            outer = np.outer(a.grad, b.grad)
            # sum the transpose pair first: keeps the Hessian symmetric
            # to the last bit (elementwise x+y == y+x; chained adds are not
            # associative)
            h = a.value * b.hess + b.value * a.hess + (outer + outer.T)
        return Jet2(a.value * b.value, g, h)
    if op == "div":
        inv = _div_inverse(b.value)
        v = a.value / b.value  # plain division: order-0 jets match scalar '/'
        g = h = None
        if order >= 1:
            g = (a.grad - v * b.grad) * inv
        if order >= 2:
            cross = np.outer(g, b.grad)
            h = (a.hess - v * b.hess - (cross + cross.T)) * inv
        return Jet2(v, g, h)
    if op == "pow":
        if b.grad is not None and np.any(b.grad != 0.0):
            raise EvalError("pow exponent must be a constant")
        e = b.value
        if e != int(e) or not POW_MIN <= int(e) <= POW_MAX:
            raise EvalError(
                f"pow exponent must be an integer in [{POW_MIN}, {POW_MAX}], got {e!r}")
        return _ipow(a, int(e))
    raise EvalError(f"unknown binary op {op!r}")


def _add(x, y, want):
    if not want:
        return None
    return x + y


def _sub(x, y, want):
    if not want:
        return None
    return x - y


def _div_inverse(b: float) -> float:
    """1/b for a divisor b; the division guard of every evaluator."""
    if abs(b) <= DIV_EPS:
        raise EvalError(f"division by near-zero value {b!r}")
    return 1.0 / b


def _ipow_derivatives(x: float, e: int):
    """x^e and its first and second derivatives in x, for an integer e;
    EvalError when one is beyond the float range."""
    if e < 0 and abs(x) <= DIV_EPS:
        raise EvalError(f"negative power of near-zero value {x!r}")
    try:
        v = x ** e
        # d(x^e) = e x^(e-1); guard x = 0 with e >= 1 (0 or 1*...).
        d1 = e * (x ** (e - 1)) if (x != 0.0 or e >= 1) else 0.0
        d2 = e * (e - 1) * (x ** (e - 2)) if (x != 0.0 or e >= 2) else 0.0
    except OverflowError:
        raise EvalError(f"power {e} has no finite value or derivative at "
                        f"{x!r}") from None
    return v, d1, d2


def _ipow(a: Jet2, e: int) -> Jet2:
    if e == 0:
        return jet_const(1.0, a.nvars, a.order)
    return _chain(a, *_ipow_derivatives(a.value, e))


# first and second derivatives of the supported elementary functions
def _fn_derivatives(fn: str, x: float):
    """f(x), f'(x) and f''(x) for the elementary function ``fn``.  Like a
    pole or a non-positive argument, a value or derivative that is no
    finite float (exp overflow, sin of inf, an underflow to a zero
    divisor) raises EvalError."""
    try:
        if fn == "sin":
            return math.sin(x), math.cos(x), -math.sin(x)
        if fn == "cos":
            return math.cos(x), -math.sin(x), -math.cos(x)
        if fn == "tan":
            c = math.cos(x)
            if abs(c) <= POLE_EPS:
                raise EvalError(f"tan evaluated at a pole (cos = {c!r})")
            t = math.tan(x)
            s2 = 1.0 / (c * c)
            return t, s2, 2.0 * s2 * t
        if fn == "sec":
            c = math.cos(x)
            if abs(c) <= POLE_EPS:
                raise EvalError(f"sec evaluated at a pole (cos = {c!r})")
            s = 1.0 / c
            t = math.tan(x)
            return s, s * t, s * (t * t + s * s)
        if fn == "sqrt":
            if x <= 0.0:
                raise EvalError(f"sqrt of non-positive value {x!r}")
            r = math.sqrt(x)
            return r, 0.5 / r, -0.25 / (x * r)
        if fn == "exp":
            e = math.exp(x)
            return e, e, e
        if fn == "ln":
            if x <= 0.0:
                raise EvalError(f"ln of non-positive value {x!r}")
            return math.log(x), 1.0 / x, -1.0 / (x * x)
    except (ArithmeticError, ValueError):
        raise EvalError(f"{fn} has no finite value or derivative at {x!r}") \
            from None
    raise EvalError(f"unknown function {fn!r}")


def jet_unary(fn: str, a: Jet2) -> Jet2:
    """neg / sin / cos / tan / sec / sqrt / exp / ln via the chain rule:
    hess = g''(a)·(grad ⊗ grad) + g'(a)·hess."""
    if fn == "neg":
        g = -a.grad if a.grad is not None else None
        h = -a.hess if a.hess is not None else None
        return Jet2(-a.value, g, h)
    return _chain(a, *_fn_derivatives(fn, a.value))


def _chain(a: Jet2, v: float, d1: float, d2: float) -> Jet2:
    """The jet of g(a) from g's value v and derivatives d1, d2 at a."""
    g = h = None
    if a.order >= 1:
        g = d1 * a.grad
    if a.order >= 2:
        h = d2 * np.outer(a.grad, a.grad) + d1 * a.hess
    return Jet2(v, g, h)
