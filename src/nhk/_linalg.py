"""Small dense linear algebra on matrices carried with their derivatives.

*Packed* matrices (:class:`Packed`): a float matrix together with its
first and optionally second derivatives along a set of base directions
(the derivative axes sit just before the two matrix axes: ``d1`` is
(..., V, r, c) and ``d2`` (..., V, V, r, c)).  Products and inverses
propagate derivatives analytically (d(A^-1) = -A^-1 dA A^-1 and its
second-order extension).  Pivoting inside ``np.linalg`` sees values
only, never derivative data.  Every library path uses this form.  It
is arithmetic only: ``pk_inv`` guards nothing, ``manifold`` does.

Any leading axes before those are stack axes: a stacked Packed holds
one matrix per point, and every ``pk_*`` operation broadcasts over
them.  Each operation computes a point's slice with the same numpy
calls in the same operand order as for that point alone, so a stacked
result equals the per-point results bit for bit.

The matrices here are at most a few rows across, so an operation costs
about as much in Python overhead as in arithmetic.  ``Packed`` is a
named tuple, which builds in about half the time of a frozen
dataclass; the operations read the order from which derivative arrays
are present, and lift matrices against the derivative axes only on a
stack (a single matrix broadcasts as it is).

The last section is a test reference with no library caller: matrices
of :class:`~nhk.jet.Jet2` entries (plain nested lists) with a
hand-rolled partial-pivot Gauss-Jordan elimination whose pivot
selection consults only the value parts (``jm_*``), the Jet2-grid
boundary ``pk_from_jets``/``pk_unpack``, and ``pk_const``.  The test
suite pins the packed routes against them.  ``nhkbench/spans.py``
traces them by name, so deleting them waits for a change to its layer
list.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import GeometryError
from .jet import Jet2, jet_binary, jet_const

__all__ = [
    "Packed", "pk_from_jets", "pk_const", "pk_matmul", "pk_inv", "pk_add",
    "pk_sub", "pk_neg", "pk_transpose", "pk_hstack", "pk_rows", "pk_unpack",
    "pk_at",
    "jm_matmul", "jm_inv", "jm_identity", "jm_values",
    "SINGULAR_TOL",
]

SINGULAR_TOL = 1e-12


# ----------------------------------------------------------------- packed
class Packed(NamedTuple):
    """val: (..., r, c); d1: (..., V, r, c) or None; d2: (..., V, V, r, c)
    or None, and d2 only with d1.  The leading axes, if any, are stack
    axes."""
    val: np.ndarray
    d1: np.ndarray | None = None
    d2: np.ndarray | None = None

    @property
    def order(self) -> int:
        if self.d2 is not None:
            return 2
        if self.d1 is not None:
            return 1
        return 0


def pk_at(p: Packed, i) -> Packed:
    """The matrix of stack position ``i`` (an index or index tuple); for a
    tuple of index arrays, the sub-stack of those positions."""
    return Packed(p.val[i],
                  p.d1[i] if p.d1 is not None else None,
                  p.d2[i] if p.d2 is not None else None)


def _lift(m: np.ndarray, k: int) -> np.ndarray:
    """Matrices m (..., r, c) made to broadcast against arrays with k
    derivative axes before the matrix axes: unit axes are inserted after
    the stack axes.  An unstacked matrix broadcasts as it is."""
    if m.ndim == 2:
        return m
    return m[(Ellipsis,) + (None,) * k + (slice(None), slice(None))]


def pk_matmul(a: Packed, b: Packed) -> Packed:
    av, bv = a.val, b.val
    val = av @ bv
    if a.d1 is None or b.d1 is None:
        return Packed(val)
    stacked = val.ndim > 2
    d1 = (a.d1 @ (_lift(bv, 1) if stacked else bv)
          + (_lift(av, 1) if stacked else av) @ b.d1)
    if a.d2 is None or b.d2 is None:
        return Packed(val, d1)
    if stacked:
        av, bv = _lift(av, 2), _lift(bv, 2)
    cross = a.d1[..., :, None, :, :] @ b.d1[..., None, :, :, :]
    d2 = a.d2 @ bv + cross + cross.swapaxes(-4, -3) + av @ b.d2
    return Packed(val, d1, d2)


def pk_inv(a: Packed) -> Packed:
    B = np.linalg.inv(a.val)
    if a.d1 is None:
        return Packed(B)
    stacked = B.ndim > 2
    B1 = _lift(B, 1) if stacked else B
    d1 = -(B1 @ a.d1 @ B1)
    if a.d2 is None:
        return Packed(B, d1)
    # d_l d_m (A^-1) = -B A_lm B + (B A_m B) A_l B + (B A_l B) A_m B
    B2 = _lift(B, 2) if stacked else B
    BdAB = -d1                                        # B dA B
    half = (BdAB[..., None, :, :, :] @ a.d1[..., :, None, :, :]) @ B2
    d2 = -(B2 @ a.d2 @ B2) + half + half.swapaxes(-4, -3)
    return Packed(B, d1, d2)


def pk_add(a: Packed, b: Packed) -> Packed:
    val = a.val + b.val
    if a.d1 is None or b.d1 is None:
        return Packed(val)
    if a.d2 is None or b.d2 is None:
        return Packed(val, a.d1 + b.d1)
    return Packed(val, a.d1 + b.d1, a.d2 + b.d2)


def pk_sub(a: Packed, b: Packed) -> Packed:
    o = min(a.order, b.order)
    return Packed(a.val - b.val,
                  a.d1 - b.d1 if o >= 1 else None,
                  a.d2 - b.d2 if o >= 2 else None)


def pk_neg(a: Packed) -> Packed:
    return Packed(-a.val,
                  -a.d1 if a.d1 is not None else None,
                  -a.d2 if a.d2 is not None else None)


def pk_transpose(a: Packed) -> Packed:
    return Packed(a.val.swapaxes(-1, -2),
                  a.d1.swapaxes(-1, -2) if a.d1 is not None else None,
                  a.d2.swapaxes(-1, -2) if a.d2 is not None else None)


def pk_hstack(a: Packed, b: Packed) -> Packed:
    o = min(a.order, b.order)
    return Packed(np.concatenate([a.val, b.val], axis=-1),
                  np.concatenate([a.d1, b.d1], axis=-1) if o >= 1 else None,
                  np.concatenate([a.d2, b.d2], axis=-1) if o >= 2 else None)


def pk_rows(a: Packed, lo: int, hi: int) -> Packed:
    return Packed(a.val[..., lo:hi, :],
                  a.d1[..., lo:hi, :] if a.d1 is not None else None,
                  a.d2[..., lo:hi, :] if a.d2 is not None else None)


# ------------------------------------------- test reference (no library caller)
def pk_const(val: np.ndarray, nvars: int, order: int) -> Packed:
    val = np.asarray(val, dtype=float)
    lead, mat = val.shape[:-2], val.shape[-2:]
    d1 = np.zeros(lead + (nvars,) + mat) if order >= 1 else None
    d2 = np.zeros(lead + (nvars, nvars) + mat) if order >= 2 else None
    return Packed(val, d1, d2)


def pk_from_jets(grid, nvars: int, order: int) -> Packed:
    """Pack a 2-D grid (nested lists) of Jet2 into arrays."""
    rows = len(grid)
    cols = len(grid[0]) if rows else 0
    val = np.empty((rows, cols))
    d1 = np.zeros((nvars, rows, cols)) if order >= 1 else None
    d2 = np.zeros((nvars, nvars, rows, cols)) if order >= 2 else None
    for i in range(rows):
        for j in range(cols):
            jet = grid[i][j]
            val[i, j] = jet.value
            if order >= 1:
                d1[:, i, j] = jet.grad
            if order >= 2:
                d2[:, :, i, j] = jet.hess
    return Packed(val, d1, d2)


def pk_unpack(p: Packed) -> list[list[Jet2]]:
    """Inverse of pk_from_jets: a grid of Jet2 views of the packed data."""
    rows, cols = p.val.shape
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            g = p.d1[:, i, j].copy() if p.d1 is not None else None
            h = p.d2[:, :, i, j].copy() if p.d2 is not None else None
            row.append(Jet2(float(p.val[i, j]), g, h))
        out.append(row)
    return out


def jm_identity(n: int, nvars: int, order: int) -> list[list[Jet2]]:
    return [[jet_const(1.0 if i == j else 0.0, nvars, order)
             for j in range(n)] for i in range(n)]


def jm_values(A) -> np.ndarray:
    """The value matrix of a Jet2 grid (a nested list, as pk_unpack
    gives it)."""
    return np.array([[e.value for e in row] for row in A])


def jm_matmul(A, B):
    rows, inner, cols = len(A), len(B), len(B[0])
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = jet_binary("mul", A[i][0], B[0][j])
            for t in range(1, inner):
                acc = jet_binary("add", acc,
                                 jet_binary("mul", A[i][t], B[t][j]))
            row.append(acc)
        out.append(row)
    return out


def jm_inv(A, tol: float = SINGULAR_TOL, what: str = "matrix"):
    """Gauss-Jordan inverse of a Jet2 matrix.

    Partial pivoting selects the largest |value| in the column — pivot
    choice never consults derivative data, so the result is the jet of a
    locally smooth function of the inputs.
    """
    n = len(A)
    a = [list(row) for row in A]  # working copy
    nv = a[0][0].nvars
    order = a[0][0].order
    inv = jm_identity(n, nv, order)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col].value))
        if abs(a[piv][col].value) <= tol:
            raise GeometryError(f"singular {what} (pivot <= {tol})")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            inv[col], inv[piv] = inv[piv], inv[col]
        d = a[col][col]
        for j in range(n):
            a[col][j] = jet_binary("div", a[col][j], d)
            inv[col][j] = jet_binary("div", inv[col][j], d)
        for r in range(n):
            if r == col:
                continue
            f = a[r][col]
            if f.value == 0.0 and (f.grad is None or not np.any(f.grad)) \
                    and (f.hess is None or not np.any(f.hess)):
                continue
            for j in range(n):
                a[r][j] = jet_binary(
                    "sub", a[r][j], jet_binary("mul", f, a[col][j]))
                inv[r][j] = jet_binary(
                    "sub", inv[r][j], jet_binary("mul", f, inv[col][j]))
    return inv
