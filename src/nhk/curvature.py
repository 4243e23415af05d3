"""Curvature of the admissible/complement splitting.

With P_C, P_W the projections of the splitting T M = C (+) W-lift, the
curvature of C measures the failure of C to be involutive:

    K_W(u, v) = -P_W([P_C U, P_C V])   at the point,

for any extensions U, V of u, v -- the value is tensorial.  P_C U and
P_C V lie in C = ker eps everywhere, so this is

    K_W(u, v) = sum_a d eps^a(P_C u, P_C v) Z_a,

which reads the values of the complement frame Z and the first
derivative of eps.  ``manifold._splitting`` builds the splitting and
its lift correction from Z, an argument here as there
(``manifold.complement_at`` builds the default one).  This module also
computes the corresponding object downstairs on Q, with its own
projection onto D (an independent cross-check), and the
adapted-coordinate data (the coefficient matrix A of the constraints
and its nonholonomy antisymmetrization) used by the coordinate route to
the Jacobiator.

K_W is semi-basic: it vanishes whenever either argument is vertical, so
it is really a 2-form in the base directions with values in W.  The
lift of the complement frame may be varied by admissible (C-valued)
constant-coefficient corrections; the curvature changes only within C
under such variations, which downstream formulas are insensitive to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._compile import get_compiled
from ._linalg import Packed
from .errors import UnsupportedOperationError, check_array
from .manifold import (BaseData, NonholonomicSystem, PointM, _splitting,
                       base_at, complement_at)

__all__ = ["CurvatureAtPoint", "AdaptedData", "curvature_coeffs",
           "curvature_KW_M", "curvature_KW_Q", "adapted_data"]


@dataclass(frozen=True)
class CurvatureAtPoint:
    """Curvature data at a point of M.

    coeffs[a, I, J] are the components of K_W against the (possibly
    lifted-corrected) complement frame: K_W(u, v) = W_lift @
    (coeffs . u . v).  Antisymmetric in (I, J) and semi-basic (zero when
    I or J is a momentum direction)."""
    coeffs: np.ndarray        # (k, dimM, dimM)
    W_lift: np.ndarray        # (dimM, k)
    P_C: np.ndarray
    P_W: np.ndarray
    chart_names: tuple

    def pair(self, u, v) -> np.ndarray:
        """Vector K_W(u, v) in chart components."""
        u = check_array("u", u, self.P_C.shape[-1:])
        v = check_array("v", v, self.P_C.shape[-1:])
        w = np.einsum("...aij,i,j->...a", self.coeffs, u, v)
        return (self.W_lift @ w[..., None])[..., 0]


@dataclass(frozen=True)
class AdaptedData:
    """Adapted-coordinate data at a base point.

    For constraints eps^a = ds^a + A^a_alpha dr^alpha: the matrix A with
    its first and second derivatives along q (A.val, A.d1[l],
    A.d2[l, m]), the nonholonomy derivative
    C[a, al, be] = dA^a_be/dr^al - A^b_al dA^a_be/ds^b, and its
    antisymmetrization Kcoef = C - C^T(al,be): the curvature
    coefficients of the coordinate frame."""
    r_indices: tuple
    s_indices: tuple
    A: Packed                  # k x (n-k), order 2
    C: np.ndarray              # (k, n-k, n-k)
    Kcoef: np.ndarray          # (k, n-k, n-k)


def curvature_coeffs(system: NonholonomicSystem, p: PointM,
                     lift=None) -> CurvatureAtPoint:
    """Coefficient tensor of K_W at p against the lifted complement
    frame: d eps^a(P_C ., P_C .) (see the module docstring)."""
    bd = base_at(system, p, order=1)
    Z, _ = complement_at(system, bd)
    return _curvature_coeffs(system, bd, Z, lift)


def _curvature_coeffs(system: NonholonomicSystem, bd: BaseData,
                      Z: np.ndarray, lift=None) -> CurvatureAtPoint:
    """curvature_coeffs from base data ``bd`` of order at least 1 and the
    values of the complement frame Z at bd.q (``complement_at``); for a
    stacked bd, every array of the result leads with its stack axis.
    coeffs[a] is d eps^a on the q-rows of P_C, whose momentum columns
    are zero: the result is semi-basic exactly."""
    Zl, _, P_W, P_C = _splitting(system, bd, Z, lift)
    # half[a] = P_C^T (d_l eps^a_m) P_C, antisymmetrized exactly
    Pq = P_C[..., None, :system.n, :]
    half = Pq.swapaxes(-1, -2) @ bd.eps.d1.swapaxes(-3, -2) @ Pq
    coeffs = half - half.swapaxes(-1, -2)
    return CurvatureAtPoint(coeffs=coeffs, W_lift=Zl, P_C=P_C, P_W=P_W,
                            chart_names=system.chart_names)


def curvature_KW_M(system: NonholonomicSystem, p: PointM, X, Y,
                   lift=None) -> np.ndarray:
    """The vector K_W(X, Y) at p, chart components."""
    return curvature_coeffs(system, p, lift=lift).pair(X, Y)


def curvature_KW_Q(system: NonholonomicSystem, q, v, w) -> np.ndarray:
    """Curvature of the constraint distribution on Q itself:
    K(v, w) = dps^a(P_D v, P_D w) Z_a with P_D = id - Z eps the
    projection onto D along the complement."""
    bd = base_at(system, q, order=1)
    Z = complement_at(system, bd)[0]
    v = check_array("v", v, (system.n,))
    w = check_array("w", w, (system.n,))
    P_D = np.eye(system.n) - Z @ bd.eps.val
    pv, pw = P_D @ v, P_D @ w
    # d eps^a (u1, u2) = (d_i eps^a_j - d_j eps^a_i) u1^i u2^j
    deps = bd.eps.d1
    vals = (np.einsum("...iaj,...i,...j->...a", deps, pv, pw)
            - np.einsum("...jai,...i,...j->...a", deps, pv, pw))
    return (Z @ vals[..., None])[..., 0]


def adapted_data(system: NonholonomicSystem, q) -> AdaptedData:
    """Adapted-coordinate constraint data at q (adapted systems only)."""
    if system.adapted is None:
        raise UnsupportedOperationError(
            f"system {system.name!r} has no adapted declaration")
    bd = base_at(system, q, order=2)
    A, dA, C, Kcoef = _nonholonomy(system, bd)
    r_idx = list(system.r_indices)
    return AdaptedData(r_indices=tuple(r_idx), s_indices=system.s_indices,
                       A=Packed(A, dA, bd.eps.d2[..., r_idx]), C=C,
                       Kcoef=Kcoef)


def _nonholonomy(system: NonholonomicSystem, bd: BaseData):
    """The constraint coefficients A = eps[:, r] (k x (n-k)) of an
    adapted system, their q-derivatives dA (n x k x (n-k)), the
    nonholonomy derivative C[a, al, be] = dA^a_be/dr^al -
    A^b_al dA^a_be/ds^b and its antisymmetrization Kc = C - C^T(al, be),
    from base data ``bd`` of order at least 1 (stacked like bd)."""
    comp = get_compiled(system)
    r_idx, s_idx = comp.r_idx, comp.s_idx
    A = bd.eps.val[..., r_idx]
    dA = bd.eps.d1[..., r_idx]           # (chart dir, a, beta)
    # A^b_al dA^a_be/ds^b as one product over b: (al, b) @ (b, (a, be))
    lead, (k, nk) = A.shape[:-2], A.shape[-2:]
    AdA = A.swapaxes(-1, -2) @ dA[..., s_idx, :, :].reshape(
        lead + (k, k * nk))
    C = (dA[..., r_idx, :, :].swapaxes(-3, -2)
         - AdA.reshape(lead + (nk, k, nk)).swapaxes(-3, -2))
    return A, dA, C, C - C.swapaxes(-1, -2)
