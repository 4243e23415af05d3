"""Curvature of the admissible/complement splitting.

With P_C, P_W the projections of the splitting T M = C (+) W-lift, the
curvature of C measures the failure of C to be involutive:

    K_W(u, v) = -P_W([P_C U, P_C V])   at the point,

for any extensions U, V of u, v -- the value is tensorial.  The
splitting, its derivatives and the lift correction are built in
``manifold._splitting`` from a complement frame Z, an argument here as
there (``manifold.complement_at`` builds the default one); from them
this module computes the coefficient tensor of K_W against the lifted
complement frame.  It also computes
the corresponding object downstairs on Q, with its own projection onto
D (an independent cross-check), and the adapted-coordinate data (the
coefficient matrix A of the constraints and its nonholonomy
antisymmetrization) used by the coordinate route to the Jacobiator.

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
from .errors import UnsupportedOperationError, check_array, check_one_point
from .manifold import (BaseData, NonholonomicSystem, PointM, _check_one_q,
                       _splitting, base_at, complement_at)

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
        check_one_point(self.P_C, 2)
        u = check_array("u", u, self.P_C.shape[-1:])
        v = check_array("v", v, self.P_C.shape[-1:])
        return self.W_lift @ np.einsum("aij,i,j->a", self.coeffs, u, v)


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
    frame, from the commutator of projected constant-coefficient chart
    extensions (tensoriality makes the extension choice immaterial)."""
    bd = base_at(system, p, order=1)
    Z, _ = complement_at(system, bd, 1)
    return _curvature_coeffs(system, bd, Z, lift)


def _curvature_coeffs(system: NonholonomicSystem, bd: BaseData, Z: Packed,
                      lift=None) -> CurvatureAtPoint:
    """curvature_coeffs from base data ``bd`` and the complement frame Z
    at bd.q (``complement_at``), each of order at least 1; for a stacked
    bd, every array of the result leads with its stack axis."""
    Zl, _, epse, P_W, P_C, dP_C = _splitting(system, bd, Z, lift)
    br = (np.einsum("...li,...lkj->...kij", P_C, dP_C)
          - np.einsum("...lj,...lki->...kij", P_C, dP_C))
    coeffs = -np.einsum("...ak,...kij->...aij", epse, br)
    return CurvatureAtPoint(coeffs=coeffs, W_lift=Zl, P_C=P_C, P_W=P_W,
                            chart_names=system.chart_names)


def curvature_KW_M(system: NonholonomicSystem, p: PointM, X, Y,
                   lift=None) -> np.ndarray:
    """The vector K_W(X, Y) at p, chart components."""
    check_one_point(p.q)
    return curvature_coeffs(system, p, lift=lift).pair(X, Y)


def curvature_KW_Q(system: NonholonomicSystem, q, v, w) -> np.ndarray:
    """Curvature of the constraint distribution on Q itself:
    K(v, w) = dps^a(P_D v, P_D w) Z_a with P_D = id - Z eps the
    projection onto D along the complement."""
    _check_one_q(q)
    bd = base_at(system, q, order=1)
    Z = complement_at(system, bd)[0].val
    v = check_array("v", v, (system.n,))
    w = check_array("w", w, (system.n,))
    P_D = np.eye(system.n) - Z @ bd.eps.val
    pv, pw = P_D @ v, P_D @ w
    # d eps^a (u1, u2) = (d_i eps^a_j - d_j eps^a_i) u1^i u2^j
    deps = bd.eps.d1
    vals = (np.einsum("iaj,i,j->a", deps, pv, pw)
            - np.einsum("jai,i,j->a", deps, pv, pw))
    return Z @ vals


def adapted_data(system: NonholonomicSystem, q) -> AdaptedData:
    """Adapted-coordinate constraint data at q (adapted systems only)."""
    if system.adapted is None:
        raise UnsupportedOperationError(
            f"system {system.name!r} has no adapted declaration")
    _check_one_q(q)
    bd = base_at(system, q, order=2)
    A, dA, C, Kcoef = _nonholonomy(system, bd)
    r_idx = list(system.r_indices)
    return AdaptedData(r_indices=tuple(r_idx), s_indices=system.s_indices,
                       A=Packed(A, dA, bd.eps.d2[:, :, :, r_idx]), C=C,
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
