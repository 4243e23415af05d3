"""Curvature of the admissible/complement splitting.

With P_C, P_W the projections of the splitting T M = C (+) W-lift, the
curvature of C measures the failure of C to be involutive:

    K_W(u, v) = -P_W([P_C U, P_C V])   at the point,

for any extensions U, V of u, v -- the value is tensorial.  This module
computes the coefficient tensor of K_W against the lifted complement
frame, the corresponding object downstairs on Q, and the
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

from ._linalg import Packed, pk_unpack
from .errors import GeometryError, UnsupportedOperationError
from .manifold import BaseData, NonholonomicSystem, PointM, base_at

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
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return self.W_lift @ np.einsum("aij,i,j->a", self.coeffs, u, v)


@dataclass(frozen=True)
class AdaptedData:
    """Adapted-coordinate data at a base point.

    For constraints eps^a = ds^a + A^a_alpha dr^alpha: the matrix A as
    second-order jets, the nonholonomy derivative
    C[a, al, be] = dA^a_be/dr^al - A^b_al dA^a_be/ds^b, and its
    antisymmetrization Kcoef = C - C^T(al,be): the curvature
    coefficients of the coordinate frame."""
    r_indices: tuple
    s_indices: tuple
    A: list                    # k x (n-k) grid of Jet2 (order 2)
    C: np.ndarray              # (k, n-k, n-k)
    Kcoef: np.ndarray          # (k, n-k, n-k)


def _lift_arrays(system, bd, lift):
    """Lifted complement frame Zl (dim x k) and its q-direction
    derivatives dZl (n x dim x k) for the given lift correction.

    lift is None (plain zero-momentum lift) or a pair (c, d) of constant
    coefficient arrays, adding c[a, be] X-lift_be + d[a, al] d/dptilde_al
    to the a-th complement leg (an admissible, C-valued correction)."""
    n, k = system.n, system.k
    nk = n - k
    dim = 2 * n - k
    Zl = np.zeros((dim, k))
    Zl[:n] = bd.Z.val
    dZl = np.zeros((n, dim, k))
    dZl[:, :n, :] = bd.Z.d1
    if lift is not None:
        c, d = lift
        c = np.asarray(c, dtype=float)
        d = np.asarray(d, dtype=float)
        if c.shape != (k, nk) or d.shape != (k, nk):
            raise ValueError(f"lift coefficient arrays must be {(k, nk)}")
        Zl[:n] += bd.X.val @ c.T
        Zl[n:] += d.T
        dZl[:, :n, :] += np.einsum("lib,ab->lia", bd.X.d1, c)
    return Zl, dZl


def curvature_coeffs(system: NonholonomicSystem, p: PointM,
                     lift=None) -> CurvatureAtPoint:
    """Coefficient tensor of K_W at p against the lifted complement
    frame, from the commutator of projected constant-coefficient chart
    extensions (tensoriality makes the extension choice immaterial)."""
    system.check_point(p)
    return _curvature_coeffs(system, base_at(system, p.q, order=1), lift)


def _curvature_coeffs(system: NonholonomicSystem, bd: BaseData,
                      lift=None) -> CurvatureAtPoint:
    """curvature_coeffs from base data ``bd`` of order at least 1."""
    n, k = system.n, system.k
    dim = system.dimM
    Zl, dZl = _lift_arrays(system, bd, lift)
    epse = np.zeros((k, dim))
    epse[:, :n] = bd.eps.val
    depse = np.zeros((n, k, dim))
    depse[:, :, :n] = bd.eps.d1

    P_W = Zl @ epse
    P_C = np.eye(dim) - P_W
    dP_C = np.zeros((dim, dim, dim))
    dP_C[:n] = -(np.einsum("lia,aj->lij", dZl, epse)
                 + np.einsum("ia,laj->lij", Zl, depse))

    br = (np.einsum("li,lkj->kij", P_C, dP_C)
          - np.einsum("lj,lki->kij", P_C, dP_C))
    coeffs = -np.einsum("ak,kij->aij", epse, br)
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
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if v.shape != (system.n,) or w.shape != (system.n,):
        raise ValueError(f"expected tangent vectors with {system.n} components")
    P_D = np.eye(system.n) - bd.Z.val @ bd.eps.val
    pv, pw = P_D @ v, P_D @ w
    # d eps^a (u1, u2) = (d_i eps^a_j - d_j eps^a_i) u1^i u2^j
    deps = bd.eps.d1
    vals = (np.einsum("iaj,i,j->a", deps, pv, pw)
            - np.einsum("jai,i,j->a", deps, pv, pw))
    return bd.Z.val @ vals


def _curvature_pair_assembled(system: NonholonomicSystem, p: PointM, u, v,
                              lift=None) -> np.ndarray:
    """Tensoriality cross-route: extend u, v as constant-coefficient
    combinations of the assembled frame fields (X-lifts, momentum
    verticals, lifted complement legs) instead of constant chart
    extensions, and evaluate -P_W([P_C U, P_C V]) directly."""
    system.check_point(p)
    n, k = system.n, system.k
    nk = n - k
    dim = system.dimM
    bd = base_at(system, p.q, order=1)
    Zl, dZl = _lift_arrays(system, bd, lift)
    epse = np.zeros((k, dim))
    epse[:, :n] = bd.eps.val
    depse = np.zeros((n, k, dim))
    depse[:, :, :n] = bd.eps.d1
    P_W = Zl @ epse
    P_C = np.eye(dim) - P_W
    dP_C = np.zeros((dim, dim, dim))
    dP_C[:n] = -(np.einsum("lia,aj->lij", dZl, epse)
                 + np.einsum("ia,laj->lij", Zl, depse))

    # assembled frame B(q) and its q-derivatives
    B = np.zeros((dim, dim))
    B[:n, :nk] = bd.X.val
    B[n:, nk:2 * nk] = np.eye(nk)
    B[:, 2 * nk:] = Zl
    dB = np.zeros((n, dim, dim))
    dB[:, :n, :nk] = bd.X.d1
    dB[:, :, 2 * nk:] = dZl

    cu = np.linalg.solve(B, np.asarray(u, dtype=float))
    cv = np.linalg.solve(B, np.asarray(v, dtype=float))
    # fields U = B c, projected: PU = P_C B c; commutator at the point
    PU = P_C @ B @ cu
    PV = P_C @ B @ cv
    dPB = np.zeros((dim, dim, dim))   # chart-dir, comp, column
    dPB[:n] = (np.einsum("lij,jc->lic", dP_C[:n], B)
               + np.einsum("ij,ljc->lic", P_C, dB))
    dPU = dPB @ cu                    # (chart-dir, comp)
    dPV = dPB @ cv
    brkt = np.einsum("l,lk->k", PU, dPV) - np.einsum("l,lk->k", PV, dPU)
    return -(P_W @ brkt)


def adapted_data(system: NonholonomicSystem, q) -> AdaptedData:
    """Adapted-coordinate constraint data at q (adapted systems only)."""
    if system.adapted is None:
        raise UnsupportedOperationError(
            f"system {system.name!r} has no adapted declaration")
    bd = base_at(system, q, order=2)
    r_idx = list(system.r_indices)
    s_idx = list(system.s_indices)
    k, nk = system.k, system.n - system.k
    A_val = bd.eps.val[:, r_idx]
    dA = bd.eps.d1[:, :, r_idx]          # (chart dir, a, beta)
    # C[a, al, be] = dA^a_be / dr^al  -  A^b_al dA^a_be / ds^b
    C = dA[r_idx].transpose(1, 0, 2) \
        - np.einsum("bl,bae->ale", A_val, dA[s_idx])
    Kcoef = C - C.transpose(0, 2, 1)
    Apk = Packed(A_val, dA, bd.eps.d2[:, :, :, r_idx])
    return AdaptedData(r_indices=tuple(r_idx), s_indices=tuple(s_idx),
                       A=pk_unpack(Apk), C=C, Kcoef=Kcoef)
