"""Almost-Poisson bracket of the constraint phase space.

The pullback 2-form Omega_M is degenerate along the complement lift W,
but its restriction to the admissible subbundle C is symplectic.  The
induced bivector pi is defined by

    pi#(alpha) = X  with  i_X Omega_M |_C = -alpha |_C,  X in C,

which in the chart basis works out to the closed block form

    Pi = [[ 0,  -X ],          sharp(alpha) = Pi @ alpha,
          [ X^T,  S ]],        S = X^T E X,

with E the momentum-weighted antisymmetrized derivative of the
embedding coefficients mu = kD^{-1} X^T kappa.  The bracket reads only
the D-frame X and mu, not the complement W: it is the same for every
choice of W.  Brackets of chart functions are
{u^I, u^J} = pi(du^I, du^J) = Pi[J, I].

Two independent constructions live here:

* ``nh_bivector`` -- the reference route: restrict Omega_M to the
  C-basis, invert the restricted Gram matrix, and conjugate back, in
  packed arithmetic whose derivatives run along the chart variables.
  At order 1 the result carries them as an array beside the matrix.
  The brute-force Jacobiator route differentiates it.
* ``chart_tensors`` -- the closed block form and its chart-direction
  derivatives assembled with numpy; the global Jacobiator route reads
  it.

The two are pinned against each other in the test suite.

Dynamics: the Hamiltonian is H = (1/2) ptilde . kD^{-1} ptilde + U with
kD the D-frame Gram matrix of the kinetic metric, and the evolution
field is X_nh = -pi#(dH), written out componentwise in ``_field``; the
integrator (``sim``) evaluates the same H, dH and field from
``manifold.base_at`` alone, which reads no complement.  The
Hamiltonian's ambient cross-check embeds the momenta through the
complement instead (``manifold._eliminated_mu``), so that its two
routes share no formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._compile import get_compiled
from ._linalg import Packed, pk_inv, pk_matmul, pk_transpose
from .errors import (EvalError, GeometryError, check_array, check_integer,
                     check_one_point)
from .manifold import (BaseData, NonholonomicSystem, PointM, _eliminated_mu,
                       _omega_arrays, _omega_packed, base_at)

__all__ = ["BivectorAtPoint", "ChartTensors", "chart_tensors", "nh_bivector",
           "hamiltonian_M", "nh_vector_field"]

ROUTE_TOL = 1e-10


@dataclass(frozen=True)
class BivectorAtPoint:
    """The induced bivector at a point, in the chart basis.

    mat holds the float matrix of the sharp map -- components of
    pi#(alpha) are mat @ alpha.  At order 1, d1[l] is its derivative
    along chart variable l, laid out as ``ChartTensors.dPi``; at order 0,
    d1 is None."""
    mat: np.ndarray
    d1: np.ndarray | None
    order: int
    chart_names: tuple

    def sharp(self, alpha) -> np.ndarray:
        return self.mat @ check_array("alpha", alpha, self.mat.shape[-1:])

    def pairing(self, alpha, beta) -> float:
        """pi(alpha, beta) = beta(pi#(alpha))."""
        check_one_point(self.mat, 2)
        return float(check_array("beta", beta, self.mat.shape[-1:])
                     @ self.sharp(alpha))

    def bracket_matrix(self) -> np.ndarray:
        """B[I, J] = {u^I, u^J} of the chart functions."""
        return self.mat.swapaxes(-1, -2)


@dataclass(frozen=True)
class ChartTensors:
    """Packed chart-basis tensors at a point (fast numpy route).

    Derivative arrays carry the chart direction in axis 0; q-directions
    first, then the momenta."""
    system: NonholonomicSystem
    point: PointM
    bd: BaseData
    order: int
    E: np.ndarray
    S: np.ndarray
    Omega: np.ndarray
    Pi: np.ndarray
    dOmega: np.ndarray | None
    dPi: np.ndarray | None


def chart_tensors(system: NonholonomicSystem, p: PointM,
                  order: int = 1) -> ChartTensors:
    """Assemble Omega_M, the sharp matrix Pi, and (order >= 1) their
    chart-direction derivatives from the packed base pipeline."""
    order = check_integer("order", order, 0, 2)
    return _chart_tensors(system, p, base_at(system, p, order + 1), order)


def _chart_tensors(system: NonholonomicSystem, p: PointM, bd: BaseData,
                   order: int) -> ChartTensors:
    """chart_tensors from base data ``bd`` at p.q of order at least
    order + 1.  p and bd may carry the same leading stack axis, and so
    does every array of the result."""
    n = system.n
    dim = system.dimM
    lead = bd.q.shape[:-1]
    Xv = bd.X.val
    XvT = Xv.swapaxes(-1, -2)
    E, dE_q, dE_p, Omega, dOmega = _omega_arrays(system, p.ptilde, bd, order)
    S = XvT @ E @ Xv

    Pi = np.zeros(lead + (dim, dim))
    Pi[..., :n, n:] = -Xv
    Pi[..., n:, :n] = XvT
    Pi[..., n:, n:] = S

    dPi = None
    if order >= 1:
        dX = bd.X.d1
        dS_q = (np.einsum("...lji,...jk,...km->...lim", dX, E, Xv)
                + np.einsum("...ji,...ljk,...km->...lim", Xv, dE_q, Xv)
                + np.einsum("...ji,...jk,...lkm->...lim", Xv, E, dX))
        dS_p = np.einsum("...ji,...ajk,...km->...aim", Xv, dE_p, Xv)

        dPi = np.zeros(lead + (dim, dim, dim))
        dPi[..., :n, :n, n:] = -dX
        dPi[..., :n, n:, :n] = dX.swapaxes(-1, -2)
        dPi[..., :n, n:, n:] = dS_q
        dPi[..., n:, n:, n:] = dS_p
    return ChartTensors(system=system, point=p, bd=bd, order=order,
                        E=E, S=S, Omega=Omega, Pi=Pi,
                        dOmega=dOmega, dPi=dPi)


def _bivector_packed(system: NonholonomicSystem, p: PointM, bd: BaseData,
                     order: int) -> Packed:
    """The sharp matrix Pi = C G^{-1} C^T as a Packed matrix whose d1
    (order 1) runs along the chart directions, from base data ``bd`` at
    p.q of order at least order + 1 (p and bd may be stacked alike).
    The C basis and the restricted Gram matrix G = C^T Omega C come from
    ``_omega_packed``, which has just refused |det G| <= NONDEG_TOL on
    the same array, so G is inverted unguarded."""
    _, C, G, _ = _omega_packed(system, p, bd, order)
    return pk_matmul(pk_matmul(C, pk_inv(G)), pk_transpose(C))


def nh_bivector(system: NonholonomicSystem, p: PointM,
                order: int = 0) -> BivectorAtPoint:
    """Reference construction of the bivector: solve the defining
    relation on the C-basis.

    With G = C^T Omega C the restricted Gram matrix (symplectic, hence
    invertible -- degeneracy raises a geometry error), antisymmetry of G
    turns `i_X Omega|_C = -alpha|_C` into X = C G^{-1} C^T alpha, so the
    sharp matrix is Pi = C G^{-1} C^T.  All steps run in packed
    arithmetic carrying derivatives along the chart variables at the
    requested order."""
    order = check_integer("order", order, 0, 2)
    Pi = _bivector_packed(system, p, base_at(system, p, order + 1), order)
    return BivectorAtPoint(mat=Pi.val, d1=Pi.d1, order=order,
                           chart_names=system.chart_names)


def hamiltonian_M(system: NonholonomicSystem, p: PointM):
    """Hamiltonian on the constraint phase space and its differential.

    H = (1/2) ptilde . kD^{-1} ptilde + U(q), with kD the D-frame Gram
    matrix of the kinetic metric.  The value is cross-checked against
    the ambient route (1/2) p . kappa^{-1} p with p the momenta embedded
    by the elimination through the complement (``manifold``'s
    _eliminated_mu).  Returns (value, dH) with dH a chart covector."""
    check_one_point(p.q)
    return _hamiltonian(system, p, base_at(system, p, order=1))


def _energy(system: NonholonomicSystem, q, pt, bd: BaseData):
    """H and its differential at (q, ptilde), from base data ``bd`` at q
    of order at least 1: returns (H, U, dH_q, v), where v = kD^{-1}
    ptilde is both dH_ptilde and the D-frame velocity.  A non-finite H
    or dH raises EvalError."""
    uval, ugrad, _ = get_compiled(system).potential.evaluate(q, 1)
    vel = bd.kD_inv.val @ pt
    value = 0.5 * float(pt @ vel) + uval
    dHq = 0.5 * np.einsum("a,lab,b->l", pt, bd.kD_inv.d1, pt) + ugrad
    # v needs no check: a non-finite entry makes pt . v non-finite
    if not math.isfinite(value) or \
            np.count_nonzero(np.isfinite(dHq)) < len(dHq):
        raise EvalError("the Hamiltonian or its differential has no "
                        "finite value")
    return value, uval, dHq, vel


def _field(bd: BaseData, pt, dHq, vel):
    """X_nh = -pi#(dH) in chart components, from base data ``bd`` at q
    of order at least 1 and dH = (dHq, vel) as ``_energy`` gives it:

        qdot      =  X kD^{-1} ptilde          (the admitted velocity),
        ptildedot = -X^T dH_q - S kD^{-1} ptilde,   S = X^T E X.

    Returns (qdot, ptildedot)."""
    X = bd.X.val
    ew = np.einsum("a,jai->ij", pt, bd.mu.d1)
    s_mat = X.T @ (ew - ew.T) @ X
    return X @ vel, -(X.T @ dHq) - s_mat @ vel


def _hamiltonian(system: NonholonomicSystem, p: PointM, bd: BaseData):
    """hamiltonian_M from base data ``bd`` at p.q of order at least 1."""
    mu_w = _eliminated_mu(system, bd)
    value, uval, dHq, vel = _energy(system, p.q, p.ptilde, bd)
    p_amb = mu_w.T @ p.ptilde
    value_amb = 0.5 * float(p_amb @ np.linalg.solve(bd.kappa.val, p_amb)) \
        + uval
    if abs(value - value_amb) > ROUTE_TOL * max(1.0, abs(value)):
        raise GeometryError(
            f"Hamiltonian routes disagree: {value!r} vs {value_amb!r}")
    return value, np.concatenate([dHq, vel])


def nh_vector_field(system: NonholonomicSystem, p: PointM) -> np.ndarray:
    """Evolution vector field X_nh = -pi#(dH) in chart components (see
    ``_field``), from one base evaluation shared with the Hamiltonian."""
    check_one_point(p.q)
    bd = base_at(system, p, order=1)
    _, dH = _hamiltonian(system, p, bd)
    n = system.n
    return np.concatenate(_field(bd, p.ptilde, dH[:n], dH[n:]))
