"""Fixed-step trajectory integration of the nonholonomic dynamics.

The integrator advances the chart state u = (q, ptilde) with classical
fourth-order Runge-Kutta.  The right-hand side is the nonholonomic vector
field X_nh = -pi#(dH) as ``bracket._field`` writes it out componentwise,
with H and dH from ``bracket._energy`` -- the same code behind
:func:`nhk.bracket.nh_vector_field` -- in frame-bracket form: the
momentum block is S = p([X_alpha, X_beta]) and dH_q reads d kappa and
dX, so a stage reads kappa and X with their first derivatives and the
values of kD^{-1}.  Each stage runs the two halves of
``manifold.base_at``: ``_frame_at`` (kappa, eps, X and their checks) at
order 1 and ``_gram_at`` (kD and its guarded inverse) on values, so it
builds no derivative of kD or kD^{-1} and no mu at all, and, like
base_at, reads no complement.  A test pins the right-hand side against
the block form ``-Pi . dH`` of the chart tensors, whose S comes from
d mu.
Each recorded sample carries the Hamiltonian and the constraint residual
max_a |eps^a(qdot)|; both are conserved/zero in exact arithmetic, so the
recorded values measure integrator and floating-point error only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bracket import _energy, _field
from .errors import (DomainError, EvalError, GeometryError, check_integer,
                     check_one_point, check_real)
from ._linalg import Packed
from .manifold import NonholonomicSystem, PointM, _frame_at, _gram_at

__all__ = ["Trajectory", "integrate", "trajectory_csv"]


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled integral curve of the nonholonomic vector field.

    ``states`` is one stacked PointM; ``states[i]`` is the point reached
    at ``times[i] = i * dt``, ``energy[i]`` is the Hamiltonian there and
    ``constraint_residual[i]`` is max_a |eps^a(qdot)| at that state.
    When the flow leaves the declared coordinate domain (or an expression
    guard trips, or the Hamiltonian has no finite value) the trajectory
    is truncated at the last valid state,
    ``completed`` is False and ``exit_reason`` says why.
    """

    system: NonholonomicSystem
    dt: float
    times: np.ndarray
    states: PointM
    energy: np.ndarray
    constraint_residual: np.ndarray
    completed: bool
    exit_reason: Optional[str]

    @property
    def diagnostics(self) -> dict:
        """Summary figures: energy drift (relative to the initial energy
        when it is nonzero) and the worst constraint residual."""
        h0 = float(self.energy[0])
        drift = float(np.max(np.abs(self.energy - h0)))
        if h0 != 0.0:
            drift /= abs(h0)
        return {
            "max_energy_drift": drift,
            "max_residual": float(np.max(self.constraint_residual)),
        }

    def states_array(self) -> np.ndarray:
        """All recorded chart states stacked as a (len(times), dimM) array."""
        return np.concatenate([self.states.q, self.states.ptilde], axis=-1)


def _rhs(system: NonholonomicSystem, u: np.ndarray):
    """One fused evaluation at chart state u: returns du/dt, H and the
    constraint forms' values eps(q), for ``_residual``.  The Gram half
    runs on values, whose products and inverse are base_at's own, so
    du/dt equals ``nh_vector_field`` bit for bit."""
    n = system.n
    q, pt = u[:n], u[n:]
    _, kappa, eps, X = _frame_at(system, q, 1)
    _, _, kD_inv = _gram_at(Packed(kappa.val), Packed(X.val))
    try:
        energy, _, dHq, vel, qdot, M = _energy(system, q, pt, kappa, X,
                                               kD_inv.val)
    except EvalError:
        # a non-finite momentum makes H non-finite: name that cause
        if not np.isfinite(pt).all():
            raise DomainError("non-finite momentum value") from None
        raise
    qdot, ptdot = _field(X.val, M, dHq, vel, qdot)
    return np.concatenate([qdot, ptdot]), energy, eps.val


def _residual(eps: np.ndarray, du: np.ndarray) -> float:
    """max_a |eps^a(qdot)| of the right-hand side du = (qdot, ptildedot)."""
    return float(np.max(np.abs(eps @ du[:eps.shape[-1]]), initial=0.0))


def integrate(system: NonholonomicSystem, init: PointM, dt: float,
              steps: int) -> Trajectory:
    """Integrate the nonholonomic dynamics from ``init`` with fixed-step
    classical RK4, recording energy and constraint residual at every
    sample.

    Leaving the declared domain truncates the trajectory (flagged via
    ``completed`` / ``exit_reason``); a frame singularity is fatal and
    raises :class:`GeometryError` with the step index.  ``init`` is one
    point: members of a stack would each need their own truncation."""
    dt = check_real("dt", dt, 0.0, strict=True)
    steps = check_integer("steps", steps, 1)
    check_one_point(init.q)
    system.check_point(init)

    n = system.n
    u = np.concatenate([init.q, init.ptilde])

    try:
        k1, h, eps = _rhs(system, u)
    except GeometryError as exc:
        raise GeometryError(f"frame singularity at step 0: {exc}") from exc

    rows = [u]
    energy = [h]
    residual = [_residual(eps, k1)]
    completed = True
    exit_reason = None

    for step in range(1, steps + 1):
        try:
            k2, _, _ = _rhs(system, u + (0.5 * dt) * k1)
            k3, _, _ = _rhs(system, u + (0.5 * dt) * k2)
            k4, _, _ = _rhs(system, u + dt * k3)
            u_new = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            # Evaluating at the accepted state both validates its
            # coordinates and momenta (in _rhs) and supplies the next
            # step's k1 stage; only accepted states record a residual.
            # A non-finite momentum ends the trajectory like a domain
            # exit.
            k1_new, h, eps = _rhs(system, u_new)
        except (DomainError, EvalError) as exc:
            completed = False
            exit_reason = f"left the valid domain at step {step}: {exc}"
            break
        except GeometryError as exc:
            raise GeometryError(
                f"frame singularity at step {step}: {exc}") from exc
        u, k1 = u_new, k1_new
        rows.append(u)
        energy.append(h)
        residual.append(_residual(eps, k1))

    return Trajectory(
        system=system,
        dt=dt,
        times=np.arange(len(rows)) * dt,
        states=PointM(*np.hsplit(np.array(rows), [n])),
        energy=np.array(energy),
        constraint_residual=np.array(residual),
        completed=completed,
        exit_reason=exit_reason,
    )


def trajectory_csv(trajectory: Trajectory) -> str:
    """Render a trajectory as CSV with header
    ``t,<coords...>,<ptilde...>,energy,residual`` and 17 significant
    digits per value."""
    system = trajectory.system
    header = ["t", *system.coord_names,
              *system.chart_names[system.n:], "energy", "residual"]
    lines = [",".join(header)]
    rows = zip(trajectory.times, trajectory.states_array(),
               trajectory.energy, trajectory.constraint_residual)
    for t, u, h, r in rows:
        vals = [t, *u, h, r]
        lines.append(",".join("%.17g" % v for v in vals))
    return "\n".join(lines) + "\n"
