"""Integrator: right-hand side against the bracket formulation, the
complement it does not read, energy and constraint conservation, a
closed-form trajectory, domain-exit truncation, failure handling, and
the CSV export."""

import math
import warnings

import numpy as np
import pytest

import nhk.sim
from nhk import (
    PointM,
    base_at,
    builtin_definition,
    chart_tensors,
    complement_at,
    cross_validate,
    curvature_coeffs,
    hamiltonian_M,
    integrate,
    jacobiator_tensor,
    load_system,
    nh_bivector,
    nh_vector_field,
    omega_M,
    pick_default_W,
    sample_points,
    trajectory_csv,
)
from nhk.errors import DomainError, EvalError, GeometryError, ParameterError
from nhk.sim import _residual, _rhs

# ----------------------------------------------------------- right-hand side


def test_rhs_is_the_nonholonomic_vector_field(system):
    # reference: the block form -Pi . dH of the chart tensors, which
    # shares no code with the componentwise field behind _rhs
    for p in sample_points(system, 10, seed=77):
        du, h, eps = _rhs(system, np.concatenate([p.q, p.ptilde]))
        Pi = chart_tensors(system, p).Pi
        np.testing.assert_allclose(du, -Pi @ hamiltonian_M(system, p)[1],
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(du, nh_vector_field(system, p))
        assert h == pytest.approx(hamiltonian_M(system, p)[0], rel=1e-12)
        # qdot lies in the constraint kernel exactly
        assert _residual(eps, du) < 1e-10


# ------------------------------------------------- no complement is read
def test_the_dynamics_and_the_brute_force_route_read_no_complement():
    # the snakeboard with its declared wheel-axle complement, and without
    # it (the kappa-orthogonal complement): the embedding, the field, the
    # trajectories and the brute-force Jacobiator do not depend on W,
    # and none of them reads it, so they agree bit for bit
    declared = load_system(builtin_definition("snakeboard"))
    definition = builtin_definition("snakeboard")
    del definition["w_frame"]
    orthogonal = load_system(definition)
    points = sample_points(declared, 20, seed=5)
    assert not np.allclose(pick_default_W(declared, points.q[0]),
                           pick_default_W(orthogonal, points.q[0]))
    for p in points:
        mu = [base_at(s, p.q, 2).mu for s in (declared, orthogonal)]
        for a, b in zip(*mu):
            assert np.array_equal(a, b)
        assert np.array_equal(nh_vector_field(declared, p),
                              nh_vector_field(orthogonal, p))
        assert np.array_equal(jacobiator_tensor(declared, p, "bruteforce"),
                              jacobiator_tensor(orthogonal, p, "bruteforce"))
        a, b = (integrate(s, p, 0.01, 10) for s in (declared, orthogonal))
        assert (a.completed, a.exit_reason) == (b.completed, b.exit_reason)
        assert np.array_equal(a.states_array(), b.states_array())


def test_an_rk4_stage_evaluates_no_complement(system, monkeypatch):
    # the complement frame is built only by the operations that read W:
    # once per call, and once per stack of a cross-validation
    calls = []
    real = nhk.manifold._w_frame_at
    monkeypatch.setattr(nhk.manifold, "_w_frame_at",
                        lambda *args: calls.append(1) or real(*args))
    p = sample_points(system, 1, seed=3)[0]
    free = [lambda order=order: base_at(system, p.q, order)
            for order in (0, 1, 2)]
    free += [lambda: nh_bivector(system, p, 1),
             lambda: chart_tensors(system, p),
             lambda: omega_M(system, p, 1),
             lambda: jacobiator_tensor(system, p, "bruteforce"),
             lambda: integrate(system, p, 0.01, 3)]
    if system.adapted is not None:
        free.append(lambda: jacobiator_tensor(system, p, "km"))
    for op in free:
        op()
        assert calls == []
    readers = [lambda: jacobiator_tensor(system, p, "global"),
               lambda: curvature_coeffs(system, p),
               lambda: complement_at(system, base_at(system, p.q, 2))]
    for op in readers:
        calls.clear()
        op()
        assert len(calls) == 1
    calls.clear()
    report = cross_validate(system, samples=70, seed=5)
    assert report.skipped == [] and len(calls) == 2    # stacks of 64 and 6


# ------------------------------------------------------------- conservation


def test_short_particle_run_conserves_energy(particle):
    traj = integrate(particle, PointM([0.0, 0.0, 0.0], [1.0, 0.5]),
                     dt=1e-3, steps=500)
    assert traj.completed and traj.exit_reason is None
    d = traj.diagnostics
    assert d["max_energy_drift"] < 1e-10
    assert d["max_residual"] < 1e-12


def test_snakeboard_run_conserves_energy(snakeboard):
    traj = integrate(snakeboard,
                     PointM([0.0, 0.0, 0.2, 0.0, 0.7], [0.0, 0.0, 4.0]),
                     dt=1e-3, steps=400)
    assert traj.completed
    assert traj.diagnostics["max_energy_drift"] < 1e-9
    assert traj.diagnostics["max_residual"] < 1e-10


def test_time_reversal(disk):
    # flipping the momenta retraces the base path: integrate out, flip,
    # integrate back, flip again, and compare with the start
    init = PointM([0.1, -0.2, 0.4, 0.9], [0.8, 1.1])
    out = integrate(disk, init, dt=1e-3, steps=300)
    end = out.states[-1]
    back = integrate(disk, PointM(end.q, -end.ptilde), dt=1e-3, steps=300)
    final = back.states[-1]
    np.testing.assert_allclose(final.q, init.q, atol=1e-10)
    np.testing.assert_allclose(-final.ptilde, init.ptilde, atol=1e-10)


def test_trajectory_record_shapes(particle):
    traj = integrate(particle, PointM([0.0, 0.3, 0.0], [1.0, -0.5]),
                     dt=0.01, steps=25)
    n_samples = 26
    assert len(traj.times) == len(traj.states) == n_samples
    assert traj.energy.shape == traj.constraint_residual.shape == (n_samples,)
    np.testing.assert_allclose(traj.times, 0.01 * np.arange(n_samples),
                               rtol=1e-15)
    assert traj.states_array().shape == (n_samples, particle.dimM)
    np.testing.assert_array_equal(traj.states_array()[0],
                                  [0.0, 0.3, 0.0, 1.0, -0.5])
    assert traj.dt == 0.01
    d = traj.diagnostics
    assert set(d) == {"max_energy_drift", "max_residual"}
    h0 = traj.energy[0]
    assert d["max_energy_drift"] == pytest.approx(
        np.max(np.abs(traj.energy - h0)) / abs(h0), rel=1e-12)


def test_particle_run_matches_its_closed_form():
    # on nh_particle, ydot and c = xdot sqrt(1 + y^2) are conserved, so
    # x, z and ptilde_x = c sqrt(1 + y^2) follow in closed form; RK4's
    # error at t = 1 falls by 2^4 = 16 per halving of dt (at dt = 0.0025
    # the ratio reaches the rounding floor)
    x0, y0, z0 = 0.25, -0.5, 1.0
    pt = [1.0, 0.5]
    ydot = pt[1]
    c = pt[0] / math.sqrt(1 + y0 * y0)

    def exact(t):
        y = y0 + ydot * t
        return [x0 + c / ydot * (math.asinh(y) - math.asinh(y0)), y,
                z0 + c / ydot * (math.hypot(1, y) - math.hypot(1, y0)),
                c * math.hypot(1, y), ydot]

    errors = []
    for dt, bound in ((0.02, 5e-11), (0.01, 3.2e-12), (0.005, 2e-13)):
        tr = integrate(nhk.builtin("nh_particle"),
                       PointM([x0, y0, z0], pt), dt, round(1 / dt))
        assert tr.completed and tr.times[-1] == pytest.approx(1.0)
        errors.append(np.abs(tr.states_array()[-1] - exact(tr.times[-1])).max())
        assert errors[-1] <= bound, dt
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine == pytest.approx(16.0, rel=0.2)


def test_rolling_disk_run_matches_its_closed_form():
    # on the vertical disk ptilde is constant, and so are
    # phidot = ptilde_phi / (Iphi + m R^2) and thetadot = ptilde_theta /
    # Itheta: (x, y) runs on a circle of radius R phidot / thetadot.
    # RK4's error at t = 1 falls by 2^4 = 16 per halving of dt (at dt =
    # 0.0025 it reaches the rounding floor, 2.5e-14)
    prm = builtin_definition("rolling_disk")["params"]
    x0, y0, phi0, th0 = 0.3, -0.2, 0.1, 0.4
    pt = [0.9, 0.35]
    phidot = pt[0] / (prm["Iphi"] + prm["m"] * prm["R"] ** 2)
    thdot = pt[1] / prm["Itheta"]
    radius = prm["R"] * phidot / thdot

    def exact(t):
        th = th0 + thdot * t
        return [x0 + radius * (math.sin(th) - math.sin(th0)),
                y0 - radius * (math.cos(th) - math.cos(th0)),
                phi0 + phidot * t, th, pt[0], pt[1]]

    errors = []
    for dt, bound in ((0.04, 2.5e-9), (0.02, 1.6e-10), (0.01, 1e-11),
                      (0.005, 6.2e-13)):
        tr = integrate(nhk.builtin("rolling_disk"),
                       PointM([x0, y0, phi0, th0], pt), dt, round(1 / dt))
        assert tr.completed and tr.times[-1] == pytest.approx(1.0)
        errors.append(np.abs(tr.states_array()[-1] - exact(tr.times[-1])).max())
        assert errors[-1] <= bound, dt
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine == pytest.approx(16.0, rel=0.1)


# -------------------------------------------------------- domain truncation


def test_domain_exit_truncates(snakeboard):
    # a large steering momentum drives phi across the chart boundary
    traj = integrate(snakeboard,
                     PointM([0.0, 0.0, 0.0, 0.0, 1.5], [0.0, 10.0, 0.0]),
                     dt=0.01, steps=50)
    assert not traj.completed
    assert "left the valid domain at step" in traj.exit_reason
    assert len(traj.times) < 51
    # every recorded state is still inside the chart
    for p in traj.states:
        assert abs(p.q[4]) < np.pi / 2
    assert traj.times[-1] == pytest.approx((len(traj.times) - 1) * 0.01)


def test_non_finite_momentum_ends_the_trajectory(particle, monkeypatch):
    # from the k2 stage of step 3 on, the field drives the momenta to
    # infinity and leaves the coordinates still, so only the momentum
    # check can stop the run
    calls = {"n": 0}
    real = nhk.sim._field

    def blowing_up(*args):
        calls["n"] += 1
        qdot, ptdot = real(*args)
        if calls["n"] < 10:     # the start, then 4 stages per step
            return qdot, ptdot
        return np.zeros_like(qdot), np.full_like(ptdot, np.inf)

    monkeypatch.setattr(nhk.sim, "_field", blowing_up)
    with np.errstate(all="ignore"):
        traj = integrate(particle, PointM([0.0, 0.3, 0.0], [1.0, -0.5]),
                         dt=0.01, steps=10)
    assert not traj.completed
    assert traj.exit_reason == ("left the valid domain at step 3: "
                                "non-finite momentum value")
    assert len(traj.states) == len(traj.times) == 3
    assert np.isfinite(traj.states_array()).all()


def test_an_overflowing_potential_ends_the_trajectory():
    # the force grows like exp(x); an RK4 stage of step 2 evaluates the
    # potential beyond the float range, which ends the run like a domain
    # exit instead of raising
    doc = builtin_definition("nh_particle")
    doc["potential"] = "-exp(x)"
    s = load_system(doc)
    traj = integrate(s, PointM([5.0, 0.0, 0.0], [10.0, 0.0]), dt=0.1,
                     steps=50)
    assert not traj.completed
    assert traj.exit_reason.startswith(
        "left the valid domain at step 2: exp has no finite value or "
        "derivative at ")
    assert len(traj.states) == len(traj.times) == 2
    assert np.isfinite(traj.states_array()).all()


def test_an_overflowing_hamiltonian_ends_the_trajectory():
    # a force of 1e300 drives the momentum to about 5e297 in the first
    # RK4 stage, finite, but its square, in H, is not
    doc = builtin_definition("nh_particle")
    doc["potential"] = "-1e300*x"
    s = load_system(doc)
    with np.errstate(all="ignore"):
        traj = integrate(s, PointM([0.0, 0.0, 0.0], [1.0, 0.0]), dt=0.01,
                         steps=5)
    assert not traj.completed
    assert traj.exit_reason == (
        "left the valid domain at step 1: the Hamiltonian or its "
        "differential has no finite value")
    assert len(traj.states) == len(traj.times) == 1


def test_a_non_finite_initial_hamiltonian_is_an_eval_error(particle):
    # numpy warns of the overflow in H: the same EvalError whether that
    # warning is an error (as in this suite) or ignored
    p = PointM([0.0, 0.0, 0.0], [1e200, 0.0])
    for action in ("error", "ignore"):
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            for op in (lambda: integrate(particle, p, dt=1.0, steps=2),
                       lambda: hamiltonian_M(particle, p),
                       lambda: nh_vector_field(particle, p)):
                with pytest.raises(EvalError, match="the Hamiltonian or its "
                                   "differential has no finite"):
                    op()


def test_initial_point_must_be_valid(snakeboard):
    with pytest.raises(DomainError):
        integrate(snakeboard, PointM([0, 0, 0, 0, 2.0], [0, 0, 0]),
                  dt=1e-3, steps=1)


# ------------------------------------------------------------ fatal failure


def test_frame_singularity_is_fatal(particle, monkeypatch):
    calls = {"n": 0}
    real = nhk.sim.base_at

    def failing(system, q, order):
        calls["n"] += 1
        if calls["n"] >= 6:
            raise GeometryError("constraint frame lost rank")
        return real(system, q, order)

    monkeypatch.setattr(nhk.sim, "base_at", failing)
    with pytest.raises(GeometryError, match=r"frame singularity at step \d"):
        integrate(particle, PointM([0, 0, 0], [1.0, 0.5]), dt=1e-3, steps=10)


def test_frame_singularity_at_start(particle, monkeypatch):
    def failing(system, q, order):
        raise GeometryError("constraint frame lost rank")

    monkeypatch.setattr(nhk.sim, "base_at", failing)
    with pytest.raises(GeometryError, match="frame singularity at step 0"):
        integrate(particle, PointM([0, 0, 0], [1.0, 0.5]), dt=1e-3, steps=10)


# --------------------------------------------------------------- validation


@pytest.mark.parametrize("dt", [0.0, -1e-3, float("nan"), "0.1",
                                float("inf"), True,
                                pytest.param(10**400, id="int-1e400")])
def test_bad_dt_rejected(particle, dt):
    with pytest.raises(ParameterError):
        integrate(particle, PointM([0, 0, 0], [1, 0]), dt=dt, steps=10)


def test_numpy_scalar_dt_and_steps_accepted(particle):
    init = PointM([0, 0, 0], [1, 0])
    a = integrate(particle, init, dt=np.float32(0.01), steps=np.int64(3))
    b = integrate(particle, init, dt=float(np.float32(0.01)), steps=3)
    assert type(a.dt) is float and a.dt == b.dt
    np.testing.assert_array_equal(a.states_array(), b.states_array())


@pytest.mark.parametrize("steps", [0, -5, 2.5, "10", True])
def test_bad_steps_rejected(particle, steps):
    with pytest.raises(ParameterError):
        integrate(particle, PointM([0, 0, 0], [1, 0]), dt=1e-3, steps=steps)


# ---------------------------------------------------------------- CSV export


def test_trajectory_csv_layout(particle):
    traj = integrate(particle, PointM([0.25, -0.5, 1.0], [1.0, 0.5]),
                     dt=0.01, steps=3)
    text = trajectory_csv(traj)
    lines = text.splitlines()
    assert lines[0] == "t,x,y,z,ptilde_x,ptilde_y,energy,residual"
    assert len(lines) == 5  # header + 4 samples
    assert text.endswith("\n")
    first = [float(v) for v in lines[1].split(",")]
    assert first[:6] == [0.0, 0.25, -0.5, 1.0, 1.0, 0.5]
    # 17 significant digits round-trip every recorded float exactly
    for line, (t, p, h, r) in zip(
            lines[1:], zip(traj.times, traj.states, traj.energy,
                           traj.constraint_residual)):
        vals = [float(v) for v in line.split(",")]
        assert vals == [t, *p.q, *p.ptilde, h, r]


def test_trajectory_csv_snakeboard_header(snakeboard):
    traj = integrate(snakeboard,
                     PointM([0, 0, 0, 0, 0.3], [0.1, 0.0, 0.5]),
                     dt=1e-3, steps=2)
    header = trajectory_csv(traj).splitlines()[0]
    assert header == ("t,x,y,theta,psi,phi,"
                      "ptilde_psi,ptilde_phi,ptilde_S,energy,residual")
