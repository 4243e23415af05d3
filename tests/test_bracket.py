"""The induced bracket: reference route vs fast route, the defining
property of the sharp map, Hamiltonian dynamics, and an independent
Lagrange-multiplier oracle for the evolution field."""

import numpy as np
import pytest

from nhk import (
    PointM,
    base_at,
    chart_tensors,
    hamiltonian_M,
    nh_bivector,
    nh_vector_field,
    omega_M,
    sample_points,
    splitting_at,
)
from nhk._compile import get_compiled
from nhk.bracket import _chart_tensors
from nhk._linalg import Packed, jm_inv, jm_matmul, pk_unpack
from nhk.jet import Jet2, jet_const

# ------------------------------------------------- structure of the sharp


def test_sharp_matrix_block_structure(system):
    n, k = system.n, system.k
    nk = n - k
    for p in sample_points(system, 10, seed=101):
        ct = chart_tensors(system, p)
        bd = base_at(system, p.q, order=0)
        np.testing.assert_allclose(ct.Pi[:n, :n], 0.0, atol=1e-14)
        np.testing.assert_allclose(ct.Pi[:n, n:], -bd.X.val, atol=1e-12)
        np.testing.assert_allclose(ct.Pi[n:, :n], bd.X.val.T, atol=1e-12)
        np.testing.assert_allclose(ct.Pi[n:, n:],
                                   bd.X.val.T @ ct.E @ bd.X.val, atol=1e-10)
        # antisymmetry of the bivector matrix
        np.testing.assert_allclose(ct.Pi, -ct.Pi.T, atol=1e-10)


def test_sharp_satisfies_its_defining_property(system):
    # pi#(alpha) lies in C and contracts Omega_M to -alpha on C
    rng = np.random.default_rng(5)
    for p in sample_points(system, 8, seed=103):
        ct = chart_tensors(system, p)
        bd = base_at(system, p.q, order=0)
        sp = splitting_at(system, p)
        for _ in range(3):
            alpha = rng.normal(size=system.dimM)
            v = ct.Pi @ alpha
            # v is tangent to C: base part annihilated by constraint forms
            if system.k:
                assert np.max(np.abs(bd.eps.val @ v[: system.n])) < 1e-9
            # i_v Omega + alpha vanishes on C
            resid = (v @ ct.Omega + alpha) @ sp.C_basis
            np.testing.assert_allclose(resid, 0.0, atol=1e-9)


def test_sharp_vanishes_exactly_on_W_annihilating_pairs(system):
    # covectors eps^a pulled back to the chart are sent to zero
    if system.k == 0:
        pytest.skip("no constraints")
    for p in sample_points(system, 5, seed=107):
        ct = chart_tensors(system, p)
        bd = base_at(system, p.q, order=0)
        for a in range(system.k):
            alpha = np.zeros(system.dimM)
            alpha[: system.n] = bd.eps.val[a]
            np.testing.assert_allclose(ct.Pi @ alpha, 0.0, atol=1e-10)


def test_momentum_weighting_of_the_base_block(system):
    # E is linear in the momenta and vanishes at ptilde = 0
    q = sample_points(system, 1, seed=109)[0].q
    nk = system.n - system.k
    zero = chart_tensors(system, PointM(q, np.zeros(nk)))
    np.testing.assert_allclose(zero.E, 0.0, atol=1e-14)
    np.testing.assert_allclose(zero.S, 0.0, atol=1e-14)
    p1 = chart_tensors(system, PointM(q, np.eye(nk)[0]))
    p2 = chart_tensors(system, PointM(q, 2 * np.eye(nk)[0]))
    np.testing.assert_allclose(p2.E, 2 * p1.E, atol=1e-12)


# ------------------------------------------- reference vs fast pipelines


def test_reference_and_fast_routes_agree(system):
    for p in sample_points(system, 10, seed=113):
        ref = nh_bivector(system, p, order=0)
        fast = chart_tensors(system, p)
        assert ref.d1 is None
        np.testing.assert_allclose(ref.mat, fast.Pi,
                                   rtol=1e-9, atol=1e-10)


def _jet_matrix_bivector(system, p):
    """Pi = C G^{-1} C^T with G = C^T Omega C in Jet2-matrix arithmetic
    (jm_*): a reference for nh_bivector's packed construction."""
    n, nk, dim = system.n, system.n - system.k, system.dimM
    om = omega_M(system, p, order=1)
    Om = pk_unpack(Packed(om.mat, om.d1))
    bd = base_at(system, p.q, order=1)
    zero, one = jet_const(0.0, dim, 1), jet_const(1.0, dim, 1)
    C = [[zero] * (2 * nk) for _ in range(dim)]
    for i in range(n):
        for al in range(nk):
            g = np.zeros(dim)
            g[:n] = bd.X.d1[:, i, al]
            C[i][al] = Jet2(float(bd.X.val[i, al]), g)
    for al in range(nk):
        C[n + al][nk + al] = one
    Ct = [list(row) for row in zip(*C)]
    G = jm_matmul(jm_matmul(Ct, Om), C)
    return jm_matmul(jm_matmul(C, jm_inv(G)), Ct)


def test_reference_route_matches_the_jet_matrix_construction(system):
    for p in sample_points(system, 3, seed=163):
        ref = _jet_matrix_bivector(system, p)
        got = nh_bivector(system, p, order=1)
        assert all(e.order == 1 for row in ref for e in row)
        np.testing.assert_allclose(
            got.mat, [[e.value for e in row] for row in ref],
            rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            np.moveaxis(got.d1, 0, -1),
            [[e.grad for e in row] for row in ref], rtol=0, atol=1e-12)


def test_fast_route_derivatives_match_finite_differences(system):
    # the one construction of each derivative (order 1 of the packed
    # routes) against central differences of the closed block form
    p = sample_points(system, 1, seed=131)[0]
    dPi = nh_bivector(system, p, order=1).d1
    dOmega = omega_M(system, p, order=1).d1
    n, nk = system.n, system.n - system.k
    h = 1e-6
    for l in range(system.dimM):
        qp, qm = p.q.copy(), p.q.copy()
        ptp, ptm = p.ptilde.copy(), p.ptilde.copy()
        if l < n:
            qp[l] += h
            qm[l] -= h
        else:
            ptp[l - n] += h
            ptm[l - n] -= h
        up = chart_tensors(system, PointM(qp, ptp))
        dn = chart_tensors(system, PointM(qm, ptm))
        np.testing.assert_allclose(dPi[l], (up.Pi - dn.Pi) / (2 * h),
                                   rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(dOmega[l],
                                   (up.Omega - dn.Omega) / (2 * h),
                                   rtol=1e-5, atol=1e-6)


def test_chart_tensors_from_a_higher_order_base_are_identical(system):
    # the routes share one order-2 base evaluation; the order-0 chart
    # tensors built from it must equal those from an order-1 base
    for p in sample_points(system, 3, seed=331):
        a = _chart_tensors(system, p, base_at(system, p.q, order=1))
        b = _chart_tensors(system, p, base_at(system, p.q, order=2))
        for field in ("E", "S", "Omega", "Pi"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field


def test_chart_tensors_omega_matches_two_form(system):
    for p in sample_points(system, 5, seed=137):
        ct = chart_tensors(system, p)
        om = omega_M(system, p, order=0)
        np.testing.assert_allclose(ct.Omega, om.mat, atol=1e-12)


# --------------------------------------------------- bracket semantics


def test_bracket_matrix_of_a_stack_is_one_matrix_per_point(snakeboard):
    stack = sample_points(snakeboard, 3, seed=191)
    B = nh_bivector(snakeboard, stack, order=0).bracket_matrix()
    assert B.shape == (3, snakeboard.dimM, snakeboard.dimM)
    for i in range(3):
        alone = nh_bivector(snakeboard, stack[i], order=0).bracket_matrix()
        assert np.array_equal(B[i], alone)


def test_bracket_matrix_antisymmetric_and_coordinates_commute(system):
    p = sample_points(system, 1, seed=139)[0]
    b = nh_bivector(system, p, order=0).bracket_matrix()
    np.testing.assert_allclose(b, -b.T, atol=1e-10)
    np.testing.assert_allclose(b[: system.n, : system.n], 0.0, atol=1e-12)


def test_pairing_is_bilinear_and_antisymmetric(system):
    p = sample_points(system, 1, seed=149)[0]
    biv = nh_bivector(system, p, order=0)
    rng = np.random.default_rng(7)
    a, b, c = rng.normal(size=(3, system.dimM))
    assert biv.pairing(a, b) == pytest.approx(-biv.pairing(b, a), abs=1e-10)
    assert biv.pairing(a + 2 * c, b) == pytest.approx(
        biv.pairing(a, b) + 2 * biv.pairing(c, b), rel=1e-9, abs=1e-9)


def test_bracket_with_hamiltonian_gives_the_evolution_field(system):
    # df/dt = {f, H}: applying the bracket to chart functions recovers X_nh
    for p in sample_points(system, 5, seed=151):
        biv = nh_bivector(system, p, order=0)
        _, dH = hamiltonian_M(system, p)
        vf = nh_vector_field(system, p)
        for i in range(system.dimM):
            e = np.zeros(system.dimM)
            e[i] = 1.0
            assert biv.pairing(e, dH) == pytest.approx(vf[i], rel=1e-9,
                                                       abs=1e-10)


def test_bad_orders_rejected(particle):
    p = sample_points(particle, 1, seed=1)[0]
    for order in (2, -1, True, 1.0):
        with pytest.raises(ValueError):
            nh_bivector(particle, p, order=order)


# ----------------------------------------------------- the Hamiltonian


def test_hamiltonian_value_and_gradient(system):
    for p in sample_points(system, 5, seed=157):
        val, dH = hamiltonian_M(system, p)
        bd = base_at(system, p.q, order=0)
        u = get_compiled(system).potential.evaluate(p.q, 0)[0]
        expected = 0.5 * p.ptilde @ bd.kD_inv.val @ p.ptilde + u
        assert val == pytest.approx(expected, rel=1e-12)
        # momentum slot of dH is the admitted velocity in the X-frame
        np.testing.assert_allclose(dH[system.n:],
                                   bd.kD_inv.val @ p.ptilde, atol=1e-12)


def test_hamiltonian_gradient_matches_finite_differences(system):
    p = sample_points(system, 1, seed=163)[0]
    _, dH = hamiltonian_M(system, p)
    h = 1e-6
    n = system.n
    fd = np.zeros(system.dimM)
    for l in range(system.dimM):
        qp, qm = p.q.copy(), p.q.copy()
        ptp, ptm = p.ptilde.copy(), p.ptilde.copy()
        if l < n:
            qp[l] += h
            qm[l] -= h
        else:
            ptp[l - n] += h
            ptm[l - n] -= h
        fd[l] = (hamiltonian_M(system, PointM(qp, ptp))[0]
                 - hamiltonian_M(system, PointM(qm, ptm))[0]) / (2 * h)
    np.testing.assert_allclose(dH, fd, rtol=1e-5, atol=1e-6)


def test_energy_is_conserved_along_the_field(system):
    for p in sample_points(system, 10, seed=167):
        _, dH = hamiltonian_M(system, p)
        vf = nh_vector_field(system, p)
        assert abs(dH @ vf) < 1e-10 * max(1.0, np.max(np.abs(dH))
                                          * np.max(np.abs(vf)))


# ----------------------------------- Lagrange-multiplier dynamics oracle


def multiplier_dynamics(system, p):
    """Evolution at p computed the classical way: canonical equations on
    T*Q plus reaction forces lambda_a eps^a chosen to preserve the
    constraints.  Entirely independent of the bracket construction."""
    bd = base_at(system, p.q, order=1)
    kap, dkap = bd.kappa.val, bd.kappa.d1
    eps, deps = bd.eps.val, bd.eps.d1
    kinv = np.linalg.inv(kap)
    pamb = bd.mu.val.T @ p.ptilde          # embedded covector
    qdot = kinv @ pamb
    _, ugrad, _ = get_compiled(system).potential.evaluate(p.q, 1)
    # dH/dq_l = -(1/2) p kinv (d_l kappa) kinv p + d_l U
    dHq = -0.5 * np.einsum("i,lij,j->l", qdot, dkap, qdot) + ugrad
    if system.k:
        # lambda from d/dt [eps(q) qdot] = 0
        A = np.einsum("lai,i,l->a", deps, qdot, qdot) \
            - np.einsum("ai,ij,ljk,k,l->a", eps, kinv, dkap, qdot, qdot)
        G = eps @ kinv @ eps.T
        lam = np.linalg.solve(G, -A + eps @ kinv @ dHq)
        pdot = -dHq + eps.T @ lam
    else:
        pdot = -dHq
    # push to the chart: ptilde = X^T p
    ptdot = np.einsum("lia,i,l->a", bd.X.d1, pamb, qdot) + bd.X.val.T @ pdot
    return qdot, ptdot


def test_vector_field_matches_multiplier_elimination(system):
    for p in sample_points(system, 8, seed=173):
        vf = nh_vector_field(system, p)
        qdot, ptdot = multiplier_dynamics(system, p)
        scale = max(1.0, np.max(np.abs(vf)))
        np.testing.assert_allclose(vf[: system.n], qdot,
                                   rtol=1e-8, atol=1e-9 * scale)
        np.testing.assert_allclose(vf[system.n:], ptdot,
                                   rtol=1e-8, atol=1e-9 * scale)


def test_velocity_part_satisfies_constraints(system):
    if system.k == 0:
        pytest.skip("no constraints")
    for p in sample_points(system, 10, seed=179):
        vf = nh_vector_field(system, p)
        bd = base_at(system, p.q, order=0)
        assert np.max(np.abs(bd.eps.val @ vf[: system.n])) < 1e-10
