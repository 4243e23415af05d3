"""Curvature of the admissible splitting: tensor structure, dual
computation routes, hand-derived oracles for the builtins, and the
adapted-coordinate data feeding the coordinate Jacobiator route."""

import numpy as np
import pytest

from nhk import (
    PointM,
    adapted_data,
    base_at,
    complement_at,
    curvature_KW_M,
    curvature_KW_Q,
    curvature_coeffs,
    sample_points,
    splitting_at,
)
from nhk._compile import GridEval, get_compiled
from nhk._linalg import pk_const, pk_inv, pk_matmul, pk_transpose
from nhk.errors import UnsupportedOperationError
from nhk.manifold import _c_basis, _splitting

# ------------------------------------------------------ tensor structure


def test_coefficients_antisymmetric_and_semibasic(system):
    n = system.n
    for p in sample_points(system, 8, seed=211):
        cv = curvature_coeffs(system, p)
        # exactly: the coefficients are antisymmetrized, and the
        # momentum columns of P_C's q-rows are zero
        assert (cv.coeffs == -cv.coeffs.transpose(0, 2, 1)).all()
        # semi-basic: vanishes on momentum directions
        assert not cv.coeffs[:, n:, :].any()
        assert not cv.coeffs[:, :, n:].any()


def test_vertical_arguments_are_killed(system):
    p = sample_points(system, 1, seed=223)[0]
    rng = np.random.default_rng(3)
    u = rng.normal(size=system.dimM)
    vert = np.zeros(system.dimM)
    vert[system.n:] = rng.normal(size=system.n - system.k)
    np.testing.assert_allclose(curvature_KW_M(system, p, u, vert), 0.0,
                               atol=1e-12)
    np.testing.assert_allclose(curvature_KW_M(system, p, vert, u), 0.0,
                               atol=1e-12)


def test_pair_antisymmetric(system):
    p = sample_points(system, 1, seed=227)[0]
    rng = np.random.default_rng(4)
    u, v = rng.normal(size=(2, system.dimM))
    kuv = curvature_KW_M(system, p, u, v)
    kvu = curvature_KW_M(system, p, v, u)
    np.testing.assert_allclose(kuv, -kvu, atol=1e-10)


def test_lifted_complement_arguments_are_killed(system):
    # K_W = K_W o (P_C x P_C) and P_C kills the lifted complement frame,
    # with and without a lift correction
    if system.k == 0:
        pytest.skip("no constraints")
    rng = np.random.default_rng(5)
    k, nk = system.k, system.n - system.k
    lift = (rng.normal(size=(k, nk)), rng.normal(size=(k, nk)))
    for p in sample_points(system, 4, seed=225):
        v = rng.normal(size=system.dimM)
        for lf in (None, lift):
            cv = curvature_coeffs(system, p, lift=lf)
            tol = 1e-12 * max(1.0, np.abs(cv.coeffs).max())
            for a in range(k):
                w = cv.W_lift[:, a]
                assert np.abs(cv.pair(w, v)).max() <= tol
                assert np.abs(cv.pair(v, w)).max() <= tol


def test_values_lie_in_the_complement_lift(system):
    if system.k == 0:
        pytest.skip("no constraints")
    for p in sample_points(system, 5, seed=229):
        cv = curvature_coeffs(system, p)
        rng = np.random.default_rng(11)
        u, v = rng.normal(size=(2, system.dimM))
        k_vec = cv.pair(u, v)
        # P_C annihilates the value; P_W fixes it
        np.testing.assert_allclose(cv.P_C @ k_vec, 0.0, atol=1e-9)
        np.testing.assert_allclose(cv.P_W @ k_vec, k_vec, atol=1e-9)


# ------------------------------------------------------ dual-route check


def _complement_jet(system, bd):
    """The complement frame Z with its first q-derivatives, built here:
    the declared frame compiled to order 1, or d/ds (constant), else the
    kappa-orthogonal complement kappa^-1 eps^T (eps kappa^-1 eps^T)^-1
    in packed arithmetic.  The library reads no derivative of Z, and
    compiles the declared frame to values only."""
    if system.w_frame is not None:
        w = GridEval(system.w_frame, system.coord_names)
        return pk_transpose(w.packed(bd.q, 1))
    w = get_compiled(system).w
    if w is not None:
        return pk_const(w.packed(bd.q, 0).val.T, system.n, 1)
    P = pk_matmul(pk_inv(bd.kappa), pk_transpose(bd.eps))
    return pk_matmul(P, pk_inv(pk_matmul(bd.eps, P)))


def _curvature_pair_assembled(system, p, u, v, lift=None):
    """The commutator definition -P_W([P_C U, P_C V]), evaluated
    directly, with u, v extended as constant-coefficient combinations
    of the assembled frame fields (X-lifts, momentum verticals, lifted
    complement legs) instead of constant chart extensions; the
    projections are differentiated through Z's own q-derivative."""
    n, k, dim = system.n, system.k, system.dimM
    bd = base_at(system, p, order=1)
    Z = _complement_jet(system, bd)
    np.testing.assert_allclose(Z.val, complement_at(system, bd)[0],
                               rtol=1e-14, atol=1e-14)
    Zl, epse, P_W, P_C = _splitting(system, bd, Z.val, lift)
    # dP_C = -(dZl epse + Zl depse) along the q-directions
    dZl = np.zeros((n, dim, k))
    dZl[:, :n] = Z.d1
    if lift is not None:
        dZl[:, :n] += np.einsum("lib,ab->lia", bd.X.d1, lift[0])
    depse = np.zeros((n, k, dim))
    depse[..., :n] = bd.eps.d1
    dP_C = np.zeros((dim, dim, dim))
    dP_C[:n] = -(np.einsum("lia,aj->lij", dZl, epse)
                 + np.einsum("ia,laj->lij", Zl, depse))
    # assembled frame B = [C | Zl] and its q-derivatives
    C = _c_basis(system, bd, 1)
    B = np.concatenate([C.val, Zl], axis=-1)
    dB = np.concatenate([C.d1[:n], dZl], axis=-1)
    cu = np.linalg.solve(B, np.asarray(u, dtype=float))
    cv = np.linalg.solve(B, np.asarray(v, dtype=float))
    # fields U = B c, projected: PU = P_C B c; commutator at the point
    PU = P_C @ B @ cu
    PV = P_C @ B @ cv
    dPB = np.zeros((system.dimM,) * 3)   # chart-dir, comp, column
    dPB[:n] = (np.einsum("lij,jc->lic", dP_C[:n], B)
               + np.einsum("ij,ljc->lic", P_C, dB))
    dPU = dPB @ cu                    # (chart-dir, comp)
    dPV = dPB @ cv
    brkt = np.einsum("l,lk->k", PU, dPV) - np.einsum("l,lk->k", PV, dPU)
    return -(P_W @ brkt)


def test_projected_commutator_route_agrees(system):
    # chart-extension route vs assembled-frame extension route: the value
    # is tensorial, so both must agree despite different extensions
    rng = np.random.default_rng(17)
    for p in sample_points(system, 5, seed=233):
        cv = curvature_coeffs(system, p)
        for _ in range(3):
            u, v = rng.normal(size=(2, system.dimM))
            a = cv.pair(u, v)
            b = _curvature_pair_assembled(system, p, u, v)
            np.testing.assert_allclose(a, b, rtol=1e-8, atol=1e-9)


def test_projected_commutator_route_agrees_with_lift(system):
    if system.k == 0:
        pytest.skip("no constraints")
    rng = np.random.default_rng(19)
    k, nk = system.k, system.n - system.k
    lift = (rng.normal(size=(k, nk)), rng.normal(size=(k, nk)))
    p = sample_points(system, 1, seed=239)[0]
    u, v = rng.normal(size=(2, system.dimM))
    a = curvature_coeffs(system, p, lift=lift).pair(u, v)
    b = _curvature_pair_assembled(system, p, u, v, lift=lift)
    np.testing.assert_allclose(a, b, rtol=1e-8, atol=1e-9)


# ----------------------------------------- base curvature correspondence


def test_M_and_Q_curvatures_correspond(system):
    # the base part of K_W on M is the distribution curvature on Q of the
    # projected base parts; with the plain lift the momentum part is zero
    rng = np.random.default_rng(23)
    for p in sample_points(system, 5, seed=241):
        u, v = rng.normal(size=(2, system.dimM))
        k_m = curvature_KW_M(system, p, u, v)
        k_q = curvature_KW_Q(system, p.q, u[: system.n], v[: system.n])
        np.testing.assert_allclose(k_m[: system.n], k_q, rtol=1e-8,
                                   atol=1e-9)
        np.testing.assert_allclose(k_m[system.n:], 0.0, atol=1e-12)


def test_KW_Q_rejects_bad_shapes(particle):
    with pytest.raises(ValueError):
        curvature_KW_Q(particle, np.zeros(3), np.zeros(2), np.zeros(3))


# ----------------------------------------------- lift (in)dependence


def test_lift_changes_stay_inside_C(system):
    # on arguments tangent to C -- the curvature's natural domain -- a
    # lift correction moves the value only within C
    if system.k == 0:
        pytest.skip("no constraints")
    rng = np.random.default_rng(29)
    k, nk = system.k, system.n - system.k
    p = sample_points(system, 1, seed=251)[0]
    bd = base_at(system, p.q, order=0)
    sp = splitting_at(system, p)
    plain = curvature_coeffs(system, p)
    for _ in range(3):
        lift = (rng.normal(size=(k, nk)), rng.normal(size=(k, nk)))
        lifted = curvature_coeffs(system, p, lift=lift)
        u = sp.C_basis @ rng.normal(size=2 * nk)
        v = sp.C_basis @ rng.normal(size=2 * nk)
        diff = lifted.pair(u, v) - plain.pair(u, v)
        # the difference is admissible: annihilated by the constraints
        np.testing.assert_allclose(bd.eps.val @ diff[: system.n], 0.0,
                                   atol=1e-9)


def test_lift_preserves_the_epsilon_coefficients(system):
    # pairing the curvature of C-arguments with the constraint forms is
    # lift-independent (the W-component in the eps-normalization)
    if system.k == 0:
        pytest.skip("no constraints")
    rng = np.random.default_rng(31)
    k, nk = system.k, system.n - system.k
    p = sample_points(system, 1, seed=257)[0]
    bd = base_at(system, p.q, order=0)
    sp = splitting_at(system, p)
    u = sp.C_basis @ rng.normal(size=2 * nk)
    v = sp.C_basis @ rng.normal(size=2 * nk)
    plain = bd.eps.val @ curvature_KW_M(system, p, u, v)[: system.n]
    lift = (rng.normal(size=(k, nk)), rng.normal(size=(k, nk)))
    lifted = bd.eps.val @ curvature_KW_M(system, p, u, v,
                                         lift=lift)[: system.n]
    np.testing.assert_allclose(plain, lifted, rtol=1e-8, atol=1e-9)


def test_bad_lift_shapes_rejected(particle):
    p = sample_points(particle, 1, seed=1)[0]
    with pytest.raises(ValueError):
        curvature_coeffs(particle, p, lift=(np.zeros((2, 2)),
                                            np.zeros((1, 2))))


# ----------------------------------------------------- analytic oracles


def test_particle_curvature_analytic(particle):
    # eps = dz - y dx, so d eps = dx ^ dy: the eps-coefficient of
    # K(v, w) is (Pv)_x (Pw)_y - (Pv)_y (Pw)_x
    rng = np.random.default_rng(37)
    for p in sample_points(particle, 10, seed=263):
        bd = base_at(particle, p.q, order=0)
        P = np.eye(3) - complement_at(particle, bd)[0] @ bd.eps.val
        v, w = rng.normal(size=(2, 3))
        pv, pw = P @ v, P @ w
        expected = pv[0] * pw[1] - pv[1] * pw[0]
        got = bd.eps.val @ curvature_KW_Q(particle, p.q, v, w)
        assert got[0] == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_disk_curvature_analytic(disk):
    # eps1 = dx - R cos(theta) dphi, eps2 = dy - R sin(theta) dphi with
    # coords (x, y, phi, theta):
    #   d eps1 = R sin(theta) dtheta ^ dphi,
    #   d eps2 = -R cos(theta) dtheta ^ dphi
    R = disk.params["R"]
    rng = np.random.default_rng(41)
    for p in sample_points(disk, 10, seed=269):
        th = p.q[3]
        bd = base_at(disk, p.q, order=0)
        P = np.eye(4) - complement_at(disk, bd)[0] @ bd.eps.val
        v, w = rng.normal(size=(2, 4))
        pv, pw = P @ v, P @ w
        wedge = pv[3] * pw[2] - pv[2] * pw[3]  # (dtheta ^ dphi)(pv, pw)
        expected = np.array([R * np.sin(th) * wedge,
                             -R * np.cos(th) * wedge])
        got = bd.eps.val @ curvature_KW_Q(disk, p.q, v, w)
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-12)


def test_holonomic_curvature_vanishes(holonomic):
    # eps = dz is closed: the distribution is integrable, so every
    # curvature route returns zero
    rng = np.random.default_rng(43)
    for p in sample_points(holonomic, 10, seed=271):
        cv = curvature_coeffs(holonomic, p)
        np.testing.assert_allclose(cv.coeffs, 0.0, atol=1e-10)
        v, w = rng.normal(size=(2, 3))
        np.testing.assert_allclose(curvature_KW_Q(holonomic, p.q, v, w),
                                   0.0, atol=1e-10)


def test_snakeboard_curvature_closed_form(snakeboard):
    # the only nonzero coefficients sit in the (phi, S) block and carry
    # +-2 r cos(phi) against the constraint forms
    from nhk.systems import snakeboard_expected

    for p in sample_points(snakeboard, 10, seed=277):
        bd = base_at(snakeboard, p.q, order=0)
        n = snakeboard.n
        # lifted D-frame legs: psi, phi, S
        legs = np.zeros((snakeboard.dimM, 3))
        legs[:n] = bd.X.val
        k_val = curvature_KW_M(snakeboard, p, legs[:, 2], legs[:, 1])
        coeff = bd.eps.val @ k_val[:n]
        expected = snakeboard_expected("KW_coeff", p)
        np.testing.assert_allclose(coeff, [expected, -expected],
                                   rtol=1e-9, atol=1e-12)
        # psi never participates
        for other in range(3):
            k_psi = curvature_KW_M(snakeboard, p, legs[:, 0], legs[:, other])
            np.testing.assert_allclose(k_psi, 0.0, atol=1e-10)


# ------------------------------------------------- adapted-coordinate data


def test_adapted_data_requires_adapted_declaration(snakeboard):
    with pytest.raises(UnsupportedOperationError):
        adapted_data(snakeboard, np.zeros(5))


def test_adapted_data_reproduces_constraint_coefficients(adapted_system):
    sys = adapted_system
    q = sample_points(sys, 1, seed=281)[0].q
    ad = adapted_data(sys, q)
    bd = base_at(sys, q, order=0)
    r_idx = list(ad.r_indices)
    assert ad.A.order == 2
    for a in range(sys.k):
        for al in range(sys.n - sys.k):
            assert ad.A.val[a, al] == pytest.approx(
                bd.eps.val[a, r_idx[al]], rel=1e-12, abs=1e-12)


def test_adapted_data_disk_closed_form(disk):
    q = np.array([0.3, -0.1, 0.7, 1.1])  # (x, y, phi, theta)
    R = disk.params["R"]
    th = q[3]
    ad = adapted_data(disk, q)
    np.testing.assert_allclose(ad.A.val, [[-R * np.cos(th), 0.0],
                                   [-R * np.sin(th), 0.0]], atol=1e-12)
    # r = (phi, theta): dA^x_phi/dtheta = R sin(theta) and A is
    # s-independent, so C has a single nonzero column pair
    np.testing.assert_allclose(ad.C[0], [[0.0, 0.0], [R * np.sin(th), 0.0]],
                               atol=1e-12)
    np.testing.assert_allclose(ad.Kcoef[0],
                               [[0.0, -R * np.sin(th)],
                                [R * np.sin(th), 0.0]], atol=1e-12)
    np.testing.assert_allclose(ad.Kcoef[1],
                               [[0.0, R * np.cos(th)],
                                [-R * np.cos(th), 0.0]], atol=1e-12)


def test_adapted_nonholonomy_matches_finite_differences(adapted_system):
    # C[a, al, be] = dA^a_be/dr^al - A^b_al dA^a_be/ds^b via FD of A
    sys = adapted_system
    q = sample_points(sys, 1, seed=283)[0].q
    ad = adapted_data(sys, q)
    k, nk = sys.k, sys.n - sys.k
    h = 1e-6

    def A_at(qq):
        return adapted_data(sys, qq).A.val

    A0 = A_at(q)
    dA = np.zeros((sys.n, k, nk))
    for l in range(sys.n):
        up, dn = q.copy(), q.copy()
        up[l] += h
        dn[l] -= h
        dA[l] = (A_at(up) - A_at(dn)) / (2 * h)
    r_idx, s_idx = list(ad.r_indices), list(ad.s_indices)
    C = np.zeros((k, nk, nk))
    for a in range(k):
        for al in range(nk):
            for be in range(nk):
                C[a, al, be] = dA[r_idx[al], a, be] - sum(
                    A0[b, al] * dA[s_idx[b], a, be] for b in range(k))
    np.testing.assert_allclose(ad.C, C, rtol=1e-5, atol=1e-7)
    np.testing.assert_allclose(ad.Kcoef, C - C.transpose(0, 2, 1),
                               rtol=1e-5, atol=1e-7)


def test_adapted_curvature_matches_frame_curvature(adapted_system):
    # Kcoef against the coordinate-adapted D-frame legs equals the
    # eps-coefficients of the distribution curvature on Q
    sys = adapted_system
    for p in sample_points(sys, 5, seed=293):
        ad = adapted_data(sys, p.q)
        bd = base_at(sys, p.q, order=0)
        nk = sys.n - sys.k
        for al in range(nk):
            for be in range(nk):
                kq = curvature_KW_Q(sys, p.q, bd.X.val[:, al],
                                    bd.X.val[:, be])
                got = bd.eps.val @ kq
                np.testing.assert_allclose(got, ad.Kcoef[:, al, be],
                                           rtol=1e-8, atol=1e-9)


def test_the_splitting_is_the_curvature_s_splitting(system):
    # the public splitting and the curvature read one construction
    for p in sample_points(system, 3, seed=263):
        sp = splitting_at(system, p)
        cv = curvature_coeffs(system, p)
        for a, b in ((sp.P_C, cv.P_C), (sp.P_W, cv.P_W),
                     (sp.W_basis, cv.W_lift)):
            assert np.array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))
