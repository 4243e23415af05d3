"""The Jacobiator: three-route agreement, tensoriality, closed-form
snakeboard values, sparsity patterns, and the cross-validation report."""

import itertools
import json
import re
import sys

import numpy as np
import pytest

import nhk.bracket
import nhk.curvature
import nhk.jacobiator
import nhk.jet
import nhk.manifold
import nhk.sim
from nhk import (
    PointM,
    adapted_coframe,
    adapted_data,
    base_at,
    builtin_definition,
    chart_tensors,
    complement_at,
    cross_validate,
    curvature_KW_M,
    curvature_KW_Q,
    curvature_coeffs,
    embed,
    hamiltonian_M,
    integrate,
    jacobiator_bruteforce,
    jacobiator_global,
    jacobiator_km,
    jacobiator_tensor,
    load_system,
    nh_bivector,
    nh_vector_field,
    omega_M,
    sample_points,
    snakeboard_reduced_jacobiator,
    snakeboard_reduced_sharp,
    splitting_at,
)
from nhk._linalg import Packed, pk_add, pk_const, pk_matmul
from nhk.curvature import _curvature_coeffs
from nhk.errors import NhkError, ParameterError, UnsupportedOperationError
from nhk.jet import NONFINITE
from nhk.jacobiator import _global_tensor, _km_point_data, _trivector_brute
from nhk.systems import _perm_sign, snakeboard_expected

from expr_corpus import nested_system

def basis(dim, i):
    e = np.zeros(dim)
    e[i] = 1.0
    return e


# ------------------------------------------------------- route agreement


def test_bruteforce_and_global_tensors_agree(system):
    for p in sample_points(system, 6, seed=311):
        tb = jacobiator_tensor(system, p, method="bruteforce")
        tg = jacobiator_tensor(system, p, method="global")
        scale = max(1.0, np.max(np.abs(tb)))
        np.testing.assert_allclose(tg, tb, atol=1e-9 * scale)


def test_the_global_route_does_not_depend_on_the_complement(system):
    # a second complement Z' = Z + X C, C a constant (n-k) x k matrix:
    # eps(Z') = 1 still, and its curvature K_W' differs from K_W, yet the
    # curvature formula gives the brute-force route's Jacobiator
    n, k = system.n, system.k
    C = pk_const(np.random.default_rng(4).normal(size=(n - k, k)), n, 1)
    for p in sample_points(system, 8, seed=4):
        bd = base_at(system, p.q, order=2)
        Z, _ = complement_at(system, bd, 1)
        Zp = pk_add(Z, pk_matmul(Packed(bd.X.val, bd.X.d1), C))
        assert np.abs(bd.eps.val @ Zp.val - np.eye(k)).max(initial=0.0) \
            <= 1e-14
        T = _trivector_brute(system, p, bd)
        assert np.abs(_global_tensor(system, p, bd, Zp) - T).max() <= \
            1e-14 * max(1.0, np.abs(T).max())
        K, Kp = (_curvature_coeffs(system, bd, z).coeffs for z in (Z, Zp))
        if k == 0 or system.name == "holonomic":
            # no complement, or an integrable D: K_W = 0 for every W
            assert np.abs(K).max(initial=0.0) <= 1e-12
            assert np.abs(Kp).max(initial=0.0) <= 1e-12
        else:
            assert np.abs(Kp - K).max() > 0.1


def test_bruteforce_route_makes_no_scalar_jet_calls(request, monkeypatch):
    systems = [request.getfixturevalue(name)
               for name in ("snakeboard", "particle", "disk", "kernel_path",
                            "kernel2")]
    for s in systems:  # fills each system's compile cache
        jacobiator_tensor(s, sample_points(s, 1, seed=317)[0], "bruteforce")

    def refuse(*args, **kwargs):
        raise AssertionError("scalar jet call on the brute-force route")

    for name, mod in list(sys.modules.items()):
        if name == "nhk" or name.startswith("nhk."):
            for fn in ("jet_binary", "jet_unary", "jet_const"):
                if hasattr(mod, fn):
                    monkeypatch.setattr(mod, fn, refuse)
    for s in systems:
        pts = sample_points(s, 3, seed=319)
        p = pts[1]
        assert np.all(np.isfinite(jacobiator_tensor(s, p, "bruteforce")))
        assert np.all(np.isfinite(nh_bivector(s, p, order=0).mat))
        bd = base_at(s, np.array([pt.q for pt in pts]), order=2)
        assert np.all(np.isfinite(bd.X.d2))


def test_public_point_operations_construct_no_jet2(system, monkeypatch):
    # after load_system, derivatives travel as arrays only: Jet2 is the
    # reference evaluator's type, not the library's
    p = sample_points(system, 1, seed=323)[0]

    def refuse(self, *args, **kwargs):
        raise AssertionError("Jet2 constructed by a point operation")

    monkeypatch.setattr(nhk.jet.Jet2, "__init__", refuse)
    for order in (0, 1):
        omega_M(system, p, order=order)
        nh_bivector(system, p, order=order)
    base_at(system, p.q, order=2)
    chart_tensors(system, p)
    curvature_coeffs(system, p)
    hamiltonian_M(system, p)
    nh_vector_field(system, p)
    embed(system, p)
    splitting_at(system, p)
    adapted_coframe(system, p.q)
    methods = ("bruteforce", "global")
    if system.adapted is not None:
        methods += ("km",)
        adapted_data(system, p.q)
    for method in methods:
        jacobiator_tensor(system, p, method)
    cross_validate(system, samples=3, seed=5)
    integrate(system, p, 0.01, 3)


def test_adapted_route_agrees(adapted_system):
    sys = adapted_system
    for p in sample_points(sys, 4, seed=313):
        tb = jacobiator_tensor(sys, p, method="bruteforce")
        tk = jacobiator_tensor(sys, p, method="km")
        scale = max(1.0, np.max(np.abs(tb)))
        np.testing.assert_allclose(tk, tb, atol=1e-9 * scale)


def test_scalar_entry_points_match_the_tensors(system):
    p = sample_points(system, 1, seed=317)[0]
    dim = system.dimM
    tb = jacobiator_tensor(system, p, method="bruteforce")
    for triple in [(0, 1, 2), (0, 1, dim - 1), (dim - 3, dim - 2, dim - 1)]:
        got = jacobiator_bruteforce(system, p, triple)
        assert got == pytest.approx(tb[triple], rel=1e-9, abs=1e-12)
        a, b, c = (basis(dim, i) for i in triple)
        glob = jacobiator_global(system, p, a, b, c)
        assert glob == pytest.approx(tb[triple], rel=1e-8, abs=1e-9)
    if system.adapted is not None:
        for triple in [(0, 1, dim - 1), (dim - 3, dim - 2, dim - 1)]:
            km = jacobiator_km(system, p, triple)
            assert km == pytest.approx(tb[triple], rel=1e-8, abs=1e-9)


# --------------------------------------- coordinate route, per triple


def _km_reference_value(data, triple):
    """The closed adapted-coordinate expressions for one chart triple, as
    a per-triple dispatch: a reference for the route's tensor."""
    n = data["n"]
    base, mom = [], []
    for idx in triple:
        (mom if idx >= n else base).append(idx)
    if len(set(triple)) < 3 or len(mom) < 2:
        return 0.0
    sign = _perm_sign(tuple(triple), tuple(base + mom))
    J, Kc, A, pt = data["J"], data["Kc"], data["A"], data["pt"]
    if len(mom) == 2:
        q_idx = base[0]
        be, ga = mom[0] - n, mom[1] - n
        if q_idx in data["r_idx"]:
            al = data["r_idx"].index(q_idx)
            value = float(np.einsum("b,b->", J[:, al], Kc[:, be, ga]))
        else:
            a = data["s_idx"].index(q_idx)
            value = float(-Kc[a, be, ga]
                          - np.einsum("g,bg,b->", A[a], J, Kc[:, be, ga]))
        return sign * value
    al, be, ga = (m - n for m in mom)
    dA_s, dJ_r, dJ_s = data["dA_s"], data["dJ_r"], data["dJ_s"]
    # g[b, ga] multiplies Kc[b, al, be] in each cyclic term
    g = (np.einsum("t,at,bag->bg", pt, J, dA_s)
         - np.einsum("t,at,adg,bd->bg", pt, J, Kc, J)
         - np.einsum("t,gbt->bg", pt, dJ_r)
         + np.einsum("t,ag,abt->bg", pt, A, dJ_s))
    total = 0.0
    for (x, y, z) in ((al, be, ga), (be, ga, al), (ga, al, be)):
        total += float(Kc[:, x, y] @ g[:, z])
    return sign * total


def _km_reference_tensor(system, p):
    data = _km_point_data(system, p, base_at(system, p.q, order=1))
    data.update(r_idx=list(system.r_indices), s_idx=list(system.s_indices))
    dim = system.dimM
    T = np.zeros((dim, dim, dim))
    for i, j, k in itertools.combinations(range(dim), 3):
        v = _km_reference_value(data, (i, j, k))
        if v != 0.0:
            T[i, j, k] = T[j, k, i] = T[k, i, j] = v
            T[j, i, k] = T[i, k, j] = T[k, j, i] = -v
    return T


def _assert_km_matches_the_reference(system):
    for p in sample_points(system, 5, seed=379):
        T = jacobiator_tensor(system, p, method="km")
        ref = _km_reference_tensor(system, p)
        # the tensor sums in another order: a few ulp of its largest entry
        assert np.max(np.abs(T - ref)) <= 1e-15 * np.max(np.abs(T))


def test_km_tensor_matches_the_per_triple_formulas(adapted_system):
    _assert_km_matches_the_reference(adapted_system)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_km_tensor_matches_the_per_triple_formulas_on_nested_systems(seed):
    system = load_system(nested_system(seed))
    assert system.n - system.k == 3      # three-momentum triples exist
    _assert_km_matches_the_reference(system)


# ------------------------------------------------------------- structure


def test_tensor_is_totally_antisymmetric(system):
    p = sample_points(system, 1, seed=331)[0]
    T = jacobiator_tensor(system, p, method="bruteforce")
    np.testing.assert_allclose(T, -T.transpose(1, 0, 2), atol=1e-10)
    np.testing.assert_allclose(T, -T.transpose(0, 2, 1), atol=1e-10)
    np.testing.assert_allclose(T, T.transpose(1, 2, 0), atol=1e-10)


def test_repeated_covectors_vanish(system):
    p = sample_points(system, 1, seed=337)[0]
    assert jacobiator_bruteforce(system, p, (0, 0, 1)) == pytest.approx(
        0.0, abs=1e-10)


def test_multilinearity_of_the_global_route(system):
    p = sample_points(system, 1, seed=347)[0]
    rng = np.random.default_rng(8)
    a, b, c, d = rng.normal(size=(4, system.dimM))
    lhs = jacobiator_global(system, p, a + 2 * d, b, c)
    rhs = (jacobiator_global(system, p, a, b, c)
           + 2 * jacobiator_global(system, p, d, b, c))
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_global_route_forwards_the_lift(system):
    # an admissible (C-valued) lift correction leaves the value unchanged
    # through the scalar entry point too
    k, nk = system.k, system.n - system.k
    rng = np.random.default_rng(21)
    for p in sample_points(system, 3, seed=353):
        a, b, c = rng.normal(size=(3, system.dimM))
        lift = (rng.normal(size=(k, nk)), rng.normal(size=(k, nk)))
        plain = jacobiator_global(system, p, a, b, c)
        lifted = jacobiator_global(system, p, a, b, c, lift=lift)
        scale = max(1.0, np.max(np.abs(jacobiator_tensor(system, p, "global")))
                    * np.sum(np.abs(a)) * np.sum(np.abs(b)) * np.sum(np.abs(c)))
        assert abs(lifted - plain) <= 1e-9 * scale


def test_global_route_rejects_a_malformed_lift(particle):
    p = sample_points(particle, 1, seed=359)[0]
    a, b, c = np.eye(particle.dimM)[[0, 3, 4]]
    zeros = np.zeros((1, 2))
    bad_lifts = [(np.zeros((2, 2)), zeros),         # wrong shape
                 (zeros,), (zeros, zeros, zeros),    # not a pair
                 zeros[0], 3.0,
                 (np.full((1, 2), np.nan), zeros),   # not finite
                 (zeros, np.full((1, 2), np.inf)),
                 (np.full((1, 2), 1j), zeros),       # not real
                 (zeros, [["a", "b"]]), (zeros, [[True, False]]),
                 (zeros, [[0.0], [0.0, 1.0]])]       # ragged
    for lift in bad_lifts:
        with pytest.raises(ParameterError, match="lift coefficient arrays"):
            jacobiator_global(particle, p, a, b, c, lift=lift)
        with pytest.raises(ParameterError, match="lift coefficient arrays"):
            curvature_coeffs(particle, p, lift=lift)


def test_momentum_sparsity_pattern(adapted_system):
    # entries with fewer than two momentum covectors vanish identically
    sys = adapted_system
    n = sys.n
    p = sample_points(sys, 1, seed=349)[0]
    T = jacobiator_tensor(sys, p, method="bruteforce")
    np.testing.assert_allclose(T[:n, :n, :n], 0.0, atol=1e-10)
    np.testing.assert_allclose(T[:n, :n, n:], 0.0, atol=1e-10)
    np.testing.assert_allclose(T[:n, n:, :n], 0.0, atol=1e-10)
    np.testing.assert_allclose(T[n:, :n, :n], 0.0, atol=1e-10)


def test_holonomic_jacobiator_vanishes(holonomic):
    for p in sample_points(holonomic, 10, seed=353):
        for method in ("bruteforce", "global", "km"):
            T = jacobiator_tensor(holonomic, p, method=method)
            assert np.max(np.abs(T)) < 1e-10


def test_unconstrained_jacobiator_is_exactly_zero(free):
    # k = 0: the bracket is the canonical Poisson bracket, so every route
    # gives exact zeros, and there is no complement to curve into
    adapted = load_system(dict(free.definition, adapted={"s_indices": []}))
    for s, methods in [(free, ("bruteforce", "global")),
                       (adapted, ("bruteforce", "global", "km"))]:
        d = s.dimM
        for p in sample_points(s, 5, seed=359):
            for method in methods:
                T = jacobiator_tensor(s, p, method=method)
                assert T.shape == (d, d, d) and not np.any(T)
            cv = curvature_coeffs(s, p)
            assert cv.coeffs.shape == (0, d, d)
            assert cv.W_lift.shape == (d, 0)


def test_nonholonomic_jacobiator_does_not_vanish(snakeboard):
    p = PointM([0.0, 0.0, 0.3, 0.2, 0.4], [0.7, -0.2, 1.3])
    T = jacobiator_tensor(snakeboard, p, method="bruteforce")
    assert np.max(np.abs(T)) > 1e-3


def test_lift_invariance_of_the_global_route(system):
    if system.k == 0:
        pytest.skip("no constraints")
    rng = np.random.default_rng(9)
    k, nk = system.k, system.n - system.k
    p = sample_points(system, 1, seed=359)[0]
    plain = jacobiator_tensor(system, p, method="global")
    for _ in range(2):
        lift = (rng.normal(size=(k, nk)), rng.normal(size=(k, nk)))
        lifted = jacobiator_tensor(system, p, method="global", lift=lift)
        scale = max(1.0, np.max(np.abs(plain)))
        np.testing.assert_allclose(lifted, plain, atol=1e-9 * scale)


# ------------------------------------------------- snakeboard closed forms


def test_snakeboard_jacobiator_closed_forms(snakeboard):
    for p in sample_points(snakeboard, 8, seed=367):
        T = jacobiator_tensor(snakeboard, p, method="bruteforce")
        names, rows = adapted_coframe(snakeboard, p.q)
        cof = {name: rows[i] for i, name in enumerate(names)}
        tphi, tS = cof["ptilde_phi"], cof["ptilde_S"]

        def jac(a, b, c):
            return float(np.einsum("ijk,i,j,k->", T, a, b, c))

        for key, last in [("jac_ppsi", cof["psi"]),
                          ("jac_palphaS", cof["alpha_S"]),
                          ("jac_eps1", cof["eps1"]),
                          ("jac_eps2", cof["eps2"])]:
            expected = snakeboard_expected(key, p)
            assert jac(tphi, tS, last) == pytest.approx(
                expected, rel=1e-9, abs=1e-12), key


def test_snakeboard_all_other_adapted_triples_vanish(snakeboard):
    # in the frame-adapted coframe the four identities above exhaust the
    # nonzero patterns containing (ptilde_phi, ptilde_S); triples without
    # that pair vanish
    p = sample_points(snakeboard, 1, seed=373)[0]
    T = jacobiator_tensor(snakeboard, p, method="bruteforce")
    names, rows = adapted_coframe(snakeboard, p.q)
    A = np.einsum("ijk,ai,bj,ck->abc", T, rows, rows, rows)
    i_phi, i_S = names.index("ptilde_phi"), names.index("ptilde_S")
    for a in range(8):
        for b in range(8):
            for c in range(8):
                if {i_phi, i_S} <= {a, b, c}:
                    continue
                assert abs(A[a, b, c]) < 1e-10, (names[a], names[b], names[c])


# ------------------------------------------------------- chart covariance


def test_jacobiator_transforms_as_a_trivector(particle, kernel_path):
    # same geometry loaded twice: once with the adapted frame, once with
    # the generic kernel frame.  The tensors must be related by the chart
    # change (q, ptilde) -> (q, B(q) ptilde).
    q = np.array([0.3, -0.4, 0.2])
    h = 1e-6

    def new_momenta(qq, pt_old):
        bo = base_at(particle, qq, order=0)
        bn = base_at(kernel_path, qq, order=0)
        return bn.X.val.T @ (bo.mu.val.T @ pt_old)

    pt_old = np.array([0.8, -0.5])
    p_old = PointM(q, pt_old)
    p_new = PointM(q, new_momenta(q, pt_old))

    # Jacobian A = d(chart_new)/d(chart_old) at the point
    dim = particle.dimM
    n = particle.n
    A = np.zeros((dim, dim))
    A[:n, :n] = np.eye(n)
    for l in range(n):
        up, dn = q.copy(), q.copy()
        up[l] += h
        dn[l] -= h
        A[n:, l] = (new_momenta(up, pt_old) - new_momenta(dn, pt_old)) / (2 * h)
    bo = base_at(particle, q, order=0)
    bn = base_at(kernel_path, q, order=0)
    A[n:, n:] = bn.X.val.T @ bo.mu.val.T

    T_old = jacobiator_tensor(particle, p_old, method="bruteforce")
    T_new = jacobiator_tensor(kernel_path, p_new, method="bruteforce")
    pushed = np.einsum("il,jm,kn,lmn->ijk", A, A, A, T_old)
    np.testing.assert_allclose(T_new, pushed, rtol=1e-5, atol=1e-6)


# --------------------------------------------------------- cross-validate


def test_cross_validate_passes_on_builtins(system):
    report = cross_validate(system, samples=8, seed=42, tol=1e-8)
    assert report.passed
    assert report.max_abs_discrepancy < 1e-8
    assert report.failures == []
    expected_methods = ("bruteforce", "global") if system.adapted is None \
        else ("bruteforce", "global", "km")
    assert tuple(report.methods) == expected_methods
    dim = system.dimM
    n_triples = dim * (dim - 1) * (dim - 2) // 6
    assert report.values.shape == (8, n_triples, len(expected_methods))
    assert len(report.triples) == n_triples


def test_cross_validate_deterministic(particle):
    a = cross_validate(particle, samples=6, seed=5, tol=1e-8)
    b = cross_validate(particle, samples=6, seed=5, tol=1e-8)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.max_abs_discrepancy == b.max_abs_discrepancy


def test_cross_validate_skips_out_of_domain_points(snakeboard):
    # momenta samples are harmless, but a tight domain forces skip
    # reporting rather than failure when geometry blows up; with the
    # stock snakeboard domain all sampled points stay valid
    report = cross_validate(snakeboard, samples=5, seed=42, tol=1e-8)
    assert report.skipped == []
    d = report.to_json_dict()
    assert set(d) >= {"system", "seed", "samples", "compared", "tol",
                      "methods", "max_abs_discrepancy", "pass", "failures",
                      "skipped"}
    assert d["compared"] == 5
    assert d["pass"] is True


def test_cross_validate_skip_reasons_match_the_public_route():
    # nh_particle with a metric that turns indefinite on a thin slab
    # around x = -1.9, which the load-time probes miss
    definition = builtin_definition("nh_particle")
    definition["metric"][0][0] = "1 - 3*exp(-50*(x-(-1.9))^2)"
    system = load_system(definition)
    report = cross_validate(system, samples=40, seed=42, tol=1e-8)
    assert report.skipped
    expected = []
    for i, p in enumerate(sample_points(system, 40, seed=42)):
        try:
            jacobiator_bruteforce(system, p, (0, 1, 2))
        except NhkError as err:
            expected.append({"point": i,
                             "reason": f"{type(err).__name__}: {err}"})
    assert report.skipped == expected
    assert all(s["reason"].startswith(
        "GeometryError: metric not positive definite") for s in expected)
    nan_rows = np.isnan(report.values).all(axis=(1, 2))
    assert np.flatnonzero(nan_rows).tolist() == [s["point"] for s in expected]
    assert np.isfinite(report.values[~nan_rows]).all()
    assert report.compared == 40 - len(expected) and report.passed


def _non_finite_bruteforce(monkeypatch):
    """Make the brute-force route's tensor NaN at every point."""
    real = nhk.jacobiator._trivector_brute
    monkeypatch.setattr(nhk.jacobiator, "_trivector_brute",
                        lambda *args: real(*args) * np.nan)


@pytest.mark.parametrize("form, domain, reason", [
    # the kernel's second derivative of sin(exp(x)) overflows
    ("-y*sin(exp(x))", [699.0, 700.0], f"EvalError: {NONFINITE}"),
    # a route value that is not finite where the base data is, injected:
    # on the one system found to give one (-y*exp(x), x in [460, 461]),
    # base_at refuses the D-frame Gram matrix first (see test_manifold)
    ("-y", [-1.0, 1.0],
     "EvalError: the bruteforce route has a non-finite value"),
], ids=["kernel", "route"])
def test_cross_validate_skips_a_point_with_a_non_finite_value(
        form, domain, reason, monkeypatch):
    definition = builtin_definition("nh_particle")
    definition["constraint_forms"] = [[form, "0", "1"]]
    definition["domain"] = {"x": domain}
    system = load_system(definition)
    if "route" in reason:
        _non_finite_bruteforce(monkeypatch)
    report = cross_validate(system, samples=4, seed=1)
    assert report.skipped == [{"point": i, "reason": reason}
                              for i in range(4)]
    assert np.isnan(report.values).all()
    assert report.failures == [] and report.max_abs_discrepancy == 0.0
    # a run that compared nothing does not pass
    assert report.compared == 0 and not report.passed
    assert report.to_json_dict()["compared"] == 0
    assert report.to_json_dict()["pass"] is False


def test_cross_validate_values_are_the_public_tensors(system):
    # bit-exact: sharing one base evaluation per point must not change
    # a single route result
    samples, seed = 3, 29
    report = cross_validate(system, samples=samples, seed=seed, tol=1e-8)
    assert report.skipped == []
    tri = tuple(np.array(report.triples).T)
    for i, p in enumerate(sample_points(system, samples, seed)):
        for m, method in enumerate(report.methods):
            T = jacobiator_tensor(system, p, method)
            assert np.array_equal(report.values[i, :, m], T[tri]), \
                (i, method)


@pytest.fixture
def base_at_calls(monkeypatch):
    """Record (order, q) of every base_at call made through any nhk
    module that binds the name (q of a PointM argument)."""
    calls = []
    orig = nhk.manifold.base_at

    def counting(system, q, order=1):
        calls.append((order, np.array(q.q if isinstance(q, PointM) else q)))
        return orig(system, q, order)

    for mod in (nhk.manifold, nhk.bracket, nhk.curvature, nhk.jacobiator):
        monkeypatch.setattr(mod, "base_at", counting)
    return calls


@pytest.mark.parametrize("name", ["snakeboard", "particle", "disk",
                                  "kernel_path"])
def test_cross_validate_evaluates_the_base_once_per_point(
        request, name, base_at_calls):
    system = request.getfixturevalue(name)
    report = cross_validate(system, samples=3, seed=42, tol=1e-8)
    assert report.skipped == []
    # one order-2 call on the stack of all three points
    assert [(o, np.shape(q)) for o, q in base_at_calls] == [(2, (3, system.n))]
    covered = np.concatenate([np.reshape(q, (-1, system.n))
                              for _, q in base_at_calls])
    expected = sample_points(system, 3, seed=42).q
    assert np.array_equal(covered, expected)


@pytest.mark.parametrize("call", [
    lambda s, p: jacobiator_tensor(s, p, "global"),
    lambda s, p: jacobiator_global(s, p, *np.eye(s.dimM)[[0, 1, -1]]),
    nh_vector_field,
], ids=["jacobiator_tensor_global", "jacobiator_global", "nh_vector_field"])
def test_composite_calls_evaluate_the_base_once(snakeboard, call,
                                                base_at_calls):
    p = sample_points(snakeboard, 1, seed=43)[0]
    call(snakeboard, p)
    assert len(base_at_calls) == 1


def test_cross_validate_flags_genuine_discrepancies(particle):
    # an absurdly small tolerance must produce failures, proving the
    # comparison is not vacuous
    report = cross_validate(particle, samples=4, seed=42, tol=1e-18)
    assert not report.passed
    assert report.failures
    f = report.failures[0]
    assert {"point", "triple", "method_a", "method_b", "delta"} <= set(f)


# ------------------------------------------------------------ error paths


@pytest.mark.parametrize("kwargs", [
    {"samples": 0}, {"samples": -1}, {"samples": True}, {"samples": 2.0},
    {"tol": float("nan")}, {"tol": -1.0}, {"tol": float("inf")},
    {"tol": True}, {"tol": "1e-8"},
    {"seed": 1.5}, {"seed": True}, {"seed": "3"},
], ids=lambda kw: "-".join(f"{k}={v!r}" for k, v in kw.items()))
def test_cross_validate_rejects_meaningless_arguments(particle, kwargs):
    with pytest.raises(ParameterError):
        cross_validate(particle, **{"samples": 3, **kwargs})


def test_cross_validate_accepts_numpy_scalars(particle):
    a = cross_validate(particle, samples=np.int64(3), seed=np.int64(3),
                       tol=np.float64(0.0))
    b = cross_validate(particle, samples=3, seed=3, tol=0.0)
    np.testing.assert_array_equal(a.values, b.values)
    # the report holds the plain validated values
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


def test_bad_triples_rejected(particle):
    p = sample_points(particle, 1, seed=1)[0]
    with pytest.raises(ValueError):
        jacobiator_bruteforce(particle, p, (0, 1, 99))
    # a triple is an iterable of exactly three indices
    for triple in [(0, 1), (0, 1, 2, 3), 5, None, 2.5]:
        for route in (jacobiator_bruteforce, jacobiator_km):
            with pytest.raises(ParameterError, match="three covector"):
                route(particle, p, triple)
    # non-integer indices are rejected, not truncated: (2, 3.9, 4) is not
    # (2, 3, 4), and neither is "234"
    for triple, bad in [((2, 3.9, 4), "3.9"), ((2, 3.0, 4), "3.0"),
                        ("234", "'2'"), ((0, True, 4), "True"),
                        ((0, 1, None), "None")]:
        for route in (jacobiator_bruteforce, jacobiator_km):
            with pytest.raises(ValueError, match=re.escape(
                    f"covector index {bad} is not an integer")):
                route(particle, p, triple)
    # numpy integers are integers
    for route in (jacobiator_bruteforce, jacobiator_km):
        assert (route(particle, p, np.array([2, 3, 4]))
                == route(particle, p, (2, 3, 4)))


def _vector_arguments(system, p):
    """(size, call) for every vector or covector argument of the public
    operations: call(x) passes x in that argument's place."""
    dim, n = system.dimM, system.n
    e, e5 = np.eye(dim), np.eye(5)
    pi = nh_bivector(system, p)
    cv = curvature_coeffs(system, p)
    p_red = [0.3, 0.25, 0.7, -0.2, 1.1]
    return [
        (dim, lambda x: jacobiator_global(system, p, x, e[3], e[4])),
        (dim, lambda x: jacobiator_global(system, p, e[0], e[3], x)),
        (dim, lambda x: curvature_KW_M(system, p, e[0], x)),
        (n, lambda x: curvature_KW_Q(system, p.q, x, np.eye(n)[1])),
        (dim, pi.sharp),
        (dim, lambda x: pi.pairing(e[0], x)),
        (dim, lambda x: cv.pair(x, e[1])),
        (5, lambda x: snakeboard_reduced_sharp(p_red, x)),
        (5, lambda x: snakeboard_reduced_sharp(x, e5[0])),
        (5, lambda x: snakeboard_reduced_jacobiator(x, (3, 4, 0))),
    ]


def test_vector_arguments_follow_one_rule(particle):
    p = sample_points(particle, 1, seed=1)[0]
    for size, call in _vector_arguments(particle, p):
        good = np.linspace(0.5, 1.0, size)
        assert np.isfinite(call(good)).all()
        # lists and integer arrays are read as float arrays
        assert np.array_equal(call(list(good)), call(good))
        assert np.array_equal(call(np.arange(size)),
                              call(np.arange(size, dtype=float)))
        for bad in (np.zeros(size + 1), np.zeros(size - 1),
                    np.zeros((1, size)), np.full(size, np.nan),
                    np.full(size, -np.inf), np.full(size, 1j),
                    ["a"] * size, [True] * size, [True] + [0.5] * (size - 1),
                    [[0.0], [0.0, 1.0]], None, 3.0):
            with pytest.raises(ParameterError,
                               match=re.escape(f"of shape ({size},)")):
                call(bad)


def test_km_requires_adapted_coordinates(snakeboard):
    p = sample_points(snakeboard, 1, seed=1)[0]
    with pytest.raises(UnsupportedOperationError):
        jacobiator_km(snakeboard, p, (0, 1, 2))
    with pytest.raises(UnsupportedOperationError):
        jacobiator_tensor(snakeboard, p, method="km")


def test_unknown_method_rejected(particle):
    p = sample_points(particle, 1, seed=1)[0]
    with pytest.raises(ParameterError):
        jacobiator_tensor(particle, p, method="magic")
