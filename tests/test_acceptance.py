"""Acceptance gate: the package's headline claims, one test and one
printed PASS/FAIL line per criterion, each at its stated tolerance.

Run with plain pytest; the lines are printed outside capture so they
always appear in the log.
"""

import math
import os
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import numpy as np

import nhk
from expr_corpus import CORPUS
from nhk import (
    PointM,
    adapted_coframe,
    adapted_data,
    base_at,
    builtin,
    chart_tensors,
    complement_at,
    cross_validate,
    curvature_KW_M,
    curvature_KW_Q,
    integrate,
    jacobiator_tensor,
    list_builtins,
    nh_bivector,
    sample_points,
    snakeboard_reduced_jacobiator,
    snakeboard_reduced_sharp,
    splitting_at,
)
from nhk import expr as ex
from nhk.systems import snakeboard_expected


def report(capsys, num, ok, label, detail=""):
    """Print one always-visible verdict line, then enforce it."""
    verdict = "PASS" if ok else "FAIL"
    tail = f" [{detail}]" if detail else ""
    with capsys.disabled():
        print(f"acceptance {num} {verdict}: {label}{tail}")
    assert ok, f"acceptance criterion {num} failed: {label}{tail}"


# ---------------------------------------------------------------- 1


def test_criterion_1_three_route_cross_validation(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    for name in list_builtins():
        rep = cross_validate(builtin(name), samples=100, seed=42, tol=1e-8)
        ok = ok and rep.passed and not rep.failures
        if name in ("nh_particle", "rolling_disk"):
            ok = ok and "km" in rep.methods
        worst = max(worst, rep.max_abs_discrepancy)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report(capsys, 1, ok,
           "Jacobiator routes agree on all builtins "
           "(100 samples, seed 42, tol 1e-8)",
           f"max |Delta| = {worst:.3e}, {elapsed:.1f}s")


# ---------------------------------------------------------------- 2


def test_criterion_2_snakeboard_closed_form_values(capsys):
    sb = builtin("snakeboard")
    worst_rel = 0.0
    worst_rest = 0.0
    for p in sample_points(sb, 20, seed=42):
        T = jacobiator_tensor(sb, p, "global")
        names, rows = adapted_coframe(sb, p.q)
        A = np.einsum("ijk,ai,bj,ck->abc", T, rows, rows, rows)
        i = {name: idx for idx, name in enumerate(names)}
        identities = [
            ("psi", snakeboard_expected("jac_ppsi", p)),
            ("alpha_S", snakeboard_expected("jac_palphaS", p)),
            ("eps1", snakeboard_expected("jac_eps1", p)),
            ("eps2", snakeboard_expected("jac_eps2", p)),
        ]
        tested = []
        for third, want in identities:
            got = A[i["ptilde_phi"], i["ptilde_S"], i[third]]
            worst_rel = max(worst_rel, abs(got - want) / abs(want))
            tested.append(frozenset((i["ptilde_phi"], i["ptilde_S"],
                                     i[third])))
        for triple in combinations(range(sb.dimM), 3):
            if frozenset(triple) not in tested:
                worst_rest = max(worst_rest, abs(A[triple]))
    ok = worst_rel < 1e-9 and worst_rest < 1e-10
    report(capsys, 2, ok,
           "snakeboard adapted-coframe Jacobiator table at 20 points",
           f"identities rel {worst_rel:.3e}, other triples {worst_rest:.3e}")


# ---------------------------------------------------------------- 3


def test_criterion_3_snakeboard_hamiltonian_fields(capsys):
    sb = builtin("snakeboard")
    r = sb.params["r"]
    e_psi = np.eye(8)[3]
    want_psi = np.eye(8)[5]  # d/dptilde_psi
    worst = 0.0
    for p in sample_points(sb, 20, seed=43):
        Pi = chart_tensors(sb, p, order=0).Pi
        worst = max(worst, np.max(np.abs(Pi @ e_psi - want_psi)))
        bd = base_at(sb, p.q, order=0)
        for a in range(sb.k):
            pullback = np.concatenate([bd.eps.val[a], np.zeros(3)])
            worst = max(worst, np.max(np.abs(Pi @ pullback)))
        phi = p.q[4]
        pt_psi, _, pt_S = p.ptilde
        G = 2 * math.tan(phi) * pt_S + 4 * r * math.cos(phi) * (
            snakeboard_expected("J1", p) * pt_S
            + snakeboard_expected("J2", p) * pt_psi)
        worst = max(worst, abs(Pi[7, 6] - G) / max(1.0, abs(G)))
    ok = worst < 1e-9
    report(capsys, 3, ok,
           "snakeboard sharp images: dpsi, constraint pullbacks, "
           "dptilde_phi coefficient at 20 points",
           f"max error {worst:.3e}")


# ---------------------------------------------------------------- 4


def test_criterion_4_curvature_properties(capsys):
    sb = builtin("snakeboard")
    n, k, nk = sb.n, sb.k, sb.n - sb.k
    rng = np.random.default_rng(44)
    worst_coeff = 0.0
    worst_semi = 0.0
    worst_lift = 0.0
    worst_proj = 0.0
    for p in sample_points(sb, 20, seed=44):
        bd = base_at(sb, p.q, order=0)
        # closed-form coefficient: eps-components of K(lift X_S, lift X_phi)
        legs = np.zeros((sb.dimM, 3))
        legs[:n] = bd.X.val
        coeff = bd.eps.val @ curvature_KW_M(sb, p, legs[:, 2],
                                            legs[:, 1])[:n]
        want = snakeboard_expected("KW_coeff", p)
        worst_coeff = max(worst_coeff,
                          abs(coeff[0] - want) / abs(want),
                          abs(coeff[1] + want) / abs(want))
        # semi-basic: vertical insertions vanish
        w = rng.normal(size=sb.dimM)
        for j in range(n, sb.dimM):
            vert = np.eye(sb.dimM)[j]
            worst_semi = max(worst_semi, np.max(np.abs(
                curvature_KW_M(sb, p, vert, w))))
        # changing the lift moves the value only inside C
        sp = splitting_at(sb, p)
        u = sp.C_basis @ rng.normal(size=2 * nk)
        v = sp.C_basis @ rng.normal(size=2 * nk)
        lift = (rng.normal(size=(k, nk)), rng.normal(size=(k, nk)))
        diff = curvature_KW_M(sb, p, u, v, lift=lift) \
            - curvature_KW_M(sb, p, u, v)
        worst_lift = max(worst_lift,
                         np.max(np.abs(bd.eps.val @ diff[:n])))
        # base projection: tau pushes K on M to the distribution
        # curvature on Q of the projected arguments
        a, b = rng.normal(size=(2, sb.dimM))
        k_m = curvature_KW_M(sb, p, a, b)
        k_q = curvature_KW_Q(sb, p.q, a[:n], b[:n])
        worst_proj = max(worst_proj, np.max(np.abs(k_m[:n] - k_q)),
                         np.max(np.abs(k_m[n:])))
    ok = (worst_coeff < 1e-9 and worst_semi < 1e-10
          and worst_lift < 1e-9 and worst_proj < 1e-9)
    report(capsys, 4, ok,
           "curvature: -2 r cos(phi) coefficient, semi-basicity, "
           "lift independence, base projection",
           f"coeff {worst_coeff:.3e}, semi-basic {worst_semi:.3e}, "
           f"lift {worst_lift:.3e}, projection {worst_proj:.3e}")


# ---------------------------------------------------------------- 5


def test_criterion_5_bracket_table_on_adapted_builtins(capsys):
    worst = 0.0
    for name in ("nh_particle", "rolling_disk"):
        system = builtin(name)
        n, k = system.n, system.k
        for p in sample_points(system, 50, seed=45):
            B = nh_bivector(system, p, order=0).bracket_matrix()
            ad = adapted_data(system, p.q)
            A_val = ad.A.val
            bd = base_at(system, p.q, order=0)
            J = (bd.mu.val @ complement_at(system, bd)[0].val).T
            P = J @ p.ptilde
            worst = max(worst, np.max(np.abs(B[:n, :n])))
            for al, r_i in enumerate(ad.r_indices):
                for be in range(n - k):
                    want = 1.0 if al == be else 0.0
                    worst = max(worst, abs(B[r_i, n + be] - want))
            for a, s_i in enumerate(ad.s_indices):
                for al in range(n - k):
                    worst = max(worst,
                                abs(B[s_i, n + al] + A_val[a, al]))
            mom = np.einsum("b,bxy->xy", P, ad.Kcoef)
            worst = max(worst, np.max(np.abs(B[n:, n:] - mom)))
    ok = worst < 1e-9
    report(capsys, 5, ok,
           "coordinate bracket table on the adapted builtins at 50 points",
           f"max error {worst:.3e}")


# ---------------------------------------------------------------- 6


def test_criterion_6_integrable_constraints_null_test(capsys, holonomic):
    worst = 0.0
    for p in sample_points(holonomic, 100, seed=46):
        for method in ("bruteforce", "global", "km"):
            worst = max(worst, np.max(np.abs(
                jacobiator_tensor(holonomic, p, method))))
    ok = worst < 1e-10
    report(capsys, 6, ok,
           "integrable constraints (eps = dz) kill the Jacobiator "
           "at 100 points",
           f"max |value| = {worst:.3e}")


# ---------------------------------------------------------------- 7


def test_criterion_7_reduced_snakeboard(capsys):
    sb = builtin("snakeboard")
    r = sb.params["r"]
    idx = np.ix_([3, 4, 5, 6, 7], [3, 4, 5, 6, 7])
    rng = np.random.default_rng(47)
    worst_sharp = 0.0
    worst_jac_rel = 0.0
    worst_rest = 0.0
    worst_rep = 0.0
    for _ in range(20):
        psi, phi = rng.uniform(-1.2, 1.2, size=2)
        pt = rng.normal(size=3)
        p_red = [psi, phi, *pt]
        q5 = np.array([0.0, 0.0, 0.0, psi, phi])
        J1 = snakeboard_expected("J1", q5)
        J2 = snakeboard_expected("J2", q5)
        G = 2 * math.tan(phi) * pt[2] + 4 * r * math.cos(phi) * (
            J1 * pt[2] + J2 * pt[0])
        display = np.array([
            [0.0, 0.0, -1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, -1.0, 0.0],
            [1.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0, -G],
            [0.0, 0.0, 0.0, G, 0.0],
        ])
        mat = np.column_stack([
            snakeboard_reduced_sharp(p_red, np.eye(5)[i]) for i in range(5)
        ])
        worst_sharp = max(worst_sharp, np.max(np.abs(mat - display)))
        # reduced Jacobiator: the one closed-form entry, everything else 0
        want = 4 * r * math.cos(phi) * J2
        got = snakeboard_reduced_jacobiator(p_red, (3, 4, 0))
        worst_jac_rel = max(worst_jac_rel, abs(got - want) / abs(want))
        for triple in combinations(range(5), 3):
            if set(triple) != {3, 4, 0}:
                worst_rest = max(worst_rest, abs(
                    snakeboard_reduced_jacobiator(p_red, triple)))
        # representative independence: any group configuration projects
        # to the same reduced tensors
        group = rng.normal(size=3)
        q_full = np.array([*group, psi, phi])
        Pi = chart_tensors(sb, PointM(q_full, pt), order=0).Pi
        worst_rep = max(worst_rep, np.max(np.abs(Pi[idx] - mat)))
    ok = (worst_sharp < 1e-10 and worst_jac_rel < 1e-9
          and worst_rest < 1e-10 and worst_rep < 1e-10)
    report(capsys, 7, ok,
           "reduced snakeboard: sharp display, Jacobiator closed form, "
           "representative independence",
           f"sharp {worst_sharp:.3e}, jac rel {worst_jac_rel:.3e}, "
           f"others {worst_rest:.3e}, representatives {worst_rep:.3e}")


# ---------------------------------------------------------------- 8


def _fd_grad(f, xs, h=1e-4):
    g = np.zeros(len(xs))
    for i in range(len(xs)):
        e = np.zeros(len(xs))
        e[i] = h
        g[i] = (f(xs + e) - f(xs - e)) / (2 * h)
    return g


def _fd_hess(f, xs, h=1e-4):
    m = len(xs)
    out = np.zeros((m, m))
    for i in range(m):
        ei = np.zeros(m)
        ei[i] = h
        out[i, i] = (f(xs + ei) - 2 * f(xs) + f(xs - ei)) / h**2
        for j in range(i + 1, m):
            ej = np.zeros(m)
            ej[j] = h
            out[i, j] = out[j, i] = (
                f(xs + ei + ej) - f(xs + ei - ej)
                - f(xs - ei + ej) + f(xs - ei - ej)) / (4 * h * h)
    return out


def test_criterion_8_numerical_substrate(capsys):
    # (a) jet derivatives against central differences over the corpus
    checked = 0
    worst_fd = 0.0
    for text, bindings in CORPUS:
        names = sorted(bindings)
        if not names:
            continue
        ast = ex.resolve(ex.parse(text), set(names), set())
        xs = np.array([bindings[nm] for nm in names])

        def value(at, _ast=ast, _names=names):
            return ex.eval_expr(_ast, dict(zip(_names, at)), {}, [],
                                order=0).value

        jet = ex.eval_expr(ast, bindings, {}, names, order=2)
        for got, ref in ((jet.grad, _fd_grad(value, xs)),
                         (jet.hess, _fd_hess(value, xs))):
            worst_fd = max(worst_fd, np.max(
                np.abs(got - ref) / (1.0 + np.abs(ref))))
        checked += 1

    # (b) energy drift over 10^4 RK4 steps at dt = 1e-3
    particle = builtin("nh_particle")
    traj = integrate(particle, PointM([0.0, 0.0, 0.0], [1.0, 0.5]),
                     dt=1e-3, steps=10_000)
    drift = traj.diagnostics["max_energy_drift"]

    # (c) fourth-order self-convergence on the snakeboard
    sb = builtin("snakeboard")
    init = PointM([0.0, 0.0, 0.2, 0.0, 0.7], [0.0, 0.0, 40.0])
    finals = []
    for dt, steps in ((1e-3, 1000), (5e-4, 2000), (2.5e-4, 4000)):
        t = integrate(sb, init, dt, steps)
        assert t.completed
        finals.append(t.states_array()[-1])
    d1 = np.linalg.norm(finals[0] - finals[1])
    d2 = np.linalg.norm(finals[1] - finals[2])
    ratio = d1 / d2

    ok = (checked >= 50 and worst_fd < 1e-6 and traj.completed
          and drift < 1e-8 and abs(ratio - 16.0) <= 0.2 * 16.0)
    report(capsys, 8, ok,
           "jets vs finite differences, RK4 drift, 4th-order convergence",
           f"{checked} expressions max {worst_fd:.3e}, "
           f"drift {drift:.3e}/1e4 steps, ratio {ratio:.2f}")


# ---------------------------------------------------------------- 9


def test_criterion_9_verify_is_byte_deterministic(capsys):
    cmd = [sys.executable, "-m", "nhk", "verify", "--seed", "42"]
    # the child imports the same nhk as this suite, installed or not
    src = str(Path(nhk.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    runs = [subprocess.run(cmd, capture_output=True, env=env)
            for _ in range(2)]
    ok = (runs[0].returncode == 0 and runs[1].returncode == 0
          and runs[0].stdout == runs[1].stdout and runs[0].stdout)
    report(capsys, 9, bool(ok),
           "two `nhk verify --seed 42` runs emit byte-identical stdout",
           f"{len(runs[0].stdout)} bytes, exit {runs[0].returncode}")
