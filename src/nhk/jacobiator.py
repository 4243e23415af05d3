"""The Jacobiator of the induced bracket, three independent ways.

The bracket {f, g} = pi(df, dg) fails Jacobi exactly when the
constraints are nonholonomic.  The defect is measured by the Jacobiator

    Jac(a, b, c) = sum_cyc pi(a, d(pi(b, c)))

on covectors, here always the three-term cyclic sum over chart basis
covectors (no 1/2 normalization).  Three routes compute it:

* ``jacobiator_bruteforce`` -- differentiate the bracket coefficients
  directly, with the reference bivector matrix (inverse restricted
  Gram, ``bracket._bivector_packed``) carried with its first
  derivatives along the chart variables in packed arithmetic (no
  geometric input beyond pi itself);
* ``jacobiator_global``     -- the curvature formula: the Jacobiator is
  assembled from the curvature K_W of the admissible splitting paired
  through Omega_M against the sharp images,
      Jac(a, b, c) = sum_cyc [ Omega(K(pi#a, pi#b), pi#c)
                               - c(K(pi#a, pi#b)) ];
* ``jacobiator_km``         -- for systems declared in adapted
  coordinates (eps^a = ds^a + A^a_al dr^al), closed coordinate
  expressions in A, its nonholonomy antisymmetrization Kc, and the
  momentum coupling J -- nonzero only on patterns with at least two
  momentum covectors.

``cross_validate`` runs all applicable routes over a deterministic
sample of points and all chart covector triples and reports any
pairwise discrepancy beyond tolerance.  At each point the routes share
one base evaluation (``manifold.base_at``: metric, constraints, frames
and their derivatives); what they compute from it stays independent.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .bracket import _bivector_packed, _chart_tensors
from .curvature import _curvature_coeffs
from ._linalg import pk_matmul, Packed
from .errors import NhkError, ParameterError, UnsupportedOperationError
from .manifold import (BaseData, NonholonomicSystem, PointM, base_at,
                       sample_points)
from .systems import _perm_sign

__all__ = ["JacobiatorReport", "jacobiator_bruteforce", "jacobiator_global",
           "jacobiator_km", "jacobiator_tensor", "cross_validate"]


# ------------------------------------------------------------ brute force
def _bivector_arrays(system: NonholonomicSystem, p: PointM, bd: BaseData):
    """Value and gradient arrays of the bivector matrix from the
    reference route: V[L, I] = Pi[L, I], G[L, K, J] = d_L Pi[K, J].
    ``bd`` is the order-2 base data at p.q."""
    Pi = _bivector_packed(system, p, bd, order=1)
    return Pi.val, Pi.d1


def _trivector_from_arrays(V: np.ndarray, G: np.ndarray) -> np.ndarray:
    """T[I, J, K] = sum_cyc sum_L Pi[L, I] d_L Pi[K, J]."""
    BM = V.T                          # BM[I, L] = Pi[L, I]
    dBM = G.transpose(0, 2, 1)        # dBM[L, J, K] = d_L Pi[K, J]
    A = np.einsum("il,ljk->ijk", BM, dBM)
    return A + A.transpose(1, 2, 0) + A.transpose(2, 0, 1)


def _trivector_brute(system: NonholonomicSystem, p: PointM,
                     bd: BaseData) -> np.ndarray:
    return _trivector_from_arrays(*_bivector_arrays(system, p, bd))


def jacobiator_bruteforce(system: NonholonomicSystem, p: PointM,
                          triple) -> float:
    """Jacobiator on three chart basis covectors by direct
    differentiation of the bracket coefficients (reference route)."""
    i, j, k = _check_triple(system, triple)
    system.check_point(p)
    V, G = _bivector_arrays(system, p, base_at(system, p.q, order=2))
    total = 0.0
    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
        total += float(V[:, a] @ G[:, c, b])
    return total


def _check_triple(system, triple):
    t = tuple(int(i) for i in triple)
    if len(t) != 3:
        raise ValueError("triple must have three covector indices")
    dim = system.dimM
    for i in t:
        if not 0 <= i < dim:
            raise ValueError(f"covector index {i} out of range [0, {dim})")
    return t


# ----------------------------------------------------------- global route
def jacobiator_global(system: NonholonomicSystem, p: PointM,
                      alpha, beta, gamma, lift=None) -> float:
    """Jacobiator of three chart covectors via the curvature formula."""
    system.check_point(p)
    bd = base_at(system, p.q, order=1)
    ct = _chart_tensors(system, p, bd, 0)
    cv = _curvature_coeffs(system, bd, lift)
    al = np.asarray(alpha, dtype=float)
    be = np.asarray(beta, dtype=float)
    ga = np.asarray(gamma, dtype=float)
    total = 0.0
    for (a, b, c) in ((al, be, ga), (be, ga, al), (ga, al, be)):
        u, v, w = ct.Pi @ a, ct.Pi @ b, ct.Pi @ c
        kv = cv.W_lift @ np.einsum("aij,i,j->a", cv.coeffs, u, v)
        total += float(kv @ ct.Omega @ w - c @ kv)
    return total


def _global_tensor(system: NonholonomicSystem, p: PointM, bd: BaseData,
                   lift=None) -> np.ndarray:
    """Batched curvature-formula Jacobiator over all basis triples, from
    base data ``bd`` at p.q of order at least 1."""
    ct = _chart_tensors(system, p, bd, 0)
    cv = _curvature_coeffs(system, bd, lift)
    Pi, Om = ct.Pi, ct.Omega
    K2 = np.einsum("wij,iu,jv->wuv", cv.coeffs, Pi, Pi)
    KV = np.einsum("iw,wuv->iuv", cv.W_lift, K2)   # K(pi#u, pi#v) components
    term1 = np.einsum("iuv,ij,jc->uvc", KV, Om, Pi)
    term2 = KV.transpose(1, 2, 0)
    G3 = term1 - term2
    return G3 + G3.transpose(1, 2, 0) + G3.transpose(2, 0, 1)


# ------------------------------------------------------- coordinate route
def _km_base(system: NonholonomicSystem, p: PointM) -> BaseData:
    """Check that the adapted-coordinate route applies at p and return
    the order-1 base data it needs."""
    if system.adapted is None:
        raise UnsupportedOperationError(
            f"coordinate Jacobiator needs an adapted declaration; "
            f"system {system.name!r} has none")
    system.check_point(p)
    return base_at(system, p.q, order=1)


def _km_point_data(system: NonholonomicSystem, p: PointM,
                   bd: BaseData) -> dict:
    """Arrays for the adapted-coordinate route at p, from base data
    ``bd`` at p.q of order at least 1 (adapted systems only).

    The complement is always the canonical coordinate one (Z = d/ds),
    regardless of any w_frame override: J here couples the coordinate
    fiber momenta, p(d/ds^a) = J[a, be] ptilde_be."""
    r_idx, s_idx = list(system.r_indices), list(system.s_indices)
    kS = Packed(bd.kappa.val[s_idx, :], bd.kappa.d1[:, s_idx, :], None)
    J = pk_matmul(pk_matmul(kS, bd.X), bd.kD_inv)
    A = bd.eps.val[:, r_idx]
    dA = bd.eps.d1[:, :, r_idx]
    C = dA[r_idx].transpose(1, 0, 2) - np.einsum("bl,bae->ale", A, dA[s_idx])
    Kc = C - C.transpose(0, 2, 1)
    return {
        "n": system.n, "k": system.k, "nk": system.n - system.k,
        "r_idx": r_idx, "s_idx": s_idx, "pt": p.ptilde,
        "A": A, "dA_s": dA[s_idx],            # (b, a, gamma)
        "J": J.val,                           # (a, tau)
        "dJ_r": J.d1[r_idx],                  # (gamma, b, tau)
        "dJ_s": J.d1[s_idx],                  # (a, b, tau)
        "Kc": Kc,                             # (a, al, be)
    }


def _km_value(data: dict, triple) -> float:
    n, nk = data["n"], data["nk"]
    base, mom = [], []
    for idx in triple:
        (mom if idx >= n else base).append(idx)
    if len(set(triple)) < 3 or len(mom) < 2:
        return 0.0
    canonical = tuple(base + mom)
    sign = _perm_sign(tuple(triple), canonical)
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
    # three momenta
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


def jacobiator_km(system: NonholonomicSystem, p: PointM, triple) -> float:
    """Jacobiator on three chart basis covectors from the closed
    adapted-coordinate expressions (adapted systems only)."""
    t = _check_triple(system, triple)
    return _km_value(_km_point_data(system, p, _km_base(system, p)), t)


def jacobiator_tensor(system: NonholonomicSystem, p: PointM,
                      method: str = "bruteforce", lift=None) -> np.ndarray:
    """The full Jacobiator trivector at p as a (dimM, dimM, dimM) array
    of chart components; contract it with arbitrary covectors (e.g. a
    frame-adapted coframe).  ``lift`` only affects method "global" and
    must leave the result unchanged (lift-independence)."""
    if method == "bruteforce":
        system.check_point(p)
        return _trivector_brute(system, p, base_at(system, p.q, order=2))
    if method == "global":
        system.check_point(p)
        return _global_tensor(system, p, base_at(system, p.q, order=1),
                              lift=lift)
    if method == "km":
        data = _km_point_data(system, p, _km_base(system, p))
        dim = system.dimM
        T = np.zeros((dim, dim, dim))
        for i, j, k in combinations(range(dim), 3):
            v = _km_value(data, (i, j, k))
            if v != 0.0:
                T[i, j, k] = T[j, k, i] = T[k, i, j] = v
                T[j, i, k] = T[i, k, j] = T[k, j, i] = -v
        return T
    raise ParameterError(f"unknown Jacobiator method {method!r}")


# --------------------------------------------------------- cross-validate
@dataclass(frozen=True)
class JacobiatorReport:
    """Outcome of a cross-validation run.

    values[i, t, m] is the Jacobiator at sample point i, chart triple
    triples[t], by methods[m]; NaN rows mark skipped points."""
    system: str
    seed: int
    samples: int
    tol: float
    methods: tuple
    triples: tuple
    values: np.ndarray
    max_abs_discrepancy: float
    passed: bool
    failures: list
    skipped: list

    def to_json_dict(self) -> dict:
        return {
            "system": self.system,
            "seed": self.seed,
            "samples": self.samples,
            "tol": self.tol,
            "methods": list(self.methods),
            "max_abs_discrepancy": self.max_abs_discrepancy,
            "pass": self.passed,
            "failures": [dict(f) for f in self.failures],
            "skipped": [dict(s) for s in self.skipped],
        }


def _thread_count() -> int:
    raw = os.environ.get("NHK_THREADS", "").strip()
    if not raw:
        return 0
    try:
        return max(0, int(raw))
    except ValueError:
        return 0


def cross_validate(system: NonholonomicSystem, samples: int = 100,
                   seed: int = 42, tol: float = 1e-8) -> JacobiatorReport:
    """Compare every applicable Jacobiator route on all chart covector
    triples at deterministically sampled points.

    Each point gets one order-2 base evaluation, which every route
    reads; the routes' formulas stay independent.  Points where the
    geometry cannot be evaluated (domain exit, frame or metric
    degeneracy) are skipped and reported, not failed.  Set
    NHK_THREADS > 1 to spread points over a thread pool; results are
    keyed by point index, so the report is identical either way."""
    methods = ["bruteforce", "global"]
    if system.adapted is not None:
        methods.append("km")
    pts = sample_points(system, samples, seed)
    dim = system.dimM
    triples = tuple(combinations(range(dim), 3))
    nt, nm = len(triples), len(methods)
    tri = tuple(np.array(triples, dtype=np.intp).reshape(nt, 3).T)
    pair_a, pair_b = np.array(list(combinations(range(nm), 2))).T
    values = np.full((samples, nt, nm), np.nan)
    skipped = []

    def work(i):
        p = pts[i]
        try:
            system.check_point(p)
            bd = base_at(system, p.q, order=2)
            out = np.empty((nt, nm))
            out[:, 0] = _trivector_brute(system, p, bd)[tri]
            out[:, 1] = _global_tensor(system, p, bd)[tri]
            if nm == 3:
                data = _km_point_data(system, p, bd)
                out[:, 2] = [_km_value(data, tr) for tr in triples]
            return i, out, None
        except NhkError as err:
            return i, None, f"{type(err).__name__}: {err}"

    nthreads = _thread_count()
    if nthreads > 1:
        with ThreadPoolExecutor(max_workers=nthreads) as pool:
            results = list(pool.map(work, range(samples)))
    else:
        results = [work(i) for i in range(samples)]

    failures = []
    max_disc = 0.0
    for i, out, reason in results:
        if out is None:
            skipped.append({"point": i, "reason": reason})
            continue
        values[i] = out
        deltas = np.abs(out[:, pair_a] - out[:, pair_b])   # (triple, pair)
        # fmax skips NaN, as the comparison delta > max_disc does
        max_disc = np.fmax.reduce(deltas, axis=None, initial=max_disc)
        for t, c in zip(*np.nonzero(deltas > tol)):
            failures.append({
                "point": i, "triple": list(triples[t]),
                "method_a": methods[pair_a[c]],
                "method_b": methods[pair_b[c]],
                "delta": deltas[t, c],
            })
    return JacobiatorReport(
        system=system.name, seed=seed, samples=samples, tol=tol,
        methods=tuple(methods), triples=triples, values=values,
        max_abs_discrepancy=float(max_disc), passed=not failures,
        failures=failures, skipped=skipped)
