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

The scalar entry points read (or, global route, contract) the route's
whole tensor from ``jacobiator_tensor``, its one implementation.  It and
``cross_validate`` reach every route through one dispatch,
``_route_tensor``.

``cross_validate`` runs all applicable routes over a deterministic
sample of points and all chart covector triples and reports any
pairwise discrepancy beyond tolerance.  It evaluates the points as
stacks: the routes share one base evaluation per stack
(``manifold.base_at``: metric, constraints, the D-frame and their
derivatives), and the global route reads the complement frame Z of one
``manifold.complement_at`` per stack; then each route makes one pass
per stack, independent of the others, which yields its whole tensor at
every point of the stack.  The global route takes Z as an argument: its
value is the same for every complement, which a test checks with a
second one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .bracket import _bivector_packed, _chart_tensors
from .curvature import _curvature_coeffs, _nonholonomy
from .errors import (EvalError, NhkError, ParameterError,
                     UnsupportedOperationError, check_array, check_integer,
                     check_real)
from .manifold import (BaseData, NonholonomicSystem, PointM, base_at,
                       complement_at, sample_points)

__all__ = ["JacobiatorReport", "jacobiator_bruteforce", "jacobiator_global",
           "jacobiator_km", "jacobiator_tensor", "cross_validate"]


# ------------------------------------------------------------ brute force
def _cyclic_sum(T: np.ndarray) -> np.ndarray:
    """T[..., i, j, k] + T[..., j, k, i] + T[..., k, i, j]."""
    s = T.ndim - 3
    lead = tuple(range(s))
    return (T + T.transpose(lead + (s + 1, s + 2, s))
            + T.transpose(lead + (s + 2, s, s + 1)))


def _trivector_brute(system: NonholonomicSystem, p: PointM,
                     bd: BaseData) -> np.ndarray:
    """T[I, J, K] = sum_cyc sum_L Pi[L, I] d_L Pi[K, J] for the reference
    bivector (``bracket._bivector_packed``), from the order-2 base data
    ``bd`` at p.q (p and bd may be stacked alike, and so is T)."""
    Pi = _bivector_packed(system, p, bd, order=1)
    BM = Pi.val.swapaxes(-1, -2)      # BM[I, L] = Pi[L, I]
    dBM = Pi.d1.swapaxes(-1, -2)      # dBM[L, J, K] = d_L Pi[K, J]
    return _cyclic_sum(np.einsum("...il,...ljk->...ijk", BM, dBM))


def jacobiator_bruteforce(system: NonholonomicSystem, p: PointM,
                          triple):
    """Jacobiator on three chart basis covectors by direct
    differentiation of the bracket coefficients (reference route): one
    value per point, a numpy scalar at a lone point."""
    t = _check_triple(system.dimM, triple)
    return jacobiator_tensor(system, p, "bruteforce")[(..., *t)][()]


def _check_triple(dim: int, triple):
    t = tuple(triple) if np.iterable(triple) else ()
    if len(t) != 3:
        raise ParameterError(
            f"triple {triple!r} is not an iterable of three covector indices")
    return tuple(check_integer("covector index", i, 0, dim) for i in t)


# ----------------------------------------------------------- global route
def jacobiator_global(system: NonholonomicSystem, p: PointM,
                      alpha, beta, gamma, lift=None):
    """Jacobiator of three chart covectors via the curvature formula;
    one value per point."""
    covectors = [check_array(name, c, (system.dimM,)) for name, c in
                 (("alpha", alpha), ("beta", beta), ("gamma", gamma))]
    T = jacobiator_tensor(system, p, "global", lift=lift)
    return np.einsum("...ijk,i,j,k->...", T, *covectors)


def _global_tensor(system: NonholonomicSystem, p: PointM, bd: BaseData,
                   Z: np.ndarray, lift=None) -> np.ndarray:
    """Batched curvature-formula Jacobiator over all basis triples, from
    base data ``bd`` at p.q of order at least 1 and the values of a
    complement frame Z there (eps(Z) = 1, as ``complement_at`` builds
    it); p, bd and Z may be stacked alike, and the tensor then leads
    with the stack axis.  The value does not depend on the complement."""
    ct = _chart_tensors(system, p, bd)
    cv = _curvature_coeffs(system, bd, Z, lift)
    Pi, Om = ct.Pi, ct.Omega
    d, k = system.dimM, system.k
    lead = bd.q.shape[:-1]
    # K2[w, u, v] = coeffs[w] (pi#u, pi#v), as Pi^T coeffs[w] Pi
    PiT = Pi.swapaxes(-1, -2)[..., None, :, :]
    K2 = PiT @ cv.coeffs @ Pi[..., None, :, :]
    # KVt[(u, v), i]: component i of K(pi#u, pi#v) on the lifted frame
    KVt = (K2.reshape(lead + (k, d * d)).swapaxes(-1, -2)
           @ cv.W_lift.swapaxes(-1, -2))
    # Omega(K(pi#u, pi#v), pi#c) - c(K(pi#u, pi#v))
    G3 = (KVt @ (Om @ Pi) - KVt).reshape(lead + (d, d, d))
    return _cyclic_sum(G3)


# ------------------------------------------------------- coordinate route
def _km_point_data(system: NonholonomicSystem, p: PointM,
                   bd: BaseData) -> dict:
    """Arrays for the adapted-coordinate route at p, from base data
    ``bd`` at p.q of order at least 1 (adapted systems only).  p and bd
    may be stacked alike; the arrays then lead with the stack axis.

    The complement is always the canonical coordinate one (Z = d/ds),
    regardless of any w_frame override: J here couples the coordinate
    fiber momenta, p(d/ds^a) = J[a, be] ptilde_be: J = (mu Z)^T, read
    from bd.mu with its first derivative as J[a, tau] = mu[tau, s_a]."""
    r_idx, s_idx = list(system.r_indices), list(system.s_indices)
    J = bd.mu.val[..., s_idx].swapaxes(-1, -2)       # (a, tau)
    dJ = bd.mu.d1[..., s_idx].swapaxes(-1, -2)       # (l, a, tau)
    A, dA, _, Kc = _nonholonomy(system, bd)
    arrays = {
        "pt": p.ptilde,
        "A": A, "dA_s": dA[..., s_idx, :, :],      # (b, a, gamma)
        "J": J,                                    # (a, tau)
        "dJ_r": dJ[..., r_idx, :, :],              # (gamma, b, tau)
        "dJ_s": dJ[..., s_idx, :, :],              # (a, b, tau)
        "Kc": Kc,                                  # (a, al, be)
    }
    # C order: an operand's memory layout picks the BLAS kernel of @, so
    # a stack must be laid out as each point is on its own
    return {"n": system.n, "nk": system.n - system.k,
            "layout": _km_layout(system.n, tuple(r_idx), tuple(s_idx)),
            **{key: np.ascontiguousarray(a) for key, a in arrays.items()}}


@lru_cache(maxsize=None)
def _km_layout(n: int, r_idx: tuple, s_idx: tuple) -> np.ndarray:
    """For each chart triple (flattened), its index into concat(F, -F)
    of ``_km_value``: an even permutation of a canonical triple
    (q, p_be, p_ga) with be < ga, or (p_x, p_y, p_z) with x < y < z,
    reads the triple's value in F, an odd one its negation, and every
    other entry the zero F[0]; so the tensor is exactly antisymmetric."""
    nk, nn = len(r_idx), len(r_idx) ** 2
    row = {q: 1 + i * nn for i, q in enumerate(r_idx + s_idx)}
    src = {(q, n + be, n + ga): row[q] + be * nk + ga
           for q in range(n) for be, ga in combinations(range(nk), 2)}
    src.update({(n + x, n + y, n + z): 1 + n * nn + (x * nk + y) * nk + z
                for x, y, z in combinations(range(nk), 3)})
    size = 1 + n * nn + (nk ** 3 if nk >= 3 else 0)
    place = np.zeros((n + nk,) * 3, dtype=np.intp)
    for (i, j, l), s in src.items():
        for a, b, c in ((i, j, l), (j, l, i), (l, i, j)):
            place[a, b, c], place[b, a, c] = s, size + s
    place.flags.writeable = False
    return place.ravel()


# The whole route's tensor: the name stays, as the benchmark's tracer
# (nhkbench/spans.py) times the route as _km_point_data and _km_value.
def _km_value(data: dict) -> np.ndarray:
    """The Jacobiator tensor (dimM, dimM, dimM) of the closed
    adapted-coordinate expressions, from ``_km_point_data`` (stacked
    data gives a stack of tensors)."""
    J, A, pt, Kc, nk = (data[key] for key in ("J", "A", "pt", "Kc", "nk"))
    lead = J.shape[:-2]
    Kf = Kc.reshape(Kc.shape[:-2] + (nk * nk,))
    # F: (r^al, p_be, p_ga) = J[:, al] . Kc[:, be, ga]; (s^a, p_be, p_ga)
    # = -Kc[a, be, ga] - A[a] . J . Kc[:, be, ga]; three momenta: the
    # cyclic sum of Kc[:, x, y] . g[:, z], with g[b, ga] = pt[t] (J[a, t]
    # dA_s[b, a, ga] - J[a, t] Kc[a, d, ga] J[b, d] - dJ_r[ga, b, t]
    # + A[a, ga] dJ_s[a, b, t])
    P = J.swapaxes(-1, -2) @ Kf
    parts = [np.zeros(lead + (1,)), P, -Kf - A @ P]
    if nk >= 3:
        ptc = pt[..., :, None]
        w = (J @ ptc).swapaxes(-1, -2)
        g = ((w[..., None, :, :] @ data["dA_s"])[..., 0, :]
             - J @ (w @ Kf).reshape(lead + (nk, nk))
             - (data["dJ_r"] @ ptc[..., None, :, :])[..., 0].swapaxes(-1, -2)
             + (data["dJ_s"] @ ptc[..., None, :, :])[..., 0].swapaxes(-1, -2)
             @ A)
        parts.append(_cyclic_sum((Kf.swapaxes(-1, -2) @ g)
                                 .reshape(lead + (nk, nk, nk))))
    # each part flat per point, sized explicitly: the stack may be empty
    F = np.concatenate([x.reshape(lead + (math.prod(x.shape[len(lead):]),))
                        for x in parts], axis=-1)
    T = np.concatenate([F, -F], axis=-1)[..., data["layout"]]
    T += 0.0          # no signed zeros: the structural zeros are +0.0
    return T.reshape(lead + (data["n"] + nk,) * 3)


def jacobiator_km(system: NonholonomicSystem, p: PointM, triple):
    """Jacobiator on three chart basis covectors, one value per point,
    from the closed adapted-coordinate expressions (adapted systems)."""
    t = _check_triple(system.dimM, triple)
    return jacobiator_tensor(system, p, "km")[(..., *t)][()]


def jacobiator_tensor(system: NonholonomicSystem, p: PointM,
                      method: str = "bruteforce", lift=None) -> np.ndarray:
    """The full Jacobiator trivector at p as a (dimM, dimM, dimM) array
    of chart components; contract it with arbitrary covectors (e.g. a
    frame-adapted coframe).  ``lift`` only affects method "global" and
    must leave the result unchanged (lift-independence)."""
    if method not in ("bruteforce", "global", "km"):
        raise ParameterError(f"unknown Jacobiator method {method!r}")
    if method not in _applicable_methods(system):
        raise UnsupportedOperationError(
            f"coordinate Jacobiator needs an adapted declaration; "
            f"system {system.name!r} has none")
    bd = base_at(system, p, order=2 if method == "bruteforce" else 1)
    Z = complement_at(system, bd)[0] if method == "global" else None
    return _route_tensor(system, p, bd, method, Z, lift)


def _route_tensor(system: NonholonomicSystem, p: PointM, bd: BaseData,
                  method: str, Z: np.ndarray | None = None,
                  lift=None) -> np.ndarray:
    """The tensor of route ``method`` at p from base data ``bd`` at p.q
    (order 2 for the brute-force route, else at least 1) and, for the
    global route only, the values of the complement frame Z there; p,
    bd and Z may be stacked alike, and so is the tensor.  A non-finite
    entry raises EvalError naming the route, and so does numpy's overflow
    warning where warnings are errors (as in ``manifold._finite``)."""
    try:
        if method == "bruteforce":
            T = _trivector_brute(system, p, bd)
        elif method == "global":
            T = _global_tensor(system, p, bd, Z, lift)
        else:
            T = _km_value(_km_point_data(system, p, bd))
        if np.count_nonzero(np.isfinite(T)) == T.size:
            return T
    except RuntimeWarning:
        pass
    raise EvalError(f"the {method} route has a non-finite value")


# --------------------------------------------------------- cross-validate
def _applicable_methods(system: NonholonomicSystem) -> tuple:
    """The routes that apply to ``system``: brute force and global, plus
    km when it is declared in adapted coordinates."""
    if system.adapted is None:
        return ("bruteforce", "global")
    return ("bruteforce", "global", "km")


@dataclass(frozen=True)
class JacobiatorReport:
    """Outcome of a cross-validation run.

    values[i, t, m] is the Jacobiator at sample point i, chart triple
    triples[t], by methods[m]; NaN rows mark skipped points.  compared
    counts the points whose route values were compared (the samples
    less the skipped ones); a run that compared none does not pass."""
    system: str
    seed: int
    samples: int
    compared: int
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
            "compared": self.compared,
            "tol": self.tol,
            "methods": list(self.methods),
            "max_abs_discrepancy": self.max_abs_discrepancy,
            "pass": self.passed,
            "failures": [dict(f) for f in self.failures],
            "skipped": [dict(s) for s in self.skipped],
        }


# Points evaluated as one stack; bounds the memory of a pass.
_CHUNK = 64


def _stack_values(system: NonholonomicSystem, pts: PointM, methods: tuple,
                  tri: tuple) -> np.ndarray:
    """Route values out[b, t, m] at point b of pts, on chart triple t by
    methods[m]: one base evaluation and one complement evaluation, then
    one pass per route.  pts is a stacked PointM, or one point (no stack
    axis; out then has one row).  ``tri`` indexes a stack of tensors at
    the triples.  Raises the first NhkError of any point, as ``base_at``
    checks pts first and ``complement_at`` the complement next, and
    EvalError naming the first route with a non-finite value."""
    d = system.dimM
    bd = base_at(system, pts, order=2)
    Z, _ = complement_at(system, bd)
    return np.stack([_route_tensor(system, pts, bd, m, Z)
                     .reshape(-1, d, d, d)[tri] for m in methods], axis=-1)


def cross_validate(system: NonholonomicSystem, samples: int = 100,
                   seed: int = 42, tol: float = 1e-8) -> JacobiatorReport:
    """Compare every applicable Jacobiator route on all chart covector
    triples at deterministically sampled points.

    The stacked sample of ``sample_points`` is evaluated in slices of up
    to 64 points: one order-2 base evaluation per slice, which every
    route reads, then one brute-force, one global and (on adapted
    systems) one coordinate-route pass over the slice.  The routes'
    formulas stay independent, and a point's values do not depend on the
    slice it is in.  Points where the geometry cannot be evaluated
    (domain exit, frame or metric degeneracy, an expression guard, a
    route with a non-finite value) are skipped and reported, not failed:
    when a slice raises, its points are evaluated again one at a time,
    so each skip names that point's own first error.  A run that
    skipped every point compared nothing, and it does not pass."""
    samples = check_integer("samples", samples, 1)
    seed = check_integer("seed", seed)
    tol = check_real("tol", tol, 0.0)
    methods = _applicable_methods(system)
    pts = sample_points(system, samples, seed)
    triples = tuple(combinations(range(system.dimM), 3))
    tri = (slice(None),) + tuple(np.array(triples, dtype=np.intp)
                                 .reshape(len(triples), 3).T)
    values = np.full((samples, len(triples), len(methods)), np.nan)
    skipped = []
    for lo in range(0, samples, _CHUNK):
        hi = min(lo + _CHUNK, samples)
        # a lone point runs without a stack axis, which is faster
        chunk = pts[lo] if hi - lo == 1 else pts[lo:hi]
        try:
            values[lo:hi] = _stack_values(system, chunk, methods, tri)
            continue
        except NhkError:
            pass
        for i in range(lo, hi):
            try:
                values[i] = _stack_values(system, pts[i], methods, tri)[0]
            except NhkError as err:
                skipped.append({"point": i,
                                "reason": f"{type(err).__name__}: {err}"})
    pair_a, pair_b = np.array(list(combinations(range(len(methods)), 2))).T
    deltas = np.abs(values[:, :, pair_a] - values[:, :, pair_b])
    # fmax skips the NaN rows of skipped points, and NaN > tol is False
    max_disc = np.fmax.reduce(deltas, axis=None, initial=0.0)
    failures = [{"point": int(i), "triple": list(triples[t]),
                 "method_a": methods[pair_a[c]],
                 "method_b": methods[pair_b[c]],
                 "delta": deltas[i, t, c]}
                for i, t, c in zip(*np.nonzero(deltas > tol))]
    compared = samples - len(skipped)
    return JacobiatorReport(
        system=system.name, seed=seed, samples=samples, compared=compared,
        tol=tol, methods=methods, triples=triples, values=values,
        max_abs_discrepancy=float(max_disc),
        passed=compared > 0 and not failures,
        failures=failures, skipped=skipped)
